"""Independent pseudospectral integrator for the dispersive flow.

Modewise the equation reads

    d/dt u_hat(n) = i n |n| u_hat(n) - i n (u^2)_hat(n),

and the linear phase is integrated exactly (integrating factor), so the
only discretization errors are the RK4 step on the slow nonlinear part and
the dealiasing cut.  The state is real, so the steps carry only its modes
0..grid/2, through rfft and irfft, and the samples are those modes.  This
module never touches the coordinate pipeline; it exists to cross-validate it.
"""

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailure, TruncationWarning

PHASE_BUDGET = 50.0
DEALIAS_FRACTION = 2.0 / 3.0  # the 2/3 rule: keep |n| <= DEALIAS_FRACTION * grid/2


@dataclass
class IntegratorConfig:
    """RK4 samples at one or more sorted times past t = 0, each a whole number
    of steps dt: steps[i] is times[i]'s step count and T the last time."""
    grid_size: int
    dt: float
    times: tuple

    def __post_init__(self):
        ts = self.times = tuple(sorted(float(t) for t in self.times))
        if not ts or ts[0] <= 0:
            raise ValueError("time grid must be positive")
        if not all(math.isfinite(t) for t in ts):
            raise ValueError("time grid must be finite")
        g = self.grid_size = int(self.grid_size)
        if g < 4 or g & (g - 1):
            raise ValueError("grid_size must be a power of two >= 4")
        if not 0 < self.dt < math.inf:
            raise ValueError("need finite dt > 0, got %r" % self.dt)
        self.T = ts[-1]
        if not math.isfinite(self.T / self.dt):
            raise ValueError("the step count T/dt is not finite (T=%g, dt=%g)" % (self.T, self.dt))
        self.steps = tuple(round(t / self.dt) for t in ts)
        # step 0 is the integrator's t = 0 sample, not a time asked for
        if self.steps[0] < 1:
            raise ValueError("time %g is shorter than one step dt=%g" % (ts[0], self.dt))
        if any(abs(t / self.dt - k) > 1e-9 for t, k in zip(ts, self.steps)):
            raise ValueError("every time must be a multiple of dt=%g" % self.dt)


class Trajectory:
    """Sampled real states: times[i] pairs with coeffs[i], whose entry n is
    u_hat(n) for n = 0..grid/2, and modes past band are dealiased away."""

    def __init__(self, times, coeffs, band):
        self.times = np.asarray(times, dtype=float)
        self.coeffs = np.asarray(coeffs, dtype=complex)
        self.band = int(band)


def check_band(grid_size, N):
    """Raise ValueError unless a grid of grid_size points can dealias band N."""
    if grid_size < 4 * N:
        raise ValueError("grid %d cannot dealias band N=%d (need >= 4N)" % (grid_size, N))


@np.errstate(over="ignore", invalid="ignore")
def integrate(u0, cfg):
    """Integrating-factor RK4 trajectory from a real mean-zero potential.

    The grid must resolve the quadratic interactions of the retained band
    (grid_size >= 4N); the mean mode has zero right-hand side and is pinned
    to 0.  The trajectory holds t = 0 and cfg.times; a non-finite state
    raises NumericalFailure, without numpy's overflow warnings.  A warning
    flags steps asking the top retained mode to rotate through more than
    PHASE_BUDGET radians, where the RK4 treatment of the nonlinear term
    loses accuracy even though the linear phase is exact.

    The steps carry only modes 0..grid/2 of the real state, u_hat(-n) =
    conj(u_hat(n)) being implied, and each sample is the state as stepped.
    Each right-hand side calls pocketfft's irfft and rfft_n_even kernels,
    the ones np.fft.irfft and np.fft.rfft call, without np.fft's wrapper.
    The trajectory equals the plain half-spectrum loop on np.fft
    (tests/oracles.py::integrate_loop_half) bit for bit.
    """
    if not u0.real:
        raise ValueError("direct integration needs a real potential")
    grid = cfg.grid_size
    check_band(grid, u0.N)
    n = np.arange(grid // 2 + 1)
    keep = int(np.floor((grid // 2) * DEALIAS_FRACTION))
    if cfg.dt * (grid // 2) ** 2 > PHASE_BUDGET:
        warnings.warn("dt=%g spins the top mode %.3g radians per step"
                      % (cfg.dt, cfg.dt * (grid // 2) ** 2), TruncationWarning)

    c = np.zeros(grid // 2 + 1, dtype=complex)
    c[:u0.N + 1] = u0.band()[u0.N:]

    # np.fft's Python wrapper (dispatch, dtype and norm lookup, shape checks)
    # costs about 40% of a step, so rhs calls the kernels it would pick: irfft
    # (length from phys) and, the grid being even, rfft_n_even, each with the
    # factor 1.0 that irfft(norm="forward") and rfft() pass.  The bit-exact
    # oracle tests tie these private calls to the public np.fft.  Imported
    # here, so that verbs which never integrate do not load numpy.fft.
    from numpy.fft import _pocketfft_umath as pocketfft

    # The inverse FFT runs unscaled and the forward FFT's 1/grid sits in coef
    # with the factor -i n and the dealias mask: all exact (powers of two,
    # zeros and ones).  Both FFTs write into reused buffers.  Every complex
    # product keeps its operand order, because numpy's vectorised complex
    # multiply need not round commutatively.
    coef = (-1j * n) * (n <= keep) / grid
    phys = np.empty(grid)
    k1, k2, k3, k4, stage, Ec = (np.empty_like(c) for _ in range(6))

    def rhs(state, out):
        pocketfft.irfft(state, 1.0, out=phys)
        np.square(phys, out=phys)
        pocketfft.rfft_n_even(phys, 1.0, out=out)
        np.multiply(coef, out, out=out)
        out[0] = 0.0

    dt = cfg.T / cfg.steps[-1]
    E = np.exp(1j * n * n * dt / 2.0)
    E2 = E * E
    twoE, dtE, half, sixth = 2.0 * E, dt * E, dt / 2.0, dt / 6.0
    times, stored = [0.0], [c]
    step = 0
    for k in cfg.steps:
        while step < k:
            step += 1
            # k2 = rhs(E (c + dt/2 k1)), k3 = rhs(E c + dt/2 k2), k4 = rhs(E2 c + dt E k3),
            # c <- E2 c + dt/6 (E2 k1 + 2E (k2 + k3) + k4), on reused buffers; the
            # new c is a new array, so a stored c is never written again
            E2c = E2 * c
            rhs(c, k1)
            np.multiply(half, k1, out=stage)
            stage += c
            rhs(np.multiply(E, stage, out=stage), k2)
            np.multiply(half, k2, out=stage)
            stage += np.multiply(E, c, out=Ec)
            rhs(stage, k3)
            np.multiply(dtE, k3, out=stage)
            stage += E2c
            rhs(stage, k4)
            k2 += k3
            np.multiply(twoE, k2, out=k2)
            np.multiply(E2, k1, out=k1)
            k1 += k2
            k1 += k4
            np.multiply(sixth, k1, out=k1)
            E2c += k1
            c = E2c
            c[0] = 0.0
            # the next inverse FFT and square carry a non-finite mode into
            # mode 1, so one entry per step, and all of a stored one, suffice
            if not cmath.isfinite(c[1]) or step == k and not np.isfinite(c).all():
                raise NumericalFailure("non-finite state at t=%g" % (step * dt))
        times.append(k * dt)
        stored.append(c)
    return Trajectory(times, stored, keep)
