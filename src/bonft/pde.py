"""Independent pseudospectral integrator for the dispersive flow.

Modewise the equation reads

    d/dt u_hat(n) = i n |n| u_hat(n) - i n (u^2)_hat(n),

and the linear phase is integrated exactly (integrating factor), so the
only discretization errors are the RK4 step on the slow nonlinear part and
the dealiasing cut.  This module never touches the coordinate pipeline;
it exists to cross-validate it.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailure
from .hardy import Potential

PHASE_BUDGET = 50.0
DEALIAS_FRACTION = 2.0 / 3.0  # the 2/3 rule: keep |n| <= DEALIAS_FRACTION * grid/2
DROP_TOL = 1e-13  # potential_at drops coefficients of at most this modulus


@dataclass
class IntegratorConfig:
    grid_size: int = 256
    dt: float = 1e-3
    T: float = 1.0
    store_every: int = 1

    def __post_init__(self):
        g = int(self.grid_size)
        if g < 4 or g & (g - 1):
            raise ValueError("grid_size must be a power of two >= 4")
        if not (0 < self.dt < math.inf and 0 <= self.T < math.inf):
            raise ValueError("need finite dt > 0 and T >= 0")
        if int(self.store_every) < 1:
            raise ValueError("store_every must be >= 1")


class Trajectory:
    """Sampled spectral states: times[i] pairs with coeffs[i] in np.fft layout."""

    def __init__(self, times, coeffs, s, band):
        self.times = np.asarray(times, dtype=float)
        self.coeffs = np.asarray(coeffs, dtype=complex)
        self.s = float(s)
        self.band = int(band)

    def potential_at(self, i):
        """The i-th sample as a real potential on its retained support.

        The dealias band is scanned and the declared width shrinks to the
        retained support, so downstream truncation checks see the actual
        content rather than the grid.
        """
        c = self.coeffs[i][:self.band + 1]
        coeffs = {int(n): complex(c[n]) for n in np.flatnonzero(np.abs(c[1:]) > DROP_TOL) + 1}
        return Potential(self.s, max(coeffs, default=1), coeffs, real=True)


def check_band(grid_size, N):
    """Raise ValueError unless a grid of grid_size points can dealias band N."""
    if grid_size < 4 * N:
        raise ValueError("grid %d cannot dealias band N=%d (need >= 4N)" % (grid_size, N))


def integrate(u0, cfg=None):
    """Integrating-factor RK4 trajectory from a real mean-zero potential.

    The grid must resolve the quadratic interactions of the retained band
    (grid_size >= 4N); the mean mode has zero right-hand side and is pinned
    to 0.  A warning flags steps asking the top retained mode to rotate
    through more than PHASE_BUDGET radians, where the RK4 treatment of the
    nonlinear term loses accuracy even though the linear phase is exact.
    """
    if cfg is None:
        cfg = IntegratorConfig()
    if not u0.real:
        raise ValueError("direct integration needs a real potential")
    grid = int(cfg.grid_size)
    check_band(grid, u0.N)
    n = np.fft.fftfreq(grid, d=1.0 / grid).astype(int)
    keep = int(np.floor((grid // 2) * DEALIAS_FRACTION))
    if cfg.dt * (grid // 2) ** 2 > PHASE_BUDGET:
        warnings.warn("dt=%g spins the top mode %.0f radians per step"
                      % (cfg.dt, cfg.dt * (grid // 2) ** 2), stacklevel=2)

    c = np.zeros(grid, dtype=complex)
    c[np.arange(-u0.N, u0.N + 1) % grid] = u0.band()

    # The inverse FFT runs unscaled and the forward FFT's 1/grid sits in coef
    # with the factor -i n and the dealias mask: all exact (powers of two,
    # zeros and ones).  The square fills the real part of a complex buffer,
    # which spares fft() a conversion.  Every complex product keeps its
    # operand order, because numpy's vectorised complex multiply need not
    # round commutatively.
    coef = (-1j * n) * (np.abs(n) <= keep) / grid
    sq = np.zeros(grid, dtype=complex)

    def rhs(state):
        np.square(np.fft.ifft(state, norm="forward").real, out=sq.real)
        out = np.fft.fft(sq)
        np.multiply(coef, out, out=out)
        out[0] = 0.0
        return out

    steps = int(round(cfg.T / cfg.dt))
    dt = cfg.T / steps if steps else cfg.dt
    E = np.exp(1j * n * np.abs(n) * dt / 2.0)
    E2 = E * E
    twoE, dtE, half, sixth = 2.0 * E, dt * E, dt / 2.0, dt / 6.0
    times = [0.0]
    stored = [c]
    for step in range(steps):
        # k2 = rhs(E (c + dt/2 k1)), k3 = rhs(E c + dt/2 k2), k4 = rhs(E2 c + dt E k3),
        # c <- E2 c + dt/6 (E2 k1 + 2E (k2 + k3) + k4), on reused buffers
        E2c = E2 * c
        k1 = rhs(c)
        stage = half * k1
        stage += c
        k2 = rhs(np.multiply(E, stage, out=stage))
        np.multiply(half, k2, out=stage)
        stage += E * c
        k3 = rhs(stage)
        np.multiply(dtE, k3, out=stage)
        stage += E2c
        k4 = rhs(stage)
        k2 += k3
        np.multiply(twoE, k2, out=k2)
        np.multiply(E2, k1, out=k1)
        k1 += k2
        k1 += k4
        np.multiply(sixth, k1, out=k1)
        E2c += k1
        c = E2c  # a fresh array every step, so stored samples never alias
        c[0] = 0.0
        if (step + 1) % cfg.store_every == 0 or step == steps - 1:
            if not np.all(np.isfinite(c)):
                raise NumericalFailure("non-finite state at t=%.6f" % ((step + 1) * dt))
            times.append((step + 1) * dt)
            stored.append(c)
    return Trajectory(times, stored, u0.s, keep)
