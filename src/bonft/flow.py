"""Linear evolution in the transformed coordinates and numerical inversion.

The flow in coordinates is exactly solvable: every zeta_n spins at the
constant rate omega_n determined by the initial actions, so a trajectory is
one forward transform, a phase multiplication per sample time, and one
inversion per sample back to a potential.  The inversion is a Broyden
quasi-Newton iteration seeded by the closed-form differential at zero, of
which the coordinate map is a near-identity perturbation.
"""

import numpy as np

from .errors import InversionFailure, NumericalFailure
from .birkhoff import BirkhoffState, birkhoff_forward, default_lax_dim
from .hardy import Potential, weighted_norm

MAX_ITER = 40  # Broyden iterations before an inversion counts as failed
MAX_HALVINGS = 6  # step halvings allowed before a trial step counts as failed


def shift_sums(ks, prod):
    """Omega_n at ascending indices ks, given zeta_{-k} zeta_k at the same ks.

    Omega_n = -2 sum_{k<=n} k zeta_{-k} zeta_k - 2n sum_{k>n} zeta_{-k} zeta_k.
    An index left out of ks must carry a zero product; the cumulative sums
    then only skip zeros, so a sparse support gives the dense bits.
    """
    weighted = np.cumsum(ks * prod)
    tails = np.concatenate((np.cumsum(prod[::-1])[::-1][1:], [0.0]))
    return -2.0 * weighted - 2.0 * ks * tails


def frequency_shifts(z):
    """The affine parts (Omega_n)_{n>=1} of the frequencies, from shift_sums.

    The frequency at index n is n^2 + Omega_n and at index -n it is
    -(n^2 + Omega_n).  The affine parts are kept apart from the n^2 so
    that frequency differences of nearby states can be formed without
    cancelling large integers against each other.
    """
    omega = shift_sums(np.arange(1, z.n_modes + 1, dtype=float), z.minus * z.plus)
    if z.real_flag:
        # an owned copy: the .real view would keep the complex array alive
        omega = omega.real.copy()
    return omega


def rotate(values, ks, shift, t, sign=1.0):
    """The flow's phase step values_k exp(i t (sign k^2 + shift_k)) at the indices ks."""
    return values * np.exp(1j * float(t) * (sign * ks ** 2 + shift))


def evolve(z0, t):
    """Flow for time t: zeta_n(t) = zeta_n(0) exp(i t omega_n(z0)), both sides."""
    shift = frequency_shifts(z0)
    ks = np.arange(1, z0.n_modes + 1, dtype=float)
    plus = rotate(z0.plus, ks, shift, t)
    # the flow keeps a real state real: its minus side is conj(plus), so the
    # minus frequencies are never formed
    minus = None if z0.real_flag else rotate(z0.minus, ks, -shift, t, -1.0)
    return BirkhoffState(z0.s, plus, minus, real_flag=z0.real_flag)


def coordinate_weights(ks, s):
    """n^{1+2s} at the indices ks: the squared weights of the coordinate-space norm."""
    return ks ** (1.0 + 2.0 * s)


def invert(target, M=None, tol=1e-12, start=None):
    """Recover the real potential mapping to the target coordinates.

    Good-Broyden iteration on the real view of u_hat(1..N_b), with every
    forward map at truncation M, until the weighted residual is below tol.
    The inverse Jacobian starts as the exact inverse of the differential at
    zero (u_hat(n) -> -u_hat(n)/sqrt(n)), so the first step is the chord
    step from u_hat(n) = -sqrt(n) zeta_n, or from start, an earlier result
    at the same N_b whose image costs no forward map; every accepted step
    makes a Sherman-Morrison rank-one update.  A trial step that does not
    lower the weighted residual, or leaves the forward map's trusted regime,
    is halved, at most MAX_HALVINGS times; each trial costs one forward map.
    Returns (u, image, history): the potential, its image
    birkhoff_forward(u, M=M, k_use=N_b) and every trial residual, the last
    one the image's.  Failure, at the start point too, raises
    InversionFailure with the history so far.
    """
    if not 0 < tol < np.inf:  # NaN fails too; an infinite tol checks nothing
        raise ValueError("Newton tolerance must be finite and > 0, got %r" % tol)
    if not target.real_flag:
        raise ValueError("inversion is defined for real-flagged targets")
    n_modes, s = target.n_modes, target.s
    if start is not None and start[1].n_modes != n_modes:
        raise ValueError("start has N_b=%d, the target N_b=%d" % (start[1].n_modes, n_modes))
    root_n = np.sqrt(np.arange(1, n_modes + 1))
    H = np.diag(-np.repeat(root_n, 2))
    w = coordinate_weights(np.arange(1, n_modes + 1, dtype=float), s)
    history = []

    def measured(u, image):
        diff = image.plus - target.plus
        history.append(weighted_norm(diff, w))
        return u, image, diff.view(float)

    def trial(coeffs):
        u = Potential(s, n_modes, dict(enumerate(coeffs, 1)), real=True)
        return measured(u, birkhoff_forward(u, M=M, k_use=n_modes))

    u_hat = -root_n * target.plus if start is None else start[0].band()[n_modes + 1:]
    try:
        u, image, r = trial(u_hat) if start is None else measured(*start[:2])
    except NumericalFailure as exc:
        raise InversionFailure("start point outside the trusted regime: %s" % exc,
                               [np.inf]) from exc
    for _ in range(MAX_ITER):
        res = history[-1]
        if res < tol:
            break
        step = -(H @ r)
        for _ in range(MAX_HALVINGS + 1):
            try:
                u_new, image_new, r_new = trial(u_hat + step.view(complex))
            except NumericalFailure:  # the step left the trusted regime
                history.append(np.inf)
            if history[-1] < res:
                break
            step /= 2.0
        else:
            raise InversionFailure(
                "no descent after %d step halvings at residual %.3e"
                % (MAX_HALVINGS, res), history)
        Hy = H @ (r_new - r)
        denom = step @ Hy
        if denom == 0.0:
            raise InversionFailure("singular Broyden update", history)
        H += np.outer(step - Hy, step @ H) / denom
        u_hat = u_hat + step.view(complex)
        u, image, r = u_new, image_new, r_new
    if not history[-1] < tol:
        raise InversionFailure("no convergence in %d iterations (residual %.3e)"
                               % (MAX_ITER, history[-1]), history)
    return u, image, history


def solve_trajectory(u0, t_grid=(0.0, 0.5, 1.0), M=None, k_use=None):
    """The composed solution map: transform once, rotate and invert per sample.

    Returns (samples, diagnostics): samples is a list of (t, Potential), one
    per entry of t_grid; diagnostics holds per-sample inversion residuals
    and the largest action drift of the samples' images against the
    initial state.  Every forward map runs at the one truncation M
    (default: the heuristic for u0) and K_use = k_use (default M/2).  Each
    inversion starts from the previous sample's result, whose image it
    reuses; the first from the linearized guess.
    """
    t_grid = tuple(float(t) for t in t_grid)
    if not all(np.isfinite(t_grid)):
        raise ValueError("non-finite sample times")
    if not u0.real:
        raise ValueError("trajectory evolution needs a real potential")
    if M is None:
        M = default_lax_dim(u0)
    z0 = birkhoff_forward(u0, M=M, k_use=k_use)
    samples = []
    residuals = []
    action_drift = 0.0
    I0 = 0.5 * np.abs(z0.plus) ** 2
    result = None
    for t in t_grid:
        result = invert(evolve(z0, t), M, start=result)
        u_t, image, history = result
        action_drift = max(action_drift, float(np.max(
            np.abs(0.5 * np.abs(image.plus) ** 2 - I0))))
        residuals.append(history[-1])
        samples.append((t, u_t))
    return samples, {"residuals": residuals, "action_drift": action_drift}
