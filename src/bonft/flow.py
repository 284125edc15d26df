"""Linear evolution in the transformed coordinates and numerical inversion.

The flow in coordinates is exactly solvable: every zeta_n spins at the
constant rate omega_n determined by the initial actions, so a trajectory is
one forward transform, a phase multiplication per sample time, and one
inversion per sample back to a potential.  The inversion is a Broyden
quasi-Newton iteration seeded by the closed-form differential at zero, of
which the coordinate map is a near-identity perturbation.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import InversionFailure, NumericalFailure
from .birkhoff import BirkhoffState, birkhoff_forward, default_lax_dim
from .hardy import Potential, sobolev_norm

NEWTON_DEFAULTS = {"max_iter": 40, "tol": 1e-12}
MAX_HALVINGS = 6  # step halvings allowed before a trial step counts as failed


@dataclass
class FlowConfig:
    t_grid: tuple = (0.0, 0.5, 1.0)
    newton: dict = field(default_factory=dict)  # overrides of NEWTON_DEFAULTS
    lax: dict = field(default_factory=dict)  # {"M": ..., "K_use": ...}
    warm_start: bool = False

    def __post_init__(self):
        self.t_grid = tuple(float(t) for t in self.t_grid)
        if not all(np.isfinite(self.t_grid)):
            raise ValueError("non-finite sample times")
        unknown = sorted(set(self.newton) - set(NEWTON_DEFAULTS))
        if unknown:
            raise ValueError("unknown newton settings: %s" % ", ".join(unknown))
        self.newton = {**NEWTON_DEFAULTS, **self.newton}
        if not self.newton["tol"] > 0:
            raise ValueError("Newton tolerance must be positive")


def frequency_shifts(z):
    """The affine parts (Omega_n)_{n>=1} and (Omega_{-n})_{n>=1} of the frequencies.

    Omega_n = -2 sum_{k<=n} k zeta_{-k} zeta_k - 2n sum_{k>n} zeta_{-k} zeta_k
    and Omega_{-n} = -Omega_n.  Kept separate from the n^2 parts so that
    frequency differences of nearby states can be formed without cancelling
    large integers against each other.
    """
    prod = z.minus * z.plus  # zeta_{-k} zeta_k, k = 1..n_modes
    n_modes = z.n_modes
    ks = np.arange(1, n_modes + 1, dtype=float)
    weighted = np.cumsum(ks * prod)
    tails = np.concatenate((np.cumsum(prod[::-1])[::-1][1:], [0.0]))
    omega_plus = -2.0 * weighted - 2.0 * ks * tails
    if z.real_flag:
        omega_plus = omega_plus.real
    return omega_plus, -omega_plus


def frequencies(z):
    """Two-sided frequencies omega_n = sign(n) n^2 + Omega_n(z).

    Returns (omega at indices 1..n_modes, omega at indices -1..-n_modes).
    Real states give real arrays; the modulus-preserving rotation of the
    flow needs exactly these numbers.
    """
    shift_plus, shift_minus = frequency_shifts(z)
    ns = np.arange(1, z.n_modes + 1, dtype=float)
    return ns ** 2 + shift_plus, -(ns ** 2) + shift_minus


def evolve(z0, t):
    """Flow for time t: zeta_n(t) = zeta_n(0) exp(i t omega_n(z0)), both sides."""
    om_plus, om_minus = frequencies(z0)
    t = float(t)
    plus = z0.plus * np.exp(1j * t * om_plus)
    minus = z0.minus * np.exp(1j * t * om_minus)
    out = BirkhoffState(z0.s, plus, minus, real_flag=z0.real_flag)
    out.diagnostics = z0.diagnostics
    return out


def _weighted_norm(diff, s):
    """(sum_n n^{1+2s} |diff_n|^2)^{1/2} over n = 1..len(diff): the coordinate-space norm."""
    return float(np.linalg.norm(np.arange(1, len(diff) + 1) ** (0.5 + s) * diff))


def invert(target, cfg=None, initial=None):
    """Recover the real potential mapping to the target coordinates.

    Good-Broyden iteration on the real view of u_hat(1..N_b).  The inverse
    Jacobian starts as the exact inverse of the differential at zero
    (d0_phi: u_hat(n) -> -u_hat(n)/sqrt(n)), so the first step is the chord
    step from u_hat(n) = -sqrt(n) zeta_n (or from `initial`); every accepted
    step makes a Sherman-Morrison rank-one update.  A trial step that does
    not lower the weighted residual, or leaves the forward map's trusted
    regime, is halved, at most MAX_HALVINGS times; each trial costs one
    forward map.  Failure raises InversionFailure with every trial residual.
    """
    if cfg is None:
        cfg = FlowConfig()
    if not target.real_flag:
        raise ValueError("inversion is defined for real-flagged targets")
    n_modes, s = target.n_modes, target.s
    M = cfg.lax.get("M")
    max_iter, tol = cfg.newton["max_iter"], cfg.newton["tol"]
    root_n = np.sqrt(np.arange(1, n_modes + 1))
    if initial is None:
        u_hat = -root_n * target.plus
    else:
        u_hat = np.zeros(n_modes, dtype=complex)
        k = min(n_modes, initial.N)
        u_hat[:k] = initial.band()[initial.N + 1:initial.N + 1 + k]
    H = np.diag(-np.repeat(root_n, 2))
    history = []

    def trial(coeffs):
        u = Potential(s, n_modes, dict(enumerate(coeffs, 1)), real=True)
        diff = birkhoff_forward(u, M=M, k_use=n_modes).plus - target.plus
        history.append(_weighted_norm(diff, s))
        return u, diff.view(float)

    u, r = trial(u_hat)
    for _ in range(max_iter):
        res = history[-1]
        if res < tol:
            break
        step = -(H @ r)
        for _ in range(MAX_HALVINGS + 1):
            try:
                u_new, r_new = trial(u_hat + step.view(complex))
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
        u, r = u_new, r_new
    if not history[-1] < tol:
        raise InversionFailure("no convergence in %d iterations (residual %.3e)"
                               % (max_iter, history[-1]), history)
    return u


def solve_trajectory(u0, cfg=None):
    """The composed solution map: transform once, rotate and invert per sample.

    Returns (samples, diagnostics): samples is a list of (t, Potential);
    diagnostics holds per-sample inversion residuals, the largest action
    drift of the re-transformed samples against the initial state, and the
    adjacent-sample increments of t -> u(t) in the H^s norm as a continuity
    monitor.  Every forward map runs at the one truncation M (cfg.lax, or
    the default for u0) and K_use.  With cfg.warm_start the previous sample
    seeds the next inversion; by default every sample starts from the
    linearized guess.
    """
    if cfg is None:
        cfg = FlowConfig()
    if not u0.real:
        raise ValueError("trajectory evolution needs a real potential")
    if cfg.lax.get("M") is None:
        cfg = replace(cfg, lax={**cfg.lax, "M": default_lax_dim(u0)})
    M = cfg.lax["M"]
    z0 = birkhoff_forward(u0, M=M, k_use=cfg.lax.get("K_use"))
    samples = []
    residuals = []
    action_drift = 0.0
    I0 = 0.5 * np.abs(z0.plus) ** 2
    prev_u = None
    for t in cfg.t_grid:
        zt = evolve(z0, t)
        u_t = invert(zt, cfg, initial=prev_u if cfg.warm_start else None)
        z_back = birkhoff_forward(u_t, M=M, k_use=z0.n_modes)
        action_drift = max(action_drift, float(np.max(
            np.abs(0.5 * np.abs(z_back.plus) ** 2 - I0))))
        residuals.append(_weighted_norm(z_back.plus - zt.plus, u0.s))
        samples.append((t, u_t))
        prev_u = u_t
    increments = []
    for (t0, ua), (t1, ub) in zip(samples, samples[1:]):
        band = max(ua.N, ub.N)
        merged = {n: ub.coeff(n) - ua.coeff(n) for n in range(1, band + 1)}
        merged = {n: v for n, v in merged.items() if v != 0}
        d =Potential(u0.s, band, merged, real=True)
        increments.append(sobolev_norm(d, u0.s))
    diagnostics = {
        "residuals": residuals,
        "action_drift": action_drift,
        "increments": increments,
    }
    return samples, diagnostics
