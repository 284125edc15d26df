"""Norming constants, the eigenfunction chain, and the coordinate map.

The coordinates are assembled from truncated spectral data in three layers:

  1. scaling_constants: products over the gaps give kappa_n and mu_n;
  2. eigen_chain: the normalized eigenvectors f_n = P_n(S f_{n-1}) / sqrt(mu_n)
     lie in the range of the rank-one projector P_n, so f_n = a_n h_n with
     h_n = P_n e_n; the chain computes the projector couplings alpha_n,
     beta_n, the derived delta_n, nu_n and the scalars a_n, never a vector;
  3. birkhoff_forward: the coordinate of index n is <1|f_n> / sqrt(kappa_n),
     one product form for real and complex potentials alike.  On complex
     potentials conjugation symmetry no longer supplies the second half of
     the data, and the analytic extension reads it from the chain of
     conj(u): its spectrum is derived from L_u^H = L_{conj u}
     (lax.conjugate_spectrum) without a second eigensolve, and only its
     chain runs.

Principal square roots throughout, with the branch cut treated as an error.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (BranchCutError, DegenerateProduct, DegenerateProjector,
                     OutOfNeighborhood, TruncationWarning)
from .hardy import (Potential, coeffs_from_json, coeffs_to_json, json_value,
                    sobolev_exponent)
from .lax import conjugate_spectrum, spectrum

DEGENERATE_TOL = 1e-12
SHIFT_DROP_THRESHOLD = 1e-10  # relative size of a top mode that S may drop silently
NEIGHBORHOOD_MU = 0.5
NEIGHBORHOOD_ALPHA = 0.5


def default_lax_dim(u):
    """Truncation heuristic: several bands of headroom, never tiny."""
    return max(4 * u.N, 32)


def sqrt_plus(z):
    """Principal square root, Re > 0 off the cut; the cut (-inf, 0] is an error.

    Elementwise on arrays, where the first entry on the cut raises.
    """
    z = np.asarray(z, dtype=complex)
    cut = np.flatnonzero((z.imag == 0.0) & (z.real <= 0.0))
    if cut.size:
        raise BranchCutError("square root argument %r on the branch cut"
                             % (complex(z.flat[cut[0]]),))
    return complex(np.sqrt(z)) if z.ndim == 0 else np.sqrt(z)


@dataclass
class ScalingData:
    """Chain constants, index-aligned: slot n holds the n-th value.

    kappa[0..K] and a[0..K] are fully populated; mu and delta start at
    n = 1, their slot 0 is NaN by convention.
    """

    kappa: np.ndarray
    mu: np.ndarray
    delta: np.ndarray
    a: np.ndarray
    tails: dict  # scaling_constants' product tails, keyed kappa_tail and mu_tail


def _mul(a, b):
    """Elementwise a * b, rounded like numpy's scalar complex product.

    numpy's vectorised complex multiply can round the last bit differently
    from its scalar product (its SIMD loop may fuse a multiply and an add);
    spelled out in real arithmetic, each component rounds as the scalar
    product does, so vectorised code keeps the bits of a scalar loop.
    """
    if not (np.iscomplexobj(a) or np.iscomplexobj(b)):
        return a * b
    a = np.asarray(a)
    b = np.asarray(b)
    out = np.empty(np.broadcast(a, b).shape, dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def scaling_constants(sd):
    """Norming constants kappa_n and scaling factors mu_n from the spectrum.

    kappa_0 = prod_{k>=1} (1 - gamma_k/(lambda_k - lambda_0)),
    kappa_n = (lambda_n - lambda_0)^{-1} prod_{k != n} (1 - gamma_k/(lambda_k - lambda_n)),
    mu_n    = (1 - gamma_n/(lambda_n - lambda_0)) *
              prod_{k != n} (1 - gamma_n gamma_k /
                             ((lambda_{k-1} - lambda_{n-1})(lambda_k - lambda_n))),
    with products over k = 1..K_use.  Returns (kappa, mu, tails): the tail
    dict reports the largest deviation from 1 among the last retained
    factors, an estimate of what truncating the products discards.

    Row n of a factor matrix holds the factors k != n in increasing k, and
    np.prod takes them left to right, as a scalar loop would.
    """
    K = sd.K_use
    lam = sd.lambdas[:K + 1]
    if sd.hermitian:
        lam = lam.real
    gam = lam[1:] - lam[:-1] - 1.0  # gam[k-1] = gamma_k
    n = np.arange(1, K + 1)[:, None]
    j = np.arange(1, K)
    k = j + (j >= n)  # k[n-1, :] = 1..K without n
    lead = 1.0 - gam / (lam[1:] - lam[0])  # the kappa_0 factors, and mu_n's leading ones
    kap = 1.0 - gam[k - 1] / (lam[k] - lam[n])
    rows = np.concatenate(([np.abs(lead).min(initial=np.inf)],
                           np.abs(kap).min(axis=1, initial=np.inf)))
    bad = np.flatnonzero(~(rows >= DEGENERATE_TOL))  # a NaN factor fails too
    if bad.size:
        raise DegenerateProduct("kappa_%d product factor of size %.3e"
                                % (bad[0], rows[bad[0]]))
    kappa = np.empty(K + 1, dtype=complex)
    kappa[0] = np.prod(lead)
    kappa[1:] = np.prod(kap, axis=1) / (lam[1:] - lam[0])
    mus = np.concatenate((lead[:, None], 1.0 - _mul(gam[n - 1], gam[k - 1])
                          / _mul(lam[k - 1] - lam[n - 1], lam[k] - lam[n])), axis=1)
    # column 0 holds mu_n's leading factor, the n-th factor of kappa_0, which
    # passed the kappa guard: a flagged factor lies in a later column
    bad = np.argwhere(~(np.abs(mus) >= DEGENERATE_TOL))
    if bad.size:
        row, col = bad[0]
        raise DegenerateProduct("mu_%d product factor of size %.3e at k=%d"
                                % (row + 1, abs(mus[row, col]), k[row, col - 1]))
    mu = np.full(K + 1, np.nan, dtype=complex)
    mu[1:] = np.prod(mus, axis=1)
    # the tails are reported to the last digit, so they take the scalar abs
    # of each last factor: np.abs on an array may round differently
    last_kap = np.concatenate((lead[-1:], kap[:, -1:].ravel()))
    last_mu = mus[:, -1] if K > 1 else lead[:0]
    return kappa, mu, {"kappa_tail": float(max([0.0, *map(abs, last_kap - 1.0)])),
                       "mu_tail": float(max([0.0, *map(abs, last_mu - 1.0)]))}


def eigen_chain(sd):
    """The scaling constants of the normalized chain f_0..f_K.

    The chain starts at f_0 = a_0 h_0 with a_0 = sqrt(kappa_0) / <h_0, 1>
    (bilinear pairing) and runs f_n = P_n(S f_{n-1}) / sqrt(mu_n).  P_n has
    rank one, so f_n = a_n h_n with h_n = P_n e_n, and only the scalars a_n
    are computed.  The projector couplings

        alpha_n = <P_n e_n | e_n>,
        beta_n  = <P_n S P_{n-1} e_{n-1} | e_n>,

    fill delta_n = beta_n - alpha_n, nu_n = beta_n / alpha_n and the
    cumulative a_n = a_0 prod_{k<=n} nu_k / sqrt(mu_k).  The admissibility
    guards |mu_n - 1| < 1/2 and |alpha_n| >= 1/2 delimit the neighborhood
    where the construction is trusted; leaving it raises OutOfNeighborhood
    at the first offending n (mu before alpha).  Returns the ScalingData.
    """
    K = sd.K_use
    h = sd.h
    kappa, mu, tails = scaling_constants(sd)
    h0_zero = complex(h[0, 0])  # bilinear <h_0, 1>
    if not abs(h0_zero) >= DEGENERATE_TOL:
        raise DegenerateProjector("projected vacuum has zero mean component")
    alpha = np.diagonal(h).copy()
    alpha[0] = np.nan
    far_mu = ~(np.abs(mu[1:] - 1.0) < NEIGHBORHOOD_MU)  # NaN is far
    far_alpha = ~(np.abs(alpha[1:]) >= NEIGHBORHOOD_ALPHA)
    bad = np.flatnonzero(far_mu | far_alpha)
    if bad.size:
        n = bad[0] + 1
        if far_mu[n - 1]:
            raise OutOfNeighborhood("|mu_%d - 1| = %.3f >= %.1f"
                                    % (n, abs(mu[n] - 1.0), NEIGHBORHOOD_MU))
        raise OutOfNeighborhood("|alpha_%d| = %.3f < %.1f"
                                % (n, abs(alpha[n]), NEIGHBORHOOD_ALPHA))
    roots = np.concatenate(([np.nan], sqrt_plus(mu[1:])))
    beta = np.full(K + 1, np.nan, dtype=complex)
    a = np.empty(K + 1, dtype=complex)
    a[0] = sqrt_plus(kappa[0]) / h0_zero
    up = np.zeros(sd.M + 1, dtype=complex)  # S x, the top mode dropped
    for n in range(1, K + 1):
        up[1:] = h[:-1, n - 1]
        beta[n] = sd.project(n, up)[n]
        a[n] = a[n - 1] * (beta[n] / alpha[n]) / roots[n]
    if not (np.isfinite(a).all() and np.isfinite(h).all()):
        raise ValueError("non-finite Hardy coefficients")
    # S drops the top mode of every vector it shifts, h_0..h_{K-1}, and of
    # f_n = a_n h_n, whose top-mode ratio is h_n's
    size = np.abs(h[:, :K])
    scale = size.max(axis=0, initial=0.0)
    drop = (scale > 0.0) & (size[-1] > SHIFT_DROP_THRESHOLD * scale)
    if drop.any():
        warnings.warn("chain shift dropped top coefficient of relative size %.3e"
                      % np.max(size[-1, drop] / scale[drop]), TruncationWarning,
                      stacklevel=2)
    return ScalingData(kappa=kappa, mu=mu, delta=beta - alpha, a=a, tails=tails)


class BirkhoffState:
    """Coordinates (zeta_n)_{1<=|n|<=N_b} with the potential's exponent s.

    plus[j] holds zeta_{j+1}, minus[j] holds zeta_{-(j+1)}.  real_flag
    asserts the conjugation symmetry zeta_{-n} = conj(zeta_n), the image of
    a real potential.  A real state may pass minus=None: the minus side is
    then conj(plus) by construction, and only plus is checked.  s must be a
    finite number > -1/2, as for a Potential.
    """

    __slots__ = ("s", "plus", "minus", "real_flag", "diagnostics")

    def __init__(self, s, plus, minus, real_flag=False):
        self.diagnostics = None
        plus = np.asarray(plus, dtype=complex)
        derived = minus is None
        if derived and not real_flag:
            raise ValueError("only a real state may omit its minus side")
        minus = np.conj(plus) if derived else np.asarray(minus, dtype=complex)
        if plus.shape != minus.shape or plus.ndim != 1:
            raise ValueError("plus and minus sides must be 1-d of equal length")
        if not (np.isfinite(plus).all() and (derived or np.isfinite(minus).all())):
            raise ValueError("non-finite coordinates")
        if real_flag and not derived:
            dev = float(np.max(np.abs(minus - np.conj(plus)))) if len(plus) else 0.0
            if dev > 1e-8:
                raise ValueError("real_flag set but conjugation symmetry off by %.3e" % dev)
            minus = np.conj(plus)
        self.s = sobolev_exponent(s)
        self.plus = plus
        self.minus = minus
        self.real_flag = bool(real_flag)

    @property
    def n_modes(self):
        return len(self.plus)

    def __repr__(self):
        return "BirkhoffState(s=%g, n_modes=%d, real=%s)" % (
            self.s, self.n_modes, self.real_flag)


def state_to_json(state, diagnostics=None):
    obj = {
        "s": state.s,
        "N_b": state.n_modes,
        "plus": coeffs_to_json(enumerate(state.plus, 1)),
        "minus": coeffs_to_json((-n, z) for n, z in enumerate(state.minus, 1)),
        "real": state.real_flag,
    }
    if diagnostics is not None:
        obj["diagnostics"] = diagnostics
    return obj


def _side_from_json(items, n_modes, sign):
    """One side of a state: entry n goes to slot sign n - 1."""
    side = np.zeros(n_modes, dtype=complex)
    for n, v in coeffs_from_json(items, None).items():
        if not 1 <= sign * n <= n_modes:
            raise ValueError("index %d outside %d..%d" % (n, sign, sign * n_modes))
        side[sign * n - 1] = v
    return side


def state_from_json(obj):
    """Read the documented schema; every item must carry n, re and im."""
    try:
        n_modes = json_value(obj, "N_b", "integer")
        if n_modes < 1:  # an empty state would evolve and print nothing
            raise ValueError("need N_b >= 1, got %d" % n_modes)
        plus = _side_from_json(obj["plus"], n_modes, 1)
        minus = _side_from_json(obj["minus"], n_modes, -1)
        s = json_value(obj, "s", "number")
        real = json_value(obj, "real", "boolean", False)
    except (KeyError, TypeError) as exc:
        raise ValueError("malformed state object: %s" % exc) from exc
    return BirkhoffState(s, plus, minus, real)


def _assemble_plus(kappa_u, a_conj, psi_conj):
    """sqrt(n) conj(a_n Psi_n) / sqrt(n kappa_n) for n = 1..K, from index-aligned arrays."""
    ns = np.arange(1, len(kappa_u))
    return (_mul(np.sqrt(ns), np.conj(_mul(a_conj[1:], psi_conj[1:])))
            / sqrt_plus(_mul(ns, kappa_u[1:])))


def _assemble_minus(kappa_conj, a_u, psi_u):
    """sqrt(n) a_n Psi_n / sqrt(n conj(kappa_n)) for n = 1..K, from index-aligned arrays."""
    ns = np.arange(1, len(kappa_conj))
    return (_mul(_mul(np.sqrt(ns), a_u[1:]), psi_u[1:])
            / sqrt_plus(_mul(ns, np.conj(kappa_conj[1:]))))


def birkhoff_forward(u, M=None, k_use=None):
    """The coordinate map on a trig-polynomial potential.

    With f_n = a_n h_n, zeta_n = <1|f_n> / sqrt(kappa_n) takes the product
    form below, one assembly path for real and complex u alike.  Index n > 0
    takes sqrt(n) conj(a_n(u-) Psi_n(u-)) / sqrt(n kappa_n(u)) with
    u- = conj(u) and Psi_n = <1|h_n>; index -n takes
    sqrt(n) a_n(u) Psi_n(u) / sqrt(n conj(kappa_n(u-))).  For real u the
    chain of u- is the chain of u and the minus side is conj(plus).  For
    complex u the spectrum of u- is derived from that of u
    (L_{conj u} = L_u^H, so one eigensolve serves both) and only its chain
    runs again.

    Attaches .diagnostics with the product tails and the chain norm drift
    max_n | |a_n| ||h_n|| - 1 |.
    """
    if M is None:
        M = default_lax_dim(u)
    sd = spectrum(u, M, k_use=k_use)
    scaling = eigen_chain(sd)
    # one norm per column: np.linalg.norm of a whole matrix rounds differently
    norm_drift = max(abs(abs(an) * float(np.linalg.norm(hn)) - 1.0)
                     for an, hn in zip(scaling.a, sd.h.T))
    if u.real:
        sd_c, scaling_c = sd, scaling
    else:
        sd_c = conjugate_spectrum(sd)
        scaling_c = eigen_chain(sd_c)
    plus = _assemble_plus(scaling.kappa, scaling_c.a, sd_c.h[0])
    minus = None if u.real else _assemble_minus(scaling_c.kappa, scaling.a, sd.h[0])
    state = BirkhoffState(u.s, plus, minus, real_flag=u.real)
    state.diagnostics = dict(scaling.tails, norm_drift=float(norm_drift))
    return state


def _perturbed(u, k, step):
    coeffs = u.nonzero_coeffs()
    coeffs[k] = coeffs.get(k, 0.0) + step
    return Potential(u.s, max(u.N, abs(k)), coeffs, real=False)


def canonical_bracket_table(u, n_max, h=1e-5):
    """Brackets among the coordinate functionals, sharing the transforms.

    Returns (plus_minus, plus_plus) where plus_minus[i, j] approximates
    {zeta_{i+1}, zeta_{-(j+1)}}(u) (target -i delta_ij) and plus_plus[i, j]
    approximates {zeta_{i+1}, zeta_{j+1}}(u) (target 0).  The minus-index
    functional is the analytic extension's minus component, which on real
    potentials coincides with conj(zeta).  Each perturbed potential is
    transformed once and every partial is read from that table.
    """
    if not u.real:
        raise ValueError("bracket evaluation point must be a real potential")
    if n_max < 1:
        raise ValueError("need n_max >= 1, got %d" % n_max)
    if not (math.isfinite(h) and h > 0):
        raise ValueError("need a finite step h > 0, got %r" % h)
    reach = u.N + n_max + 2
    M = max(4 * (u.N + reach), 32)
    # the scaling products at index n carry factors from every open gap, so
    # the chain must run well past n_max or the partials inherit O(u^2) bias
    depth = min(M // 2, n_max + 2 * u.N + 8)
    dplus = {}
    dminus = {}
    for k in [k for k in range(-reach, reach + 1) if k != 0]:
        hi = birkhoff_forward(_perturbed(u, k, h), M=M, k_use=depth)
        lo = birkhoff_forward(_perturbed(u, k, -h), M=M, k_use=depth)
        dplus[k] = (hi.plus[:n_max] - lo.plus[:n_max]) / (2.0 * h)
        dminus[k] = (hi.minus[:n_max] - lo.minus[:n_max]) / (2.0 * h)
    plus_minus = np.zeros((n_max, n_max), dtype=complex)
    plus_plus = np.zeros((n_max, n_max), dtype=complex)
    for k in dplus:
        plus_minus += 1j * k * np.outer(dplus[-k], dminus[k])
        plus_plus += 1j * k * np.outer(dplus[-k], dplus[k])
    return plus_minus, plus_plus
