"""Norming constants, the eigenfunction chain, and the coordinate map.

The coordinates are assembled from truncated spectral data in three layers:

  1. scaling_constants(lam): products over the gaps give kappa_n and mu_n;
  2. eigen_chain(V, W, kappa, mu): the chain f_n = P_n(S f_{n-1}) / sqrt(mu_n)
     lies in the range of the rank-one projector P_n, so f_n = b_n v_n on
     the eigenvector v_n itself, and
     b_n = b_0 prod_{k<=n} (w_k^H S v_{k-1}) / (w_k^H v_k) / sqrt(mu_k),
     one pairing per column and a cumulative product; no vector is formed;
  3. birkhoff_forward: the coordinate of index n is <1|f_n> / sqrt(kappa_n),
     one side formula for real and complex potentials alike, read off right
     vectors, their chain and kappa: it gives zeta_{-n}(u), and
     zeta_n(u) = conj(zeta_{-n}(conj u)).  On complex potentials
     conjugation symmetry no longer supplies the second half of the data,
     and the analytic extension reads it from the vectors and chain of
     conj(u): L_{conj u} = L_u^H, so under u's labels they are u's with
     right and left swapped, without a second eigensolve, and u's kappa_n
     and mu_n conjugated; only its chain runs.  The norm drift pairs the two
     chains, sum_k f_n(u)_k conj(f_n(conj u)_k), against 1.

Nothing here judges the truncation: lax.spectrum certifies the cut at M by
the Lax residual of the eigenpairs it returns.

Principal square roots throughout, with the branch cut treated as an error.
"""

import math

import numpy as np

from .errors import (BranchCutError, DegenerateProduct, DegenerateProjector,
                     OutOfNeighborhood)
from .hardy import (Potential, coeffs_from_json, coeffs_to_json, json_value,
                    sobolev_exponent)
from .lax import spectrum

DEGENERATE_TOL = 1e-12
NEIGHBORHOOD_MU = 0.5
NEIGHBORHOOD_ALPHA = 0.5


def sqrt_plus(z):
    """Principal square root, Re > 0 off the cut; the cut (-inf, 0] is an error.

    Elementwise on arrays, where the first entry on the cut raises.
    """
    z = np.asarray(z, dtype=complex)
    cut = np.flatnonzero((z.imag == 0.0) & (z.real <= 0.0))
    if cut.size:
        raise BranchCutError("square root argument %r on the branch cut"
                             % (complex(z.flat[cut[0]]),))
    return np.sqrt(z)


def scaling_constants(lam):
    """Norming constants kappa_n and scaling factors mu_n from lambda_0..lambda_K.

    kappa_0 = prod_{k>=1} (1 - gamma_k/(lambda_k - lambda_0)),
    kappa_n = (lambda_n - lambda_0)^{-1} prod_{k != n} (1 - gamma_k/(lambda_k - lambda_n)),
    mu_n    = (1 - gamma_n/(lambda_n - lambda_0)) *
              prod_{k != n} (1 - gamma_n gamma_k /
                             ((lambda_{k-1} - lambda_{n-1})(lambda_k - lambda_n))),
    with products over k = 1..K, K = len(lam) - 1.  Returns (kappa, mu,
    tails): the tail dict reports the largest deviation from 1 among the
    last retained factors, an estimate of what truncating the products
    discards.

    Row n of a factor matrix holds the factors k != n in increasing k, and
    np.prod takes them left to right, as a scalar loop would: kappa keeps
    the loop's bits, while mu's factors take numpy's vectorised complex
    products, which may round a last bit apart from scalar ones.
    """
    K = len(lam) - 1
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
    mus = np.concatenate((lead[:, None], 1.0 - gam[n - 1] * gam[k - 1]
                          / ((lam[k - 1] - lam[n - 1]) * (lam[k] - lam[n]))), axis=1)
    # column 0 holds mu_n's leading factor, the n-th factor of kappa_0, which
    # passed the kappa guard: a flagged factor lies in a later column
    bad = np.argwhere(~(np.abs(mus) >= DEGENERATE_TOL))
    if bad.size:
        row, col = bad[0]
        raise DegenerateProduct("mu_%d product factor of size %.3e at k=%d"
                                % (row + 1, abs(mus[row, col]), k[row, col - 1]))
    mu = np.full(K + 1, np.nan, dtype=complex)
    mu[1:] = np.prod(mus, axis=1)
    last_kap = np.concatenate((lead[-1:], kap[:, -1:].ravel()))
    last_mu = mus[:, -1] if K > 1 else lead[:0]
    return kappa, mu, {"kappa_tail": float(np.abs(last_kap - 1.0).max(initial=0.0)),
                       "mu_tail": float(np.abs(last_mu - 1.0).max(initial=0.0))}


def eigen_chain(V, W, kappa, mu):
    """The scalars b_0..b_K of the chain f_n = b_n v_n, v_n and w_n the columns of V and W.

    The chain starts at the vacuum with mean sqrt(kappa_0) (bilinear
    pairing), f_0 = b_0 v_0 with b_0 = sqrt(kappa_0) / v_0[0], and runs
    f_n = P_n(S f_{n-1}) / sqrt(mu_n), where S shifts every mode up by one
    and drops the top one and P_n = v_n w_n^H / (w_n^H v_n).  P_n has rank
    one, so f_n lies on v_n, and only the scalars

        b_n = b_{n-1} (w_n^H S v_{n-1}) / (w_n^H v_n) / sqrt(mu_n)

    are computed: one column pairing for every n at once and a cumulative
    product, with kappa and mu from scaling_constants.  The coupling

        alpha_n = <P_n e_n | e_n> = v_n[n] conj(w_n[n]) / (w_n^H v_n)

    is read by its modulus and never enters the chain: a vacuum with
    |alpha_0| < DEGENERATE_TOL has no mean to normalize and raises
    DegenerateProjector, and the admissibility guards |mu_n - 1| < 1/2 and
    |alpha_n| >= 1/2 delimit the neighborhood where the construction is
    trusted; leaving it raises OutOfNeighborhood at the first offending n
    (mu before alpha).  Returns the array b.
    """
    pairs = np.sum(np.conj(W) * V, axis=0)  # w_n^H v_n
    abs_alpha = np.abs(np.diagonal(V) * np.diagonal(W)) / np.abs(pairs)
    if not abs_alpha[0] >= DEGENERATE_TOL:
        raise DegenerateProjector("projected vacuum has zero mean component")
    far_mu = ~(np.abs(mu[1:] - 1.0) < NEIGHBORHOOD_MU)  # NaN is far
    far_alpha = ~(abs_alpha[1:] >= NEIGHBORHOOD_ALPHA)
    bad = np.flatnonzero(far_mu | far_alpha)
    if bad.size:
        n = bad[0] + 1
        if far_mu[n - 1]:
            raise OutOfNeighborhood("|mu_%d - 1| = %.3f >= %.1f"
                                    % (n, abs(mu[n] - 1.0), NEIGHBORHOOD_MU))
        raise OutOfNeighborhood("|alpha_%d| = %.3f < %.1f"
                                % (n, abs_alpha[n], NEIGHBORHOOD_ALPHA))
    # w_n pairs with S v_{n-1}: v_{n-1} shifted up a mode, its top mode dropped
    nu = np.sum(np.conj(W[1:, 1:]) * V[:-1, :-1], axis=0) / pairs[1:]
    b = np.cumprod(np.concatenate(([sqrt_plus(kappa[0]) / V[0, 0]],
                                   nu / sqrt_plus(mu[1:]))))
    if not np.isfinite(b).all():
        raise ValueError("non-finite Hardy coefficients")
    return b


class BirkhoffState:
    """Coordinates (zeta_n)_{1<=|n|<=N_b} with the potential's exponent s.

    plus[j] holds zeta_{j+1}, minus[j] holds zeta_{-(j+1)}; both sides are
    given and must be finite.  real_flag asserts the conjugation symmetry
    zeta_{-n} = conj(zeta_n), the image of a real potential: the minus side
    must match conj(plus) to 1e-8 and is then stored as conj(plus).  s must
    be a finite number > -1/2, as for a Potential.
    """

    __slots__ = ("s", "plus", "minus", "real_flag", "diagnostics")

    def __init__(self, s, plus, minus, real_flag=False):
        self.diagnostics = None
        plus = np.asarray(plus, dtype=complex)
        minus = np.asarray(minus, dtype=complex)
        if plus.shape != minus.shape or plus.ndim != 1:
            raise ValueError("plus and minus sides must be 1-d of equal length")
        if not (np.isfinite(plus).all() and np.isfinite(minus).all()):
            raise ValueError("non-finite coordinates")
        if real_flag:
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


def _side_from_json(obj, key, n_modes, sign):
    """One side of a state, obj[key]: entry n goes to slot sign n - 1."""
    side = np.zeros(n_modes, dtype=complex)
    for n, v in coeffs_from_json(obj, key, None).items():
        if not 1 <= sign * n <= n_modes:
            raise ValueError("index %d outside %d..%d" % (n, sign, sign * n_modes))
        side[sign * n - 1] = v
    return side


def state_from_json(obj):
    """Read the documented schema; every item must carry n, re and im."""
    try:
        if not isinstance(obj, dict):
            raise TypeError("the document must be a JSON object, got %r" % (obj,))
        n_modes = json_value(obj, "N_b", "integer")
        if n_modes < 1:  # an empty state would evolve and print nothing
            raise ValueError("need N_b >= 1, got %d" % n_modes)
        plus = _side_from_json(obj, "plus", n_modes, 1)
        minus = _side_from_json(obj, "minus", n_modes, -1)
        s = json_value(obj, "s", "number")
        real = json_value(obj, "real", "boolean", False)
    except (KeyError, TypeError) as exc:
        raise ValueError("malformed state object: %s" % exc) from exc
    return BirkhoffState(s, plus, minus, real)


def _zeta_minus(V, b, kappa):
    """zeta_{-n} = sqrt(n) b_n v_n[0] / sqrt(n kappa_n) for n = 1..K, read off
    the right vectors, their chain and kappa: zeta_{-n}(u) from those of u
    and, conjugated, zeta_n(u) from those of conj(u)."""
    ns = np.arange(1, len(b))
    return np.sqrt(ns) * b[1:] * V[0, 1:] / sqrt_plus(ns * kappa[1:])


def birkhoff_forward(u, M=None, k_use=None):
    """The coordinate map on a trig-polynomial potential.

    With f_n = b_n v_n, zeta_n = <1|f_n> / sqrt(kappa_n) takes a product
    form, one assembly path for real and complex u alike.  Index -n takes

        zeta_{-n}(u) = sqrt(n) b_n(u) v_n(u)[0] / sqrt(n kappa_n(u)),

    and the analytic extension gives index n as zeta_n(u) = conj(zeta_{-n}(u-))
    with u- = conj(u), the same formula on the vectors and chain of u-.
    For real u the chain of u- is the chain of u and the minus side is
    conj(plus).  For complex u the vectors of u- are u's, swapped, under
    the same labels, kappa_n and mu_n of u- are u's conjugated to the last
    bit, and only the chain of u- runs again.

    M and k_use go to lax.spectrum as given, so with M None the Lax
    residual picks the cut.  S drops the top mode of each f_0..f_{K-1} it
    shifts, of either chain; what the cut at M loses there is
    lax.spectrum's to warn about, by the Lax residual of v_n and w_n.
    Attaches .diagnostics with the product tails and the chain norm drift
    max_n |b_n conj(b-_n) (v-_n)^H v_n - 1|, the pairing
    sum_k f_n(u)_k conj(f_n(u-)_k) of the two chains against 1: the analytic
    extension of ||f_n||^2 = 1, which is |b_n|^2 for real u.
    """
    sd = spectrum(u, M, k_use=k_use)
    V, W = sd.right_vecs, sd.left_vecs  # the same array for real u
    kappa, mu, tails = scaling_constants(sd.lambdas)
    b = eigen_chain(V, W, kappa, mu)
    if u.real:
        b_c, kappa_c = b, kappa
    else:
        # L_{conj u} = L_u^H entry for entry: under u's labels (which
        # spectrum(conj u) would reorder only on an exact tie in the real
        # part) the right vectors of conj(u) are W and its left ones V
        kappa_c = np.conj(kappa)
        b_c = eigen_chain(W, V, kappa_c, np.conj(mu))
    pairing = b * np.conj(b_c) * np.sum(np.conj(W) * V, axis=0)
    plus = np.conj(_zeta_minus(W, b_c, kappa_c))
    minus = np.conj(plus) if u.real else _zeta_minus(V, b, kappa)
    state = BirkhoffState(u.s, plus, minus, real_flag=u.real)
    state.diagnostics = dict(tails, norm_drift=float(np.max(np.abs(pairing - 1.0))))
    return state


def canonical_bracket_table(u, n_max, h):
    """Brackets among the coordinate functionals, sharing the transforms.

    Returns (plus_minus, plus_plus) where plus_minus[i, j] approximates
    {zeta_{i+1}, zeta_{-(j+1)}}(u) (target -i delta_ij) and plus_plus[i, j]
    approximates {zeta_{i+1}, zeta_{j+1}}(u) (target 0).  Every forward map
    runs on a real potential: central differences of zeta_1..zeta_{n_max}
    along u_hat(k) +- h and u_hat(k) +- ih, k >= 1, give D_1 = d_k + d_{-k}
    and D_2 = i (d_k - d_{-k}), which the analytic extension splits as
    d_{+-k} = (D_1 -+ i D_2) / 2.  Its minus component
    zeta_{-n}(u) = conj(zeta_n(conj u)) is conj(zeta_n) on real potentials,
    and at a real u, d zeta_{-n} / du_hat(k) = conj(d zeta_n / du_hat(-k)).
    Each forward map keeps the labels up to n_max + 2N + 8 and leaves its
    cut to lax.spectrum's default, which the Lax residual certifies.
    """
    if not u.real:
        raise ValueError("bracket evaluation point must be a real potential")
    if n_max < 1:
        raise ValueError("need n_max >= 1, got %d" % n_max)
    if not (math.isfinite(h) and h > 0):
        raise ValueError("need a finite step h > 0, got %r" % h)
    reach = u.N + n_max + 2
    # the scaling products at index n carry factors from every open gap, so
    # the chain must run well past n_max or the partials inherit O(u^2) bias
    depth = n_max + 2 * u.N + 8
    base = dict(enumerate(u.band()[u.N + 1:], 1))

    def plus_side(k, step):
        coeffs = {**base, k: base.get(k, 0.0) + step}
        v = Potential(u.s, max(u.N, k), coeffs, real=True)
        return birkhoff_forward(v, k_use=depth).plus[:n_max]

    # column k - 1 holds D_1 and D_2 of zeta_1..zeta_{n_max} at k
    d1, d2 = (np.array([(plus_side(k, step) - plus_side(k, -step)) / (2.0 * h)
                        for k in range(1, reach + 1)]).T for step in (h, 1j * h))
    up, down = (d1 - 1j * d2) / 2.0, (d1 + 1j * d2) / 2.0  # d_k and d_{-k}
    ik = 1j * np.arange(1, reach + 1)
    plus_minus = (down * ik) @ down.conj().T - (up * ik) @ up.conj().T
    plus_plus = (down * ik) @ up.T - (up * ik) @ down.T
    return plus_minus, plus_plus
