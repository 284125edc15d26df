"""Independent oracles used to pin expected values in the test suite.

Everything here is deliberately primitive: plain quadrature, truncated
Fraction Taylor series, the closed-form residue and the multi-sums built
on them, the scalar vanishing kernel one tuple at a time, the partition
counts from explicit sets and the enumeration of every instance with its
O(d) count, dense linear solves and
eigenvalues, the involutions, norms and energies on coefficient dicts,
perturbation formulas, the scaling products one factor at a time, the
eigenfunction chain one shifted projection at a time, the RK4
loop with its products spelled out, on the full spectrum and on the
real half, a real half-spectrum sample as a coefficient dict, the
time-discrete equation residual,
a continuity probe on the full index range with its own copy of the
flow, the probe search that scores every multiple in each window, the
one-gap potential with its coordinate and gap in closed form, the
finite-gap potentials sum_j q_j^n, and the quadratic term of zeta_n on
two modes n apart.
Nothing imports the package under test, so agreement between a package
routine and its oracle is evidence, not circularity.
"""

import itertools
import math
from fractions import Fraction

import numpy as np


def contour_residue_quadrature(ls, extra_mu_power=0, radius=1.0 / 3.0, nodes=4096):
    """Trapezoid approximation of (1/2pi i) oint mu^-(1+extra) prod 1/(l_j - mu) dmu.

    The contour is the counterclockwise circle of the given radius about 0.
    Trapezoid quadrature of a periodic analytic integrand converges
    geometrically, so 4096 nodes is far below 1e-12 error for |l_j| >= 1
    factors on a radius-1/3 circle.
    """
    theta = 2.0 * np.pi * (np.arange(nodes) + 0.5) / nodes
    mu = radius * np.exp(1j * theta)
    integrand = mu ** (-(1 + extra_mu_power))
    for l in ls:
        integrand = integrand / (l - mu)
    # dmu = i mu dtheta; the 1/(2 pi i) cancels i and the 2 pi of the mean.
    return np.mean(integrand * mu)


def vanishing_sum_quadrature(ls):
    """The two-term residue combination, evaluated purely by quadrature."""
    d = len(ls)
    total = 0.0 + 0.0j
    for m in range(1, d + 1):
        total += contour_residue_quadrature(ls[:m]) * contour_residue_quadrature(ls[m - 1:])
    return total - contour_residue_quadrature(ls, extra_mu_power=1)


def _series_inv_linear(l, order):
    """Taylor coefficients of (l - mu)^-1 at mu = 0 up to the given order."""
    inv = Fraction(1, l)
    out = [inv]
    for _ in range(order):
        inv *= Fraction(1, l)
        out.append(inv)
    return out


def _series_mul(a, b, order):
    out = [Fraction(0)] * (order + 1)
    for i, ai in enumerate(a):
        if i > order or ai == 0:
            continue
        top = min(order - i, len(b) - 1)
        for j in range(top + 1):
            out[i + j] += ai * b[j]
    return out


def _product_series(ls, order):
    series = [Fraction(1)] + [Fraction(0)] * order
    for l in ls:
        series = _series_mul(series, _series_inv_linear(l, order), order)
    return series


def series_residue(ls, extra_mu_power=0):
    """Exact residue of mu^-(1+extra) prod 1/(l_j - mu) by truncated Fraction series.

    Each zero entry is a -1/mu factor; the rest are expanded as Taylor
    series, multiplied term by term, and the coefficient of mu^(extra + z)
    is read off.
    """
    zeros = sum(1 for l in ls if l == 0)
    order = extra_mu_power + zeros
    value = _product_series([l for l in ls if l != 0], order)[order]
    return -value if zeros % 2 else value


def residue_pair(ls, extra_mu_power=0):
    """Unreduced (numerator, denominator) of the residue A(ls) or A_2(ls), in closed form.

    ls is a nonempty tuple of integers; extra_mu_power 0 gives A, 1 gives
    A_2.  The residue is (-1)^z h_k(1/l_j) / prod l_j over the nonzero
    entries, k = extra + z with z the number of zeros.  With P the product
    of the nonzero l_j and y_j = P / l_j it becomes h_k(y) / P^(k+1), and
    h_k(y) follows from the recurrence h_i += y_j h_(i-1) (i ascending).
    """
    nonzero = [l for l in ls if l]
    zeros = len(ls) - len(nonzero)
    k = extra_mu_power + zeros
    P = math.prod(nonzero)
    h = [1] + [0] * k
    for l in nonzero:
        y = P // l
        for i in range(1, k + 1):
            h[i] += y * h[i - 1]
    return (-h[k] if zeros % 2 else h[k]), P ** (k + 1)


def series_residue_pole_shift(ls, n):
    """Exact residue of (1/(n+mu)) mu^-1 prod 1/(l_j - mu) by Fraction series.

    1/(n+mu) is expanded directly as sum (-1)^k mu^k / n^(k+1), n >= 1.
    """
    zeros = sum(1 for l in ls if l == 0)
    order = zeros
    series = _product_series([l for l in ls if l != 0], order)
    shift = [Fraction((-1) ** k, n ** (k + 1)) for k in range(order + 1)]
    value = _series_mul(series, shift, order)[order]
    return -value if zeros % 2 else value


def _vanishing_terms(ls):
    """The two sides (S, A2) of D(ls) P^(Z+2) (-1)^Z = S - A2, as integers.

    ls is a nonempty tuple of integers, P the product of its nonzero
    entries, Z the number of zeros and y_j = P / l_j (y_j = 0 marks a zero
    entry).  A2 = h_(Z+1)(y) and S = sum_m w_m h_(z(1..m))(y_1..y_m)
    h_(z(m..d))(y_m..y_d), with w_m = y_m, or -1 where l_m = 0.  The left
    pass builds the prefix values by the recurrence h_i += y_j h_(i-1)
    (i ascending) and ends with A2; the right pass builds the suffix values
    the same way and accumulates S.  D vanishes iff S == A2.
    """
    P = 1
    for l in ls:
        if l:
            P *= l
    ys = [P // l if l else 0 for l in ls]
    Z = ys.count(0)
    top = range(1, Z + 2)
    h = [1] + [0] * (Z + 1)
    left = []
    z = 0
    for y in ys:
        if y:
            for i in top:
                h[i] += y * h[i - 1]
        else:
            z += 1
        left.append(h[z])
    top = range(1, Z + 1)
    g = [1] + [0] * Z
    S = z = 0
    for m in range(len(ys) - 1, -1, -1):
        y = ys[m]
        if y:
            for i in top:
                g[i] += y * g[i - 1]
            S += y * left[m] * g[z]
        else:
            z += 1
            S -= left[m] * g[z]
    return S, h[Z + 1]


def delta_series(coeffs, n, d_max):
    """Truncated series for the chain defect delta_n, from a dict n -> u_hat(n).

    The literal remainder sum, truncated at d <= d_max,

        sum_{d >= 2} sum_{1 <= m < k <= d} sum over integer tuples (l_1..l_d)
        with l_j >= -n+1 for j < k, l_k = -n and l_j >= -n for j > k,
        of A(l_1..l_m) A(l_m..l_d) E_u(l_1..l_d),

    with A the exact residue (series_residue) and E_u(l) = u_hat(l_1)
    u_hat(l_2-l_1) ... u_hat(l_d-l_{d-1}) u_hat(-l_d), which vanishes unless
    consecutive differences lie in the support, so the l-sums are finite.
    The bounds on l do not depend on m, so each tuple is built once per
    (d, k) and carries the sum over m < k.
    """
    supp = sorted(coeffs)

    def chains(prefix, weight, d, k):
        pos, prev = len(prefix) + 1, (prefix[-1] if prefix else 0)
        if pos > d:
            w = weight * coeffs.get(-prev, 0.0)
            if w != 0.0:
                yield prefix, w
            return
        lo = -n + 1 if pos < k else -n
        for l in ([-n] if pos == k else [prev + s for s in supp if prev + s >= lo]):
            step = coeffs.get(l - prev, 0.0)
            if step != 0.0:
                yield from chains(prefix + (l,), weight * step, d, k)

    total = 0.0 + 0.0j
    for d in range(2, d_max + 1):
        for k in range(2, d + 1):
            for ls, w in chains((), 1.0 + 0.0j, d, k):
                total += w * sum(float(series_residue(ls[:m]) * series_residue(ls[m - 1:]))
                                 for m in range(1, k))
    return total


def combi_check(d, J, q):
    """Count the two admissible sets of the instance (J, q) at size d from explicit sets.

    K = {1..d} minus J and q holds the pairs (k, q_k) over K.  With J_m =
    J cap [1, m], J'_m = J cap [m, d], likewise for K, and S(E) the sum of q
    over E: J_ad = { m in J : S(K_m) = |J_m| } and
    K_ad = { m in K : S(K_m \\ {m}) <= |J_m| and S(K'_m \\ {m}) <= |J'_m| }.
    Returns (|J_ad|, |K_ad|, ok) with ok <=> |K_ad| = |J_ad| + 1.
    """
    qmap = dict(q)
    K = set(range(1, d + 1)) - set(J)

    def S(E):
        return sum(qmap[k] for k in E)

    j_ad = 0
    for m in J:
        K_m = {k for k in K if k <= m}
        J_m = {j for j in J if j <= m}
        if S(K_m) == len(J_m):
            j_ad += 1
    k_ad = 0
    for m in K:
        K_m = {k for k in K if k <= m}
        J_m = {j for j in J if j <= m}
        K_pm = {k for k in K if k >= m}
        J_pm = {j for j in J if j >= m}
        if S(K_m - {m}) <= len(J_m) and S(K_pm - {m}) <= len(J_pm):
            k_ad += 1
    return j_ad, k_ad, k_ad == j_ad + 1


def admissible_counts(d, J, q):
    """(|J_ad|, |K_ad|) of the instance (J, q) at size d, as combi_check
    defines them, in one pass over m = 1..d.

    Q and j are the running sums of q and of J-membership over [1, m]; the
    sums over [m, d] are the totals minus those over [1, m - 1].  Nothing is
    validated, so a corrupted instance is counted as it stands.
    """
    qv = [0] * (d + 1)
    for k, v in q:
        qv[k] = v
    q_total, j_total = sum(qv), len(J)
    Q = j = j_ad = k_ad = 0
    for m in range(1, d + 1):
        if m in J:
            j += 1
            j_ad += Q == j
        else:
            k_ad += Q <= j and q_total - Q - qv[m] <= j_total - j
            Q += qv[m]
    return j_ad, k_ad


def compositions(total, parts):
    """All tuples of parts >= 1 nonnegative integers summing to total, in
    lexicographic order: the cuts between parts - 1 bars among total + parts - 1 slots."""
    slots = total + parts - 1
    for bars in itertools.combinations(range(slots), parts - 1):
        edges = (-1,) + bars + (slots,)
        yield tuple(b - a - 1 for a, b in zip(edges, edges[1:]))


def iter_partition_instances(d):
    """Every instance (J, q) of the counting identity at size d.

    J is a subset of {1..d} whose complement K is nonempty; q holds the
    pairs (k, q_k) over K in increasing k, with q_k >= 0 summing to |J| + 1.
    """
    indices = range(1, d + 1)
    for j_size in range(d):
        for J in itertools.combinations(indices, j_size):
            J = frozenset(J)
            K = [k for k in indices if k not in J]
            for q in compositions(j_size + 1, len(K)):
                yield J, tuple(zip(K, q))


def psi_series(coeffs, n, d_max):
    """Taylor sum of the zero-mode coefficient of h_n = P_n e_n (projected_basis).

    coeffs maps n -> u_hat(n) over both signs.  The first-order term is
    -u_hat(-n)/n; each degree m+1 <= d_max adds the finite sum over tuples
    (l_1..l_m), l_j >= -n, of

        - (1/2pi i) oint (1/(n+mu)) (1/mu)
              u_hat(-n-l_m)/(l_m-mu) ... u_hat(l_2-l_1)/(l_1-mu) u_hat(l_1) dmu.

    Returns (value, per-degree magnitudes), so a caller can check that the
    terms contract.
    """
    supp = sorted(coeffs)
    value = -coeffs.get(-n, 0.0) / n
    per_degree = [abs(value)]
    for m in range(1, d_max):
        term = 0.0 + 0.0j

        def extend(pos, prev, weight, prefix):
            nonlocal term
            if pos > m:
                w = weight * coeffs.get(-n - prev, 0.0)
                if w != 0.0:
                    term -= float(series_residue_pole_shift(prefix, n)) * w
                return
            for k in supp:
                if prev + k >= -n:
                    extend(pos + 1, prev + k, weight * coeffs[k], prefix + (prev + k,))

        extend(1, 0, 1.0 + 0.0j, ())
        value += term
        per_degree.append(abs(term))
    return value, per_degree


def involute(coeffs, kind):
    """The two involutions on a dict n -> u_hat(n) over both signs.

    star: u_*(x) = u(-x), so u_hat(n) -> u_hat(-n).
    conj: u(x) -> conj(u(x)), so u_hat(n) -> conj(u_hat(-n)).
    """
    if kind not in ("star", "conj"):
        raise ValueError("kind must be 'star' or 'conj', got %r" % kind)
    return {-n: (v if kind == "star" else complex(v).conjugate()) for n, v in coeffs.items()}


def sobolev_norm(coeffs, beta):
    """(sum <n>^{2 beta} |u_hat(n)|^2)^{1/2}, <n> = max(1, |n|), over a dict n -> u_hat(n)."""
    return math.sqrt(sum(max(1, abs(n)) ** (2.0 * beta) * abs(v) ** 2
                         for n, v in coeffs.items()))


def hamiltonian_b(plus):
    """H_B = sum n^2 |zeta_n|^2 - sum_n (sum_{k>=n} |zeta_k|^2)^2 from the plus side.

    The normalization whose derivative in |zeta_n|^2 gives the flow
    frequencies n^2 + Omega_n and whose quadratic part matches the physical
    energy of the linearized coordinates.
    """
    q = np.abs(np.asarray(plus)) ** 2
    ns = np.arange(1, len(q) + 1, dtype=float)
    tails = np.cumsum(q[::-1])[::-1]
    return float(np.sum(ns ** 2 * q) - np.sum(tails ** 2))


def hamiltonian_phys(coeffs):
    """H_phys = (1/2) sum |n| |u_hat(n)|^2 - (1/3) (u^3)_hat(0) of a real potential.

    coeffs maps n -> u_hat(n) over both signs; (u^3)_hat(0) is the direct
    convolution sum of u_hat(a) u_hat(b) u_hat(-a-b) over the support.
    """
    quad = sum(abs(n) * abs(v) ** 2 for n, v in coeffs.items())
    cubic = sum(va * vb * coeffs.get(-a - b, 0.0)
                for a, va in coeffs.items() for b, vb in coeffs.items())
    return 0.5 * quad - cubic.real / 3.0


def lax_matrix(coeffs, M):
    """Dense (M+1)x(M+1) matrix j*delta_jk - u_hat(j-k) from a dict n -> u_hat(n)."""
    L = np.zeros((M + 1, M + 1), dtype=complex)
    for j in range(M + 1):
        L[j, j] = j
        for k in range(M + 1):
            L[j, k] -= coeffs.get(j - k, 0.0)
    return L


def sorted_eigenvalues(L):
    """Eigenvalues of a dense matrix, sorted by real part, then imaginary part.

    An exactly Hermitian matrix goes through eigvalsh, so its eigenvalues
    come out real.
    """
    if np.array_equal(L, L.conj().T):
        return np.linalg.eigvalsh(L).astype(complex)
    lam = np.linalg.eigvals(L)
    return lam[np.lexsort((lam.imag, lam.real))]


def symmetry_audit(coeffs, M):
    """Deviations from the reflection and conjugation symmetries of the Lax spectrum.

    coeffs maps n -> u_hat(n) over both signs.  Each entry is a max
    absolute difference of sorted spectra, each spectrum solved from its
    own matrix:
      minus_vs_star: lambda_n(u_*) against lambda_n(u), where
          u_*(x) = u(-x) has the coefficients u_hat(-n);
      conj_equivariance: conj(lambda_n(conj u)) against lambda_n(u), where
          conj u has the coefficients conj(u_hat(-n)).
    L_{u_*} is L_u^T and L_{conj u} is L_u^H entry for entry, so both
    entries are linear-algebra identities on matrices built here: they
    check the eigensolver on each pair and certify nothing about the
    package, whose spectrum criterion 13 reads, its swapped vectors included.
    """
    lam_u = sorted_eigenvalues(lax_matrix(coeffs, M))
    lam_star = sorted_eigenvalues(lax_matrix(involute(coeffs, "star"), M))
    lam_conj = np.conj(sorted_eigenvalues(lax_matrix(involute(coeffs, "conj"), M)))
    lam_conj = lam_conj[np.lexsort((lam_conj.imag, lam_conj.real))]
    return {
        "minus_vs_star": float(np.max(np.abs(lam_star - lam_u))),
        "conj_equivariance": float(np.max(np.abs(lam_conj - lam_u))),
    }


def isospectral_audit(samples, M, k_top):
    """Largest eigenvalue drift along a run, from a list of coefficient dicts.

    The max over samples i >= 1 and n <= k_top of
    |lambda_n(u_i) - lambda_n(u_0)| for the truncation to modes 0..M.
    Conservation of the whole spectrum is the structural identity a direct
    integrator never imposes, which makes this a strong independent check.
    """
    lam = [sorted_eigenvalues(lax_matrix(c, M))[:k_top + 1] for c in samples]
    return max((float(np.max(np.abs(x - lam[0]))) for x in lam[1:]), default=0.0)


def riesz_column_quadrature(L, n, rhs, radius=1.0 / 3.0, nodes=256):
    """-(1/2pi i) oint (L - lambda)^-1 rhs dlambda on the circle about n.

    Dense solve per node; the trapezoid rule on the circle converges
    geometrically for spectra separated from the contour.
    """
    theta = 2.0 * np.pi * (np.arange(nodes) + 0.5) / nodes
    lam = n + radius * np.exp(1j * theta)
    acc = np.zeros(L.shape[0], dtype=complex)
    eye = np.eye(L.shape[0])
    for lm in lam:
        # dlambda = i (lam - n) dtheta, and the prefactor -(1/2pi i) turns the
        # integral into -mean over nodes of (lam - n) * solve.
        acc += np.linalg.solve(L - lm * eye, rhs) * (lm - n)
    return -acc / nodes


def perturbative_lambda0(eps):
    """Second-order perturbation theory for u = 2 eps cos x: lambda_0 = -eps^2 + O(eps^3)."""
    return -(eps ** 2)


def perturbative_gamma1(eps):
    """Same potential: gamma_1 = lambda_1 - lambda_0 - 1 = eps^2 + O(eps^3)."""
    return eps ** 2


def one_gap(q):
    """The one-gap potential u_hat(n) = q^n, 0 < q < 1, in closed form.

    Returns (coeffs, zeta_1, gamma_1): coeffs maps n = 1..N to q^n, with N
    the first index where q^N < 1e-17, so the tail lies below rounding.
    The only nonzero coordinate is zeta_1 = -q / sqrt(1 - q^2), and the one
    open gap is gamma_1 = |zeta_1|^2 = q^2 / (1 - q^2) (Gerard and Kappeler,
    CPAM 2021).  The flow moves it as the travelling wave
    u_hat(n, t) = (q e^{i (1 - 2 gamma_1) t})^n.
    """
    N = 1
    while q ** N >= 1e-17:
        N += 1
    coeffs = {n: q ** n for n in range(1, N + 1)}
    return coeffs, -q / math.sqrt(1.0 - q * q), q * q / (1.0 - q * q)


def finite_gap(qs):
    """The finite-gap potential u_hat(n) = sum_j q_j^n, distinct 0 < |q_j| < 1.

    Returns coeffs mapping n = 1..N to the sum, with N the first index where
    max_j |q_j|^N < 1e-17.  It has len(qs) open gaps and every coordinate
    past them is 0 (Gerard and Kappeler, CPAM 2021); one_gap is len(qs) = 1.
    """
    qs = np.asarray(qs, dtype=complex)
    N = 1
    while np.max(np.abs(qs)) ** N >= 1e-17:
        N += 1
    n = np.arange(1, N + 1)
    return dict(zip(n.tolist(), np.sum(qs[:, None] ** n, axis=0).tolist()))


def two_mode_quadratic(a, b, m, n):
    """zeta_n to second order on the real potential whose only modes are
    u_hat(m) = a and u_hat(m+n) = b, m, n >= 1: -b conj(a) / (sqrt(n) m).

    The rest is O(|u_hat|^3), except at m = 2n, where the cubic term
    a^2 conj(b) lands on mode n as well.  With a = b = eps m^{-s} / sqrt(2)
    at n = 1, |zeta_1| / eps^2 = m^{-1-2s} / 2: bounded in m, at fixed
    H^s norm, exactly when s >= -1/2, the exponent of the paper's theorem.
    """
    return -b * complex(a).conjugate() / (math.sqrt(n) * m)


def direct_bo_rhs(u_hat_half):
    """Modewise right side i n |n| u_hat(n) - i n (u^2)_hat(n) of a real state.

    u_hat_half holds u_hat(n) for n = 0..G/2 on a grid of G points (already
    divided by G); returns the same layout.  No dealiasing here: the oracle
    is meant for tiny, well-resolved data only.
    """
    G = 2 * (len(u_hat_half) - 1)
    n = np.arange(len(u_hat_half))
    u = np.fft.irfft(u_hat_half * G, G)
    sq = np.fft.rfft(u * u) / G
    return 1j * n * n * u_hat_half - 1j * n * sq


def scaling_constants_loop(sd, tol=1e-12):
    """kappa_n, mu_n and the product tails, one factor at a time.

    The loop form of the scaling products: kappa_n as np.prod over the
    factors k != n, mu_n multiplied up factor by factor in increasing k.
    Reads only sd.lambdas and sd.hermitian.  A factor below tol
    raises ValueError with the message the package gives its
    DegenerateProduct, at the same first (n, k); a NaN factor counts as
    below tol.
    """
    lam = sd.lambdas
    K = len(lam) - 1
    if sd.hermitian:
        lam = lam.real
    gam = lam[1:] - lam[:-1] - 1.0  # gam[k-1] = gamma_k
    kappa = np.empty(K + 1, dtype=complex)
    mu = np.full(K + 1, np.nan, dtype=complex)
    kappa_tail = 0.0
    mu_tail = 0.0
    for n in range(K + 1):
        factors = np.ones(0, dtype=complex)
        if n == 0:
            factors = 1.0 - gam / (lam[1:] - lam[0])
            value = np.prod(factors)
        else:
            ks = np.array([k for k in range(1, K + 1) if k != n])
            if len(ks):
                factors = 1.0 - gam[ks - 1] / (lam[ks] - lam[n])
            value = np.prod(factors) / (lam[n] - lam[0])
        if len(factors):
            small = float(np.min(np.abs(factors)))
            if not small >= tol:  # NaN fails
                raise ValueError("kappa_%d product factor of size %.3e" % (n, small))
            kappa_tail = max(kappa_tail, float(abs(factors[-1] - 1.0)))
        kappa[n] = value
    for n in range(1, K + 1):
        lead = 1.0 - gam[n - 1] / (lam[n] - lam[0])
        if not abs(lead) >= tol:
            raise ValueError("mu_%d leading factor of size %.3e" % (n, abs(lead)))
        value = lead
        last = None
        for k in range(1, K + 1):
            if k == n:
                continue
            f = 1.0 - gam[n - 1] * gam[k - 1] / ((lam[k - 1] - lam[n - 1]) * (lam[k] - lam[n]))
            if not abs(f) >= tol:
                raise ValueError("mu_%d product factor of size %.3e at k=%d"
                                 % (n, abs(f), k))
            value *= f
            last = f
        if last is not None:
            mu_tail = max(mu_tail, float(abs(last - 1.0)))
        mu[n] = value
    return kappa, mu, {"kappa_tail": kappa_tail, "mu_tail": mu_tail}


def projected_basis(sd):
    """The projected basis h_n = P_n e_n = v_n conj(w_n[n]) / (w_n^H v_n), n <= K.

    One vdot per column; the chain runs on the eigenvectors themselves, and
    f_n = a_n h_n is the same chain in this basis, with h_n[n] = alpha_n.
    Returns the (M+1) x (K+1) array whose column n is h_n.
    """
    V, W = sd.right_vecs, sd.left_vecs
    return np.stack([V[:, n] * (np.conj(W[n, n]) / np.vdot(W[:, n], V[:, n]))
                     for n in range(len(sd.lambdas))], axis=1)


def chain_loop(sd):
    """The normalized chain f_0..f_K as vectors, one shifted projection at a time.

    f_0 = a_0 h_0 with a_0 = sqrt(kappa_0) / h_0[0] and h from
    projected_basis, then f_n = P_n(S f_{n-1}) / sqrt(mu_n), where S shifts
    every mode up by one and drops the top one, and
    P_n x = v_n (w_n^H x) / (w_n^H v_n).  kappa and mu come from
    scaling_constants_loop; square roots are principal.  Reads
    sd.right_vecs and sd.left_vecs besides what scaling_constants_loop
    reads, and runs no guard.  Returns the (M+1) x (K+1) array whose column
    n is f_n.
    """
    kappa, mu, _ = scaling_constants_loop(sd)
    h = projected_basis(sd)
    f = np.sqrt(kappa[0]) / h[0, 0] * h
    for n in range(1, len(sd.lambdas)):
        shifted = np.zeros(len(f), dtype=complex)
        shifted[1:] = f[:-1, n - 1]
        v = sd.right_vecs[:, n]
        w = sd.left_vecs[:, n]
        f[:, n] = v * (np.vdot(w, shifted) / np.vdot(w, v)) / np.sqrt(mu[n])
    return f


def projector_couplings(sd):
    """alpha_n = <P_n e_n | e_n> and beta_n = <P_n S h_{n-1} | e_n> for n = 1..K.

    P_n = v_n w_n^H / (w_n^H v_n) is the rank-one projector formed as a
    matrix, S shifts every mode up by one and drops the top one, and h comes
    from projected_basis.  Reads sd.lambdas, sd.right_vecs and sd.left_vecs.
    Returns (alpha, beta), index-aligned with slot 0 NaN.
    """
    h = projected_basis(sd)
    alpha = np.full(len(sd.lambdas), np.nan, dtype=complex)
    beta = alpha.copy()
    for n in range(1, len(sd.lambdas)):
        v, w = sd.right_vecs[:, n], sd.left_vecs[:, n]
        P = np.outer(v, np.conj(w)) / np.vdot(w, v)
        shifted = np.zeros(len(h), dtype=complex)
        shifted[1:] = h[:-1, n - 1]
        alpha[n], beta[n] = P[n, n], (P @ shifted)[n]
    return alpha, beta


def projector_delta(sd):
    """The chain defects delta_n = beta_n - alpha_n of projector_couplings, slot 0 NaN."""
    alpha, beta = projector_couplings(sd)
    return beta - alpha


def integrate_loop(u0, cfg, dealias_fraction=2.0 / 3.0):
    """The integrating-factor RK4 loop with every product spelled out per step.

    The reference form of the pseudospectral integrator: the nonlinear term
    scales by the grid around each FFT, and each step recomputes its
    constants; the square's spectrum is cut above dealias_fraction of the
    grid's band.  Reads u0.nonzero_coeffs() and cfg's grid_size, dt and
    times; returns (times, coeffs) as float and complex arrays, coeffs
    in np.fft layout.
    """
    grid = int(cfg.grid_size)
    n = np.fft.fftfreq(grid, d=1.0 / grid).astype(int)
    keep = int(np.floor((grid // 2) * dealias_fraction))
    mask = np.abs(n) <= keep

    c = np.zeros(grid, dtype=complex)
    for m, v in u0.nonzero_coeffs().items():
        c[m % grid] = v

    lin = 1j * n * np.abs(n)

    def rhs(state):
        phys = np.fft.ifft(state * grid)
        sq = np.fft.fft(np.real(phys) ** 2) / grid
        sq *= mask
        out = -1j * n * sq
        out[0] = 0.0
        return out

    steps = [round(t / cfg.dt) for t in cfg.times]
    dt = cfg.times[-1] / steps[-1]
    E = np.exp(lin * dt / 2.0)
    E2 = E * E
    times = [0.0]
    stored = [c.copy()]
    for step in range(1, max(steps) + 1):
        k1 = rhs(c)
        k2 = rhs(E * (c + dt / 2.0 * k1))
        k3 = rhs(E * c + dt / 2.0 * k2)
        k4 = rhs(E2 * c + dt * E * k3)
        c = E2 * c + dt / 6.0 * (E2 * k1 + 2.0 * E * (k2 + k3) + k4)
        c[0] = 0.0
        for _ in range(steps.count(step)):
            times.append(step * dt)
            stored.append(c.copy())
    return np.asarray(times, dtype=float), np.asarray(stored, dtype=complex)


def integrate_loop_half(u0, cfg, dealias_fraction=2.0 / 3.0):
    """integrate_loop on the real half-spectrum: modes 0..grid/2 only.

    The same spelled-out step, with irfft and rfft in place of ifft and fft
    (irfft reads only the real part of the grid/2 bin, as the real part of
    ifft would).  There n = grid/2 labels the top bin, where np.fft.fftfreq
    says -grid/2, so at dealias_fraction 1 the value kept there is the
    conjugate of integrate_loop's.  Returns (times, coeffs) as integrate_loop
    does, coeffs holding modes 0..grid/2.
    """
    grid = int(cfg.grid_size)
    n = np.arange(grid // 2 + 1)
    keep = int(np.floor((grid // 2) * dealias_fraction))
    mask = n <= keep

    c = np.zeros(grid // 2 + 1, dtype=complex)
    for m, v in u0.nonzero_coeffs().items():
        if m >= 0:
            c[m] = v

    lin = 1j * n * n

    def rhs(state):
        phys = np.fft.irfft(state * grid, grid)
        sq = np.fft.rfft(phys ** 2) / grid
        sq *= mask
        out = -1j * n * sq
        out[0] = 0.0
        return out

    steps = [round(t / cfg.dt) for t in cfg.times]
    dt = cfg.times[-1] / steps[-1]
    E = np.exp(lin * dt / 2.0)
    E2 = E * E
    times = [0.0]
    stored = [c.copy()]
    for step in range(1, max(steps) + 1):
        k1 = rhs(c)
        k2 = rhs(E * (c + dt / 2.0 * k1))
        k3 = rhs(E * c + dt / 2.0 * k2)
        k4 = rhs(E2 * c + dt * E * k3)
        c = E2 * c + dt / 6.0 * (E2 * k1 + 2.0 * E * (k2 + k3) + k4)
        c[0] = 0.0
        for _ in range(steps.count(step)):
            times.append(step * dt)
            stored.append(c.copy())
    return np.asarray(times, dtype=float), np.asarray(stored, dtype=complex)


def sample_coeffs(c, band, tol=1e-13):
    """A real sample c, c[n] = u_hat(n) for n = 0.., as a dict n -> u_hat(n)
    over both signs and 0 < |n| <= band, without the entries of modulus at
    most tol: the sample's content rather than the width of its band."""
    coeffs = {}
    for n in range(1, band + 1):
        if abs(c[n]) > tol:
            coeffs[n], coeffs[-n] = complex(c[n]), complex(c[n]).conjugate()
    return coeffs


def equation_residual(traj, s):
    """Defect of the stored samples in the equation, in the H^{s-2} norm.

    Central differences in time at interior samples against
    i n |n| u_hat(n) - i n (u^2)_hat(n); the samples hold modes 0..grid/2
    of a real state, so each n >= 1 counts twice, once per sign, and the
    quadratic term is evaluated on the trajectory's own dealiased band.
    Returns the max over interior samples; at least 3 samples are required.
    """
    if len(traj.times) < 3:
        raise ValueError("need at least 3 samples for a central difference")
    n = np.arange(traj.coeffs.shape[1])
    grid = 2 * (len(n) - 1)
    band_mask = n <= traj.band
    weight = np.where(n > 0, 2.0, 1.0) * np.maximum(1.0, n) ** (2.0 * (s - 2.0))
    worst = 0.0
    for i in range(1, len(traj.times) - 1):
        dt_back = traj.times[i] - traj.times[i - 1]
        dt_fwd = traj.times[i + 1] - traj.times[i]
        if abs(dt_fwd - dt_back) > 1e-12 * max(dt_fwd, dt_back):
            raise ValueError("residual needs uniformly spaced samples")
        du = (traj.coeffs[i + 1] - traj.coeffs[i - 1]) / (dt_back + dt_fwd)
        c = traj.coeffs[i]
        phys = np.fft.irfft(c * grid, grid)
        sq = np.fft.rfft(phys ** 2) / grid * band_mask
        field = 1j * n * n * c - 1j * n * sq
        defect = (du - field) * band_mask
        worst = max(worst, float(np.sqrt(np.sum(weight * np.abs(defect) ** 2))))
    return worst


def dense_probe(s, t, base, delta, m):
    """One continuity probe on the full index range 1..m, all arrays of length m.

    zeta adds delta/m^{1/2+s} to the real state with holomorphic side `base`
    at mode m; xi adds the same times 1 + i m^{s/2}.  Their distance at time t
    is that of zeta and xi exp(i t Delta), where Delta = Omega^xi - Omega^zeta
    is formed by cumulative sums over all m modes from the one product the
    states differ in, |xi_m - zeta_m|^2: the common factor
    exp(i t (n^2 + Omega^zeta_n)) has modulus 1.  Norms carry the weights
    n^{1+2s}.  Returns
    (zeta, xi, row): the two plus sides at t = 0 and a row with the fields
    of bonft's continuity sweep.
    """
    if m <= len(base):
        raise ValueError("probe index %d must exceed the base support %d" % (m, len(base)))
    ns = np.arange(1, m + 1, dtype=float)
    w = ns ** (1.0 + 2.0 * s)
    zeta = np.zeros(m, dtype=complex)
    zeta[:len(base)] = base
    xi = zeta.copy()
    amp = delta / m ** (0.5 + s)
    zeta[m - 1] = amp
    xi[m - 1] = amp * (1.0 + 1j * m ** (s / 2.0))

    def norm(x):
        return float(np.sqrt(np.sum(w * np.abs(x) ** 2)))

    prod = np.abs(xi - zeta) ** 2
    weighted = np.cumsum(ns * prod)
    tails = np.concatenate((np.cumsum(prod[::-1])[::-1][1:], [0.0]))
    rel = -2.0 * weighted - 2.0 * ns * tails
    d0, dt = norm(zeta - xi), norm(zeta - xi * np.exp(1j * float(t) * rel))
    gap = float(abs(rel[m - 1]))
    return zeta, xi, {
        "m": m,
        "delta": delta,
        "d0": d0,
        "dt": dt,
        "ratio": dt / d0,
        "omega_gap_pred": 2.0 * delta ** 2 * m ** (-s),
        "omega_gap_meas": gap,
        "phase_bound_ok": abs(math.sin(0.5 * t * gap)) * 2.0 > 1.0,
    }


def probe_indices_scan(s, k, max_m, n_base, max_probes):
    """Continuity probes by scoring every multiple of k in each odd window.

    The window around an odd q holds the j with j^{-s} within 1/2 of q,
    clipped to n_base < jk <= max_m; the j with |j^{-s} - q| least is kept,
    the first (smallest) on a tie.  A window end that overflows a float,
    or passes max_m // k + 1, is taken as max_m // k + 1.
    """
    a = -s
    cap = max_m // k + 1

    def end(x):
        try:
            return min(x ** (1.0 / a), cap)
        except OverflowError:
            return cap

    out = []
    q = 1
    while len(out) < max_probes:
        j_lo = max(1, math.ceil(end(q - 0.5) + 1e-12))
        j_hi = math.floor(end(q + 0.5) - 1e-12)
        if j_lo * k > max_m:
            break
        cands = [j for j in range(j_lo, j_hi + 1) if n_base < j * k <= max_m]
        if cands:
            out.append(min(cands, key=lambda j: abs(j ** a - q)) * k)
        q += 2
    return out
