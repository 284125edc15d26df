"""Exact residue calculus and the combinatorial identity behind it.

All contour integrals here run counterclockwise around the circle of radius
1/3 about 0, so the only enclosed pole sits at mu = 0: nonzero integer
factors (l - mu)^-1 are analytic inside.  A factor with l = 0 contributes
-1/mu, raising the pole order by one and flipping the sign once.  The
residue is therefore a single Taylor coefficient of the product of the
nonzero factors:

    (1/2pi i) oint mu^-(1+extra) prod_j (l_j - mu)^-1 dmu
        = (-1)^z [mu^k] prod_{l_j != 0} (l_j - mu)^-1,   k = extra + z,

with z the number of zero entries.  That coefficient has the closed form
h_k(1/l_1, ..., 1/l_n) / prod l_j, where h_k is the complete homogeneous
symmetric polynomial in the nonzero entries; repeated factors need no
special case.  It is evaluated on plain Python integers (see _residue_pair),
so every value is exact and the vanishing test compares an integer with 0.
sweep_vanishing memoises _residue_pair for the length of one sweep, where
prefixes and suffixes repeat; nothing is cached across calls.
"""

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from .errors import DivergenceError
from .hardy import sobolev_norm


def _residue_pair(ls, extra_mu_power):
    """Unreduced (numerator, denominator) of residue_A(ls, extra_mu_power).

    With P the product of the nonzero l_j and y_j = P / l_j, the closed form
    becomes h_k(y) / P^(k+1), and h_k(y) follows from the recurrence
    h_i += y_j h_(i-1) (i ascending) over the nonzero entries.
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


def residue_A(ls, extra_mu_power=0):
    """Exact value of (1/2pi i) oint mu^-(1+extra) prod (l_j - mu)^-1 dmu.

    ls is a nonempty sequence of integers; extra_mu_power 0 gives the plain
    quantity, 1 the mu^-2 variant.
    """
    ls = tuple(int(l) for l in ls)
    if len(ls) == 0:
        raise ValueError("need a nonempty tuple")
    if extra_mu_power not in (0, 1):
        raise ValueError("extra_mu_power must be 0 or 1")
    return Fraction(*_residue_pair(ls, extra_mu_power))


def vanishing_D(ls):
    """The residue combination that the exact sweep certifies to vanish.

    D(l_1..l_d) = sum_{m=1..d} A(l_1..l_m) A(l_m..l_d)
                  - (1/2pi i) oint mu^-2 prod (l_j - mu)^-1 dmu,
    evaluated exactly.
    """
    ls = tuple(int(l) for l in ls)
    if len(ls) == 0:
        raise ValueError("need a nonempty tuple")
    return Fraction(*_vanishing_pair(ls))


def _vanishing_pair(ls, pair=_residue_pair):
    """Unreduced (numerator, denominator) of vanishing_D for a tuple of ints.

    pair computes _residue_pair; a sweep passes a memoised copy of it.
    """
    num, den = pair(ls, 1)
    num = -num
    for m in range(1, len(ls) + 1):
        a, b = pair(ls[:m], 0)
        c, e = pair(ls[m - 1:], 0)
        num = num * b * e + a * c * den
        den *= b * e
    return num, den


@dataclass(frozen=True)
class PartitionInstance:
    """An instance (J, K, q) of the counting identity at size d.

    J and K partition {1..d} with K nonempty, and q maps K to nonnegative
    integers summing to |J| + 1.
    """

    d: int
    J: frozenset = field()
    K: frozenset = field()
    q: tuple = field()  # pairs (k, q_k), sorted by k

    def __post_init__(self):
        full = frozenset(range(1, self.d + 1))
        if self.J | self.K != full or self.J & self.K:
            raise ValueError("J and K must partition {1..d}")
        if not self.K:
            raise ValueError("K must be nonempty")
        qmap = dict(self.q)
        if set(qmap) != set(self.K):
            raise ValueError("q must be indexed exactly by K")
        if any(v < 0 for v in qmap.values()):
            raise ValueError("q entries must be >= 0")
        if sum(qmap.values()) != len(self.J) + 1:
            raise ValueError("q must sum to |J| + 1")


def combi_check(p):
    """Count the two admissible sets of a PartitionInstance.

    J_ad(q) = { m in J : S(K_m) = |J_m| } and
    K_ad(q) = { m in K : S(K_m \\ {m}) <= |J_m| and S(K'_m \\ {m}) <= |J'_m| },
    with J_m = J cap [1, m], J'_m = J cap [m, d], likewise for K, and
    S(E) = sum of q over E.  Returns (|J_ad|, |K_ad|, ok) with
    ok <=> |K_ad| = |J_ad| + 1.
    """
    qmap = dict(p.q)

    def S(E):
        return sum(qmap[k] for k in E)

    j_ad = 0
    for m in p.J:
        K_m = {k for k in p.K if k <= m}
        J_m = {j for j in p.J if j <= m}
        if S(K_m) == len(J_m):
            j_ad += 1
    k_ad = 0
    for m in p.K:
        K_m = {k for k in p.K if k <= m}
        J_m = {j for j in p.J if j <= m}
        K_pm = {k for k in p.K if k >= m}
        J_pm = {j for j in p.J if j >= m}
        if S(K_m - {m}) <= len(J_m) and S(K_pm - {m}) <= len(J_pm):
            k_ad += 1
    return j_ad, k_ad, k_ad == j_ad + 1


def _admissible_counts(d, J, q):
    """(|J_ad|, |K_ad|) of combi_check in one pass over m = 1..d.

    Q and j are the running sums of q and of J-membership over [1, m]; the
    sums over [m, d] are the totals minus those over [1, m - 1].  J is a set
    of indices and q the (k, q_k) pairs; nothing is validated, so a
    corrupted instance is counted as it stands.
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
    """All tuples of `parts` nonnegative integers summing to `total`."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def iter_partition_instances(d):
    """All PartitionInstance values at size d."""
    indices = list(range(1, d + 1))
    for j_size in range(0, d):
        for J in itertools.combinations(indices, j_size):
            Jset = frozenset(J)
            K = sorted(set(indices) - Jset)
            for q in compositions(j_size + 1, len(K)):
                yield PartitionInstance(d=d, J=Jset, K=frozenset(K),
                                        q=tuple(zip(K, q)))


def sweep_vanishing(max_d, l_bound, random_count=0, rng=None):
    """Exhaustive + random exact sweep of vanishing_D.

    Returns (counts per d, violations); violations lists offending tuples.
    Exhaustive part: every tuple with d <= max_d, |l_j| <= l_bound.
    Random part: random_count tuples with d <= 6, |l_j| <= 50 from rng.
    The residues of shared prefixes and suffixes are cached for this call only.
    """
    if max_d < 1:
        raise ValueError("need max_d >= 1, got %d" % max_d)
    if l_bound < 0:
        raise ValueError("need l_bound >= 0, got %d" % l_bound)
    if random_count < 0:
        raise ValueError("need random_count >= 0, got %d" % random_count)
    pair = lru_cache(maxsize=None)(_residue_pair)
    counts = {}
    violations = []
    values = range(-l_bound, l_bound + 1)
    for d in range(1, max_d + 1):
        n = 0
        for ls in itertools.product(values, repeat=d):
            n += 1
            if _vanishing_pair(ls, pair)[0] != 0:
                violations.append(ls)
        counts[d] = n
    random_checked = 0
    if random_count:
        if rng is None:
            raise ValueError("random sweep needs an rng")
        for _ in range(random_count):
            d = int(rng.integers(1, 7))
            ls = tuple(int(v) for v in rng.integers(-50, 51, size=d))
            random_checked += 1
            if _vanishing_pair(ls, pair)[0] != 0:
                violations.append(ls)
    return counts, random_checked, violations


def sweep_combi(max_d, workers=1):
    """Exhaustive check of the counting identity for all instances with d <= max_d.

    Each instance is counted by the O(d) kernel _admissible_counts, which
    agrees with combi_check.  workers is ignored: the sweep always runs in
    one process.  The parameter stays only because existing callers pass it
    positionally.
    """
    if max_d < 1:
        raise ValueError("need max_d >= 1, got %d" % max_d)
    counts = {}
    violations = []
    for d in range(1, max_d + 1):
        n = 0
        for inst in iter_partition_instances(d):
            n += 1
            j_ad, k_ad = _admissible_counts(d, inst.J, inst.q)
            if k_ad != j_ad + 1:
                violations.append((inst, j_ad, k_ad))
        counts[d] = n
    return counts, violations


def delta_series(u, n, d_max, tol=None):
    """Truncated series for the chain defect delta_n of a trig-polynomial potential.

    Evaluates, literally, the remainder sum

        sum_{d >= 2} sum_{1 <= m <= d-1} sum_{k = m+1..d}
        sum over integer tuples (l_1..l_d) with
            l_j >= -n+1 for 1 <= j <= m and for m+1 <= j < k,
            l_k  = -n,
            l_j >= -n   for k < j <= d,
        of A(l_1..l_m) A(l_m..l_d) E_u(l_1..l_d),

    truncated at d <= d_max.  The l-sums are finite because
    E_u(l) = u_hat(l_1) u_hat(l_2-l_1) ... u_hat(l_d-l_{d-1}) u_hat(-l_d)
    vanishes unless consecutive differences lie in the support of u_hat.

    Returns (value, tail_estimate); the estimate is the geometric bound
    (5 ||u||_s)^(d_max+1).  With tol given, a tail estimate at or above tol
    raises DivergenceError (reported as unconverged).
    """
    if d_max < 2:
        raise ValueError("d_max must be >= 2")
    n = int(n)
    if n < 1:
        raise ValueError("n must be >= 1")
    coef = u.nonzero_coeffs()
    if not coef:
        return 0.0 + 0.0j, 0.0
    supp = sorted(coef)
    total = 0.0 + 0.0j
    for d in range(2, d_max + 1):
        for m in range(1, d):
            for k in range(m + 1, d + 1):
                total += _remainder_block(coef, supp, n, d, m, k)
    tail = (5.0 * sobolev_norm(u, u.s)) ** (d_max + 1)
    if tol is not None and tail >= tol:
        raise DivergenceError("tail estimate %.3e not below tolerance %.3e" % (tail, tol))
    return total, tail


def _remainder_block(coef, supp, n, d, m, k):
    """Sum over tuples for fixed (d, m, k) with l_k = -n pinned."""
    lower_strict = -n + 1  # positions 1..m and m+1..k-1
    lower_loose = -n       # positions k+1..d
    acc = 0.0 + 0.0j

    def extend(pos, prev, weight, prefix):
        nonlocal acc
        if pos > d:
            # close the chain: E_u carries a final factor u_hat(-l_d)
            w = weight * coef.get(-prev, 0.0)
            if w == 0.0:
                return
            a1 = float(residue_A(prefix[:m]))
            a2 = float(residue_A(prefix[m - 1:]))
            acc += a1 * a2 * w
            return
        if pos == k:
            l = -n
            step = coef.get(l - prev, 0.0) if pos > 1 else coef.get(l, 0.0)
            if step != 0.0:
                extend(pos + 1, l, weight * step, prefix + (l,))
            return
        lo = lower_strict if pos < k else lower_loose
        if pos == 1:
            choices = [l for l in supp if l >= lo]
        else:
            choices = [prev + s for s in supp if prev + s >= lo]
        for l in choices:
            step = coef.get(l - prev, 0.0) if pos > 1 else coef.get(l, 0.0)
            extend(pos + 1, l, weight * step, prefix + (l,))

    extend(1, 0, 1.0 + 0.0j, ())
    return acc

