"""Exact residue calculus and the combinatorial identity behind it.

All contour integrals here run counterclockwise around the circle of radius
1/3 about 0, so the only enclosed pole sits at mu = 0: nonzero integer
factors (l - mu)^-1 are analytic inside.  A factor with l = 0 contributes
-1/mu, raising the pole order by one and flipping the sign once.  The
residue is therefore a single Taylor coefficient of the product of the
nonzero factors:

    (1/2pi i) oint mu^-(1+extra) prod_j (l_j - mu)^-1 dmu
        = (-1)^z [mu^k] prod_{l_j != 0} (l_j - mu)^-1,   k = extra + z,

with z the number of zero entries; A(l_1..l_d) denotes it at extra = 0 and
A_2(l_1..l_d) at extra = 1.  That coefficient has the closed form
h_k(1/l_1, ..., 1/l_n) / prod l_j, where h_k is the complete homogeneous
symmetric polynomial in the nonzero entries; repeated factors need no
special case.  It is evaluated on plain Python integers (see _residue_pair),
so every value is exact and the vanishing test compares an integer with 0.
sweep_vanishing memoises _residue_pair for the length of one sweep, where
prefixes and suffixes repeat; nothing is cached across calls.
"""

import itertools
import math
from functools import lru_cache


def _residue_pair(ls, extra_mu_power):
    """Unreduced (numerator, denominator) of the residue A(ls) or A_2(ls).

    ls is a nonempty tuple of integers; extra_mu_power 0 gives A, 1 gives
    A_2.  With P the product of the nonzero l_j and y_j = P / l_j, the
    closed form becomes h_k(y) / P^(k+1), and h_k(y) follows from the
    recurrence h_i += y_j h_(i-1) (i ascending) over the nonzero entries.
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


def _vanishing_pair(ls, pair=_residue_pair):
    """Unreduced (numerator, denominator) of the residue combination
    D(l_1..l_d) = sum_{m=1..d} A(l_1..l_m) A(l_m..l_d) - A_2(l_1..l_d),
    which the exact sweep certifies to vanish.

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


def _admissible_counts(d, J, q):
    """(|J_ad|, |K_ad|) of the instance (J, q) at size d, in one pass over m = 1..d.

    With K = {1..d} minus J, J_m = J cap [1, m], J'_m = J cap [m, d],
    likewise for K, and S(E) the sum of q over E:
    J_ad = { m in J : S(K_m) = |J_m| } and
    K_ad = { m in K : S(K_m \\ {m}) <= |J_m| and S(K'_m \\ {m}) <= |J'_m| };
    the identity says |K_ad| = |J_ad| + 1.  Q and j are the running sums
    of q and of J-membership over [1, m]; the sums over [m, d] are the
    totals minus those over [1, m - 1].  J is a set of indices and q the
    (k, q_k) pairs; nothing is validated, so a corrupted instance is
    counted as it stands.
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


def sweep_vanishing(max_d, l_bound, random_count=0, rng=None):
    """Exhaustive + random exact sweep of the vanishing combination D.

    Returns (counts per d, random tuples checked, violations); violations
    lists the offending tuples.
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

    Each instance is counted by the O(d) kernel _admissible_counts.
    Returns (counts per d, violations); a violation is (d, J, q, |J_ad|,
    |K_ad|).  workers is ignored: the sweep always runs in one process.  The
    parameter stays only because existing callers pass it positionally.
    """
    if max_d < 1:
        raise ValueError("need max_d >= 1, got %d" % max_d)
    counts = {}
    violations = []
    for d in range(1, max_d + 1):
        n = 0
        for J, q in iter_partition_instances(d):
            n += 1
            j_ad, k_ad = _admissible_counts(d, J, q)
            if k_ad != j_ad + 1:
                violations.append((d, J, q, j_ad, k_ad))
        counts[d] = n
    return counts, violations
