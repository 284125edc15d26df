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
special case.

The sweep checks that the combination

    D(l_1..l_d) = sum_m A(l_1..l_m) A(l_m..l_d) - A_2(l_1..l_d)

vanishes.  With P the product of all nonzero entries, Z the number of
zeros and y_j = P / l_j, every term of D shares the denominator P^(Z+2),
and D P^(Z+2) (-1)^Z = S - A2 with A2 = h_(Z+1)(y) and S = sum_m w_m
h(prefix) h(suffix) (see _vanishing_terms).  One left pass gives the
prefix values and A2, one right pass the suffix values and S, in
O(d (Z + 2)) operations on plain Python integers, so every value is exact
and the test compares two integers.  Nothing is cached, within a sweep or
across sweeps, and the random tuples are drawn in fixed-size blocks, so a
sweep's memory does not grow with its length.
"""

import itertools

# the random part of sweep_vanishing draws its tuples this many at a time, so
# its memory does not grow with random_count
RANDOM_BLOCK = 4096


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


def sweep_vanishing(max_d, l_bound, random_count=0, rng=None):
    """Exhaustive + random exact sweep of the vanishing combination D.

    Returns (counts per d, random tuples checked, violations); violations
    lists the offending tuples.
    Exhaustive part: every tuple with d <= max_d, |l_j| <= l_bound.
    Random part: random_count tuples with d uniform on 1..6 and entries iid
    uniform on [-50, 50], drawn from rng in blocks of at most RANDOM_BLOCK.
    """
    if max_d < 1:
        raise ValueError("need max_d >= 1, got %d" % max_d)
    if l_bound < 0:
        raise ValueError("need l_bound >= 0, got %d" % l_bound)
    if random_count < 0:
        raise ValueError("need random_count >= 0, got %d" % random_count)
    if random_count and rng is None:
        raise ValueError("random sweep needs an rng")
    counts = {}
    violations = []
    values = range(-l_bound, l_bound + 1)
    for d in range(1, max_d + 1):
        n = 0
        for ls in itertools.product(values, repeat=d):
            n += 1
            S, A2 = _vanishing_terms(ls)
            if S != A2:
                violations.append(ls)
        counts[d] = n
    random_checked = 0
    while random_checked < random_count:
        b = min(RANDOM_BLOCK, random_count - random_checked)
        lengths = rng.integers(1, 7, size=b).tolist()
        rows = rng.integers(-50, 51, size=(b, 6)).tolist()
        for d, row in zip(lengths, rows):
            ls = tuple(row[:d])
            S, A2 = _vanishing_terms(ls)
            if S != A2:
                violations.append(ls)
        random_checked += b
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
