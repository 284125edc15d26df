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
h(prefix) h(suffix) (see _vanishing_sides).  One left pass gives the
prefix values and A2, one right pass the suffix values and S, in
O(d (Z + 2)) integer operations per tuple.  The kernel runs both passes on
a block of tuples at once, with numpy operations over the rows that share a
zero count Z: in int64 where a bound B on every value proves that nothing
overflows (the random part, d <= 6 and |l| <= 50, stays below 4.7e18), on
Python integers (dtype=object) otherwise.  So every value is exact and
the test compares two integers.  Nothing is cached, within a sweep or
across sweeps.  Both parts of a sweep hand the kernel at most RANDOM_BLOCK
tuples at a time, so its memory does not grow with its length.

The counting identity |K_ad| = |J_ad| + 1 runs over instances (J, q): J a
subset of {1..d} with nonempty complement K, q_k >= 0 on K summing to |J| + 1,
J_ad = { m in J : S(K_m) = |J_m| }, K_ad = { m in K : S(K_m \\ {m}) <= |J_m|,
S(K'_m \\ {m}) <= |J'_m| }, with S the sum of q, X_m = X cap [1, m] and
X'_m = X cap [m, d].  Both sets depend only on the walk e_m = S(K_m) - |J_m|
from 0 to 1.  A J step lowers e by 1 and is in J_ad when it lands on 0: a
down-crossing from 1 to 0.  A K step raises e by q_m and is in K_ad when
e <= 0 < e + q_m: an up-crossing from <= 0 to >= 1.  So a walk crosses up
once more than down (the crossing argument of the cycle lemma; Dvoretzky
and Motzkin 1947, Raney 1960).  sweep_combi counts the walks, and those that
break the identity, by a dynamic program whose cost grows polynomially in d.
"""

import math

import numpy as np

# the rows per _vanishing_sides call; the random part of sweep_vanishing also
# draws its tuples this many at a time, so the block size fixes which tuples a
# seed draws
RANDOM_BLOCK = 4096

INT64_MAX = np.iinfo(np.int64).max


def _side_bound(d, Z, L):
    """B: a bound on every value _group_sides forms for a row of length d with
    Z zeros and entries of size at most L (see _vanishing_sides)."""
    n = d - Z
    Y = L ** max(n - 1, 0)
    return max(L ** n, d * math.comb(n + Z, Z + 1) ** 2 * Y ** (Z + 1))


def _group_sides(rows, Z):
    """The exact (S, A2) of each row of rows, every row with exactly Z zeros,
    computed in rows' dtype: int64 where _side_bound allows it, else object."""
    count, d = rows.shape
    ls = rows.T
    zero = ls == 0
    safe = np.where(zero, 1, ls)
    y = np.where(zero, 0, safe.prod(axis=0) // safe)
    at = np.arange(count)
    h = np.zeros((Z + 2, count), rows.dtype)
    h[0] = 1
    z = np.zeros(count, np.intp)
    left = []
    for j in range(d):
        for i in range(1, Z + 2):
            h[i] += y[j] * h[i - 1]
        z += zero[j]
        left.append(h[z, at])
    g = np.zeros((Z + 1, count), rows.dtype)
    g[0] = 1
    S = np.zeros(count, rows.dtype)
    z[:] = 0
    for m in range(d - 1, -1, -1):
        for i in range(1, Z + 1):
            g[i] += y[m] * g[i - 1]
        z += zero[m]
        S += np.where(zero[m], -1, y[m]) * left[m] * g[z, at]
    return S, h[Z + 1]


def _vanishing_sides(rows):
    """The two sides (S, A2) of D P^(Z+2) (-1)^Z = S - A2 for each row of rows.

    rows is a 2-D integer array, one tuple of length d >= 1 per row; P is the
    product of a row's nonzero entries, Z its number of zeros and y_j = P / l_j
    (y_j = 0 marks a zero entry).  A2 = h_(Z+1)(y) and S = sum_m w_m
    h_(z(1..m))(y_1..y_m) h_(z(m..d))(y_m..y_d), with w_m = y_m, or -1 where
    l_m = 0.  The left pass builds the prefix values by the recurrence
    h_i += y_j h_(i-1) (i ascending) and ends with A2; the right pass builds
    the suffix values the same way and accumulates S.  A zero entry has
    y_j = 0, so the recurrence leaves it alone, and a row's running zero count
    picks its prefix value h_z.  D vanishes iff S == A2.  Returns two arrays,
    int64 unless some group needed dtype=object.

    The rows are grouped by Z, and a group runs in int64 when B < 2^63, with
    n = d - Z, L the group's largest |l_j|, Y = L^(n-1) and

        B = max(L^n, d C(n+Z, Z+1)^2 Y^(Z+1)).

    Proof that B bounds every value formed: the partial products of P are at
    most L^n, and |y_j| <= Y, a product of n - 1 entries.  A prefix or suffix
    value h_k, k <= Z + 1, and each partial value of its recurrence, is a sum
    of at most C(n+k-1, k) <= C(n+Z, Z+1) monomials of degree k in the y_j,
    each at most Y^k.  The m-th term of S multiplies w_m, the prefix value of
    degree a and the suffix value of degree b, with a + b = Z where l_m != 0
    (|w_m| <= Y) and a + b = Z + 1 where l_m = 0 (|w_m| = 1); the term and
    its partial product are at most C(n+Z, Z+1)^2 Y^(Z+1), as Y >= 1, and S
    sums d terms.  Past the bound the group runs on Python integers.
    """
    rows = np.asarray(rows)
    count, d = rows.shape
    zeros = (rows == 0).sum(axis=1)
    parts = []
    for Z in range(d + 1):
        at = np.flatnonzero(zeros == Z)
        if at.size:
            group = rows[at]
            L = max(int(group.max()), -int(group.min()))
            dtype = np.int64 if _side_bound(d, Z, L) <= INT64_MAX else object
            parts.append((at, _group_sides(group.astype(dtype), Z)))
    dtype = object if any(S.dtype == object for _, (S, _) in parts) else np.int64
    S, A2 = np.zeros(count, dtype), np.zeros(count, dtype)
    for at, (s, a2) in parts:
        S[at], A2[at] = s, a2
    return S, A2


def _lex_blocks(d, l_bound):
    """Every tuple of length d with |l_j| <= l_bound, in lexicographic order,
    as arrays of at most RANDOM_BLOCK rows: the k-th tuple's entries are the
    digits of k in base 2 l_bound + 1, less l_bound."""
    base = 2 * l_bound + 1
    total = base ** d
    dtype = np.int64 if total <= INT64_MAX else object
    place = np.array([base ** (d - 1 - j) for j in range(d)], dtype)
    for start in range(0, total, RANDOM_BLOCK):
        k = np.arange(start, min(start + RANDOM_BLOCK, total), dtype=dtype)
        yield k[:, None] // place % base - l_bound


def _walk_step(e, in_j, q):
    """(e', added to |J_ad|, added to |K_ad|) for a J step (q unused) or a K step q from e."""
    if in_j:
        return e - 1, int(e == 1), 0
    return e + q, 0, int(e <= 0 < e + q)


def _moves(e, rest):
    """The steps (in_j, q) from e that can still end at 1 after rest more,
    J first, then K by increasing q."""
    return [(True, 0)] + [(False, q) for q in range(rest + 2 - e)]


def _first_bad(tails, d):
    """The first walk of length d in _moves order that breaks the identity, as (J, q)."""
    e = gained = 0
    steps = []
    for rest in range(d - 1, -1, -1):
        for step in _moves(e, rest):
            e2, dj, dk = _walk_step(e, *step)
            if any(gained + dk - dj + t != 1 for t in tails[rest].get(e2, ())):
                break
        e, gained = e2, gained + dk - dj
        steps.append(step)
    return (tuple(m for m, (in_j, _) in enumerate(steps, 1) if in_j),
            tuple((m, q) for m, (in_j, q) in enumerate(steps, 1) if not in_j))


def sweep_vanishing(max_d, l_bound, random_count, rng):
    """Exhaustive + random exact sweep of the vanishing combination D.

    Returns (counts per d, random tuples checked, violations); violations
    lists the offending tuples, as tuples of ints, in the order checked.
    Exhaustive part: every tuple with d <= max_d, |l_j| <= l_bound, in
    lexicographic order for each d.
    Random part: random_count tuples with d uniform on 1..6 and entries iid
    uniform on [-50, 50], drawn from rng in blocks of at most RANDOM_BLOCK:
    a block draws its lengths, then one six-entry row per tuple, of which a
    tuple keeps its first d entries.
    """
    if max_d < 1:
        raise ValueError("need max_d >= 1, got %d" % max_d)
    if l_bound < 0:
        raise ValueError("need l_bound >= 0, got %d" % l_bound)
    if random_count < 0:
        raise ValueError("need random_count >= 0, got %d" % random_count)
    counts = {}
    violations = []
    for d in range(1, max_d + 1):
        counts[d] = 0
        for rows in _lex_blocks(d, l_bound):
            S, A2 = _vanishing_sides(rows)
            violations += [tuple(map(int, rows[i])) for i in np.flatnonzero(S != A2)]
            counts[d] += len(rows)
    random_checked = 0
    while random_checked < random_count:
        b = min(RANDOM_BLOCK, random_count - random_checked)
        lengths = rng.integers(1, 7, size=b)
        rows = rng.integers(-50, 51, size=(b, 6))
        bad = np.zeros(b, bool)
        for d in range(1, 7):
            at = np.flatnonzero(lengths == d)
            S, A2 = _vanishing_sides(rows[at, :d])
            bad[at] = S != A2
        violations += [tuple(map(int, rows[i, :lengths[i]])) for i in np.flatnonzero(bad)]
        random_checked += b
    return counts, random_checked, violations


def sweep_combi(max_d, workers=1):
    """Count the instances with d <= max_d, and those with |K_ad| != |J_ad| + 1.

    tails[r][e] maps t to the number of r-step walks from e that end at 1 and
    add t to |K_ad| - |J_ad|; e spans the values that 0 reaches within
    max_d - r steps and that can still reach 1, so the table costs O(max_d^3)
    steps.  Ending at 1 takes a K step, so K is never empty.  Returns (counts
    per d, violations), one violation (d, number bad, first bad (J, q)) per
    failing d.  workers is ignored; existing callers pass it positionally.
    """
    if max_d < 1:
        raise ValueError("need max_d >= 1, got %d" % max_d)
    tails = [{1: {0: 1}}]
    for rest in range(max_d):
        layer = {}
        for e in range(rest + 1 - max_d, rest + 3):
            row = layer[e] = {}
            for step in _moves(e, rest):
                e2, dj, dk = _walk_step(e, *step)
                for t, n in tails[rest].get(e2, {}).items():
                    row[t + dk - dj] = row.get(t + dk - dj, 0) + n
        tails.append(layer)
    counts, violations = {}, []
    for d in range(1, max_d + 1):
        ends = tails[d][0]
        counts[d] = sum(ends.values())
        bad = counts[d] - ends.get(1, 0)
        if bad:
            violations.append((d, bad, _first_bad(tails, d)))
    return counts, violations
