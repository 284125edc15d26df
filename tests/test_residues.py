import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bonft import cli, residues
from bonft.hardy import Potential
from bonft.lax import spectrum
from bonft.residues import RANDOM_BLOCK, _vanishing_sides, sweep_combi, sweep_vanishing
from oracles import (_vanishing_terms, admissible_counts, combi_check, compositions,
                     contour_residue_quadrature, delta_series, iter_partition_instances,
                     projector_delta, psi_series, residue_pair, series_residue,
                     series_residue_pole_shift, vanishing_sum_quadrature)

QUAD_TOL = 1e-10


def residue_A(ls, extra_mu_power=0):
    return Fraction(*residue_pair(tuple(ls), extra_mu_power))


def walk_counts(d, J, q):
    """(|J_ad|, |K_ad|) of the instance (J, q), stepping residues._walk_step along it."""
    qmap = dict(q)
    e = j_ad = k_ad = 0
    for m in range(1, d + 1):
        e, dj, dk = residues._walk_step(e, m in J, qmap.get(m, 0))
        j_ad += dj
        k_ad += dk
    assert e == 1, (d, J, q)
    return j_ad, k_ad


def walk_key(d, J, q):
    """The instance's steps in the order sweep_combi searches: a J step is -1, a K step q_k."""
    qmap = dict(q)
    return tuple(-1 if m in J else qmap[m] for m in range(1, d + 1))


def vanishing_D(ls):
    """D(ls) (-1)^Z P^(Z+2) as the kernel's S - A2; zero iff S == A2."""
    (S,), (A2,) = _vanishing_sides(np.array([ls]))
    return int(S) - int(A2)


def sides(rows):
    """_vanishing_sides(rows) as a list of (S, A2) pairs of Python ints."""
    return list(zip(*(side.tolist() for side in _vanishing_sides(np.array(rows)))))


def scalar_sides(rows):
    """The scalar oracle's (S, A2) for each row, one tuple at a time."""
    return [_vanishing_terms(tuple(ls)) for ls in np.asarray(rows).tolist()]


def test_residue_examples():
    assert residue_A((2,)) == Fraction(1, 2)
    assert residue_A((0,)) == 0
    assert residue_A((2,), extra_mu_power=1) == Fraction(1, 4)


def test_residue_zero_factors_flip_sign():
    # each vanishing entry contributes a -1/mu factor
    assert residue_A((0, 2)) == -residue_A((2,), extra_mu_power=1)


def test_residue_matches_quadrature():
    rng = np.random.default_rng(17)
    for _ in range(100):
        d = int(rng.integers(1, 5))
        ls = tuple(int(v) for v in rng.integers(-8, 9, size=d))
        extra = int(rng.integers(0, 2))
        exact = residue_A(ls, extra_mu_power=extra)
        quad = contour_residue_quadrature(ls, extra)
        assert abs(complex(exact) - quad) < QUAD_TOL, (ls, extra)


def _seeded_tuples(seed, count, max_d, bound):
    # a narrow value range forces zeros and repeated entries
    rng = np.random.default_rng(seed)
    for _ in range(count):
        d = int(rng.integers(1, max_d + 1))
        yield tuple(int(v) for v in rng.integers(-bound, bound + 1, size=d))


def test_residue_matches_series_oracle():
    cases = [(0,), (0, 0, 0), (3, 3, 3), (-2, 0, -2, 0), (5, -5, 0, 1)]
    cases += list(_seeded_tuples(31, 600, 6, 3))
    cases += list(_seeded_tuples(32, 200, 5, 40))
    assert any(0 in ls for ls in cases)
    assert any(len(set(ls)) < len(ls) for ls in cases if 0 not in ls)
    for ls in cases:
        for extra in (0, 1):
            assert residue_A(ls, extra_mu_power=extra) == series_residue(ls, extra), (ls, extra)


def test_pole_shift_is_one_more_factor():
    """1/(n+mu) = -(l - mu)^-1 at l = -n, so the psi_series residue is -A(ls + (-n,))."""
    cases = [()] + list(_seeded_tuples(33, 60, 4, 3))
    for n in range(1, 10):
        for ls in cases:
            assert series_residue_pole_shift(ls, n) == -residue_A(ls + (-n,)), (ls, n)


def test_vanishing_examples():
    assert vanishing_D((2,)) == 0
    assert vanishing_D((0,)) == 0
    assert vanishing_D((1, 5, -3)) == 0


def test_vanishing_matches_quadrature_structure():
    for ls in ((3,), (1, -2), (4, 0, -1), (2, 2, -5, 1)):
        assert vanishing_D(ls) == 0
        assert abs(vanishing_sum_quadrature(ls)) < QUAD_TOL


@given(st.lists(st.integers(min_value=-8, max_value=8), min_size=1, max_size=4))
@settings(max_examples=150, deadline=None)
def test_vanishing_holds_everywhere(ls):
    assert vanishing_D(tuple(ls)) == 0


def test_vanishing_terms_match_series_oracle():
    """Each side of the kernel is its exact residue sum times (-1)^Z P^(Z+2),
    so a kernel that returns equal but wrong sides fails here."""
    cases = [(0,), (0, 0, 0), (3, 3, 3), (-2, 0, -2, 0), (5, -5, 0, 1), (40, -40, 0, 0, 7, 40)]
    cases += list(_seeded_tuples(34, 300, 6, 3))
    cases += list(_seeded_tuples(35, 150, 6, 40))
    assert any(ls.count(0) >= 2 for ls in cases)
    assert any(len(set(ls)) < len(ls) for ls in cases if 0 not in ls)
    assert max(len(ls) for ls in cases) == 6 and max(max(map(abs, ls)) for ls in cases) == 40
    checked = []
    for d in range(1, 7):
        block = [ls for ls in cases if len(ls) == d]
        checked += zip(block, sides(block))
    assert len(checked) == len(cases)
    for ls, (S, A2) in checked:
        Z = ls.count(0)
        scale = (-1) ** Z * math.prod(l for l in ls if l) ** (Z + 2)
        assert A2 == scale * series_residue(ls, 1), ls
        assert S == scale * sum(series_residue(ls[:m]) * series_residue(ls[m - 1:])
                                for m in range(1, len(ls) + 1)), ls


def test_vanishing_holds_for_every_tuple_up_to_length_6():
    """D == 0 for every integer tuple of length <= 6, by Alon's Combinatorial
    Nullstellensatz (1999, Lemma 2.1): with the zeros' positions fixed, S and
    A2 are integer polynomials in the d - Z nonzero entries of degree <= Z + 1
    in each (the next test), so S == A2 on {1..Z+2}^(d-Z) makes S - A2 the
    zero polynomial, and P != 0 then gives D == 0.  The kernel takes one block
    per zero pattern."""
    checked = 0
    for d in range(1, 7):
        for zeros in itertools.product((False, True), repeat=d):
            Z = sum(zeros)
            values = list(itertools.product(range(1, Z + 3), repeat=d - Z))
            rows = np.zeros((len(values), d), np.int64)
            rows[:, np.logical_not(zeros)] = values
            S, A2 = _vanishing_sides(rows)
            assert (S == A2).all(), rows[S != A2][0]
            checked += len(rows)
    assert checked == 10106


def _difference(values):
    """The len(values) - 1'th forward difference of equally spaced values."""
    k = len(values) - 1
    return sum((-1) ** (k - j) * math.comb(k, j) * f for j, f in enumerate(values))


def test_vanishing_sides_have_degree_at_most_z_plus_1():
    # the (Z+2)-th difference of each side along a nonzero entry is exactly 0,
    # and the (Z+1)-th is not always; the entry steps away from 0, so the zero
    # pattern stays fixed; the kernel takes the Z + 3 tuples as one block
    checks = reached = 0
    for ls in _seeded_tuples(36, 200, 5, 2):
        Z = ls.count(0)
        for i, v in enumerate(ls):
            if not v:
                continue
            step = 1 if v > 0 else -1
            family = [ls[:i] + (v + j * step,) + ls[i + 1:] for j in range(Z + 3)]
            for side in zip(*sides(family)):
                assert _difference(side) == 0, (ls, i)
                reached += _difference(side[:-1]) != 0
                checks += 1
    assert checks == 950 and reached


def test_vanishing_sides_match_the_scalar_oracle():
    # every tuple with d <= 4 and |l| <= 6, one block per d
    checked = 0
    for d in range(1, 5):
        rows = list(itertools.product(range(-6, 7), repeat=d))
        assert sides(rows) == scalar_sides(rows), d
        checked += len(rows)
    assert checked == 30940


def _rows_with_zeros(rng, count, d, Z, bound):
    """count rows of length d with exactly Z zeros, placed at random, and the
    other entries uniform on +-[1, bound]."""
    rows = rng.integers(1, bound + 1, size=(count, d)) * rng.choice((-1, 1), size=(count, d))
    for row in rows:
        row[rng.permutation(d)[:Z]] = 0
    return rows


def test_vanishing_sides_are_exact_at_the_int64_bound_and_past_it():
    # d = 6 with entries +-50 is the random part's worst case: its largest
    # bound, at Z = 2, is 4.69e18 < 2^63, so every group runs on int64
    assert residues._side_bound(6, 2, 50) == 4687500000000000000
    assert max(residues._side_bound(6, Z, 50) for Z in range(7)) < 2 ** 63
    rng = np.random.default_rng(37)
    for Z in range(7):
        rows = _rows_with_zeros(rng, 300, 6, Z, 50)
        rows[:20] = 50 * np.sign(rows[:20])  # every |l| at the bound
        S, A2 = _vanishing_sides(rows)
        assert S.dtype == A2.dtype == np.int64, Z
        assert sides(rows) == scalar_sides(rows), Z
    # entries +-10^4 pass the bound for Z <= 4, where the group runs on Python
    # ints, and at Z = 0 the sides themselves leave int64
    blocks = [_rows_with_zeros(rng, 100, 6, Z, 10 ** 4) for Z in range(7)]
    for Z, rows in enumerate(blocks):
        S, A2 = _vanishing_sides(rows)
        past = residues._side_bound(6, Z, int(abs(rows).max())) > 2 ** 63 - 1
        assert past == (Z <= 4), Z
        assert S.dtype == A2.dtype == (object if past else np.int64), Z
        assert sides(rows) == scalar_sides(rows), Z
    assert max(abs(v) for pair in sides(blocks[0]) for v in pair) > 2 ** 63
    # one block mixing int64 and object groups keeps each row's values
    rows = np.concatenate(blocks)[rng.permutation(700)]
    assert _vanishing_sides(rows)[0].dtype == object
    assert sides(rows) == scalar_sides(rows)


def test_sweep_vanishing_reports_a_corrupted_tuple(monkeypatch, capsys):
    # (2, 1, -1) has no zero and (1, -2, 0) one, so the kernel's Z groups
    # meet them in the opposite order to the sweep's
    real = residues._vanishing_sides
    bad = [(1, -2, 0), (2, 1, -1)]

    def corrupted(rows):
        S, A2 = real(rows)
        return S + [tuple(ls) in bad for ls in rows.tolist()], A2

    monkeypatch.setattr(residues, "_vanishing_sides", corrupted)
    counts, rc, violations = sweep_vanishing(3, 2, random_count=50, rng=np.random.default_rng(1))
    assert counts == {1: 5, 2: 25, 3: 125} and rc == 50
    assert violations == bad
    assert all(type(v) is int for ls in violations for v in ls)
    assert cli.main(["vanishing", "--max-d", "3", "--l-bound", "2"]) == 3
    assert "2 tuples violate the vanishing identity, first: (1, -2, 0)" in capsys.readouterr().err


def _recording_sweep(monkeypatch, *args):
    """sweep_vanishing(*args) with every tuple flagged, and the row counts the
    kernel received."""
    real = residues._vanishing_sides
    seen = []

    def recording(rows):
        seen.append(len(rows))
        S, A2 = real(rows)
        return S + 1, A2

    monkeypatch.setattr(residues, "_vanishing_sides", recording)
    return sweep_vanishing(*args), seen


def test_random_tuples_are_drawn_in_blocks(monkeypatch):
    count = RANDOM_BLOCK + 3
    (counts, rc, drawn), seen = _recording_sweep(monkeypatch, 1, 0, count, np.random.default_rng(3))
    assert (counts, rc) == ({1: 1}, count)
    assert max(seen) <= RANDOM_BLOCK and sum(seen) == count + 1
    assert drawn[0] == (0,)
    drawn = drawn[1:]
    # the same rng calls as a block draw, one block of RANDOM_BLOCK then one of 3
    rng = np.random.default_rng(3)
    want = []
    for b in (RANDOM_BLOCK, 3):
        lengths = rng.integers(1, 7, size=b).tolist()
        want += [tuple(row[:d]) for d, row in zip(lengths, rng.integers(-50, 51, size=(b, 6)).tolist())]
    assert drawn == want
    assert {len(ls) for ls in drawn} == set(range(1, 7))
    entries = [v for ls in drawn for v in ls]
    assert all(type(v) is int for v in entries)
    assert min(entries) == -50 and max(entries) == 50
    # the exhaustive part is cut into blocks of RANDOM_BLOCK as well
    (counts, rc, found), seen = _recording_sweep(monkeypatch, 1, 3000, 0, None)
    assert (counts, rc) == ({1: 6001}, 0)
    assert seen == [RANDOM_BLOCK, 6001 - RANDOM_BLOCK]
    assert found == [(v,) for v in range(-3000, 3001)]
    assert all(type(ls[0]) is int for ls in found)
    # past 2^63 tuples the enumeration and the kernel run on Python ints
    first = next(residues._lex_blocks(2, 2 ** 62))
    assert first.dtype == object and len(first) == RANDOM_BLOCK
    assert first[:2].tolist() == [[-2 ** 62, -2 ** 62], [-2 ** 62, 1 - 2 ** 62]]
    S, A2 = _vanishing_sides(first)
    assert S.dtype == object and (S == A2).all()


def test_partition_instance_validation():
    """Every instance the sweep counts is valid: J and K partition {1..d},
    K is nonempty, and q over K is nonnegative and sums to |J| + 1."""
    for d in range(1, 7):
        for J, q in iter_partition_instances(d):
            K = [k for k, _ in q]
            assert K and K == sorted(set(range(1, d + 1)) - J), (d, J, q)
            assert min(v for _, v in q) >= 0 and sum(v for _, v in q) == len(J) + 1


def test_combi_forced_single_element():
    assert combi_check(1, set(), ((1, 1),)) == (0, 1, True)
    assert admissible_counts(1, set(), ((1, 1),)) == walk_counts(1, set(), ((1, 1),)) == (0, 1)


def test_combi_d2_example():
    j_ad, k_ad, ok = combi_check(2, {2}, ((1, 2),))
    assert ok and k_ad == j_ad + 1
    assert admissible_counts(2, {2}, ((1, 2),)) == walk_counts(2, {2}, ((1, 2),)) == (j_ad, k_ad)


def test_instance_counts_are_central_binomials():
    import math
    for d in range(1, 6):
        count = sum(1 for _ in iter_partition_instances(d))
        assert count == math.comb(2 * d, d - 1)


def test_compositions_come_in_lexicographic_order():
    for total in range(7):
        for parts in range(1, 6):
            want = [q for q in itertools.product(range(total + 1), repeat=parts)
                    if sum(q) == total]
            assert list(compositions(total, parts)) == want, (total, parts)


def test_sweeps_are_clean():
    counts, rc, v = sweep_vanishing(2, 3, random_count=25,
                                    rng=np.random.default_rng(9))
    assert counts == {1: 7, 2: 49}
    assert rc == 25
    assert v == []
    counts, violations = sweep_combi(4)
    assert counts == {1: 1, 2: 4, 3: 15, 4: 56}
    assert violations == []


def test_combi_kernel_matches_combi_check():
    for d in range(1, 7):
        for J, q in iter_partition_instances(d):
            assert admissible_counts(d, J, q) == combi_check(d, J, q)[:2], (d, J, q)


def test_walk_step_matches_combi_check():
    for d in range(1, 8):
        for J, q in iter_partition_instances(d):
            assert walk_counts(d, J, q) == combi_check(d, J, q)[:2], (d, J, q)


def _enumerated_violations(max_d, counts, kernel):
    """sweep_combi's result for d <= max_d, built by counting every instance with kernel."""
    violations = []
    for d in range(1, max_d + 1):
        n, bad = 0, []
        for J, q in iter_partition_instances(d):
            n += 1
            j_ad, k_ad = kernel(d, J, q)
            if k_ad != j_ad + 1:
                bad.append((J, q))
        assert counts[d] == n
        if bad:
            J, q = min(bad, key=lambda inst: walk_key(d, *inst))
            violations.append((d, len(bad), (tuple(sorted(J)), q)))
    return violations


def test_sweep_combi_equals_the_enumeration():
    counts, violations = sweep_combi(8)
    assert violations == _enumerated_violations(8, counts, admissible_counts) == []


def test_sweep_combi_reports_a_wrong_step_rule(monkeypatch, capsys):
    def strict(e, in_j, q):  # K_ad tested with e < 0, so up-crossings from 0 are missed
        if in_j:
            return e - 1, int(e == 1), 0
        return e + q, 0, int(e < 0 < e + q)

    monkeypatch.setattr(residues, "_walk_step", strict)
    counts, violations = sweep_combi(6)
    assert counts == {d: math.comb(2 * d, d - 1) for d in range(1, 7)}
    assert violations == _enumerated_violations(6, counts, walk_counts)
    assert [d for d, _, _ in violations] == list(range(1, 7))
    assert violations[0] == (1, 1, ((), ((1, 1),)))
    assert violations[2] == (3, 10, ((1,), ((2, 1), (3, 1))))
    assert cli.main(["combi", "--max-d", "3"]) == 3
    captured = capsys.readouterr()
    assert captured.out.endswith("violations,%d\n" % sum(n for _, n, _ in violations[:3]))
    assert "first: d=1, J=(), q=((1, 1),)" in captured.err


def test_vanishing_cache_lives_for_one_sweep():
    def run():
        return sweep_vanishing(3, 4, random_count=200, rng=np.random.default_rng(5))

    assert run() == run()
    memos = [name for name, v in vars(residues).items() if not name.startswith("__")
             and (hasattr(v, "cache_info") or isinstance(v, (dict, list, set)))]
    assert memos == []


def test_delta_series_zero_potential():
    assert delta_series({}, 3, 4) == 0


def test_delta_series_leading_order_single_mode():
    """With one positive mode the n=1 defect starts at degree four."""
    eps = 0.01
    u = Potential(0.5, 1, {1: eps}, real=True)
    v2 = delta_series(u.nonzero_coeffs(), 1, 2)
    v4 = delta_series(u.nonzero_coeffs(), 1, 4)
    assert v2 == 0
    assert v4 == pytest.approx(eps ** 4, rel=1e-12, abs=0)


def test_delta_series_matches_spectral_delta():
    coeffs = {1: 0.004 + 0.002j, 2: 0.003 - 0.001j}
    u = Potential(0.5, 2, coeffs, real=True)
    sd = spectrum(u, 96, k_use=8)
    delta = projector_delta(sd)
    for n in range(1, 8):
        series = delta_series(u.nonzero_coeffs(), n, 4)
        assert abs(series - delta[n]) < 1e-9, n


def test_psi_series_decays_by_degree():
    u = Potential(0.5, 1, {1: 0.01}, real=True)
    value, per_degree = psi_series(u.nonzero_coeffs(), 2, 5)
    mags = [m for m in per_degree if m > 0]
    assert all(b < a for a, b in zip(mags, mags[1:]))
