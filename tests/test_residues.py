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
from bonft.residues import (RANDOM_BLOCK, _admissible_counts, _vanishing_terms,
                            compositions, iter_partition_instances, sweep_combi,
                            sweep_vanishing)
from oracles import (combi_check, contour_residue_quadrature, delta_series, psi_series,
                     residue_pair, series_residue, series_residue_pole_shift,
                     vanishing_sum_quadrature)

QUAD_TOL = 1e-10


def residue_A(ls, extra_mu_power=0):
    return Fraction(*residue_pair(tuple(ls), extra_mu_power))


def vanishing_D(ls):
    """D(ls) (-1)^Z P^(Z+2) as the kernel's S - A2; zero iff S == A2."""
    S, A2 = _vanishing_terms(tuple(ls))
    return S - A2


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
    for ls in cases:
        Z = ls.count(0)
        scale = (-1) ** Z * math.prod(l for l in ls if l) ** (Z + 2)
        S, A2 = _vanishing_terms(ls)
        assert A2 == scale * series_residue(ls, 1), ls
        assert S == scale * sum(series_residue(ls[:m]) * series_residue(ls[m - 1:])
                                for m in range(1, len(ls) + 1)), ls


def test_sweep_vanishing_reports_a_corrupted_tuple(monkeypatch, capsys):
    real = residues._vanishing_terms
    bad = (1, -2, 0)

    def corrupted(ls):
        S, A2 = real(ls)
        return (S + 1, A2) if ls == bad else (S, A2)

    monkeypatch.setattr(residues, "_vanishing_terms", corrupted)
    counts, rc, violations = sweep_vanishing(3, 2, random_count=50, rng=np.random.default_rng(1))
    assert counts == {1: 5, 2: 25, 3: 125} and rc == 50
    assert violations == [bad]
    assert cli.main(["vanishing", "--max-d", "3", "--l-bound", "2"]) == 3
    assert "first: (1, -2, 0)" in capsys.readouterr().err


def test_random_tuples_are_drawn_in_blocks(monkeypatch):
    real = residues._vanishing_terms
    seen = []

    def recording(ls):
        seen.append(ls)
        return real(ls)

    monkeypatch.setattr(residues, "_vanishing_terms", recording)
    count = RANDOM_BLOCK + 3
    counts, rc, violations = sweep_vanishing(1, 0, random_count=count,
                                             rng=np.random.default_rng(3))
    assert (counts, rc, violations) == ({1: 1}, count, [])
    drawn = seen[1:]
    assert len(drawn) == count
    assert {len(ls) for ls in drawn} == set(range(1, 7))
    entries = [v for ls in drawn for v in ls]
    assert all(type(v) is int for v in entries)
    assert min(entries) == -50 and max(entries) == 50


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
    assert _admissible_counts(1, set(), ((1, 1),)) == (0, 1)


def test_combi_d2_example():
    j_ad, k_ad, ok = combi_check(2, {2}, ((1, 2),))
    assert ok and k_ad == j_ad + 1
    assert _admissible_counts(2, {2}, ((1, 2),)) == (j_ad, k_ad)


def test_instance_counts_are_central_binomials():
    import math
    for d in range(1, 6):
        count = sum(1 for _ in iter_partition_instances(d))
        assert count == math.comb(2 * d, d - 1)


def test_compositions_come_in_lexicographic_order():
    # combi reports its first violation, so the order is part of the output
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
            assert _admissible_counts(d, J, q) == combi_check(d, J, q)[:2], (d, J, q)


def test_sweep_combi_reports_a_corrupted_q_entry(monkeypatch):
    real = residues.iter_partition_instances

    def corrupted(d):
        for i, (J, q) in enumerate(real(d)):
            if (d, i) == (3, 0):  # J = {}, q = (0, 0, 1) becomes (1, 0, 1)
                (k, v), *rest = q
                q = ((k, v + 1), *rest)
            yield J, q

    monkeypatch.setattr(residues, "iter_partition_instances", corrupted)
    counts, violations = sweep_combi(4)
    assert counts == {1: 1, 2: 4, 3: 15, 4: 56}
    assert len(violations) == 1
    d, J, q, j_ad, k_ad = violations[0]
    assert (d, J, q) == (3, frozenset(), ((1, 1), (2, 0), (3, 1)))
    assert (j_ad, k_ad) == combi_check(d, J, q)[:2] == (0, 0)


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
    assert v4 == pytest.approx(eps ** 4, rel=1e-12)


def test_delta_series_matches_spectral_delta():
    coeffs = {1: 0.004 + 0.002j, 2: 0.003 - 0.001j}
    u = Potential(0.5, 2, coeffs, real=True)
    sd = spectrum(u, 96, k_use=8)
    from bonft.birkhoff import eigen_chain
    scal = eigen_chain(sd)
    for n in range(1, 8):
        series = delta_series(u.nonzero_coeffs(), n, 4)
        assert abs(series - scal.delta[n]) < 1e-9, n


def test_psi_series_decays_by_degree():
    u = Potential(0.5, 1, {1: 0.01}, real=True)
    value, per_degree = psi_series(u.nonzero_coeffs(), 2, 5)
    mags = [m for m in per_degree if m > 0]
    assert all(b < a for a, b in zip(mags, mags[1:]))
