import numpy as np
import pytest

from bonft.birkhoff import (BirkhoffState, _zeta_minus, birkhoff_forward,
                            canonical_bracket_table, eigen_chain,
                            scaling_constants, sqrt_plus, state_from_json, state_to_json)
from bonft.errors import BranchCutError
from bonft.hardy import Potential
from bonft.lax import spectrum
from oracles import (hamiltonian_b, hamiltonian_phys, involute, projected_basis, psi_series,
                     sobolev_norm)


def small_real(scale=0.05):
    return Potential(0.5, 2, {1: scale * (1 + 0.4j), 2: -scale * 0.6j}, real=True)


def test_zero_potential_maps_to_zero():
    u = Potential(0.5, 1, {}, real=True)
    st = birkhoff_forward(u, M=32, k_use=8)
    assert np.all(st.plus == 0) and np.all(st.minus == 0)


def test_forward_needs_at_least_one_mode():
    # k_use = 0 used to give an empty state
    for k_use in (0, 33):
        with pytest.raises(ValueError, match=r"^k_use=%d must lie in 1\.\.M=32$" % k_use):
            birkhoff_forward(small_real(), M=32, k_use=k_use)


def test_sqrt_plus_branch_cut():
    assert sqrt_plus(4.0) == 2.0
    assert sqrt_plus(2j) == pytest.approx(1 + 1j)
    for bad in (-1.0, 0.0, -4 + 0j):
        with pytest.raises(BranchCutError):
            sqrt_plus(bad)


def test_chain_is_normalized_with_positive_vacuum_mean():
    u = small_real()
    sd = spectrum(u, 64, k_use=10)
    kappa, mu, _ = scaling_constants(sd.lambdas)
    f = sd.right_vecs * eigen_chain(sd.right_vecs, sd.left_vecs, kappa, mu)
    assert f.shape == (65, 11)
    for v in f.T:
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
    mean = complex(f[0, 0])
    assert abs(mean.imag) < 1e-13 and mean.real > 0
    assert np.all(np.abs(mu[1:] - 1.0) < 0.5)


def test_single_mode_cubic_expansion():
    # zeta_1 = -eps + eps^3/2 + O(eps^5) for u_hat(1) = eps
    for eps in (0.01, 0.005):
        u = Potential(0.5, 1, {1: eps}, real=True)
        st = birkhoff_forward(u, M=64, k_use=16)
        assert st.plus[0] == pytest.approx(-eps + 0.5 * eps ** 3, rel=1e-6, abs=0)
        assert st.minus[0] == pytest.approx(np.conj(st.plus[0]))


def test_complex_storage_agrees_with_real_path():
    """A real potential stored without the reality flag must transform
    identically through the analytic-extension route."""
    u = small_real()
    coeffs = u.nonzero_coeffs()
    uc = Potential(u.s, u.N, coeffs, real=False)
    a = birkhoff_forward(u, M=64, k_use=12)
    b = birkhoff_forward(uc, M=64, k_use=12)
    assert np.max(np.abs(a.plus - b.plus)) < 1e-10
    assert np.max(np.abs(a.minus - b.minus)) < 1e-10
    assert a.real_flag and not b.real_flag


def one_side(sd):
    """zeta_{-n} of the record sd, its chain and its kappa, each from its own products."""
    kappa, mu, _ = scaling_constants(sd.lambdas)
    V = sd.right_vecs
    return _zeta_minus(V, eigen_chain(V, sd.left_vecs, kappa, mu), kappa)


def two_solve_forward(u, M, k_use):
    """The complex route with its own eigensolve and its own scaling products
    on conj(u): (plus, minus)."""
    sd = spectrum(u, M, k_use=k_use)
    sd_c = spectrum(Potential(u.s, u.N, involute(u.nonzero_coeffs(), "conj")), M, k_use=k_use)
    return np.conj(one_side(sd_c)), one_side(sd)


def assert_matches_two_solve_route(u, M, k_use):
    st = birkhoff_forward(u, M=M, k_use=k_use)
    plus, minus = two_solve_forward(u, M, k_use)
    got = np.concatenate((st.plus, st.minus))
    ref = np.concatenate((plus, minus))
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_derived_conjugate_spectrum_keeps_the_coordinates():
    # transform_complex's inputs: N in 2..4, ||u||_{1/2} in [0.01, 0.02], M = 64, K = 16
    rng = np.random.default_rng(9)
    for _ in range(12):
        N = int(rng.integers(2, 5))
        raw = {n: complex(rng.standard_normal(), rng.standard_normal()) / abs(n)
               for n in range(-N, N + 1) if n}
        norm = (0.01 + 0.01 * rng.random()) / sobolev_norm(raw, 0.5)
        assert_matches_two_solve_route(
            Potential(0.5, N, {n: norm * v for n, v in raw.items()}), 64, 16)
    # a one-sided perturbation of `bonft bracket`'s seed-0 base point, with M
    # and chain depth as canonical_bracket_table picks them for 3 modes
    coeffs = bracket_base(0.01).nonzero_coeffs()
    coeffs[-7] = 1e-5
    assert_matches_two_solve_route(Potential(0.5, 7, coeffs, real=False), 52, 19)


def bracket_base(scale):
    """`bonft bracket`'s seed-0 base point at --scale scale."""
    rng = np.random.default_rng(0)
    return Potential(0.5, 4, {n: scale * (rng.standard_normal() + 1j * rng.standard_normal())
                              for n in range(1, 5)}, real=True)


def count_calls(monkeypatch, module, name):
    calls = []
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)
    monkeypatch.setattr(module, name, counted)
    return calls


def test_one_eigensolve_per_forward_map(monkeypatch):
    eig = count_calls(monkeypatch, np.linalg, "eig")
    eigh = count_calls(monkeypatch, np.linalg, "eigh")
    coeffs = {1: 0.02 - 0.01j, -1: 0.01j, 2: 0.005}
    birkhoff_forward(Potential(0.5, 2, coeffs), M=32, k_use=8)
    assert (len(eig), len(eigh)) == (1, 0)
    birkhoff_forward(small_real(), M=32, k_use=8)
    assert (len(eig), len(eigh)) == (1, 1)


def test_d0_phi_matches_finite_difference():
    """The differential at zero is u_hat(n) -> -u_hat(n)/sqrt(|n|) on both sides."""
    eps = 1e-5
    base = {1: 0.3 + 0.2j, 2: -0.1j, 3: 0.07}
    hi = birkhoff_forward(Potential(0.5, 3, {k: eps * v for k, v in base.items()},
                                    real=True), M=48, k_use=12)
    lo = birkhoff_forward(Potential(0.5, 3, {k: -eps * v for k, v in base.items()},
                                    real=True), M=48, k_use=12)
    for n in range(1, 4):
        for side, want in (("plus", base[n]), ("minus", np.conj(base[n]))):
            fd = (getattr(hi, side)[n - 1] - getattr(lo, side)[n - 1]) / (2 * eps)
            assert abs(fd + want / np.sqrt(n)) < 1e-8, (side, n)


def test_observables_state_example():
    """The energy oracles that criterion 09 compares, on hand-worked inputs."""
    assert hamiltonian_b([0.5]) == pytest.approx(0.1875)


def test_observables_potential_energy():
    a, b = 0.2, 0.1
    u = Potential(0.5, 2, {1: a, 2: b}, real=True)
    got = hamiltonian_phys(u.nonzero_coeffs())
    assert got == pytest.approx(a ** 2 + 2 * b ** 2 - 2 * a ** 2 * b, rel=1e-12, abs=0)


def test_canonical_bracket_table_small():
    u = Potential(0.5, 1, {1: 0.02}, real=True)
    pm, pp = canonical_bracket_table(u, 2, 1e-5)
    target = -1j * np.eye(2)
    assert np.max(np.abs(pm - target)) < 1e-6
    assert np.max(np.abs(pp)) < 1e-6


def one_sided_bracket_table(u, n_max, h):
    """The bracket table from central differences along each one-sided
    coefficient u_hat(k), k = +-1..+-reach: every perturbed potential is
    complex, and the minus side is read off its own forward map."""
    reach = u.N + n_max + 2
    depth = n_max + 2 * u.N + 8
    d = {}
    for k in [k for k in range(-reach, reach + 1) if k]:
        ends = []
        for step in (h, -h):
            coeffs = u.nonzero_coeffs()
            coeffs[k] = coeffs.get(k, 0.0) + step
            z = birkhoff_forward(Potential(u.s, max(u.N, abs(k)), coeffs), k_use=depth)
            ends.append(np.concatenate((z.plus[:n_max], z.minus[:n_max])))
        d[k] = (ends[0] - ends[1]) / (2.0 * h)
    plus_minus = sum(1j * k * np.outer(d[-k][:n_max], d[k][n_max:]) for k in d)
    plus_plus = sum(1j * k * np.outer(d[-k][:n_max], d[k][:n_max]) for k in d)
    return plus_minus, plus_plus


@pytest.mark.parametrize("scale, modes", [(0.01, 3), (0.1, 4)])
def test_bracket_table_matches_one_sided_perturbations(scale, modes):
    # the central differences' own noise at h = 1e-5 is about 1e-10
    u = bracket_base(scale)
    for got, want in zip(canonical_bracket_table(u, modes, 1e-5),
                         one_sided_bracket_table(u, modes, 1e-5)):
        assert np.max(np.abs(got - want)) < 1e-9


def test_bracket_runs_no_nonhermitian_eigensolve(monkeypatch):
    # every perturbed potential is real, so each of the 4 reach forward maps
    # at `bonft bracket`'s defaults runs eigh and never eig or inv(V)
    def refused(*args, **kwargs):
        raise AssertionError("non-Hermitian route ran")
    monkeypatch.setattr(np.linalg, "eig", refused)
    monkeypatch.setattr(np.linalg, "inv", refused)
    eigh = count_calls(monkeypatch, np.linalg, "eigh")
    pm, pp = canonical_bracket_table(bracket_base(0.01), 3, 1e-5)
    assert len(eigh) == 4 * (4 + 3 + 2)
    assert np.max(np.abs(pm + 1j * np.eye(3))) < 1e-6 and np.max(np.abs(pp)) < 1e-6


def test_series_validate_contracts():
    """Row 0 of h (Psi_n = <1, h_n>) against its Taylor multi-sums, which must contract."""
    u = small_real(0.02)
    h = projected_basis(spectrum(u, 64, k_use=6))
    for n in range(1, 7):
        value, per_degree = psi_series(u.nonzero_coeffs(), n, 3)
        sizes = [m for m in per_degree if m > 0.0]
        assert all(hi < lo for lo, hi in zip(sizes, sizes[1:])), (n, sizes)
        assert abs(value - h[0, n]) < 1e-5, n


def test_state_json_round_trip():
    st = BirkhoffState(0.25, [0.1 + 0.2j, 0.0], [0.3j, -0.4], real_flag=False)
    st.diagnostics = None
    back = state_from_json(state_to_json(st, diagnostics={"note": 1}))
    assert back.s == st.s
    assert np.array_equal(back.plus, st.plus)
    assert np.array_equal(back.minus, st.minus)
    obj = state_to_json(st)
    assert "diagnostics" not in obj


def test_real_flag_requires_conjugate_symmetry():
    with pytest.raises(ValueError):
        BirkhoffState(0.5, [0.1], [0.5], real_flag=True)
    st = BirkhoffState(0.5, [0.1 + 0.2j], [0.1 - 0.2j + 1e-10], real_flag=True)
    assert st.minus[0] == np.conj(st.plus[0])


def test_real_state_needs_its_minus_side():
    # a real state passes the same finiteness and symmetry checks as any other
    for real in (True, False):
        with pytest.raises(ValueError, match="plus and minus sides must be 1-d of equal length"):
            BirkhoffState(0.5, [0.1], None, real_flag=real)
    plus = np.array([0.1 + 0.2j, -0.3j, 0.0, 2.5])
    plus[1] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        BirkhoffState(0.5, plus, np.conj(plus), real_flag=True)
