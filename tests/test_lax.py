import numpy as np
import pytest
import scipy.linalg

import bonft.lax
from bonft import cli
from bonft.errors import NumericalFailure, TruncationWarning
from bonft.hardy import Potential
from bonft.lax import SpectralData, assemble_lax, conjugate_spectrum, gaps, spectrum
from oracles import (involute, lax_matrix, perturbative_gamma1, perturbative_lambda0,
                     projected_basis, riesz_column_quadrature, symmetry_audit)
from test_golden import UC

PERTURB_TOL = 2e-4


def test_matrix_matches_oracle():
    coeffs = {1: 0.3 - 0.2j, -2: 0.1, 2: 0.05j}
    u = Potential(0.5, 2, coeffs)
    assert np.array_equal(assemble_lax(u, 6), lax_matrix(coeffs, 6))


def test_truncation_below_twice_the_band_warns():
    u = Potential(0.5, 2, {1: 0.02, 2: 0.01j}, real=True)
    with pytest.warns(TruncationWarning, match="truncation M=3 below 2N=4"):
        spectrum(u, 3)


def test_zero_potential_spectrum_is_integers():
    sd = spectrum(Potential(0.5, 1, {}, real=True), 16)
    assert np.max(np.abs(sd.lambdas - np.arange(17))) == 0.0
    assert sd.hermitian


def test_single_mode_perturbation_matches_second_order():
    eps = 0.1
    u = Potential(0.5, 1, {1: eps}, real=True)
    sd = spectrum(u, 48)
    assert sd.lambdas[0] - 0.0 == pytest.approx(perturbative_lambda0(eps), abs=PERTURB_TOL)
    gam = gaps(sd)
    assert gam[0].real == pytest.approx(perturbative_gamma1(eps), abs=PERTURB_TOL)


def test_gaps_nonnegative_for_real_potential():
    rng = np.random.default_rng(5)
    coeffs = {n: 0.05 * (rng.standard_normal() + 1j * rng.standard_normal())
              for n in range(1, 4)}
    sd = spectrum(Potential(0.5, 3, coeffs, real=True), 32)
    assert np.all(gaps(sd).real >= -1e-12)


def test_min_separation_equals_all_pairs_minimum():
    rng = np.random.default_rng(8)
    for scale, M in ((0.0, 8), (0.05, 32), (0.3, 48)):
        coeffs = {n: scale * (rng.standard_normal() + 1j * rng.standard_normal())
                  for n in range(1, 4)}
        sd = spectrum(Potential(0.5, 3, coeffs, real=True), M)
        sep = np.abs(sd.lambdas[:, None] - sd.lambdas[None, :])
        np.fill_diagonal(sep, np.inf)
        assert sd.min_separation == float(sep.min())


def test_hermitian_and_general_paths_agree():
    """A real potential stored without the real flag must give the same spectrum."""
    coeffs = {1: 0.02 + 0.01j, 2: -0.015j}
    u = Potential(0.5, 2, coeffs, real=True)
    full = dict(coeffs)
    full.update({-n: np.conj(v) for n, v in coeffs.items()})
    v = Potential(0.5, 2, full, real=False)
    a = spectrum(u, 24)
    b = spectrum(v, 24)
    assert np.max(np.abs(a.lambdas - b.lambdas)) < 1e-11
    # phase-free: h_n = P_n e_n does not depend on how eigh and eig scale v_n
    ha, hb = projected_basis(a), projected_basis(b)
    assert np.max(np.abs(ha[:, :5] - hb[:, :5])) < 1e-9


def test_projected_columns_match_contour_quadrature():
    u = Potential(0.5, 2, {1: 0.03, 2: 0.01j}, real=True)
    sd = spectrum(u, 24, k_use=4)
    L = lax_matrix(u.nonzero_coeffs(), 24)
    for n in range(3):
        e_n = np.eye(25)[n]
        ref = riesz_column_quadrature(L, n, e_n)
        got = projectors(sd.right_vecs, sd.left_vecs, n)[n] @ e_n
        scale = got[np.argmax(np.abs(ref))] / ref[np.argmax(np.abs(ref))]
        assert abs(abs(scale) - 1) < 1e-8
        assert np.max(np.abs(got - scale * ref)) < 1e-10


def test_simplicity_guard_fires(monkeypatch):
    u = Potential(0.5, 1, {1: 0.01}, real=True)
    monkeypatch.setattr(bonft.lax, "SIMPLICITY_TOL", 10.0)
    with pytest.raises(NumericalFailure):
        spectrum(u, 16)


def test_near_orthogonality_guard_fires(monkeypatch, capsys):
    """Eigenvalues 0, 1, 2 coupled by 1e14: w_0^H v_0 = 2e-14, a condition
    number past 1e12, which the chain would divide by."""
    L = np.diag([0.0, 1.0, 2.0]).astype(complex)
    L[0, 2] = 1e14
    monkeypatch.setattr(bonft.lax, "assemble_lax", lambda u, M: L)
    u = Potential(0.5, 1, {1: 0.01, -1: 0.02})
    message = "left/right eigenvectors nearly orthogonal at n=0"
    with pytest.raises(NumericalFailure, match="^%s$" % message):
        spectrum(u, 2, k_use=2)
    assert cli.main(["spectrum", "-i", UC, "--lax-dim", "2", "--modes", "2"]) == 2
    assert capsys.readouterr() == ("", "numerical failure: %s\n" % message)


def test_h_normalization():
    """The oracle's projected basis is the projectors' column P_n e_n."""
    u = Potential(0.5, 2, {1: 0.02, 2: -0.01}, real=True)
    sd = spectrum(u, 32, k_use=5)
    h = projected_basis(sd)
    for n in range(6):
        proj = projectors(sd.right_vecs, sd.left_vecs, n)[n] @ np.eye(33)[n]
        assert np.max(np.abs(proj - h[:, n])) < 1e-12


def test_symmetry_audit_small_for_complex_potential():
    u = Potential(0.5, 2, {1: 0.04 + 0.01j, -1: 0.02, 2: -0.03j})
    audit = symmetry_audit(u.nonzero_coeffs(), 24)
    assert audit["minus_vs_star"] < 1e-11
    assert audit["conj_equivariance"] < 1e-11


def test_star_spectrum_equals_transpose_spectrum():
    u = Potential(0.5, 2, {1: 0.05 + 0.02j, -2: 0.01 - 0.03j})
    a = spectrum(u, 20)
    b = spectrum(Potential(u.s, u.N, involute(u.nonzero_coeffs(), "star")), 20)
    assert np.max(np.abs(a.lambdas - b.lambdas)) < 1e-11


def projectors(V, W, K):
    """The phase-free rank-one projectors v w^H / (w^H v) for n <= K."""
    return [np.outer(V[:, n], W[:, n].conj()) / np.vdot(W[:, n], V[:, n])
            for n in range(K + 1)]


def test_conjugate_spectrum_matches_independent_eigensolve():
    rng = np.random.default_rng(11)
    for M, k_use, scale in ((16, 8, 0.05), (32, None, 0.02), (48, 20, 0.1), (64, 16, 0.01)):
        N = int(rng.integers(1, 5))
        coeffs = {n: scale * complex(rng.standard_normal(), rng.standard_normal()) / abs(n)
                  for n in range(-N, N + 1) if n}
        u = Potential(0.5, N, coeffs)
        L = assemble_lax(u, M)
        # the premise: the truncation of conj(u) is exactly the adjoint
        assert np.array_equal(assemble_lax(Potential(u.s, N, involute(coeffs, "conj")), M),
                              L.conj().T)
        got = conjugate_spectrum(spectrum(u, M, k_use=k_use))
        lam, WL, V = scipy.linalg.eig(L.conj().T, left=True, right=True)
        order = np.lexsort((lam.imag, lam.real))
        lam, V, W = lam[order], V[:, order], WL[:, order]
        K = got.K_use
        assert K == (M // 2 if k_use is None else k_use) and len(got.lambdas) == M + 1
        assert not got.hermitian
        assert np.max(np.abs(got.lambdas - lam)) < 1e-12
        for p_got, p_ref in zip(projectors(got.right_vecs, got.left_vecs, K),
                                projectors(V, W, K)):
            assert np.max(np.abs(p_got - p_ref)) < 1e-10
        h_ref = np.stack([p[:, n] for n, p in enumerate(projectors(V, W, K))], axis=1)
        assert np.max(np.abs(projected_basis(got) - h_ref)) < 1e-10


def test_conjugate_spectrum_keeps_the_labels_through_a_tie():
    """1 - 1j and 1 + 1j tie in the real part; label n of conj(u) stays
    conj(lambda_n(u)) with its vectors, though a fresh sort would swap them."""
    lam = np.array([0.0, 1.0 - 1.0j, 1.0 + 1.0j, 3.0])
    rng = np.random.default_rng(4)
    V = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    V /= np.linalg.norm(V, axis=0)
    W = np.linalg.inv(V).conj().T  # w_n^H v_m = delta_nm
    W /= np.linalg.norm(W, axis=0)
    L = V @ np.diag(lam) @ np.linalg.inv(V)
    sep = abs(lam[1])  # the closest pair is 0 and 1 -+ 1j
    got = conjugate_spectrum(SpectralData(lam, V, W, 3, False, sep))
    assert np.array_equal(got.lambdas, np.conj(lam))
    assert np.array_equal(got.right_vecs, W) and np.array_equal(got.left_vecs, V)
    assert got.min_separation == sep and got.K_use == 3
    A = L.conj().T
    for n in range(4):
        v, w = got.right_vecs[:, n], got.left_vecs[:, n]
        assert np.max(np.abs(A @ v - got.lambdas[n] * v)) < 1e-12
        assert np.max(np.abs(w.conj() @ A - got.lambdas[n] * w.conj())) < 1e-12


@pytest.mark.parametrize("M", [16, 32, 64, 96, 128])
def test_left_vectors_from_the_inverse_match_an_independent_eigensolve(M):
    rng = np.random.default_rng(M)
    N = int(rng.integers(1, 5))
    coeffs = {n: 0.05 * complex(rng.standard_normal(), rng.standard_normal()) / abs(n)
              for n in range(-N, N + 1) if n}
    u = Potential(0.5, N, coeffs)
    sd = spectrum(u, M)
    L = assemble_lax(u, M)
    W = sd.left_vecs
    assert np.max(np.abs(np.linalg.norm(W, axis=0) - 1.0)) < 1e-14
    residual = W.conj().T @ L - sd.lambdas[:, None] * W.conj().T
    assert np.max(np.linalg.norm(residual, axis=1)) <= 1e-12 * np.linalg.norm(L, 2)
    lam, WL, V = scipy.linalg.eig(L, left=True, right=True)
    order = np.lexsort((lam.imag, lam.real))
    V, WL = V[:, order], WL[:, order]
    K = sd.K_use
    # |w^H v| is the reciprocal condition number the near-orthogonality guard reads
    ref = np.abs([np.vdot(WL[:, n], V[:, n]) for n in range(K + 1)])
    got = np.abs([np.vdot(W[:, n], sd.right_vecs[:, n]) for n in range(K + 1)])
    assert np.max(np.abs(got - ref)) < 1e-10
    for p_got, p_ref in zip(projectors(sd.right_vecs, W, K), projectors(V, WL, K)):
        assert np.max(np.abs(p_got - p_ref)) < 1e-10
