import io
import re
import sys

import numpy as np
import pytest
import scipy.linalg

import bonft.lax
from bonft import cli
from bonft.errors import NumericalFailure, TruncationWarning
from bonft.hardy import Potential
from bonft.lax import assemble_lax, gaps, spectrum
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
    with pytest.warns(TruncationWarning, match="^truncation M=3 leaves a Lax residual 3.040e-04 "
                                               "at n=1, past 1e-06$"):
        spectrum(u, 3)


def test_zero_potential_spectrum_is_integers():
    sd = spectrum(Potential(0.5, 1, {}, real=True), 16, k_use=16)
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
    """Over all M+1 eigenvalues, not only the K_use + 1 that spectrum returns."""
    rng = np.random.default_rng(8)
    for scale, M in ((0.0, 8), (0.05, 32), (0.3, 48)):
        coeffs = {n: scale * (rng.standard_normal() + 1j * rng.standard_normal())
                  for n in range(1, 4)}
        u = Potential(0.5, 3, coeffs, real=True)
        lam = np.linalg.eigvalsh(assemble_lax(u, M))
        sep = np.abs(lam[:, None] - lam[None, :])
        np.fill_diagonal(sep, np.inf)
        assert spectrum(u, M).min_separation == float(sep.min())


# k_use = M reads labels the cut does not resolve
@pytest.mark.filterwarnings("ignore::bonft.errors.TruncationWarning")
@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
def test_spectrum_returns_the_labels_up_to_k_use(real):
    u = Potential(0.5, 2, {1: 0.03, 2: 0.01j} if real else {1: 0.03, -2: 0.01j}, real=real)
    for M, k_use in ((8, 1), (16, None), (16, 11), (16, 16)):
        sd = spectrum(u, M, k_use=k_use)
        n_use = (M // 2 if k_use is None else k_use) + 1
        assert sd.lambdas.shape == (n_use,)
        assert sd.right_vecs.shape == sd.left_vecs.shape == (M + 1, n_use)


# compares all 25 eigenvalues, the top ones past what M = 24 resolves
@pytest.mark.filterwarnings("ignore::bonft.errors.TruncationWarning")
def test_hermitian_and_general_paths_agree():
    """A real potential stored without the real flag must give the same spectrum."""
    coeffs = {1: 0.02 + 0.01j, 2: -0.015j}
    u = Potential(0.5, 2, coeffs, real=True)
    full = dict(coeffs)
    full.update({-n: np.conj(v) for n, v in coeffs.items()})
    v = Potential(0.5, 2, full, real=False)
    a = spectrum(u, 24, k_use=24)
    b = spectrum(v, 24, k_use=24)
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


def test_singular_eigenvector_matrix_is_a_numerical_failure(monkeypatch, capsys):
    """At u_hat(1) = 1e50 numpy cannot invert eig's eigenvector matrix: an
    infinite condition number, so the guard's failure (exit 2), not numpy's
    LinAlgError, a ValueError the CLI read as invalid input (exit 1)."""
    doc = '{"s":0.5,"N":1,"coeffs":[{"n":1,"re":1e50,"im":0}]}'
    message = "eigenvector matrix singular: no left vectors"
    with pytest.raises(NumericalFailure, match="^%s$" % message):
        spectrum(Potential(0.5, 1, {1: 1e50}), 16)
    for verb in ("transform", "spectrum"):
        monkeypatch.setattr(sys, "stdin", io.StringIO(doc))
        assert cli.main([verb, "--lax-dim", "16"]) == 2
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


# compares all 21 eigenvalues, the top ones past what M = 20 resolves
@pytest.mark.filterwarnings("ignore::bonft.errors.TruncationWarning")
def test_star_spectrum_equals_transpose_spectrum():
    u = Potential(0.5, 2, {1: 0.05 + 0.02j, -2: 0.01 - 0.03j})
    a = spectrum(u, 20, k_use=20)
    b = spectrum(Potential(u.s, u.N, involute(u.nonzero_coeffs(), "star")), 20, k_use=20)
    assert np.max(np.abs(a.lambdas - b.lambdas)) < 1e-11


def projectors(V, W, K):
    """The phase-free rank-one projectors v w^H / (w^H v) for n <= K."""
    return [np.outer(V[:, n], W[:, n].conj()) / np.vdot(W[:, n], V[:, n])
            for n in range(K + 1)]


def test_conjugate_spectrum_matches_independent_eigensolve():
    """L_{conj u} = L_u^H: under u's labels, conj(lambda_n) with the swapped
    vectors of spectrum(u) are the eigenpairs of conj(u), against scipy's
    eigensolve of L^H and the package's own spectrum(conj u)."""
    rng = np.random.default_rng(11)
    for M, k_use, scale in ((16, 8, 0.05), (32, None, 0.02), (48, 20, 0.1), (64, 16, 0.01)):
        N = int(rng.integers(1, 5))
        coeffs = {n: scale * complex(rng.standard_normal(), rng.standard_normal()) / abs(n)
                  for n in range(-N, N + 1) if n}
        u = Potential(0.5, N, coeffs)
        L = assemble_lax(u, M)
        u_c = Potential(u.s, N, involute(coeffs, "conj"))
        # the premise: the truncation of conj(u) is exactly the adjoint
        assert np.array_equal(assemble_lax(u_c, M), L.conj().T)
        sd = spectrum(u, M, k_use=k_use)
        K = len(sd.lambdas) - 1
        assert K == (M // 2 if k_use is None else k_use) and not sd.hermitian
        lam, WL, V = scipy.linalg.eig(L.conj().T, left=True, right=True)
        order = np.lexsort((lam.imag, lam.real))[:K + 1]
        lam, V, W = lam[order], V[:, order], WL[:, order]
        sd_c = spectrum(u_c, M, k_use=k_use)
        for ref_lam, ref_V, ref_W in ((lam, V, W), (sd_c.lambdas, sd_c.right_vecs,
                                                    sd_c.left_vecs)):
            assert np.max(np.abs(np.conj(sd.lambdas) - ref_lam)) < 1e-12
            for p_got, p_ref in zip(projectors(sd.left_vecs, sd.right_vecs, K),
                                    projectors(ref_V, ref_W, K)):
                assert np.max(np.abs(p_got - p_ref)) < 1e-10


# the patched 4 x 4 matrix is no truncation of the potential's Lax operator
@pytest.mark.filterwarnings("ignore::bonft.errors.TruncationWarning")
def test_conjugate_spectrum_keeps_the_labels_through_a_tie(monkeypatch):
    """1 - 1j and 1 + 1j tie in the real part; label n of conj(u) stays
    conj(lambda_n(u)) with the swapped vectors, though a fresh sort would
    swap the two labels."""
    lam = np.array([0.0, 1.0 - 1.0j, 1.0 + 1.0j, 3.0])
    # triangular, so eig reads the eigenvalues off the diagonal exactly
    L = np.diag(lam) + np.triu([[0.0, 0.4, 0.3j, 0.2], [0.0, 0.0, 0.5, 0.1j],
                                [0.0, 0.0, 0.0, 0.6], [0.0, 0.0, 0.0, 0.0]])
    monkeypatch.setattr(bonft.lax, "assemble_lax", lambda u, M: L)
    sd = spectrum(Potential(0.5, 1, {1: 0.01, -1: 0.02}), 3, k_use=3)
    assert np.array_equal(sd.lambdas, lam)
    lam_c = np.conj(sd.lambdas)
    assert not np.array_equal(np.lexsort((lam_c.imag, lam_c.real)), np.arange(4))
    A = L.conj().T
    for n in range(4):
        v, w = sd.left_vecs[:, n], sd.right_vecs[:, n]
        assert np.max(np.abs(A @ v - lam_c[n] * v)) < 1e-12
        assert np.max(np.abs(w.conj() @ A - lam_c[n] * w.conj())) < 1e-12


# k_use = M reads labels the cut does not resolve
@pytest.mark.filterwarnings("ignore::bonft.errors.TruncationWarning")
@pytest.mark.parametrize("M", [16, 32, 64, 96, 128])
def test_left_vectors_from_the_inverse_match_an_independent_eigensolve(M):
    rng = np.random.default_rng(M)
    N = int(rng.integers(1, 5))
    coeffs = {n: 0.05 * complex(rng.standard_normal(), rng.standard_normal()) / abs(n)
              for n in range(-N, N + 1) if n}
    u = Potential(0.5, N, coeffs)
    sd = spectrum(u, M, k_use=M)
    L = assemble_lax(u, M)
    W = sd.left_vecs
    assert np.max(np.abs(np.linalg.norm(W, axis=0) - 1.0)) < 1e-14
    residual = W.conj().T @ L - sd.lambdas[:, None] * W.conj().T
    assert np.max(np.linalg.norm(residual, axis=1)) <= 1e-12 * np.linalg.norm(L, 2)
    lam, WL, V = scipy.linalg.eig(L, left=True, right=True)
    order = np.lexsort((lam.imag, lam.real))
    V, WL = V[:, order], WL[:, order]
    K = M
    # |w^H v| is the reciprocal condition number the near-orthogonality guard reads
    ref = np.abs([np.vdot(WL[:, n], V[:, n]) for n in range(K + 1)])
    got = np.abs([np.vdot(W[:, n], sd.right_vecs[:, n]) for n in range(K + 1)])
    assert np.max(np.abs(got - ref)) < 1e-10
    for p_got, p_ref in zip(projectors(sd.right_vecs, W, K), projectors(V, WL, K)):
        assert np.max(np.abs(p_got - p_ref)) < 1e-10


def lax_residuals(A, M, X, lam):
    """||rows M+1..M+N of (A - lambda_n) [x_n; 0]|| for the columns x_n of X."""
    pad = np.vstack((X, np.zeros((len(A) - M - 1, X.shape[1]))))
    return np.linalg.norm((A @ pad - pad * lam)[M + 1:], axis=0)


@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
def test_truncation_warning_reports_the_lax_residual(monkeypatch, real):
    """With RESIDUAL_TOL at 0 every spectrum warns, and its message must give the
    largest residual of rows M+1..M+N, right and left vectors alike, and its label:
    an index of the Toeplitz block off by one moves both."""
    monkeypatch.setattr(bonft.lax, "RESIDUAL_TOL", 0.0)
    rng = np.random.default_rng(17 if real else 18)
    left_worse = 0
    for N, M in ((1, 1), (3, 3), (3, 5), (4, 8), (6, 13)):  # M = N and M < 2N among them
        modes = range(1, N + 1) if real else [n for n in range(-N, N + 1) if n]
        coeffs = {n: 0.1 * complex(rng.standard_normal(), rng.standard_normal()) / abs(n)
                  for n in modes}
        u = Potential(0.5, N, coeffs, real=real)
        for k_use in range(1, M + 1):
            with pytest.warns(TruncationWarning) as caught:
                sd = spectrum(u, M, k_use=k_use)
            assert len(caught) == 1
            L = assemble_lax(u, M + N)
            right = lax_residuals(L, M, sd.right_vecs, sd.lambdas)
            left = lax_residuals(L.conj().T, M, sd.left_vecs, np.conj(sd.lambdas))
            ref = np.maximum(right, left)
            got = re.fullmatch(r"truncation M=(\d+) leaves a Lax residual (\S+) at n=(\d+), "
                               r"past 0e\+00", str(caught[0].message))
            assert int(got[1]) == M and int(got[3]) == np.argmax(ref)
            assert float(got[2]) == pytest.approx(ref.max(), rel=1e-3, abs=0)
            left_worse += left[np.argmax(ref)] > 1.01 * right[np.argmax(ref)]
    assert left_worse if not real else left_worse == 0
