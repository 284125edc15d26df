"""The scaling products and the eigenvector chain: reference oracles and guards.

scaling_constants works on factor matrices; tests/oracles.py keeps the
loop it replaced, and the two must agree on kappa bit for bit, on mu and
the tails to a few ulp, and on which factor a DegenerateProduct names.
eigen_chain computes only the scalars b_n of f_n = b_n v_n from the kappa_n
and mu_n it is given; tests/oracles.py keeps the vector recursion for f_n
in the projected basis h_n = P_n e_n, and the coordinates and the norm
drift must match the ones read off it, the ratios of the scalars the
rank-one projector form.  Every guard of the chain gets an input that
trips it, and the message must name the first offending index.  Seeded
sweeps tie the forward map's truncation warning and its diagnostics to
the coordinate error against a finer truncation.
"""

import os
import re
import warnings

import numpy as np
import pytest

from bonft import birkhoff, cli
from bonft.birkhoff import birkhoff_forward, eigen_chain, scaling_constants
from bonft.errors import (DegenerateProduct, DegenerateProjector, OutOfNeighborhood,
                          TruncationWarning)
from bonft.hardy import Potential
from bonft.lax import SpectralData, spectrum
from oracles import chain_loop, projected_basis, projector_couplings, scaling_constants_loop
from test_birkhoff import count_calls


def hand_built(lambdas):
    """Hermitian spectral data with the given eigenvalues and identity vectors."""
    lam = np.asarray(lambdas)
    vecs = np.eye(len(lam), dtype=complex)
    return SpectralData(lam, vecs, vecs, True, 1.0)


def seeded(rng, N, scale, real):
    modes = range(1, N + 1) if real else [n for n in range(-N, N + 1) if n]
    coeffs = {n: scale * (rng.standard_normal() + 1j * rng.standard_normal()) / abs(n)
              for n in modes}
    return Potential(0.5, N, coeffs, real=real)


# mu's factors take numpy's vectorised complex products, which may round a
# last bit apart from the loop's scalar ones (the SIMD loop can fuse a
# multiply and an add): 2.4 ulp measured on the draws below.  A tail is
# |f - 1| of a factor f near 1, so it inherits f's rounding, ULPS |f|.
ULPS = 4 * np.finfo(float).eps


def assert_same_constants(sd):
    kappa, mu, tails = scaling_constants(sd.lambdas)
    ref_kappa, ref_mu, ref_tails = scaling_constants_loop(sd)
    assert np.array_equal(kappa, ref_kappa)
    assert np.isnan(mu[0]) and np.isnan(ref_mu[0])
    assert np.all(np.abs(mu[1:] - ref_mu[1:]) <= ULPS * np.abs(ref_mu[1:]))
    assert tails.keys() == ref_tails.keys()
    for key, tail in tails.items():
        assert abs(tail - ref_tails[key]) <= ULPS * (1.0 + ref_tails[key]), key


def seeded_spectra(real):
    """The spectral data of seeded draws over a grid of truncations and sizes."""
    rng = np.random.default_rng(41 if real else 42)
    for M, k_use in ((8, 3), (8, 1), (8, 2), (16, 5), (32, 16), (64, 32), (96, 32)):
        for scale in (0.005, 0.02, 0.1):
            sd = spectrum(seeded(rng, int(rng.integers(1, 5)), scale, real), M, k_use=k_use)
            assert sd.hermitian == real
            yield sd


# the seeded spectra at M = 8 read labels the cut does not resolve
@pytest.mark.filterwarnings("ignore::bonft.errors.TruncationWarning")
@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
def test_scaling_constants_match_loop_oracle(real):
    for sd in seeded_spectra(real):
        assert_same_constants(sd)


# the seeded spectra at M = 8 read labels the cut does not resolve
@pytest.mark.filterwarnings("ignore::bonft.errors.TruncationWarning")
def test_scaling_constants_of_the_conjugate_are_exact_conjugates():
    """Under one labelling kappa_n(conj u) = conj(kappa_n(u)) to the last bit, as
    birkhoff_forward's one side formula takes it: every operation in
    scaling_constants commutes exactly with conjugation."""
    for sd in seeded_spectra(False):
        kappa, mu, tails = scaling_constants(sd.lambdas)
        kappa_c, mu_c, tails_c = scaling_constants(np.conj(sd.lambdas))
        assert np.array_equal(kappa_c, np.conj(kappa))
        assert np.array_equal(mu_c, np.conj(mu), equal_nan=True)
        assert tails_c == tails


def test_scaling_constants_match_loop_oracle_off_lattice():
    """Complex eigenvalues far from the integers, beyond what a small potential gives."""
    rng = np.random.default_rng(43)
    for K in (0, 1, 2, 3, 7, 20):
        lam = np.arange(K + 1) + 0.3 * (rng.standard_normal(K + 1)
                                        + 1j * rng.standard_normal(K + 1))
        sd = hand_built(lam)
        sd.hermitian = False
        assert_same_constants(sd)


def assert_projector_form(sd, b, mu):
    """The chain in the projected basis, f_n = a_n h_n with a_n = b_n v_n[n] / h_n[n],
    against P_n = v_n w_n^H / (w_n^H v_n) applied to S h_{n-1}:
    a_n / a_{n-1} = (beta_n / alpha_n) / sqrt(mu_n)."""
    alpha, beta = projector_couplings(sd)
    a = b * np.diagonal(sd.right_vecs) / np.diagonal(projected_basis(sd))
    assert np.max(np.abs(a[1:] / a[:-1] - beta[1:] / alpha[1:] / np.sqrt(mu[1:]))) <= 1e-13


def oracle_chain(sd):
    """The oracle's chain f of sd and kappa, checked against eigen_chain's b."""
    kappa, mu, _ = scaling_constants(sd.lambdas)
    b = eigen_chain(sd.right_vecs, sd.left_vecs, kappa, mu)
    f = chain_loop(sd)
    assert np.max(np.abs(f - sd.right_vecs * b)) <= 1e-13 * np.max(np.abs(f))
    assert_projector_form(sd, b, mu)
    return f, kappa


def assert_chain_matches_oracle(u, M, k_use):
    """f_n = b_n v_n on the oracle's chains of u and conj(u), and the coordinates
    and the norm drift read off them.

    Returns False, checking nothing, when u lies outside the neighborhood.
    """
    try:
        st = birkhoff_forward(u, M=M, k_use=k_use)
    except OutOfNeighborhood:
        return False
    sd = spectrum(u, M, k_use=k_use)
    f, kappa = oracle_chain(sd)
    # L_{conj u} = L_u^H: the record of conj(u) under u's labels
    f_c, kappa_c = (f, kappa) if u.real else oracle_chain(SpectralData(
        np.conj(sd.lambdas), sd.left_vecs, sd.right_vecs, False, sd.min_separation))
    # the analytic extension of ||f_n||^2 = 1, the pairing of the two chains;
    # off 1 by no more than the truncated products drop
    drift = np.max(np.abs(np.sum(f * np.conj(f_c), axis=0) - 1.0))
    assert abs(st.diagnostics["norm_drift"] - drift) <= 1e-13
    assert drift <= st.diagnostics["kappa_tail"] + st.diagnostics["mu_tail"] + 1e-13
    # <1|f_n> / sqrt(kappa_n), the coordinate as the paper defines it
    assert np.max(np.abs(st.plus - np.conj(f_c[0, 1:]) / np.sqrt(kappa[1:]))) <= 1e-13
    if not u.real:
        assert np.max(np.abs(st.minus - f[0, 1:] / np.sqrt(np.conj(kappa_c[1:])))) <= 1e-13
    return True


@pytest.mark.filterwarnings("ignore::bonft.errors.TruncationWarning")
@pytest.mark.parametrize("real, draws", [(True, 240), (False, 60)], ids=["real", "complex"])
def test_chain_matches_vector_recursion_oracle(real, draws):
    """Sizes up to 1 in ||u||-scale cross the neighborhood boundary, so some draws are refused."""
    rng = np.random.default_rng(44 if real else 45)
    kept = 0
    for _ in range(draws):
        u = seeded(rng, int(rng.integers(1, 5)), 10.0 ** rng.uniform(-3.0, 0.0), real)
        kept += assert_chain_matches_oracle(u, 32, int(rng.choice((4, 8, 12, 16))))
    assert 0.8 * draws <= kept < draws
    if real:
        # a single mode up to the last size the guards accept at M = 32, K = 12
        for eps in np.linspace(0.05, 0.56, 18):
            assert assert_chain_matches_oracle(Potential(0.5, 1, {1: eps}, real=True), 32, 12)


def test_norm_drift_sees_a_scaled_conjugate_chain(monkeypatch):
    u = seeded(np.random.default_rng(46), 3, 0.05, False)
    assert birkhoff_forward(u, M=32, k_use=8).diagnostics["norm_drift"] <= 1e-13
    chains = []

    def scaled(V, W, kappa, mu):
        chains.append(eigen_chain(V, W, kappa, mu))
        if len(chains) == 2:  # the chain of conj(u)
            return chains[-1] * (1.0 + 1e-9)
        return chains[-1]
    monkeypatch.setattr(birkhoff, "eigen_chain", scaled)
    drift = birkhoff_forward(u, M=32, k_use=8).diagnostics["norm_drift"]
    assert len(chains) == 2 and abs(drift - 1e-9) <= 1e-12


def assert_same_degeneracy(sd, message):
    with pytest.raises(DegenerateProduct, match="^%s$" % re.escape(message)):
        scaling_constants(sd.lambdas)
    with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
        scaling_constants_loop(sd)


def test_degenerate_kappa_factor():
    # lambda_2 = lambda_0 + 1 zeroes the k=1 factor of kappa_2, and only that
    assert_same_degeneracy(hand_built([0.0, 0.3, 1.0, 2.5]),
                           "kappa_2 product factor of size 0.000e+00")


def test_nan_eigenvalue_fails_the_first_guard():
    # The leading factor of mu_2 is zero here, but it is also the 2nd factor
    # of kappa_0, and the NaN factor of kappa_0 trips the kappa guard first.
    assert_same_degeneracy(hand_built([0.0, -1.0, 3.0, np.nan]),
                           "kappa_0 product factor of size nan")


def test_degenerate_mu_factor():
    # The k=3 factor of mu_2 is the k=2 factor of kappa_3 over
    # -(lambda_2 - lambda_1) = -4: 2.0e-12 passes the kappa guard and
    # 5.0e-13 trips the mu guard.
    delta = 6e-12
    assert_same_degeneracy(hand_built([0.0, 0.5, 4.5, 1.5 + delta]),
                           "mu_2 product factor of size 5.000e-13 at k=3")


def test_degenerate_projector():
    vecs = np.eye(5, dtype=complex)
    vecs[:, 0] = [0.0, 0.6, 0.0, 0.0, 0.8]  # a vacuum with no mean component
    kappa, mu, _ = scaling_constants(np.arange(5.0))
    with pytest.raises(DegenerateProjector, match="zero mean component"):
        eigen_chain(vecs, vecs, kappa, mu)


def test_nan_eigenvalue_is_a_numerical_failure(monkeypatch, capsys):
    # NaN compares false against every bound, so each guard is written to fail on it
    sd = hand_built([0.0, 1.0, np.nan, 3.0])
    with pytest.raises(DegenerateProduct, match="^kappa_0 product factor of size nan$"):
        scaling_constants(sd.lambdas)
    monkeypatch.setattr(birkhoff, "spectrum", lambda u, M, k_use=None: sd)
    u_path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "u.json")
    assert cli.main(["transform", "-i", u_path]) == 2
    assert "numerical failure: kappa_0" in capsys.readouterr().err


def test_nan_projector_data_fails_the_chain_guards():
    kappa, mu, _ = scaling_constants(np.arange(5.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # and without a numpy RuntimeWarning
        vecs = np.eye(5, dtype=complex)
        vecs[0, 0] = np.nan
        with pytest.raises(DegenerateProjector, match="zero mean component"):
            eigen_chain(vecs, vecs, kappa, mu)
        vecs = np.eye(5, dtype=complex)
        vecs[2, 2] = np.nan
        with pytest.raises(OutOfNeighborhood, match=r"^\|alpha_2\| = nan < 0\.5$"):
            eigen_chain(vecs, vecs, kappa, mu)


def test_nan_mu_is_out_of_neighborhood():
    kappa, mu, _ = scaling_constants(np.arange(4.0))
    mu[1] = np.nan
    vecs = np.eye(4, dtype=complex)
    with pytest.raises(OutOfNeighborhood, match=r"^\|mu_1 - 1\| = nan >= 0\.5$"):
        eigen_chain(vecs, vecs, kappa, mu)


def test_complex_route_takes_the_scaling_products_once(monkeypatch):
    """The chain of conj(u) takes u's kappa and mu conjugated, so a forward map
    runs the scaling products once on complex and on real potentials."""
    calls = count_calls(monkeypatch, birkhoff, "scaling_constants")
    birkhoff_forward(seeded(np.random.default_rng(47), 3, 0.05, False), M=32, k_use=8)
    assert len(calls) == 1
    birkhoff_forward(seeded(np.random.default_rng(47), 3, 0.05, True), M=32, k_use=8)
    assert len(calls) == 2


@pytest.mark.parametrize("eps, message", [
    (1.4, "|mu_1 - 1| = 0.502 >= 0.5"),
    (0.6, "|alpha_2| = 0.456 < 0.5"),
], ids=["mu", "alpha"])
def test_out_of_neighborhood_names_first_index(eps, message):
    u = Potential(0.5, 1, {1: eps}, real=True)
    with pytest.raises(OutOfNeighborhood, match="^%s$" % re.escape(message)):
        birkhoff_forward(u, M=32, k_use=8)


def test_chain_warns_once_on_dropped_top_mode():
    u = Potential(0.5, 8, {n: 0.05 / n for n in range(1, 9)}, real=True)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        birkhoff_forward(u, M=17, k_use=8)
    assert [w.category for w in caught] == [TruncationWarning]
    assert str(caught[0].message) == ("truncation M=17 leaves a Lax residual 2.821e-04 at n=8,"
                                      " past 1e-06")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for M in (24, 32, 48):
            birkhoff_forward(u, M=M, k_use=8)


def test_every_visible_truncation_error_warns():
    """Seeded forward maps at random M and K against M' = 4M + 64 at the same K,
    a reference that must itself pass the residual check: every map whose
    coordinates move by more than 1e-12 must warn."""
    rng = np.random.default_rng(48)
    visible = 0
    for _ in range(80):
        N = int(rng.integers(1, 9))
        u = seeded(rng, N, 10.0 ** rng.uniform(-2.5, -0.3), bool(rng.uniform() < 0.7))
        M = int(rng.integers(max(N, 2), 6 * N + 24))
        k_use = int(rng.integers(1, M // 2 + 1))
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                st = birkhoff_forward(u, M=M, k_use=k_use)
            ref = birkhoff_forward(u, M=4 * M + 64, k_use=k_use)
        except OutOfNeighborhood:
            continue
        err = max(np.abs(st.plus - ref.plus).max(), np.abs(st.minus - ref.minus).max())
        if err > 1e-12:
            visible += 1
            assert [w.category for w in caught] == [TruncationWarning], (u, M, k_use, err)
    assert visible >= 5


def test_diagnostics_bound_the_error_of_the_cut_at_k():
    """The residual certifies M, not the depth K of the products.  On real draws
    the forward map accepts, the coordinates' error against M = max(256, 32N)
    and K = 128 is at most max(norm_drift, kappa_tail)."""
    rng = np.random.default_rng(5)
    kept = 0
    for _ in range(72):
        N = int(rng.integers(1, 9))
        u = seeded(rng, N, 10.0 ** rng.uniform(-1.5, 0.7), True)
        M = int(rng.choice([2 * N, 4 * N, max(4 * N, 32), 64]))
        k_use = int(rng.integers(1, M // 2 + 1))
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", TruncationWarning)
                st = birkhoff_forward(u, M=M, k_use=k_use)
            ref = birkhoff_forward(u, M=max(256, 32 * N), k_use=128)
        except OutOfNeighborhood:
            continue
        kept += 1
        bound = max(st.diagnostics["norm_drift"], st.diagnostics["kappa_tail"])
        assert np.abs(st.plus - ref.plus[:k_use]).max() <= bound, (u, M, k_use)
    assert kept >= 30
