"""The scaling products and the eigenvector chain: reference oracles and guards.

scaling_constants works on factor matrices; tests/oracles.py keeps the
loop it replaced, and the two must agree bit for bit, down to which factor
a DegenerateProduct names.  eigen_chain computes only the scalars a_n of
f_n = a_n h_n; tests/oracles.py keeps the vector recursion for f_n, and
the coordinates must match the ones read off it.  Every guard of the chain
gets an input that trips it, and the message must name the first offending
index.
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
from bonft.lax import SpectralData, conjugate_spectrum, spectrum
from oracles import chain_loop, scaling_constants_loop


def hand_built(lambdas, h=None):
    """Hermitian spectral data with the given eigenvalues and identity vectors."""
    lam = np.asarray(lambdas, dtype=complex)
    K = len(lam) - 1
    eye = np.eye(K + 1, dtype=complex)
    return SpectralData(lam, eye, eye, np.ones(K + 1, dtype=complex),
                        eye if h is None else h, K, K, True, 1.0)


def seeded(rng, N, scale, real):
    modes = range(1, N + 1) if real else [n for n in range(-N, N + 1) if n]
    coeffs = {n: scale * (rng.standard_normal() + 1j * rng.standard_normal()) / abs(n)
              for n in modes}
    return Potential(0.5, N, coeffs, real=real)


def assert_same_constants(sd):
    kappa, mu, tails = scaling_constants(sd)
    ref_kappa, ref_mu, ref_tails = scaling_constants_loop(sd)
    assert np.array_equal(kappa, ref_kappa)
    assert np.array_equal(mu, ref_mu, equal_nan=True)
    assert tails == ref_tails


@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
def test_scaling_constants_match_loop_oracle(real):
    rng = np.random.default_rng(41 if real else 42)
    for M, k_use in ((8, 3), (8, 1), (8, 2), (16, 5), (32, 16), (64, 32), (96, 32)):
        for scale in (0.005, 0.02, 0.1):
            u = seeded(rng, int(rng.integers(1, 5)), scale, real)
            sd = spectrum(u, M, k_use=k_use)
            assert sd.hermitian == real
            assert_same_constants(sd)


def test_scaling_constants_match_loop_oracle_off_lattice():
    """Complex eigenvalues far from the integers, beyond what a small potential gives."""
    rng = np.random.default_rng(43)
    for K in (0, 1, 2, 3, 7, 20):
        lam = np.arange(K + 1) + 0.3 * (rng.standard_normal(K + 1)
                                        + 1j * rng.standard_normal(K + 1))
        sd = hand_built(lam)
        sd.hermitian = False
        assert_same_constants(sd)


def assert_chain_matches_oracle(u, M, k_use):
    """f_n = a_n h_n on the oracle's chain, and the coordinates read off it.

    Returns False, checking nothing, when u lies outside the neighborhood.
    """
    try:
        st = birkhoff_forward(u, M=M, k_use=k_use)
    except OutOfNeighborhood:
        return False
    sd = spectrum(u, M, k_use=k_use)
    scal = eigen_chain(sd)
    f = chain_loop(sd)
    assert np.max(np.abs(f - sd.h * scal.a)) <= 1e-13 * np.max(np.abs(f))
    if u.real:
        # <1|f_n> / sqrt(kappa_n), the coordinate as the paper defines it
        shortcut = np.conj(f[0, 1:]) / np.sqrt(scal.kappa[1:])
        assert np.max(np.abs(st.plus - shortcut)) <= 1e-13
        return True
    drift = max(abs(np.linalg.norm(fn) - 1.0) for fn in f.T)
    assert abs(st.diagnostics["norm_drift"] - drift) <= 1e-13
    sd_c = conjugate_spectrum(sd)
    scal_c = eigen_chain(sd_c)
    f_c = chain_loop(sd_c)
    assert np.max(np.abs(f_c - sd_c.h * scal_c.a)) <= 1e-13 * np.max(np.abs(f_c))
    assert np.max(np.abs(st.plus - np.conj(f_c[0, 1:]) / np.sqrt(scal.kappa[1:]))) <= 1e-13
    assert np.max(np.abs(st.minus - f[0, 1:] / np.sqrt(np.conj(scal_c.kappa[1:])))) <= 1e-13
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


def assert_same_degeneracy(sd, message):
    with pytest.raises(DegenerateProduct, match="^%s$" % re.escape(message)):
        scaling_constants(sd)
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
    h = np.eye(5, dtype=complex)
    h[0, 0] = 0.0
    sd = hand_built(np.arange(5.0), h=h)
    with pytest.raises(DegenerateProjector, match="zero mean component"):
        eigen_chain(sd)


def test_nan_eigenvalue_is_a_numerical_failure(monkeypatch, capsys):
    # NaN compares false against every bound, so each guard is written to fail on it
    sd = hand_built([0.0, 1.0, np.nan, 3.0])
    with pytest.raises(DegenerateProduct, match="^kappa_0 product factor of size nan$"):
        eigen_chain(sd)
    monkeypatch.setattr(birkhoff, "spectrum", lambda u, M, k_use=None: sd)
    u_path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "u.json")
    assert cli.main(["transform", "-i", u_path]) == 2
    assert "numerical failure: kappa_0" in capsys.readouterr().err


def test_nan_projector_data_fails_the_chain_guards():
    h = np.eye(5, dtype=complex)
    h[0, 0] = np.nan
    with pytest.raises(DegenerateProjector, match="zero mean component"):
        eigen_chain(hand_built(np.arange(5.0), h=h))
    h = np.eye(5, dtype=complex)
    h[2, 2] = np.nan
    with pytest.raises(OutOfNeighborhood, match=r"^\|alpha_2\| = nan < 0\.5$"):
        eigen_chain(hand_built(np.arange(5.0), h=h))


def test_nan_mu_is_out_of_neighborhood(monkeypatch):
    sd = hand_built(np.arange(4.0))
    kappa, mu, tails = scaling_constants(sd)
    mu[1] = np.nan
    monkeypatch.setattr(birkhoff, "scaling_constants", lambda sd: (kappa, mu, tails))
    with pytest.raises(OutOfNeighborhood, match=r"^\|mu_1 - 1\| = nan >= 0\.5$"):
        eigen_chain(sd)


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
    assert "chain shift dropped top coefficient" in str(caught[0].message)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        birkhoff_forward(u, M=48, k_use=8)
