import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bonft.errors import AliasingError
from bonft.hardy import (Potential, involute, potential_from_json,
                         potential_to_json, sobolev_norm, synthesize)


def small_coeff():
    return st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False)


def test_potential_rejects_mean_mode():
    with pytest.raises(ValueError):
        Potential(0.5, 2, {0: 1.0})


def test_real_potential_reflects_conjugate():
    u = Potential(0.5, 3, {1: 0.2 + 0.1j, 3: -0.05j}, real=True)
    assert u.coeff(-1) == np.conj(u.coeff(1))
    assert u.coeff(-3) == np.conj(u.coeff(3))
    assert u.coeff(2) == 0


def test_support_and_nonzero_coeffs_are_python_ints():
    u = Potential(0.5, 2, {1: 0.5, -2: 0.25j})
    assert sorted(u.nonzero_coeffs()) == [-2, 1]
    for n in u.nonzero_coeffs():
        assert type(n) is int


def test_sobolev_norm_manual():
    u = Potential(0.0, 2, {1: 3.0, 2: 4.0}, real=True)
    # two-sided sum, weight <n>^0 = 1
    assert sobolev_norm(u, 0.0) == pytest.approx(np.sqrt(2 * (9 + 16)))
    assert sobolev_norm(u, 0.5) == pytest.approx(np.sqrt(2 * (9 + 2 * 16)))


@given(st.dictionaries(st.integers(min_value=1, max_value=4), small_coeff(),
                       min_size=1, max_size=4))
@settings(max_examples=60, deadline=None)
def test_involutions_are_involutive(coeffs):
    u = Potential(0.5, 4, coeffs)
    for kind in ("star", "conj"):
        v = involute(involute(u, kind), kind)
        for n in range(-4, 5):
            if n:
                assert v.coeff(n) == pytest.approx(u.coeff(n), abs=1e-15)


def test_star_reflects_without_conjugation():
    u = Potential(0.5, 2, {1: 0.3 + 0.4j, -2: 0.1j})
    v = involute(u, "star")
    assert v.coeff(-1) == 0.3 + 0.4j
    assert v.coeff(2) == 0.1j


def test_conj_reflects_with_conjugation():
    u = Potential(0.5, 2, {1: 0.3 + 0.4j})
    v = involute(u, "conj")
    assert v.coeff(-1) == 0.3 - 0.4j
    # a real potential is a fixed point
    w = Potential(0.5, 2, {1: 0.3 + 0.4j}, real=True)
    wc = involute(w, "conj")
    for n in (-2, -1, 1, 2):
        assert wc.coeff(n) == w.coeff(n)


def test_synthesize_analyze_round_trip():
    u = Potential(0.5, 3, {1: 0.2 - 0.1j, 3: 0.05}, real=True)
    samples = synthesize(u, 16)
    assert np.max(np.abs(samples.imag)) < 1e-14
    spec = np.fft.fft(samples) / 16
    for n in range(-3, 4):
        assert spec[n % 16] == pytest.approx(u.coeff(n), abs=1e-14)


def test_synthesize_needs_enough_grid():
    u = Potential(0.5, 4, {4: 1.0}, real=True)
    with pytest.raises(AliasingError):
        synthesize(u, 8)


def test_potential_json_round_trip():
    u = Potential(0.25, 3, {1: 0.1 + 0.2j, -2: -0.3j})
    v = potential_from_json(potential_to_json(u))
    assert v.s == u.s and v.N == u.N and v.real == u.real
    for n in range(-3, 4):
        if n:
            assert v.coeff(n) == u.coeff(n)
