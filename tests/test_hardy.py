import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bonft.birkhoff import state_from_json
from bonft.hardy import Potential, potential_from_json, potential_to_json
from oracles import involute, sobolev_norm


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


# the norm and involutions below are the test oracles' versions on
# coefficient dicts; the checks pin the conventions other tests rely on


def test_sobolev_norm_manual():
    c = Potential(0.0, 2, {1: 3.0, 2: 4.0}, real=True).nonzero_coeffs()
    # two-sided sum, weight <n>^0 = 1
    assert sobolev_norm(c, 0.0) == pytest.approx(np.sqrt(2 * (9 + 16)))
    assert sobolev_norm(c, 0.5) == pytest.approx(np.sqrt(2 * (9 + 2 * 16)))


@given(st.dictionaries(st.integers(min_value=-4, max_value=4).filter(bool), small_coeff(),
                       min_size=1, max_size=8))
@settings(max_examples=60, deadline=None)
def test_involutions_are_involutive(coeffs):
    for kind in ("star", "conj"):
        assert involute(involute(coeffs, kind), kind) == coeffs


def test_star_reflects_without_conjugation():
    assert involute({1: 0.3 + 0.4j, -2: 0.1j}, "star") == {-1: 0.3 + 0.4j, 2: 0.1j}


def test_conj_reflects_with_conjugation():
    assert involute({1: 0.3 + 0.4j}, "conj") == {-1: 0.3 - 0.4j}
    # a real potential is a fixed point
    w = Potential(0.5, 2, {1: 0.3 + 0.4j}, real=True).nonzero_coeffs()
    assert involute(w, "conj") == w


def test_potential_item_without_im_is_real():
    u = potential_from_json({"s": 0.5, "N": 2, "coeffs": [{"n": 2, "re": 0.25}]})
    assert u.coeff(2) == complex(0.25, 0.0)
    assert u.coeff(-2) == 0


def test_empty_item_arrays_are_the_zero_data():
    u = potential_from_json({"s": 0.5, "N": 2, "coeffs": []})
    assert u.nonzero_coeffs() == {}
    z = state_from_json({"s": 0.5, "N_b": 2, "plus": [], "minus": []})
    assert not z.plus.any() and not z.minus.any()


def test_potential_json_round_trip():
    u = Potential(0.25, 3, {1: 0.1 + 0.2j, -2: -0.3j})
    v = potential_from_json(potential_to_json(u))
    assert v.s == u.s and v.N == u.N and v.real == u.real
    for n in range(-3, 4):
        if n:
            assert v.coeff(n) == u.coeff(n)
