import numpy as np
import pytest

import bonft.flow
from bonft.birkhoff import BirkhoffState, birkhoff_forward
from bonft.errors import InversionFailure, NumericalFailure
from bonft.flow import evolve, frequency_shifts, invert, solve_trajectory
from bonft.hardy import Potential
from oracles import sobolev_norm


def single_mode_state(z1):
    return BirkhoffState(0.5, [z1], [np.conj(z1)], real_flag=True)


@pytest.fixture
def forward_calls(monkeypatch):
    """Every birkhoff_forward call made through bonft.flow, as (M asked for,
    K_use of the result, the potential's coefficient bytes)."""
    calls = []
    real = bonft.flow.birkhoff_forward

    def counting(u, M=None, k_use=None):
        z = real(u, M=M, k_use=k_use)
        calls.append((M, z.n_modes, u.band().tobytes()))
        return z

    monkeypatch.setattr(bonft.flow, "birkhoff_forward", counting)
    return calls


def seeded_ball_potential(seed, norm):
    """The round-trip criterion's input: 8 modes decaying like 1/n, scaled to ||u||_{1/2} = norm."""
    rng = np.random.default_rng(seed)
    raw = {n: (rng.standard_normal() + 1j * rng.standard_normal()) / n
           for n in range(1, 9)}
    factor = norm / sobolev_norm(Potential(0.5, 8, raw, real=True).nonzero_coeffs(), 0.5)
    return Potential(0.5, 8, {n: factor * v for n, v in raw.items()}, real=True)


def test_frequency_examples():
    # omega_n = n^2 + Omega_n
    assert 1 + frequency_shifts(single_mode_state(0.5))[0] == pytest.approx(0.5)
    st = BirkhoffState(0.5, [0.5, 0.0], [0.5, 0.0], real_flag=True)
    om = np.arange(1, 3) ** 2 + frequency_shifts(st)
    assert om[0] == pytest.approx(0.5)
    assert om[1] == pytest.approx(3.5)


def test_shift_antisymmetry():
    """The minus side spins at omega_{-n} = -(n^2 + Omega_n)."""
    st = BirkhoffState(0.5, [0.3 + 0.1j, -0.2j], [0.05, 0.1 - 0.1j])
    shift = frequency_shifts(st)
    # complex states keep complex shifts, real states real ones
    assert np.iscomplexobj(shift)
    assert not np.iscomplexobj(frequency_shifts(single_mode_state(0.4)))
    ks = np.arange(1.0, 3.0)
    later = evolve(st, 0.3)
    assert np.array_equal(later.minus, st.minus * np.exp(1j * 0.3 * (-ks ** 2 - shift)))
    assert np.array_equal(later.plus, st.plus * np.exp(1j * 0.3 * (ks ** 2 + shift)))


def test_real_shifts_own_their_memory():
    """A real state's shifts are an owned float array, not a view into a complex temporary."""
    plus = 0.1 * (np.arange(1, 9) + 1j)
    shift = frequency_shifts(BirkhoffState(0.5, plus, np.conj(plus), real_flag=True))
    assert shift.dtype == float and shift.base is None


def test_evolve_spec_point():
    st = evolve(single_mode_state(0.5), np.pi)
    assert st.plus[0] == pytest.approx(0.5j)
    assert st.minus[0] == pytest.approx(-0.5j)


def test_evolve_rotates_both_sides_of_a_real_state(monkeypatch):
    calls = []
    real = bonft.flow.rotate

    def counting(values, ks, shift, t):
        calls.append(t)
        return real(values, ks, shift, t)

    monkeypatch.setattr(bonft.flow, "rotate", counting)
    st = evolve(single_mode_state(0.31 + 0.1j), 0.7)
    assert calls == [0.7, -0.7]
    assert st.real_flag and st.minus[0] == np.conj(st.plus[0])


def test_evolve_is_a_group_action_on_moduli():
    st = single_mode_state(0.31)
    a = evolve(evolve(st, 0.3), 0.7)
    b = evolve(st, 1.0)
    assert a.plus[0] == pytest.approx(b.plus[0], rel=1e-13, abs=0)
    assert abs(a.plus[0]) == pytest.approx(0.31)
    ident = evolve(st, 0.0)
    assert ident.plus[0] == st.plus[0]


def test_invert_zero_state():
    u, _, _ = invert(BirkhoffState(0.5, [0.0], [0.0], real_flag=True))
    assert u.nonzero_coeffs() == {}


def test_invert_round_trip():
    u = Potential(0.5, 3, {1: 0.02 + 0.01j, 2: -0.015j, 3: 0.008}, real=True)
    z = birkhoff_forward(u, M=48, k_use=3)
    back, _, _ = invert(z, M=48)
    for n in range(1, 4):
        assert back.coeff(n) == pytest.approx(u.coeff(n), abs=1e-10)


def test_invert_unreachable_target_raises():
    # the chord start u_hat(1) = -5 already leaves the trusted regime
    bad = BirkhoffState(0.5, [5.0], [5.0], real_flag=True)
    with pytest.raises(InversionFailure) as info:
        invert(bad)
    assert info.value.history == [np.inf]
    assert isinstance(info.value.__cause__, NumericalFailure)


# at norm 1.0 the first full steps overshoot: only step halving reaches it
@pytest.mark.parametrize("norm, max_calls", [(0.5, 25), (1.0, 40)])
def test_invert_reaches_the_seeded_ball_cheaply(forward_calls, norm, max_calls):
    for seed in range(1000, 1006):
        u = seeded_ball_potential(seed, norm)
        z = birkhoff_forward(u, M=64, k_use=8)
        del forward_calls[:]
        back, _, _ = invert(z, M=64)
        diff = Potential(0.5, 8, {n: back.coeff(n) - u.coeff(n)
                                  for n in range(1, 9)}, real=True)
        rel = sobolev_norm(diff.nonzero_coeffs(), 0.5) / sobolev_norm(u.nonzero_coeffs(), 0.5)
        assert rel < 1e-8, seed
        assert len(forward_calls) <= max_calls, (seed, len(forward_calls))


def test_invert_overshooting_target_reports_history():
    # the chord start lies in the working neighborhood, but no single-mode
    # potential inside it maps to zeta_1 = 0.6; trial steps that leave the
    # neighborhood are halved like any other step that does not descend
    with pytest.raises(InversionFailure) as info:
        invert(single_mode_state(0.6))
    history = info.value.history
    assert len(history) >= 2
    assert np.isfinite(history[0]) and np.isinf(history).any()


def test_invert_returns_its_image_and_residuals():
    u = Potential(0.5, 3, {1: 0.02 + 0.01j, 2: -0.015j, 3: 0.008}, real=True)
    z = birkhoff_forward(u, M=48, k_use=3)
    back, image, history = invert(z, M=48)
    again = birkhoff_forward(back, M=48, k_use=3)
    assert np.array_equal(image.plus, again.plus) and image.real_flag
    assert history[-1] == float(np.sqrt(np.sum(np.arange(1.0, 4.0) ** 2.0
                                               * np.abs(again.plus - z.plus) ** 2)))
    assert history[-1] < 1e-12 < min(history[:-1])


def test_invert_started_at_the_answer_makes_no_forward_map(forward_calls):
    u = Potential(0.5, 3, {1: 0.02 + 0.01j, 2: -0.015j, 3: 0.008}, real=True)
    z = birkhoff_forward(u, M=48, k_use=3)
    result = invert(z, M=48)
    del forward_calls[:]
    again, image, history = invert(z, M=48, start=result)
    assert forward_calls == []
    assert again is result[0] and image is result[1]
    assert history == result[2][-1:]


def test_invert_start_needs_the_target_band():
    result = invert(single_mode_state(0.1))
    wider = BirkhoffState(0.5, [0.1, 0.0], [0.1, 0.0], real_flag=True)
    with pytest.raises(ValueError, match="start has N_b=1, the target N_b=2"):
        invert(wider, start=result)


@pytest.mark.filterwarnings("ignore::bonft.errors.TruncationWarning")
def test_solve_trajectory_conserves_actions():
    u0 = Potential(0.5, 2, {1: 0.03, 2: 0.01j}, real=True)
    samples, diag = solve_trajectory(u0, (0.0, 0.4, 0.8), 48, None)
    assert [t for t, _ in samples] == [0.0, 0.4, 0.8]
    assert diag["action_drift"] < 1e-10
    assert max(diag["newton_residuals"]) < 1e-10
    # t = 0 must reproduce the initial potential
    for n in range(1, 3):
        assert samples[0][1].coeff(n) == pytest.approx(u0.coeff(n), abs=1e-11)


@pytest.mark.filterwarnings("ignore::bonft.errors.TruncationWarning")
def test_solve_trajectory_warm_start_matches_cold():
    """Each sample seeded by the previous one lands where a cold inversion does."""
    u0 = Potential(0.5, 1, {1: 0.05}, real=True)
    samples, _ = solve_trajectory(u0, (0.0, 0.5), 32, None)
    z0 = birkhoff_forward(u0, M=32)
    for t, u_t in samples:
        cold, _, _ = invert(evolve(z0, t), M=32)
        assert u_t.coeff(1) == pytest.approx(cold.coeff(1), abs=1e-11)


@pytest.mark.filterwarnings("ignore::bonft.errors.TruncationWarning")
def test_solve_trajectory_uses_one_truncation(forward_calls):
    u0 = Potential(0.5, 2, {1: 0.03, 2: 0.01j}, real=True)
    solve_trajectory(u0, (0.0, 0.5, 1.0), 32, None)
    truncations = {call[:2] for call in forward_calls}
    assert len(truncations) == 1, sorted(truncations)


@pytest.mark.filterwarnings("ignore::bonft.errors.TruncationWarning")
def test_solve_trajectory_transforms_each_potential_once(forward_calls):
    """Each inversion reuses the last image of the one before, and the
    residuals and drift are read off the images, not re-transformed."""
    u0 = Potential(0.5, 2, {1: 0.03, 2: 0.01j}, real=True)
    samples, diag = solve_trajectory(u0, (0.0, 0.4, 0.8), 48, None)
    potentials = [call[2] for call in forward_calls]
    assert len(set(potentials)) == len(potentials)
    assert len(diag["newton_residuals"]) == 3 and max(diag["newton_residuals"]) < 1e-12


def test_flow_input_validation():
    u0 = Potential(0.5, 1, {1: 0.05}, real=True)
    with pytest.raises(ValueError):
        solve_trajectory(u0, (0.0, float("nan")), 32, None)
    with pytest.raises(ValueError):
        invert(single_mode_state(0.1), tol=0.0)
    samples, _ = solve_trajectory(u0, [0, 1], 32, None)
    assert [t for t, _ in samples] == [0.0, 1.0]
    assert all(type(t) is float for t, _ in samples)
