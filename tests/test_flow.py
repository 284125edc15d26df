import numpy as np
import pytest

import bonft.flow
from bonft.birkhoff import BirkhoffState, birkhoff_forward
from bonft.errors import InversionFailure, NumericalFailure
from bonft.flow import (FlowConfig, evolve, frequencies, frequency_shifts,
                        invert, solve_trajectory)
from bonft.hardy import Potential, sobolev_norm


def single_mode_state(z1):
    return BirkhoffState(0.5, [z1], [np.conj(z1)], real_flag=True)


@pytest.fixture
def forward_calls(monkeypatch):
    """Every birkhoff_forward call made through bonft.flow, as (M asked for, K_use of the result)."""
    calls = []
    real = bonft.flow.birkhoff_forward

    def counting(u, M=None, k_use=None):
        z = real(u, M=M, k_use=k_use)
        calls.append((M, z.n_modes))
        return z

    monkeypatch.setattr(bonft.flow, "birkhoff_forward", counting)
    return calls


def seeded_ball_potential(seed, norm):
    """The round-trip criterion's input: 8 modes decaying like 1/n, scaled to ||u||_{1/2} = norm."""
    rng = np.random.default_rng(seed)
    raw = {n: (rng.standard_normal() + 1j * rng.standard_normal()) / n
           for n in range(1, 9)}
    factor = norm / sobolev_norm(Potential(0.5, 8, raw, real=True), 0.5)
    return Potential(0.5, 8, {n: factor * v for n, v in raw.items()}, real=True)


def test_frequency_examples():
    om_p, om_m = frequencies(single_mode_state(0.5))
    assert om_p[0] == pytest.approx(0.5)
    assert om_m[0] == pytest.approx(-0.5)
    st = BirkhoffState(0.5, [0.5, 0.0], [0.5, 0.0], real_flag=True)
    om_p, _ = frequencies(st)
    assert om_p[0] == pytest.approx(0.5)
    assert om_p[1] == pytest.approx(3.5)


def test_shift_antisymmetry():
    st = BirkhoffState(0.5, [0.3 + 0.1j, -0.2j], [0.05, 0.1 - 0.1j])
    sp, sm = frequency_shifts(st)
    assert np.array_equal(sp, -sm)
    # complex states keep complex shifts, real states real ones
    assert np.iscomplexobj(sp)
    rp, _ = frequency_shifts(single_mode_state(0.4))
    assert not np.iscomplexobj(rp)


def test_evolve_spec_point():
    st = evolve(single_mode_state(0.5), np.pi)
    assert st.coord(1) == pytest.approx(0.5j)
    assert st.coord(-1) == pytest.approx(-0.5j)


def test_evolve_is_a_group_action_on_moduli():
    st = single_mode_state(0.31)
    a = evolve(evolve(st, 0.3), 0.7)
    b = evolve(st, 1.0)
    assert a.coord(1) == pytest.approx(b.coord(1), rel=1e-13)
    assert abs(a.coord(1)) == pytest.approx(0.31)
    ident = evolve(st, 0.0)
    assert ident.coord(1) == st.coord(1)


def test_invert_zero_state():
    u = invert(BirkhoffState(0.5, [0.0], [0.0], real_flag=True))
    assert u.nonzero_coeffs() == {}


def test_invert_round_trip():
    u = Potential(0.5, 3, {1: 0.02 + 0.01j, 2: -0.015j, 3: 0.008}, real=True)
    z = birkhoff_forward(u, M=48, k_use=3)
    back = invert(z, FlowConfig(lax={"M": 48}))
    for n in range(1, 4):
        assert back.coeff(n) == pytest.approx(u.coeff(n), abs=1e-10)


def test_invert_unreachable_target_raises():
    bad = BirkhoffState(0.5, [5.0], [5.0], real_flag=True)
    with pytest.raises(NumericalFailure):
        invert(bad, FlowConfig(newton={"max_iter": 6, "tol": 1e-12}))


# at norm 1.0 the first full steps overshoot: only step halving reaches it
@pytest.mark.parametrize("norm, max_calls", [(0.5, 25), (1.0, 40)])
def test_invert_reaches_the_seeded_ball_cheaply(forward_calls, norm, max_calls):
    for seed in range(1000, 1006):
        u = seeded_ball_potential(seed, norm)
        z = birkhoff_forward(u, M=64, k_use=8)
        del forward_calls[:]
        back = invert(z, FlowConfig(lax={"M": 64}))
        diff = Potential(0.5, 8, {n: back.coeff(n) - u.coeff(n)
                                  for n in range(1, 9)}, real=True)
        assert sobolev_norm(diff, 0.5) / sobolev_norm(u, 0.5) < 1e-8, seed
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


def test_invert_warm_start_from_the_answer_is_one_forward_map(forward_calls):
    u = Potential(0.5, 3, {1: 0.02 + 0.01j, 2: -0.015j, 3: 0.008}, real=True)
    z = birkhoff_forward(u, M=48, k_use=3)
    cfg = FlowConfig(lax={"M": 48})
    back = invert(z, cfg)
    del forward_calls[:]
    again = invert(z, cfg, initial=back)
    assert len(forward_calls) == 1
    assert again.band().tolist() == back.band().tolist()


@pytest.mark.filterwarnings("ignore::bonft.errors.TruncationWarning")
def test_solve_trajectory_conserves_actions():
    u0 = Potential(0.5, 2, {1: 0.03, 2: 0.01j}, real=True)
    cfg = FlowConfig(t_grid=(0.0, 0.4, 0.8), lax={"M": 48})
    samples, diag = solve_trajectory(u0, cfg)
    assert [t for t, _ in samples] == [0.0, 0.4, 0.8]
    assert diag["action_drift"] < 1e-10
    assert max(diag["residuals"]) < 1e-10
    assert len(diag["increments"]) == 2
    # t = 0 must reproduce the initial potential
    for n in range(1, 3):
        assert samples[0][1].coeff(n) == pytest.approx(u0.coeff(n), abs=1e-11)


@pytest.mark.filterwarnings("ignore::bonft.errors.TruncationWarning")
def test_solve_trajectory_warm_start_matches_cold():
    u0 = Potential(0.5, 1, {1: 0.05}, real=True)
    cold = solve_trajectory(u0, FlowConfig(t_grid=(0.0, 0.5), lax={"M": 32}))
    warm = solve_trajectory(u0, FlowConfig(t_grid=(0.0, 0.5), lax={"M": 32},
                                           warm_start=True))
    for (ta, ua), (tb, ub) in zip(cold[0], warm[0]):
        assert ta == tb
        assert ua.coeff(1) == pytest.approx(ub.coeff(1), abs=1e-11)


@pytest.mark.filterwarnings("ignore::bonft.errors.TruncationWarning")
def test_solve_trajectory_uses_one_truncation(forward_calls):
    u0 = Potential(0.5, 2, {1: 0.03, 2: 0.01j}, real=True)
    solve_trajectory(u0)
    assert len(set(forward_calls)) == 1, sorted(set(forward_calls))


def test_flow_config_validation():
    with pytest.raises(ValueError):
        FlowConfig(t_grid=(0.0, float("nan")))
    with pytest.raises(ValueError):
        FlowConfig(newton={"tol": 0.0})
    with pytest.raises(ValueError):
        FlowConfig(newton={"fd_step": 1e-6})
    cfg = FlowConfig(t_grid=[0, 1])
    assert cfg.t_grid == (0.0, 1.0)
