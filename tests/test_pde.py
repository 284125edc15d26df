import warnings

import numpy as np
import pytest

from bonft.errors import NumericalFailure, TruncationWarning
from bonft.hardy import Potential
import bonft.pde
from bonft.pde import IntegratorConfig, Trajectory, integrate
from oracles import (direct_bo_rhs, equation_residual, hamiltonian_phys,
                     integrate_loop, integrate_loop_half, isospectral_audit, sample_coeffs)


def smooth_potential(scale=0.1):
    return Potential(0.5, 3, {1: scale, 2: 0.4 * scale * 1j, 3: 0.2 * scale},
                     real=True)


def edge_potential():
    """Band 8 content: at grid 32 its square reaches past the 2/3 and 1/2 cuts."""
    return Potential(0.5, 8, {1: 0.3, 2: 0.12j, 3: 0.06, 8: 0.05 - 0.02j},
                     real=True)


def edge_config(grid, every):
    """A sample every `every` steps and one at step 23, not a multiple of 7."""
    dt = 0.03 / 23
    return IntegratorConfig(grid_size=grid, dt=dt,
                            times=[k * dt for k in range(every, 23, every)] + [0.03])


def compare_config(T):
    """compare's grid and step; T = 0.0005 samples after one step and after two."""
    return IntegratorConfig(grid_size=256, dt=2.5e-4, times=(T / 2, T))


def assert_matches_half_loop(u0, cfg, fraction=2.0 / 3.0):
    traj = integrate(u0, cfg)
    times, coeffs = integrate_loop_half(u0, cfg, fraction)
    assert np.array_equal(traj.times, times)
    assert np.array_equal(traj.coeffs, coeffs)


def assert_matches_full_loop(u0, cfg, fraction=2.0 / 3.0):
    """integrate against the full-spectrum loop's modes 0..grid/2, to rounding.

    At fraction 1 the grid/2 bin is kept; fftfreq labels it -grid/2, so the
    full loop holds the conjugate of the half-spectrum value there.
    """
    traj = integrate(u0, cfg)
    times, coeffs = integrate_loop(u0, cfg, fraction)
    top = cfg.grid_size // 2
    coeffs = coeffs[:, :top + 1]
    coeffs[:, top] = np.conj(coeffs[:, top])
    assert np.array_equal(traj.times, times)
    assert np.max(np.abs(traj.coeffs - coeffs)) <= 1e-15 * np.max(np.abs(coeffs))


@pytest.mark.parametrize("every", [1, 7, 1000])
@pytest.mark.parametrize("fraction", [2.0 / 3.0, 1.0, 0.5])
@pytest.mark.parametrize("grid", [32, 64, 128, 256])
def test_integrate_matches_loop_oracle_exactly(grid, fraction, every, monkeypatch):
    # integrate() reads the 2/3 rule from the module; patching it moves the cut
    monkeypatch.setattr(bonft.pde, "DEALIAS_FRACTION", fraction)
    assert_matches_half_loop(edge_potential(), edge_config(grid, every), fraction)


@pytest.mark.parametrize("fraction", [2.0 / 3.0, 1.0])
@pytest.mark.parametrize("grid", [4, 8, 16])
def test_integrate_matches_loop_oracle_at_small_grids(grid, fraction, monkeypatch):
    # lengths compare never uses, each carrying the widest band it can dealias
    monkeypatch.setattr(bonft.pde, "DEALIAS_FRACTION", fraction)
    band = grid // 4
    u0 = Potential(0.5, band, {n: (0.3 - 0.1j) / n for n in range(1, band + 1)},
                   real=True)
    assert_matches_half_loop(u0, edge_config(grid, 7), fraction)


@pytest.mark.parametrize("T", [0.0005, 0.05])
def test_integrate_matches_loop_oracle_at_compare_setting(T):
    assert_matches_half_loop(smooth_potential(0.4), compare_config(T))


@pytest.mark.parametrize("every", [1, 7, 1000])
@pytest.mark.parametrize("fraction", [2.0 / 3.0, 1.0, 0.5])
@pytest.mark.parametrize("grid", [32, 64, 128, 256])
def test_integrate_matches_full_spectrum_loop(grid, fraction, every, monkeypatch):
    monkeypatch.setattr(bonft.pde, "DEALIAS_FRACTION", fraction)
    assert_matches_full_loop(edge_potential(), edge_config(grid, every), fraction)


@pytest.mark.parametrize("T", [0.0005, 0.05])
def test_integrate_matches_full_spectrum_loop_at_compare_setting(T):
    assert_matches_full_loop(smooth_potential(0.4), compare_config(T))


def test_config_validation():
    with pytest.raises(ValueError):
        IntegratorConfig(grid_size=100, dt=1e-3, times=(1.0,))
    with pytest.raises(ValueError):
        IntegratorConfig(grid_size=2, dt=1e-3, times=(1.0,))
    with pytest.raises(ValueError):
        IntegratorConfig(grid_size=256, dt=-1e-3, times=(1.0,))
    with pytest.raises(ValueError, match="every time must be a multiple of dt=0.001"):
        IntegratorConfig(grid_size=256, dt=1e-3, times=(0.5, 1.0005))
    with pytest.raises(ValueError, match="time 0.0001 is shorter than one step dt=0.001"):
        IntegratorConfig(grid_size=256, dt=1e-3, times=(1.0, 1e-4))
    with pytest.raises(ValueError, match="time grid must be positive"):
        IntegratorConfig(grid_size=256, dt=1e-3, times=(1.0, 0.0))
    with pytest.raises(ValueError, match="time grid must be finite"):
        IntegratorConfig(grid_size=256, dt=1e-3, times=(1.0, np.inf))


def test_config_sorts_times_and_counts_their_steps():
    cfg = IntegratorConfig(grid_size=64, dt=1e-3, times=(0.5, 0.25, 0.5))
    assert cfg.times == (0.25, 0.5, 0.5)
    assert cfg.steps == (250, 500, 500)
    assert (cfg.T, cfg.dt) == (0.5, 1e-3)
    with pytest.raises(ValueError, match="time grid must be positive"):
        IntegratorConfig(grid_size=64, dt=1e-3, times=())


def test_integrate_keeps_exactly_the_requested_samples():
    cfg = IntegratorConfig(grid_size=64, dt=1e-3, times=(0.005, 0.002, 0.005))
    traj = integrate(smooth_potential(), cfg)
    times, coeffs = integrate_loop_half(smooth_potential(), cfg)
    assert len(traj.coeffs) == 4
    assert np.array_equal(traj.times, times)
    assert np.array_equal(traj.coeffs, coeffs)


def test_blow_up_stops_at_the_first_non_finite_state():
    # one sample at t = 2000: between samples only mode 1 is read, and the
    # run still ends at the step where the oracle loop first leaves the floats
    u0 = Potential(0.5, 2, {1: 0.2 + 0.1j, 2: -0.15j}, real=True)
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # the phase budget
        with pytest.raises(NumericalFailure, match="^non-finite state at t=4$"):
            integrate(u0, IntegratorConfig(grid_size=32, dt=1.0, times=(2000.0,)))
        _, coeffs = integrate_loop(u0, IntegratorConfig(grid_size=32, dt=1.0,
                                                        times=(1, 2, 3, 4)))
    assert np.isfinite(coeffs[:4]).all() and not np.isfinite(coeffs[4]).all()


def test_rejects_bad_initial_data():
    with pytest.raises(ValueError):
        integrate(Potential(0.5, 1, {1: 0.1}, real=False),
                  IntegratorConfig(grid_size=64, dt=1e-3, times=(0.01,)))
    with pytest.raises(ValueError):
        integrate(Potential(0.5, 20, {20: 0.1}, real=True),
                  IntegratorConfig(grid_size=64, dt=1e-3, times=(0.01,)))


def test_mean_pinned_and_real():
    traj = integrate(smooth_potential(), IntegratorConfig(
        grid_size=64, dt=1e-3, times=np.arange(1, 6) / 100))
    # modes 0..grid/2 of a real state: irfft drops the imaginary parts of
    # the mean and the top bin, and both bins hold exactly 0
    assert traj.coeffs.shape == (6, 33)
    assert np.all(traj.coeffs[:, 0] == 0)
    assert np.all(traj.coeffs[:, traj.band + 1:] == 0)


def test_energy_conserved():
    u0 = smooth_potential()
    traj = integrate(u0, IntegratorConfig(grid_size=64, dt=5e-4,
                                          times=np.arange(1, 5) / 20))
    h0 = hamiltonian_phys(u0.nonzero_coeffs())
    for i in range(len(traj.times)):
        hi = hamiltonian_phys(sample_coeffs(traj.coeffs[i], traj.band))
        assert abs(hi - h0) < 1e-10


def test_fourth_order_in_dt():
    u0 = smooth_potential(0.4)
    T = 0.1

    def final(dt):
        traj = integrate(u0, IntegratorConfig(grid_size=64, dt=dt, times=(T,)))
        return traj.coeffs[-1]

    ref = final(T / 640)
    errs = [np.max(np.abs(final(T / k) - ref)) for k in (20, 40, 80)]
    orders = [np.log2(a / b) for a, b in zip(errs, errs[1:])]
    assert all(o > 3.7 for o in orders), orders


def test_initial_slope_matches_modewise_equation():
    u0 = smooth_potential(0.3)
    dt = 1e-5
    traj = integrate(u0, IntegratorConfig(grid_size=64, dt=dt, times=(dt, 2 * dt)))
    mid = direct_bo_rhs(traj.coeffs[1])
    mid[0] = 0.0
    slope = (traj.coeffs[2] - traj.coeffs[0]) / (2 * dt)
    band = np.arange(33) <= 6
    assert np.max(np.abs(slope - mid)[band]) < 1e-7


def test_isospectral_audit_small():
    traj = integrate(smooth_potential(0.15), IntegratorConfig(
        grid_size=64, dt=5e-4, times=np.arange(1, 5) / 40))
    samples = [sample_coeffs(c, traj.band) for c in traj.coeffs]
    assert isospectral_audit(samples, 64, 32) < 1e-10


def test_residual_is_small_in_dt():
    traj = integrate(smooth_potential(0.2), IntegratorConfig(
        grid_size=64, dt=1e-3, times=np.arange(1, 21) / 1000))
    # central differences in t limit the defect, not the scheme
    assert equation_residual(traj, 0.5) < 1e-2
    short = Trajectory(traj.times[:2], traj.coeffs[:2], traj.band)
    with pytest.raises(ValueError):
        equation_residual(short, 0.5)


def test_step_past_the_phase_budget_warns():
    # dt (grid/2)^2 = 0.01 * 128^2 radians per step at the top mode
    cfg = IntegratorConfig(grid_size=256, dt=0.01, times=(0.01,))
    with pytest.warns(TruncationWarning, match="dt=0.01 spins the top mode 164 radians per step"):
        integrate(smooth_potential(), cfg)
