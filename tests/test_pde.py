import numpy as np
import pytest

from bonft.hardy import Potential
import bonft.pde
from bonft.pde import IntegratorConfig, Trajectory, integrate
from oracles import (direct_bo_rhs, equation_residual, hamiltonian_phys,
                     integrate_loop, isospectral_audit)


def smooth_potential(scale=0.1):
    return Potential(0.5, 3, {1: scale, 2: 0.4 * scale * 1j, 3: 0.2 * scale},
                     real=True)


def edge_potential():
    """Band 8 content: at grid 32 its square reaches past the 2/3 and 1/2 cuts."""
    return Potential(0.5, 8, {1: 0.3, 2: 0.12j, 3: 0.06, 8: 0.05 - 0.02j},
                     real=True)


@pytest.mark.parametrize("store_every", [1, 7, 1000])
@pytest.mark.parametrize("fraction", [2.0 / 3.0, 1.0, 0.5])
@pytest.mark.parametrize("grid", [32, 64, 128, 256])
def test_integrate_matches_loop_oracle_exactly(grid, fraction, store_every, monkeypatch):
    # integrate() reads the 2/3 rule from the module; patching it moves the cut
    monkeypatch.setattr(bonft.pde, "DEALIAS_FRACTION", fraction)
    # 23 steps: not a multiple of 7, so the last sample is off the stride
    cfg = IntegratorConfig(grid_size=grid, dt=0.03 / 23, T=0.03,
                           store_every=store_every)
    traj = integrate(edge_potential(), cfg)
    times, coeffs = integrate_loop(edge_potential(), cfg, fraction)
    assert np.array_equal(traj.times, times)
    assert np.array_equal(traj.coeffs, coeffs)


@pytest.mark.parametrize("T", [0.0, 0.05])
def test_integrate_matches_loop_oracle_at_compare_setting(T):
    cfg = IntegratorConfig(grid_size=256, dt=2.5e-4, T=T, store_every=100)
    traj = integrate(smooth_potential(0.4), cfg)
    times, coeffs = integrate_loop(smooth_potential(0.4), cfg)
    assert np.array_equal(traj.times, times)
    assert np.array_equal(traj.coeffs, coeffs)


def test_config_validation():
    with pytest.raises(ValueError):
        IntegratorConfig(grid_size=100)
    with pytest.raises(ValueError):
        IntegratorConfig(grid_size=2)
    with pytest.raises(ValueError):
        IntegratorConfig(dt=-1e-3)
    with pytest.raises(ValueError):
        IntegratorConfig(store_every=0)


def test_rejects_bad_initial_data():
    with pytest.raises(ValueError):
        integrate(Potential(0.5, 1, {1: 0.1}, real=False),
                  IntegratorConfig(grid_size=64, T=0.01))
    with pytest.raises(ValueError):
        integrate(Potential(0.5, 20, {20: 0.1}, real=True),
                  IntegratorConfig(grid_size=64, T=0.01))


def test_mean_pinned_and_real():
    traj = integrate(smooth_potential(), IntegratorConfig(
        grid_size=64, dt=1e-3, T=0.05, store_every=10))
    assert np.all(traj.coeffs[:, 0] == 0)
    for i in range(len(traj.times)):
        c = traj.coeffs[i]
        # reality: c(-n) = conj(c(n)) on the grid
        assert np.max(np.abs(c[1:] - np.conj(c[1:][::-1]))) < 1e-13


def test_energy_conserved():
    u0 = smooth_potential()
    traj = integrate(u0, IntegratorConfig(grid_size=64, dt=5e-4, T=0.2,
                                          store_every=100))
    h0 = hamiltonian_phys(u0.nonzero_coeffs())
    for i in range(len(traj.times)):
        hi = hamiltonian_phys(traj.potential_at(i).nonzero_coeffs())
        assert abs(hi - h0) < 1e-10


def test_fourth_order_in_dt():
    u0 = smooth_potential(0.4)
    T = 0.1

    def final(dt):
        traj = integrate(u0, IntegratorConfig(grid_size=64, dt=dt, T=T,
                                              store_every=10 ** 9))
        return traj.coeffs[-1]

    ref = final(T / 640)
    errs = [np.max(np.abs(final(T / k) - ref)) for k in (20, 40, 80)]
    orders = [np.log2(a / b) for a, b in zip(errs, errs[1:])]
    assert all(o > 3.7 for o in orders), orders


def test_initial_slope_matches_modewise_equation():
    u0 = smooth_potential(0.3)
    dt = 1e-5
    traj = integrate(u0, IntegratorConfig(grid_size=64, dt=dt, T=2 * dt))
    n = np.fft.fftfreq(64, d=1.0 / 64).astype(int)
    mid = direct_bo_rhs(traj.coeffs[1], n)
    mid[0] = 0.0
    slope = (traj.coeffs[2] - traj.coeffs[0]) / (2 * dt)
    band = np.abs(n) <= 6
    assert np.max(np.abs(slope - mid)[band]) < 1e-7


def test_isospectral_audit_small():
    traj = integrate(smooth_potential(0.15), IntegratorConfig(
        grid_size=64, dt=5e-4, T=0.1, store_every=50))
    samples = [traj.potential_at(i).nonzero_coeffs() for i in range(len(traj.times))]
    assert isospectral_audit(samples, 64, 32) < 1e-10


def test_residual_is_small_in_dt():
    traj = integrate(smooth_potential(0.2), IntegratorConfig(
        grid_size=64, dt=1e-3, T=0.02, store_every=1))
    # central differences in t limit the defect, not the scheme
    assert equation_residual(traj) < 1e-2
    short = Trajectory(traj.times[:2], traj.coeffs[:2], traj.s, traj.band)
    with pytest.raises(ValueError):
        equation_residual(short)


def test_potential_at_trims_declared_band():
    traj = integrate(smooth_potential(), IntegratorConfig(
        grid_size=128, dt=1e-3, T=0.01))
    u = traj.potential_at(0)
    assert u.N <= 10  # content, not the 42-mode dealias band
    assert u.coeff(1) == pytest.approx(0.1)


def test_zero_time_returns_initial_sample():
    u0 = smooth_potential()
    traj = integrate(u0, IntegratorConfig(grid_size=64, dt=1e-3, T=0.0))
    assert len(traj.times) == 1
    assert traj.potential_at(0).coeff(2) == pytest.approx(u0.coeff(2))
