import math

import numpy as np
import pytest

from bonft.continuity import (ContinuityConfig, build_pair, probe_indices,
                              ratio_slope, sweep)


def test_config_validation():
    for bad in ({"s": 0.0}, {"s": -0.5}, {"s": 0.25}, {"t": 0.0},
                {"t": float("inf")}, {"k": 0}, {"delta": 0.0},
                {"delta": 11.0}, {"base": (float("nan"),)}):
        with pytest.raises(ValueError):
            ContinuityConfig(**bad)


def test_resonant_delta_closed_form():
    cfg = ContinuityConfig(s=-0.25, t=2.0, k=3)
    assert cfg.delta_value() == pytest.approx(
        math.sqrt(math.pi * 3 ** -0.25 / 4.0))
    assert ContinuityConfig(delta=0.7).delta_value() == 0.7


def test_probe_indices_hit_odd_windows():
    cfg = ContinuityConfig(s=-0.45, k=8, max_m=4000)
    probes = probe_indices(cfg)
    assert probes == sorted(probes)
    assert all(m % 8 == 0 for m in probes)
    for m in probes:
        frac = (8.0 / m) ** -0.45  # (k/m)^s = (m/k)^{-s}
        assert abs(frac - round(frac)) <= 0.5
        assert round(frac) % 2 == 1
    assert probes[0] == 8


def test_probe_exhaustion():
    none = ContinuityConfig(s=-0.45, k=8, max_m=7)
    assert probe_indices(none) == []


def test_build_pair_distances_and_flags():
    cfg = ContinuityConfig(s=-0.3, base=(0.05, 0.02))
    zeta, xi = build_pair(cfg, 40)
    assert zeta.real_flag and xi.real_flag
    assert zeta.n_modes == xi.n_modes == 40
    assert zeta.coord(3) == 0
    delta = cfg.delta_value()
    amp = delta / 40 ** (0.5 + cfg.s)
    assert zeta.coord(40) == pytest.approx(amp)
    assert xi.coord(40) == pytest.approx(amp * (1 + 1j * 40 ** (cfg.s / 2)))
    with pytest.raises(ValueError):
        build_pair(cfg, 2)


def test_sweep_rows_and_bound():
    cfg = ContinuityConfig(s=-0.45, k=8, max_m=2000, max_probes=4)
    rows = sweep(cfg)
    assert len(rows) == 4
    keys = {"m", "delta", "d0", "dt", "ratio", "omega_gap_pred",
            "omega_gap_meas", "phase_bound_ok"}
    for row in rows:
        assert keys <= set(row)
        assert row["phase_bound_ok"]
        assert row["dt"] >= (math.sqrt(1 + row["m"] ** cfg.s)
                             - row["m"] ** (cfg.s / 2)) * row["delta"] - 1e-12
        assert row["omega_gap_meas"] == pytest.approx(row["omega_gap_pred"],
                                                      rel=1e-10)
    # the initial distances shrink while the evolved ones stay bounded below
    d0s = [row["d0"] for row in rows]
    assert all(b < a for a, b in zip(d0s, d0s[1:]))
    ratios = [row["ratio"] for row in rows]
    assert all(b > a for a, b in zip(ratios, ratios[1:]))


def test_sweep_without_probes_raises():
    with pytest.raises(ValueError):
        sweep(ContinuityConfig(s=-0.45, k=8, max_m=7))


def test_ratio_slope():
    rows = [{"m": 10.0, "ratio": 2.0}, {"m": 100.0, "ratio": 4.0}]
    assert ratio_slope(rows) == pytest.approx(np.log(2.0) / np.log(10.0))
    with pytest.raises(ValueError):
        ratio_slope(rows[:1])
