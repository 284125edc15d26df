import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import bonft
from bonft.continuity import ContinuityConfig, probe_indices, ratio_slope, sweep
from oracles import dense_probe


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


@pytest.mark.parametrize("s", ["-0.01", "-1e-300"])
def test_small_s_searches_only_up_to_max_m(s):
    """The window around the target 1 runs to 1.5^(1/|s|): about 4e17 at
    s = -0.01, and past every float at -1e-300.  Only the multiples of k up
    to max_m are searched, so each run ends at once with the one probe m = k,
    which is too few for a slope.  A subprocess, so an unbounded search
    fails by its timeout."""
    src = str(Path(bonft.__file__).parents[1])
    out = subprocess.run([sys.executable, "-m", "bonft.cli", "continuity", "--s=" + s,
                          "--format", "json"], capture_output=True, text=True,
                         timeout=20, env=dict(os.environ, PYTHONPATH=src))
    assert (out.returncode, out.stdout, out.stderr) == (
        1, "", "error: need at least two rows to fit a slope\n")
    assert probe_indices(ContinuityConfig(s=float(s))) == [2]


def test_build_pair_distances_and_flags():
    cfg = ContinuityConfig(s=-0.3, base=(0.05, 0.02))
    delta = cfg.delta_value()
    zeta, xi, row = dense_probe(cfg.s, cfg.t, cfg.base, delta, 40)
    assert len(zeta) == len(xi) == 40
    assert zeta[2] == 0 and np.array_equal(zeta[:39], xi[:39])
    amp = delta / 40 ** (0.5 + cfg.s)
    assert zeta[39] == pytest.approx(amp)
    assert xi[39] == pytest.approx(amp * (1 + 1j * 40 ** (cfg.s / 2)))
    assert row["d0"] == pytest.approx(delta * 40 ** (cfg.s / 2), rel=1e-12)
    with pytest.raises(ValueError):
        dense_probe(cfg.s, cfg.t, cfg.base, delta, 2)
    # the sweep never places a probe on the base support
    based = ContinuityConfig(s=-0.45, k=1, base=(0.01,) * 5, max_m=4000)
    assert min(probe_indices(based)) > 5


@pytest.mark.parametrize("s, k, max_m", [(-0.45, 8, 20000), (-0.25, 2, 20000),
                                         (-0.1, 2, 120000)])
def test_sparse_probes_equal_the_dense_oracle(s, k, max_m):
    # with no base, each norm sums a single nonzero term, so every bit agrees
    cfg = ContinuityConfig(s=s, k=k, max_m=max_m, max_probes=40)
    rows = sweep(cfg)
    assert len(rows) >= 2
    for row in rows:
        assert row == dense_probe(s, cfg.t, (), cfg.delta_value(), row["m"])[2]


@pytest.mark.parametrize("n_base", range(1, 9))
def test_sparse_probes_with_a_base_match_the_dense_oracle(n_base):
    # np.sum groups the base terms differently on the two supports: 1 ulp
    rng = np.random.default_rng(n_base)
    base = 0.01 * (rng.standard_normal(n_base) + 1j * rng.standard_normal(n_base))
    cfg = ContinuityConfig(s=-0.35, k=2, base=tuple(base), max_m=20000, max_probes=40)
    rows = sweep(cfg)
    assert len(rows) >= 2
    for row in rows:
        want = dense_probe(cfg.s, cfg.t, cfg.base, cfg.delta_value(), row["m"])[2]
        assert row.keys() == want.keys()
        for key, value in want.items():
            assert row[key] == pytest.approx(value, rel=1e-15, abs=0), key


def test_sweep_memory_stays_on_the_probe_support():
    # verify's setting: probes reach m = 131,840; dense arrays of that length
    # take tens of MB
    cfg = ContinuityConfig(s=-0.45, k=8, max_m=600000, max_probes=40)
    tracemalloc.start()
    try:
        rows = sweep(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(rows) == 40 and rows[-1]["m"] > 10 ** 5
    assert peak < 10 ** 6


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
