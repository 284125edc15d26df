import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import bonft
from bonft import cli
from bonft.continuity import probe_indices, ratio_slope, sweep
from oracles import dense_probe, probe_indices_scan


# the continuity verb's defaults
DEFAULTS = dict(s=-0.25, t=1.0, base=(), k=2, max_m=10 ** 6, delta=None, max_probes=12)


def test_config_validation():
    for bad in ({"s": 0.0}, {"s": -0.5}, {"s": 0.25}, {"t": 0.0},
                {"t": float("inf")}, {"k": 0}, {"delta": 0.0},
                {"delta": 1e160}, {"base": (float("nan"),)}):
        with pytest.raises(ValueError):
            sweep(**{**DEFAULTS, **bad})


def test_resonant_delta_closed_form():
    rows = sweep(**{**DEFAULTS, "t": 2.0, "k": 3})
    assert rows[0]["delta"] == pytest.approx(
        math.sqrt(math.pi * 3 ** -0.25 / 4.0))
    assert sweep(**{**DEFAULTS, "delta": 0.7})[0]["delta"] == 0.7


def _assert_in_odd_windows(probes, s, k):
    assert probes == sorted(probes)
    assert all(m % k == 0 for m in probes)
    for m in probes:
        frac = (k / m) ** s  # (k/m)^s = (m/k)^{-s}
        assert abs(frac - round(frac)) <= 0.5
        assert round(frac) % 2 == 1


def test_probe_indices_hit_odd_windows():
    probes = probe_indices(-0.45, 8, 4000, 0, 12)
    _assert_in_odd_windows(probes, -0.45, 8)
    assert probes[0] == 8


def test_probe_indices_reach_max_m_1e12():
    # a scan of every multiple in each window would score about 2.3e11 of them
    probes = probe_indices(-0.1, 2, 10 ** 12, 0, 40)
    _assert_in_odd_windows(probes, -0.1, 2)
    assert len(probes) >= 2 and probes[-1] <= 10 ** 12


@pytest.mark.parametrize("s", [-1e-300, -0.01, -0.05, -0.1, -0.25, -1 / 3, -0.45, -0.499])
def test_probe_indices_equal_the_window_scan(s):
    # the closed form scores at most two multiples per window; the scan all
    for k, max_m, n_base, max_probes in itertools.product(
            (1, 2, 3, 8, 13), (7, 200, 20000), (0, 5, 40), (2, 12, 400)):
        args = (s, k, max_m, n_base, max_probes)
        assert probe_indices(*args) == probe_indices_scan(*args), args


def test_probe_indices_window_clipped_by_the_base():
    # at s = -0.45, k = 1 the window around q = 3 is j = 8..16 with its target
    # 3^(1/0.45) = 11.5 inside; a base of 12 modes clips it to 13..16, so the
    # target lies below the clipped window and its lower end wins
    probes = probe_indices(-0.45, 1, 20000, 12, 3)
    assert probes[0] == 13
    assert probes == probe_indices_scan(-0.45, 1, 20000, 12, 3)


def test_probe_exhaustion():
    assert probe_indices(-0.45, 8, 7, 0, 12) == []


@pytest.mark.parametrize("s", ["-0.01", "-1e-300"])
def test_small_s_searches_only_up_to_max_m(s):
    """The window around the target 1 runs to 1.5^(1/|s|): about 4e17 at
    s = -0.01, and past every float at -1e-300.  Only the multiples of k up
    to max_m are searched, so each run ends at once with the one probe m = k,
    which sweep rejects: one probe shows no growth rate.  A subprocess, so an
    unbounded search fails by its timeout."""
    src = str(Path(bonft.__file__).parents[1])
    out = subprocess.run([sys.executable, "-m", "bonft.cli", "continuity", "--s=" + s,
                          "--format", "json"], capture_output=True, text=True,
                         timeout=20, env=dict(os.environ, PYTHONPATH=src))
    assert (out.returncode, out.stdout, out.stderr) == (
        1, "", "error: need at least two probes for a growth rate, found 1\n")
    assert probe_indices(float(s), 2, 10 ** 6, 0, 12) == [2]


def test_build_pair_distances_and_flags():
    s, t, base = -0.3, 1.0, (0.05, 0.02)
    delta = math.sqrt(math.pi * 2 ** s / 2.0)
    zeta, xi, row = dense_probe(s, t, base, delta, 40)
    assert len(zeta) == len(xi) == 40
    assert zeta[2] == 0 and np.array_equal(zeta[:39], xi[:39])
    amp = delta / 40 ** (0.5 + s)
    assert zeta[39] == pytest.approx(amp)
    assert xi[39] == pytest.approx(amp * (1 + 1j * 40 ** (s / 2)))
    assert row["d0"] == pytest.approx(delta * 40 ** (s / 2), rel=1e-12, abs=0)
    with pytest.raises(ValueError):
        dense_probe(s, t, base, delta, 2)
    # the sweep never places a probe on the base support
    assert min(probe_indices(-0.45, 1, 4000, 5, 12)) > 5


@pytest.mark.parametrize("s, k, max_m", [(-0.45, 8, 20000), (-0.25, 2, 20000),
                                         (-0.1, 2, 120000)])
def test_sparse_probes_equal_the_dense_oracle(s, k, max_m):
    # with no base, each norm sums a single nonzero term, so every bit agrees
    rows = sweep(s, 1.0, (), k, max_m, None, 40)
    assert len(rows) >= 2
    for row in rows:
        assert row == dense_probe(s, 1.0, (), row["delta"], row["m"])[2]


def test_given_delta_keeps_rows_that_miss_the_phase_bound():
    # the separation bound needs the phase bound; a given delta need not meet
    # it, so those rows are reported with phase_bound_ok False, not raised on
    rows = sweep(-0.45, 1.0, (), 8, 4000, 0.7, 12)
    assert len(rows) >= 2
    assert any(not row["phase_bound_ok"] for row in rows)
    for row in rows:
        assert row == dense_probe(-0.45, 1.0, (), 0.7, row["m"])[2]


@pytest.mark.parametrize("n_base", range(1, 9))
def test_sparse_probes_with_a_base_match_the_dense_oracle(n_base):
    # np.sum groups the base terms differently on the two supports: 1 ulp
    rng = np.random.default_rng(n_base)
    base = 0.01 * (rng.standard_normal(n_base) + 1j * rng.standard_normal(n_base))
    rows = sweep(-0.35, 1.0, tuple(base), 2, 20000, None, 40)
    assert len(rows) >= 2
    for row in rows:
        want = dense_probe(-0.35, 1.0, tuple(base), row["delta"], row["m"])[2]
        assert row.keys() == want.keys()
        for key, value in want.items():
            assert row[key] == pytest.approx(value, rel=1e-15, abs=0), key


@pytest.mark.parametrize("s, k, t, max_m", [
    (-0.45, 8, 1.0, 600000), (-0.25, 2, 1.0, 10 ** 6), (-0.25, 2, -3.0, 10 ** 6),
    (-0.25, 2, 1e6, 10 ** 6), (-0.25, 2, 1e12, 2000), (-0.1, 2, 1.0, 10 ** 12)])
def test_dt_equals_its_closed_form_to_rounding(s, k, t, max_m):
    # with no base, dt = delta |1 - (1 + i m^{s/2}) e^{-itg}| at the measured
    # gap g; the relative phase e^{it Delta} carries no rounding from the two
    # states' own shifts
    rows = sweep(s, t, (), k, max_m, None, 40)
    assert len(rows) >= 2
    for row in rows:
        phase = np.exp(-1j * t * row["omega_gap_meas"])
        want = row["delta"] * abs(1 - (1 + 1j * row["m"] ** (s / 2)) * phase)
        assert row["dt"] == pytest.approx(want, rel=1e-14, abs=0), row["m"]


@pytest.mark.parametrize("argv", [["--n-base", "3", "--max-m", "100000", "--t", "1e20"],
                                  ["--n-base", "1", "--max-m", "100000", "--t", "3e21"]])
def test_base_at_large_t_shows_no_counterexample(argv, capsys):
    # both states' shifts carry the base's (about 1e-3); rotating each by
    # t Omega read the gap and dt as rounding noise once t |Omega| passed 1e16
    assert cli.main(["continuity"] + argv) == 0


@pytest.mark.parametrize("flags", [
    [], ["--max-m", "2000"], ["--s", "-0.45", "--k", "8", "--max-m", "4000"],
    ["--s", "-0.05", "--max-m", "1000000000000"], ["--n-base", "3"]],
    ids=["default", "max-m-2000", "criterion-12", "small-s", "base-3"])
def test_no_float_range_artefact_is_a_counterexample(flags, capsys):
    # t across the float range, with its resonant delta, and given deltas near
    # the edges: each run sweeps to finite rows, or rejects its delta as
    # invalid input
    runs = [["--t=" + t] for t in ("-1e-310", "5e-304", "1e20", "-1e299", "1e305",
                                   "9e307", "1.797e308")]
    for extra in runs + [["--delta", "1e-150"], ["--delta", "1e-154"],
                         ["--delta", "1e-3", "--t", "1e308"], ["--delta", "1", "--t", "2e307"]]:
        code = cli.main(["continuity"] + flags + extra)
        out, err = capsys.readouterr()
        assert (code == 0 and "nan" not in out) or (
            code == 1 and "leaves the float range" in err), (extra, err)


def test_sweep_memory_stays_on_the_probe_support():
    # verify's setting: probes reach m = 131,840; dense arrays of that length
    # take tens of MB
    tracemalloc.start()
    try:
        rows = sweep(-0.45, 1.0, (), 8, 600000, None, 40)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(rows) == 40 and rows[-1]["m"] > 10 ** 5
    assert peak < 10 ** 6


def test_sweep_rows_and_bound():
    s = -0.45
    rows = sweep(s, 1.0, (), 8, 2000, None, 4)
    assert len(rows) == 4
    keys = {"m", "delta", "d0", "dt", "ratio", "omega_gap_pred",
            "omega_gap_meas", "phase_bound_ok"}
    for row in rows:
        assert keys <= set(row)
        assert row["phase_bound_ok"]
        assert row["dt"] >= (math.sqrt(1 + row["m"] ** s)
                             - row["m"] ** (s / 2)) * row["delta"] - 1e-12
        assert row["omega_gap_meas"] == pytest.approx(row["omega_gap_pred"],
                                                      rel=1e-10, abs=0)
    # the initial distances shrink while the evolved ones stay bounded below
    d0s = [row["d0"] for row in rows]
    assert all(b < a for a, b in zip(d0s, d0s[1:]))
    ratios = [row["ratio"] for row in rows]
    assert all(b > a for a, b in zip(ratios, ratios[1:]))


def test_sweep_without_probes_raises():
    with pytest.raises(ValueError):
        sweep(-0.45, 1.0, (), 8, 7, None, 12)


def test_ratio_slope():
    rows = [{"m": 10.0, "ratio": 2.0}, {"m": 100.0, "ratio": 4.0}]
    assert ratio_slope(rows) == pytest.approx(np.log(2.0) / np.log(10.0))
    with pytest.raises(ValueError):
        ratio_slope(rows[:1])
