import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from bonft import cli, flow, pde
from bonft.birkhoff import state_from_json
from bonft.hardy import potential_from_json, potential_to_json
from test_golden import CASES, GOLDEN, STATE, U, UC

pytestmark = pytest.mark.filterwarnings(
    "ignore::bonft.errors.TruncationWarning")


@pytest.fixture
def potential_file(tmp_path):
    obj = potential_to_json(__import__("bonft").Potential(
        0.5, 2, {1: 0.02 + 0.01j, 2: -0.015j}, real=True))
    path = tmp_path / "u.json"
    path.write_text(json.dumps(obj))
    return str(path)


def test_transform_then_inverse_round_trip(tmp_path, potential_file):
    state_path = str(tmp_path / "state.json")
    rc = cli.main(["transform", "-i", potential_file, "-o", state_path,
                   "--lax-dim", "48"])
    assert rc == 0
    state = state_from_json(json.loads(Path(state_path).read_text()))
    assert state.real_flag
    back_path = str(tmp_path / "back.json")
    rc = cli.main(["inverse", "-i", state_path, "-o", back_path,
                   "--lax-dim", "48"])
    assert rc == 0
    u = potential_from_json(json.loads(Path(back_path).read_text()))
    want = potential_from_json(json.loads(Path(potential_file).read_text()))
    for n in (1, 2):
        assert u.coeff(n) == pytest.approx(want.coeff(n), abs=1e-9)


def test_spectrum_output_is_deterministic(tmp_path, potential_file):
    outs = []
    for name in ("a.json", "b.json"):
        path = str(tmp_path / name)
        assert cli.main(["spectrum", "-i", potential_file, "-o", path]) == 0
        outs.append(Path(path).read_bytes())
    assert outs[0] == outs[1]
    payload = json.loads(outs[0])
    assert payload["lambdas"][0] != payload["lambdas"][1]
    assert payload["K_use"] == 64 // 2 and len(payload["lambdas"]) == 64 // 2 + 1


def test_evolve_preserves_moduli(tmp_path, potential_file):
    state_path = str(tmp_path / "state.json")
    cli.main(["transform", "-i", potential_file, "-o", state_path,
              "--lax-dim", "48"])
    out_path = str(tmp_path / "later.json")
    assert cli.main(["evolve", "-i", state_path, "--t", "0.7",
                     "-o", out_path]) == 0
    before = state_from_json(json.loads(Path(state_path).read_text()))
    after = state_from_json(json.loads(Path(out_path).read_text()))
    for side in ("plus", "minus"):
        assert np.abs(getattr(after, side)[:2]) == pytest.approx(
            np.abs(getattr(before, side)[:2]), abs=1e-14)


def test_vanishing_csv_counts(tmp_path):
    path = str(tmp_path / "v.csv")
    assert cli.main(["vanishing", "--max-d", "2", "--l-bound", "2",
                     "-o", path]) == 0
    lines = Path(path).read_text().strip().splitlines()
    assert lines[0] == "check,count"
    rows = dict(line.split(",") for line in lines[1:])
    assert rows == {"exhaustive_d1": "5", "exhaustive_d2": "25",
                    "random": "0", "violations": "0"}


def test_combi_json_counts(tmp_path):
    path = str(tmp_path / "c.json")
    assert cli.main(["combi", "--max-d", "3", "--format", "json",
                     "-o", path]) == 0
    payload = json.loads(Path(path).read_text())
    assert payload["instances"] == {"1": 1, "2": 4, "3": 15}
    assert payload["violations"] == 0


def test_continuity_csv_columns(tmp_path):
    path = str(tmp_path / "cont.csv")
    assert cli.main(["continuity", "--s", "-0.45", "--k", "8",
                     "--max-m", "1500", "--max-probes", "3",
                     "-o", path]) == 0
    lines = Path(path).read_text().strip().splitlines()
    header = lines[0].split(",")
    assert header == ["m", "delta", "d0", "dt", "ratio", "omega_gap_pred",
                      "omega_gap_meas", "phase_bound_ok"]
    assert len(lines) == 4
    assert all(line.split(",")[-1] == "1" for line in lines[1:])


def test_continuity_given_delta_exits_0(tmp_path):
    # rows at m=288 and beyond miss the phase bound; they used to exit 3
    path = str(tmp_path / "cont.csv")
    assert cli.main(["continuity", "--s", "-0.45", "--k", "8", "--max-m", "4000",
                     "--delta", "0.7", "-o", path]) == 0
    lines = Path(path).read_text().strip().splitlines()
    assert any(line.split(",")[-1] == "0" for line in lines[1:])


@pytest.mark.parametrize("argv", [
    ["--t", "1e6"], ["--t", "1e12", "--max-m", "2000"],
    ["--t", "1e16", "--max-m", "2000"], ["--t", "1e20", "--max-m", "2000"]],
    ids=["t-1e6", "t-1e12", "t-1e16", "t-1e20"])
def test_continuity_at_large_t_exits_0(capsys, argv):
    # a phase with t m^2 in it lost dt's digits past t m^2 ~ 2^53 and reported
    # a false counterexample (exit 3)
    assert cli.main(["continuity"] + argv) == 0
    assert capsys.readouterr().err == ""


def test_bracket_small(tmp_path):
    path = str(tmp_path / "b.json")
    assert cli.main(["bracket", "--modes", "1", "--scale", "0.005",
                     "-o", path]) == 0
    payload = json.loads(Path(path).read_text())
    assert payload["max_dev_canonical"] < 1e-5
    assert payload["max_dev_holomorphic"] < 1e-5


def _state_doc(s=0.5, plus=(1,), minus=(-1,), **fields):
    """A one-mode real state document; plus and minus list its entries' indices,
    and fields replace or add top-level keys."""
    doc = {"s": s, "N_b": 1, "real": True,
           "plus": [{"n": n, "re": 0.1, "im": 0.0} for n in plus],
           "minus": [{"n": n, "re": 0.1, "im": 0.0} for n in minus]}
    return json.dumps({**doc, **fields})


def _potential_doc(s=0.5, coeffs=((1, 0.01),), **fields):
    """A one-mode potential document with (n, re) entries and im = 0; fields
    replace or add top-level keys."""
    doc = {"s": s, "N": 1, "coeffs": [{"n": n, "re": re, "im": 0.0} for n, re in coeffs]}
    return json.dumps({**doc, **fields})


@pytest.mark.parametrize("argv, stdin, message", [
    (["bracket", "--fd-step", "0"], None, "need a finite step h > 0, got 0.0"),
    (["bracket", "--fd-step=-1e-5"], None, "need a finite step h > 0, got -1e-05"),
    (["bracket", "--fd-step", "nan"], None, "need a finite step h > 0, got nan"),
    (["bracket", "--modes", "0"], None, "need n_max >= 1, got 0"),
    (["vanishing", "--max-d", "0"], None, "need max_d >= 1, got 0"),
    (["vanishing", "--l-bound", "-1"], None, "need l_bound >= 0, got -1"),
    (["vanishing", "--random-count", "-5"], None, "need random_count >= 0, got -5"),
    (["combi", "--max-d", "-2"], None, "need max_d >= 1, got -2"),
    (["continuity", "--n-base", "-1"], None, "need n_base >= 0, got -1"),
    (["continuity", "--max-probes", "0"], None, "need max_probes >= 2, got 0"),
    (["continuity", "--max-m", "0"], None, "need max_m >= 1, got 0"),
    (["continuity", "--s=-0.01"], None, "need at least two probes for a growth rate, found 1"),
    (["continuity", "--max-probes", "1"], None, "need max_probes >= 2, got 1"),
    (["continuity", "--max-m", "3"], None, "need at least two probes for a growth rate, found 1"),
    (["transform"], _potential_doc(s=float("inf")),
     "Sobolev exponent must be finite and > -1/2, got inf"),
    (["evolve", "--t", "1"], _state_doc(s=float("nan")),
     "Sobolev exponent must be finite and > -1/2, got nan"),
    (["transform"], _potential_doc(coeffs=((1, 0.01), (1, 0.5))), "duplicate index n=1"),
    (["transform"], _potential_doc(coeffs=((0, 0.01),)),
     "the mean coefficient n=0 is fixed at zero"),
    (["evolve", "--t", "1"], _state_doc(plus=(1, 1)), "duplicate index n=1"),
    (["evolve", "--t", "1"], _state_doc(minus=(-1, -1)), "duplicate index n=-1"),
    (["transform"], _potential_doc(N=1.9), "N must be a JSON integer, got 1.9"),
    (["transform"], _potential_doc(coeffs=((1.7, 0.01),)), "n must be a JSON integer, got 1.7"),
    (["transform"], _potential_doc(coeffs=((True, 0.01),)), "n must be a JSON integer, got True"),
    (["evolve", "--t", "1"], _state_doc(N_b=1.0), "N_b must be a JSON integer, got 1.0"),
    (["evolve", "--t", "1"], _state_doc(plus=(1.5,)), "n must be a JSON integer, got 1.5"),
    (["transform"], _potential_doc(real="false"), "real must be a JSON boolean, got 'false'"),
    (["evolve", "--t", "1"], _state_doc(real="false"), "real must be a JSON boolean, got 'false'"),
    (["evolve", "--t", "1"], _state_doc(real=1), "real must be a JSON boolean, got 1"),
    (["transform"], '{"s": "0.5", "N": 1, "coeffs": [{"n": 1, "re": "0.01", "im": true}]}',
     "s must be a JSON number, got '0.5'"),
    (["evolve", "--t", "1"], _state_doc().replace(', "im": 0.0}', "}"),
     "malformed state object: 'im'"),
    (["evolve", "--t", "1"], _state_doc(N_b=0, plus=(), minus=()), "need N_b >= 1, got 0"),
    (["evolve", "--t", "1"], _state_doc(N_b=-1, plus=(), minus=()), "need N_b >= 1, got -1"),
    (["evolve", "--t", "inf"], _state_doc(), "need a finite time t, got inf"),
    (["evolve", "--t", "nan"], _state_doc(), "need a finite time t, got nan"),
    (["inverse", "--tol-newton", "inf"], _state_doc(),
     "Newton tolerance must be finite and > 0, got inf"),
    (["inverse", "--tol-newton", "0"], _state_doc(),
     "Newton tolerance must be finite and > 0, got 0.0"),
    (["bracket", "--s", "0.5"], None, "unrecognized arguments: --s 0.5"),
    (["bracket", "--sc", "0.02"], None, "unrecognized arguments: --sc 0.02"),
    (["compare", "--mode", "4"], None, "unrecognized arguments: --mode 4"),
    (["bracket", "--format", "json"], None, "unrecognized arguments: --format json"),
    (["transform", "--format", "csv"], None, "unrecognized arguments: --format csv"),
    (["transform", "--lax-dim", "1", "--modes", "1"], _potential_doc(N=2),
     "truncation M=1 cannot hold a band of width N=2"),
    (["transform"], _potential_doc(N=0, coeffs=()), "mode cutoff must be >= 1, got 0"),
    (["transform"], _potential_doc(coeffs=((2, 0.01),)), "coefficient index 2 outside cutoff N=1"),
    (["transform"], _potential_doc(coeffs=((-1, 0.01),), real=True),
     "real potentials store n >= 1 only; the reflection is implied"),
    (["transform"], _potential_doc(coeffs=((1, float("nan")),)),
     "coefficient at n=1 is not finite"),
    (["transform"], _potential_doc(coeffs=((1, 0.25),)).replace("0.25", "1e400"),
     "coefficient at n=1 is not finite"),
    (["evolve", "--t", "1"], _state_doc(plus=(2,)), "index 2 outside 1..1"),
    (["evolve", "--t", "1"], _state_doc(minus=(1,)), "index 1 outside -1..-1"),
    (["inverse", "-i", os.path.join(GOLDEN, "transform_complex.json")], None,
     "inversion is defined for real-flagged targets"),
    (["inverse", "-i", STATE, "--lax-dim", "4"], None, "k_use=8 must lie in 1..M=4"),
    (["compare", "-i", U, "--t", "abc"], None,
     "bad time grid 'abc'; want comma-separated floats"),
    (["compare", "-i", U, "--t", "0,0.5"], None, "time grid must be positive"),
    (["compare", "-i", U, "--t", "-0.5"], None, "time grid must be positive"),
    (["continuity", "--t", "1e308", "--max-m", "2000"], None,
     "delta=1.14929e-154 at t=1e+308 leaves the float range at probe m=1250"),
    (["continuity", "--t", "9e307", "--max-m", "2000"], None,
     "delta=1.21146e-154 at t=9e+307 leaves the float range at probe m=1250"),
    (["continuity", "--delta", "1e-154"], None,
     "delta=1e-154 at t=1 leaves the float range at probe m=559682"),
    (["continuity", "--t=1e-307", "--max-m", "2000"], None,
     "delta=3.63439e+153 at t=1e-307 leaves the float range at probe m=1250"),
    (["continuity", "--t", "1e305", "--s", "-0.05", "--max-m", "1000000000000"], None,
     "delta=3.89524e-153 at t=1e+305 leaves the float range at probe m=6973568802"),
    (["continuity", "--delta", "1", "--t", "2e307", "--max-m", "2000"], None,
     "delta=1 at t=2e+307 leaves the float range at probe m=1250"),
    (["compare", "-i", U, "--t", "1e300", "--dt", "1e-10"], None,
     "the step count T/dt is not finite (T=1e+300, dt=1e-10)"),
    (["compare", "-i", U, "--t", "0.05", "--dt", "5e-324"], None,
     "the step count T/dt is not finite (T=0.05, dt=4.94066e-324)"),
    (["transform", "-i", U, "--lax-dim", "100000000000000000000000000000"], None,
     "truncation M=100000000000000000000000000000 too large for an array"),
], ids=["fd-step-0", "fd-step-negative", "fd-step-nan", "bracket-modes-0", "max-d-0",
        "l-bound-negative", "random-count-negative", "combi-max-d-negative",
        "n-base-negative", "max-probes-0", "max-m-0", "continuity-small-s-one-probe",
        "continuity-max-probes-1", "continuity-max-m-one-probe", "potential-s-inf",
        "state-s-nan",
        "potential-duplicate-n", "potential-mean-mode", "state-duplicate-plus-n",
        "state-duplicate-minus-n", "potential-fractional-N", "potential-fractional-n",
        "potential-bool-n", "state-fractional-N_b", "state-fractional-n",
        "potential-string-real", "state-string-real", "state-integer-real",
        "potential-string-numbers", "state-item-without-im", "state-N_b-0",
        "state-N_b-negative", "evolve-t-inf", "evolve-t-nan", "tol-newton-inf",
        "tol-newton-0", "bracket-s-removed", "bracket-scale-prefix", "compare-modes-prefix",
        "bracket-format-removed", "transform-format-removed", "lax-dim-below-band",
        "potential-N-0", "potential-n-past-N", "real-potential-negative-n",
        "potential-nan", "potential-1e400", "state-plus-n-past-N_b", "state-minus-n-positive",
        "inverse-complex-target", "inverse-lax-dim-below-n-modes", "compare-t-not-a-number", "compare-t-zero",
        "compare-t-negative", "continuity-t-1e308", "continuity-t-9e307",
        "continuity-delta-1e-154", "continuity-t-1e-307", "continuity-t-1e305-small-s",
        "continuity-phase-overflow", "compare-steps-overflow-t", "compare-steps-overflow-dt",
        "lax-dim-past-any-array"])
def test_vacuous_or_ill_posed_runs_exit_1(capsys, monkeypatch, argv, stdin, message):
    # each of these used to exit 0 after checking nothing, print NaN or
    # Infinity (not JSON), keep only the last of a repeated index, truncate
    # a fractional index or cutoff, read a string or a bool as a number, or
    # accept a flag that changed nothing or a prefix of another flag, or
    # print a continuity sweep of one probe, report a float-range artefact as
    # a counterexample, or raise on a step count past the floats; the mean
    # mode pins the message Potential gives it
    if stdin is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    assert cli.main(argv) == 1
    assert capsys.readouterr() == ("", "error: %s\n" % message)


@pytest.mark.parametrize("value", ["0.5", True, None], ids=["string", "bool", "null"])
@pytest.mark.parametrize("verb, key, kind", [
    ("transform", "s", "number"), ("transform", "N", "integer"),
    ("transform", "n", "integer"), ("transform", "re", "number"),
    ("transform", "im", "number"), ("evolve", "s", "number"),
    ("evolve", "N_b", "integer"), ("evolve", "n", "integer"),
    ("evolve", "re", "number"), ("evolve", "im", "number"),
])
def test_document_numbers_are_typed(capsys, monkeypatch, verb, key, kind, value):
    # the readers used to pass a string, a bool or null through float() or
    # complex(), so "0.01" read as 0.01 and true as 1
    assert _run_with(monkeypatch, verb, key, value) == 1
    assert capsys.readouterr() == ("", "error: %s must be a JSON %s, got %r\n"
                                   % (key, kind, value))


@pytest.mark.parametrize("verb", ["transform", "evolve"])
@pytest.mark.parametrize("key", ["s", "re", "im"])
def test_document_numbers_past_the_floats_exit_1(capsys, monkeypatch, verb, key):
    # an integer of 401 digits used to end in float()'s OverflowError traceback
    assert _run_with(monkeypatch, verb, key, 10 ** 400) == 1
    assert capsys.readouterr() == ("", "error: %s must be a JSON number within the float "
                                   "range, got an integer of 401 digits\n" % key)


def _run_with(monkeypatch, verb, key, value):
    """Exit code of transform (or evolve) on the one-mode potential (or state)
    document with every key set to value, read from stdin."""
    doc = json.loads(_potential_doc() if verb == "transform" else _state_doc())
    items = doc["coeffs"] if verb == "transform" else doc["plus"] + doc["minus"]
    for obj in [doc] + items:
        if key in obj:
            obj[key] = value
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
    return cli.main([verb] if verb == "transform" else [verb, "--t", "1"])


def test_transform_without_modes_exits_1(potential_file, capsys):
    # used to exit 0 with an empty state
    assert cli.main(["transform", "-i", potential_file, "--modes", "0"]) == 1
    assert capsys.readouterr() == ("", "error: k_use=0 must lie in 1..M=32\n")


@pytest.mark.parametrize("name", ["u.json", "uc.json"])
@pytest.mark.parametrize("modes", ["0", "33"])
def test_bad_modes_exit_1_before_the_eigensolve(monkeypatch, capsys, name, modes):
    # a bad --modes used to cost an O(M^3) eigensolve before it was rejected
    def refused(*args, **kwargs):
        raise AssertionError("eigensolve ran")
    monkeypatch.setattr(np.linalg, "eigh", refused)
    monkeypatch.setattr(np.linalg, "eig", refused)
    argv = ["transform", "-i", os.path.join(GOLDEN, name), "--lax-dim", "32", "--modes", modes]
    assert cli.main(argv) == 1
    assert capsys.readouterr() == ("", "error: k_use=%s must lie in 1..M=32\n" % modes)


@pytest.mark.parametrize("exc, message", [
    (MemoryError("Unable to allocate 1.46 TiB for an array"),
     "Unable to allocate 1.46 TiB for an array"),
    (MemoryError(), "out of memory"),
], ids=["numpy", "bare"])
def test_memory_error_exits_1(monkeypatch, capsys, exc, message):
    # a huge N, N_b or --lax-dim used to end in an allocation traceback
    def exhausted(path):
        raise exc
    monkeypatch.setattr(cli, "_read_json", exhausted)
    assert cli.main(["transform", "-i", U]) == 1
    assert capsys.readouterr() == ("", "error: %s\n" % message)


def test_error_exit_codes(tmp_path, potential_file, monkeypatch, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["transform", "-i", str(bad)]) == 1
    assert "line" in capsys.readouterr().err
    assert cli.main(["transform", "-i", str(tmp_path / "missing.json")]) == 1
    assert cli.main(["spectrum", "-i", potential_file, "--lax-dim", "oops"]) == 1
    assert cli.main(["nonsense"]) == 1
    capsys.readouterr()

    # property violations surface as exit 3 after the report is written
    monkeypatch.setattr(cli, "sweep_vanishing",
                        lambda *a, **k: ({1: 5}, 0, [(3,)]))
    out = str(tmp_path / "viol.csv")
    assert cli.main(["vanishing", "--max-d", "1", "--l-bound", "2",
                     "-o", out]) == 3
    assert "property violation" in capsys.readouterr().err


def test_numerical_failure_exit_code(tmp_path, capsys):
    state = {"s": 0.5, "N_b": 1,
             "plus": [{"n": 1, "re": 5.0, "im": 0.0}],
             "minus": [{"n": -1, "re": 5.0, "im": 0.0}],
             "real": True}
    path = tmp_path / "state.json"
    path.write_text(json.dumps(state))
    assert cli.main(["inverse", "-i", str(path), "--lax-dim", "16"]) == 2
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize("modes", ["0", "-1", "33"])
def test_compare_rejects_nonpositive_modes(potential_file, monkeypatch, capsys, modes):
    # --modes 0 used to fall back to K_use = M/2 without a word; compare takes
    # transform's rule, from lax.spectrum, and rejects before any solve
    def refused(*args, **kwargs):
        raise AssertionError("solver ran")
    monkeypatch.setattr(np.linalg, "eigh", refused)
    monkeypatch.setattr(np.linalg, "eig", refused)
    monkeypatch.setattr(pde, "integrate", refused)
    argv = ["compare", "-i", potential_file, "--lax-dim", "32", "--grid", "32",
            "--t", "0.05", "--modes", modes]
    assert cli.main(argv) == 1
    assert capsys.readouterr() == ("", "error: k_use=%s must lie in 1..M=32\n" % modes)


@pytest.mark.parametrize("flags, message", [
    (["--t", "0.25", "--dt", "0.3"], "every time must be a multiple of dt=0.3"),
    (["--t", "1e-13,0.05"], "time 1e-13 is shorter than one step dt=0.00025"),
    (["--dt", "0"], "need finite dt > 0, got 0.0"),
    (["--dt", "nan"], "need finite dt > 0, got nan"),
    (["--t", "inf"], "time grid must be finite"),
    (["--t", "nan,0.5"], "time grid must be finite"),
    (["--grid", "4"], "grid 4 cannot dealias band N=2 (need >= 4N)"),
], ids=["off-grid", "below-one-step", "dt-0", "dt-nan", "t-inf", "t-nan",
        "grid-below-4N"])
def test_compare_checks_time_grid_before_the_solve(potential_file, monkeypatch, capsys,
                                                   flags, message):
    calls = []
    monkeypatch.setattr(cli, "solve_trajectory", lambda *a, **k: calls.append(a))
    assert cli.main(["compare", "-i", potential_file] + flags) == 1
    assert calls == []
    assert capsys.readouterr().err == "error: %s\n" % message


@pytest.mark.parametrize("times, stored", [("0.00025,1.0", 3), ("0.25,0.5,1.0", 4)])
def test_compare_stores_only_the_requested_samples(monkeypatch, times, stored):
    # the direct run keeps t = 0 and the times asked for, nothing between
    lengths = []

    def counted(u0, cfg, integrate=pde.integrate):
        traj = integrate(u0, cfg)
        lengths.append(len(traj.coeffs))
        return traj
    monkeypatch.setattr(pde, "integrate", counted)
    argv = ["compare", "-i", U, "--lax-dim", "32", "--modes", "8", "--t", times,
            "-o", os.devnull]
    assert cli.main(argv) == 0
    assert lengths == [stored]


def _bonft(argv, timeout=60):
    """python -m bonft.cli argv in a fresh interpreter, under the default warning
    filters (this module ignores TruncationWarning)."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    return subprocess.run([sys.executable, "-m", "bonft.cli"] + argv, capture_output=True,
                          text=True, timeout=timeout, env=dict(os.environ, PYTHONPATH=src))


def test_bracket_with_modes_past_any_array_exits_1_at_once():
    # the table used to list 2e29 signed indices before its first forward
    # map; a subprocess, so an unbounded loop fails by its timeout
    out = _bonft(["bracket", "--modes", "100000000000000000000000000000"], timeout=20)
    assert (out.returncode, out.stdout, out.stderr) == (
        1, "", "error: truncation M=400000000000000000000000000040 too large for an array\n")


def test_blow_up_exits_2_without_stepping_to_the_end():
    # 1e10 RK4 steps whose state overflows at the first: the run must stop
    # there, well inside the timeout, and report it once, without numpy's warnings
    out = _bonft(["compare", "-i", U, "--lax-dim", "32", "--modes", "8", "--grid", "32",
                  "--t", "1e300", "--dt", "1e290"])
    assert out.returncode == 2
    assert out.stderr.endswith("numerical failure: non-finite state at t=1e+290\n")
    assert "RuntimeWarning" not in out.stderr


@pytest.mark.parametrize("argv, err", [
    (["compare", "-i", U, "--lax-dim", "32", "--modes", "8", "--grid", "32",
      "--t", "0.25", "--dt", "0.25"],
     "warning: dt=0.25 spins the top mode 64 radians per step\n"),
    (["transform", "-i", U, "--lax-dim", "5"],
     "warning: truncation M=5 leaves a Lax residual 1.066e-04 at n=2, past 1e-06\n"),
    # the right and the left vectors both miss the cut; one line names the worse
    (["transform", "-i", UC, "--lax-dim", "32", "--modes", "32"],
     "warning: truncation M=32 leaves a Lax residual 1.527e-02 at n=32, past 1e-06\n"),
    # max |n^2 + Omega_n| = 63.9986 on this state, so the 2^52 phase bound
    # falls at t = 7.04e13
    (["evolve", "-i", STATE, "--t", "1e15"],
     "warning: t=1e+15 spins a phase 6.4e+16 radians, past 2^52: no digit of the flow"
     " is certain\n"),
    (["evolve", "-i", STATE, "--t", "7e13"], ""),
], ids=["phase-budget", "shift-drop", "shift-drop-complex", "evolve-no-digit",
        "evolve-below-bound"])
def test_each_warning_prints_as_one_line(argv, err):
    # one warning: line per warning, with no source path or code line
    out = _bonft(argv)
    assert out.returncode == 0
    assert out.stderr == err


def test_compare_rejects_complex_potential_before_any_forward_map(monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(flow, "birkhoff_forward", lambda *a, **k: calls.append(a))
    assert cli.main(["compare", "-i", os.path.join(GOLDEN, "uc.json")]) == 1
    assert calls == []
    assert capsys.readouterr().err == "error: trajectory evolution needs a real potential\n"


@pytest.mark.parametrize("doc", [
    {"s": 0.5},
    {"s": 0.5, "N_b": 1, "plus": [{"n": 1, "re": 0.1}], "minus": []},
    [1, 2],
], ids=["no-N_b", "no-im", "list"])
def test_malformed_state_exits_1(tmp_path, capsys, doc):
    path = tmp_path / "state.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["evolve", "-i", str(path), "--t", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: malformed state object: ")


def test_evolve_past_the_float_range_exits_2(capsys):
    # a valid complex state whose complex frequencies grow it past the float
    # range by t = 1e9: this used to print numpy overflow warnings and exit 1
    # as if the coordinates were invalid input
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["evolve", "-i", os.path.join(GOLDEN, "transform_complex.json"),
                         "--t", "1e9"]) == 2
    assert capsys.readouterr() == (
        "", "numerical failure: the flow to t=1000000000.0 leaves the float range\n")


def test_malformed_potential_coefficient_exits_1(tmp_path, capsys):
    path = tmp_path / "u.json"
    path.write_text(json.dumps({"s": 0.5, "N": 1, "coeffs": [{"n": 1, "im": 0.1}]}))
    assert cli.main(["transform", "-i", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: malformed potential object: 're'\n"


def test_repeated_calls_share_one_parser(capsys):
    # the parser is built once per process; bad flags must not leave state
    # behind that changes a later call's bytes or exit code
    good = {name: argv for argv, name in CASES}
    calls = [
        (good["transform.json"], "transform.json"),
        (["nonsense"], None),
        (good["evolve.json"], "evolve.json"),
        (["transform", "-i", U, "--lax-dim", "x"], None),
        (good["vanishing.csv"], "vanishing.csv"),
        (["evolve", "-i", STATE], None),
        (good["continuity.csv"], "continuity.csv"),
    ]
    passes = []
    for _ in range(2):
        results = []
        for argv, _name in calls:
            rc = cli.main(argv)
            captured = capsys.readouterr()
            results.append((rc, captured.out, captured.err))
        passes.append(results)
    assert passes[0] == passes[1]
    for (argv, name), (rc, out, err) in zip(calls, passes[0]):
        if name is None:
            assert (rc, out) == (1, "") and err.startswith("error: "), argv
        else:
            with open(os.path.join(GOLDEN, name), "rb") as fh:
                assert (rc, out.encode(), err) == (0, fh.read(), ""), argv
    assert cli.build_parser() is cli.build_parser()


@pytest.mark.parametrize("spaced, joined", [
    (["evolve", "-i", STATE, "--t", "-1e3"], ["evolve", "-i", STATE, "--t=-1e3"]),
    (["evolve", "-i", STATE, "--t", "-2.5E+2"], ["evolve", "-i", STATE, "--t=-2.5E+2"]),
    (["continuity", "--s", "-4.5e-1", "--k", "8", "--max-m", "4000"],
     ["continuity", "--s=-4.5e-1", "--k", "8", "--max-m", "4000"]),
], ids=["t-exponent", "t-signed-exponent", "s-exponent"])
def test_negative_values_in_exponent_form_are_values(capsys, spaced, joined):
    # argparse's own pattern took -1e3 for a flag, and --t found no value
    assert cli.main(joined) == 0
    expected = capsys.readouterr()
    assert cli.main(spaced) == 0
    assert capsys.readouterr() == expected


def test_a_flag_in_place_of_a_value_still_exits_1(capsys):
    assert cli.main(["evolve", "-i", STATE, "--t", "-x"]) == 1
    assert capsys.readouterr() == ("", "error: argument --t: expected one argument\n")
