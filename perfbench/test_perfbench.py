"""Tests of the benchmark itself: tiny runs of every workload, and output
checks that must reject perturbed results.

    PYTHONPATH=src python3 -m pytest -q perfbench

Most runs execute the worker in this process (Runner.execute swapped for
worker.run_job), which keeps the file fast; one test drives run.py as the
driver does, in a subprocess.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


@pytest.fixture
def in_process(monkeypatch):
    """Run workers inside this interpreter, one set-up sample per run."""
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)
    monkeypatch.setattr(run.Runner, "execute",
                        lambda self, job, env: json.loads(json.dumps(worker.run_job(job))))
    monkeypatch.chdir(ROOT)


def _result(capsys, *argv):
    code = run.main(list(argv))
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    assert "record" in json.loads(lines[-2])
    return json.loads(lines[-1])


def test_benchmark_lists_every_workload():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(WORKLOADS)


@pytest.mark.parametrize("trace,kind", [("0", "end_to_end"), ("1", "per_layer")])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_run_reports_every_metric(in_process, capsys, workload, trace, kind):
    res = _result(capsys, "--workload", workload, "--seed", "7", "--seconds", "0.02",
                  "--trace", trace, "--size", "tiny")
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want


def test_traced_counts_repeat_exactly(in_process, capsys):
    counts = ("lax.spectrum_calls", "birkhoff.forward_calls", "flow.invert_calls",
              "flow.forward_calls_per_invert")
    runs = [_result(capsys, "--workload", "trajectory", "--seed", "3", "--seconds",
                    "0.02", "--trace", "1", "--size", "tiny") for _ in range(2)]
    first, second = ({k: r["metrics"][k]["value"] for k in counts} for r in runs)
    assert first == second
    assert first["flow.invert_calls"] == 2 and first["flow.forward_calls_per_invert"] > 1


def _scaled_state(real_to_json, factor):
    def to_json(state, diagnostics=None):
        doc = real_to_json(state, diagnostics)
        for item in doc["plus"] + doc["minus"]:
            item["re"] *= factor
            item["im"] *= factor
        return doc
    return to_json


def _job(workload):
    return {"root": ROOT, "workload": workload, "seed": 5, "size": "tiny",
            "seconds": 0.02, "first_op": 0, "trace": False, "probe": False,
            "setup_only": False, "one_op": False}


@pytest.mark.parametrize("workload,factor", [("transform_real", 1.05),
                                             ("transform_complex", 1.2)])
def test_scaled_state_counts_as_failed(monkeypatch, workload, factor):
    import bonft.cli
    monkeypatch.setattr(bonft.cli, "state_to_json",
                        _scaled_state(bonft.cli.state_to_json, factor))
    report = worker.run_job(_job(workload))
    assert len(report["failures"]) == len(report["latencies"]) >= 1


def test_wrong_count_counts_as_failed(monkeypatch, in_process, capsys):
    import bonft.cli
    real = bonft.cli.sweep_combi

    def short_by_one(max_d, workers=1):
        counts, violations = real(max_d, workers)
        counts[max_d] -= 1
        return counts, violations

    monkeypatch.setattr(bonft.cli, "sweep_combi", short_by_one)
    assert run.main(["--workload", "verify", "--seed", "1", "--seconds", "0.02",
                     "--size", "tiny"]) == 0
    res = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    # one verify operation is three calls, of which only combi is wrong
    assert res["correct"] is False and res["attempted"] == 3 * res["failed"] >= 3


@pytest.mark.parametrize("workload,call,edit", [
    ("verify", 0, lambda d: d["exhaustive"].update({"1": 4})),
    ("verify", 0, lambda d: d.update(violations=1)),
    ("verify", 1, lambda d: d["instances"].update({"2": 5})),
    ("verify", 2, lambda d: d.update(slope=d["slope"] * 1.1)),
    ("trajectory", 0, lambda d: d["rows"][0].update(l2_diff=2e-6)),
    ("trajectory", 0, lambda d: d["newton_residuals"].append(1e-9)),
])
def test_checks_reject_edited_output(workload, call, edit):
    import bonft.cli
    w = WORKLOADS[workload]("tiny")
    argv, text = w.ops(5)[0][call]
    code, out, _ = worker._call(bonft.cli.main, argv, text)
    assert code == 0 and w.check(0, call, out) is None
    doc = json.loads(out)
    edit(doc)
    assert w.check(0, call, json.dumps(doc)) is not None


def test_driver_command_line(tmp_path):
    cmd = [sys.executable, "perfbench/run.py", "--workload", "transform_real", "--seed", "2",
           "--seconds", "0.05", "--trace", "0", "--size", "tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert res["correct"] is True and res["metrics"]["setup_s"]["value"] > 0

    # without the package beside it the benchmark fails without a result
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0 and proc.stdout == ""
