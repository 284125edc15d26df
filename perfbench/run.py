"""bonft benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Every operation executes in a worker
interpreter started for this run (perfbench/worker.py), never in this one,
so the package's process-wide caches start cold as they do for a CLI user.

--trace 0 reports the end-to-end metrics: the median operation latency over
the median time of the workers' speed probe (see worker.SpeedProbe), the
median set-up time over SETUP_SAMPLES fresh interpreters, and the median
peak RSS of the measuring workers; the raw latency is in the record line.  --trace 1 splits the time into three
passes (untraced, traced, traced with OPENBLAS_NUM_THREADS=1) and reports
the per-layer metrics of the traced pass, the tracing overhead and the
single-threaded baseline.  Before the result, one line {"record": ...}
gives the environment and the source line count; the last line is the
result object.  NOTES.md explains the workloads and the metrics.
"""

import argparse
import glob
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from spans import layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 5
# one whole run, set-up included, must end well inside three minutes
RUN_LIMIT_S = 170.0


class BenchError(Exception):
    pass


def _percentile(values, q):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


class Runner:
    def __init__(self, root, workload, seed, size, seconds):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.size = size
        self.seconds = seconds
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.env = None

    def spawn(self, setup_only=False, seconds=0.0, first_op=0, trace=False, probe=False,
              env=None):
        """Start one worker, wait for it, return its report with `setup_s` added."""
        job = {"root": self.root, "workload": self.workload, "seed": self.seed,
               "size": self.size, "seconds": seconds, "first_op": first_op,
               "trace": trace, "probe": probe, "setup_only": setup_only,
               "one_op": WORKLOADS[self.workload].fresh_process}
        started = time.monotonic()
        report = self.execute(job, env or {})
        report["setup_s"] = report["ready"] - started
        self.env = self.env or report["env"]
        return report

    def execute(self, job, env):
        """Run worker.py on `job` in a new interpreter and return its report."""
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "worker.py")],
                input=json.dumps(job), capture_output=True, text=True, cwd=self.root,
                env=dict(os.environ, **env),
                timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise BenchError("worker passed the %.0f s run limit" % RUN_LIMIT_S)
        if proc.returncode != 0:
            raise BenchError("worker exited %d: %s" % (proc.returncode, proc.stderr.strip()[-2000:]))
        return json.loads(proc.stdout.splitlines()[-1])

    def measure(self, seconds, trace=False, probe=False, env=None):
        """Workers one after another until `seconds` of operations are timed.

        A worker times operations for a fifth of the budget (at least one
        operation), so a fast workload passes through several fresh
        interpreters; a workload flagged fresh_process runs one operation
        per worker.
        """
        reports, timed, ops = [], 0.0, 0
        while timed < seconds or not reports:
            share = min(seconds / SETUP_SAMPLES, seconds - timed)
            rep = self.spawn(seconds=share, first_op=ops, trace=trace, probe=probe, env=env)
            reports.append(rep)
            timed += sum(rep["latencies"])
            ops += len(rep["latencies"])
        return reports


def _merge_spans(reports):
    merged = []
    for rep in reports:
        base = len(merged)
        for s in rep["spans"]:
            merged.append(s[:3] + [s[3] + base if s[3] >= 0 else -1] + s[4:])
    return merged


def _latencies(reports):
    return [x for rep in reports for x in rep["latencies"]]


def end_to_end(runner):
    reports = runner.measure(runner.seconds, probe=True)
    setups = [rep["setup_s"] for rep in reports]
    while len(setups) < SETUP_SAMPLES:
        setups.append(runner.spawn(setup_only=True)["setup_s"])
    lat = _latencies(reports)
    probes = [x for rep in reports for x in rep["probes"]]
    metrics = {
        "latency_norm_p50": (statistics.median(lat) / statistics.median(probes), "probe"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(rep["rss_mb"] for rep in reports), "MB"),
    }
    samples = {"samples": len(lat), "setup_samples": len(setups), "probes": len(probes),
               "latency_ms_p50": statistics.median(lat) * 1e3,
               "probe_ms_p50": statistics.median(probes) * 1e3}
    return reports, metrics, samples


def per_layer(runner):
    third = runner.seconds / 3.0
    plain = runner.measure(third)
    traced = runner.measure(third, trace=True)
    single = runner.measure(third, trace=True, env={"OPENBLAS_NUM_THREADS": "1"})
    plain_lat, traced_lat, single_lat = map(_latencies, (plain, traced, single))
    base = statistics.median(plain_lat)
    metrics = layer_metrics(_merge_spans(traced))
    single_layers = layer_metrics(_merge_spans(single))
    metrics.update({
        "cli.latency_ms_p50": (base * 1e3, "ms"),
        "cli.latency_ms_p95": (_percentile(plain_lat, 0.95) * 1e3, "ms"),
        "trace.overhead_pct": ((statistics.median(traced_lat) / base - 1.0) * 100.0, "%"),
        "blas1.latency_ms_p50": (statistics.median(single_lat) * 1e3, "ms"),
        "blas1.lax.spectrum_self_ms_p50": (single_layers["lax.spectrum_self_ms_p50"][0], "ms"),
    })
    samples = {"samples_untraced": len(plain_lat), "samples_traced": len(traced_lat),
               "samples_blas1": len(single_lat)}
    return plain + traced + single, metrics, samples


def src_lines(root):
    total = 0
    for path in sorted(glob.glob(os.path.join(root, "src", "bonft", "*.py"))):
        with open(path) as fh:
            total += sum(1 for _ in fh)
    return total


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny shrinks every input, for the benchmark's own tests")
    args = p.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "bonft", "cli.py")):
        print("perfbench: no src/bonft/cli.py under %s; run from the repository root"
              % root, file=sys.stderr)
        return 2
    runner = Runner(root, args.workload, args.seed, args.size, args.seconds)
    try:
        reports, metrics, samples = (per_layer if args.trace else end_to_end)(runner)
    except BenchError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 1
    failures = [f for rep in reports for f in rep["failures"]]
    for f in failures[:20]:
        print("perfbench: failed %s" % f, file=sys.stderr)
    attempted = sum(rep["calls"] for rep in reports)
    record = dict(runner.env, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, size=args.size,
                  src_lines=src_lines(root), failed_frac=len(failures) / attempted,
                  **samples)
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
