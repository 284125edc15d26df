"""One fresh interpreter: import bonft, warm up, time operations, check them.

Reads a JSON job from stdin and writes one JSON report to stdout.  The job
names the repository root, the workload, its seed and size, how long to
measure, the index of the first operation, whether to trace, whether to run
the speed probe, and whether to stop after the warm-up (a set-up sample
only).

Each CLI call of an operation runs `bonft.cli.main(argv)` in this process
with stdin and stdout swapped for in-memory text, so the timed path is the
user's: argument parsing, JSON decoding, the computation, JSON encoding.
Outputs are checked after the clock stops.
"""

import contextlib
import io
import json
import os
import resource
import signal
import sys
import time

PROBE_PERIOD = 0.05  # seconds between speed probes


def _probe_kernel():
    """A fixed slice of pure-Python work, about 1.5 ms."""
    s = 0
    for i in range(20000):
        s += i * i % 7
    return s


class SpeedProbe:
    """Times _probe_kernel every PROBE_PERIOD seconds while it is active.

    On a small shared machine the speed of the whole box drifts by 10-20%
    between runs.  The probe runs in the measuring thread itself, from a
    SIGALRM handler between bytecodes, so it sees the speed the operations
    see; an operation's latency over the probe's time cancels most of the
    drift.  The probe's own time is taken out of the operation's latency.
    It touches no numpy, so nothing the package sets (BLAS threads, say)
    moves it.
    """

    def __init__(self):
        self.times = []
        self._saved = None

    def sample(self, *_):
        t0 = time.perf_counter()
        _probe_kernel()
        self.times.append(time.perf_counter() - t0)

    def __enter__(self):
        self._saved = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD, PROBE_PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._saved)
        if not self.times:  # an operation shorter than one period
            self.sample()


def _call(main, argv, text):
    """Run the CLI in-process; returns (exit code or exception text, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except Exception as exc:  # a crash is a failed operation, not a dead worker
        code = "%s: %s" % (type(exc).__name__, exc)
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def _environment():
    import numpy
    import scipy

    def blas(config):
        try:
            info = config(mode="dicts")["Build Dependencies"]["blas"]
            return "%s %s" % (info.get("name"), info.get("version"))
        except Exception:  # older numpy/scipy have no dict form
            return None

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.show_config),
        "scipy_blas": blas(scipy.show_config),
        "nproc": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "BONFT_WORKERS": os.environ.get("BONFT_WORKERS"),
    }


def run_job(job):
    """Execute one job; returns the report dict (also usable in-process)."""
    src = os.path.join(job["root"], "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    import bonft.cli
    from workloads import WARMUP, WORKLOADS

    for argv, text in WARMUP:
        code, _, err = _call(bonft.cli.main, argv, text)
        if code != 0:
            raise RuntimeError("warm-up %s failed (%s): %s" % (argv[0], code, err.strip()))
    report = {"ready": time.monotonic(), "env": _environment(),
              "latencies": [], "probes": [], "calls": 0, "failures": [],
              "spans": []}
    if job["setup_only"]:
        return report

    workload = WORKLOADS[job["workload"]](job["size"])
    ops = workload.ops(job["seed"])
    tracer = None
    if job["trace"]:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    probe = SpeedProbe()
    outputs = []
    try:
        with probe if job["probe"] else contextlib.nullcontext():
            deadline = time.perf_counter() + job["seconds"]
            i = job["first_op"]
            while True:
                if tracer is not None:
                    tracer.op = i
                n0 = len(probe.times)
                t0 = time.perf_counter()
                results = [_call(bonft.cli.main, argv, text) for argv, text in ops[i % len(ops)]]
                t1 = time.perf_counter()
                report["latencies"].append(t1 - t0 - sum(probe.times[n0:]))
                outputs.append((i, results))
                i += 1
                if t1 >= deadline or job["one_op"]:
                    break
    finally:
        if tracer is not None:
            tracer.uninstall()
    report["probes"] = probe.times
    for i, results in outputs:
        for j, (code, out, err) in enumerate(results):
            report["calls"] += 1
            if code != 0:
                reason = "exit %s: %s" % (code, err.strip()[:200])
            else:
                try:
                    reason = workload.check(i, j, out)
                except (ValueError, KeyError, TypeError, IndexError) as exc:
                    reason = "unreadable output: %s: %s" % (type(exc).__name__, exc)
            if reason is not None:
                report["failures"].append("op %d call %d: %s" % (i, j, reason))
    if tracer is not None:
        report["spans"] = tracer.spans
    report["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return report


if __name__ == "__main__":
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    result = run_job(json.load(sys.stdin))
    sys.stdout.write(json.dumps(result) + "\n")
