"""In-memory spans around the package's public layer functions.

`Tracer.install()` replaces, in every loaded `bonft.*` module, each
module attribute that is bound to one of the functions in LAYERS with a
wrapper that records a span.  Callers reach those functions through module
globals (`birkhoff_forward` inside `bonft.flow`, `spectrum` inside
`bonft.birkhoff`, ...), so swapping every binding catches every call without
touching the package's source.  `uninstall()` puts the originals back.

A span is [name, start, end, parent index, operation id, count]; `count` is
the amount of work the call reports through its arguments or result (RK4
steps, tuples, instances, probes), or None.
"""

import functools
import statistics
import sys
import time

# (span name, defining module, function name)
LAYERS = (
    ("cli.main", "bonft.cli", "main"),
    ("lax.assemble", "bonft.lax", "assemble_lax"),
    ("lax.spectrum", "bonft.lax", "spectrum"),
    ("birkhoff.scaling_constants", "bonft.birkhoff", "scaling_constants"),
    ("birkhoff.eigen_chain", "bonft.birkhoff", "eigen_chain"),
    ("birkhoff.forward", "bonft.birkhoff", "birkhoff_forward"),
    ("flow.evolve", "bonft.flow", "evolve"),
    ("flow.invert", "bonft.flow", "invert"),
    ("flow.solve_trajectory", "bonft.flow", "solve_trajectory"),
    ("pde.integrate", "bonft.pde", "integrate"),
    ("residues.sweep_vanishing", "bonft.residues", "sweep_vanishing"),
    ("residues.sweep_combi", "bonft.residues", "sweep_combi"),
    ("continuity.sweep", "bonft.continuity", "sweep"),
)


def _work_count(name, args, kwargs, result):
    if name == "pde.integrate":
        cfg = args[1] if len(args) > 1 else kwargs["cfg"]
        return int(round(cfg.T / cfg.dt))
    if name == "residues.sweep_vanishing":
        counts, random_checked, _ = result
        return sum(counts.values()) + random_checked
    if name == "residues.sweep_combi":
        return sum(result[0].values())
    if name == "continuity.sweep":
        return len(result), max(r["m"] for r in result)
    return None


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []
        self._patched = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), None, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
                try:
                    span[5] = _work_count(name, args, kwargs, result)
                except (KeyError, TypeError, ValueError, AttributeError):
                    pass  # a changed signature loses the count, not the call
                return result
            finally:
                stack.pop()
                span[2] = time.perf_counter()
        return traced

    def install(self):
        """Wrap every binding of every LAYERS function in the loaded bonft modules."""
        modules = {k: m for k, m in sys.modules.items()
                   if m is not None and (k == "bonft" or k.startswith("bonft."))}
        for name, home, attr in LAYERS:
            fn = getattr(modules.get(home), attr, None)
            if fn is None:
                continue  # a layer the package no longer has reports zeros
            wrapper = self._wrap(name, fn)
            for mod in modules.values():
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, fn))

    def uninstall(self):
        for mod, key, fn in reversed(self._patched):
            setattr(mod, key, fn)
        self._patched = []


def _self_times(spans):
    """Duration minus the time covered by direct children, per span index."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def _p50(values, scale=1.0):
    return statistics.median(values) * scale if values else 0.0


def layer_metrics(spans):
    """Per-layer numbers from the spans of one traced pass (see NOTES.md)."""
    own = _self_times(spans)
    by_name = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[0], []).append(i)

    def dur(name, scale):
        return [(spans[i][2] - spans[i][1]) * scale for i in by_name.get(name, [])]

    def self_(name, scale):
        return [own[i] * scale for i in by_name.get(name, [])]

    def self_per_op(name, scale):
        ops = {}
        for i in by_name.get(name, []):
            ops[spans[i][4]] = ops.get(spans[i][4], 0.0) + own[i] * scale
        return list(ops.values())

    def calls_per_op(name):
        ops = {}
        for i in by_name.get("cli.main", []):
            ops[spans[i][4]] = 0
        for i in by_name.get(name, []):
            ops[spans[i][4]] = ops.get(spans[i][4], 0) + 1
        return _p50(list(ops.values()))

    def rate(name):
        idx = [i for i in by_name.get(name, []) if spans[i][5] is not None]
        busy = sum(spans[i][2] - spans[i][1] for i in idx)
        return sum(spans[i][5] for i in idx) / busy if busy else 0.0

    inverts = by_name.get("flow.invert", [])
    forwards_in_invert = sum(1 for i in by_name.get("birkhoff.forward", [])
                             if spans[i][3] >= 0 and spans[spans[i][3]][0] == "flow.invert")
    probes = [spans[i][5] for i in by_name.get("continuity.sweep", []) if spans[i][5]]
    return {
        "cli.self_ms_p50": (_p50(self_per_op("cli.main", 1e3)), "ms"),
        "lax.assemble_ms_p50": (_p50(dur("lax.assemble", 1e3)), "ms"),
        "lax.spectrum_self_ms_p50": (_p50(self_("lax.spectrum", 1e3)), "ms"),
        "lax.spectrum_calls": (calls_per_op("lax.spectrum"), "count"),
        "birkhoff.forward_ms_p50": (_p50(dur("birkhoff.forward", 1e3)), "ms"),
        "birkhoff.scaling_constants_ms_p50": (_p50(dur("birkhoff.scaling_constants", 1e3)), "ms"),
        "birkhoff.eigen_chain_self_ms_p50": (_p50(self_("birkhoff.eigen_chain", 1e3)), "ms"),
        "birkhoff.assembly_self_ms_p50": (_p50(self_("birkhoff.forward", 1e3)), "ms"),
        "birkhoff.forward_calls": (calls_per_op("birkhoff.forward"), "count"),
        "flow.solve_trajectory_s": (_p50(dur("flow.solve_trajectory", 1.0)), "s"),
        "flow.invert_s_p50": (_p50(dur("flow.invert", 1.0)), "s"),
        "flow.invert_calls": (calls_per_op("flow.invert"), "count"),
        "flow.forward_calls_per_invert": (
            forwards_in_invert / len(inverts) if inverts else 0.0, "count"),
        "flow.evolve_ms_p50": (_p50(dur("flow.evolve", 1e3)), "ms"),
        "pde.integrate_s": (_p50(dur("pde.integrate", 1.0)), "s"),
        "pde.rk4_steps_per_s": (rate("pde.integrate"), "1/s"),
        "residues.sweep_vanishing_s": (_p50(dur("residues.sweep_vanishing", 1.0)), "s"),
        "residues.tuples_per_s": (rate("residues.sweep_vanishing"), "1/s"),
        "residues.sweep_combi_s": (_p50(dur("residues.sweep_combi", 1.0)), "s"),
        "residues.combi_instances_per_s": (rate("residues.sweep_combi"), "1/s"),
        "continuity.sweep_s": (_p50(dur("continuity.sweep", 1.0)), "s"),
        "continuity.probes": (_p50([p[0] for p in probes]), "count"),
        "continuity.max_probe_m": (_p50([p[1] for p in probes]), "count"),
    }
