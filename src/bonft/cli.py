"""Subcommand dispatcher.

Exit codes: 0 success, 1 invalid input (bad flags, unreadable paths,
malformed JSON), 2 numerical failure, 3 property violation found by a
verifier subcommand.  All randomness flows from the single --seed
generator; with fixed flags and seed the output bytes are reproducible.
"""

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import pde
from .birkhoff import (birkhoff_forward, canonical_bracket_table, state_from_json,
                       state_to_json)
from .continuity import ContinuityConfig, ratio_slope, sweep
from .errors import NumericalFailure, PropertyViolation
from .flow import evolve, invert, solve_trajectory
from .hardy import Potential, l2_distance, potential_from_json, potential_to_json
from .lax import gaps, spectrum
from .residues import sweep_combi, sweep_vanishing


class _Parser(argparse.ArgumentParser):
    def __init__(self, **kwargs):
        # a unique prefix of a flag would otherwise stand for the whole flag
        super().__init__(allow_abbrev=False, **kwargs)

    # argparse exits with its own code 2 on bad flags, which collides with
    # the numerical-failure code; route everything through ValueError -> 1
    def error(self, message):
        raise ValueError(message)


def _read_json(path):
    if path == "-":
        return json.load(sys.stdin)
    with open(path) as fh:
        return json.load(fh)


def _emit(text, path):
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _emit_json(obj, path):
    _emit(json.dumps(obj, sort_keys=True, indent=1) + "\n", path)


def _emit_csv(header, rows, path):
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for v in row:
            if isinstance(v, bool):
                cells.append("1" if v else "0")
            elif isinstance(v, float):
                cells.append("%.17g" % v)
            else:
                cells.append(str(v))
        lines.append(",".join(cells))
    _emit("\n".join(lines) + "\n", path)


def _seeded_draws(rng, count, scale):
    """count values scale (x + iy), each x and then its y a standard normal draw."""
    return [scale * (rng.standard_normal() + 1j * rng.standard_normal())
            for _ in range(count)]


def _cmd_spectrum(args):
    u = potential_from_json(_read_json(args.input))
    sd = spectrum(u, args.lax_dim, k_use=args.modes)
    gam = gaps(sd)
    lam = sd.lambdas[:sd.K_use + 1]
    if args.format == "csv":
        rows = [(n, lam[n].real, lam[n].imag,
                 gam[n - 1].real if n else 0.0, gam[n - 1].imag if n else 0.0)
                for n in range(sd.K_use + 1)]
        _emit_csv(("n", "lambda_re", "lambda_im", "gap_re", "gap_im"), rows, args.output)
    else:
        _emit_json({
            "M": sd.M,
            "K_use": sd.K_use,
            "hermitian": sd.hermitian,
            "min_separation": sd.min_separation,
            "lambdas": [[v.real, v.imag] for v in lam],
            "gaps": [[v.real, v.imag] for v in gam],
        }, args.output)
    return 0


def _cmd_transform(args):
    u = potential_from_json(_read_json(args.input))
    z = birkhoff_forward(u, M=args.lax_dim, k_use=args.modes)
    _emit_json(state_to_json(z, diagnostics=z.diagnostics), args.output)
    return 0


def _cmd_inverse(args):
    z = state_from_json(_read_json(args.input))
    u, _, _ = invert(z, M=args.lax_dim, tol=args.tol_newton)
    _emit_json(potential_to_json(u), args.output)
    return 0


def _cmd_evolve(args):
    z = state_from_json(_read_json(args.input))
    _emit_json(state_to_json(evolve(z, args.t)), args.output)
    return 0


def _parse_times(spec_str):
    try:
        ts = sorted(float(x) for x in spec_str.split(","))
    except ValueError:
        raise ValueError("bad time grid %r; want comma-separated floats" % spec_str)
    if not ts or ts[0] <= 0:
        raise ValueError("time grid must be positive")
    if not all(math.isfinite(t) for t in ts):
        raise ValueError("time grid must be finite")
    return ts


def _cmd_compare(args):
    u0 = potential_from_json(_read_json(args.input))
    ts = _parse_times(args.t)
    if args.modes is not None and args.modes < 1:
        raise ValueError("--modes must be at least 1, got %d" % args.modes)
    icfg = pde.IntegratorConfig(grid_size=args.grid, dt=args.dt, T=ts[-1])
    pde.check_band(icfg.grid_size, u0.N)
    steps = [t / args.dt for t in ts]
    if any(abs(c - round(c)) > 1e-9 for c in steps):
        raise ValueError("every time must be a multiple of dt=%g" % args.dt)
    icfg.store_every = max(math.gcd(*(int(round(c)) for c in steps)), 1)

    samples, diag = solve_trajectory(u0, [0.0] + ts, M=args.lax_dim, k_use=args.modes)
    traj = pde.integrate(u0, icfg)
    index = {round(t / args.dt): i for i, t in enumerate(traj.times)}

    band = min(u0.N * 2, traj.band)
    rows = []
    for t, u_b in samples[1:]:
        u_d = traj.potential_at(index[round(t / args.dt)])
        rows.append((t, l2_distance(u_b, u_d, band)))
    if args.format == "csv":
        _emit_csv(("t", "l2_diff"), rows, args.output)
    else:
        _emit_json({
            "rows": [{"t": t, "l2_diff": d} for t, d in rows],
            "action_drift": diag["action_drift"],
            "newton_residuals": diag["residuals"],
        }, args.output)
    return 0


def _cmd_vanishing(args):
    rng = np.random.default_rng(args.seed)
    counts, random_checked, violations = sweep_vanishing(
        args.max_d, args.l_bound, random_count=args.random_count, rng=rng)
    if args.format == "json":
        _emit_json({"exhaustive": {str(d): counts[d] for d in sorted(counts)},
                    "random": random_checked,
                    "violations": len(violations)}, args.output)
    else:
        rows = [("exhaustive_d%d" % d, counts[d]) for d in sorted(counts)]
        rows.append(("random", random_checked))
        rows.append(("violations", len(violations)))
        _emit_csv(("check", "count"), rows, args.output)
    if violations:
        raise PropertyViolation("%d tuples violate the vanishing identity, first: %r"
                                % (len(violations), violations[0]))
    return 0


def _cmd_combi(args):
    counts, violations = sweep_combi(args.max_d)
    if args.format == "json":
        _emit_json({"instances": {str(d): counts[d] for d in sorted(counts)},
                    "violations": len(violations)}, args.output)
    else:
        rows = [("d%d" % d, counts[d]) for d in sorted(counts)]
        rows.append(("violations", len(violations)))
        _emit_csv(("check", "count"), rows, args.output)
    if violations:
        raise PropertyViolation("%d instances break |K_ad| = |J_ad| + 1, first: %r"
                                % (len(violations), violations[0]))
    return 0


def _cmd_continuity(args):
    if args.n_base < 0:
        raise ValueError("need n_base >= 0, got %d" % args.n_base)
    base = _seeded_draws(np.random.default_rng(args.seed), args.n_base, 0.01)
    cfg = ContinuityConfig(s=args.s, t=args.t, base=base, k=args.k,
                           max_m=args.max_m, delta=args.delta,
                           max_probes=args.max_probes)
    rows = sweep(cfg)
    header = ("m", "delta", "d0", "dt", "ratio",
              "omega_gap_pred", "omega_gap_meas", "phase_bound_ok")
    if args.format == "csv":
        _emit_csv(header, [tuple(r[k] for k in header) for r in rows], args.output)
    else:
        _emit_json({"rows": rows, "slope": ratio_slope(rows),
                    "slope_predicted": -cfg.s / 2.0}, args.output)
    return 0


def _cmd_bracket(args):
    rng = np.random.default_rng(args.seed)
    # the brackets do not depend on the Sobolev exponent, so it is fixed at 1/2
    u = Potential(0.5, 4, dict(enumerate(_seeded_draws(rng, 4, args.scale), 1)), real=True)
    pm, pp = canonical_bracket_table(u, args.modes, h=args.fd_step)
    target = -1j * np.eye(args.modes)
    _emit_json({
        "n_max": args.modes,
        "max_dev_canonical": float(np.max(np.abs(pm - target))),
        "max_dev_holomorphic": float(np.max(np.abs(pp))),
        "bracket_plus_minus": [[[v.real, v.imag] for v in row] for row in pm],
        "bracket_plus_plus": [[[v.real, v.imag] for v in row] for row in pp],
    }, args.output)
    return 0


def _add_io(sp, output_only=False, default_format=None):
    if not output_only:
        sp.add_argument("-i", "--input", default="-", help="input JSON path, - for stdin")
    sp.add_argument("-o", "--out", "--output", dest="output", default="-",
                    help="output path, - for stdout")
    if default_format is not None:
        sp.add_argument("--format", choices=("json", "csv"), default=default_format)


@functools.cache
def build_parser():
    p = _Parser(prog="bonft", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="cmd", metavar="subcommand")
    sub.required = True

    sp = sub.add_parser("spectrum", help="truncated Lax eigenvalues and gaps")
    _add_io(sp, default_format="json")
    sp.add_argument("--lax-dim", type=int, default=64)
    sp.add_argument("--modes", type=int, default=None)

    sp = sub.add_parser("transform", help="potential to coordinate state")
    _add_io(sp)
    sp.add_argument("--lax-dim", type=int, default=None)
    sp.add_argument("--modes", type=int, default=None)

    sp = sub.add_parser("inverse", help="coordinate state to potential")
    _add_io(sp)
    sp.add_argument("--lax-dim", type=int, default=None)
    sp.add_argument("--tol-newton", type=float, default=1e-12)

    sp = sub.add_parser("evolve", help="advance a coordinate state by t")
    _add_io(sp)
    sp.add_argument("--t", type=float, required=True)

    sp = sub.add_parser("compare", help="coordinate flow vs direct integration")
    _add_io(sp, default_format="json")
    sp.add_argument("--t", default="0.25,0.5,1.0", help="comma-separated times")
    sp.add_argument("--lax-dim", type=int, default=96)
    sp.add_argument("--modes", type=int, default=None)
    sp.add_argument("--grid", type=int, default=256)
    sp.add_argument("--dt", type=float, default=2.5e-4)

    sp = sub.add_parser("vanishing", help="exact residue identity sweep")
    _add_io(sp, output_only=True, default_format="csv")
    sp.add_argument("--max-d", type=int, default=4)
    sp.add_argument("--l-bound", type=int, default=6)
    sp.add_argument("--random-count", type=int, default=0)
    sp.add_argument("--seed", type=int, default=0)

    sp = sub.add_parser("combi", help="partition-count identity sweep")
    _add_io(sp, output_only=True, default_format="csv")
    sp.add_argument("--max-d", type=int, default=6)

    sp = sub.add_parser("continuity", help="modulus-of-continuity probe sweep")
    _add_io(sp, output_only=True, default_format="csv")
    sp.add_argument("--s", type=float, default=-0.25)
    sp.add_argument("--t", type=float, default=1.0)
    sp.add_argument("--k", type=int, default=2)
    sp.add_argument("--n-base", type=int, default=0)
    sp.add_argument("--max-m", type=int, default=10 ** 6)
    sp.add_argument("--max-probes", type=int, default=12)
    sp.add_argument("--delta", type=float, default=None)
    sp.add_argument("--seed", type=int, default=0)

    sp = sub.add_parser("bracket", help="canonical relations at a seeded potential")
    _add_io(sp, output_only=True)
    sp.add_argument("--modes", type=int, default=3)
    sp.add_argument("--scale", type=float, default=0.01)
    sp.add_argument("--fd-step", type=float, default=1e-5)
    sp.add_argument("--seed", type=int, default=0)

    return p


_DISPATCH = {
    "spectrum": _cmd_spectrum,
    "transform": _cmd_transform,
    "inverse": _cmd_inverse,
    "evolve": _cmd_evolve,
    "compare": _cmd_compare,
    "vanishing": _cmd_vanishing,
    "combi": _cmd_combi,
    "continuity": _cmd_continuity,
    "bracket": _cmd_bracket,
}


def run(args):
    return _DISPATCH[args.cmd](args)


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        return run(args)
    except PropertyViolation as exc:
        print("property violation: %s" % exc, file=sys.stderr)
        return 3
    except NumericalFailure as exc:
        print("numerical failure: %s" % exc, file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
