"""Subcommand dispatcher.

Exit codes: 0 success, 1 invalid input (bad flags, unreadable paths,
malformed JSON, sizes too large to allocate), 2 numerical failure, 3
property violation found by a verifier subcommand.  All randomness flows
from the single --seed generator; with fixed flags and seed the output
bytes are reproducible.
"""

import argparse
import functools
import json
import re
import sys
import warnings

import numpy as np

from . import pde
from .birkhoff import (birkhoff_forward, canonical_bracket_table, state_from_json,
                       state_to_json)
from .continuity import ratio_slope, sweep
from .errors import NumericalFailure, PropertyViolation
from .flow import NEWTON_TOL, evolve, invert, solve_trajectory
from .hardy import Potential, l2_distance, potential_from_json, potential_to_json
from .lax import gaps, spectrum
from .residues import sweep_combi, sweep_vanishing


class _Parser(argparse.ArgumentParser):
    def __init__(self, **kwargs):
        # a unique prefix of a flag would otherwise stand for the whole flag
        super().__init__(allow_abbrev=False, **kwargs)
        # argparse reads -1e3 as a flag, not a value; no bonft flag looks like
        # a number, so every negative number, exponent form too, is a value
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    # argparse exits with its own code 2 on bad flags, which collides with
    # the numerical-failure code; route everything through ValueError -> 1
    def error(self, message):
        raise ValueError(message)


def _read_json(path):
    if path == "-":
        return json.load(sys.stdin)
    with open(path) as fh:
        return json.load(fh)


def _write(args, doc, rows=None):
    """Write doc as JSON, or the dict rows as CSV under --format csv (the first
    row's keys the header), to stdout when args.output is "-" and to that path
    otherwise."""
    if args.format == "csv":
        lines = [",".join(rows[0])]
        for row in rows:
            cells = []
            for v in row.values():
                if isinstance(v, bool):
                    cells.append("1" if v else "0")
                elif isinstance(v, float):
                    cells.append("%.17g" % v)
                else:
                    cells.append(str(v))
            lines.append(",".join(cells))
        text = "\n".join(lines) + "\n"
    else:
        text = json.dumps(doc, sort_keys=True, indent=1) + "\n"
    if args.output == "-":
        sys.stdout.write(text)
    else:
        with open(args.output, "w") as fh:
            fh.write(text)


def _seeded_draws(rng, count, scale):
    """count values scale (x + iy), each x and then its y a standard normal draw."""
    return [scale * (rng.standard_normal() + 1j * rng.standard_normal())
            for _ in range(count)]


def _cmd_spectrum(args):
    u = potential_from_json(_read_json(args.input))
    sd = spectrum(u, args.lax_dim, k_use=args.modes)
    gam = gaps(sd)
    lam = sd.lambdas
    rows = [{"n": n, "lambda_re": lam[n].real, "lambda_im": lam[n].imag,
             "gap_re": gam[n - 1].real if n else 0.0, "gap_im": gam[n - 1].imag if n else 0.0}
            for n in range(len(lam))]
    _write(args, {
        "M": len(sd.right_vecs) - 1,
        "K_use": len(lam) - 1,
        "hermitian": sd.hermitian,
        "min_separation": sd.min_separation,
        "lambdas": [[v.real, v.imag] for v in lam],
        "gaps": [[v.real, v.imag] for v in gam],
    }, rows)


def _cmd_transform(args):
    u = potential_from_json(_read_json(args.input))
    z = birkhoff_forward(u, M=args.lax_dim, k_use=args.modes)
    _write(args, state_to_json(z, diagnostics=z.diagnostics))


def _cmd_inverse(args):
    z = state_from_json(_read_json(args.input))
    u, _, _ = invert(z, M=args.lax_dim, tol=args.tol_newton)
    _write(args, potential_to_json(u))


def _cmd_evolve(args):
    z = state_from_json(_read_json(args.input))
    _write(args, state_to_json(evolve(z, args.t)))


def _cmd_compare(args):
    u0 = potential_from_json(_read_json(args.input))
    try:
        ts = [float(x) for x in args.t.split(",")]
    except ValueError:
        raise ValueError("bad time grid %r; want comma-separated floats" % args.t)
    icfg = pde.IntegratorConfig(args.grid, args.dt, ts)
    pde.check_band(icfg.grid_size, u0.N)

    samples, diag = solve_trajectory(u0, (0.0,) + icfg.times, args.lax_dim, args.modes)
    traj = pde.integrate(u0, icfg)

    rows = [{"t": t, "l2_diff": l2_distance(u_b, traj.coeffs[i], traj.band)}
            for i, (t, u_b) in enumerate(samples[1:], 1)]
    _write(args, dict(diag, rows=rows), rows)


def _cmd_vanishing(args):
    rng = np.random.default_rng(args.seed)
    counts, random_checked, violations = sweep_vanishing(
        args.max_d, args.l_bound, args.random_count, rng)
    rows = [{"check": "exhaustive_d%d" % d, "count": counts[d]} for d in sorted(counts)]
    rows.append({"check": "random", "count": random_checked})
    rows.append({"check": "violations", "count": len(violations)})
    _write(args, {"exhaustive": {str(d): counts[d] for d in sorted(counts)},
                  "random": random_checked,
                  "violations": len(violations)}, rows)
    if violations:
        raise PropertyViolation("%d tuples violate the vanishing identity, first: %r"
                                % (len(violations), violations[0]))


def _cmd_combi(args):
    counts, violations = sweep_combi(args.max_d)
    bad = sum(n for _, n, _ in violations)
    rows = [{"check": "d%d" % d, "count": counts[d]} for d in sorted(counts)]
    rows.append({"check": "violations", "count": bad})
    _write(args, {"instances": {str(d): counts[d] for d in sorted(counts)},
                  "violations": bad}, rows)
    if violations:
        d, _, (J, q) = violations[0]
        raise PropertyViolation("%d instances break |K_ad| = |J_ad| + 1, first: d=%d, J=%r, q=%r"
                                % (bad, d, J, q))


def _cmd_continuity(args):
    if args.n_base < 0:
        raise ValueError("need n_base >= 0, got %d" % args.n_base)
    base = _seeded_draws(np.random.default_rng(args.seed), args.n_base, 0.01)
    rows = sweep(args.s, args.t, base, args.k, args.max_m, args.delta, args.max_probes)
    _write(args, {"rows": rows, "slope": ratio_slope(rows), "slope_predicted": -args.s / 2.0},
           rows)


def _cmd_bracket(args):
    rng = np.random.default_rng(args.seed)
    # the brackets do not depend on the Sobolev exponent, so it is fixed at 1/2
    u = Potential(0.5, 4, dict(enumerate(_seeded_draws(rng, 4, args.scale), 1)), real=True)
    pm, pp = canonical_bracket_table(u, args.modes, args.fd_step)
    target = -1j * np.eye(args.modes)
    _write(args, {
        "n_max": args.modes,
        "max_dev_canonical": float(np.max(np.abs(pm - target))),
        "max_dev_holomorphic": float(np.max(np.abs(pp))),
        "bracket_plus_minus": [[[v.real, v.imag] for v in row] for row in pm],
        "bracket_plus_plus": [[[v.real, v.imag] for v in row] for row in pp],
    })


def _verb(sub, name, run, help, reads=True, fmt=None):
    """Add subcommand name running run(args); -i if it reads, --format=fmt if given."""
    sp = sub.add_parser(name, help=help)
    sp.set_defaults(run=run, format="json")
    if reads:
        sp.add_argument("-i", "--input", default="-", help="input JSON path, - for stdin")
    sp.add_argument("-o", "--out", "--output", dest="output", default="-",
                    help="output path, - for stdout")
    if fmt is not None:
        sp.add_argument("--format", choices=("json", "csv"), default=fmt)
    return sp


@functools.cache
def build_parser():
    p = _Parser(prog="bonft", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="cmd", metavar="subcommand")
    sub.required = True

    sp = _verb(sub, "spectrum", _cmd_spectrum, "truncated Lax eigenvalues and gaps", fmt="json")
    sp.add_argument("--lax-dim", type=int, default=None)
    sp.add_argument("--modes", type=int, default=None)

    sp = _verb(sub, "transform", _cmd_transform, "potential to coordinate state")
    sp.add_argument("--lax-dim", type=int, default=None)
    sp.add_argument("--modes", type=int, default=None)

    sp = _verb(sub, "inverse", _cmd_inverse, "coordinate state to potential")
    sp.add_argument("--lax-dim", type=int, default=None)
    sp.add_argument("--tol-newton", type=float, default=NEWTON_TOL)

    sp = _verb(sub, "evolve", _cmd_evolve, "advance a coordinate state by t")
    sp.add_argument("--t", type=float, required=True)

    sp = _verb(sub, "compare", _cmd_compare, "coordinate flow vs direct integration", fmt="json")
    sp.add_argument("--t", default="0.25,0.5,1.0", help="comma-separated times")
    sp.add_argument("--lax-dim", type=int, default=None)
    sp.add_argument("--modes", type=int, default=None)
    sp.add_argument("--grid", type=int, default=256,
                    help="RK4 grid points, a power of two >= 4N (default %(default)s)")
    sp.add_argument("--dt", type=float, default=5e-4,
                    help="RK4 step (default %(default)g); every time must be a multiple of it")

    sp = _verb(sub, "vanishing", _cmd_vanishing, "exact residue identity sweep",
               reads=False, fmt="csv")
    sp.add_argument("--max-d", type=int, default=4)
    sp.add_argument("--l-bound", type=int, default=6)
    sp.add_argument("--random-count", type=int, default=0)
    sp.add_argument("--seed", type=int, default=0)

    sp = _verb(sub, "combi", _cmd_combi, "partition-count identity sweep", reads=False, fmt="csv")
    sp.add_argument("--max-d", type=int, default=6)

    sp = _verb(sub, "continuity", _cmd_continuity, "modulus-of-continuity probe sweep",
               reads=False, fmt="csv")
    sp.add_argument("--s", type=float, default=-0.25)
    sp.add_argument("--t", type=float, default=1.0)
    sp.add_argument("--k", type=int, default=2)
    sp.add_argument("--n-base", type=int, default=0)
    sp.add_argument("--max-m", type=int, default=10 ** 6)
    sp.add_argument("--max-probes", type=int, default=12)
    sp.add_argument("--delta", type=float, default=None)
    sp.add_argument("--seed", type=int, default=0)

    sp = _verb(sub, "bracket", _cmd_bracket, "canonical relations at a seeded potential",
               reads=False)
    sp.add_argument("--modes", type=int, default=3)
    sp.add_argument("--scale", type=float, default=0.01)
    sp.add_argument("--fd-step", type=float, default=1e-5)
    sp.add_argument("--seed", type=int, default=0)

    return p


def main(argv=None):
    # a warning the filters let through prints as one line, like the errors
    with warnings.catch_warnings():
        warnings.showwarning = lambda message, *_: print("warning: %s" % message, file=sys.stderr)
        try:
            args = build_parser().parse_args(argv)
            args.run(args)
            return 0
        except PropertyViolation as exc:
            print("property violation: %s" % exc, file=sys.stderr)
            return 3
        except NumericalFailure as exc:
            print("numerical failure: %s" % exc, file=sys.stderr)
            return 2
        except (ValueError, OSError) as exc:
            print("error: %s" % exc, file=sys.stderr)
            return 1
        except MemoryError as exc:
            print("error: %s" % (str(exc) or "out of memory"), file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())
