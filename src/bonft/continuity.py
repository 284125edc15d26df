"""Modulus-of-continuity probes for the coordinate flow at negative regularity.

For -1/2 < s < 0 the flow map fails to be locally uniformly continuous on
the coordinate side: two states agreeing except in a single high mode m can
be made arbitrarily close while their time-t images stay order-delta apart.
Everything here lives in sequence space and is evaluated in closed form,
so the sweep doubles as a high-precision test of the flow's phase formula.

Conventions: states are real-flagged, distances are the one-sided weighted
norm with weight n^{1/2+s} on the holomorphic modes.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .birkhoff import BirkhoffState
from .errors import PropertyViolation
from .flow import coordinate_weights, evolve, frequency_shifts
from .hardy import weighted_norm

CLOSED_FORM_RTOL = 1e-12
DELTA_CAP = 10.0  # largest perturbation size a config accepts


@dataclass
class ContinuityConfig:
    s: float = -0.25
    t: float = 1.0
    base: tuple = ()           # zeta^0_1 .. zeta^0_N (real state, holomorphic side)
    k: int = 2
    max_m: int = 10 ** 6
    delta: float = None        # None selects the resonant size for this t
    max_probes: int = 12

    def __post_init__(self):
        if not -0.5 < self.s < 0.0:
            raise ValueError("s must lie strictly in (-1/2, 0)")
        if self.t == 0 or not math.isfinite(self.t):
            raise ValueError("t must be nonzero and finite")
        if int(self.k) < 1:
            raise ValueError("k must be a positive integer")
        base = tuple(complex(v) for v in self.base)
        if any(not (math.isfinite(v.real) and math.isfinite(v.imag)) for v in base):
            raise ValueError("non-finite base coordinate")
        object.__setattr__(self, "base", base)
        if self.delta is not None and not 0 < self.delta <= DELTA_CAP:
            raise ValueError("delta must lie in (0, %g]" % DELTA_CAP)

    @property
    def n_base(self):
        return len(self.base)

    def delta_value(self):
        """Perturbation size: given, or the resonant choice sqrt(pi k^s / 2|t|)."""
        if self.delta is not None:
            return float(self.delta)
        return math.sqrt(math.pi * self.k ** self.s / (2.0 * abs(self.t)))


def probe_indices(cfg):
    """Admissible probes: multiples of k with (k/m)^s within 1/2 of an odd integer.

    Within each window around an odd target the multiple minimizing the
    distance is kept, so the evolved phase sits as close to pi mod 2pi as
    the lattice allows.  Returns at most max_probes indices, ascending.
    """
    out = []
    a = -cfg.s
    q = 1
    while len(out) < cfg.max_probes:
        lo = (q - 0.5) ** (1.0 / a)
        hi = (q + 0.5) ** (1.0 / a)
        j_lo = max(1, math.ceil(lo + 1e-12))
        j_hi = math.floor(hi - 1e-12)
        if j_lo * cfg.k > cfg.max_m:
            break
        cands = [j for j in range(j_lo, j_hi + 1)
                 if cfg.n_base < j * cfg.k <= cfg.max_m]
        if cands:
            best = min(cands, key=lambda j: abs(j ** a - q))
            out.append(best * cfg.k)
        q += 2
    return out


def build_pair(cfg, m):
    """The two states differing only in mode m, plus their closed-form distances.

    zeta adds delta/m^{1/2+s} to the base at mode m; xi adds the same with
    the extra transverse component i m^{s/2}.  The three pairwise distances
    have closed forms (delta, delta m^{s/2}, delta sqrt(1+m^s)) and each is
    certified against the measured norm to CLOSED_FORM_RTOL.
    """
    m = int(m)
    zeta, xi, _ = _certified_pair(cfg, m, coordinate_weights(m, cfg.s))
    return zeta, xi


def _certified_pair(cfg, m, w):
    """build_pair with the weights of mode m given; also returns the measured d0."""
    if m <= cfg.n_base:
        raise ValueError("probe index %d must exceed the base support %d" % (m, cfg.n_base))
    delta = cfg.delta_value()
    plus0 = np.zeros(m, dtype=complex)
    plus0[:cfg.n_base] = cfg.base
    amp = delta / m ** (0.5 + cfg.s)
    plus_z = plus0.copy()
    plus_z[m - 1] = amp
    plus_x = plus0.copy()
    plus_x[m - 1] = amp * (1.0 + 1j * m ** (cfg.s / 2.0))
    zeta = BirkhoffState(0.5 + cfg.s, plus_z, None, real_flag=True)
    xi = BirkhoffState(0.5 + cfg.s, plus_x, None, real_flag=True)

    d0 = weighted_norm(plus_z - plus_x, w)
    checks = (
        (weighted_norm(plus_z - plus0, w), delta),
        (d0, delta * m ** (cfg.s / 2.0)),
        (weighted_norm(plus_x - plus0, w), delta * math.sqrt(1.0 + m ** cfg.s)),
    )
    for got, want in checks:
        if abs(got - want) > CLOSED_FORM_RTOL * want:
            raise PropertyViolation("closed-form distance off: %.17g vs %.17g" % (got, want))
    return zeta, xi, d0


def sweep(cfg):
    """One row per admissible probe; raises PropertyViolation on a failed bound.

    Row fields: m, delta, d0, dt, ratio, omega_gap_pred, omega_gap_meas,
    phase_bound_ok.  The frequency gap at mode m is measured from the
    affine frequency parts so the m^2 term cancels before any rounding.
    The separation bound dt >= (sqrt(1+m^s) - m^{s/2}) delta is enforced
    always; the phase bound |e^{i t gap} - 1| > 1 is enforced only for the
    resonant delta, where admissibility guarantees it.
    """
    probes = probe_indices(cfg)
    if not probes:
        raise ValueError("no admissible probe below max_m=%d" % cfg.max_m)
    delta = cfg.delta_value()
    resonant = cfg.delta is None
    rows = []
    for m in probes:
        w = coordinate_weights(m, cfg.s)
        zeta, xi, d0 = _certified_pair(cfg, m, w)
        shifts_z = frequency_shifts(zeta)
        shifts_x = frequency_shifts(xi)
        gap = float(abs(shifts_z[0][m - 1] - shifts_x[0][m - 1]))
        gap_pred = 2.0 * delta ** 2 * m ** (-cfg.s)
        phase = abs(math.sin(0.5 * cfg.t * gap)) * 2.0
        phase_ok = phase > 1.0
        if resonant and not phase_ok:
            raise PropertyViolation("phase separation %.6f <= 1 at admissible m=%d" % (phase, m))
        zt = evolve(zeta, cfg.t, shifts_z)
        xt = evolve(xi, cfg.t, shifts_x)
        dt = weighted_norm(zt.plus - xt.plus, w)
        bound = (math.sqrt(1.0 + m ** cfg.s) - m ** (cfg.s / 2.0)) * delta
        if dt < bound * (1.0 - 1e-12):
            raise PropertyViolation("dt=%.17g below the bound %.17g at m=%d" % (dt, bound, m))
        rows.append({
            "m": m,
            "delta": delta,
            "d0": d0,
            "dt": dt,
            "ratio": dt / d0,
            "omega_gap_pred": gap_pred,
            "omega_gap_meas": gap,
            "phase_bound_ok": phase_ok,
        })
    return rows


def ratio_slope(rows):
    """Log-log slope of dt/d0 against m; the construction predicts -s/2."""
    if len(rows) < 2:
        raise ValueError("need at least two rows to fit a slope")
    x = np.log([r["m"] for r in rows])
    y = np.log([r["ratio"] for r in rows])
    return float(np.polyfit(x, y, 1)[0])
