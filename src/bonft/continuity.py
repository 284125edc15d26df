"""Modulus-of-continuity probes for the coordinate flow at negative regularity.

For -1/2 < s < 0 the flow map fails to be locally uniformly continuous on
the coordinate side: two states agreeing except in a single high mode m can
be made arbitrarily close while their time-t images stay order-delta apart.
A probe pair is supported on the base modes and m, so each probe is built
and evolved on those n_base + 1 indices alone with the flow's own formulas.
The initial distances are certified in closed form and dt against its lower
bound; the phase at mode m, and so dt, carries an error of about t m^2 eps.

Conventions: states are real-flagged, distances are the one-sided weighted
norm with weight n^{1/2+s} on the holomorphic modes.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import PropertyViolation
from .flow import coordinate_weights, rotate, shift_sums
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
        for name in ("max_m", "max_probes"):
            if getattr(self, name) < 1:
                raise ValueError("need %s >= 1, got %d" % (name, getattr(self, name)))
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


def _window_end(x, a, cap):
    """x^(1/a), capped at cap; a power that overflows a float lies past it."""
    try:
        return min(x ** (1.0 / a), cap)
    except OverflowError:
        return cap


def probe_indices(cfg):
    """Admissible probes: multiples of k with (k/m)^s within 1/2 of an odd integer.

    Within each window around an odd target the multiple minimizing the
    distance is kept, so the evolved phase sits as close to pi mod 2pi as
    the lattice allows.  Returns at most max_probes indices, ascending.
    """
    out = []
    a = -cfg.s
    cap = cfg.max_m // cfg.k + 1  # at small |s| the windows run past 1e300
    q = 1
    while len(out) < cfg.max_probes:
        lo, hi = (_window_end(x, a, cap) for x in (q - 0.5, q + 0.5))
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


def _certified_pair(cfg, m, delta):
    """The two states differing only in mode m, on their support ks = [1..n_base, m].

    zeta adds delta/m^{1/2+s} to the base at mode m; xi adds the same with
    the extra transverse component i m^{s/2}.  The three pairwise distances
    have closed forms (delta, delta m^{s/2}, delta sqrt(1+m^s)) and each is
    certified against the measured norm to CLOSED_FORM_RTOL.  Returns
    (ks, weights at ks, plus side of zeta, plus side of xi, measured d0).
    """
    ks = np.append(np.arange(1.0, cfg.n_base + 1), m)
    w = coordinate_weights(ks, cfg.s)
    plus0 = np.array(cfg.base + (0j,), dtype=complex)
    amp = delta / m ** (0.5 + cfg.s)
    plus_z, plus_x = plus0.copy(), plus0.copy()
    plus_z[-1], plus_x[-1] = amp, amp * (1.0 + 1j * m ** (cfg.s / 2.0))
    d0 = weighted_norm(plus_z - plus_x, w)
    checks = (
        (weighted_norm(plus_z - plus0, w), delta),
        (d0, delta * m ** (cfg.s / 2.0)),
        (weighted_norm(plus_x - plus0, w), delta * math.sqrt(1.0 + m ** cfg.s)),
    )
    for got, want in checks:
        if abs(got - want) > CLOSED_FORM_RTOL * want:
            raise PropertyViolation("closed-form distance off: %.17g vs %.17g" % (got, want))
    return ks, w, plus_z, plus_x, d0


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
        ks, w, plus_z, plus_x, d0 = _certified_pair(cfg, m, delta)
        # real states: zeta_{-k} = conj(zeta_k), so the shifts are real
        shift_z = shift_sums(ks, plus_z.conj() * plus_z).real
        shift_x = shift_sums(ks, plus_x.conj() * plus_x).real
        gap = float(abs(shift_z[-1] - shift_x[-1]))
        gap_pred = 2.0 * delta ** 2 * m ** (-cfg.s)
        phase = abs(math.sin(0.5 * cfg.t * gap)) * 2.0
        phase_ok = phase > 1.0
        if resonant and not phase_ok:
            raise PropertyViolation("phase separation %.6f <= 1 at admissible m=%d" % (phase, m))
        dt = weighted_norm(rotate(plus_z, ks, shift_z, cfg.t)
                           - rotate(plus_x, ks, shift_x, cfg.t), w)
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
