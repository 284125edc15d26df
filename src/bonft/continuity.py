"""Modulus-of-continuity probes for the coordinate flow at negative regularity.

For -1/2 < s < 0 the flow map fails to be locally uniformly continuous on
the coordinate side: two states agreeing except in a single high mode m can
be made arbitrarily close while their time-t images stay order-delta apart.
A probe pair is supported on the base modes and m, so each probe is built
and evolved on those n_base + 1 indices alone, by its relative phase: the
common factor e^{it(n^2 + Omega^zeta_n)} of the two states has modulus 1.
The initial distances are certified in closed form and dt against its
lower bound.

Conventions: states are real-flagged, distances are the one-sided weighted
norm with weight n^{1/2+s} on the holomorphic modes.
"""

import math

import numpy as np

from .errors import PropertyViolation
from .flow import coordinate_weights, shift_sums
from .hardy import weighted_norm

CLOSED_FORM_RTOL = 1e-12


def _window_end(x, a, cap):
    """x^(1/a), capped at cap; a power that overflows a float lies past it."""
    try:
        return min(x ** (1.0 / a), cap)
    except OverflowError:
        return cap


def probe_indices(s, k, max_m, n_base, max_probes):
    """Admissible probes: multiples of k with (k/m)^s within 1/2 of an odd integer.

    Each odd target q keeps the multiple jk in its window with j^{-s} nearest q, so
    the evolved phase sits as close to pi mod 2pi as the lattice allows.  j^{-s} is
    monotone, so only the two j next to q^{-1/s} compete.  Ascending, <= max_probes.
    """
    out = []
    a = -s
    top = max_m // k  # windows are capped at top + 1: at small |s| they pass 1e300
    q = 1
    while len(out) < max_probes:
        lo, hi, target = (_window_end(x, a, top + 1) for x in (q - 0.5, q + 0.5, q))
        j_lo = max(math.ceil(lo + 1e-12), n_base // k + 1)  # above the base support
        if j_lo > top:
            break
        j_hi = min(math.floor(hi - 1e-12), top)
        if j_lo <= j_hi:
            j = min(max(math.floor(target), j_lo), j_hi)
            best = min(range(j, min(j + 1, j_hi) + 1), key=lambda i: abs(i ** a - q))
            out.append(best * k)
        q += 2
    return out


def _certified_pair(s, base, m, delta):
    """The two states differing only in mode m, on their support ks = [1..len(base), m].

    zeta adds delta/m^{1/2+s} to the base at mode m; xi adds the same with
    the extra transverse component i m^{s/2}.  The three pairwise distances
    have closed forms (delta, delta m^{s/2}, delta sqrt(1+m^s)) and each is
    certified against the measured norm to CLOSED_FORM_RTOL.  Returns
    (ks, weights at ks, plus side of zeta, plus side of xi, measured d0).
    """
    ks = np.append(np.arange(1.0, len(base) + 1), m)
    w = coordinate_weights(ks, s)
    plus0 = np.array(base + (0j,), dtype=complex)
    amp = delta / m ** (0.5 + s)
    plus_z, plus_x = plus0.copy(), plus0.copy()
    plus_z[-1], plus_x[-1] = amp, amp * (1.0 + 1j * m ** (s / 2.0))
    d0 = weighted_norm(plus_z - plus_x, w)
    checks = (
        (weighted_norm(plus_z - plus0, w), delta),
        (d0, delta * m ** (s / 2.0)),
        (weighted_norm(plus_x - plus0, w), delta * math.sqrt(1.0 + m ** s)),
    )
    for got, want in checks:
        if abs(got - want) > CLOSED_FORM_RTOL * want:
            raise PropertyViolation("closed-form distance off: %.17g vs %.17g" % (got, want))
    return ks, w, plus_z, plus_x, d0


def sweep(s, t, base, k, max_m, delta, max_probes):
    """One row per admissible probe; raises PropertyViolation on a failed bound.

    base is zeta^0_1 .. zeta^0_N, the holomorphic side of the real base
    state.  delta None selects the resonant size sqrt(pi k^s / 2|t|).  Bad
    inputs raise ValueError, as does a run with fewer than two probes: one
    probe shows no growth rate.

    Row fields: m, delta, d0, dt, ratio, omega_gap_pred, omega_gap_meas,
    phase_bound_ok.  The states differ only in |zeta_m|^2 and the shifts
    are linear in the products, so Delta = shift_sums of the one product
    |xi_m - zeta_m|^2: the gap |Delta_m| is measured with nothing cancelled.
    The separation bound dt >= (sqrt(1+m^s) - m^{s/2}) delta follows from
    the phase bound |e^{i t gap} - 1| > 1, so it is enforced on the rows
    where the phase bound holds.  The phase bound itself is enforced only
    for the resonant delta, where admissibility guarantees it; a given
    delta keeps phase_bound_ok as a row field.  A ValueError rejects a given
    delta that is not > 0, and any delta with delta^2 m^{-1-s} subnormal or
    4 delta^2 m^{-2s} max(1, |t|), the largest shift or phase, overflowing
    at the largest probe m.
    """
    if not -0.5 < s < 0.0:
        raise ValueError("s must lie strictly in (-1/2, 0)")
    if t == 0 or not math.isfinite(t):
        raise ValueError("t must be nonzero and finite")
    if int(k) < 1:
        raise ValueError("k must be a positive integer")
    for name, value, floor in (("max_m", max_m, 1), ("max_probes", max_probes, 2)):
        if value < floor:  # a slope needs >= 2 probes
            raise ValueError("need %s >= %d, got %d" % (name, floor, value))
    base = tuple(complex(v) for v in base)
    if any(not (math.isfinite(v.real) and math.isfinite(v.imag)) for v in base):
        raise ValueError("non-finite base coordinate")
    resonant = delta is None
    if resonant:
        delta = math.sqrt(math.pi * k ** s / 2.0 / abs(t))  # 2|t| overflows past 8.99e307
    elif not delta > 0:  # NaN too; a large delta meets the float-range check below
        raise ValueError("delta must be > 0, got %g" % delta)
    delta = float(delta)
    probes = probe_indices(s, k, max_m, len(base), max_probes)
    if len(probes) < 2:
        raise ValueError("need at least two probes for a growth rate, found %d" % len(probes))
    top, fmax = probes[-1], np.finfo(float)
    if not (delta * delta * top ** (-1.0 - s) >= fmax.tiny
            and 4.0 * delta * delta * top ** (-2.0 * s) * max(1.0, abs(t)) <= fmax.max):
        raise ValueError("delta=%g at t=%g leaves the float range at probe m=%d" % (delta, t, top))
    rows = []
    for m in probes:
        ks, w, plus_z, plus_x, d0 = _certified_pair(s, base, m, delta)
        rel = shift_sums(ks, np.abs(plus_x - plus_z) ** 2)  # Omega^xi - Omega^zeta
        gap = float(abs(rel[-1]))
        gap_pred = 2.0 * delta ** 2 * m ** (-s)
        phase = abs(math.sin(0.5 * t * gap)) * 2.0
        phase_ok = phase > 1.0
        if resonant and not phase_ok:
            raise PropertyViolation("phase separation %.6f <= 1 at admissible m=%d" % (phase, m))
        dt = weighted_norm(plus_z - plus_x * np.exp(1j * t * rel), w)
        bound = (math.sqrt(1.0 + m ** s) - m ** (s / 2.0)) * delta
        if phase_ok and dt < bound * (1.0 - 1e-12):
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
