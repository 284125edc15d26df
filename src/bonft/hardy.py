"""Value types and basic operations for truncated Fourier data.

Conventions, used everywhere downstream:

* a potential u on the torus is stored by its Fourier coefficients u_hat(n),
  0 < |n| <= N, with u_hat(0) identically zero (mean-free normalization);
* the sesquilinear pairing is <f|g> = sum f_hat(n) conj(g_hat(n)) and the
  bilinear pairing is <f,g> = sum f_hat(n) g_hat(-n), matching the
  normalized integrals (1/2pi) int f conj(g) dx and (1/2pi) int f g dx.

Storage is dense over the declared cutoff: downstream linear algebra is
dense anyway and predictable indexing beats sparse maps here.
"""

import math

import numpy as np


def sobolev_exponent(s):
    """s as a float, checked to be a finite number > -1/2."""
    s = float(s)
    if not -0.5 < s < math.inf:  # NaN fails too
        raise ValueError("Sobolev exponent must be finite and > -1/2, got %r" % s)
    return s


_JSON_TYPES = {"integer": int, "number": (int, float), "boolean": bool}


def json_value(obj, key, kind, default=None):
    """obj[key] as a JSON integer, number or boolean (kind); a bool is neither
    of the first two.  A number reads as a float, and an integer no float
    can hold is a ValueError.  An absent key reads as default, or is a
    KeyError when default is None."""
    v = obj[key] if default is None or key in obj else default
    if isinstance(v, bool) != (kind == "boolean") or not isinstance(v, _JSON_TYPES[kind]):
        raise ValueError("%s must be a JSON %s, got %r" % (key, kind, v))
    if kind == "number":
        try:
            return float(v)
        except OverflowError:
            raise ValueError("%s must be a JSON number within the float range, got an "
                             "integer of %d digits" % (key, len(str(abs(v))))) from None
    return v


def coeffs_from_json(obj, key, im_default):
    """{n: re + i im} from obj[key], a JSON array of {"n", "re", "im"} objects,
    each n at most once; n is a JSON integer, re and im JSON numbers, and an
    absent im reads as im_default (a KeyError when that is None)."""
    items = obj[key]
    if not isinstance(items, list) or not all(isinstance(item, dict) for item in items):
        raise ValueError("%s must be a JSON array of objects, got %r" % (key, items))
    coeffs = {}
    for item in items:
        n = json_value(item, "n", "integer")
        if n in coeffs:
            raise ValueError("duplicate index n=%d" % n)
        coeffs[n] = complex(json_value(item, "re", "number"),
                            json_value(item, "im", "number", im_default))
    return coeffs


def coeffs_to_json(pairs):
    """{"n", "re", "im"} items from (n, value) pairs, in their order."""
    return [{"n": n, "re": float(v.real), "im": float(v.imag)} for n, v in pairs]


class Potential:
    """Truncated mean-zero Fourier data of a potential, with Sobolev exponent s.

    Parameters
    ----------
    s : float
        Sobolev exponent, a finite number > -1/2.
    N : int
        Mode cutoff, >= 1; coefficients live on 0 < |n| <= N.
    coeffs : mapping int -> complex
        For real=True only keys n >= 1 are accepted and u_hat(-n) = conj(u_hat(n))
        is implied; otherwise keys of both signs are accepted.
    real : bool
        Marks the real subspace.
    """

    __slots__ = ("s", "N", "real", "_c")

    def __init__(self, s, N, coeffs, real=False):
        s = sobolev_exponent(s)
        N = int(N)
        if N < 1:
            raise ValueError("mode cutoff must be >= 1, got %r" % N)
        self.s = s
        self.N = N
        self.real = bool(real)
        c = np.zeros(2 * N + 1, dtype=complex)
        for n, v in coeffs.items():
            n = int(n)
            v = complex(v)
            if n == 0:
                raise ValueError("the mean coefficient n=0 is fixed at zero")
            if abs(n) > N:
                raise ValueError("coefficient index %d outside cutoff N=%d" % (n, N))
            if self.real and n < 0:
                raise ValueError("real potentials store n >= 1 only; the reflection is implied")
            if not np.isfinite(v.real) or not np.isfinite(v.imag):
                raise ValueError("coefficient at n=%d is not finite" % n)
            c[N + n] = v
        if self.real:
            c[:N] = np.conj(c[N + 1:][::-1])
        self._c = c
        self._c.setflags(write=False)

    def coeff(self, n):
        """u_hat(n); zero outside the stored band."""
        n = int(n)
        if abs(n) > self.N:
            return 0.0 + 0.0j
        return complex(self._c[self.N + n])

    def band(self):
        """Dense coefficient array over n = -N..N (read-only view)."""
        return self._c

    def nonzero_coeffs(self):
        return {int(n) - self.N: complex(self._c[n]) for n in np.flatnonzero(self._c)}

    def __repr__(self):
        return "Potential(s=%g, N=%d, real=%s, %d nonzero modes)" % (
            self.s, self.N, self.real, int(np.count_nonzero(self._c)))


def weighted_norm(x, w):
    """(sum_n w_n |x_n|^2)^{1/2}: the one weighted sequence norm."""
    return float(np.sqrt(np.sum(w * np.abs(x) ** 2)))


def l2_distance(u, c, band):
    """L^2 distance over 0 < |n| <= band of the real potential u and the real
    state with c[n] = v_hat(n) for n >= 0: each n >= 1 enters twice, once
    per side of the band."""
    diff = np.array([u.coeff(n) - c[n] for n in range(1, band + 1)])
    return weighted_norm(diff, 2.0)


def potential_to_json(u):
    """Serialize to the documented schema (real potentials store n >= 1 only)."""
    c = u.nonzero_coeffs()
    return {"s": u.s, "N": u.N, "real": u.real,
            "coeffs": coeffs_to_json((n, c[n]) for n in sorted(c) if n > 0 or not u.real)}


def potential_from_json(obj):
    """Read the documented schema; an item without im is real."""
    try:
        if not isinstance(obj, dict):
            raise TypeError("the document must be a JSON object, got %r" % (obj,))
        s = json_value(obj, "s", "number")
        N = json_value(obj, "N", "integer")
        real = json_value(obj, "real", "boolean", False)
        coeffs = coeffs_from_json(obj, "coeffs", 0.0)
    except (KeyError, TypeError) as exc:
        raise ValueError("malformed potential object: %s" % exc) from exc
    return Potential(s, N, coeffs, real=real)
