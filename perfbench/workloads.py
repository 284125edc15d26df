"""Seeded inputs, CLI argument lists and output checks for every workload.

Nothing here imports bonft: the inputs are plain JSON documents in the CLI's
potential schema, and the checks recompute what they compare against with
numpy, so a defect in the package cannot also hide in its own check.

A `Workload` turns a seed into the list of operations a run cycles
through.  An operation is a short list of CLI calls, each an (argv, stdin
text) pair driven through `bonft.cli.main`; its latency is the time of all
its calls.  `check(op_index, call_index, stdout)` returns None when the
output is right or a one-line reason when it is not.
"""

import json
import math

import numpy as np

S = 0.5  # Sobolev exponent carried by every generated potential

# Energy identity |H_phys - H_B| on real inputs (acceptance criterion 09).
HAMILTONIAN_TOL = 1e-6
# Second-order agreement with the differential at zero on complex inputs:
# max_n |zeta_n - (dPhi_0 u)_n| / ||u||_{1/2}^2.  Over the 768 inputs of
# seeds 0..11 it peaks at 0.63; the limit is well above that.
LINEARIZATION_C = 1.5
# Coordinate route against direct integration (criterion 06) and the
# Newton residual that flow.solve_trajectory promises (its test fixture).
FLOW_L2_TOL = 1e-6
NEWTON_RESIDUAL_TOL = 1e-10
# Log-log separation growth rate against -s/2 (criterion 12).
SLOPE_REL_TOL = 0.05


def _norm_half(coeffs):
    """||u||_{1/2} over the signed modes given: sum |n| |u_hat(n)|^2."""
    return math.sqrt(sum(abs(n) * abs(v) ** 2 for n, v in coeffs.items()))


def _potential_json(coeffs, N, real):
    items = [{"n": n, "re": float(v.real), "im": float(v.imag)}
             for n, v in sorted(coeffs.items())]
    return json.dumps({"s": S, "N": N, "real": real, "coeffs": items})


def seeded_potential(rng, N, norm, real):
    """A smooth potential on band N with ||u||_{1/2} equal to `norm`.

    Coefficients decay like 1/|n|, as in the round-trip criterion; a real
    potential stores n >= 1 and its norm counts the implied mirror modes.
    """
    modes = range(1, N + 1) if real else [n for n in range(-N, N + 1) if n]
    raw = {n: complex(rng.standard_normal(), rng.standard_normal()) / abs(n)
           for n in modes}
    signed = dict(raw)
    if real:
        signed.update({-n: v.conjugate() for n, v in raw.items()})
    factor = norm / _norm_half(signed)
    return {n: factor * v for n, v in raw.items()}


def hamiltonian_physical(coeffs, N):
    """H_phys = (1/2) sum_{n != 0} |n| |u_hat(n)|^2 - (1/3) mean(u^3), real u."""
    quad = sum(2.0 * n * abs(v) ** 2 for n, v in coeffs.items())
    grid = 4 * N + 4
    x = 2.0 * np.pi * np.arange(grid) / grid
    u = np.zeros(grid)
    for n, v in coeffs.items():
        u += 2.0 * np.real(v * np.exp(1j * n * x))
    return 0.5 * quad - float(np.mean(u ** 3)) / 3.0


def hamiltonian_coordinates(plus):
    """H_B = sum n^2 |zeta_n|^2 - sum_n (sum_{k>=n} |zeta_k|^2)^2."""
    q = np.abs(plus) ** 2
    ns = np.arange(1, len(q) + 1, dtype=float)
    tails = np.cumsum(q[::-1])[::-1]
    return float(np.sum(ns ** 2 * q) - np.sum(tails ** 2))


def _state_sides(doc, n_modes):
    if doc.get("N_b") != n_modes:
        raise ValueError("N_b is %r, want %d" % (doc.get("N_b"), n_modes))
    plus = np.zeros(n_modes, dtype=complex)
    minus = np.zeros(n_modes, dtype=complex)
    for item in doc["plus"]:
        plus[item["n"] - 1] = complex(item["re"], item["im"])
    for item in doc["minus"]:
        minus[-item["n"] - 1] = complex(item["re"], item["im"])
    if not (np.all(np.isfinite(plus)) and np.all(np.isfinite(minus))):
        raise ValueError("non-finite coordinates")
    return plus, minus


class Workload:
    """Seeded operations and their output checks; subclasses fill both."""

    name = None
    fresh_process = False  # True: each operation gets its own interpreter

    def __init__(self, size):
        self.size = size
        self.inputs = []

    def ops(self, seed):
        raise NotImplementedError

    def check(self, i, j, out):
        raise NotImplementedError


class TransformReal(Workload):
    """`transform` on real potentials, N in 2..8, ||u||_{1/2} in [0.02, 0.04], M = 96, 32 modes."""

    name = "transform_real"
    COUNT = 64

    def ops(self, seed):
        M, K, n_hi = (96, 32, 8) if self.size == "full" else (32, 8, 3)
        rng = np.random.default_rng([seed, 1])
        argv = ["transform", "--lax-dim", str(M), "--modes", str(K)]
        self.K = K
        out = []
        for _ in range(self.COUNT):
            N = int(rng.integers(2, n_hi + 1))
            coeffs = seeded_potential(rng, N, 0.02 + 0.02 * rng.random(), real=True)
            self.inputs.append((coeffs, N))
            out.append([(argv, _potential_json(coeffs, N, True))])
        return out

    def check(self, i, j, out):
        coeffs, N = self.inputs[i % len(self.inputs)]
        doc = json.loads(out)
        if doc.get("real") is not True:
            return "state not flagged real"
        plus, minus = _state_sides(doc, self.K)
        if np.max(np.abs(minus - np.conj(plus))) > 0.0:
            return "minus side is not the conjugate of the plus side"
        dev = abs(hamiltonian_physical(coeffs, N) - hamiltonian_coordinates(plus))
        if not dev < HAMILTONIAN_TOL:
            return "|H_phys - H_B| = %.3e" % dev
        return None


class TransformComplex(Workload):
    """`transform` on genuinely complex potentials, N in 2..4, ||u||_{1/2} in [0.01, 0.02], M = 64, 16 modes."""

    name = "transform_complex"
    COUNT = 64

    def ops(self, seed):
        M, K, n_hi = (64, 16, 4) if self.size == "full" else (32, 8, 3)
        rng = np.random.default_rng([seed, 2])
        argv = ["transform", "--lax-dim", str(M), "--modes", str(K)]
        self.K = K
        out = []
        for _ in range(self.COUNT):
            N = int(rng.integers(2, n_hi + 1))
            coeffs = seeded_potential(rng, N, 0.01 + 0.01 * rng.random(), real=False)
            self.inputs.append(coeffs)
            out.append([(argv, _potential_json(coeffs, N, False))])
        return out

    def check(self, i, j, out):
        coeffs = self.inputs[i % len(self.inputs)]
        doc = json.loads(out)
        if doc.get("real") is not False:
            return "complex input came back flagged real"
        plus, minus = _state_sides(doc, self.K)
        lin_plus = np.zeros(self.K, dtype=complex)
        lin_minus = np.zeros(self.K, dtype=complex)
        for n, v in coeffs.items():
            side = lin_plus if n > 0 else lin_minus
            side[abs(n) - 1] = -v / math.sqrt(abs(n))
        dev = max(np.max(np.abs(plus - lin_plus)), np.max(np.abs(minus - lin_minus)))
        ratio = float(dev) / _norm_half(coeffs) ** 2
        if not ratio <= LINEARIZATION_C:
            return "|zeta - dPhi_0 u| / ||u||^2 = %.3f" % ratio
        return None


class Trajectory(Workload):
    """`compare` on one seeded smooth real potential (N = 6, ||u||_{1/2} = 0.02)
    at the criterion-06 setting."""

    name = "trajectory"

    def ops(self, seed):
        if self.size == "full":
            N, times, extra = 6, "0.25,0.5,1.0", ["--lax-dim", "96", "--modes", "32"]
        else:
            N, times, extra = 2, "0.05", ["--lax-dim", "32", "--modes", "8", "--grid", "32"]
        rng = np.random.default_rng([seed, 3])
        coeffs = seeded_potential(rng, N, 0.02, real=True)
        self.times = [float(t) for t in times.split(",")]
        argv = ["compare", "--t", times, "--format", "json"] + extra
        return [[(argv, _potential_json(coeffs, N, True))]]

    def check(self, i, j, out):
        doc = json.loads(out)
        if [r["t"] for r in doc["rows"]] != self.times:
            return "sample times %r" % [r["t"] for r in doc["rows"]]
        worst = max(r["l2_diff"] for r in doc["rows"])
        if not worst < FLOW_L2_TOL:
            return "route difference %.3e" % worst
        res = doc["newton_residuals"]
        if len(res) != len(self.times) + 1 or not max(res) < NEWTON_RESIDUAL_TOL:
            return "Newton residuals %r" % res
        return None


class Verify(Workload):
    """The exact verifiers, one operation being three CLI calls:

    `vanishing`: exhaustive d <= 4 with |l| <= 6 plus 10^4 tuples drawn from
    the seed; `combi`: every instance with d <= 8; `continuity`: the
    criterion-12 setting s = -0.45, k = 8, run out to 40 probes (m up to
    about 1.3e5).  At the CLI default s = -0.25 the fitted slope is 5.1%
    below -s/2, so the 5% slope check of criterion 12 holds only in its own
    setting.
    """

    name = "verify"
    # the residue cache is process-wide: each sweep must meet it cold, as a
    # CLI user does (a warm cache runs the sweep several times faster)
    fresh_process = True
    S_CONT = -0.45

    def ops(self, seed):
        full = self.size == "full"
        self.max_d, self.bound, self.random = (4, 6, 10000) if full else (2, 2, 20)
        self.combi_d = 8 if full else 4
        reach = ["--max-m", "600000", "--max-probes", "40"] if full else ["--max-m", "4000"]
        return [[
            (["vanishing", "--max-d", str(self.max_d), "--l-bound", str(self.bound),
              "--random-count", str(self.random), "--seed", str(seed), "--format", "json"], ""),
            (["combi", "--max-d", str(self.combi_d), "--format", "json"], ""),
            (["continuity", "--s", str(self.S_CONT), "--k", "8", "--format", "json"] + reach, ""),
        ]]

    def check(self, i, j, out):
        doc = json.loads(out)
        if j == 0:
            want = {str(d): (2 * self.bound + 1) ** d for d in range(1, self.max_d + 1)}
            if doc["exhaustive"] != want:
                return "exhaustive counts %r" % doc["exhaustive"]
            if doc["random"] != self.random or doc["violations"] != 0:
                return "random %r, violations %r" % (doc["random"], doc["violations"])
        elif j == 1:
            want = {str(d): math.comb(2 * d, d - 1) for d in range(1, self.combi_d + 1)}
            if doc["instances"] != want or doc["violations"] != 0:
                return "instances %r, violations %r" % (doc["instances"], doc["violations"])
        else:
            want = -self.S_CONT / 2.0
            if not doc["rows"] or not abs(doc["slope"] - want) <= SLOPE_REL_TOL * want:
                return "slope %r against %r" % (doc["slope"], want)
        return None


WORKLOADS = {w.name: w for w in (TransformReal, TransformComplex, Trajectory, Verify)}

# Warm-up run by every worker before it is ready: one real and one complex
# transform, so the first eigh and the first eig (with left vectors) both
# happen inside the set-up time rather than in a latency sample.
WARMUP = [
    (["transform", "--lax-dim", "32", "--modes", "8"],
     _potential_json({1: 0.01 + 0.002j, 2: -0.003 + 0.001j}, 2, True)),
    (["transform", "--lax-dim", "32", "--modes", "8"],
     _potential_json({1: 0.01 + 0.002j, -2: -0.003 + 0.001j}, 2, False)),
]
