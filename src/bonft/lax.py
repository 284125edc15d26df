"""Truncated Lax operator on the Hardy space.

The operator acts on nonnegative Fourier modes as multiplication by the
mode index minus a Toeplitz part built from the potential:

    (L)_{jk} = j delta_{jk} - u_hat(j - k),   0 <= j, k <= M.

Everything downstream (gaps, norming constants, the coordinate map) reads
off this one matrix, so this module owns assembly and the eigensolve with
its simplicity and near-orthogonality guards; it keeps the K_use + 1
lowest eigenpairs, the ones the pipeline reads, and it is the one place
that judges the cut at M: the Lax residual of each kept eigenpair against
the infinite operator (see spectrum).  A real potential gives a
Hermitian matrix and numpy's eigh, its eigenvalues kept real; a complex
one gives numpy's eig for the right eigenvectors, with the left ones read
off the inverse of their matrix.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailure, PropertyViolation, TruncationWarning

SIMPLICITY_TOL = 1e-8
GAP_TOL = 1e-10
RESIDUAL_TOL = 1e-6


def assemble_lax(u, M):
    """The (M+1) x (M+1) truncation of D - T_u as a dense complex array.

    M must at least cover the band of u (M >= N).  Whether the cut is fine
    enough is not judged here but by the Lax residual in spectrum.
    """
    M = int(M)
    if M < u.N:
        raise ValueError("truncation M=%d cannot hold a band of width N=%d" % (M, u.N))
    if 16 * (M + 1) ** 2 > np.iinfo(np.intp).max:  # the bytes of the complex matrix
        raise ValueError("truncation M=%d too large for an array" % M)
    j = np.arange(M + 1)
    diff = j[:, None] - j[None, :]
    coeffs = np.zeros(2 * M + 1, dtype=complex)
    coeffs[M - u.N:M + u.N + 1] = u.band()
    return np.diag(j.astype(complex)) - coeffs[diff + M]


@dataclass
class SpectralData:
    """The labels n <= K_use of a truncated spectrum, K_use = len(lambdas) - 1.

    lambdas are sorted by increasing real part (real for a Hermitian
    truncation, complex otherwise); right_vecs and left_vecs store their
    unit eigenvectors columnwise (left vectors w satisfy w^H L = lambda w^H,
    so for a Hermitian matrix they coincide with the right ones; otherwise
    w_n is the conjugate of row n of V^{-1}, scaled to unit length).
    min_separation is taken over all M+1 eigenvalues.
    """

    lambdas: np.ndarray
    right_vecs: np.ndarray
    left_vecs: np.ndarray
    hermitian: bool
    min_separation: float


def spectrum(u, M, k_use=None):
    """The eigenpairs n <= K_use of the truncated Lax matrix, with its guards.

    Labels follow increasing real part, then imaginary part; eigh's
    ascending order of a real spectrum already satisfies this rule.  A pair
    of eigenvalues closer than SIMPLICITY_TOL leaves the labeling (and every
    rank-one projector) undefined, so that raises NumericalFailure rather
    than picking an order.  With unit vectors 1/|w_n^H v_n| is the condition
    number of lambda_n, and the chain divides by w_n^H v_n: below 1e-12 for
    some n <= K_use that raises NumericalFailure too.  K_use defaults to
    M/2: the upper half of a truncated spectrum is polluted by the cut.

    The cut is certified by the Lax residual.  Past RESIDUAL_TOL for some
    kept label, one TruncationWarning names M, the worst label n and its
    residual; labels past what the cut resolves warn too.  The argument,
    with L_M the truncation, L_u the operator on all modes j >= 0 and
    x = [v_n; 0] the unit eigenvector v_n of L_M padded with zeros:

      1. The residual.  rho = lambda_n(L_M) = x^H L_u x, and
         (L_u - rho) x vanishes in rows 0..M up to the eigensolver's
         rounding.  Row j > M is -sum_k u_hat(j - k) v_n[k], nonzero only
         for k >= j - N, so it lives in rows M+1..M+N:
         r_n = -T v_n[M-N+1:], T[i, l] = u_hat(N+i-l) for l >= i and 0
         below, an N x N upper-triangular Toeplitz block.  A left vector
         w_n solves L_u^H w = conj(lambda_n) w on the cut, and the same
         rows of L_u^H hold conj(u_hat(l-i-N)).
      2. An eigenvalue nearby.  For real u, L_u is self-adjoint, so some
         eigenvalue lies within ||r_n|| of rho (Krylov-Weinstein).  Its
         eigenvalues are simple with lambda_{m+1} - lambda_m = 1 +
         gamma_{m+1} >= 1, so for ||r_n|| < 1/2 it is the only one there.
      3. Min-max ties the label n.  L_M is the compression of L_u to modes
         0..M, so rho >= lambda_n(L_u), and the gap of at least 1 below
         lambda_n(L_u) puts the eigenvalue of step 2 at label n or above.
         The trace identities lambda_m(L_u) = m - sum_{k>m} gamma_k and
         sum_k k gamma_k = sum_{k>=1} |u_hat(k)|^2 = P give
         lambda_m(L_u) in [m - P, m], so while rho + ||r_n|| < n + 1 - P
         the label is not above n either: it is lambda_n(L_u).
      4. The eigenvalue.  The rest of the spectrum lies at least
         1 - ||r_n|| from rho, so Kato-Temple gives
         |lambda_n(L_M) - lambda_n(L_u)| <= ||r_n||^2 / (1 - ||r_n||).
      5. The vector.  With the same separation, Davis-Kahan's sin theta
         theorem bounds the angle between v_n and the eigenvector of L_u
         by ||r_n|| / (1 - ||r_n||) (Parlett, The Symmetric Eigenvalue
         Problem, for steps 2, 4 and 5).
      6. For complex u, L_u is not normal, so neither Kato-Temple nor
         Davis-Kahan holds: ||r_n|| (the larger of the right and the left
         vector's) is a number, not a bound, next to the condition number
         1/|w_n^H v_n| that Bauer-Fike would multiply it by.

    So at RESIDUAL_TOL = 1e-6 a silent real spectrum has its eigenvalues to
    about 1e-12 and its vectors to about 1e-6 in angle.  The check costs
    one N x N product per side, O(N^2 K_use).
    """
    K_use = M // 2 if k_use is None else int(k_use)
    if not 1 <= K_use <= M:
        raise ValueError("k_use=%d must lie in 1..M=%d" % (K_use, M))
    L = assemble_lax(u, M)
    hermitian = bool(u.real)
    if hermitian:
        lam, V = np.linalg.eigh(L)
        # eigh sorts ascending and rounding is monotone, so the closest pair
        # is adjacent: the same float as the all-pairs minimum
        min_separation = float(np.diff(lam).min(initial=np.inf))
    else:
        lam, V = np.linalg.eig(L)
        order = np.lexsort((lam.imag, lam.real))
        lam, V = lam[order], V[:, order]
        sep = np.abs(lam[:, None] - lam[None, :])
        np.fill_diagonal(sep, np.inf)
        min_separation = float(sep.min())
    if min_separation <= SIMPLICITY_TOL:
        raise NumericalFailure(
            "eigenvalue cluster: min separation %.3e <= %.1e; potential outside "
            "the simple-spectrum regime or truncation too small"
            % (min_separation, SIMPLICITY_TOL))
    n_use = K_use + 1
    if hermitian:
        W = V = V[:, :n_use]
    else:
        # rows of V^{-1} are the left vectors; unscaled, every w^H v would be
        # 1 and the near-orthogonality guard below could not fire
        W = np.linalg.inv(V)[:n_use].conj().T
        W /= np.linalg.norm(W, axis=0)
        V = V[:, :n_use]
    lam = lam[:n_use]
    pairs = np.sum(np.conj(W) * V, axis=0)
    small = np.flatnonzero(np.abs(pairs) < 1e-12)
    if small.size:
        raise NumericalFailure("left/right eigenvectors nearly orthogonal at n=%d"
                               % small[0])
    # rows M+1..M+N of L_u [v_n; 0], -T v_n[M-N+1:], with T[i, l] = u_hat(N+i-l)
    # for l >= i; against L_u^H the left vectors meet conj(u_hat(l-i-N))
    c, d = u.band(), np.abs(np.subtract.outer(np.arange(u.N), np.arange(u.N)))
    res = np.linalg.norm(np.triu(c[2 * u.N - d]) @ V[M - u.N + 1:], axis=0)
    if not hermitian:
        res = np.maximum(res, np.linalg.norm(np.triu(c[d].conj()) @ W[M - u.N + 1:], axis=0))
    if res.max() > RESIDUAL_TOL:
        warnings.warn("truncation M=%d leaves a Lax residual %.3e at n=%d, past %.0e"
                      % (M, res.max(), res.argmax(), RESIDUAL_TOL), TruncationWarning)
    return SpectralData(lam, V, W, hermitian, min_separation)


def gaps(sd):
    """Spectral gaps gamma_n = lambda_n - lambda_{n-1} - 1 for n = 1..K_use.

    For a Hermitian truncation the gaps must be nonnegative; below -1e-10
    that is a property violation, not a tolerance issue.
    """
    lam = sd.lambdas
    g = lam[1:] - lam[:-1] - 1.0
    if sd.hermitian:
        worst = float(g.min())
        if worst < -GAP_TOL:
            raise PropertyViolation("negative spectral gap %.3e for a real potential" % worst)
    return g
