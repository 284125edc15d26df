"""Truncated Lax operator on the Hardy space.

The operator acts on nonnegative Fourier modes as multiplication by the
mode index minus a Toeplitz part built from the potential:

    (L)_{jk} = j delta_{jk} - u_hat(j - k),   0 <= j, k <= M.

Everything downstream (gaps, norming constants, the coordinate map) reads
off this one matrix, so this module owns assembly, the one place that
writes its entries, and the eigensolve with its simplicity and
near-orthogonality guards; it keeps the K_use + 1 lowest eigenpairs, the
ones the pipeline reads, and it is the one place that judges the cut at
M: the Lax residual of each kept eigenpair against the infinite operator,
read off a window of the truncation at 2N - 1 (see spectrum).  The same
residual picks M for every caller that passes none.  A real potential
gives a Hermitian matrix and numpy's eigh, its eigenvalues kept real; a
complex one gives numpy's eig for the right eigenvectors, with the left
ones read off the inverse of their matrix, whose row norms are their
condition numbers.
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
    unit eigenvectors columnwise, M + 1 rows for the truncation at M (left
    vectors w satisfy w^H L = lambda w^H, so for a Hermitian matrix they
    coincide with the right ones; otherwise w_n is the conjugate of row n
    of V^{-1}, scaled to unit length).  min_separation is taken over all
    M+1 eigenvalues.
    """

    lambdas: np.ndarray
    right_vecs: np.ndarray
    left_vecs: np.ndarray
    hermitian: bool
    min_separation: float


def _eigenpairs(u, M, K_use):
    """spectrum's solve at the one truncation M: the labels n <= K_use, past
    the guards, and the Lax residual of each."""
    L = assemble_lax(u, M)
    if not 1 <= K_use <= M:
        raise ValueError("k_use=%d must lie in 1..M=%d" % (K_use, M))
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
        # rows of V^{-1} are the left vectors; row n meets the unit v_n in 1, so
        # its norm is the condition number 1/|w_n^H v_n| of the unit w_n
        try:
            W = np.linalg.inv(V)[:n_use].conj().T
        except np.linalg.LinAlgError:
            raise NumericalFailure("eigenvector matrix singular: no left vectors") from None
        cond = np.linalg.norm(W, axis=0)
        far = np.flatnonzero(~(cond <= 1e12))  # NaN too
        if far.size:
            raise NumericalFailure("left/right eigenvectors nearly orthogonal at n=%d" % far[0])
        W /= cond
        V = V[:, :n_use]
    lam = lam[:n_use]
    # rows M+1..M+N of L_u [v_n; 0] and of L_u^H [w_n; 0]: off its diagonal L_u
    # is Toeplitz, so their blocks are windows of L_{2N-1}
    N, B = u.N, assemble_lax(u, 2 * u.N - 1)
    with np.errstate(over="ignore", invalid="ignore"):
        res = np.maximum(np.linalg.norm(B[N:, :N] @ V[M - N + 1:], axis=0),
                         np.linalg.norm(B[:N, N:].conj().T @ W[M - N + 1:], axis=0))
    return SpectralData(lam, V, W, hermitian, min_separation), res


def spectrum(u, M=None, k_use=None):
    """The eigenpairs n <= K_use of the truncated Lax matrix, with its guards.

    Labels follow increasing real part, then imaginary part; eigh's
    ascending order of a real spectrum already satisfies this rule.  A pair
    of eigenvalues closer than SIMPLICITY_TOL leaves the labeling (and every
    rank-one projector) undefined, so that raises NumericalFailure rather
    than picking an order.  With unit vectors 1/|w_n^H v_n| is the condition
    number of lambda_n, and the chain divides by w_n^H v_n.  For complex u
    that number is the norm of row n of V^{-1}, since the row meets the unit
    v_n in 1: past 1e12 for some n <= K_use, or for a singular V, that
    raises NumericalFailure too; eigh's orthonormal vectors have it 1.

    The cut is certified by the Lax residual.  Past RESIDUAL_TOL for some
    kept label, or not finite, one TruncationWarning names M, the worst
    label n and its residual; labels past what the cut resolves warn too.
    With M given, K_use defaults to M/2, the upper half of a truncated
    spectrum being polluted by the cut, and the one solve at M is returned.
    With M absent, the residual picks it: K_use defaults to max(2N, 16), M
    starts at max(4N, 32, 2 K_use), and a residual past RESIDUAL_TOL there
    costs one more solve, at 2M with the same K_use, which is returned and
    warns as above, naming 2M.  One doubling, not a loop: on potentials the
    guards refuse, the residual can keep falling up to M in the thousands.
    The argument, with L_M the truncation, L_u the operator on all modes
    j >= 0 and x = [v_n; 0] the unit eigenvector v_n of L_M padded with
    zeros:

      1. The residual.  rho = lambda_n(L_M) = x^H L_u x, and
         (L_u - rho) x vanishes in rows 0..M up to the eigensolver's
         rounding.  Row j > M is -sum_k u_hat(j - k) v_n[k], nonzero only
         for k >= j - N, so it lives in rows M+1..M+N:
         r_n = -T v_n[M-N+1:], T[i, l] = u_hat(N+i-l) for l >= i and 0
         below, an N x N upper-triangular Toeplitz block.  Off its
         diagonal L_u is Toeplitz, so -T is rows N..2N-1, columns 0..N-1
         of L_{2N-1}, the truncation at 2N-1.  A left vector w_n solves
         L_u^H w = conj(lambda_n) w on the cut, against the conjugate
         transpose of rows 0..N-1, columns N..2N-1; for real u the two
         blocks are equal.  The residual is the larger of the two.
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
    one N x N product per side, O(N^2 K_use), on both routes.
    """
    if M is None:
        K_use = max(2 * u.N, 16) if k_use is None else int(k_use)
        M = max(4 * u.N, 32, 2 * K_use)
        sd, res = _eigenpairs(u, M, K_use)
        if not res.max() <= RESIDUAL_TOL:
            M *= 2
            sd, res = _eigenpairs(u, M, K_use)
    else:
        sd, res = _eigenpairs(u, M, M // 2 if k_use is None else int(k_use))
    if not res.max() <= RESIDUAL_TOL:  # NaN too
        warnings.warn("truncation M=%d leaves a Lax residual %.3e at n=%d, past %.0e"
                      % (M, res.max(), res.argmax(), RESIDUAL_TOL), TruncationWarning)
    return sd


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
