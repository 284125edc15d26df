"""Truncated Lax operator on the Hardy space.

The operator acts on nonnegative Fourier modes as multiplication by the
mode index minus a Toeplitz part built from the potential:

    (L)_{jk} = j delta_{jk} - u_hat(j - k),   0 <= j, k <= M.

Everything downstream (gaps, norming constants, the coordinate map) reads
off this one matrix, so this module owns assembly and the eigensolve with
its simplicity and near-orthogonality guards; it keeps the K_use + 1
lowest eigenpairs, the ones the pipeline reads.  A real potential gives a
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


def assemble_lax(u, M):
    """The (M+1) x (M+1) truncation of D - T_u as a dense complex array.

    M must at least cover the band of u (M >= N); truncations below 2N are
    accepted with a warning since the top rows then clip the Toeplitz band.
    """
    M = int(M)
    if M < u.N:
        raise ValueError("truncation M=%d cannot hold a band of width N=%d" % (M, u.N))
    if 16 * (M + 1) ** 2 > np.iinfo(np.intp).max:  # the bytes of the complex matrix
        raise ValueError("truncation M=%d too large for an array" % M)
    if M < 2 * u.N:
        warnings.warn("truncation M=%d below 2N=%d; band only partially resolved"
                      % (M, 2 * u.N), TruncationWarning)
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
