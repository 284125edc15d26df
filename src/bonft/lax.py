"""Truncated Lax operator on the Hardy space.

The operator acts on nonnegative Fourier modes as multiplication by the
mode index minus a Toeplitz part built from the potential:

    (L)_{jk} = j delta_{jk} - u_hat(j - k),   0 <= j, k <= M.

Everything downstream (gaps, norming constants, the coordinate map) reads
off this one matrix, so this module owns assembly, the eigensolve with its
simplicity guard, the rank-one spectral projectors, and the spectral data
of the conjugated potential derived from them.  A real potential gives a
Hermitian matrix and numpy's eigh; a complex one gives numpy's eig for the
right eigenvectors, with the left ones read off the inverse of their matrix.
"""

import warnings

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
    if M < 2 * u.N:
        warnings.warn("truncation M=%d below 2N=%d; band only partially resolved"
                      % (M, 2 * u.N), TruncationWarning, stacklevel=2)
    j = np.arange(M + 1)
    diff = j[:, None] - j[None, :]
    coeffs = np.zeros(2 * M + 1, dtype=complex)
    coeffs[M - u.N:M + u.N + 1] = u.band()
    return np.diag(j.astype(complex)) - coeffs[diff + M]


class SpectralData:
    """Sorted truncated spectrum with rank-one projector data.

    lambdas are sorted by increasing real part; right_vecs and left_vecs
    store eigenvectors columnwise (left vectors w satisfy w^H L = lambda w^H,
    so for a Hermitian matrix they coincide with the right ones; otherwise
    w_n is the conjugate of row n of V^{-1}, scaled to unit length); denoms[n]
    is the pairing w_n^H v_n and column n of the (M+1) x (K_use+1) array h
    is the projected basis vector P_n e_n, for n <= K_use.  With unit vectors
    1/|denoms[n]| is the condition number of lambda_n.
    """

    def __init__(self, lambdas, right_vecs, left_vecs, denoms, h, K_use, M,
                 hermitian, min_separation):
        self.lambdas = lambdas
        self.right_vecs = right_vecs
        self.left_vecs = left_vecs
        self.denoms = denoms
        self.h = h
        self.K_use = K_use
        self.M = M
        self.hermitian = hermitian
        self.min_separation = min_separation

    def project(self, n, x):
        """Apply the Riesz projector P_n, n <= K_use, to a coefficient vector."""
        w = self.left_vecs[:, n]
        return self.right_vecs[:, n] * (np.vdot(w, np.asarray(x, dtype=complex))
                                        / self.denoms[n])


def _by_real_part(lam, *vecs):
    """lam by increasing real part, then imaginary part; the columns of each
    of vecs follow it.  eigh's ascending order of a real spectrum already
    satisfies this rule, so the Hermitian branch keeps it as it is."""
    order = np.lexsort((lam.imag, lam.real))
    return (lam[order],) + tuple(V[:, order] for V in vecs)


def spectrum(u, M, k_use=None):
    """Eigendecomposition of the truncated Lax matrix with projector data.

    Labels follow increasing real part.  A pair of eigenvalues closer than
    SIMPLICITY_TOL leaves the labeling (and every rank-one projector) undefined,
    so that raises NumericalFailure rather than picking an order.  K_use
    defaults to M/2: the upper half of a truncated spectrum is polluted by
    the cut.
    """
    L = assemble_lax(u, M)
    hermitian = bool(u.real)
    if hermitian:
        lam, V = np.linalg.eigh(L)
        # eigh sorts ascending and rounding is monotone, so the closest pair
        # is adjacent: the same float as the all-pairs minimum
        min_separation = float(np.diff(lam).min(initial=np.inf))
        lam = lam.astype(complex)
    else:
        lam, V = _by_real_part(*np.linalg.eig(L))
        sep = np.abs(lam[:, None] - lam[None, :])
        np.fill_diagonal(sep, np.inf)
        min_separation = float(sep.min())
    if min_separation <= SIMPLICITY_TOL:
        raise NumericalFailure(
            "eigenvalue cluster: min separation %.3e <= %.1e; potential outside "
            "the simple-spectrum regime or truncation too small"
            % (min_separation, SIMPLICITY_TOL))
    if hermitian:
        W = V
    else:
        # rows of V^{-1} are the left vectors; unscaled, every w^H v would be
        # 1 and the near-orthogonality guard in _projector_data could not fire
        W = np.linalg.inv(V).conj().T
        W /= np.linalg.norm(W, axis=0)
    K_use = M // 2 if k_use is None else int(k_use)
    if not 1 <= K_use <= M:
        raise ValueError("k_use must lie in 1..M")
    denoms, h = _projector_data(V, W, K_use)
    return SpectralData(lam, V, W, denoms, h, K_use, M, hermitian, min_separation)


def _projector_data(V, W, K_use):
    """The pairings w_n^H v_n and the projected basis P_n e_n for n <= K_use."""
    n_use = K_use + 1
    denoms = np.array([np.vdot(W[:, n], V[:, n]) for n in range(n_use)], dtype=complex)
    small = np.flatnonzero(np.abs(denoms) < 1e-12)
    if small.size:
        raise NumericalFailure("left/right eigenvectors nearly orthogonal at n=%d"
                               % small[0])
    h = V[:, :n_use] * (np.conj(np.diagonal(W)[:n_use]) / denoms)
    return denoms, h


def conjugate_spectrum(sd):
    """The spectral data of conj(u), read off the spectral data of u.

    The truncation satisfies L_{conj u} = L_u^H entry for entry, so no
    second eigensolve is needed: the eigenvalues are conj(lambda_n), the
    right eigenvectors are u's left ones and the left eigenvectors u's
    right ones.  The eigenvalues are sorted again as in spectrum(), since
    conjugation reverses the imaginary order of a tie in the real part,
    and the vectors follow them.  The separation, truncation and K_use
    carry over; denoms and h are recomputed from the swapped vectors.
    """
    lam, V, W = _by_real_part(np.conj(sd.lambdas), sd.left_vecs, sd.right_vecs)
    denoms, h = _projector_data(V, W, sd.K_use)
    return SpectralData(lam, V, W, denoms, h, sd.K_use, sd.M, sd.hermitian,
                        sd.min_separation)


def gaps(sd):
    """Spectral gaps gamma_n = lambda_n - lambda_{n-1} - 1 for n = 1..K_use.

    For a Hermitian truncation the gaps must be nonnegative; below -1e-10
    that is a property violation, not a tolerance issue.
    """
    lam = sd.lambdas[:sd.K_use + 1]
    g = lam[1:] - lam[:-1] - 1.0
    if sd.hermitian:
        g = g.real
        worst = float(g.min()) if len(g) else 0.0
        if worst < -GAP_TOL:
            raise PropertyViolation("negative spectral gap %.3e for a real potential" % worst)
    return g
