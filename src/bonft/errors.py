"""Exception and warning types shared across the package.

The CLI maps these onto its exit-code contract: invalid input (ValueError
family) -> 1, numerical failures -> 2, verifier property violations -> 3.
"""


class NumericalFailure(RuntimeError):
    """A computation left its trusted regime (clustered spectrum, divergence, ...)."""


class OutOfNeighborhood(NumericalFailure):
    """A chain quantity violated the working-neighborhood bounds (|mu_n - 1| < 1/2, |alpha_n| >= 1/2)."""


class DegenerateProjector(NumericalFailure):
    """A projector pairing needed for normalization is numerically zero."""


class DegenerateProduct(NumericalFailure):
    """A factor of a spectral product is numerically zero; the product branch is lost."""


class BranchCutError(NumericalFailure):
    """A principal square root was requested on the cut (-infinity, 0]."""


class DivergenceError(NumericalFailure):
    """A series whose partial sums must contract failed to do so."""


class InversionFailure(NumericalFailure):
    """Broyden inversion found no descent or did not converge; carries the residual history."""

    def __init__(self, message, history=None):
        super().__init__(message)
        self.history = list(history or [])


class PropertyViolation(RuntimeError):
    """A verifier sweep found a counterexample to a property that must hold."""


class AliasingError(ValueError):
    """A grid is too small to hold the requested band without aliasing."""


class TruncationWarning(UserWarning):
    """A truncation dropped a coefficient above the configured threshold."""
