"""Exception types shared across the solver modules."""

__all__ = ["NumericalError", "DegeneracyError", "SingularSystemError"]


class NumericalError(RuntimeError):
    """A numerical routine failed to reach its accuracy contract."""


class DegeneracyError(NumericalError):
    """A null space or rank came out with an unexpected dimension.

    Carries the singular values that triggered the failure so the caller can
    inspect how far from the expected rank the offending matrix is; for a
    rank-deficient triangular factor they are the magnitudes of its diagonal.
    """

    def __init__(self, message, singular_values=None):
        super().__init__(message)
        self.singular_values = singular_values


class SingularSystemError(NumericalError):
    """A coupling system is singular for the given coefficients."""
