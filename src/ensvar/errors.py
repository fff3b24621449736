"""Exception hierarchy shared across the package."""

__all__ = ["EnsvarError", "ValidationError", "DimensionMismatchError", "NotSPDError", "MissingJacobianError",
           "NonlinearOperatorError"]


class EnsvarError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(EnsvarError, ValueError):
    """Invalid inputs: bad dimensions, bad config values, incompatible modes."""


class DimensionMismatchError(ValidationError):
    """A field of a problem definition has the wrong shape or length."""


class NotSPDError(ValidationError):
    """A matrix required to be symmetric positive definite is not."""


class MissingJacobianError(ValidationError):
    """An algorithm needs an exact Jacobian that was not registered."""


class NonlinearOperatorError(ValidationError):
    """A linear-only algorithm was given an operator not flagged linear."""
