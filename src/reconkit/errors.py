"""Exception types shared across the package."""

__all__ = ["BreakdownError", "DivergenceError", "SingularityError", "ValidationError"]


class ValidationError(ValueError):
    """Raised when an input violates a documented precondition."""


class SingularityError(ArithmeticError):
    """Raised when an exact inverse is requested for a singular system."""


class DivergenceError(RuntimeError):
    """Raised when an iterative solver detects a growing objective or an
    iterate or residual that has left the finite range.

    Carries the objective trace recorded up to the failing iteration so the
    caller can inspect what happened.
    """

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace


class BreakdownError(RuntimeError):
    """Raised when conjugate gradients meets a non-positive curvature direction."""
