"""Exception types shared across the package."""

__all__ = [
    "BallCopulasError",
    "DimensionError",
    "DomainError",
    "NotAbsolutelyContinuousError",
    "OracleInconsistencyError",
    "PreconditionError",
    "QuadratureError",
]


class BallCopulasError(Exception):
    """Base class for every error raised by this package."""


class DomainError(BallCopulasError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class PreconditionError(BallCopulasError, ValueError):
    """A geometric precondition is violated (e.g. an invalid cap configuration)."""


class DimensionError(BallCopulasError, ValueError):
    """The requested dimension admits no model with the required marginals."""


class NotAbsolutelyContinuousError(BallCopulasError, TypeError):
    """The model has no Lebesgue density to evaluate."""


class QuadratureError(BallCopulasError, RuntimeError):
    """Adaptive quadrature could not reach the requested tolerance."""


class OracleInconsistencyError(BallCopulasError, RuntimeError):
    """Mutually redundant oracle evaluations disagree beyond tolerance."""
