"""Exception hierarchy shared across the package."""


class BagdetError(Exception):
    """Base class for all package errors."""


class DomainError(BagdetError, ValueError):
    """Input outside the mathematical domain of an operation."""


class SingularSymbolError(DomainError):
    """A symbol denominator vanished (e.g. on the characteristic set)."""


class BranchError(DomainError):
    """A square-root or logarithm branch requirement was violated."""


class SingularityError(DomainError):
    """Evaluation requested on (or too close to) a kernel singularity."""


class NonFiniteError(BagdetError, ValueError):
    """A quadrature integrand returned a non-finite value."""


class ContourError(BagdetError):
    """An integration contour passes too close to a pole or branch point."""


class AccuracyError(BagdetError):
    """A quadrature failed to reach the requested tolerance.

    The best available estimate is attached so callers can decide whether
    to proceed with a degraded result.
    """

    def __init__(self, message, estimate=None, abs_error=None):
        super().__init__(message)
        self.estimate = estimate
        self.abs_error = abs_error
