"""Exception hierarchy shared across the package, and the batch-wide
checks that raise them."""

import numpy as np


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


def every(ok) -> bool:
    """Whether ``ok`` holds on every row of a batch.  One row (a numpy
    bool or a 0-d array) is read directly: ``.all()`` costs more than the
    scalar tests it guards."""
    ok = np.asarray(ok)
    return bool(ok.all() if ok.ndim else ok)


def require(ok, message: str, *values) -> None:
    """Raise DomainError unless ``ok`` holds on every row of a batch.

    ``message`` is formatted with each of ``values`` at the first row
    where ``ok`` fails, so a batch reports one bad row as a scalar call
    would report its value.
    """
    if not every(ok):
        ok = np.asarray(ok)
        j = np.flatnonzero(~ok)[0]
        raise DomainError(message.format(
            *(np.broadcast_to(v, ok.shape).flat[j] for v in values)))
