"""Zeta-regularized determinant of the two-dimensional Euclidean Dirac
operator on a disk under local bag-like boundary conditions.

The package is organized by subject:

- :mod:`bagdet.clifford`: gamma-matrix representations.
- :mod:`bagdet.calderon`: boundary-projector symbols and ellipticity checks.
- :mod:`bagdet.seeley`: resolvent-expansion coefficients and the boundary
  constants they feed.
- :mod:`bagdet.greens`: closed-form disk Green functions and zero-mode
  analysis.
- :mod:`bagdet.determinant`: assembly of the log-determinant ratio with
  independent quadrature/contour oracles.
- :mod:`bagdet.quadrature`: deterministic numerical backbone.
- :mod:`bagdet.cli`: command-line front end.
"""

from .errors import (
    AccuracyError,
    BagdetError,
    BranchError,
    ContourError,
    DomainError,
    SingularityError,
    SingularSymbolError,
)

__version__ = "0.1.0"

__all__ = [
    "AccuracyError",
    "BagdetError",
    "BranchError",
    "ContourError",
    "DomainError",
    "SingularityError",
    "SingularSymbolError",
    "__version__",
]
