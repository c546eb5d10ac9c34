"""Named analytic gauge profiles.

Each factory returns a :class:`~bagdet.seeley.GaugeField` carrying the
profile and its exact derivative; the flux therefore needs no numerical
differentiation.  Every ``phi`` and ``dphi`` takes a scalar or an array
of radii.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError
from .quadrature import PANELS_MIN_FEATURE
from .seeley import GaugeField

__all__ = ["poly2", "gaussian", "polynomial", "make_profile", "PROFILES"]


def poly2(phi0: float, R: float) -> GaugeField:
    """phi(r) = phi0 (1 - r^2/R^2); flux 4 pi phi0."""
    return GaugeField(
        phi=lambda r: phi0 * (1.0 - r ** 2 / R ** 2),
        dphi=lambda r: -2.0 * phi0 * r / R ** 2,
        R=R, name="poly2")


def gaussian(phi0: float, s: float, R: float) -> GaugeField:
    """phi(r) = phi0 exp(-r^2/s^2), for widths ``s >= PANELS_MIN_FEATURE R``
    (5e-4 R).

    The int A.A rule resolves the peak at r = 0 down to that width; below
    it every first-round node can fall where A_theta^2 has underflowed to
    0 and the rule would return 0, so such widths raise DomainError.
    """
    if s <= 0 or not 0.0 < s * s < math.inf:
        raise DomainError(f"gaussian width {s} is not positive or its "
                          "square under- or overflows")
    if s < PANELS_MIN_FEATURE * R:
        raise DomainError(f"gaussian width {s} is below {PANELS_MIN_FEATURE:g} R"
                          f" = {PANELS_MIN_FEATURE * R:g}, too narrow for the "
                          "int A.A quadrature")
    return GaugeField(
        phi=lambda r: phi0 * np.exp(-r ** 2 / s ** 2),
        dphi=lambda r: -2.0 * phi0 * r / s ** 2 * np.exp(-r ** 2 / s ** 2),
        R=R, name="gaussian")


def polynomial(coeffs, R: float) -> GaugeField:
    """phi(r) = sum_k c_k r^k with user coefficients (low order first)."""
    poly = np.polynomial.Polynomial(list(coeffs))
    return GaugeField(phi=poly, dphi=poly.deriv(), R=R, name="polynomial")


def make_profile(name: str, params, R: float) -> GaugeField:
    """Build a profile from its CLI name and parameter list.

    Raises DomainError if a parameter is not finite.
    """
    params = list(params)
    if not all(math.isfinite(v) for v in params):
        raise DomainError(f"profile parameters must be finite, got {params}")
    if name == "poly2":
        if len(params) != 1:
            raise ValueError("poly2 takes one parameter: phi0")
        return poly2(params[0], R)
    if name == "gaussian":
        if len(params) != 2:
            raise ValueError("gaussian takes two parameters: phi0, s")
        return gaussian(params[0], params[1], R)
    if name == "polynomial":
        if not params:
            raise ValueError("polynomial needs at least one coefficient")
        return polynomial(params, R)
    raise ValueError(f"unknown profile {name!r}; choose from {PROFILES}")


PROFILES = ("poly2", "gaussian", "polynomial")
