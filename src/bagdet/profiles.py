"""Named analytic gauge profiles.

Each factory returns a :class:`~bagdet.seeley.GaugeField` carrying the
profile, its exact derivative and int A.A d^2x in closed form; neither
the flux nor the bulk term needs numerical differentiation or adaptive
quadrature.  Every ``phi`` and ``dphi`` takes a scalar or an array
of radii.  ``R`` and every profile parameter may also be arrays that
broadcast together, which gives one batch of profiles (see
:class:`~bagdet.seeley.GaugeField`); every check runs on every row, and
one bad row raises DomainError for the whole batch.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, require
from .seeley import GaugeField

__all__ = ["poly2", "gaussian", "polynomial", "make_profile", "PROFILES"]


def poly2(phi0, R) -> GaugeField:
    """phi(r) = phi0 (1 - r^2/R^2); flux 4 pi phi0, int A.A d^2x
    2 pi phi0^2."""
    with np.errstate(over="ignore"):
        a_squared = 2.0 * np.pi * (phi0 * phi0)
    return GaugeField(
        phi=lambda r: phi0 * (1.0 - r * r / (R * R)),
        dphi=lambda r: -2.0 * phi0 * r / (R * R),
        R=R, name="poly2", a_squared=a_squared)


# Taylor coefficients (-1)^k (k - 1)/k! of 1 - (1 + X) e^-X, k = 21 down
# to 2; on X < 1 the first term left out is below 1e-20 of the sum.
_GAUSSIAN_SERIES = [(-1) ** k * (k - 1) / math.factorial(k)
                    for k in range(21, 1, -1)]


#: Narrowest Gaussian width over R: the int A.A oracle matches the closed
#: form to ~1e-15 down to 8e-10 R and fails to converge at 6e-10 R.
GAUSSIAN_MIN_WIDTH = 1e-8


def gaussian(phi0, s, R) -> GaugeField:
    """phi(r) = phi0 exp(-r^2/s^2), for widths ``s >= GAUSSIAN_MIN_WIDTH R``
    (1e-8 R).

    int A.A d^2x = pi phi0^2 [1 - (1 + X) e^-X] with X = 2 R^2/s^2, the
    bracket by its Taylor series below X = 1, where -expm1(-X) - X e^-X
    would lose ~2/X ulp.  The double-exponential rule, this form's
    oracle, resolves the peak at r = 0 down to the smallest width, and
    narrower widths raise DomainError.
    """
    with np.errstate(all="ignore"):
        s2 = np.multiply(s, s)
        ok = (np.greater(s, 0.0) & (s2 >= 2.0 ** -1022)) & (s2 < math.inf)
        wide = np.logical_not(np.less(s, GAUSSIAN_MIN_WIDTH * np.asarray(R)))
        x = 2.0 * np.square(np.divide(R, s))
        bracket = np.where(x < 1.0, x * x * np.polyval(_GAUSSIAN_SERIES, x),
                           -np.expm1(-x) - x * np.exp(-x))
        a_squared = (np.pi * (phi0 * phi0) * bracket)[()]
    require(ok, "gaussian width {} is not positive or its square is "
            "subnormal or overflows", s)
    require(wide, "gaussian width {} is below {:g} R = {:g}, too narrow for "
            "the int A.A quadrature", s, GAUSSIAN_MIN_WIDTH,
            GAUSSIAN_MIN_WIDTH * np.asarray(R))
    return GaugeField(
        phi=lambda r: phi0 * np.exp(-r * r / (s * s)),
        dphi=lambda r: -2.0 * phi0 * r / (s * s) * np.exp(-r * r / (s * s)),
        R=R, name="gaussian", a_squared=a_squared)


def _int_a_a(c, R) -> float:
    """int A.A d^2x = 2 pi sum_{j,k>=1} j k c_j c_k R^(j+k)/(j+k) for the
    doubles c = (c_1, ..., c_n) and R: one integer over (e d^n)^2
    lcm(2..2n), e and d the power-of-two denominators of the c_j and of R,
    rounded once by int / int, which raises OverflowError past 2^1024."""
    n = len(c)
    r, d = R.as_integer_ratio()
    pairs = [v.as_integer_ratio() for v in c]
    e = max([q for _, q in pairs], default=1)
    b = [j * m * (e // q) * r ** j * d ** (n - j)
         for j, (m, q) in enumerate(pairs, start=1)]
    lcm = math.lcm(*range(2, 2 * n + 1))
    share = [lcm // s for s in range(2, 2 * n + 1)]     # lcm / (j + k)
    num = sum(bj * bk * share[j + k] for j, bj in enumerate(b)
              for k, bk in enumerate(b))
    return 2.0 * math.pi * (num / ((e * d ** n) ** 2 * lcm))


def polynomial(coeffs, R) -> GaugeField:
    """phi(r) = sum_k c_k r^k with user coefficients (low order first).

    The coefficients broadcast together; ``dphi`` uses only c_1, c_2, ...,
    so a batch that varies c_0 alone has a scalar A_theta.  int A.A d^2x
    is exact up to one rounding (:func:`_int_a_a`), computed row by row,
    so a row of a batch equals its scalar profile bit for bit.
    """
    coeffs = list(coeffs)
    dcoeffs = [k * c for k, c in enumerate(coeffs[1:], start=1)] or [0.0]
    c, dc = (np.array(np.broadcast_arrays(*cs)) for cs in (coeffs, dcoeffs))
    polyval = np.polynomial.polynomial.polyval
    rows = np.array(np.broadcast_arrays(*coeffs[1:], R), dtype=float)
    try:
        a_squared = np.reshape([_int_a_a(row[:-1], row[-1]) for row in
                                rows.reshape(len(rows), -1).T.tolist()],
                               rows.shape[1:])[()]
    except (OverflowError, ValueError) as exc:
        raise DomainError(
            f"int A.A d^2x overflows or is not finite: {exc}") from exc
    return GaugeField(phi=lambda r: polyval(r, c, tensor=False),
                      dphi=lambda r: polyval(r, dc, tensor=False),
                      R=R, name="polynomial", a_squared=a_squared)


def make_profile(name: str, params, R) -> GaugeField:
    """Build a profile from its CLI name and parameter list.

    Each parameter, and ``R``, is a scalar or an array, and the arrays
    broadcast together (a sweep passes the swept one as an array).
    Raises DomainError if a parameter is not finite.
    """
    params = list(params)
    for v in params:
        require(np.isfinite(v), "profile parameters must be finite, got {}", v)
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
