"""Deterministic numerical backbone and the package's only node builder.
It has three rules:

- the double-exponential rule (:func:`integrate_adaptive`; tanh-sinh on
  finite pieces, exp-sinh on [a, inf), step halving until two levels
  agree to a relative tolerance) for end-point singularities, peaks and
  half-lines;
- the periodic trapezoid rule on the angles 2 pi j / n
  (:func:`contour_closed`, :func:`circle_mean`);
- fixed Gauss-Legendre rules (:func:`gauss_legendre_panel`,
  :func:`integrate_gauss_legendre`).

It also holds the bulk oracle's Bessel constant J_1(s)/s in closed form,
and for ``seeley.k_nu_bessel`` J_m on [0, 1] by its power series and
H^(1)_m by its Laplace-type integral on the double-exponential rule.
Every rule takes a batched integrand: ``f`` receives its nodes as one
array and returns one value per node along axis 0 (complex values are
integrated in one pass).

Everything here is deterministic: the same inputs always produce
bit-identical outputs (fixed node sets, no randomized algorithms).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import AccuracyError, NonFiniteError

__all__ = [
    "QuadratureResult",
    "integrate_adaptive",
    "contour_closed",
    "circle_mean",
    "gauss_legendre_panel",
    "integrate_gauss_legendre",
    "j2_over_u_integral",
]


@dataclass(frozen=True)
class QuadratureResult:
    """Value of a quadrature together with its error estimate.

    Attributes
    ----------
    value : complex or ndarray
        Estimated integral; a ``(k,)`` array for a vector-valued
        integrand of :func:`integrate_adaptive`.
    abs_error_estimate : float
        Estimated absolute error (includes any tail-truncation bound).
    nodes_used : int
        Number of integrand evaluations.
    """

    value: complex
    abs_error_estimate: float
    nodes_used: int


# Double-exponential rule (Takahasi & Mori, Publ. RIMS 9, 1974): level k
# samples the parameter t at the step 2^-k on |t| <= _DE_T_MAX, where the
# tanh-sinh nodes lie within 1e-61 of the ends and the exp-sinh nodes reach
# 5e30; level _DE_MAX_LEVEL (step 1/256) is the last.
_DE_T_MAX = 4.5
_DE_MAX_LEVEL = 8


@functools.lru_cache(maxsize=2 * (_DE_MAX_LEVEL + 1))
def _de_level(level: int, finite: bool):
    """The nodes that level ``level`` adds, on the reference ranges; built
    once per process, read-only, with the step not yet folded in.

    ``finite``: tanh-sinh on [-1, 1], as ``(gap, upper, weight)``.  A node
    is ``-1 + gap`` or, where ``upper``, ``1 - gap``; keeping the distance
    to the nearer end keeps nodes next to an end exact.  Otherwise
    exp-sinh on [0, inf), as ``(x, weight)``.
    """
    step = 2.0 ** -level
    j = np.arange(-int(_DE_T_MAX / step), int(_DE_T_MAX / step) + 1)
    if level:
        j = j[j % 2 != 0]
    t = step * j
    s = 0.5 * np.pi * np.sinh(t)
    ds = 0.5 * np.pi * np.cosh(t)
    if finite:
        q = np.exp(-2.0 * np.abs(s))
        out = (2.0 * q / (1.0 + q), t > 0, ds * 4.0 * q / (1.0 + q) ** 2)
    else:
        x = np.exp(s)
        out = (x, ds * x)
    for arr in out:
        arr.flags.writeable = False
    return out


def integrate_adaptive(f: Callable[[np.ndarray], np.ndarray], a: float,
                       b: float, tol: float = 1e-10,
                       points=None) -> QuadratureResult:
    """Double-exponential quadrature of a (possibly complex) integrand.

    Finite pieces use the tanh-sinh map and a last piece [p, inf) the
    exp-sinh map ``x = p + exp((pi/2) sinh t)``, so integrable end-point
    singularities and algebraic or exponential decay are handled alike.
    Level k samples t at the step 2^-k; each level adds only the odd
    multiples of its step and halves the step of the running sum.  ``f``
    is called once per level, with the new nodes of every piece in one
    1-D array of length n, and returns one (complex) value per node, as
    ``(n,)``, or one vector per node, as ``(n, k)``; a vector-valued
    integrand gives a ``(k,)`` value.  The rule stops when two levels
    agree to ``tol |I|`` in every component, a purely relative test, so
    a small integral is resolved as finely as a large one and an
    integrand that is 0 at every node is accepted at level 1; the largest
    difference is the error estimate, which the finer level usually
    beats by far because the error roughly squares from one level to the
    next.  Nodes that round onto an end or a break point are dropped, so
    ``f`` is never evaluated there.  The exp-sinh map has scale 1: an
    integrand that decays on [p, inf) on a scale far from 1 should be
    rescaled by the caller.

    Parameters
    ----------
    f : callable
        Batched integrand: receives a 1-D float array of n nodes and
        returns an ``(n,)`` or ``(n, k)`` array.
    a, b : float
        Integration limits, ``a < b``; ``a`` finite, ``b`` may be
        ``numpy.inf``.
    tol : float
        Relative tolerance of the level-to-level difference.
    points : sequence of float, optional
        Break points inside (a, b); every piece gets its own map, and all
        pieces' nodes go into the same call of ``f``.

    Raises
    ------
    NonFiniteError
        If ``f`` returns a non-finite value at any node.
    AccuracyError
        If the levels still disagree at the last level (step 1/256); the
        finest estimate is attached to the exception.
    """
    if not (math.isfinite(a) and a < b):
        raise ValueError(f"need finite a < b, got [{a}, {b}]")
    edges = [a, *sorted(points or ()), b]
    if not all(p < q for p, q in zip(edges, edges[1:])):
        raise ValueError(f"break points {points} not inside ({a}, {b})")
    # finite pieces as columns; a last piece [p, inf) apart
    tail = edges[-2] if math.isinf(b) else None
    ends = np.array(edges[:-1] if tail is not None else edges,
                    dtype=float)[:, None]
    lo, hi = ends[:-1], ends[1:]
    half = 0.5 * (hi - lo)
    acc = 0.0
    nodes = 0
    for level in range(_DE_MAX_LEVEL + 1):
        xs, ws = [], []
        if lo.size:
            gap, upper, weight = _de_level(level, True)
            step = half * gap
            x = np.where(upper, hi - step, lo + step)
            inside = (x > lo) & (x < hi)      # drop nodes rounded onto an end
            xs.append(x[inside])
            ws.append((half * weight)[inside])
        if tail is not None:
            x, weight = _de_level(level, False)
            x = tail + x
            inside = x > tail
            xs.append(x[inside])
            ws.append(weight[inside])
        x, w = (v[0] if len(v) == 1 else np.concatenate(v) for v in (xs, ws))
        vals = np.asarray(f(x), dtype=complex)
        if not np.isfinite(vals).all():
            bad = np.nonzero(~np.isfinite(vals))[0][0]
            raise NonFiniteError(f"integrand not finite at x = {x[bad]}")
        nodes += x.size
        acc += w @ vals
        value = 2.0 ** -level * acc
        if level:
            diff = abs(value - previous)
            if (diff <= tol * abs(value)).all():
                return QuadratureResult(
                    value=complex(value) if value.ndim == 0 else value,
                    abs_error_estimate=float(diff.max()), nodes_used=nodes)
        previous = value
    raise AccuracyError(
        f"double-exponential rule did not converge within {_DE_MAX_LEVEL} "
        "levels", estimate=complex(value) if value.ndim == 0 else value,
        abs_error=float(diff.max()))


@functools.lru_cache(maxsize=8)
def _circle_angles(n: int) -> np.ndarray:
    """Angles 2 pi j / n of the periodic rule; built once per n, read-only."""
    theta = 2 * np.pi * np.arange(n) / n
    theta.flags.writeable = False
    return theta


def circle_mean(f, n: int):
    """(1/2 pi) int_0^{2 pi} f(phi) dphi by the periodic trapezoid rule.

    ``f`` receives all ``n`` angles 2 pi j / n as one read-only ``(n,)``
    array and returns ``(n, ...)``; the result has shape ``(...)``.
    """
    return np.asarray(f(_circle_angles(n))).sum(axis=0) / n


def contour_closed(f, center: complex, radius: float, orientation: int = 1,
                   n: int = 256):
    """Periodic trapezoid rule for a closed circular contour integral.

    Computes ``oint f(z) dz`` over the circle ``|z - center| = radius``.
    For integrands analytic in a neighborhood of the circle the rule
    converges spectrally in ``n`` (Trefethen & Weideman, SIAM Rev. 2014).

    ``center`` and ``radius`` may be arrays that broadcast to one batch
    shape S, one circle per row; every row uses the same ``n`` angles and
    row ``j`` of a matrix-valued integral equals the scalar call on
    circle ``j``.

    Parameters
    ----------
    f : callable
        Batched integrand: receives all nodes as one complex array of
        shape ``(n,) + S``, node axis first, and returns an array of shape
        ``(n,) + S + (...)``, one scalar or matrix per node (matrix values
        are summed entrywise).
    orientation : int
        +1 for counterclockwise, -1 for clockwise.

    Returns
    -------
    complex or ndarray
        The sum over the nodes, of shape ``S + (...)``.

    Raises
    ------
    ValueError
        If ``f`` returns a non-finite value at any node.
    """
    if np.any(np.less_equal(radius, 0)):
        raise ValueError("radius must be positive")
    if orientation not in (1, -1):
        raise ValueError("orientation must be +1 or -1")
    batch = np.broadcast_shapes(np.shape(center), np.shape(radius))
    theta = _circle_angles(n).reshape((n,) + (1,) * len(batch))
    z = center + radius * np.exp(1j * orientation * theta)
    dz = 1j * orientation * (z - center) * (2 * np.pi / n)
    vals = np.asarray(f(z), dtype=complex)
    terms = vals * dz.reshape(dz.shape + (1,) * (vals.ndim - dz.ndim))
    bad = ~np.isfinite(terms)
    if bad.any():
        node = tuple(np.argwhere(bad)[0][:z.ndim])
        raise ValueError(f"integrand not finite at z = {z[node]}")
    total = terms.sum(axis=0)
    if total.ndim == 0:
        return complex(total)
    return total


@functools.lru_cache(maxsize=32)
def _gauss_legendre_rule(n: int):
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1].

    Built once per order and process; the arrays are shared by every
    caller and therefore read-only.
    """
    nodes, weights = np.polynomial.legendre.leggauss(n)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def gauss_legendre_panel(a: float, b: float, n: int):
    """Nodes and weights ``(x, w)`` of the n-point Gauss-Legendre rule
    mapped to the panel [a, b]."""
    nodes, weights = _gauss_legendre_rule(n)
    return 0.5 * (b - a) * nodes + 0.5 * (b + a), 0.5 * (b - a) * weights


def integrate_gauss_legendre(f, a: float, b: float, n: int = 16) -> complex:
    """Fixed-order Gauss-Legendre rule on [a, b]; ``f`` receives all ``n``
    nodes as one ``(n,)`` array and returns the ``n`` values."""
    nodes, weights = _gauss_legendre_rule(n)
    vals = np.asarray(f(0.5 * (b - a) * nodes + 0.5 * (b + a)), dtype=complex)
    return complex(0.5 * (b - a) * np.sum(weights * vals))


# Coefficients (-1)^k / (2 k! (k+1)!) of J_1(s)/s in powers of s^2/4,
# highest first; for s <= 2.5 the first term left out is below 1e-18.
_J1_OVER_X = tuple(0.5 * (-1) ** k / (math.factorial(k) * math.factorial(k + 1))
                   for k in range(12, -1, -1))


def j2_over_u_integral(split: float, tol: float = 1e-11,
                       u_match: float = 60.0) -> QuadratureResult:
    """``int_split^inf J_2(u)/u du`` = J_1(split)/split, by the recurrence
    (x^-1 J_1)' = -x^-1 J_2 (DLMF 10.6, https://dlmf.nist.gov/10.6).

    Horner's sum of the series is within 1 ulp of the exact value for
    0 < split <= 2 and 3 ulp up to 2.5; beyond, its cancellation grows, so
    ValueError is raised.  ``tol`` and ``u_match`` do not change the value.
    """
    if not 0.0 < split <= 2.5:
        raise ValueError(f"split must lie in (0, 2.5], got {split}")
    y = 0.25 * split * split
    value = 0.0
    for c in _J1_OVER_X:
        value = value * y + c
    return QuadratureResult(value, 0.0, 0)


# Terms of the power series of J_m on [0, 1]: the 20th is below 1e-40.
_J_SERIES_TERMS = 20


def _bessel_j_excess(m: float, x: np.ndarray,
                     scaled: bool = False) -> np.ndarray:
    """J_m(x) - (x/2)^m / Gamma(m + 1), the power series of J_m without its
    leading term, for 0 <= x <= 1 and m >= 0; no cancellation.  With
    ``scaled`` it is divided by (x/2)^m, which neither underflows nor
    overflows as x -> 0, whatever m."""
    y = 0.25 * np.asarray(x, dtype=float) ** 2
    acc = np.zeros_like(y)
    for k in range(_J_SERIES_TERMS, 0, -1):
        acc = y * ((-1) ** k / (math.factorial(k) * math.gamma(k + m + 1))
                   + acc)
    return acc if scaled else (0.5 * x) ** m * acc


# Tolerance of the Laplace integral of H^(1)_m; the double-exponential
# error roughly squares from one level to the next, so the value that
# passes it is good to rounding.
_HANKEL_TOL = 1e-13


def _hankel1e(m: float, z: np.ndarray) -> np.ndarray:
    """H^(1)_m(z) e^{-iz} for m >= 0 and every z of a 1-D array in the
    closed first quadrant (z != 0), from the Laplace-type integral
    (DLMF 10.9, https://dlmf.nist.gov/10.9)

        H^(1)_m(z) = sqrt(2 / pi z) e^{i(z - m pi/2 - pi/4)} / Gamma(m + 1/2)
                     int_0^inf e^{-t} t^{m-1/2} (1 + i t / 2z)^{m-1/2} dt.

    One double-exponential integral serves every z: its integrand has one
    column per z.  At m = 1/2 the integral is 1.
    """
    z = np.asarray(z, dtype=complex)
    q = 0.5j / z

    def laplace(t: np.ndarray) -> np.ndarray:
        t = t[:, None]
        return np.exp(-t) * t ** (m - 0.5) * (1.0 + q * t) ** (m - 0.5)

    integral = integrate_adaptive(laplace, 0.0, np.inf, tol=_HANKEL_TOL).value
    return (np.sqrt(2.0 / (np.pi * z)) * np.exp(-0.5j * np.pi * (m + 0.5))
            / math.gamma(m + 0.5) * integral)


def _hankel1_on_ray(m: float, x0: float, v: np.ndarray) -> np.ndarray:
    """H^(1)_m(x0 + i v) for v >= 0, one Laplace integral for all ``v``;
    0 where the factor e^{i z} = e^{i x0 - v} underflows."""
    z = x0 + 1j * np.asarray(v, dtype=float)
    decay = np.exp(1j * z)
    out = np.zeros(z.shape, dtype=complex)
    live = decay != 0
    out[live] = _hankel1e(m, z[live]) * decay[live]
    return out
