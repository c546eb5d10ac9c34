"""Deterministic numerical backbone: adaptive quadrature, the batched
periodic trapezoid rule on closed circles, Gauss-Legendre rules and the
split Bessel integral of the bulk oracle.

Everything here is deterministic: the same inputs always produce
bit-identical outputs (fixed node sets, no randomized algorithms).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import integrate as _sint
from scipy import special as _spec

from .errors import AccuracyError

__all__ = [
    "QuadratureResult",
    "integrate_adaptive",
    "contour_closed",
    "integrate_gauss_legendre",
    "j2_over_u_integral",
]


@dataclass(frozen=True)
class QuadratureResult:
    """Value of a quadrature together with its error estimate.

    Attributes
    ----------
    value : complex
        Estimated integral.
    abs_error_estimate : float
        Estimated absolute error (includes any tail-truncation bound).
    nodes_used : int
        Number of integrand evaluations.
    """

    value: complex
    abs_error_estimate: float
    nodes_used: int


def _quad_real(f, a, b, tol, points, limit):
    out = _sint.quad(f, a, b, epsabs=tol, epsrel=tol, limit=limit,
                     points=points, full_output=1)
    value, abserr, info = out[0], out[1], out[2]
    ier_message = out[3] if len(out) > 3 else None
    return value, abserr, info["neval"], ier_message


def integrate_adaptive(f: Callable[[float], complex], a: float, b: float,
                       tol: float = 1e-10, points=None,
                       limit: int = 200) -> QuadratureResult:
    """Adaptive quadrature of a (possibly complex-valued) integrand.

    Semi-infinite ranges are supported by passing ``b = numpy.inf``; the
    underlying Gauss-Kronrod scheme then integrates on a mapped interval
    and the reported error estimate covers the tail.

    Parameters
    ----------
    f : callable
        Integrand, evaluated at scalar points of [a, b].
    a, b : float
        Integration limits, ``a < b`` (``b`` may be ``numpy.inf``).
    tol : float
        Target absolute and relative tolerance.
    points : sequence of float, optional
        Interior break points (ignored for infinite ranges).

    Raises
    ------
    AccuracyError
        If the requested tolerance was not reached; the best estimate is
        attached to the exception.
    """
    if not a < b:
        raise ValueError(f"need a < b, got [{a}, {b}]")
    if np.isinf(b) and points is not None:
        points = None

    re, re_err, re_n, re_msg = _quad_real(lambda x: np.real(f(x)), a, b, tol,
                                          points, limit)
    im, im_err, im_n, im_msg = _quad_real(lambda x: np.imag(f(x)), a, b, tol,
                                          points, limit)
    value = complex(re, im)
    abs_err = float(np.hypot(re_err, im_err))
    nodes = re_n + im_n
    message = re_msg or im_msg
    scale = max(abs(value), 1.0)
    if message is not None and abs_err > 10 * tol * scale:
        raise AccuracyError(
            f"adaptive quadrature did not converge: {message}",
            estimate=value, abs_error=abs_err)
    return QuadratureResult(value=value, abs_error_estimate=abs_err,
                            nodes_used=nodes)


def contour_closed(f, center: complex, radius: float, orientation: int = 1,
                   n: int = 256):
    """Periodic trapezoid rule for a closed circular contour integral.

    Computes ``oint f(z) dz`` over the circle ``|z - center| = radius``.
    For integrands analytic in a neighborhood of the circle the rule
    converges spectrally in ``n`` (Trefethen & Weideman, SIAM Rev. 2014).

    Parameters
    ----------
    f : callable
        Batched integrand: receives all ``n`` nodes as one complex array
        of shape ``(n,)`` and returns an array of shape ``(n, ...)``, one
        scalar or matrix per node (matrix values are summed entrywise).
    orientation : int
        +1 for counterclockwise, -1 for clockwise.

    Returns
    -------
    complex or ndarray
        The sum over the nodes, of shape ``(...)``.

    Raises
    ------
    ValueError
        If ``f`` returns a non-finite value at any node.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    if orientation not in (1, -1):
        raise ValueError("orientation must be +1 or -1")
    theta = 2 * np.pi * np.arange(n) / n
    z = center + radius * np.exp(1j * orientation * theta)
    dz = 1j * orientation * (z - center) * (2 * np.pi / n)
    vals = np.asarray(f(z), dtype=complex)
    terms = vals * dz.reshape((n,) + (1,) * (vals.ndim - 1))
    bad = ~np.isfinite(terms)
    if bad.any():
        raise ValueError(
            f"integrand not finite at z = {z[np.nonzero(bad)[0][0]]}")
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


def integrate_gauss_legendre(f, a: float, b: float, n: int = 16) -> complex:
    """Fixed-order Gauss-Legendre rule on [a, b] (deterministic node set)."""
    nodes, weights = _gauss_legendre_rule(n)
    x = 0.5 * (b - a) * nodes + 0.5 * (b + a)
    vals = np.array([f(xi) for xi in x], dtype=complex)
    return complex(0.5 * (b - a) * np.sum(weights * vals))


def j2_over_u_integral(split: float, tol: float = 1e-11,
                       u_match: float = 60.0) -> QuadratureResult:
    """Quadrature of ``int_split^inf J_2(u)/u du``.

    The finite part [split, u_match] is integrated adaptively with break
    points at the zeros of J_2 (the integrand oscillates).  The tail is
    rotated onto the ray u_match + i v where the outgoing Hankel function
    H^(1)_2 decays exponentially:

        int_U^inf J_2(u)/u du = Re[ i int_0^inf H^(1)_2(U+iv)/(U+iv) dv ].
    """
    if split <= 0:
        raise ValueError("split must be positive")
    if split >= u_match:
        raise ValueError("split must be below the tail matching point")
    return _j2_over_u(split, tol, u_match)


@functools.lru_cache(maxsize=16)
def _j2_over_u(split: float, tol: float, u_match: float) -> QuadratureResult:
    """Body of :func:`j2_over_u_integral`, cached per process: the value
    depends on nothing but the three arguments."""
    n_zeros = int(u_match / np.pi) + 4
    zeros = _spec.jn_zeros(2, n_zeros)
    pts = [z for z in zeros if split < z < u_match]
    head = integrate_adaptive(lambda u: _spec.jv(2, u) / u, split, u_match,
                              tol=tol, points=pts, limit=400)

    def tail_integrand(v: float) -> complex:
        z = u_match + 1j * v
        return 1j * _spec.hankel1(2, z) / z

    tail = integrate_adaptive(tail_integrand, 0.0, np.inf, tol=tol)
    value = complex(head.value + tail.value.real)
    err = head.abs_error_estimate + tail.abs_error_estimate
    return QuadratureResult(value=value, abs_error_estimate=err,
                            nodes_used=head.nodes_used + tail.nodes_used)
