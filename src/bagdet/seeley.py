"""Resolvent-expansion coefficients for the disk Dirac operator.

The interior coefficients c_{-1}, c_{-2} solve the symbol equation
``sum a_{1-j} o sum c_{-1-j} = Id`` order by order; the boundary
coefficient d_{-1} solves the normal ODE

    (-lambda I - xi gamma_theta + i gamma_t d/dt) d_{-1} = 0,
    b0 d_{-1} = b0 c_{-1} at t = 0,   d_{-1} -> 0 as t -> infinity,

and its tilde transform replaces the normal covariable tau by a second
normal distance u through a closed tau-contour integral.  The square root
s = sqrt(xi^2 - lambda^2) is always the principal branch with Re s > 0,
which is what the decay requirement selects.

The symbol functions broadcast: each of ``theta`` (``x``), ``t``, ``u``,
``xi``, ``tau``, ``lam`` and ``a_theta`` is a scalar or an array, the
arrays broadcast together, and the result has shape ``(..., 2, 2)`` with
entry ``[j]`` equal to the scalar call at node ``j`` (one ``(2, 2)``
matrix for scalars; ``decay_root`` gives one root per node).  Every
singularity and branch check covers every node: one bad node raises for
the whole batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import special as _spec

from .clifford import GammaRep, gamma_t, polar_gammas, stack_2x2
from .errors import BranchError, DomainError, SingularSymbolError
from .quadrature import circle_mean, contour_closed, integrate_adaptive

__all__ = [
    "GaugeField",
    "SymbolFn",
    "decay_root",
    "a1_matrix",
    "c_minus1",
    "c_minus2",
    "a1_symbol",
    "a0_symbol",
    "c_minus1_symbol",
    "c_minus2_symbol",
    "d_minus1",
    "d_tilde_minus1",
    "d_tilde_minus1_contour",
    "compose_symbols_check",
    "m_coefficient",
    "k_nu",
    "k_nu_bessel",
]

_SING_TOL = 1e-12


@dataclass(frozen=True)
class GaugeField:
    """Radial gauge profile on a disk of radius R.

    The potential is fixed by a single smooth function phi(r):
    A_r = 0 and A_theta(r) = -phi'(r), so the total flux is
    -2 pi R phi'(R).  Both phi and its analytic derivative must be
    supplied, each taking a scalar or an array of radii; nothing here
    differentiates numerically.
    """

    phi: Callable[[float], float]
    dphi: Callable[[float], float]
    R: float
    name: str = ""

    def __post_init__(self):
        if self.R <= 0 or not 0.0 < self.R * self.R < math.inf:
            raise DomainError(f"disk radius {self.R} is not positive or "
                              "its square under- or overflows")

    def a_theta(self, r):
        return -self.dphi(r)


@dataclass(frozen=True)
class SymbolFn:
    """Matrix-valued interior symbol, homogeneous of ``degree`` in
    (xi, tau, lambda).

    ``eval(x, t, xi, tau, lam)`` returns the k x k value; arrays give a
    stack of shape ``(..., k, k)``.
    """

    degree: int
    eval: Callable


def decay_root(xi, lam):
    """Principal square root s = sqrt(xi^2 - lambda^2) with Re s > 0; a
    Python complex for scalars, an array for arrays.

    Raises
    ------
    BranchError
        If the argument falls on the cut (Re s = 0) at any node, where no
        decaying normal solution exists.
    """
    s = np.sqrt(np.asarray(xi * xi - lam * lam, dtype=complex))
    bad = s.real <= 0.0
    if bad.any():
        raise BranchError(
            f"sqrt(xi^2 - lambda^2) = {s[bad].flat[0]} has no positive real "
            "part; decaying solution undefined")
    return complex(s) if s.ndim == 0 else s


def _expand(x) -> np.ndarray:
    """``x`` with two trailing unit axes, to broadcast against the matrix
    axes of a stack of 2 x 2 symbols."""
    return np.asarray(x)[..., None, None]


def _check_regular(denom, scale, what: str) -> None:
    """Raise SingularSymbolError where |denom| <= _SING_TOL max(scale, 1).

    ``scale`` is real (built from moduli), so the bound is a relative one
    also at complex nodes; the check covers every node of a batch.
    """
    bad = np.abs(denom) <= _SING_TOL * np.maximum(scale, 1.0)
    if bad.any():
        raise SingularSymbolError(
            f"{what} = {np.asarray(denom)[bad].flat[0]} is singular")


def _xi_slash(theta, xi, tau) -> np.ndarray:
    _, g_theta = polar_gammas(theta)
    return _expand(xi) * g_theta + _expand(tau) * gamma_t(theta)


def a1_matrix(rep: GammaRep, xi, tau, lam, theta=0.0) -> np.ndarray:
    """Degree-one symbol -xislash - lambda Id in the polar collar frame."""
    return (-_xi_slash(theta, xi, tau)
            - _expand(lam) * np.eye(rep.k, dtype=complex))


def c_minus1(rep: GammaRep, xi, tau, lam, theta=0.0) -> np.ndarray:
    """Leading interior coefficient (xislash - lambda Id)/(lambda^2 - xi^2 - tau^2).

    This is the exact inverse of the degree-one symbol.
    """
    denom = lam * lam - xi * xi - tau * tau
    _check_regular(denom, abs(lam) ** 2 + abs(xi) ** 2 + abs(tau) ** 2,
                   "lambda^2 - xi^2 - tau^2")
    return (_xi_slash(theta, xi, tau)
            - _expand(lam) * np.eye(rep.k, dtype=complex)) / _expand(denom)


def c_minus2(rep: GammaRep, a_theta, xi, tau, lam, alpha,
             theta=0.0) -> np.ndarray:
    """Next interior coefficient, linear in the gauge potential.

    With xi.A = xi A_theta (the potential has no normal component) and the
    covector norm xi^2 + tau^2 appearing throughout,

        c_{-2} = alpha/(lambda^2 - xi^2 - tau^2)^2
                 (2 lambda xi A_theta Id - (lambda^2 - xi^2 - tau^2) Aslash
                  - 2 xi A_theta xislash).

    Equivalently c_{-2} = -alpha c_{-1} Aslash c_{-1}, homogeneous of
    degree -2 in (xi, tau, lambda).
    """
    denom = lam * lam - xi * xi - tau * tau
    _check_regular(denom, abs(lam) ** 2 + abs(xi) ** 2 + abs(tau) ** 2,
                   "lambda^2 - xi^2 - tau^2")
    _, g_theta = polar_gammas(theta)
    eye = np.eye(rep.k, dtype=complex)
    xi_dot_a = xi * a_theta
    a_slash = _expand(a_theta) * g_theta
    num = (_expand(2.0 * lam * xi_dot_a) * eye - _expand(denom) * a_slash
           - _expand(2.0 * xi_dot_a) * _xi_slash(theta, xi, tau))
    return alpha * num / _expand(denom ** 2)


def a1_symbol(rep: GammaRep) -> SymbolFn:
    """a_1 as a SymbolFn; x is the boundary angle theta."""
    return SymbolFn(
        degree=1,
        eval=lambda x, t, xi, tau, lam: a1_matrix(rep, xi, tau, lam, theta=x))


def a0_symbol(rep: GammaRep, gauge: GaugeField, alpha: float) -> SymbolFn:
    """a_0 = alpha Aslash evaluated at radius r = R - t."""

    def ev(x, t, xi, tau, lam):
        a0 = _expand(alpha * gauge.a_theta(gauge.R - t)) * polar_gammas(x)[1]
        shape = np.broadcast_shapes(a0.shape[:-2], np.shape(xi),
                                    np.shape(tau), np.shape(lam))
        return np.broadcast_to(a0, shape + (2, 2))

    return SymbolFn(degree=0, eval=ev)


def c_minus1_symbol(rep: GammaRep) -> SymbolFn:
    return SymbolFn(
        degree=-1,
        eval=lambda x, t, xi, tau, lam: c_minus1(rep, xi, tau, lam, theta=x))


def c_minus2_symbol(rep: GammaRep, gauge: GaugeField, alpha: float) -> SymbolFn:
    def ev(x, t, xi, tau, lam):
        return c_minus2(rep, gauge.a_theta(gauge.R - t), xi, tau, lam, alpha,
                        theta=x)

    return SymbolFn(degree=-2, eval=ev)


def _d_denominator(xi, lam, w, s):
    den = w * lam + 1j * xi + 1j * s
    _check_regular(den, np.maximum(np.maximum(abs(lam), abs(xi)), abs(s)),
                   "w lambda + i xi + i sqrt(xi^2 - lambda^2) (boundary "
                   "condition not solvable along this direction)")
    return den


def d_minus1(theta, t, xi, tau, lam, w) -> np.ndarray:
    """Boundary coefficient d_{-1}(theta, t; xi, tau; lambda) for b0 = (1, w e^{-i theta}).

    Solves (-lambda - xi gamma_theta + i gamma_t d_t) d = 0 with
    b0 d = b0 c_{-1} at t = 0 and exponential decay in t.  Closed form:

        d_{-1} = e^{-t s} / ((xi^2 + tau^2 - lambda^2)(w lam + i xi + i s))
                 [[ i (xi+s)(lam - w(i xi - tau)),
                    i e^{-i theta}(xi+s)(w lam + i xi + tau) ],
                  [ lam e^{i theta}(lam - w(i xi - tau)),
                    lam (w lam + i xi + tau) ]].
    """
    s = decay_root(xi, lam)
    denom = xi * xi + tau * tau - lam * lam
    _check_regular(denom, abs(lam) ** 2 + abs(xi) ** 2 + abs(tau) ** 2,
                   "xi^2 + tau^2 - lambda^2")
    bden = _d_denominator(xi, lam, w, s)
    em = np.exp(-1j * theta)
    ep = np.exp(1j * theta)
    left = lam - w * (1j * xi - tau)
    right = w * lam + 1j * xi + tau
    mat = stack_2x2(1j * (xi + s) * left, 1j * em * (xi + s) * right,
                    lam * ep * left, lam * right)
    return _expand(np.exp(-t * s) / (denom * bden)) * mat


def d_tilde_minus1(theta, t, u, xi, lam, w) -> np.ndarray:
    """Tilde transform of d_{-1}: the tau covariable replaced by a second
    normal distance u.

    Closed form (rank one, proportional to e^{-(u+t) s}):

        pi i e^{-(u+t)s} / (s (i w lam - xi - s))
        [[ (xi+s)(i lam + w(xi+s)),  e^{-i theta}(xi+s)(i w lam - xi + s) ],
         [ -i lam e^{i theta}(i lam + w(xi+s)), -i lam (i w lam - xi + s) ]].

    Matches the closed tau-contour transform of d_{-1} (see
    :func:`d_tilde_minus1_contour`).
    """
    s = decay_root(xi, lam)
    bden = 1j * _d_denominator(xi, lam, w, s)     # = i w lam - xi - s
    em = np.exp(-1j * theta)
    ep = np.exp(1j * theta)
    col = 1j * lam + w * (xi + s)
    row = 1j * w * lam - xi + s
    mat = stack_2x2((xi + s) * col, em * (xi + s) * row,
                    -1j * lam * ep * col, -1j * lam * row)
    return _expand((np.pi * 1j) * np.exp(-(u + t) * s) / (s * bden)) * mat


def d_tilde_minus1_contour(theta, t, u, xi, lam, w) -> np.ndarray:
    """Tilde transform by numerical tau-contour quadrature (the oracle).

    d_{-1} is rational in tau with simple poles at tau = +- i s.  The
    transform is the closed integral

        -oint e^{-i tau u} d_{-1}(theta, t; xi, tau; lambda) dtau

    taken counterclockwise around the pole tau = -i s, the one that pairs
    the e^{-i tau u} kernel with decay in u, on tau = -i s + (|s|/2) zeta,
    |zeta| = 1, by the periodic trapezoid rule of
    :func:`~bagdet.quadrature.contour_closed`: one ``d_minus1`` call on
    the 512 zeta nodes of all inputs.
    """
    s = decay_root(xi, lam)
    half = 0.5 * np.abs(s)
    ndim = len(np.broadcast_shapes(*map(np.shape, (theta, t, u, xi, lam))))

    def integrand(zeta):
        tau = -1j * s + half * zeta.reshape(zeta.shape + (1,) * ndim)
        return _expand(np.exp(-1j * tau * u) * half) * d_minus1(
            theta, t, xi, tau, lam, w)

    return -contour_closed(integrand, 0.0, 1.0, n=512)


def compose_symbols_check(a_list, c_list, order: int, samples) -> float:
    """Residual of the graded symbol composition at the given order.

    Products a_i c_j with deg(a_i) + deg(c_j) = order are summed; the
    derivative terms (d_xi a)(D_x c) of the composition are not included,
    so this checks the algebraic part of the recursion.  Returns the
    maximum deviation (from Id at order 0, from 0 below) over the samples
    ``(x, t, xi, tau, lam)``, which are evaluated in one call per symbol.
    """
    nodes = [np.array(v) for v in zip(*samples)]
    terms = [a_sym.eval(*nodes) @ c_sym.eval(*nodes) for a_sym in a_list
             for c_sym in c_list if a_sym.degree + c_sym.degree == order]
    if not terms:
        return 0.0
    acc = sum(terms)
    if order == 0:
        acc = acc - np.eye(acc.shape[-1])
    return float(np.max(np.abs(acc)))


def m_coefficient(symbol, x, t, n_nodes: int = 256) -> np.ndarray:
    """Angular average of a degree -nu symbol over the unit covector circle.

    Computes (1/(2 pi)) int_{|(xi,tau)|=1} c(x, t; xi, tau; 0) dsigma by
    the periodic trapezoid rule of :func:`~bagdet.quadrature.circle_mean`
    (spectrally accurate for the trigonometric integrands at hand), with
    one symbol call on all ``n_nodes`` covectors.  ``symbol`` is a
    SymbolFn or a bare callable with the same signature; it must accept
    arrays of ``xi``/``tau`` and return one matrix per node.
    """
    ev = getattr(symbol, "eval", symbol)
    return circle_mean(lambda phi: ev(x, t, np.cos(phi), np.sin(phi), 0.0),
                       n_nodes)


_EULER_GAMMA = float(np.euler_gamma)


def k_nu(nu: int) -> float:
    """Boundary-layer constant K_nu = ln 2 - gamma/2 + psi(nu/2)/2."""
    if nu < 2:
        raise ValueError("nu must be at least 2")
    return float(np.log(2.0) - 0.5 * _EULER_GAMMA
                 + 0.5 * _spec.digamma(nu / 2.0))


def k_nu_bessel(nu: int) -> float:
    """K_nu from its Bessel-integral form (independent quadrature route).

        K_nu = 2^{nu/2-1} Gamma(nu/2) *
               ( int_0^1 rho^{-nu/2} [J_{nu/2-1}(rho)
                   - rho^{nu/2-1} / (2^{nu/2-1} Gamma(nu/2))] drho
               + int_1^inf rho^{-nu/2} J_{nu/2-1}(rho) drho ).

    The prefactor is the reciprocal of the small-argument coefficient of
    J_{nu/2-1}; it converts the raw integral (whose logarithm carries
    that coefficient) to the constant accompanying a unit logarithm.  It
    equals 1 at nu = 2.  The oscillatory second integral is rotated onto
    1 + i v where the outgoing Hankel function decays exponentially.  Both
    integrals are adaptive quadratures to tolerance 1e-9.
    """
    if nu < 2:
        raise ValueError("nu must be at least 2")
    m = nu / 2.0 - 1.0
    norm = 1.0 / (2.0 ** m * _spec.gamma(nu / 2.0))

    def head(rho: float) -> float:
        return rho ** (-nu / 2.0) * (_spec.jv(m, rho) - norm * rho ** m)

    part1 = integrate_adaptive(head, 0.0, 1.0, tol=1e-9)

    def tail(v: float) -> complex:
        z = 1.0 + 1j * v
        return 1j * z ** (-nu / 2.0) * _spec.hankel1(m, z)

    part2 = integrate_adaptive(tail, 0.0, np.inf, tol=1e-9)
    return float((part1.value.real + part2.value.real) / norm)
