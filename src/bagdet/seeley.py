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

The symbol functions broadcast: each of ``theta``, ``t``, ``u``, ``xi``,
``tau``, ``lam`` and ``a_theta`` is a scalar or an array, the
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

from .clifford import gamma_t, polar_gammas, stack_2x2
from .errors import BranchError, SingularSymbolError, require
from .quadrature import (_bessel_j_excess, _hankel1_on_ray, contour_closed,
                         integrate_adaptive)

__all__ = [
    "GaugeField",
    "decay_root",
    "a1_matrix",
    "c_minus1",
    "c_minus2",
    "d_minus1",
    "d_tilde_minus1",
    "d_tilde_minus1_contour",
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

    A batch of profiles has ``R`` and the profile parameters as arrays
    that broadcast together, of batch shape S; ``phi`` and ``dphi`` then
    take radii of shape ``(m,) + S`` (or S) and broadcast.  The batch
    shape of A_theta is that of ``dphi(R)``.

    ``a_squared`` is int_disk A.A d^2x in closed form, computed once with
    the batch shape of its parameters, or ``None`` where there is none;
    DomainError if it is not finite.
    """

    phi: Callable
    dphi: Callable
    R: float | np.ndarray
    name: str = ""
    a_squared: float | np.ndarray | None = None

    def __post_init__(self):
        with np.errstate(all="ignore"):
            # a subnormal R^2 (below 2^-1022) keeps too few digits for a
            # dphi that divides by it: 1e-5 relative at R = 1e-160
            r2 = np.multiply(self.R, self.R)
            ok = ((np.greater(self.R, 0.0) & (r2 >= 2.0 ** -1022))
                  & (r2 < math.inf))
        require(ok, "disk radius {} is not positive or its square is "
                "subnormal or overflows", self.R)
        if self.a_squared is not None:
            require(np.isfinite(self.a_squared), "int A.A d^2x = {} overflows "
                    "or is not finite", self.a_squared)

    def a_theta(self, r):
        return -self.dphi(r)


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


def a1_matrix(xi, tau, lam, theta=0.0) -> np.ndarray:
    """Degree-one symbol -xislash - lambda Id in the polar collar frame."""
    return -_xi_slash(theta, xi, tau) - _expand(lam) * np.eye(2, dtype=complex)


def c_minus1(xi, tau, lam, theta=0.0) -> np.ndarray:
    """Leading interior coefficient (xislash - lambda Id)/(lambda^2 - xi^2 - tau^2).

    This is the exact inverse of the degree-one symbol.
    """
    denom = lam * lam - xi * xi - tau * tau
    _check_regular(denom, abs(lam) ** 2 + abs(xi) ** 2 + abs(tau) ** 2,
                   "lambda^2 - xi^2 - tau^2")
    return (_xi_slash(theta, xi, tau)
            - _expand(lam) * np.eye(2, dtype=complex)) / _expand(denom)


def c_minus2(a_theta, xi, tau, lam, alpha, theta=0.0) -> np.ndarray:
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
    eye = np.eye(2, dtype=complex)
    xi_dot_a = xi * a_theta
    a_slash = _expand(a_theta) * g_theta
    num = (_expand(2.0 * lam * xi_dot_a) * eye - _expand(denom) * a_slash
           - _expand(2.0 * xi_dot_a) * _xi_slash(theta, xi, tau))
    return alpha * num / _expand(denom ** 2)


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
    the e^{-i tau u} kernel with decay in u, on tau = -i s + rho zeta,
    |zeta| = 1, by the periodic trapezoid rule of
    :func:`~bagdet.quadrature.contour_closed`: one ``d_minus1`` call on
    the 128 zeta nodes of all inputs.

    The radius is rho = (|s|/2) / max(1, u |s| / 4) = min(|s|/2, 2/u).
    The nearest other pole, tau = +i s, lies at least 4 radii from the
    center, so the rule converges like 4^-n.  The e^{-i tau u} kernel
    varies by e^{rho u} <= e^2 around the circle; on a circle of radius
    |s|/2 it would vary by e^{u |s| / 2} and the sum would cancel, to a
    relative error of about eps e^{u |s| / 2}.  At 128 nodes the relative
    error is at rounding (<= 1e-14) for u |s| up to 64 at least.
    """
    s = decay_root(xi, lam)
    abs_s = np.abs(s)
    rho = 0.5 * abs_s / np.maximum(1.0, u * abs_s / 4)
    ndim = len(np.broadcast_shapes(*map(np.shape, (theta, t, u, xi, lam))))

    def integrand(zeta):
        tau = -1j * s + rho * zeta.reshape(zeta.shape + (1,) * ndim)
        return _expand(np.exp(-1j * tau * u) * rho) * d_minus1(
            theta, t, xi, tau, lam, w)

    return -contour_closed(integrand, 0.0, 1.0, n=128)


_EULER_GAMMA = float(np.euler_gamma)


def k_nu(nu: int) -> float:
    """Boundary-layer constant K_nu = ln 2 - gamma/2 + psi(nu/2)/2.

    psi has closed forms at the integers and half-integers,
    psi(n) = -gamma + H_{n-1} and
    psi(n + 1/2) = -gamma - 2 ln 2 + 2 sum_{k<=n} 1/(2k - 1), so

        K_nu = ln 2 - gamma + H_{nu/2 - 1} / 2             (nu even),
        K_nu = -gamma + sum_{k <= (nu-1)/2} 1/(2k - 1)      (nu odd),

    each summed with :func:`math.fsum`.  ``nu`` is an integer >= 2.
    """
    if nu < 2 or nu != int(nu):
        raise ValueError("nu must be an integer of at least 2")
    n, odd = divmod(int(nu), 2)
    if odd:
        return math.fsum([-_EULER_GAMMA]
                         + [1.0 / (2 * k - 1) for k in range(1, n + 1)])
    return math.fsum([math.log(2.0), -_EULER_GAMMA]
                     + [0.5 / k for k in range(1, n)])


def k_nu_bessel(nu: int) -> float:
    """K_nu from its Bessel-integral form (independent quadrature route).

        K_nu = 2^{nu/2-1} Gamma(nu/2) *
               ( int_0^1 rho^{-nu/2} [J_{nu/2-1}(rho)
                   - rho^{nu/2-1} / (2^{nu/2-1} Gamma(nu/2))] drho
               + int_1^inf rho^{-nu/2} J_{nu/2-1}(rho) drho ).

    The prefactor is the reciprocal of the small-argument coefficient of
    J_{nu/2-1}; it converts the raw integral (whose logarithm carries
    that coefficient) to the constant accompanying a unit logarithm.  It
    equals 1 at nu = 2.  The bracket of the first integrand is the power
    series of J_{nu/2-1} without its leading term, so it does not cancel.
    The oscillatory second integral is rotated onto 1 + i v where the
    outgoing Hankel function decays exponentially, with H^(1) from its
    Laplace-type integral, one for all the nodes of a level.  Both go to
    the double-exponential :func:`~bagdet.quadrature.integrate_adaptive`
    at relative tolerance 1e-9.
    """
    if nu < 2:
        raise ValueError("nu must be at least 2")
    m = nu / 2.0 - 1.0
    norm = 1.0 / (2.0 ** m * math.gamma(nu / 2.0))
    # rho^(-nu/2) (rho/2)^m = 2^-m / rho: the tanh-sinh nodes reach 1e-61,
    # where either power alone would overflow or underflow
    part1 = integrate_adaptive(
        lambda rho: 0.5 ** m * _bessel_j_excess(m, rho, scaled=True) / rho,
        0.0, 1.0, tol=1e-9)
    part2 = integrate_adaptive(
        lambda v: 1j * (1.0 + 1j * v) ** (-nu / 2.0)
        * _hankel1_on_ray(m, 1.0, v), 0.0, np.inf, tol=1e-9)
    return float((part1.value.real + part2.value.real) / norm)
