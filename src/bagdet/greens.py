"""Closed-form Green functions on the disk, their residual checks, and the
zero-mode analysis.

The bag-condition Green function is built from the free kernel by the
method of images: a homogeneous solution sourced at the inverted point
y R^2/rho^2 is added so that (1, w e^{-i theta}) G_B vanishes identically
on |x| = R.  In complex notation X = r e^{i theta}, Y = rho e^{i phi}:

    G_B(x, y) = (1/2 pi i)
      [[ R w e^{a(phi(r)+phi(rho)-2 phi(R))} / (X Y* - R^2),
         e^{a(phi(r)-phi(rho))} / (X - Y) ],
       [ e^{-a(phi(r)-phi(rho))} / (X - Y)*,
         R e^{-a(phi(r)+phi(rho)-2 phi(R))} / (w (X Y* - R^2)*) ]]

with a the coupling alpha.

``disk_green`` broadcasts: the ``r``/``theta`` of both ``PlanePoint``s
may be arrays that broadcast together (every profile's ``phi``/``dphi``
takes arrays), the result is a ``(..., 2, 2)`` stack, one ``(2, 2)`` for
scalars, and one bad pair raises for the whole batch.
``random_boundary_samples`` gives ``(theta_x, y)``, an angle array and a
``PlanePoint`` of arrays, for one ``boundary_residual`` call.
``image_decomposition`` and ``free_green`` stay scalar as its references.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .clifford import polar_gammas
from .errors import DomainError, SingularityError, require
from .seeley import GaugeField

__all__ = [
    "PlanePoint",
    "DiskProblem",
    "free_green",
    "disk_green",
    "image_decomposition",
    "boundary_residual",
    "random_boundary_samples",
    "pde_residual",
    "gauge_vector",
    "zero_mode_scan",
    "ZeroModeReport",
    "diagonal_singularity_coefficient",
]

_COINCIDENCE_TOL = 1e-8


@dataclass(frozen=True)
class PlanePoint:
    """Point of the plane in polar coordinates; ``r`` and ``theta`` may
    be arrays that broadcast together, describing a stack of points."""

    r: float
    theta: float

    @property
    def X(self) -> complex:
        return self.r * np.exp(1j * self.theta)

    @property
    def xy(self):
        return np.array([self.r * np.cos(self.theta),
                         self.r * np.sin(self.theta)])

    @classmethod
    def from_xy(cls, x0: float, x1: float) -> "PlanePoint":
        return cls(r=np.hypot(x0, x1), theta=np.arctan2(x1, x0))


@dataclass(frozen=True)
class DiskProblem:
    """Full data of the boundary problem: radius, bag parameter w,
    coupling alpha and the radial gauge profile.

    ``R``, ``w`` and ``alpha`` may be arrays that broadcast together with
    the profile's parameters, one batch of problems; every check runs on
    every row, and one bad row raises DomainError for the whole batch.
    Only the closed forms of ``determinant.ln_det_ratio`` take a batch.
    """

    R: float | np.ndarray
    w: complex | np.ndarray
    alpha: float | np.ndarray
    gauge: GaugeField

    def __post_init__(self):
        R, w, alpha = self.R, self.w, self.alpha
        with np.errstate(all="ignore"):
            finite = np.isfinite(R) & np.isfinite(w) & np.isfinite(alpha)
            w2 = np.multiply(w, w, dtype=complex)
            w2_ok = (w2 != 0) & np.isfinite(w2)
            alpha_ok = np.greater_equal(alpha, 0.0) & np.less_equal(alpha, 1.0)
            same_R = np.abs(self.gauge.R - R) <= 1e-12 * np.asarray(R)
        require(finite, "R, w and alpha must be finite (got R = {}, w = {}, "
                "alpha = {})", R, w, alpha)
        require(np.greater(R, 0.0), "radius must be positive")
        require(np.not_equal(w, 0), "w = 0 does not define an elliptic problem")
        require(w2_ok, "w = {} is out of range: w^2 = {} under- or overflows",
                w, w2)
        require(alpha_ok, "alpha must lie in [0, 1]")
        require(same_R, "gauge profile radius differs from disk radius")


def free_green(x: PlanePoint, y: PlanePoint) -> np.ndarray:
    """Free kernel (1/2 pi i) (xslash - yslash)/(x - y)^2.

    In complex form the only nonzero entries are
    (1,2) = (1/2 pi i)/(X - Y) and (2,1) = (1/2 pi i)/(X - Y)*.
    """
    dX = x.X - y.X
    scale = max(x.r, y.r, 1.0)
    if abs(dX) < _COINCIDENCE_TOL * scale:
        raise SingularityError("free kernel evaluated at coincident points")
    pref = 1.0 / (2j * np.pi)
    return np.array([[0.0, pref / dX],
                     [pref / np.conj(dX), 0.0]], dtype=complex)


def disk_green(p: DiskProblem, x: PlanePoint, y: PlanePoint) -> np.ndarray:
    """Green function of the coupled operator under the bag condition, as
    one (2, 2) matrix or a (..., 2, 2) stack over broadcast points."""
    edge = p.R * (1 + 1e-12)
    if np.any(x.r > edge) or np.any(y.r > edge):
        raise DomainError("points must lie in the closed disk")
    X, Y = x.X, y.X
    dX = X - Y
    if np.any(np.abs(dX) < _COINCIDENCE_TOL * p.R):
        raise SingularityError("Green function evaluated at coincident points")
    img = X * np.conj(Y) - p.R ** 2
    if np.any(np.abs(img) < _COINCIDENCE_TOL * p.R ** 2):
        raise SingularityError(
            "image denominator X Y* - R^2 vanishes (both points on the "
            "boundary at the same angle)")
    a = p.alpha
    ph_x = p.gauge.phi(x.r)
    ph_y = p.gauge.phi(y.r)
    ph_R = p.gauge.phi(p.R)
    pref = 1.0 / (2j * np.pi)
    g11 = p.R * p.w * np.exp(a * (ph_x + ph_y - 2.0 * ph_R)) / img
    g12 = np.exp(a * (ph_x - ph_y)) / dX
    g21 = np.exp(-a * (ph_x - ph_y)) / np.conj(dX)
    g22 = p.R * np.exp(-a * (ph_x + ph_y - 2.0 * ph_R)) / (p.w * np.conj(img))
    return pref * np.stack([np.stack([g11, g12], axis=-1),
                            np.stack([g21, g22], axis=-1)], axis=-2)


def image_decomposition(p: DiskProblem, x: PlanePoint, y: PlanePoint) -> np.ndarray:
    """G_B rebuilt as e^{a gamma5 phi(r)} (G_0 + G_0(x, ytilde) H(y))
    e^{a gamma5 phi(rho)} with ytilde = y R^2/rho^2.

    Used as a consistency check of ``disk_green``; the two must agree
    entrywise.
    """
    if y.r < _COINCIDENCE_TOL * p.R:
        raise SingularityError("image point undefined for y at the origin")
    y_img = PlanePoint(r=p.R ** 2 / y.r, theta=y.theta)
    g0 = free_green(x, y)
    g0_img = free_green(x, y_img)
    gamma_rho, _ = polar_gammas(y.theta)
    a = p.alpha
    chir = np.diag([np.exp(2.0 * a * p.gauge.phi(p.R)),
                    np.exp(-2.0 * a * p.gauge.phi(p.R))])
    mix = np.diag([1.0 / p.w, p.w])
    h = g0_img @ (chir @ mix @ gamma_rho) * (p.R / y.r)
    left = np.diag([np.exp(a * p.gauge.phi(x.r)),
                    np.exp(-a * p.gauge.phi(x.r))])
    right = np.diag([np.exp(a * p.gauge.phi(y.r)),
                     np.exp(-a * p.gauge.phi(y.r))])
    return left @ (g0 + h) @ right


def boundary_residual(p: DiskProblem, samples) -> float:
    """Largest norm of (1, w e^{-i theta}) G_B(x, .) over boundary samples.

    ``samples`` is a pair (theta_x, y) of an angle array and a PlanePoint
    of interior points, as returned by :func:`random_boundary_samples`;
    x is taken on |x| = R at angle theta_x.
    """
    theta_x, y = samples
    g = disk_green(p, PlanePoint(r=p.R, theta=theta_x), y)
    row = g[..., 0, :] + (p.w * np.exp(-1j * theta_x))[..., None] * g[..., 1, :]
    return float(np.max(np.abs(row), initial=0.0))


def random_boundary_samples(p: DiskProblem, n: int, seed: int = 0):
    """n random boundary angles theta_x and interior points y, reproducible
    by seed, as the pair (theta_x, y) with y a PlanePoint of arrays."""
    rng = np.random.default_rng(seed)
    theta_x, frac, theta_y = rng.uniform(
        [0.0, 0.05, 0.0], [2 * np.pi, 0.9, 2 * np.pi], size=(n, 3)).T
    return theta_x, PlanePoint(r=p.R * frac, theta=theta_y)


def gauge_vector(gauge: GaugeField, x: PlanePoint):
    """Cartesian components (A_0, A_1) of the potential at x.

    A_mu = eps_{mu nu} d_nu phi gives A_0 = phi'(r) sin(theta) and
    A_1 = -phi'(r) cos(theta); equivalently A_theta = -phi'(r), A_r = 0.
    """
    dp = gauge.dphi(x.r)
    return np.array([dp * np.sin(x.theta), -dp * np.cos(x.theta)])


def pde_residual(p: DiskProblem, x: PlanePoint, y: PlanePoint) -> float:
    """Finite-difference residual of the operator applied to G_B in x.

    Applies i gamma_mu d_mu + alpha Aslash with fourth-order central
    stencils of step h = 1e-4 R; away from x = y the residual is pure
    truncation error.

    ``x`` and ``y`` may be stacks of points that broadcast to a batch
    shape S; the result is the largest residual over the stack (0.0 for
    an empty one) and equals the max of the per-pair calls.  The
    ``(8,) + S`` stencil and G_B(x, y) take one ``disk_green`` call each.
    """
    h = 1e-4 * p.R
    batch = np.broadcast_shapes(np.shape(x.X), np.shape(y.X))
    x0, x1 = (np.broadcast_to(c, (4,) + batch) for c in x.xy)
    steps = (h * np.array([-2.0, -1.0, 1.0, 2.0])).reshape(
        (4,) + (1,) * len(batch))
    # four nodes along x0, then four along x1
    stencil = PlanePoint.from_xy(np.concatenate([x0 + steps, x0]),
                                 np.concatenate([x1, x1 + steps]))
    f = disk_green(p, stencil, y).reshape((2, 4) + batch + (2, 2))
    d0, d1 = (f[:, 0] - 8.0 * f[:, 1] + 8.0 * f[:, 2] - f[:, 3]) / (12.0 * h)
    g0 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    g1 = np.array([[0.0, -1j], [1j, 0.0]], dtype=complex)
    a0c, a1c = gauge_vector(p.gauge, x)[..., None, None]
    residual = 1j * (g0 @ d0 + g1 @ d1) \
        + p.alpha * (a0c * g0 + a1c * g1) @ disk_green(p, x, y)
    return float(np.max(np.abs(residual), initial=0.0))


@dataclass
class ZeroModeReport:
    """Outcome of the angular-mode kernel scan."""

    entries: list = field(default_factory=list)
    kernel_dimension: int = 0


def zero_mode_scan(p: DiskProblem, n_range) -> ZeroModeReport:
    """Show that no normalizable solution of the homogeneous problem exists.

    Angular mode n carries the candidate pair
    phi_n(r) = a_n r^n e^{alpha phi(r)}, chi_n(r) = b_n r^{-n} e^{-alpha phi(r)}.
    Normalizability at the origin forces a_n = 0 for n < 0 and b_n = 0 for
    n > 0; the boundary condition couples the survivors through
    b_{n+1} = -(a_n / w) R^{2n+1} e^{2 alpha phi(R)}, which kills them all.
    """
    report = ZeroModeReport()
    coupling = np.exp(2.0 * p.alpha * p.gauge.phi(p.R)) / p.w
    survivors = 0
    for n in n_range:
        a_allowed = 2 * n + 1 > -1          # int_0 r^{2n} r dr finite
        b_allowed = -2 * n + 1 > -1
        # a nonzero a_n sources b_{n+1}, admissible only for n + 1 <= 0
        partner_allowed = -2 * (n + 1) + 1 > -1
        a_survives = a_allowed and partner_allowed
        # b_n is fixed by its source a_{n-1}, itself forced to vanish
        source_survives = (2 * (n - 1) + 1 > -1) and b_allowed
        b_survives = b_allowed and source_survives
        coupling_coeff = complex(-coupling * p.R ** (2 * n + 1))
        report.entries.append({
            "n": n,
            "a_allowed_at_origin": bool(a_allowed),
            "b_allowed_at_origin": bool(b_allowed),
            "boundary_coupling_b_{n+1}_per_a_n": coupling_coeff,
            "a_forced_zero": bool(not a_survives),
            "b_forced_zero": bool(not b_survives),
        })
        survivors += int(a_survives) + int(b_survives)
    report.kernel_dimension = survivors
    return report


def diagonal_singularity_coefficient(p: DiskProblem, r: float, theta: float):
    """Pole coefficient of G_B at equal radii as the angles merge.

    Richardson-extrapolates delta * G_B(theta, r, theta - delta, r) in the
    angle separation delta = 1e-2 2^-k, k = 0..3; level j combines
    (2^j f(delta/2) - f(delta)) / (2^j - 1), which removes the O(delta^j)
    term.  The limit is gamma_theta / (2 pi i r).

    Returns
    -------
    (estimate, target, rel_err)
    """
    d = 1e-2 * 0.5 ** np.arange(4)
    seq = d[:, None, None] * disk_green(p, PlanePoint(r=r, theta=theta),
                                        PlanePoint(r=r, theta=theta - d))
    for j in range(1, 4):                   # removes the O(delta^j) term
        seq = (2.0 ** j * seq[1:] - seq[:-1]) / (2.0 ** j - 1.0)
    estimate = seq[0]
    _, g_theta = polar_gammas(theta)
    target = g_theta / (2j * np.pi * r)
    rel = float(np.max(np.abs(estimate - target)) / np.max(np.abs(target)))
    return estimate, target, rel
