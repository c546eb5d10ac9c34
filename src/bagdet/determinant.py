"""Assembly of the log-determinant ratio for the disk problem.

Three contributions survive in the variation of the log-determinant with
respect to the coupling: two bulk terms, each equal to
``-(alpha/2 pi) int A.A d^2x``, and a boundary term
``-(Phi/4 pi) ln w^2`` that depends only on the total flux and the bag
parameter.  Integrating the coupling from 0 to 1,

    ln Det(D)_B - ln Det(D_free)_B
        = -(1/2 pi) int_disk A.A d^2x - (1/4 pi) ln w^2 oint A . dx.

Every closed form here is shadowed by an independent numerical route:
radial quadrature vs. a Bessel-kernel limit for the first bulk term, a
spectral-plane contour integral for the second, and both a contour and a
real-axis quadrature for the boundary term.

The spectral contour runs down the right side of the positive imaginary
axis, circles the origin clockwise, and returns up the left side; the
logarithm takes arguments in (-3 pi/2, pi/2], so its branch jump sits
between the two rays.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .clifford import make_rep_2d, polar_gammas
from .errors import AccuracyError, BranchError, ContourError, DomainError
from .greens import DiskProblem, PlanePoint, disk_green
from .quadrature import (QuadratureResult, circle_mean, gauss_legendre_panel,
                         integrate_adaptive, integrate_gauss_legendre,
                         j2_over_u_integral)
from .seeley import GaugeField, c_minus2, d_tilde_minus1

__all__ = [
    "ContourSpec",
    "DeterminantResult",
    "log_branch",
    "gamma_log_contour",
    "flux",
    "a_squared_integral",
    "bulk_c2_term",
    "bulk_c2_bessel_oracle",
    "bulk_log_term",
    "boundary_term",
    "boundary_contour_oracle",
    "dW_dalpha",
    "ln_det_ratio",
    "residue_check",
    "singularity_cancellation_check",
]

CSV_FIELDS = ("bulk", "boundary_re", "boundary_im", "total_re", "total_im",
              "flux")


@dataclass(frozen=True)
class ContourSpec:
    """Spectral-plane contour: two vertical rays at Re = +-eps joined by a
    clockwise circular detour of radius hypot(eps, mu0) around the origin.

    The rays run from height mu0 up to lambda_max; ray quadrature uses
    Gauss-Legendre panels on geometrically growing segments, the detour a
    single Gauss-Legendre rule in the angle.  The path must keep clear of
    the branch points lambda = +-1 and of any poles +-i/u of the boundary
    integrand.
    """

    eps: float = 0.1
    mu0: float = 0.2
    lambda_max: float = 1e8
    n_seg: int = 24
    n_arc: int = 96
    seg_ratio: float = 2.0

    def __post_init__(self):
        if not 0 < self.eps < 0.5:
            raise ContourError("eps must lie in (0, 0.5)")
        if not self.eps < 2.5 * self.mu0:
            raise ContourError("rays should start above the detour")
        if self.detour_radius >= 0.8:
            raise ContourError("detour radius too close to lambda = +-1")

    @property
    def detour_radius(self) -> float:
        return math.hypot(self.eps, self.mu0)

    @classmethod
    def auto(cls, pole_scale: float | None = None, **kwargs) -> "ContourSpec":
        """Contour sized to keep the detour below the nearest imaginary-axis
        pole (|lambda| = pole_scale)."""
        if pole_scale is None or not np.isfinite(pole_scale):
            return cls(**kwargs)
        mu0 = 0.5 * min(1.0, pole_scale)
        return cls(eps=0.5 * mu0, mu0=mu0, **kwargs)

    def check_clearance(self, poles, margin: float = 0.1) -> None:
        """Raise ContourError if a pole sits within ``margin`` (relative to
        max(1, |pole|)) of the path."""
        for p in poles:
            p = complex(p)
            scale = max(1.0, abs(p))
            d_arc = abs(abs(p) - self.detour_radius)
            if p.imag >= self.mu0:
                d_rays = abs(abs(p.real) - self.eps)
            else:
                d_rays = min(abs(p - (self.eps + 1j * self.mu0)),
                             abs(p - (-self.eps + 1j * self.mu0)))
            if min(d_arc, d_rays) < margin * scale:
                raise ContourError(
                    f"pole {p} within {margin:g} x scale of the contour")


def log_branch(lam):
    """log lambda with arguments in (-3 pi/2, pi/2] (cut between the rays)."""
    lam = np.asarray(lam, dtype=complex)
    ang = np.angle(lam)
    ang = np.where(ang > np.pi / 2 + 1e-15, ang - 2 * np.pi, ang)
    return np.log(np.abs(lam)) + 1j * ang


@functools.lru_cache(maxsize=8)
def _spectral_path(spec: ContourSpec, refine: int):
    """Contour nodes, complex weights (d lambda already folded in) and
    ``log_branch(nodes)``.

    The path depends on nothing but ``(spec, refine)``, so it is built once
    per process and shared; the arrays are read-only.  One entry holds
    about 70 kB per unit of ``refine`` for the default spec.
    """
    n_seg = spec.n_seg * refine
    n_arc = spec.n_arc * refine
    breaks = [spec.mu0]
    while breaks[-1] < spec.lambda_max:
        breaks.append(min(breaks[-1] * spec.seg_ratio, spec.lambda_max))
    mus, wts = [], []
    for a, b in zip(breaks[:-1], breaks[1:]):
        x, w = gauss_legendre_panel(a, b, n_seg)
        mus.append(x)
        wts.append(w)
    mu = np.concatenate(mus)
    wmu = np.concatenate(wts)
    # right ray traversed downward, left ray upward
    lam_right = spec.eps + 1j * mu
    w_right = -1j * wmu
    lam_left = -spec.eps + 1j * mu
    w_left = 1j * wmu
    # clockwise arc from phi1 to -(pi + phi1)
    phi1 = math.atan2(spec.mu0, spec.eps)
    rr = spec.detour_radius
    th, wth = gauss_legendre_panel(-(np.pi + phi1), phi1, n_arc)
    lam_arc = rr * np.exp(1j * th)
    w_arc = -1j * rr * np.exp(1j * th) * wth      # minus: traversed downward
    nodes = np.concatenate([lam_right, lam_arc, lam_left])
    weights = np.concatenate([w_right, w_arc, w_left])
    logb = log_branch(nodes)
    for arr in (nodes, weights, logb):
        arr.flags.writeable = False
    return nodes, weights, logb


def gamma_log_contour(g, spec: ContourSpec | None = None) -> QuadratureResult:
    """Contour integral ``oint log(lambda) g(lambda) d lambda`` over the
    spectral path, with the branch described in :func:`log_branch`.

    ``g`` must accept complex ndarrays; it receives the read-only nodes
    of the cached path.  The error estimate combines a node-doubling
    comparison with a truncation bound for the ray tails (assumes |g|
    decays at least like 1/|lambda|^2).
    """
    if spec is None:
        spec = ContourSpec()
    values = []
    counts = []
    for refine in (1, 2):
        nodes, weights, logb = _spectral_path(spec, refine)
        f = logb * np.asarray(g(nodes), dtype=complex)
        if np.any(~np.isfinite(f)):
            raise ContourError("integrand not finite on the contour")
        values.append(complex(np.sum(weights * f)))
        counts.append(nodes.size)
    top_r = spec.eps + 1j * spec.lambda_max
    top_l = -spec.eps + 1j * spec.lambda_max
    gt = np.asarray(g(np.array([top_r, top_l])), dtype=complex)
    tail = 1.5 * spec.lambda_max * float(
        np.sum(np.abs(log_branch(np.array([top_r, top_l])) * gt)))
    err = abs(values[1] - values[0]) + tail
    return QuadratureResult(value=values[1], abs_error_estimate=err,
                            nodes_used=sum(counts) + 2)


def flux(gauge: GaugeField) -> float:
    """Total boundary flux Phi = oint A_theta R dtheta = -2 pi R phi'(R)."""
    return float(-2.0 * np.pi * gauge.R * gauge.dphi(gauge.R))


def a_squared_integral(gauge: GaugeField, tol: float = 1e-11) -> QuadratureResult:
    """int_disk A.A d^2x = 2 pi int_0^R A_theta(r)^2 r dr."""
    res = integrate_adaptive(
        lambda r: gauge.a_theta(r) ** 2 * r, 0.0, gauge.R, tol=tol)
    return QuadratureResult(value=2.0 * np.pi * res.value,
                            abs_error_estimate=2.0 * np.pi * res.abs_error_estimate,
                            nodes_used=res.nodes_used)


def bulk_c2_term(gauge: GaugeField, alpha: float, tol: float = 1e-11) -> float:
    """First bulk contribution -(alpha/2 pi) int A.A d^2x."""
    return float(-alpha / (2.0 * np.pi) * a_squared_integral(gauge, tol).value.real)


def bulk_c2_bessel_oracle(gauge: GaugeField, alpha: float,
                          split: float = 1e-3) -> float:
    """Bulk term through the point-split Bessel kernel.

    Evaluates -(alpha/pi) int A.A d^2x * int_split^inf J_2(u)/u du at two
    split values and Richardson-extrapolates the O(split^2) cutoff error
    away.  Must converge to :func:`bulk_c2_term`.
    """
    if split <= 0:
        raise DomainError("split must be positive")
    b1 = j2_over_u_integral(split).value.real
    b2 = j2_over_u_integral(0.5 * split).value.real
    bessel_part = (4.0 * b2 - b1) / 3.0
    asq = a_squared_integral(gauge).value.real
    return float(-alpha / np.pi * asq * bessel_part)


def _angular_average_factor(lam: np.ndarray, n_ang: int) -> np.ndarray:
    """int_{|(xi,tau)|=1} (1 - lambda^2 - 2 xi^2) dsigma by trapezoid."""
    return 2 * np.pi * circle_mean(
        lambda phi: (1.0 - lam ** 2) - 2.0 * np.cos(phi)[:, None] ** 2, n_ang)


def bulk_log_term(gauge: GaugeField, alpha: float,
                  spec: ContourSpec | None = None, n_ang: int = 64,
                  imag_tol: float = 1e-7) -> float:
    """Second bulk contribution, by spectral-contour quadrature.

    Evaluates

        -(i alpha / 4 pi^3) int A.A d^2x
            oint log(lambda)/(lambda (lambda^2-1)^2)
                 int_{S^1} (1 - lambda^2 - 2 xi^2) dsigma  d lambda

    with the angular integral done numerically on the unit covector
    circle.  Equals :func:`bulk_c2_term` (the two bulk routes agree).
    """
    if spec is None:
        spec = ContourSpec()
    spec.check_clearance([1.0, -1.0])

    def g(lam: np.ndarray) -> np.ndarray:
        return _angular_average_factor(lam, n_ang) / \
            (lam * (lam ** 2 - 1.0) ** 2)

    contour = gamma_log_contour(g, spec)
    asq = a_squared_integral(gauge).value.real
    value = -1j * alpha / (4.0 * np.pi ** 3) * asq * contour.value
    if abs(value.imag) > imag_tol * max(1.0, abs(value.real)):
        raise AccuracyError(
            f"bulk contour term has spurious imaginary part {value.imag:g}",
            estimate=value)
    return float(value.real)


def boundary_term(w: complex, flux_value: float) -> complex:
    """Closed-form boundary contribution -(Phi / 4 pi) ln w^2.

    ln w^2 depends on the value of w^2 only: on the negative real axis
    (imaginary w) it is the principal branch, Im = +pi, for either sign
    of the zero imaginary part of w*w.
    """
    w = complex(w)
    if w == 0:
        raise DomainError("w = 0 does not define an elliptic problem")
    w2 = w * w
    if w2.imag == 0.0 and w2.real < 0.0:
        w2 = complex(w2.real, 0.0)
    return -flux_value / (4.0 * np.pi) * np.log(w2)


def _u_parameter(w: complex) -> complex:
    return (1.0 - w * w) / (2.0 * w)


def _sheet_root(w: complex) -> complex:
    """sqrt(1 + u^2) on the sheet belonging to the boundary data, which is
    (1 + w^2)/(2 w); coincides with the principal root when its real part
    is positive."""
    s = (1.0 + w * w) / (2.0 * w)
    if s.real <= 0.0:
        raise BranchError(
            "boundary oracle defined on the sheet Re[(1+w^2)/2w] > 0 "
            f"(got {s}); use the closed form for this w")
    return s


def boundary_contour_oracle(w: complex, flux_value: float,
                            spec: ContourSpec | None = None,
                            route: str = "contour",
                            tol: float = 1e-9) -> complex:
    """Boundary contribution by independent quadrature.

    route="contour" evaluates

        (i Phi / 4 pi^2) oint log(lambda)
            u [lambda sqrt(1+u^2) - i sqrt(1-lambda^2)]
            / [(1 + u^2 lambda^2) sqrt(1-lambda^2)] d lambda

    over the spectral path, u = (1 - w^2)/2w.  route="real" evaluates the
    reduced half-line form

        -(Phi / 2 pi) u int_0^inf [mu sqrt(1+u^2)/sqrt(1+mu^2) - 1]
                                   / (1 - u^2 mu^2) dmu,

    whose integrand is regular at mu = 1/|u| (the zero of the bracket
    cancels the pole).  Both must match -(Phi/4 pi) ln w^2.
    """
    w = complex(w)
    if w == 0:
        raise DomainError("w = 0 does not define an elliptic problem")
    u = _u_parameter(w)
    if abs(u) < 1e-14 or flux_value == 0.0:
        return 0.0 + 0.0j
    s = _sheet_root(w)

    if route == "real":
        u2 = u * u

        def integrand(mu: float) -> complex:
            den = 1.0 - u2 * mu * mu
            if abs(den) < 1e-12:
                return -s / ((1.0 + mu * mu) ** 1.5 * 2.0 * u2 * mu)
            return (mu * s / np.sqrt(1.0 + mu * mu) - 1.0) / den

        if u.imag == 0.0:
            mu_star = 1.0 / abs(u.real)
            head = integrate_adaptive(integrand, 0.0, 2.0 * mu_star, tol=tol,
                                      points=[mu_star])
            tail = integrate_adaptive(integrand, 2.0 * mu_star, np.inf, tol=tol)
            total = head.value + tail.value
        else:
            total = integrate_adaptive(integrand, 0.0, np.inf, tol=tol).value
        return complex(-flux_value / (2.0 * np.pi) * u * total)

    if route == "contour":
        if w.imag != 0.0 or w.real <= 0.0:
            raise BranchError(
                "contour route supports real w > 0; use route='real'")
        if spec is None:
            spec = ContourSpec.auto(pole_scale=1.0 / abs(u))
        # the pole on the positive imaginary axis is removable for real
        # w > 0 (the numerator vanishes there); only its mirror image and
        # the branch points constrain the path
        spec.check_clearance([1.0, -1.0, -1j / abs(u.real)], margin=0.05)

        def g(lam: np.ndarray) -> np.ndarray:
            root = np.sqrt(1.0 - lam ** 2)
            return u * (lam * s - 1j * root) / ((1.0 + u * u * lam ** 2) * root)

        contour = gamma_log_contour(g, spec)
        return complex(1j * flux_value / (4.0 * np.pi ** 2) * contour.value)

    raise ValueError(f"unknown route {route!r}")


def dW_dalpha(p: DiskProblem, spec: ContourSpec | None = None) -> complex:
    """Derivative of the log-determinant along the coupling family.

    Sum of the two bulk terms (each carrying a factor alpha) and the
    alpha-independent boundary term:

        dW/dalpha = -(alpha/pi) int A.A d^2x - (Phi/4 pi) ln w^2.

    The contributions that would come from the Green function singularity
    and its interior counterterm cancel exactly; see
    :func:`singularity_cancellation_check` for the verification of that
    cancellation.
    """
    c2 = bulk_c2_term(p.gauge, p.alpha)
    logt = bulk_log_term(p.gauge, p.alpha, spec=spec)
    bnd = boundary_term(p.w, flux(p.gauge))
    return c2 + logt + bnd


@dataclass
class DeterminantResult:
    """Final determinant ratio with its oracle residuals.

    ``total = bulk_term + boundary_term`` always holds; the boundary term
    vanishes for zero flux and for w = +-1.
    """

    bulk_term: float
    boundary_term: complex
    total: complex
    flux: float
    diagnostics: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "bulk": self.bulk_term,
            "boundary_re": self.boundary_term.real,
            "boundary_im": self.boundary_term.imag,
            "total_re": self.total.real,
            "total_im": self.total.imag,
            "flux": self.flux,
            "oracle_residuals": {k: v for k, v in
                                 sorted(self.diagnostics.items())},
        }

    def csv_header(self) -> list:
        return list(CSV_FIELDS) + [f"oracle_residuals.{k}"
                                   for k in sorted(self.diagnostics)]

    def csv_row(self) -> list:
        base = [self.bulk_term, self.boundary_term.real,
                self.boundary_term.imag, self.total.real, self.total.imag,
                self.flux]
        return base + [self.diagnostics[k] for k in sorted(self.diagnostics)]


def ln_det_ratio(p: DiskProblem, spec: ContourSpec | None = None,
                 run_oracles: bool = True, n_alpha: int = 16) -> DeterminantResult:
    """ln Det(coupled) - ln Det(free) under the bag condition.

    The coupling is integrated analytically over [0, 1]: the bulk terms
    carry a factor alpha (integrating to 1/2) and the boundary term is
    constant, giving

        total = -(1/2 pi) int A.A d^2x - (Phi/4 pi) ln w^2.

    With ``run_oracles`` a Gauss-Legendre quadrature of dW/dalpha over the
    coupling, the second-bulk contour route, the Bessel-kernel route and
    (for admissible w) the boundary quadrature are all evaluated and their
    residuals reported in ``diagnostics``.
    """
    asq = a_squared_integral(p.gauge)
    phi_flux = flux(p.gauge)
    bulk = float(-asq.value.real / (2.0 * np.pi))
    bnd = boundary_term(p.w, phi_flux)
    total = bulk + bnd
    diag = {"a_squared_abs_err": asq.abs_error_estimate}
    if run_oracles:
        c2_unit = bulk_c2_term(p.gauge, 1.0)
        log_unit = bulk_log_term(p.gauge, 1.0, spec=spec)
        ref = max(abs(c2_unit), 1e-14)
        diag["w4_vs_w3_rel"] = abs(log_unit - c2_unit) / ref
        diag["bulk_bessel_rel"] = abs(
            bulk_c2_bessel_oracle(p.gauge, 1.0) - c2_unit) / ref
        gl = integrate_gauss_legendre(
            lambda a: a * (c2_unit + log_unit) + bnd, 0.0, 1.0, n=n_alpha)
        diag["alpha_quadrature_residual"] = abs(gl - total)
        try:
            oracle = boundary_contour_oracle(p.w, phi_flux, route="real")
            diag["boundary_oracle_rel"] = abs(oracle - bnd) / max(abs(bnd), 1e-12)
        except BranchError:
            pass
    return DeterminantResult(bulk_term=bulk, boundary_term=bnd,
                             total=complex(total), flux=phi_flux,
                             diagnostics=diag)


def residue_check(p: DiskProblem, n_ang: int = 256,
                  radii=(0.3, 0.6, 0.9), lam_limit: float = 1e-9) -> dict:
    """Residue integrals of the spectral trace at the determinant point.

    The interior piece is the angular average of c_{-2} at lambda = 0
    (identically zero for the disk data); the boundary piece is
    sum_{xi=+-1} int_0^infty tr(Aslash dtilde_{-1}(t, t; xi; 0)) dt / (2 pi)
    with Aslash on the boundary, one quadrature per xi.  The determinant
    is finite, so this contraction must vanish; the achieved values are
    reported.
    ``lam_limit`` regularizes the xi = -1 evaluation, where the closed
    form is a 0/0 limit.
    """
    rep = make_rep_2d()
    theta0 = 0.0
    interior_norms = []
    for frac in radii:
        a_th = p.gauge.a_theta(frac * p.R)
        acc = 2 * np.pi * circle_mean(
            lambda phi: c_minus2(rep, a_th, np.cos(phi), np.sin(phi), 0.0,
                                 p.alpha, theta=theta0), n_ang)
        interior_norms.append(float(np.max(np.abs(acc))))

    _, g_theta = polar_gammas(theta0)
    a_slash = p.gauge.a_theta(p.R) * g_theta
    contraction = 0.0
    for xi in (1.0, -1.0):
        contraction += integrate_adaptive(
            lambda t, xi=xi: np.trace(a_slash @ d_tilde_minus1(
                theta0, t, t, xi, lam_limit * 1j, p.w)),
            0.0, np.inf, tol=1e-10).value
    contraction /= 2.0 * np.pi
    return {
        "interior_angular_norms": interior_norms,
        "interior_max_norm": max(interior_norms),
        "boundary_contraction_abs": abs(contraction),
        "passed": bool(max(interior_norms) < 1e-10
                       and abs(contraction) < 1e-8),
    }


def singularity_cancellation_check(p: DiskProblem, radii=(0.3, 0.5, 0.7),
                                   delta0: float = 1e-2, levels: int = 3) -> dict:
    """Pole coefficient of tr(A_theta gamma_theta G_B) at merging angles.

    Richardson-extrapolates delta * tr(...) and compares with the interior
    counterterm coefficient A_theta/(pi i r); their equality is what makes
    the first two contributions to dW/dalpha cancel.
    """
    theta0 = 0.7
    _, g_theta = polar_gammas(theta0)
    entries = []
    worst = 0.0
    for frac in radii:
        r = frac * p.R
        a_th = p.gauge.a_theta(r)
        if a_th == 0.0:
            continue
        seq = []
        d = delta0
        for _ in range(levels + 1):
            g = disk_green(p, PlanePoint(r, theta0),
                           PlanePoint(r, theta0 - d))
            seq.append(d * np.trace(a_th * g_theta @ g))
            d *= 0.5
        for _ in range(levels):
            seq = [2.0 * seq[i + 1] - seq[i] for i in range(len(seq) - 1)]
        target = a_th / (1j * np.pi * r)
        rel = abs(seq[0] - target) / abs(target)
        entries.append({"r": r, "coefficient": complex(seq[0]),
                        "target": complex(target), "rel_err": float(rel)})
        worst = max(worst, float(rel))
    return {"entries": entries, "max_rel_err": worst}
