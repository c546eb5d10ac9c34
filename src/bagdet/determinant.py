"""Assembly of the log-determinant ratio for the disk problem.

Three contributions survive in the variation of the log-determinant with
respect to the coupling: two bulk terms, each equal to
``-(alpha/2 pi) int A.A d^2x``, and a boundary term
``-(Phi/4 pi) ln w^2`` that depends only on the total flux and the bag
parameter.  Integrating the coupling from 0 to 1,

    ln Det(D)_B - ln Det(D_free)_B
        = -(1/2 pi) int_disk A.A d^2x - (1/4 pi) ln w^2 oint A . dx.

Every closed form here is shadowed by an independent numerical route:
radial quadrature for the profile's closed form of int A.A, a
Bessel-kernel limit for the first bulk term, a spectral-plane contour
integral for the second, and both a contour and a real-axis quadrature
for the boundary term.

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

from .clifford import polar_gammas
from .errors import (AccuracyError, BranchError, ContourError, DomainError,
                     NonFiniteError, every, require)
from .greens import DiskProblem
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
    "a_squared_quadrature",
    "bulk_c2_term",
    "bulk_c2_bessel_oracle",
    "bulk_log_term",
    "boundary_term",
    "boundary_contour_oracle",
    "ln_det_ratio",
    "residue_check",
]

CSV_FIELDS = ("bulk", "boundary_re", "boundary_im", "total_re", "total_im",
              "flux")


@dataclass(frozen=True)
class ContourSpec:
    """Spectral-plane contour: two vertical rays at Re = +-eps joined by a
    clockwise circular detour of radius hypot(eps, mu0) around the origin.

    The rays run from height mu0 up to lambda_max; ray quadrature uses
    24-point Gauss-Legendre panels on segments that double in length, the
    detour a single 96-point Gauss-Legendre rule in the angle (both node
    counts double at refinement 2).  The path must keep clear of the
    branch points lambda = +-1 and of any poles +-i/u of the boundary
    integrand.
    """

    eps: float = 0.1
    mu0: float = 0.2
    lambda_max: float = 1e8

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
    n_seg = 24 * refine
    n_arc = 96 * refine
    breaks = [spec.mu0]
    while breaks[-1] < spec.lambda_max:
        breaks.append(min(breaks[-1] * 2.0, spec.lambda_max))
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


def flux(gauge: GaugeField):
    """Total boundary flux Phi = oint A_theta R dtheta = -2 pi R phi'(R); an
    array of the batch shape of phi'(R) for a batch of profiles."""
    value = -2.0 * np.pi * gauge.R * gauge.dphi(gauge.R)
    return float(value) if np.ndim(value) == 0 else value


def a_squared_integral(gauge: GaugeField) -> QuadratureResult:
    """int_disk A.A d^2x = 2 pi int_0^R A_theta(r)^2 r dr.

    The profile's closed form ``gauge.a_squared``, with error estimate 0;
    a profile without one goes to :func:`a_squared_quadrature`.
    """
    value = gauge.a_squared
    if value is None:
        return a_squared_quadrature(gauge)
    value = value if np.ndim(value) else float(value)
    return QuadratureResult(value=value, abs_error_estimate=0.0 * value,
                            nodes_used=0)


def a_squared_quadrature(gauge: GaugeField) -> QuadratureResult:
    """int_disk A.A d^2x of one profile by quadrature, the oracle of the
    closed forms.

    The radial integrand is smooth and non-negative on [0, R] for every
    profile and goes to the double-exponential
    :func:`~bagdet.quadrature.integrate_adaptive` at relative tolerance
    1e-11, whose tanh-sinh nodes crowd towards r = 0, where a narrow
    Gaussian peaks; the error estimate is 2 pi times the rule's last
    level-to-level difference.

    Raises DomainError if A_theta^2 or the integral overflows or is not
    finite.
    """
    try:
        with np.errstate(over="raise"):
            res = integrate_adaptive(lambda r: gauge.a_theta(r) ** 2 * r,
                                     0.0, gauge.R, tol=1e-11)
            value = 2.0 * np.pi * res.value.real
    except (OverflowError, FloatingPointError, NonFiniteError) as exc:
        raise DomainError(
            f"int A.A d^2x overflows or is not finite: {exc}") from exc
    return QuadratureResult(value=float(value),
                            abs_error_estimate=2.0 * np.pi * res.abs_error_estimate,
                            nodes_used=res.nodes_used)


def bulk_c2_term(gauge: GaugeField) -> float:
    """First bulk contribution at unit coupling, -(1/2 pi) int A.A d^2x,
    with the integral from :func:`a_squared_integral`."""
    return float(-1.0 / (2.0 * np.pi) * a_squared_integral(gauge).value.real)


def bulk_c2_bessel_oracle(gauge: GaugeField) -> float:
    """Bulk term at unit coupling through the point-split Bessel kernel.

    Evaluates -(1/pi) int A.A d^2x * int_split^inf J_2(u)/u du at the
    two split values 1e-3 and 5e-4 and Richardson-extrapolates the
    O(split^2) cutoff error away.  Must converge to :func:`bulk_c2_term`.
    """
    split = 1e-3
    b1 = j2_over_u_integral(split).value.real
    b2 = j2_over_u_integral(0.5 * split).value.real
    bessel_part = (4.0 * b2 - b1) / 3.0
    asq = a_squared_integral(gauge).value.real
    return float(-1.0 / np.pi * asq * bessel_part)


def _angular_average_factor(lam: np.ndarray, n_ang: int) -> np.ndarray:
    """int_{|(xi,tau)|=1} (1 - lambda^2 - 2 xi^2) dsigma, with the mean of
    xi^2 = cos^2 phi taken by the trapezoid rule on n_ang angles (the
    integrand separates, so one mean serves every lambda)."""
    return 2 * np.pi * ((1.0 - lam ** 2)
                        - 2.0 * circle_mean(lambda phi: np.cos(phi) ** 2, n_ang))


def bulk_log_term(gauge: GaugeField, spec: ContourSpec | None = None,
                  n_ang: int = 64) -> float:
    """Second bulk contribution at unit coupling, by contour quadrature.

    Evaluates

        -(i / 4 pi^3) int A.A d^2x
            oint log(lambda)/(lambda (lambda^2-1)^2)
                 int_{S^1} (1 - lambda^2 - 2 xi^2) dsigma  d lambda

    with the angular integral done numerically on the unit covector
    circle.  Equals :func:`bulk_c2_term` (the two bulk routes agree).
    Raises AccuracyError if the imaginary part of the result exceeds
    1e-7 max(1, |real part|).
    """
    if spec is None:
        spec = ContourSpec()
    spec.check_clearance([1.0, -1.0])

    def g(lam: np.ndarray) -> np.ndarray:
        return _angular_average_factor(lam, n_ang) / \
            (lam * (lam ** 2 - 1.0) ** 2)

    contour = gamma_log_contour(g, spec)
    asq = a_squared_integral(gauge).value.real
    value = -1j / (4.0 * np.pi ** 3) * asq * contour.value
    if abs(value.imag) > 1e-7 * max(1.0, abs(value.real)):
        raise AccuracyError(
            f"bulk contour term has spurious imaginary part {value.imag:g}",
            estimate=value)
    return float(value.real)


def boundary_term(w, flux_value):
    """Closed-form boundary contribution -(Phi / 4 pi) ln w^2.

    ln w^2 depends on the value of w^2 only: on the negative real axis
    (imaginary w) it is the principal branch, Im = +pi, for either sign
    of the zero imaginary part of w*w.  w*w is subnormal below
    |w| ~ 1.5e-154 and overflows above ~1.3e154; outside [1e-150, 1e150]
    w is first scaled by a power of two to v = w 2^-e with |v| in
    [1/2, 1), and ln w^2 = ln v^2 + 2 e ln 2, since v^2 = w^2 / 4^e
    exactly.  ``w`` and ``flux_value`` may be arrays that broadcast
    together; the rule and the cut hold on every row, and the scalar
    result is a complex.
    """
    # a NumPy scalar for one w, whose arithmetic skips the array machinery
    w = np.asarray(w, dtype=complex)[()]
    size = np.abs(w)
    # one batch-wide test keeps the rescale off the common path
    rescale = not every((size >= 1e-150) & (size <= 1e150))
    if rescale:
        require(size != 0, "w = 0 does not define an elliptic problem")
        e = np.frexp(size)[1] * ((size < 1e-150) | (size > 1e150))
        v_re, v_im = np.ldexp(w.real, -e), np.ldexp(w.imag, -e)
    else:
        v_re, v_im = w.real, w.imag
    w2 = _complex_product(v_re, v_im, v_re, v_im)
    w2.imag[(w2.imag == 0.0) & (w2.real < 0.0)] = 0.0
    log_w2 = np.log(w2)
    if rescale:
        log_w2 = np.where(e == 0, log_w2, log_w2 + 2 * e * math.log(2.0))
    return _complex_product(-flux_value / (4.0 * np.pi), 0.0,
                            log_w2.real, log_w2.imag)[()]


def _complex_product(a_re, a_im, b_re, b_im) -> np.ndarray:
    """(a_re + i a_im)(b_re + i b_im), formed as Python's complex product
    forms it, each real product rounded on its own; the parts broadcast
    together, and one of them is a NumPy scalar or array.

    NumPy's loop for complex arrays fuses a product into the sum (FMA)
    where the CPU has it, and its scalar arithmetic does not, so a batch
    row and a scalar call would differ in the sign of a part whose
    product underflows to zero.
    """
    re = a_re * b_re - a_im * b_im
    out = np.empty(re.shape, dtype=complex)
    out.real = re
    out.imag = a_re * b_im + a_im * b_re
    return out


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
                            route: str = "contour") -> complex:
    """Boundary contribution by independent quadrature.

    route="contour" evaluates

        (i Phi / 4 pi^2) oint log(lambda)
            u [lambda sqrt(1+u^2) - i sqrt(1-lambda^2)]
            / [(1 + u^2 lambda^2) sqrt(1-lambda^2)] d lambda

    over the spectral path, u = (1 - w^2)/2w.  route="real" evaluates the
    reduced half-line form

        -(Phi / 2 pi) u int_0^inf [mu s/sqrt(1+mu^2) - 1] / (1 - u^2 mu^2) dmu
      = (Phi / 2 pi) u int_0^inf dmu / [sqrt(1+mu^2) (mu s + sqrt(1+mu^2))],

    s = sqrt(1+u^2) = (1 + w^2)/2w; the second form follows from
    s^2 - u^2 = 1 and has neither the cancellation nor the removable pole
    at mu = 1/|u| of the first.  Its integrand changes scale at
    mu = 1/|s| and mu = 1 and can fall like 1/mu between them, so the
    range is split there, mu is scaled by the smaller split point below
    it and taken logarithmic between the two, and the double-exponential
    :func:`~bagdet.quadrature.integrate_adaptive` runs to tolerance 1e-9
    in one call.  This keeps the route at round-off however large |u|
    is (checked from |w| = 1e-160 to 1e150).  The contour route uses
    ``ContourSpec.auto(1/|u|)``.  Both must match -(Phi/4 pi) ln w^2.
    """
    w = complex(w)
    if w == 0:
        raise DomainError("w = 0 does not define an elliptic problem")
    u = _u_parameter(w)
    if abs(u) < 1e-14 or flux_value == 0.0:
        return 0.0 + 0.0j
    s = _sheet_root(w)

    if route == "real":
        # mu = lo x on [0, 1], lo e^(x-1) on [1, 1 + span] and hi (x - span)
        # beyond: each piece has scale 1 in x, and the log piece turns the
        # 1/mu stretch between 1/|s| and 1 into a plateau; jac is
        # (d mu / dx) / lo, which keeps the integrand O(1)
        lo, hi = sorted((1.0 / abs(s), 1.0))
        span = math.log(hi / lo)

        def integrand(x: np.ndarray) -> np.ndarray:
            jac = np.exp(np.clip(x, 1.0, 1.0 + span) - 1.0)
            mu = np.where(x < 1.0, lo * x,
                          np.where(x < 1.0 + span, lo * jac, hi * (x - span)))
            root = np.sqrt(1.0 + mu * mu)
            return -jac / (root * (mu * s + root))

        total = integrate_adaptive(integrand, 0.0, np.inf, tol=1e-9,
                                   points=sorted({1.0, 1.0 + span})).value
        return complex(-flux_value / (2.0 * np.pi) * u * lo * total)

    if route == "contour":
        if w.imag != 0.0 or w.real <= 0.0:
            raise BranchError(
                "contour route supports real w > 0; use route='real'")
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


@dataclass
class DeterminantResult:
    """Final determinant ratio with its oracle residuals.

    ``total = bulk_term + boundary_term`` always holds; the boundary term
    vanishes for zero flux and for w = +-1.  For a batch of problems the
    values are arrays, each of the batch shape of its term.
    """

    bulk_term: float
    boundary_term: complex
    total: complex
    flux: float
    diagnostics: dict = field(default_factory=dict)

    def values(self) -> list:
        """The result values named by CSV_FIELDS, in that order."""
        return [self.bulk_term, self.boundary_term.real,
                self.boundary_term.imag, self.total.real, self.total.imag,
                self.flux]

    def to_json_dict(self) -> dict:
        out = dict(zip(CSV_FIELDS, self.values()))
        out["oracle_residuals"] = dict(sorted(self.diagnostics.items()))
        return out

    def csv_header(self) -> list:
        return list(CSV_FIELDS) + [f"oracle_residuals.{k}"
                                   for k in sorted(self.diagnostics)]

    def csv_row(self) -> list:
        return self.values() + [self.diagnostics[k]
                                for k in sorted(self.diagnostics)]


def ln_det_ratio(p: DiskProblem, run_oracles: bool = True) -> DeterminantResult:
    """ln Det(coupled) - ln Det(free) under the bag condition.

    The coupling is integrated analytically over [0, 1]: the bulk terms
    carry a factor alpha (integrating to 1/2) and the boundary term is
    constant, giving

        total = -(1/2 pi) int A.A d^2x - (Phi/4 pi) ln w^2.

    With ``run_oracles`` the quadrature of int A.A
    (:func:`a_squared_quadrature`), a 16-point Gauss-Legendre quadrature
    of dW/dalpha over the coupling, the second-bulk contour route on the
    default :class:`ContourSpec`, the Bessel-kernel route and (for
    admissible w) the boundary quadrature are all evaluated and their
    residuals reported in ``diagnostics``.  ``a_squared_abs_err`` is then
    |closed form - quadrature| + the quadrature's error estimate, and
    without the oracles the estimate of :func:`a_squared_integral`.

    Without the oracles ``p`` may be a batch of problems (see
    :class:`~bagdet.greens.DiskProblem`): every value of the result, and
    ``a_squared_abs_err``, is then an array of the batch shape of the
    term it belongs to, so a batch over w alone computes int A.A and the
    flux once.  A scalar problem is the one-row case of the same code.
    """
    asq = a_squared_integral(p.gauge)
    phi_flux = flux(p.gauge)
    bulk = -asq.value / (2.0 * np.pi)
    bnd = boundary_term(p.w, phi_flux)
    total = bulk + bnd
    diag = {"a_squared_abs_err": asq.abs_error_estimate}
    if np.ndim(total) == 0:
        total = complex(total)
    elif run_oracles:
        raise ValueError("the oracles need a scalar problem")
    if run_oracles:
        quad = a_squared_quadrature(p.gauge)
        diag["a_squared_abs_err"] = (abs(asq.value - quad.value)
                                     + quad.abs_error_estimate)
        c2_unit = bulk_c2_term(p.gauge)
        log_unit = bulk_log_term(p.gauge)
        ref = max(abs(c2_unit), 1e-14)
        diag["w4_vs_w3_rel"] = abs(log_unit - c2_unit) / ref
        diag["bulk_bessel_rel"] = abs(
            bulk_c2_bessel_oracle(p.gauge) - c2_unit) / ref
        gl = integrate_gauss_legendre(
            lambda a: a * (c2_unit + log_unit) + bnd, 0.0, 1.0, n=16)
        diag["alpha_quadrature_residual"] = abs(gl - total)
        try:
            oracle = boundary_contour_oracle(p.w, phi_flux, route="real")
            diag["boundary_oracle_rel"] = abs(oracle - bnd) / max(abs(bnd), 1e-12)
        except BranchError:
            pass
    return DeterminantResult(bulk_term=bulk, boundary_term=bnd, total=total,
                             flux=phi_flux, diagnostics=diag)


def residue_check(p: DiskProblem) -> dict:
    """Residue integrals of the spectral trace at the determinant point.

    The interior piece is the angular average of c_{-2} at lambda = 0
    over 256 angles at the radii 0.3 R, 0.6 R and 0.9 R (identically zero
    for the disk data), one c_{-2} call on the grid; the boundary piece is
    sum_{xi=+-1} int_0^infty tr(Aslash dtilde_{-1}(t, t; xi; 0)) dt / (2 pi)
    with Aslash on the boundary.  The determinant is finite, so this
    contraction must vanish; the achieved values are reported.
    At xi = -1 the closed form is a 0/0 limit, so the contraction c is
    taken at lambda = h, h/2 and h/4, h = 1e-8 i, and the Richardson value
    (c(h) - 6 c(h/2) + 8 c(h/4)) / 3 removes the regulator's bias, which
    is linear in lambda and grows like |w| and 1/|w|, to order lambda^2.
    The xi = -1 form is exact only while sqrt(1 - lambda^2) rounds to 1,
    so h is no larger.  One double-exponential rule at relative tolerance
    1e-6 takes the six values as one vector integrand, one dtilde_{-1}
    call per level; its accepted level is good far beyond that tolerance.
    """
    theta0 = 0.0
    a_th = p.gauge.a_theta(np.array([0.3, 0.6, 0.9]) * p.R)
    acc = 2 * np.pi * circle_mean(
        lambda phi: c_minus2(a_th, np.cos(phi)[:, None], np.sin(phi)[:, None],
                             0.0, p.alpha, theta=theta0), 256)
    interior_norms = np.max(np.abs(acc), axis=(-2, -1)).tolist()

    _, g_theta = polar_gammas(theta0)
    a_slash = p.gauge.a_theta(p.R) * g_theta
    xi = np.tile([1.0, -1.0], 3)
    lam = np.repeat([1e-8j, 5e-9j, 2.5e-9j], 2)
    c = integrate_adaptive(
        lambda t: np.trace(a_slash @ d_tilde_minus1(
            theta0, t[:, None], t[:, None], xi, lam, p.w), axis1=-2, axis2=-1),
        0.0, np.inf, tol=1e-6).value.reshape(3, 2).sum(axis=1)
    contraction = float(abs(c[0] - 6.0 * c[1] + 8.0 * c[2])) / (6.0 * np.pi)
    return {
        "interior_angular_norms": interior_norms,
        "interior_max_norm": max(interior_norms),
        "boundary_contraction_abs": contraction,
        "passed": bool(max(interior_norms) < 1e-10 and contraction < 1e-8),
    }
