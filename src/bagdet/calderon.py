"""Principal symbols of the boundary projector, ellipticity rank checks,
spectral-parameter cones, and the four-dimensional chiral obstruction.

The projector symbol of a first-order elliptic operator D is

    q(x; xi) = 1/2 (Id + i xislash nslash / |xi|),

an idempotent of trace k/2.  A local boundary condition with symbol
b(x; xi) is elliptic when rank(b q) = rank(q) for all |xi| >= 1.  With a
spectral parameter the projector becomes a Riesz contour integral

    q(lambda)(x; xi) = (1/2 pi i) oint_Gamma (a1^{-1}(x,0;0,1;0)
                        a1(x,0;xi,0;lambda) - z)^{-1} dz

over a clockwise contour enclosing the eigenvalues with negative
imaginary part.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .clifford import GammaRep, slash, stack_2x2
from .errors import BranchError, ContourError, DomainError
from .quadrature import contour_closed
from .seeley import a1_matrix, decay_root

__all__ = [
    "BoundaryCondition",
    "EllipticityReport",
    "AgmonConeReport",
    "q_principal",
    "q_lambda_contour",
    "disk_q_lambda",
    "disk_boundary_condition",
    "q_chiral",
    "chiral_obstruction_witness",
    "chiral_boundary_condition",
    "check_ellipticity",
    "check_agmon_cone",
    "imaginary_axis_cone",
    "numerical_rank",
]

RANK_REL_TOL = 1e-9


@dataclass(frozen=True)
class BoundaryCondition:
    """Local boundary condition.

    ``b(x, xi)`` returns the r x k symbol matrix of a condition of rank r,
    or for stacked x and xi a stack of them (or one matrix for all); it
    must be homogeneous of degree zero in xi for |xi| >= 1 (for
    multiplication operators it simply ignores xi).
    """

    b: Callable[[object, object], np.ndarray]


def disk_boundary_condition(w: complex) -> BoundaryCondition:
    """Bag-like condition (1, w e^{-i theta}) on the disk boundary.

    ``w = 0`` is accepted here so the failing case can be fed to the
    checks; it does not define an elliptic problem.
    """
    w = complex(w)

    def b(theta, xi):
        entry = w * np.exp(-1j * np.asarray(theta))
        return np.stack([np.ones_like(entry), entry], axis=-1)[..., None, :]

    return BoundaryCondition(b=b)


def chiral_boundary_condition(beta1: complex, beta2: complex) -> BoundaryCondition:
    """Constant row (beta1, beta2) acting on the 2-component chiral block."""

    def b(x, xi):
        return np.array([[beta1, beta2]], dtype=complex)

    return BoundaryCondition(b=b)


def q_principal(rep: GammaRep, n, xi) -> np.ndarray:
    """Projector symbol 1/2 (Id + i xislash nslash / |xi|).

    Parameters
    ----------
    rep : GammaRep
    n : array_like
        Unit outward normal (length rep.nu), or a stack of shape
        ``(..., nu)``.
    xi : array_like
        Cotangent vector orthogonal to n, nonzero; a stack like ``n``.

    Stacks give shape ``(..., k, k)``.  The domain checks run on every
    row: one bad row raises DomainError for the whole batch.
    """
    n = np.asarray(n, dtype=float)
    xi = np.asarray(xi, dtype=float)
    norm_xi = np.linalg.norm(xi, axis=-1, keepdims=True)
    if np.any(norm_xi == 0.0):
        raise DomainError("xi must be nonzero")
    if np.any(np.abs(np.linalg.norm(n, axis=-1) - 1.0) > 1e-10):
        raise DomainError("n must be a unit vector")
    if np.any(np.abs(np.sum(n * xi, axis=-1, keepdims=True))
              > 1e-10 * norm_xi):
        raise DomainError("xi must be orthogonal to n")
    eye = np.eye(rep.k, dtype=complex)
    return 0.5 * (eye + 1j * slash(rep.gammas, xi / norm_xi)
                  @ slash(rep.gammas, n))


def _riesz_circle(eigs: np.ndarray):
    """Center and radius, per row of the ``S + (k,)`` eigenvalue stack, of
    a circle around the eigenvalues with Im < 0: their mean, 1.5 x their
    spread, kept inside the nearest other eigenvalue."""
    neg = eigs.imag < 0.0
    center = np.true_divide(np.where(neg, eigs, 0.0).sum(axis=-1),
                            neg.sum(axis=-1))
    dist = np.abs(eigs - center[..., None])
    spread = np.max(np.where(neg, dist, 0.0), axis=-1)
    gap = np.min(np.where(neg, np.inf, dist), axis=-1)
    excluded = ~neg.all(axis=-1)
    radius = 1.5 * spread
    radius = np.where(excluded & (radius == 0.0), 0.5 * gap, radius)
    radius = np.where(excluded & (radius >= gap), 0.5 * (spread + gap),
                      radius)
    radius = np.where(radius == 0.0, 0.5 * np.maximum(np.abs(center), 1.0),
                      radius)
    return center, radius


def _riesz_projector_contour(a_mat: np.ndarray, circle=None) -> np.ndarray:
    """Clockwise Riesz integral (1/2 pi i) oint (A - z)^{-1} dz around the
    eigenvalues of A with Im < 0, by the periodic trapezoid rule on 256
    nodes, for one ``(k, k)`` matrix or each of an ``S + (k, k)`` stack
    (one solve on ``(256,) + S + (k, k)``).  Raises ContourError if a row
    has no such eigenvalue or one lies within 1e-8 x radius of its circle."""
    eigs = np.linalg.eigvals(a_mat)
    if not np.any(eigs.imag < 0.0, axis=-1).all():
        raise ContourError("no eigenvalues with negative imaginary part")
    if circle is None:
        center, radius = _riesz_circle(eigs)
    else:
        center, radius = (np.broadcast_to(v, eigs.shape[:-1]) for v in circle)
    dists = np.abs(np.abs(eigs - center[..., None]) - radius[..., None])
    if np.any(np.min(dists, axis=-1) < 1e-8 * radius):
        raise ContourError(
            "eigenvalue within 1e-08 x radius of the contour; "
            "adjust the circle")
    eye = np.eye(a_mat.shape[-1], dtype=complex)

    def resolvent(z):
        return np.linalg.solve(a_mat - z[..., None, None] * eye, eye)

    return contour_closed(resolvent, center, radius, orientation=-1,
                          n=256) / (2j * np.pi)


def q_lambda_contour(x, xi, lam, circle=None) -> np.ndarray:
    """Spectral-parameter projector symbol of the disk Dirac operator by
    numerical contour quadrature.

    With a1 the degree-one symbol :func:`~bagdet.seeley.a1_matrix` at the
    boundary angle ``x``, the integrand matrix is
    ``a1(x;0,1;0)^{-1} a1(x;xi,0;lam)`` and the contour is a clockwise
    circle around its eigenvalues with negative imaginary part, integrated
    on 256 nodes.

    ``x``, ``xi`` and ``lam`` broadcast to a batch shape S, giving an
    ``S + (2, 2)`` stack whose row ``j`` equals the scalar call: one pair
    of ``a1`` evaluations, one ``inv``, one ``eigvals`` and one solve on
    ``(256,) + S + (2, 2)``.  Each row picks its own circle (an explicit
    ``circle = (center, radius)`` applies to every row), and one row with
    an eigenvalue on its circle raises ContourError for the whole batch.
    """
    normal = np.linalg.inv(a1_matrix(0.0, 1.0, 0.0, theta=x))
    a_mat = normal @ a1_matrix(xi, 0.0, lam, theta=x)
    return _riesz_projector_contour(a_mat, circle=circle)


def disk_q_lambda(theta, xi, lam) -> np.ndarray:
    """Closed-form projector symbol of the disk Dirac operator.

    Returns

        1/(2 s) [[xi + s, -i lam e^{-i theta}],
                 [-i lam e^{i theta}, -xi + s]],   s = sqrt(xi^2 - lam^2),

    with the principal branch (Re s > 0) of :func:`~bagdet.seeley.decay_root`.
    Idempotent wherever defined.  The arguments broadcast (arrays give
    ``(..., 2, 2)``), and one node on the branch cut (Re s = 0) raises
    BranchError.
    """
    s = np.asarray(decay_root(xi, lam))
    em = np.exp(-1j * theta)
    ep = np.exp(1j * theta)
    return stack_2x2(xi + s, -1j * lam * em, -1j * lam * ep,
                     -xi + s) / (2.0 * s)[..., None, None]


def q_chiral(xi) -> np.ndarray:
    """Chiral projector block 1/2 (Id + xi . sigma / |xi|) for xi in R^3,
    or a stack ``(..., 2, 2)`` for a stack ``(..., 3)`` of covectors."""
    xi = np.asarray(xi, dtype=float)
    norm = np.linalg.norm(xi, axis=-1, keepdims=True)
    if np.any(norm == 0.0):
        raise DomainError("xi must be nonzero")
    x1, x2, x3 = np.moveaxis(xi / norm, -1, 0)
    return 0.5 * stack_2x2(1.0 + x3, x1 - 1j * x2, x1 + 1j * x2, 1.0 - x3)


def chiral_obstruction_witness(beta1: complex, beta2: complex) -> np.ndarray:
    """Direction xi where the constant condition (beta1, beta2) fails.

    Returns the unit vector

        xi = ( -2 b1 b2 / (b1^2 + b2^2), 0, (b2^2 - b1^2) / (b1^2 + b2^2) ),

    at which (beta1, beta2) q_ch(xi) vanishes identically, exhibiting the
    topological obstruction to local conditions for the chiral block.
    """
    b1 = complex(beta1)
    b2 = complex(beta2)
    denom = b1 * b1 + b2 * b2
    if abs(denom) < 1e-14 * max(abs(b1), abs(b2), 1.0) ** 2:
        raise DomainError("beta1^2 + beta2^2 vanishes; witness undefined")
    xi = np.array([-2.0 * b1 * b2 / denom, 0.0, (b2 * b2 - b1 * b1) / denom])
    if np.max(np.abs(xi.imag)) > 1e-12:
        raise DomainError(
            "witness direction is not real for these parameters")
    return xi.real


def numerical_rank(m: np.ndarray, scale=None):
    """Rank by singular values against a threshold tied to a problem scale:
    the number of singular values above RANK_REL_TOL (1e-9) x scale.

    ``scale`` should be the product of the norms of the factors whose
    product ``m`` is (so that an analytically-zero product of O(1) factors
    reports rank 0).  Defaults to the largest singular value of ``m``.  A
    stack ``(..., r, k)``, with a stack of scales, gives an array of ranks.
    """
    return _rank_above(np.linalg.svd(np.atleast_2d(m), compute_uv=False),
                       scale)


def _rank_above(svals: np.ndarray, scale=None):
    ref = np.asarray(svals.max(axis=-1, initial=0.0) if scale is None
                     else scale, dtype=float)[..., None]
    rank = np.count_nonzero((svals > RANK_REL_TOL * ref) & (ref != 0.0),
                            axis=-1)
    return int(rank) if rank.ndim == 0 else rank


def _rank_test(b: np.ndarray, q: np.ndarray):
    """(rank(b q) against |b| |q|, rank(q)) over stacks of b and q, with
    one SVD each of the b, q and b q stacks."""
    sv_q = np.linalg.svd(q, compute_uv=False)
    scale = np.linalg.svd(b, compute_uv=False)[..., 0] * sv_q[..., 0]
    return numerical_rank(b @ q, scale=scale), _rank_above(sv_q)


@dataclass
class EllipticityReport:
    """Per-sample rank comparison rank(b q) vs rank(q)."""

    rank_rel_tol: float
    entries: list = field(default_factory=list)
    passed: bool = True


def check_ellipticity(bc: BoundaryCondition, q_fn,
                      samples: Sequence) -> EllipticityReport:
    """Rank test rank(b(x;xi) q(x;xi)) = rank(q(x;xi)) over samples.

    Samples are (x, xi) pairs with |xi| >= 1; ``q_fn(x, xi)``, the
    projector symbol, and ``bc.b`` are called once on all of them stacked
    along axis 0.  Ranks use the scale of the factors, so an
    exactly-degenerate product reports a reduced rank; the report records
    the relative threshold RANK_REL_TOL.
    """
    if len(samples) == 0:
        raise ValueError("empty sample set")
    xs, xis = (np.array(v) for v in zip(*samples))
    q = np.asarray(q_fn(xs, xis), dtype=complex)
    b = np.asarray(bc.b(xs, xis), dtype=complex)
    ranks_bq, ranks_q = _rank_test(b, q)
    entries = [{
        "x": x if np.isscalar(x) else np.asarray(x).tolist(),
        "xi": xi if np.isscalar(xi) else np.asarray(xi).tolist(),
        "rank_bq": int(rank_bq),
        "rank_q": int(rank_q),
        "ok": bool(rank_bq == rank_q),
    } for (x, xi), rank_bq, rank_q in zip(samples, ranks_bq, ranks_q)]
    return EllipticityReport(rank_rel_tol=RANK_REL_TOL, entries=entries,
                             passed=all(e["ok"] for e in entries))


def imaginary_axis_cone():
    """Two sectors of half-width 0.35 around the +i and -i directions."""
    return [(np.pi / 2, 0.35), (-np.pi / 2, 0.35)]


def _angle_in_sector(angle: float, center: float, half_width: float) -> bool:
    d = (angle - center + np.pi) % (2 * np.pi) - np.pi
    return abs(d) <= half_width


def _in_cone(lam: complex, sectors) -> bool:
    if lam == 0:
        return False
    ang = np.angle(lam)
    return any(_angle_in_sector(ang, c, h) for c, h in sectors)


@dataclass
class AgmonConeReport:
    """Sampled verification of the two cone conditions."""

    sectors: list
    condition1_passed: bool
    condition2_passed: bool
    eigenvalue_witnesses: list
    rank_witnesses: list
    lambda_grid: list
    xi_grid: list

    @property
    def passed(self) -> bool:
        return self.condition1_passed and self.condition2_passed


def check_agmon_cone(bc: BoundaryCondition, sectors) -> AgmonConeReport:
    """Sampled check of a spectral cone for the disk problem.

    Condition 1: no eigenvalue of the interior principal symbol (which are
    +-|xi|, real) lies in the cone, for 32 seeded covectors.  Condition 2:
    rank(b q(lambda)) equals rank(q(lambda)) for sampled lambda in the
    cone (the lambda = 0 face, and |lambda| = 0.5, 1, 2, 5 on 9 rays per
    sector) and tangential xi = +-1, +-2.  A sampled check, not a proof;
    the grids are recorded in the report.  The principal symbol family of
    the disk operator does not depend on the problem data, only the
    condition ``bc`` does.
    """
    xi_bars = np.random.default_rng(7).normal(size=(32, 2))
    norms = np.linalg.norm(xi_bars, axis=-1)
    # the eigenvalues of the interior symbol at xi_bar are +-|xi_bar|
    eig_witnesses = [{"xi_bar": xi_bar.tolist(), "eigenvalue": ev}
                     for xi_bar, norm in zip(xi_bars, norms) if norm >= 1e-12
                     for ev in (norm, -norm) if _in_cone(ev, sectors)]

    rank_witnesses = []
    lam_grid = [0.0]
    for center, half in sectors:
        for ang in np.linspace(center - half, center + half, 9):
            for rho in (0.5, 1.0, 2.0, 5.0):
                lam_grid.append(rho * np.exp(1j * ang))
    theta0 = 0.3
    xi_grid = (1.0, -1.0, 2.0, -2.0)
    for lam in lam_grid:
        for xi in xi_grid:
            try:
                q = disk_q_lambda(theta0, xi, lam)
            except BranchError:
                continue
            rank_bq, rank_q = _rank_test(
                np.asarray(bc.b(theta0, xi), dtype=complex), q)
            if rank_bq != rank_q:
                rank_witnesses.append({
                    "lambda": complex(lam), "xi": xi,
                    "rank_bq": rank_bq, "rank_q": rank_q})
    return AgmonConeReport(
        sectors=[list(s) for s in sectors],
        condition1_passed=not eig_witnesses,
        condition2_passed=not rank_witnesses,
        eigenvalue_witnesses=eig_witnesses,
        rank_witnesses=rank_witnesses,
        lambda_grid=[complex(v) for v in lam_grid],
        xi_grid=list(xi_grid),
    )
