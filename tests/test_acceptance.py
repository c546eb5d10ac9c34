"""Acceptance gate: every criterion at its stated tolerance, one printed
pass/fail line per criterion (run with ``pytest -s`` to see them inline).
"""

import time

import numpy as np
import pytest

from bagdet.calderon import (chiral_boundary_condition,
                             chiral_obstruction_witness, disk_q_lambda,
                             numerical_rank, q_chiral, q_lambda_contour,
                             q_principal)
from bagdet.clifford import make_rep_2d, make_rep_4d_boundary
from bagdet.determinant import (boundary_contour_oracle, boundary_term,
                                bulk_c2_term, bulk_log_term, ln_det_ratio)
from bagdet.errors import BagdetError
from bagdet.greens import (DiskProblem, PlanePoint, boundary_residual,
                           diagonal_singularity_coefficient, pde_residual,
                           random_boundary_samples, zero_mode_scan)
from bagdet.profiles import gaussian, poly2, polynomial
from bagdet.seeley import (d_tilde_minus1, d_tilde_minus1_contour, k_nu,
                           k_nu_bessel)

EULER_GAMMA = 0.5772156649015329


def _report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:>2} {name:<38} {status}  {detail}")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def test_criterion_1_final_formula():
    t0 = time.perf_counter()
    p = DiskProblem(R=1.0, w=1.0, alpha=1.0, gauge=poly2(1.0, 1.0))
    res = ln_det_ratio(p)
    elapsed = time.perf_counter() - t0
    ok = (abs(res.total - (-1.0)) < 1e-9
          and abs(res.bulk_term - (-1.0)) < 1e-9
          and abs(res.boundary_term) < 1e-12
          and res.diagnostics["alpha_quadrature_residual"] < 1e-8
          and elapsed < 5.0)
    _report(1, "final formula (phi0=1, R=1, w=1)", ok,
            f"total={res.total:.3e} alpha_res="
            f"{res.diagnostics['alpha_quadrature_residual']:.1e} "
            f"t={elapsed:.2f}s")


def test_criterion_2_boundary_law():
    t0 = time.perf_counter()
    worst = 0.0
    for w in (0.25, 0.5, 1.0, 2.0, np.e, 4.0):
        for phi_flux in (-4 * np.pi, 0.0, 4 * np.pi):
            target = boundary_term(w, phi_flux)
            oracle = boundary_contour_oracle(w, phi_flux, route="contour")
            if abs(target) < 1e-14:
                assert abs(oracle) < 1e-10, (w, phi_flux)
            else:
                worst = max(worst, abs(oracle - target) / abs(target))
    mit = max(abs(boundary_contour_oracle(1.0, 4 * np.pi)),
              abs(boundary_contour_oracle(-1.0, 4 * np.pi, route="real")),
              abs(boundary_term(1.0, 4 * np.pi)),
              abs(boundary_term(-1.0, 4 * np.pi)))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-6 and mit < 1e-10 and elapsed < 30.0
    _report(2, "boundary-term law over (w, flux) grid", ok,
            f"worst_rel={worst:.2e} mit={mit:.1e} t={elapsed:.1f}s")


def test_criterion_3_contour_bulk_equivalence():
    rng = np.random.default_rng(303)
    worst = 0.0
    for k in range(10):
        if k % 2 == 0:
            gauge = polynomial(rng.uniform(-1.0, 1.0, size=4), 1.0)
        else:
            gauge = gaussian(rng.uniform(0.3, 1.5), rng.uniform(0.5, 2.0), 1.0)
        alpha = rng.uniform(0.2, 1.0)
        closed = alpha * bulk_c2_term(gauge)
        contour = alpha * bulk_log_term(gauge)
        worst = max(worst, abs(contour - closed) / max(abs(closed), 1e-12))
    _report(3, "contour bulk route == closed bulk", worst < 1e-6,
            f"worst_rel={worst:.2e}")


def test_criterion_4_boundary_coefficient_transform():
    rng = np.random.default_rng(404)
    worst = 0.0
    checked = 0
    while checked < 100:
        theta = rng.uniform(0, 2 * np.pi)
        t, u = rng.uniform(0.05, 1.2, size=2)
        xi = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0)
        lam = complex(rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9))
        w = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
        if abs(w) < 0.2:
            continue
        try:
            closed = d_tilde_minus1(theta, t, u, xi, lam, w)
            oracle = d_tilde_minus1_contour(theta, t, u, xi, lam, w)
        except BagdetError:
            continue
        scale = max(float(np.max(np.abs(closed))), 1e-30)
        worst = max(worst, float(np.max(np.abs(closed - oracle))) / scale)
        checked += 1
    _report(4, "boundary coefficient vs tau-contour", worst < 1e-8,
            f"worst_rel={worst:.2e} over {checked} samples")


def test_criterion_5_calderon_suite():
    rng = np.random.default_rng(505)
    worst_alg = 0.0
    for rep in (make_rep_2d(), make_rep_4d_boundary()):
        for _ in range(500):
            n = rng.normal(size=rep.nu)
            n /= np.linalg.norm(n)
            xi = rng.normal(size=rep.nu)
            xi -= np.dot(xi, n) * n
            if np.linalg.norm(xi) < 1e-6:
                continue
            q = q_principal(rep, n, xi)
            worst_alg = max(worst_alg, float(np.max(np.abs(q @ q - q))),
                            abs(np.trace(q) - rep.k / 2))
    worst_match = 0.0
    for _ in range(25):
        theta = rng.uniform(0, 2 * np.pi)
        xi = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.5)
        lam = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        if abs(xi * xi - lam * lam) < 0.1:
            continue
        diff = disk_q_lambda(theta, xi, lam) - \
            q_lambda_contour(theta, xi, lam)
        worst_match = max(worst_match, float(np.max(np.abs(diff))))
    heaviside_exact = True
    for theta in np.linspace(0, 2 * np.pi, 7):
        for xi, pattern in ((2.0, np.diag([1.0, 0.0])),
                            (-2.0, np.diag([0.0, 1.0]))):
            q0 = disk_q_lambda(theta, xi, 0.0)
            heaviside_exact &= bool(np.max(np.abs(q0 - pattern)) < 1e-14)
    ok = worst_alg < 1e-12 and worst_match < 1e-8 and heaviside_exact
    _report(5, "projector suite (rank, contour, lambda=0)", ok,
            f"alg={worst_alg:.1e} match={worst_match:.1e} "
            f"heaviside={heaviside_exact}")


def test_criterion_6_topological_obstruction():
    rng = np.random.default_rng(606)
    ok = True
    detail = ""
    for _ in range(20):
        b1, b2 = rng.uniform(-2.0, 2.0, size=2)
        if b1 * b1 + b2 * b2 < 0.05:
            continue
        bc = chiral_boundary_condition(b1, b2)
        xi = chiral_obstruction_witness(b1, b2)
        b = bc.b(0.0, xi)
        q = q_chiral(xi)
        row = b @ q
        rank = numerical_rank(row, scale=float(np.linalg.norm(b)))
        if np.max(np.abs(row)) >= 1e-12 or rank != 0:
            ok = False
            detail = f"witness failed at beta=({b1:.3f},{b2:.3f})"
            break
        for _ in range(5):
            other = rng.normal(size=3)
            other /= np.linalg.norm(other)
            if np.linalg.norm(other - xi) < 1e-3:
                continue
            row2 = b @ q_chiral(other)
            if numerical_rank(row2, scale=float(np.linalg.norm(b))) != 1:
                ok = False
                detail = f"generic direction lost rank at {other}"
                break
    _report(6, "chiral obstruction witness", ok, detail)


def test_criterion_7_green_function_residuals():
    p = DiskProblem(R=1.0, w=0.8 - 0.3j, alpha=0.9, gauge=poly2(0.8, 1.0))
    bres = boundary_residual(p, random_boundary_samples(p, 200, seed=7))
    rng = np.random.default_rng(707)
    worst_pde = 0.0
    for _ in range(8):
        x = PlanePoint(rng.uniform(0.15, 0.7), rng.uniform(0, 2 * np.pi))
        y = PlanePoint(rng.uniform(0.15, 0.7), rng.uniform(0, 2 * np.pi))
        if abs(x.X - y.X) < 0.25:
            continue
        worst_pde = max(worst_pde, pde_residual(p, x, y))
    _, _, sing_rel = diagonal_singularity_coefficient(p, 0.5, 0.8)
    ok = bres < 1e-10 and worst_pde < 1e-6 and sing_rel < 1e-4
    _report(7, "Green-function residuals", ok,
            f"boundary={bres:.1e} pde={worst_pde:.1e} sing={sing_rel:.1e}")


def test_criterion_8_zero_modes():
    rng = np.random.default_rng(808)
    ok = True
    for _ in range(5):
        w = complex(rng.uniform(0.3, 2.0), rng.uniform(-1.0, 1.0))
        alpha = rng.uniform(0.0, 1.0)
        gauge = polynomial(rng.uniform(-0.5, 0.5, size=3), 1.0)
        p = DiskProblem(R=1.0, w=w, alpha=alpha, gauge=gauge)
        report = zero_mode_scan(p, range(-10, 11))
        ok = ok and report.kernel_dimension == 0
    _report(8, "no normalizable zero modes", ok)


def test_criterion_9_boundary_constant():
    worst = max(abs(k_nu_bessel(nu) - k_nu(nu)) for nu in (2, 3, 4))
    k2_err = abs(k_nu(2) - (np.log(2.0) - EULER_GAMMA))
    ok = worst < 1e-6 and k2_err < 1e-10
    _report(9, "boundary-layer constant K_nu", ok,
            f"bessel_vs_closed_form={worst:.1e} K2={k2_err:.1e}")
