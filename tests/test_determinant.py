import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bagdet import determinant
from bagdet.clifford import polar_gammas
from bagdet.determinant import (ContourSpec, a_squared_integral,
                                boundary_contour_oracle,
                                boundary_term, bulk_c2_bessel_oracle,
                                bulk_c2_term, bulk_log_term, flux,
                                gamma_log_contour, ln_det_ratio, log_branch,
                                residue_check)
from bagdet.errors import BranchError, ContourError, DomainError
from bagdet.greens import DiskProblem, diagonal_singularity_coefficient
from bagdet.profiles import gaussian, make_profile, poly2, polynomial
from bagdet.quadrature import integrate_adaptive, integrate_gauss_legendre
from bagdet.seeley import d_tilde_minus1
from conftest import PROPERTY


def standard_problem(w=1.0, alpha=1.0, phi0=1.0, R=1.0):
    return DiskProblem(R=R, w=w, alpha=alpha, gauge=poly2(phi0, R))


def test_flux_poly2():
    # phi'(R) = -2 phi0 / R so the flux is 4 pi phi0
    for phi0 in (1.0, -0.7, 2.3):
        assert abs(flux(poly2(phi0, 1.0)) - 4 * np.pi * phi0) < 1e-12


def test_flux_pure_gauge():
    const = polynomial([3.7], 1.0)
    assert flux(const) == 0.0


def test_flux_matches_circulation_quadrature():
    # oint A_theta R dtheta with A_theta = -phi'(R), by angular quadrature
    gauge = gaussian(1.2, 0.8, 1.0)
    a_bound = gauge.a_theta(gauge.R)
    circ = integrate_adaptive(lambda th: np.full_like(th, a_bound * gauge.R),
                              0.0, 2 * np.pi).value.real
    assert abs(flux(gauge) - circ) < 1e-10


def test_bulk_c2_poly2_closed_form():
    # A_theta = 2 phi0 r / R^2; radial quadrature of A^2 gives 2 pi phi0^2
    phi0, alpha = 1.3, 0.71
    gauge = poly2(phi0, 1.0)
    asq = a_squared_integral(gauge).value.real
    assert abs(asq - 2 * np.pi * phi0 ** 2) < 1e-10
    assert abs(alpha * bulk_c2_term(gauge) - (-alpha * phi0 ** 2)) < 1e-10


def test_bulk_c2_trivial_cases():
    assert bulk_c2_term(polynomial([1.0], 1.0)) == 0.0


def test_bessel_oracle_matches_closed_bulk():
    gauge = poly2(1.0, 1.0)
    closed = bulk_c2_term(gauge)
    oracle = bulk_c2_bessel_oracle(gauge)
    assert abs(oracle - closed) < 1e-8 * abs(closed)


def test_bessel_oracle_unextrapolated_split():
    # at split 1e-3 the raw kernel integral is already within 1e-4
    from bagdet.quadrature import j2_over_u_integral
    raw = j2_over_u_integral(1e-3).value.real
    assert abs(raw - 0.5) < 1e-4 * 0.5


def test_bessel_oracle_zero_gauge():
    assert bulk_c2_bessel_oracle(polynomial([0.0], 1.0)) == 0.0


def test_bulk_log_equals_bulk_c2():
    rng = np.random.default_rng(61)
    for _ in range(4):
        coeffs = rng.uniform(-1.0, 1.0, size=4)
        gauge = polynomial(coeffs, 1.0)
        alpha = rng.uniform(0.2, 1.0)
        c2 = alpha * bulk_c2_term(gauge)
        logt = alpha * bulk_log_term(gauge)
        assert abs(logt - c2) <= 1e-6 * max(abs(c2), 1e-12)


def test_bulk_log_zero_gauge():
    assert bulk_log_term(polynomial([0.0], 1.0)) == 0.0


def test_boundary_term_closed_form():
    assert boundary_term(1.0, 4 * np.pi) == 0.0
    assert boundary_term(-1.0, 4 * np.pi) == 0.0
    assert boundary_term(2.0, 0.0) == 0.0
    assert abs(boundary_term(np.e, 4 * np.pi) - (-2.0)) < 1e-14
    with pytest.raises(DomainError):
        boundary_term(0.0, 4 * np.pi)


def test_boundary_oracle_routes():
    for w in (0.3, 0.8, 1.7):
        target = boundary_term(w, 4 * np.pi)
        for route in ("contour", "real"):
            val = boundary_contour_oracle(w, 4 * np.pi, route=route)
            assert abs(val - target) < 1e-6 * abs(target), (w, route)


def test_boundary_oracle_dense_real_grid():
    for w in (0.1, 0.35, 0.7, 1.0, 1.5, 2.2, 3.0):
        for phi_flux in (-4 * np.pi, 0.0, 4 * np.pi):
            target = boundary_term(w, phi_flux)
            val = boundary_contour_oracle(w, phi_flux, route="real")
            if abs(target) < 1e-14:
                assert abs(val) < 1e-12
            else:
                assert abs(val - target) < 1e-6 * abs(target), (w, phi_flux)


def test_boundary_oracle_trivial_u():
    assert boundary_contour_oracle(1.0, 4 * np.pi) == 0.0
    assert boundary_contour_oracle(-1.0, 4 * np.pi, route="real") == 0.0
    assert boundary_contour_oracle(0.7, 0.0) == 0.0


def test_boundary_oracle_complex_w_real_route():
    w = 0.9 + 0.4j
    target = boundary_term(w, 4 * np.pi)
    val = boundary_contour_oracle(w, 4 * np.pi, route="real")
    assert abs(val - target) < 1e-6 * abs(target)


@pytest.mark.parametrize("w", [1e-8, 1e-4, 1e4, 1e8, 1e150, 0.3 + 0.95j,
                               0.01 + 0.99999j, 1e-6 + 2e-6j])
def test_boundary_oracle_real_route_at_round_off(w):
    # large |u| (small or large |w|) and small |s| (w near i) alike
    target = boundary_term(w, 4 * np.pi)
    val = boundary_contour_oracle(w, 4 * np.pi, route="real")
    assert abs(val - target) < 1e-14 * abs(target)


def test_boundary_oracle_real_route_where_w_squared_is_subnormal():
    # w^2 = 1e-320 is subnormal (~3 digits), so compare with 2 ln w
    val = boundary_contour_oracle(1e-160, 4 * np.pi, route="real")
    assert abs(val - (-2.0 * np.log(1e-160))) < 1e-14 * abs(val)


def test_boundary_oracle_sheet_guard():
    with pytest.raises(BranchError):
        boundary_contour_oracle(-2.0, 4 * np.pi, route="real")
    with pytest.raises(BranchError):
        boundary_contour_oracle(0.9 + 0.4j, 4 * np.pi, route="contour")


def test_boundary_antiderivative_identity():
    # the closed antiderivative of the half-line integrand evaluated
    # between 0 and infinity reproduces -ln w^2 (up to the flux scaling)
    for w in (0.5, 2.0, 1.3):
        u = (1 - w * w) / (2 * w)
        s = np.sqrt(1 + u * u)

        def bracket(mu):
            return np.log((s + u * np.sqrt(1 + mu * mu))
                          / (s - u * np.sqrt(1 + mu * mu))
                          * (1 - u * mu) / (1 + u * mu))

        limit_inf = bracket(1e9)
        assert abs(limit_inf) < 1e-8
        assert abs(bracket(0.0) - (-np.log(w * w))) < 1e-12


def test_singularity_cancellation():
    # tr(A_theta gamma_theta G_B) has the pole of the interior counterterm
    # A_theta/(pi i r) as the angles merge: tr(gamma_theta^2) = 2
    p = standard_problem(w=np.e, alpha=1.0)
    theta0 = 0.7
    _, g_theta = polar_gammas(theta0)
    for r in (0.3 * p.R, 0.5 * p.R, 0.7 * p.R):
        a_th = p.gauge.a_theta(r)
        estimate, _, _ = diagonal_singularity_coefficient(p, r, theta0)
        coefficient = np.trace(a_th * g_theta @ estimate)
        target = a_th / (1j * np.pi * r)
        assert abs(coefficient - target) < 1e-4 * abs(target)


def test_ln_det_ratio_closing_values():
    res = ln_det_ratio(standard_problem(w=1.0))
    assert abs(res.bulk_term - (-1.0)) < 1e-9
    assert abs(res.boundary_term) < 1e-12
    assert abs(res.total - (-1.0)) < 1e-9
    res_e = ln_det_ratio(standard_problem(w=np.e))
    assert abs(res_e.total - (-3.0)) < 1e-9
    assert res_e.diagnostics["alpha_quadrature_residual"] < 1e-8


def test_ln_det_ratio_zero_gauge():
    p = DiskProblem(R=1.0, w=2.0, alpha=1.0, gauge=polynomial([0.0], 1.0))
    res = ln_det_ratio(p)
    assert res.total == 0.0
    assert res.flux == 0.0


def test_result_invariants_and_scaling():
    # total = bulk + boundary; phi -> s phi scales bulk by s^2, flux by s
    base = ln_det_ratio(standard_problem(w=2.0, phi0=1.0), run_oracles=False)
    for s in (0.5, 2.0):
        scaled = ln_det_ratio(standard_problem(w=2.0, phi0=s),
                              run_oracles=False)
        assert abs(scaled.total - (scaled.bulk_term + scaled.boundary_term)) \
            < 1e-14
        assert abs(scaled.bulk_term - s ** 2 * base.bulk_term) < 1e-9
        assert abs(scaled.flux - s * base.flux) < 1e-10
        assert abs(scaled.boundary_term - s * base.boundary_term) < 1e-10


def test_boundary_term_depends_only_on_flux():
    # two different profiles with identical flux give identical boundary
    g1 = poly2(1.0, 1.0)                     # flux 4 pi
    s = 0.9
    phi0 = flux(g1) / (4 * np.pi * (1.0 / s ** 2) * np.exp(-1.0 / s ** 2))
    g2 = gaussian(phi0, s, 1.0)
    assert abs(flux(g2) - flux(g1)) < 1e-12
    r1 = ln_det_ratio(DiskProblem(R=1.0, w=1.4, alpha=1.0, gauge=g1),
                      run_oracles=False)
    r2 = ln_det_ratio(DiskProblem(R=1.0, w=1.4, alpha=1.0, gauge=g2),
                      run_oracles=False)
    assert r1.boundary_term == r2.boundary_term


def test_residue_check_vanishes():
    out = residue_check(standard_problem(w=0.8, alpha=0.9))
    assert out["interior_max_norm"] < 1e-10
    assert out["boundary_contraction_abs"] < 1e-8
    assert out["passed"]


def test_residue_check_contraction_matches_extrapolated_panels():
    # the reference takes 32-point Gauss-Legendre panels on t = x/(1 - x),
    # crowded towards x = 1, at lambda = h, h/2 and h/4 with h = 1e-8 i and
    # extrapolates as residue_check does; the bias the extrapolation
    # removes is 1.75e-9 at lambda = h alone
    p = standard_problem(w=0.8, alpha=0.9)
    a_slash = p.gauge.a_theta(p.R) * polar_gammas(0.0)[1]
    edges = np.concatenate([np.linspace(0.0, 0.5, 8),
                            1.0 - np.geomspace(0.5, 1e-14, 60)[1:]])

    def mapped(x, lam):
        t = (x / (1.0 - x))[:, None]
        d = d_tilde_minus1(0.0, t, t, np.array([1.0, -1.0]), lam, p.w)
        return (np.trace(a_slash @ d, axis1=-2, axis2=-1).sum(axis=1)
                / (1.0 - x) ** 2)

    c = [sum(integrate_gauss_legendre(lambda x: mapped(x, lam), a, b, 32)
             for a, b in zip(edges[:-1], edges[1:]))
         for lam in (1e-8j, 5e-9j, 2.5e-9j)]
    assert abs(c[0]) / (2.0 * np.pi) == pytest.approx(1.75e-9, rel=1e-3)
    ref = abs(c[0] - 6.0 * c[1] + 8.0 * c[2]) / (6.0 * np.pi)
    got = residue_check(p)["boundary_contraction_abs"]
    assert ref <= 1e-15 and got <= 1e-15
    assert abs(got - ref) <= 1e-15


def test_residue_check_zero_gauge():
    p = DiskProblem(R=1.0, w=2.0, alpha=1.0, gauge=polynomial([0.0], 1.0))
    out = residue_check(p)
    assert out["interior_max_norm"] == 0.0
    assert out["boundary_contraction_abs"] < 1e-30


def test_residue_check_runs_each_piece_as_one_batched_call(monkeypatch):
    # the interior is one c_{-2} call on the 256 angles x 3 radii; the
    # boundary one integrate_adaptive call over both xi at three lambda,
    # with one d_tilde_{-1} call per level on that level's new nodes
    results, d_nodes, c2_shapes = [], [], []
    adaptive = determinant.integrate_adaptive
    d_tilde = determinant.d_tilde_minus1
    c2 = determinant.c_minus2

    def counting_adaptive(*args, **kwargs):
        results.append(adaptive(*args, **kwargs))
        return results[-1]

    def counting_d_tilde(theta, t, u, xi, lam, w):
        d_nodes.append(np.size(t))
        assert np.broadcast_shapes(np.shape(t), np.shape(lam)) == (t.size, 6)
        return d_tilde(theta, t, u, xi, lam, w)

    def counting_c2(a_theta, xi, tau, *args, **kwargs):
        c2_shapes.append(np.broadcast_shapes(np.shape(a_theta), np.shape(xi)))
        return c2(a_theta, xi, tau, *args, **kwargs)

    monkeypatch.setattr(determinant, "integrate_adaptive", counting_adaptive)
    monkeypatch.setattr(determinant, "d_tilde_minus1", counting_d_tilde)
    monkeypatch.setattr(determinant, "c_minus2", counting_c2)
    out = residue_check(standard_problem(w=0.8, alpha=0.9))
    assert c2_shapes == [(256, 3)]
    assert len(results) == 1
    assert 1 < len(d_nodes) <= 9 and sum(d_nodes) == results[0].nodes_used
    assert set(out) == {"interior_angular_norms", "interior_max_norm",
                        "boundary_contraction_abs", "passed"}
    assert len(out["interior_angular_norms"]) == 3
    assert out["passed"]


@PROPERTY
@given(profile=st.sampled_from(["poly2", "gaussian", "polynomial"]),
       log_r=st.floats(-2.0, 2.0), log_w=st.floats(-2.0, 2.0),
       arg_w=st.floats(-np.pi, np.pi), log_phi0=st.floats(-3.0, 1.0),
       sign=st.sampled_from([1.0, -1.0]), log_width=st.floats(-3.0, 0.0),
       alpha=st.floats(0.0, 1.0))
def test_residue_check_sits_at_rounding_over_a_wide_box(
        profile, log_r, log_w, arg_w, log_phi0, sign, log_width, alpha):
    # R and |w| in 1e-2 ... 1e2, |phi0| in 1e-3 ... 10.  Each piece is
    # bounded by rounding on its own scale: the interior by alpha max|A|
    # at its radii, the boundary by |A(R)| max(1, |w|^-2), the size of
    # the cancellation in the xi = -1 denominator w lambda - i + i s
    R, phi0 = 10.0 ** log_r, sign * 10.0 ** log_phi0
    w = 10.0 ** log_w * complex(np.cos(arg_w), np.sin(arg_w))
    params = {"poly2": [phi0], "gaussian": [phi0, 10.0 ** log_width * R],
              "polynomial": [phi0, 0.0, -phi0 / R ** 2, 0.3 * phi0 / R ** 3]}
    gauge = make_profile(profile, params[profile], R)
    out = residue_check(DiskProblem(R=R, w=w, alpha=alpha, gauge=gauge))
    a_in = np.max(np.abs(gauge.a_theta(np.array([0.3, 0.6, 0.9]) * R)))
    a_edge = abs(gauge.a_theta(R))
    assert out["interior_max_norm"] <= 1e-13 * alpha * a_in
    assert (out["boundary_contraction_abs"]
            <= 1e-14 * a_edge * max(1.0, abs(w) ** -2))
    assert out["passed"]


@pytest.mark.parametrize("im", [1.0, 2.0, 0.5])
def test_boundary_term_on_the_cut_depends_only_on_w_squared(im):
    # purely imaginary w puts w^2 on the negative real axis: every spelling
    # of +-w (signed zeros included) takes the principal branch, +i pi
    spellings = [complex(0.0, im), complex(-0.0, im), complex(0.0, -im),
                 complex(-0.0, -im), 1j * im, -1j * im]
    values = [boundary_term(w, 4 * np.pi) for w in spellings]
    assert all(v == values[0] for v in values)
    assert values[0].imag == -np.pi
    assert abs(values[0].real + np.log(im * im)) < 1e-15


@pytest.mark.parametrize("w", [1e-160, -1e-160, 3e-170j, 1e-160 * (0.6 + 0.8j),
                               1e200, 2e180 * (0.6 - 0.8j)])
def test_boundary_term_where_w_squared_leaves_the_normal_range(w):
    # w*w is subnormal or overflows here; the reference
    # 2 ln|w| + i arg w^2 is taken without it
    phase = complex(w) / abs(w)
    expected = -(2.0 * np.log(abs(w)) + 1j * np.angle(phase * phase))
    if np.angle(phase * phase) == -np.pi:
        expected = expected.real - 1j * np.pi
    value = boundary_term(w, 4 * np.pi)
    assert np.isfinite(value)
    assert abs(value - expected) <= 4e-16 * abs(expected)


def test_boundary_term_batch_rows_equal_scalar_calls():
    # the cut rule and the power-of-two rescaling hold on every row, to
    # the bit and to the sign of each zero
    w = np.array([0.5, -0.5, 2.0, 1.0, -1.0, complex(0.0, 1.3),
                  complex(-0.0, -1.3), complex(0.0, -0.7), 0.7 + 0.3j,
                  -1.2 - 0.4j, 1e-160, -3e-170j, 1e200, 2e180 * (0.6 - 0.8j)])
    phi = np.linspace(-3.0, 5.0, w.size)
    for fluxes in (phi, 4 * np.pi):
        batch = boundary_term(w, fluxes)
        assert batch.shape == w.shape
        rows = [boundary_term(wj, fj)
                for wj, fj in zip(w, np.broadcast_to(fluxes, w.shape))]
        for b, r in zip(batch, rows):
            assert (b.real, b.imag) == (r.real, r.imag)
            assert np.signbit([b.real, b.imag]).tolist() == \
                np.signbit([r.real, r.imag]).tolist()
    with pytest.raises(DomainError):
        boundary_term(np.array([1.0, 0.0]), 1.0)


def test_batched_problem_runs_the_closed_forms_only():
    R = np.array([0.7, 1.0, 1.6])
    p = DiskProblem(R=R, w=0.8, alpha=1.0, gauge=gaussian(0.9, 0.3, R))
    batch = ln_det_ratio(p, run_oracles=False)
    assert batch.total.shape == batch.diagnostics["a_squared_abs_err"].shape \
        == (3,)
    for j, Rj in enumerate(R):
        one = ln_det_ratio(DiskProblem(R=Rj, w=0.8, alpha=1.0,
                                       gauge=gaussian(0.9, 0.3, Rj)),
                           run_oracles=False)
        assert batch.total[j] == pytest.approx(one.total, rel=1e-15)
        assert batch.flux[j] == pytest.approx(one.flux, rel=1e-15)
    with pytest.raises(ValueError, match="scalar problem"):
        ln_det_ratio(p)
    # one bad row raises for the whole batch
    with pytest.raises(DomainError):
        DiskProblem(R=R, w=np.array([0.8, 0.0, 1.0]), alpha=1.0,
                    gauge=gaussian(0.9, 0.3, R))
    with pytest.raises(DomainError, match="too narrow"):
        gaussian(0.9, 1e-8, np.array([1.0, 3.0]))


@pytest.mark.parametrize("make", [lambda R: poly2(1.3, R),
                                  lambda R: gaussian(0.9, 0.7, R),
                                  lambda R: polynomial([0.3, 0.1, -1.2], R)],
                         ids=["poly2", "gaussian", "polynomial"])
def test_scalar_run_equals_radius_sweep_row_bitwise(make):
    # a Python-float R squares as R * R, like an array of radii, so a
    # scalar run and its row of a radius sweep agree to the bit
    R = np.random.default_rng(41).uniform(0.5, 2.0, size=2000)
    w = 0.8 + 0.3j
    for start in range(0, R.size, 128):         # the sweep's row blocks
        block = R[start:start + 128]
        batch = ln_det_ratio(DiskProblem(R=block, w=w, alpha=1.0,
                                         gauge=make(block)),
                             run_oracles=False)
        for j, Rj in enumerate(block.tolist()):
            one = ln_det_ratio(DiskProblem(R=Rj, w=w, alpha=1.0,
                                           gauge=make(Rj)),
                               run_oracles=False)
            assert one.flux == batch.flux[j], Rj
            assert one.boundary_term == batch.boundary_term[j], Rj


def test_a_squared_abs_err_sees_a_closed_form_off_its_profile():
    # the closed form is the value and quadrature its oracle: a closed
    # form 1% off the profile's dphi shows in a_squared_abs_err
    gauge = gaussian(1.2, 0.4, 1.0)
    p = DiskProblem(R=1.0, w=1.3 + 0.2j, alpha=0.6, gauge=gauge)
    assert ln_det_ratio(p).diagnostics["a_squared_abs_err"] \
        <= 1e-13 * gauge.a_squared
    wrong = dataclasses.replace(gauge, a_squared=1.01 * gauge.a_squared)
    p = DiskProblem(R=1.0, w=1.3 + 0.2j, alpha=0.6, gauge=wrong)
    assert ln_det_ratio(p).diagnostics["a_squared_abs_err"] \
        >= 1e-3 * wrong.a_squared


def test_boundary_term_from_symbol_trace():
    # third route: the boundary coefficient traced against the potential
    # and integrated over the spectral contour reproduces the closed form,
    # on the sheet of w (Re w > 0)
    theta0 = 0.4
    _, g_theta = polar_gammas(theta0)
    phi_flux = 4 * np.pi
    for w in (0.5, 2.0, 1.3 + 0.2j, 0.7 - 0.4j):
        u = (1 - w * w) / (2 * w)
        spec = ContourSpec.auto(pole_scale=1.0 / abs(u))

        def g(lams):
            total = 0.0
            for xi in (1.0, -1.0):
                s = np.sqrt(xi * xi - lams * lams)
                dt0 = d_tilde_minus1(theta0, 0.0, 0.0, xi, lams, w)
                total = total + np.trace(g_theta @ dt0, axis1=-2,
                                         axis2=-1) / (2.0 * s)
            return total / lams

        contour = gamma_log_contour(g, spec)
        value = 1j / (8 * np.pi ** 3) * phi_flux * contour.value
        target = boundary_term(w, phi_flux)
        assert abs(value - target) < 1e-7 * abs(target), w


@pytest.mark.parametrize("R, w, alpha", [
    (np.nan, 1.0, 1.0),
    (np.inf, 1.0, 1.0),
    (1.0, complex(np.nan, 0.0), 1.0),
    (1.0, 1e-300, 1.0),                   # w^2 underflows to 0
    (1.0, 1e200j, 1.0),                   # w^2 overflows
    (1.0, 1.0, np.nan),
])
def test_non_finite_or_overflowing_input_is_a_domain_error(R, w, alpha):
    with pytest.raises(DomainError):
        ln_det_ratio(DiskProblem(R=R, w=w, alpha=alpha, gauge=poly2(1.0, R)))


def test_contour_spec_validation():
    with pytest.raises(ContourError):
        ContourSpec(eps=0.6)
    with pytest.raises(ContourError):
        ContourSpec(eps=0.4, mu0=0.75)        # detour radius too large
    spec = ContourSpec()
    with pytest.raises(ContourError):
        spec.check_clearance([1j * spec.detour_radius])
    spec.check_clearance([1.0, -1.0])


def test_log_branch_cut_location():
    # right of the positive imaginary axis: principal; left: shifted
    assert abs(log_branch(1e-6 + 1j).imag - np.pi / 2) < 1e-5
    assert abs(log_branch(-1e-6 + 1j).imag + 3 * np.pi / 2) < 1e-5
    assert abs(log_branch(-1.0 - 0j).imag - np.pi) < 1e-12 or \
        abs(log_branch(np.array([-1.0 + 0j]))[0].imag + np.pi) < 1e-12


def test_json_and_csv_schema():
    res = ln_det_ratio(standard_problem(w=np.e), run_oracles=True)
    payload = res.to_json_dict()
    assert set(payload) == {"bulk", "boundary_re", "boundary_im", "total_re",
                            "total_im", "flux", "oracle_residuals"}
    json.dumps(payload)
    header = res.csv_header()
    row = res.csv_row()
    assert header[:6] == ["bulk", "boundary_re", "boundary_im", "total_re",
                          "total_im", "flux"]
    assert len(header) == len(row)
    assert all(h.startswith("oracle_residuals.") for h in header[6:])
