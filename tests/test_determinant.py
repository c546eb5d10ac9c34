import json

import numpy as np
import pytest

from bagdet import determinant
from bagdet.clifford import polar_gammas
from bagdet.determinant import (ContourSpec, a_squared_integral,
                                boundary_contour_oracle,
                                boundary_term, bulk_c2_bessel_oracle,
                                bulk_c2_term, bulk_log_term, dW_dalpha, flux,
                                gamma_log_contour, ln_det_ratio, log_branch,
                                residue_check, singularity_cancellation_check)
from bagdet.errors import BranchError, ContourError, DomainError
from bagdet.greens import DiskProblem
from bagdet.profiles import gaussian, poly2, polynomial
from bagdet.quadrature import integrate_adaptive
from bagdet.seeley import d_tilde_minus1


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
    circ = integrate_adaptive(lambda th: a_bound * gauge.R, 0.0,
                              2 * np.pi).value.real
    assert abs(flux(gauge) - circ) < 1e-10


def test_bulk_c2_poly2_closed_form():
    # A_theta = 2 phi0 r / R^2; radial quadrature of A^2 gives 2 pi phi0^2
    phi0, alpha = 1.3, 0.71
    gauge = poly2(phi0, 1.0)
    asq = a_squared_integral(gauge).value.real
    assert abs(asq - 2 * np.pi * phi0 ** 2) < 1e-10
    assert abs(bulk_c2_term(gauge, alpha) - (-alpha * phi0 ** 2)) < 1e-10


def test_bulk_c2_trivial_cases():
    assert bulk_c2_term(polynomial([1.0], 1.0), 1.0) == 0.0
    assert bulk_c2_term(poly2(1.0, 1.0), 0.0) == 0.0


def test_bessel_oracle_matches_closed_bulk():
    gauge = poly2(1.0, 1.0)
    closed = bulk_c2_term(gauge, 1.0)
    oracle = bulk_c2_bessel_oracle(gauge, 1.0)
    assert abs(oracle - closed) < 1e-8 * abs(closed)


def test_bessel_oracle_unextrapolated_split():
    # at split 1e-3 the raw kernel integral is already within 1e-4
    from bagdet.quadrature import j2_over_u_integral
    raw = j2_over_u_integral(1e-3).value.real
    assert abs(raw - 0.5) < 1e-4 * 0.5


def test_bessel_oracle_zero_gauge():
    assert bulk_c2_bessel_oracle(polynomial([0.0], 1.0), 1.0) == 0.0


def test_bulk_log_equals_bulk_c2():
    rng = np.random.default_rng(61)
    for _ in range(4):
        coeffs = rng.uniform(-1.0, 1.0, size=4)
        gauge = polynomial(coeffs, 1.0)
        alpha = rng.uniform(0.2, 1.0)
        c2 = bulk_c2_term(gauge, alpha)
        logt = bulk_log_term(gauge, alpha)
        assert abs(logt - c2) <= 1e-6 * max(abs(c2), 1e-12)


def test_bulk_log_zero_coupling():
    assert bulk_log_term(poly2(1.0, 1.0), 0.0) == 0.0


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


def test_dW_dalpha_values():
    # at alpha = 0 only the boundary term survives
    p0 = standard_problem(w=np.e, alpha=0.0)
    assert abs(dW_dalpha(p0) - (-2.0)) < 1e-9
    # poly2 with phi0 at alpha = 1, w = 1: twice the single bulk term
    p1 = standard_problem(w=1.0, alpha=1.0, phi0=0.8)
    assert abs(dW_dalpha(p1) - (-2 * 0.8 ** 2)) < 1e-9


def test_singularity_cancellation():
    p = standard_problem(w=np.e, alpha=1.0)
    out = singularity_cancellation_check(p)
    assert out["max_rel_err"] < 1e-4


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


def test_residue_check_zero_gauge():
    p = DiskProblem(R=1.0, w=2.0, alpha=1.0, gauge=polynomial([0.0], 1.0))
    out = residue_check(p)
    assert out["interior_max_norm"] == 0.0
    assert out["boundary_contraction_abs"] < 1e-30


def test_residue_check_integrates_the_trace_once_per_xi(monkeypatch):
    results = []
    d_calls = []
    adaptive = determinant.integrate_adaptive
    d_tilde = determinant.d_tilde_minus1

    def counting_adaptive(*args, **kwargs):
        results.append(adaptive(*args, **kwargs))
        return results[-1]

    def counting_d_tilde(*args):
        d_calls.append(args)
        return d_tilde(*args)

    monkeypatch.setattr(determinant, "integrate_adaptive", counting_adaptive)
    monkeypatch.setattr(determinant, "d_tilde_minus1", counting_d_tilde)
    out = residue_check(standard_problem(w=0.8, alpha=0.9))
    assert len(results) == 2
    assert 0 < len(d_calls) <= sum(r.nodes_used for r in results)
    assert set(out) == {"interior_angular_norms", "interior_max_norm",
                        "boundary_contraction_abs", "passed"}
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
