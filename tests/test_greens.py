import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from bagdet import determinant, greens
from bagdet.errors import DomainError, SingularityError
from bagdet.greens import (DiskProblem, PlanePoint, boundary_residual,
                           diagonal_singularity_coefficient, disk_green,
                           free_green, gauge_vector, image_decomposition,
                           pde_residual, random_boundary_samples,
                           zero_mode_scan)
from bagdet.profiles import gaussian, make_profile, poly2, polynomial
from bagdet.seeley import GaugeField
from conftest import PROPERTY


G0_MAT = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
G1_MAT = np.array([[0.0, -1j], [1j, 0.0]], dtype=complex)


def standard_problem(w=1.0, alpha=1.0, phi0=1.0, R=1.0):
    return DiskProblem(R=R, w=w, alpha=alpha, gauge=poly2(phi0, R))


def test_free_green_structure():
    x = PlanePoint(0.4, 0.3)
    y = PlanePoint(0.7, 2.1)
    g = free_green(x, y)
    pref = 1.0 / (2j * np.pi)
    assert abs(g[0, 1] - pref / (x.X - y.X)) < 1e-15
    assert abs(g[1, 0] - pref / np.conj(x.X - y.X)) < 1e-15
    assert g[0, 0] == 0.0 and g[1, 1] == 0.0


def test_free_green_antisymmetry():
    x = PlanePoint(0.4, 0.3)
    y = PlanePoint(0.7, 2.1)
    assert np.allclose(free_green(x, y), -free_green(y, x), atol=1e-15)


def test_free_green_annihilated_by_operator():
    # finite-difference i dslash applied in x must vanish away from y
    y = PlanePoint(0.7, 2.1)
    x0, x1 = PlanePoint(0.4, 0.3).xy
    h = 1e-4

    def g(a, b):
        return free_green(PlanePoint.from_xy(a, b), y)

    def d4(fm2, fm1, fp1, fp2):
        return (fm2 - 8 * fm1 + 8 * fp1 - fp2) / (12 * h)

    d0 = d4(g(x0 - 2 * h, x1), g(x0 - h, x1), g(x0 + h, x1), g(x0 + 2 * h, x1))
    d1 = d4(g(x0, x1 - 2 * h), g(x0, x1 - h), g(x0, x1 + h), g(x0, x1 + 2 * h))
    res = 1j * (G0_MAT @ d0 + G1_MAT @ d1)
    assert np.max(np.abs(res)) < 1e-6


def test_free_green_coincident_points():
    x = PlanePoint(0.4, 0.3)
    with pytest.raises(SingularityError):
        free_green(x, x)


def test_disk_green_image_entry():
    # alpha = 0, w = 1, y at the origin: the (1,1) image entry reduces to
    # (1/2 pi i) R / (X*0 - R^2) = -1/(2 pi i R)
    p = standard_problem(w=1.0, alpha=0.0)
    g = disk_green(p, PlanePoint(0.5, 0.9), PlanePoint(0.0, 0.0))
    assert abs(g[0, 0] - (-1.0 / (2j * np.pi * p.R))) < 1e-15


def test_disk_green_free_limit():
    # alpha = 0: off-diagonal entries coincide with the free kernel
    p = standard_problem(w=0.8, alpha=0.0)
    x, y = PlanePoint(0.3, 1.0), PlanePoint(0.6, 2.5)
    g = disk_green(p, x, y)
    g0 = free_green(x, y)
    assert abs(g[0, 1] - g0[0, 1]) < 1e-15
    assert abs(g[1, 0] - g0[1, 0]) < 1e-15


def test_boundary_rows_annihilated():
    for w, alpha in ((1.0, 0.0), (-1.0, 0.0), (0.7 - 0.4j, 0.85)):
        p = standard_problem(w=w, alpha=alpha, phi0=0.8)
        samples = random_boundary_samples(p, 40, seed=2)
        assert boundary_residual(p, samples) < 1e-12


def test_boundary_residual_many_configs():
    rng = np.random.default_rng(77)
    for _ in range(5):
        w = complex(rng.uniform(0.3, 2.0), rng.uniform(-0.5, 0.5))
        alpha = rng.uniform(0.0, 1.0)
        gauge = gaussian(rng.uniform(0.2, 1.5), rng.uniform(0.5, 2.0), 1.0)
        p = DiskProblem(R=1.0, w=w, alpha=alpha, gauge=gauge)
        samples = random_boundary_samples(p, 200, seed=int(rng.integers(1e6)))
        assert boundary_residual(p, samples) < 1e-10


def test_free_kernel_inversion_identity():
    # (1/r) gamma_r G_0(xtilde, y) = -G_0(x, ytilde) (1/rho) gamma_rho,
    # with tilde the inversion through the circle of radius R
    from bagdet.clifford import polar_gammas
    for R, x, y in ((1.0, PlanePoint(0.6, 0.8), PlanePoint(0.45, 2.1)),
                    (2.0, PlanePoint(1.2, -0.4), PlanePoint(0.9, 2.6))):
        xt = PlanePoint(R ** 2 / x.r, x.theta)
        yt = PlanePoint(R ** 2 / y.r, y.theta)
        gr_x, _ = polar_gammas(x.theta)
        gr_y, _ = polar_gammas(y.theta)
        lhs = (1.0 / x.r) * gr_x @ free_green(xt, y)
        rhs = -free_green(x, yt) @ ((1.0 / y.r) * gr_y)
        assert np.max(np.abs(lhs - rhs)) < 1e-15


def test_pde_residual_off_diagonal():
    p = standard_problem(w=0.6 + 0.2j, alpha=0.77, phi0=1.1)
    rng = np.random.default_rng(15)
    for _ in range(6):
        x = PlanePoint(rng.uniform(0.15, 0.7), rng.uniform(0, 2 * np.pi))
        y = PlanePoint(rng.uniform(0.15, 0.7), rng.uniform(0, 2 * np.pi))
        if abs(x.X - y.X) < 0.25:
            continue
        assert pde_residual(p, x, y) < 1e-6


def test_factorization_consistency():
    p = standard_problem(w=1.3 - 0.5j, alpha=0.42, phi0=0.9)
    rng = np.random.default_rng(19)
    for _ in range(25):
        x = PlanePoint(rng.uniform(0.1, 0.95), rng.uniform(0, 2 * np.pi))
        y = PlanePoint(rng.uniform(0.1, 0.95), rng.uniform(0, 2 * np.pi))
        if abs(x.X - y.X) < 0.05:
            continue
        a = disk_green(p, x, y)
        b = image_decomposition(p, x, y)
        assert np.max(np.abs(a - b)) < 1e-12 * max(1.0, np.max(np.abs(a)))


def test_singularity_coefficient():
    p = standard_problem(w=0.9, alpha=0.6, phi0=0.7)
    _, _, rel = diagonal_singularity_coefficient(p, 0.5, 0.8)
    assert rel < 1e-4


def test_singularity_coefficient_strong_field():
    # poly2 phi0 = 2, w = 4: the O(delta^2) and O(delta^3) terms are large
    # here, and only the weights 2^j of level j remove them (factor 2 at
    # every level left 2.8e-4, above the 1e-4 gate)
    p = standard_problem(w=4.0, alpha=1.0, phi0=2.0)
    _, _, rel = diagonal_singularity_coefficient(p, 0.55, 1.2)
    assert rel < 1e-8


def test_gauge_vector_tangential():
    gauge = poly2(1.0, 1.0)
    x = PlanePoint(0.5, 0.7)
    a = gauge_vector(gauge, x)
    # radial component vanishes, angular component is -phi'
    r_hat = np.array([np.cos(x.theta), np.sin(x.theta)])
    t_hat = np.array([-np.sin(x.theta), np.cos(x.theta)])
    assert abs(np.dot(a, r_hat)) < 1e-14
    assert abs(np.dot(a, t_hat) - (-gauge.dphi(x.r))) < 1e-14


def test_zero_mode_scan_empty_kernel():
    rng = np.random.default_rng(101)
    for _ in range(5):
        w = complex(rng.uniform(0.3, 2.0), rng.uniform(-1.0, 1.0))
        alpha = rng.uniform(0.0, 1.0)
        gauge = polynomial(rng.uniform(-0.5, 0.5, size=3), 1.0)
        p = DiskProblem(R=1.0, w=w, alpha=alpha, gauge=gauge)
        report = zero_mode_scan(p, range(-10, 11))
        assert report.kernel_dimension == 0
        for entry in report.entries:
            assert entry["a_forced_zero"] and entry["b_forced_zero"]
            if entry["n"] < 0:
                assert not entry["a_allowed_at_origin"]
            if entry["n"] > 0:
                assert not entry["b_allowed_at_origin"]


def test_disk_problem_validation():
    gauge = poly2(1.0, 1.0)
    with pytest.raises(DomainError):
        DiskProblem(R=1.0, w=0.0, alpha=1.0, gauge=gauge)
    with pytest.raises(DomainError):
        DiskProblem(R=-1.0, w=1.0, alpha=1.0, gauge=gauge)
    with pytest.raises(DomainError):
        DiskProblem(R=1.0, w=1.0, alpha=2.0, gauge=gauge)
    with pytest.raises(DomainError):
        DiskProblem(R=2.0, w=1.0, alpha=1.0, gauge=gauge)


def test_disk_green_rejects_bad_points():
    p = standard_problem()
    with pytest.raises(SingularityError):
        disk_green(p, PlanePoint(0.5, 1.0), PlanePoint(0.5, 1.0))
    with pytest.raises(SingularityError):
        disk_green(p, PlanePoint(1.0, 1.0), PlanePoint(1.0, 1.0 + 1e-12))
    with pytest.raises(DomainError):
        disk_green(p, PlanePoint(1.5, 1.0), PlanePoint(0.5, 0.0))


def test_plane_point_roundtrip():
    x = PlanePoint.from_xy(0.3, -0.4)
    assert abs(x.r - 0.5) < 1e-15
    assert np.allclose(x.xy, [0.3, -0.4])


BATCH_PROBLEMS = [
    DiskProblem(R=1.0, w=0.7 - 0.4j, alpha=0.85, gauge=poly2(0.8, 1.0)),
    DiskProblem(R=1.3, w=1.2 + 0.5j, alpha=0.6, gauge=gaussian(1.1, 0.6, 1.3)),
    DiskProblem(R=1.5, w=-0.6 + 0.9j, alpha=1.0,
                gauge=polynomial([0.3, 0.0, -0.5, 0.2], 1.5)),
]


@pytest.mark.parametrize("p", BATCH_PROBLEMS, ids=lambda p: p.gauge.name)
def test_batched_disk_green_matches_scalar_calls(p):
    rng = np.random.default_rng(31)
    xr, xt = p.R * rng.uniform(0.05, 0.95, (3, 4)), rng.uniform(0, 6.3, (3, 4))
    yr, yt = p.R * rng.uniform(0.05, 0.95, 4), rng.uniform(0, 6.3, 4)
    got = disk_green(p, PlanePoint(xr, xt), PlanePoint(yr, yt))
    assert got.shape == (3, 4, 2, 2)
    for i, j in np.ndindex(3, 4):
        ref = disk_green(p, PlanePoint(float(xr[i, j]), float(xt[i, j])),
                         PlanePoint(float(yr[j]), float(yt[j])))
        np.testing.assert_allclose(got[i, j], ref, rtol=1e-14, atol=0)
    # a scalar x against a stack of y, with x on the boundary
    got = disk_green(p, PlanePoint(p.R, 0.4), PlanePoint(yr, yt))
    for j in range(4):
        ref = disk_green(p, PlanePoint(p.R, 0.4),
                         PlanePoint(float(yr[j]), float(yt[j])))
        np.testing.assert_allclose(got[j], ref, rtol=1e-14, atol=0)
    assert disk_green(p, PlanePoint(0.3, 0.1), PlanePoint(0.5, 2.0)).shape \
        == (2, 2)


@pytest.mark.parametrize("bad_x, bad_y, error", [
    ((0.5, 1.0), (0.5, 1.0), SingularityError),           # coincident
    ((1.0, 1.0), (1.0, 1.0 + 1e-12), SingularityError),   # image degenerate
    ((1.5, 1.0), (0.5, 0.0), DomainError),                # outside the disk
    ((0.5, 0.0), (1.5, 1.0), DomainError),
])
def test_one_bad_pair_raises_for_the_batch(bad_x, bad_y, error):
    p = standard_problem()
    xr, xt = np.array([0.2, 0.4, bad_x[0]]), np.array([0.1, 2.0, bad_x[1]])
    yr, yt = np.array([0.6, 0.3, bad_y[0]]), np.array([3.0, 4.0, bad_y[1]])
    disk_green(p, PlanePoint(xr[:2], xt[:2]), PlanePoint(yr[:2], yt[:2]))
    with pytest.raises(error):
        disk_green(p, PlanePoint(xr, xt), PlanePoint(yr, yt))


def test_random_boundary_samples_are_the_per_sample_draws():
    p = standard_problem(R=1.7)
    theta_x, y = random_boundary_samples(p, 30, seed=9)
    rng = np.random.default_rng(9)
    for j in range(30):
        assert theta_x[j] == rng.uniform(0.0, 2 * np.pi)
        assert y.r[j] == p.R * rng.uniform(0.05, 0.9)
        assert y.theta[j] == rng.uniform(0.0, 2 * np.pi)


@pytest.fixture
def green_calls(monkeypatch):
    calls = []
    inner = greens.disk_green

    def counting(p, x, y):
        calls.append(np.broadcast_shapes(np.shape(x.X), np.shape(y.X)))
        return inner(p, x, y)

    monkeypatch.setattr(greens, "disk_green", counting)
    return calls


def test_boundary_residual_makes_one_green_call(green_calls):
    p = standard_problem(w=0.7 - 0.4j, alpha=0.85, phi0=0.8)
    boundary_residual(p, random_boundary_samples(p, 50, seed=5))
    assert green_calls == [(50,)]


def test_pde_residual_makes_at_most_two_green_calls(green_calls):
    p = standard_problem(w=0.6 + 0.2j, alpha=0.77, phi0=1.1)
    pde_residual(p, PlanePoint(0.5, 0.3), PlanePoint(0.4, 2.5))
    assert sorted(green_calls) == [(), (8,)]


def test_singularity_coefficient_makes_one_green_call(green_calls):
    p = standard_problem(w=0.9, alpha=0.6, phi0=0.7)
    estimate, _, _ = diagonal_singularity_coefficient(p, 0.5, 0.8)
    assert green_calls == [(4,)]
    # the batched separations give the scalar Richardson table
    seq = [d * disk_green(p, PlanePoint(0.5, 0.8), PlanePoint(0.5, 0.8 - d))
           for d in 1e-2 * 0.5 ** np.arange(4)]
    for j in range(1, 4):
        seq = [(2.0 ** j * seq[i + 1] - seq[i]) / (2.0 ** j - 1.0)
               for i in range(len(seq) - 1)]
    assert np.max(np.abs(estimate - seq[0])) <= 1e-14 * np.max(np.abs(seq[0]))


def test_pde_residual_matches_scalar_stencil():
    p = standard_problem(w=0.6 + 0.2j, alpha=0.77, phi0=1.1)
    # the stencil step is 1e-4 R
    x, y, h = PlanePoint(0.45, 0.3), PlanePoint(0.6, 2.4), 1e-4 * p.R
    x0, x1 = x.xy

    def g_at(a0, a1):
        return disk_green(p, PlanePoint.from_xy(a0, a1), y)

    def d4(fm2, fm1, fp1, fp2):
        return (fm2 - 8.0 * fm1 + 8.0 * fp1 - fp2) / (12.0 * h)

    d0 = d4(g_at(x0 - 2 * h, x1), g_at(x0 - h, x1),
            g_at(x0 + h, x1), g_at(x0 + 2 * h, x1))
    d1 = d4(g_at(x0, x1 - 2 * h), g_at(x0, x1 - h),
            g_at(x0, x1 + h), g_at(x0, x1 + 2 * h))
    a0c, a1c = gauge_vector(p.gauge, x)
    ref = float(np.max(np.abs(1j * (G0_MAT @ d0 + G1_MAT @ d1)
                              + p.alpha * (a0c * G0_MAT + a1c * G1_MAT)
                              @ disk_green(p, x, y))))
    assert abs(pde_residual(p, x, y) - ref) <= 1e-12


def test_pde_residual_batch_is_max_of_pair_calls(green_calls):
    p = DiskProblem(R=1.2, w=0.7 - 0.3j, alpha=0.9,
                    gauge=gaussian(0.8, 0.5, 1.2))
    rng = np.random.default_rng(29)
    r_x, th_x, r_y, th_y = rng.uniform([0.2, 0.0, 0.2, 0.0],
                                       [0.7, 2 * np.pi, 0.7, 2 * np.pi],
                                       size=(8, 4)).T
    x, y = PlanePoint(r_x * p.R, th_x), PlanePoint(r_y * p.R, th_y)
    assert np.all(np.abs(x.X - y.X) >= 0.2 * p.R)
    worst = pde_residual(p, x, y)
    assert sorted(green_calls) == [(8,), (8, 8)]
    pairs = [pde_residual(p, PlanePoint(x.r[j], x.theta[j]),
                          PlanePoint(y.r[j], y.theta[j])) for j in range(8)]
    assert worst == max(pairs)
    # one point against a stack, and the empty stack
    one_x = PlanePoint(x.r[0], x.theta[0])
    assert pde_residual(p, one_x, y) == max(
        pde_residual(p, one_x, PlanePoint(y.r[j], y.theta[j]))
        for j in range(8))
    empty = PlanePoint(np.empty(0), np.empty(0))
    assert pde_residual(p, empty, empty) == 0.0


@pytest.mark.parametrize("R", [0.0, -1.0, 1e-200, 1e200, float("nan")])
def test_gauge_field_rejects_out_of_range_radius(R):
    with pytest.raises(DomainError):
        GaugeField(phi=np.sin, dphi=np.cos, R=R)


@pytest.mark.parametrize("s", [0.0, -1.0, 1e-200, 1e200])
def test_gaussian_rejects_out_of_range_width(s):
    with pytest.raises(DomainError):
        gaussian(1.0, s, 1.0)


def test_subnormal_squares_are_rejected():
    # dphi divides by R^2 (poly2) or s^2 (gaussian); below 2^-1022 that
    # square keeps too few digits: poly2's flux is 1e-5 off at R = 1e-160
    with pytest.raises(DomainError, match="disk radius"):
        make_profile("poly2", [1.0], 1e-160)
    with pytest.raises(DomainError, match="gaussian width"):
        gaussian(1.0, 1e-157, 2e-154)
    gauge = make_profile("poly2", [1.0], 1.5e-154)
    assert determinant.flux(gauge) == pytest.approx(4.0 * np.pi, rel=1e-15)
    gaussian(1.0, 1.5e-154, 1.5e-154)


@st.composite
def admissible_problems(draw):
    def fl(lo, hi):
        return draw(st.floats(lo, hi))

    R = fl(0.5, 2.0)
    name = draw(st.sampled_from(["poly2", "gaussian", "polynomial"]))
    params = {"poly2": lambda: [fl(-2.0, 2.0)],
              "gaussian": lambda: [fl(-2.0, 2.0), fl(0.3, 2.0)],
              "polynomial": lambda: [fl(-1.0, 1.0) for _ in range(4)]}[name]()
    w = complex(fl(0.2, 5.0) * np.exp(1j * fl(-np.pi, np.pi)))
    return DiskProblem(R=R, w=w, alpha=fl(0.0, 1.0),
                       gauge=make_profile(name, params, R))


@PROPERTY
@given(p=admissible_problems(), seed=st.integers(0, 2 ** 32 - 1))
def test_property_boundary_residual_small(p, seed):
    assert boundary_residual(p, random_boundary_samples(p, 50, seed)) <= 1e-10


@PROPERTY
@given(coeffs=st.lists(st.floats(-1.5, 1.5), min_size=1, max_size=5),
       shift=st.floats(-5.0, 5.0), alpha=st.floats(0.0, 1.0),
       w=st.complex_numbers(min_magnitude=0.2, max_magnitude=5.0),
       seed=st.integers(0, 2 ** 32 - 1))
def test_property_disk_green_gauge_shift_invariant(coeffs, shift, alpha, w,
                                                   seed):
    # phi -> phi + c leaves A = eps d phi unchanged, and G_B only sees
    # differences of phi values
    R = 1.2
    shifted = [coeffs[0] + shift] + coeffs[1:]
    p = DiskProblem(R=R, w=w, alpha=alpha, gauge=polynomial(coeffs, R))
    q = DiskProblem(R=R, w=w, alpha=alpha, gauge=polynomial(shifted, R))
    rng = np.random.default_rng(seed)
    x = PlanePoint(R * rng.uniform(0.0, 1.0, 16), rng.uniform(0, 6.3, 16))
    y = PlanePoint(R * rng.uniform(0.0, 0.9, 16), rng.uniform(0, 6.3, 16))
    assume(np.min(np.abs(x.X - y.X)) >= 1e-3 * R)
    a, b = disk_green(p, x, y), disk_green(q, x, y)
    scale = np.max(np.abs(a), axis=(-2, -1), keepdims=True)
    assert np.max(np.abs(a - b) / scale) <= 1e-12
