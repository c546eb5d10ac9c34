import numpy as np
import pytest

from bagdet import seeley
from bagdet.clifford import gamma_t, make_rep_2d, polar_gammas
from bagdet.errors import BagdetError, BranchError, SingularSymbolError
from bagdet.seeley import (GaugeField, a0_symbol, a1_matrix, a1_symbol,
                           c_minus1, c_minus1_symbol, c_minus2,
                           c_minus2_symbol, compose_symbols_check, d_minus1,
                           d_tilde_minus1, d_tilde_minus1_contour, k_nu,
                           k_nu_bessel, m_coefficient)

EULER_GAMMA = 0.5772156649015329

REP = make_rep_2d()


def admissible_sample(rng, w_fixed=None):
    theta = rng.uniform(0, 2 * np.pi)
    t = rng.uniform(0.05, 1.2)
    u = rng.uniform(0.05, 1.2)
    xi = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0)
    lam = complex(rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9))
    w = w_fixed if w_fixed is not None else complex(rng.uniform(-1.5, 1.5),
                                                    rng.uniform(-1.5, 1.5))
    return theta, t, u, xi, lam, w


def test_c_minus1_frame_values():
    # (xi=0, tau=1, lam=0): (tau gamma_t)/(-tau^2) = -gamma_t
    for theta in (0.0, 1.3):
        assert np.allclose(c_minus1(REP, 0.0, 1.0, 0.0, theta=theta),
                           -gamma_t(theta), atol=1e-14)
        _, g_theta = polar_gammas(theta)
        assert np.allclose(c_minus1(REP, 1.0, 0.0, 0.0, theta=theta),
                           -g_theta, atol=1e-14)


def test_c_minus1_inverts_a1():
    rng = np.random.default_rng(3)
    for _ in range(50):
        theta = rng.uniform(0, 2 * np.pi)
        xi, tau = rng.normal(size=2)
        lam = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        if abs(lam ** 2 - xi ** 2 - tau ** 2) < 0.05:
            continue
        prod = a1_matrix(REP, xi, tau, lam, theta) @ \
            c_minus1(REP, xi, tau, lam, theta)
        assert np.max(np.abs(prod - np.eye(2))) < 1e-12


def test_c_minus1_singular_denominator():
    with pytest.raises(SingularSymbolError):
        c_minus1(REP, 1.0, 0.0, 1.0)


def test_c_minus1_homogeneity():
    rng = np.random.default_rng(9)
    for _ in range(100):
        theta = rng.uniform(0, 2 * np.pi)
        xi, tau = rng.normal(size=2)
        lam = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        if abs(lam ** 2 - xi ** 2 - tau ** 2) < 0.05:
            continue
        s = rng.uniform(0.5, 3.0)
        a = c_minus1(REP, s * xi, s * tau, s * lam, theta)
        b = c_minus1(REP, xi, tau, lam, theta) / s
        assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))


def test_c_minus2_trivial_cases():
    assert np.allclose(c_minus2(REP, 0.0, 1.0, 0.5, 0.3j, 0.8),
                       np.zeros((2, 2)))
    assert np.allclose(c_minus2(REP, 1.3, 1.0, 0.5, 0.3j, 0.0),
                       np.zeros((2, 2)))


def test_c_minus2_homogeneity_degree_two():
    rng = np.random.default_rng(13)
    for _ in range(100):
        theta = rng.uniform(0, 2 * np.pi)
        xi, tau = rng.normal(size=2)
        lam = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        if abs(lam ** 2 - xi ** 2 - tau ** 2) < 0.05:
            continue
        s = 2.0
        a = c_minus2(REP, 0.7, s * xi, s * tau, s * lam, 0.9, theta)
        b = c_minus2(REP, 0.7, xi, tau, lam, 0.9, theta) / s ** 2
        assert np.max(np.abs(a - b)) <= 1e-12 * max(np.max(np.abs(b)), 1e-14)


def test_c_minus2_equals_sandwich():
    # c_{-2} = -alpha c_{-1} Aslash c_{-1}, the order -1 solvability
    rng = np.random.default_rng(21)
    for _ in range(30):
        theta = rng.uniform(0, 2 * np.pi)
        xi, tau = rng.normal(size=2)
        lam = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        if abs(lam ** 2 - xi ** 2 - tau ** 2) < 0.05:
            continue
        a_th, alpha = rng.uniform(0.2, 1.5, size=2)
        _, g_theta = polar_gammas(theta)
        c1 = c_minus1(REP, xi, tau, lam, theta)
        sandwich = -alpha * c1 @ (a_th * g_theta) @ c1
        assert np.allclose(c_minus2(REP, a_th, xi, tau, lam, alpha, theta),
                           sandwich, atol=1e-13)


def test_d_minus1_boundary_condition():
    rng = np.random.default_rng(29)
    b_checked = 0
    for _ in range(60):
        theta, t, u, xi, lam, w = admissible_sample(rng)
        tau = rng.uniform(-2, 2)
        try:
            d0 = d_minus1(theta, 0.0, xi, tau, lam, w)
            c1 = c_minus1(REP, xi, tau, lam, theta=theta)
        except BagdetError:
            continue
        b0 = np.array([[1.0, w * np.exp(-1j * theta)]])
        assert np.max(np.abs(b0 @ d0 - b0 @ c1)) < 1e-12
        b_checked += 1
    assert b_checked > 30


def test_d_minus1_normal_ode():
    # d/dt d_{-1} + (xi gamma5 + i lam gamma_t) d_{-1} = 0, via central
    # finite differences
    rng = np.random.default_rng(37)
    for _ in range(20):
        theta, t, u, xi, lam, w = admissible_sample(rng)
        tau = rng.uniform(-2, 2)
        try:
            d_mid = d_minus1(theta, t, xi, tau, lam, w)
        except BagdetError:
            continue
        h = 1e-5
        ddt = (d_minus1(theta, t + h, xi, tau, lam, w)
               - d_minus1(theta, t - h, xi, tau, lam, w)) / (2 * h)
        m = xi * REP.gamma5 + 1j * lam * gamma_t(theta)
        res = ddt + m @ d_mid
        assert np.max(np.abs(res)) < 1e-6 * max(np.max(np.abs(d_mid)), 1.0)


def test_d_minus1_exponential_decay():
    rng = np.random.default_rng(41)
    for _ in range(20):
        theta, t, u, xi, lam, w = admissible_sample(rng)
        tau = rng.uniform(-2, 2)
        try:
            d0 = d_minus1(theta, 0.0, xi, tau, lam, w)
            dt = d_minus1(theta, t, xi, tau, lam, w)
        except BagdetError:
            continue
        s = np.sqrt(complex(xi * xi - lam * lam))
        assert np.max(np.abs(dt)) <= np.exp(-t * s.real) * \
            np.max(np.abs(d0)) * (1 + 1e-12)


def test_d_tilde_matches_contour_transform():
    rng = np.random.default_rng(53)
    checked = 0
    for _ in range(60):
        theta, t, u, xi, lam, w = admissible_sample(rng)
        try:
            closed = d_tilde_minus1(theta, t, u, xi, lam, w)
            oracle = d_tilde_minus1_contour(theta, t, u, xi, lam, w)
        except BagdetError:
            continue
        scale = max(np.max(np.abs(closed)), 1e-30)
        assert np.max(np.abs(closed - oracle)) < 1e-8 * scale
        checked += 1
    assert checked > 30


def test_d_minus1_batch_matches_scalar_calls():
    rng = np.random.default_rng(61)
    checked = 0
    for _ in range(20):
        theta, t, u, xi, lam, w = admissible_sample(rng)
        taus = rng.normal(size=33) + 1j * rng.normal(size=33)
        try:
            scalar = np.stack([d_minus1(theta, t, xi, tau, lam, w)
                               for tau in taus])
        except BagdetError:
            continue
        batch = d_minus1(theta, t, xi, taus, lam, w)
        assert batch.shape == (33, 2, 2)
        np.testing.assert_allclose(batch, scalar, rtol=1e-14, atol=0)
        checked += 1
    assert checked > 10
    grid = d_minus1(theta, t, xi, taus.reshape(3, 11), lam, w)
    assert grid.shape == (3, 11, 2, 2)


def test_boundary_symbols_batch_match_scalar_calls():
    # arrays of every argument but w; entry [j] is the scalar call at j
    rng = np.random.default_rng(71)
    w = 0.9 + 0.3j
    theta, t, u, xi, lam = (np.array(v) for v in zip(
        *(admissible_sample(rng, w)[:5] for _ in range(20))))
    tau = rng.normal(size=20) + 1j * rng.normal(size=20)
    for fn, args in [(seeley.decay_root, (xi, lam)),
                     (d_minus1, (theta, t, xi, tau, lam, w)),
                     (d_minus1, (0.3, 0.2, xi, 0.7 + 0.2j, lam, w)),
                     (d_tilde_minus1, (theta, t, u, xi, lam, w)),
                     (d_tilde_minus1_contour, (theta, t, u, xi, lam, w))]:
        batch = fn(*args)
        scalar = np.stack([fn(*(a[j] if np.ndim(a) else a for a in args))
                           for j in range(20)])
        assert batch.shape == scalar.shape
        np.testing.assert_allclose(batch, scalar, rtol=1e-14, atol=0)
    assert isinstance(seeley.decay_root(1.0, 0.5j), complex)
    grid = d_tilde_minus1(theta[:4, None], t[:4, None], u[:4, None],
                          xi[None, :5], lam[None, :5], w)
    assert grid.shape == (4, 5, 2, 2)
    np.testing.assert_allclose(
        grid[2, 3], d_tilde_minus1(theta[2], t[2], u[2], xi[3], lam[3], w),
        rtol=1e-14, atol=0)


def test_one_bad_node_raises_for_the_whole_boundary_batch():
    # node 1 lies on the cut of sqrt(xi^2 - lambda^2)
    xi = np.array([1.0, 0.5, 0.7])
    lam = np.array([0.2j, 2.0, 0.3])
    for call in (lambda: seeley.decay_root(xi, lam),
                 lambda: d_minus1(0.1, 0.2, xi, 0.5, lam, 1.0),
                 lambda: d_tilde_minus1(0.1, 0.2, 0.3, xi, lam, 1.0),
                 lambda: d_tilde_minus1_contour(0.1, 0.2, 0.3, xi, lam, 1.0)):
        with pytest.raises(BranchError):
            call()
    # at node 1 (xi = -1, lambda = 0) w lambda + i xi + i s vanishes
    xi = np.array([1.0, -1.0, 0.7])
    lam = np.array([0.2j, 0.0, 0.3])
    for call in (lambda: d_minus1(0.1, 0.2, xi, 0.5, lam, 1.0),
                 lambda: d_tilde_minus1(0.1, 0.2, 0.3, xi, lam, 1.0),
                 lambda: d_tilde_minus1_contour(0.1, 0.2, 0.3, xi, lam, 1.0)):
        with pytest.raises(SingularSymbolError):
            call()


def test_c_minus2_batch_matches_scalar_calls():
    rng = np.random.default_rng(67)
    for _ in range(10):
        theta = rng.uniform(0, 2 * np.pi)
        a_th, alpha = rng.uniform(0.2, 1.5, size=2)
        lam = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        xis = rng.normal(size=25)
        taus = rng.normal(size=25) + 1j * rng.normal(size=25)
        scalar = np.stack([c_minus2(REP, a_th, x, tau, lam, alpha, theta)
                           for x, tau in zip(xis, taus)])
        batch = c_minus2(REP, a_th, xis, taus, lam, alpha, theta)
        assert batch.shape == (25, 2, 2)
        np.testing.assert_allclose(batch, scalar, rtol=1e-14, atol=0)
        scalar1 = np.stack([c_minus1(REP, x, tau, lam, theta)
                            for x, tau in zip(xis, taus)])
        np.testing.assert_allclose(c_minus1(REP, xis, taus, lam, theta),
                                   scalar1, rtol=1e-14, atol=0)


def test_interior_symbols_broadcast_over_lambda_theta_and_potential():
    rng = np.random.default_rng(79)
    n = 25
    theta = rng.uniform(0, 2 * np.pi, size=n)
    xi, a_th = rng.normal(size=n), rng.uniform(0.2, 1.5, size=n)
    tau = rng.normal(size=n) + 1j * rng.normal(size=n)
    lam = rng.uniform(-1, 1, size=n) + 1j * rng.uniform(-1, 1, size=n)
    for fn, args in [(a1_matrix, (REP, xi, tau, lam, theta)),
                     (c_minus1, (REP, xi, tau, lam, theta)),
                     (c_minus2, (REP, a_th, xi, tau, lam, 0.8, theta)),
                     (lambda th: polar_gammas(th)[1], (theta,))]:
        batch = fn(*args)
        scalar = np.stack([fn(*(a[j] if np.ndim(a) else a for a in args))
                           for j in range(n)])
        assert batch.shape == (n, 2, 2)
        np.testing.assert_allclose(batch, scalar, rtol=1e-14, atol=0)


def test_one_singular_node_in_a_batch_raises():
    xi, lam = 0.8, 0.3 + 0.2j
    taus = np.linspace(-2.0, 2.0, 9) + 0.5j
    taus[4] = np.sqrt(complex(lam) ** 2 - xi * xi)    # xi^2+tau^2 = lam^2
    with pytest.raises(SingularSymbolError):
        d_minus1(0.4, 0.1, xi, taus, lam, 1.0)
    xis = np.full(9, xi)
    with pytest.raises(SingularSymbolError):
        c_minus1(REP, xis, taus, lam)
    with pytest.raises(SingularSymbolError):
        c_minus2(REP, 0.7, xis, taus, lam, 1.0)


def test_singular_check_scale_is_real_at_complex_tau():
    # |xi^2 + tau^2 - lam^2| lies above the absolute 1e-12 but below the
    # relative 1e-12 (|lam|^2 + xi^2 + |tau|^2): singular.  A complex scale
    # xi^2 + tau^2 (about 1e-6 here) would hide it.
    xi, lam = 1e3, 0.0
    tau = np.complex128(1j * xi * np.sqrt(1.0 - 1e-12))   # a contour node
    denom = abs(xi * xi + tau * tau - lam ** 2)
    assert 1e-12 < denom < 1e-12 * (abs(lam) ** 2 + xi ** 2 + abs(tau) ** 2)
    with pytest.raises(SingularSymbolError):
        d_minus1(0.0, 0.0, xi, tau, lam, 1.0)
    with pytest.raises(SingularSymbolError):
        c_minus1(REP, xi, tau, lam)
    with pytest.raises(SingularSymbolError):
        c_minus2(REP, 0.5, xi, tau, lam, 1.0)


def test_d_tilde_contour_makes_one_batched_d_minus1_call(monkeypatch):
    calls = []
    inner = seeley.d_minus1

    def counting(theta, t, xi, tau, lam, w):
        calls.append(np.shape(tau))
        return inner(theta, t, xi, tau, lam, w)

    monkeypatch.setattr(seeley, "d_minus1", counting)
    d_tilde_minus1_contour(0.3, 0.2, 0.4, 1.1, 0.2 + 0.1j, 0.9 + 0.2j)
    assert calls == [(512,)]
    # 20 inputs share one call on 512 x 20 nodes
    rng = np.random.default_rng(73)
    xi = rng.uniform(0.6, 2.0, size=20)
    lam = rng.uniform(-0.8, 0.8, size=20) + 1j * rng.uniform(-0.8, 0.8, 20)
    out = d_tilde_minus1_contour(0.3, 0.2, 0.4, xi, lam, 0.9 + 0.2j)
    assert out.shape == (20, 2, 2)
    assert calls == [(512,), (512, 20)]


def test_d_tilde_mit_bag_zero_lambda():
    # lambda=0, xi=1, w=1: sqrt = 1, prefactor pi i/(-2), only the (1,1)
    # entry survives with factor (1+1)(0+1*(1+1)) = 4
    t, u = 0.3, 0.7
    expected = np.zeros((2, 2), dtype=complex)
    expected[0, 0] = np.pi * 1j / (-2.0) * 4.0 * np.exp(-(u + t))
    got = d_tilde_minus1(0.0, t, u, 1.0, 0.0, 1.0)
    assert np.allclose(got, expected, atol=1e-14)
    # cross-check the same value with the contour oracle
    oracle = d_tilde_minus1_contour(0.0, t, u, 1.0, 0.0, 1.0)
    assert np.allclose(oracle, expected, atol=1e-12)


def test_d_tilde_scale_invariance():
    # degree 0 in (1/t, xi, 1/u, lambda): (xi/s, s t, s u, lam/s) fixes it
    rng = np.random.default_rng(59)
    for _ in range(30):
        theta, t, u, xi, lam, w = admissible_sample(rng)
        s = rng.uniform(0.5, 2.5)
        try:
            a = d_tilde_minus1(theta, s * t, s * u, xi / s, lam / s, w)
            b = d_tilde_minus1(theta, t, u, xi, lam, w)
        except BagdetError:
            continue
        assert np.max(np.abs(a - b)) < 1e-11 * max(np.max(np.abs(b)), 1e-14)


def test_compose_order_zero():
    gauge = GaugeField(phi=lambda r: 0.5 * r ** 2, dphi=lambda r: r, R=1.0)
    a_list = [a1_symbol(REP), a0_symbol(REP, gauge, 0.7)]
    c_list = [c_minus1_symbol(REP), c_minus2_symbol(REP, gauge, 0.7)]
    samples = [(0.3, 0.2, 1.1, -0.4, 0.2 + 0.1j),
               (1.7, 0.5, -0.8, 1.3, -0.3 + 0.4j)]
    assert compose_symbols_check(a_list, c_list, 0, samples) < 1e-12


def test_compose_order_minus_one():
    gauge = GaugeField(phi=lambda r: 0.5 * r ** 2, dphi=lambda r: r, R=1.0)
    a_list = [a1_symbol(REP), a0_symbol(REP, gauge, 0.7)]
    c_list = [c_minus1_symbol(REP), c_minus2_symbol(REP, gauge, 0.7)]
    samples = [(0.3, 0.2, 1.1, -0.4, 0.2 + 0.1j),
               (1.7, 0.5, -0.8, 1.3, -0.3 + 0.4j)]
    assert compose_symbols_check(a_list, c_list, -1, samples) < 1e-12


def test_compose_free_operator():
    gauge = GaugeField(phi=lambda r: 0.0, dphi=lambda r: 0.0, R=1.0)
    a_list = [a1_symbol(REP), a0_symbol(REP, gauge, 0.0)]
    c_list = [c_minus1_symbol(REP), c_minus2_symbol(REP, gauge, 0.0)]
    samples = [(0.3, 0.2, 1.1, -0.4, 0.2 + 0.1j)]
    assert compose_symbols_check(a_list, c_list, -1, samples) == 0.0


def test_m_coefficient_constant_symbol():
    const = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
    avg = m_coefficient(
        lambda x, t, xi, tau, lam: np.broadcast_to(const, xi.shape + (2, 2)),
        0.0, 0.1)
    assert np.allclose(avg, const, atol=1e-14)


def test_m_coefficient_disk_average_vanishes():
    gauge = GaugeField(phi=lambda r: 1.0 - r ** 2, dphi=lambda r: -2.0 * r,
                       R=1.0)
    sym = c_minus2_symbol(REP, gauge, 1.0)
    avg = m_coefficient(sym, 0.0, 0.4)
    assert np.max(np.abs(avg)) < 1e-14
    zero_gauge = GaugeField(phi=lambda r: 0.0, dphi=lambda r: 0.0, R=1.0)
    avg0 = m_coefficient(c_minus2_symbol(REP, zero_gauge, 1.0), 0.0, 0.4)
    assert np.max(np.abs(avg0)) == 0.0


def test_angular_average_tau2_minus_xi2():
    # the scalar angular structure of c_{-2} at lambda = 0
    phis = 2 * np.pi * np.arange(512) / 512
    avg = np.mean(np.sin(phis) ** 2 - np.cos(phis) ** 2)
    assert abs(avg) < 1e-14


def test_k_nu_values():
    assert abs(k_nu(2) - (np.log(2.0) - EULER_GAMMA)) < 1e-10
    # psi(2) = 1 - gamma
    assert abs(k_nu(4) - (np.log(2.0) - EULER_GAMMA + 0.5)) < 1e-12


def test_k_nu_recurrence():
    # psi(x + 1) = psi(x) + 1/x gives K_{nu+2} = K_nu + 1/nu
    for nu in range(2, 12):
        assert abs(k_nu(nu + 2) - k_nu(nu) - 1.0 / nu) < 1e-12


def test_k_nu_domain():
    for nu in (1, 0, -3):
        with pytest.raises(ValueError):
            k_nu(nu)


def test_k_nu_bessel_route():
    for nu in (2, 3, 4):
        assert abs(k_nu_bessel(nu) - k_nu(nu)) < 1e-6


def test_gauge_field_validation():
    with pytest.raises(ValueError):
        GaugeField(phi=lambda r: r, dphi=lambda r: 1.0, R=-1.0)
    g = GaugeField(phi=lambda r: r ** 2, dphi=lambda r: 2.0 * r, R=2.0)
    assert g.a_theta(0.5) == -1.0


def test_m_coefficient_makes_one_symbol_call():
    calls = []

    def ev(x, t, xi, tau, lam):
        calls.append(np.shape(xi))
        return c_minus1(REP, xi, tau, lam + 0.4, theta=x)

    avg = m_coefficient(ev, 0.3, 0.2, n_nodes=128)
    assert calls == [(128,)]
    phis = 2 * np.pi * np.arange(128) / 128
    loop = sum(c_minus1(REP, np.cos(p), np.sin(p), 0.4, theta=0.3)
               for p in phis) / 128
    assert np.allclose(avg, loop, rtol=1e-14, atol=1e-15)
    # (xislash - lam)/(lam^2 - 1) averages to -lam/(lam^2 - 1) Id
    assert np.allclose(avg, 0.4 / 0.84 * np.eye(2), rtol=1e-14, atol=1e-15)


def test_m_coefficient_of_a0_is_a0():
    gauge = GaugeField(phi=lambda r: 1.0 - r ** 3, dphi=lambda r: -3.0 * r ** 2,
                       R=1.0)
    sym = a0_symbol(REP, gauge, 0.8)
    assert sym.eval(0.3, 0.2, np.zeros(5), np.ones(5), 0.0).shape == (5, 2, 2)
    assert np.allclose(m_coefficient(sym, 0.3, 0.2),
                       sym.eval(0.3, 0.2, 1.0, 0.0, 0.0), rtol=1e-14, atol=0)
