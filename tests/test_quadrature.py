import numpy as np
import pytest

from bagdet.errors import AccuracyError
from bagdet.quadrature import (circle_mean, contour_closed,
                               integrate_adaptive, integrate_gauss_legendre,
                               j2_over_u_integral)


def test_rational_halfline_integral():
    # antiderivative of mu/(mu^2+1)^2 is -1/(2 (mu^2+1)), so the value is 1/2
    res = integrate_adaptive(lambda m: m / (m * m + 1.0) ** 2, 0.0, np.inf)
    assert abs(res.value - 0.5) < 1e-10
    assert res.abs_error_estimate < 1e-8
    assert res.nodes_used > 0


def test_zero_integrand():
    res = integrate_adaptive(lambda u: 0.0, 0.0, 1.0)
    assert res.value == 0.0


def test_complex_integrand():
    res = integrate_adaptive(lambda t: np.exp(1j * t), 0.0, np.pi)
    assert abs(res.value - (np.sin(np.pi) + 1j * (1 - np.cos(np.pi)))) < 1e-12


def test_nonconvergence_raises_with_estimate():
    f = lambda x: np.sin(1.0 / (x + 1e-12)) / np.sqrt(x + 1e-12)
    with pytest.raises(AccuracyError) as err:
        integrate_adaptive(f, 0.0, 1.0, tol=1e-13, limit=3)
    assert err.value.estimate is not None


def test_contour_residue_one():
    val = contour_closed(lambda z: 1.0 / z, 0.0, 1.0, orientation=1, n=128)
    assert abs(val - 2j * np.pi) < 1e-12


def test_contour_no_enclosed_pole():
    val = contour_closed(lambda z: 1.0 / (z - 5.0), 0.0, 1.0, n=128)
    assert abs(val) < 1e-12


def test_contour_orientation_flip():
    cw = contour_closed(lambda z: 1.0 / z, 0.0, 1.0, orientation=-1, n=128)
    assert abs(cw + 2j * np.pi) < 1e-12


def test_contour_doubling_stability():
    f = lambda z: 1.0 / (z - 0.3) + z ** 2
    v1 = contour_closed(f, 0.0, 1.0, n=64)
    v2 = contour_closed(f, 0.0, 1.0, n=128)
    assert abs(v1 - v2) < 1e-12


def test_contour_spectral_convergence():
    # error ratio between n and 2n nodes must collapse for analytic f
    f = lambda z: 1.0 / (z - 0.5)
    exact = 2j * np.pi
    e8 = abs(contour_closed(f, 0.0, 1.0, n=12) - exact)
    e16 = abs(contour_closed(f, 0.0, 1.0, n=24) - exact)
    assert e16 < 1e-3 * max(e8, 1e-30) or e16 < 1e-14


def test_contour_matrix_valued():
    mat = np.array([[0.0, 1.0], [2.0, 0.0]], dtype=complex)
    val = contour_closed(lambda z: mat / z[:, None, None], 0.0, 2.0, n=64)
    assert np.allclose(val, 2j * np.pi * mat, atol=1e-12)


def test_contour_receives_all_nodes_at_once():
    calls = []

    def f(z):
        calls.append(z.shape)
        return 1.0 / z

    contour_closed(f, 0.0, 1.0, n=48)
    assert calls == [(48,)]


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
def test_contour_rejects_one_nonfinite_node(bad):
    def f(z):
        vals = np.ones((z.size, 2, 2), dtype=complex)
        vals[17, 1, 0] = bad
        return vals

    with pytest.raises(ValueError, match="not finite"):
        contour_closed(f, 0.0, 1.0, n=32)


def test_gauss_legendre_polynomial_exactness():
    val = integrate_gauss_legendre(lambda x: x ** 7 - 2 * x ** 3 + 1, -1.0,
                                   2.0, n=8)
    exact = (2.0 ** 8 - 1.0) / 8 - 2 * (2.0 ** 4 - 1.0) / 4 + 3.0
    assert abs(val - exact) < 1e-12


def test_gauss_legendre_gets_all_nodes_in_one_call():
    calls = []

    def f(x):
        calls.append(np.shape(x))
        return np.exp(x)

    val = integrate_gauss_legendre(f, 0.0, 1.0, n=16)
    assert calls == [(16,)]
    assert abs(val - (np.e - 1.0)) < 1e-14


def test_circle_mean_gets_all_angles_in_one_call():
    calls = []

    def f(phi):
        calls.append(np.shape(phi))
        c = np.cos(phi)
        return np.stack([c ** 2, c ** 4, np.sin(3 * phi)], axis=-1)

    mean = circle_mean(f, 64)
    assert calls == [(64,)]
    assert np.allclose(mean, [0.5, 0.375, 0.0], rtol=0, atol=1e-15)


def test_j2_over_u_full_integral():
    # int_0^inf J_2(u)/u du = 1/2; small split plus O(split^2) cutoff error
    res = j2_over_u_integral(1e-5)
    assert abs(res.value - 0.5) < 1e-8


def test_determinism():
    f = lambda m: m / (m * m + 1.0) ** 2
    a = integrate_adaptive(f, 0.0, np.inf)
    b = integrate_adaptive(f, 0.0, np.inf)
    assert a.value == b.value and a.nodes_used == b.nodes_used
    c1 = contour_closed(lambda z: 1.0 / z, 0.0, 1.0, n=64)
    c2 = contour_closed(lambda z: 1.0 / z, 0.0, 1.0, n=64)
    assert c1 == c2
