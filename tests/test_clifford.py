import numpy as np

from bagdet.clifford import (gamma_t, make_rep_2d, make_rep_4d_boundary,
                             polar_gammas, slash)

ATOL = 1e-14


def test_rep_2d_exact_matrices():
    rep = make_rep_2d()
    assert rep.nu == 2 and rep.k == 2
    assert np.array_equal(rep.gammas[0], np.array([[0, 1], [1, 0]]))
    assert np.array_equal(rep.gammas[1], np.array([[0, -1j], [1j, 0]]))
    assert np.array_equal(rep.gamma5, np.array([[1, 0], [0, -1]]))


def test_rep_2d_gamma5_product():
    rep = make_rep_2d()
    assert np.array_equal(rep.gamma5, -1j * rep.gammas[0] @ rep.gammas[1])


def test_rep_2d_pauli_products():
    # gamma_mu gamma_nu = delta_{mu nu} I + i eps_{mu nu} gamma5
    rep = make_rep_2d()
    eye = np.eye(2)
    g0, g1 = rep.gammas
    assert np.allclose(g0 @ g1, 1j * rep.gamma5, rtol=0, atol=ATOL)
    assert np.allclose(g1 @ g0, -1j * rep.gamma5, rtol=0, atol=ATOL)
    assert np.allclose(g0 @ g0, eye, rtol=0, atol=ATOL)


def test_anticommutation_both_reps():
    for rep in (make_rep_2d(), make_rep_4d_boundary()):
        eye = np.eye(rep.k)
        for i in range(rep.nu):
            for j in range(rep.nu):
                a, b = rep.gammas[i], rep.gammas[j]
                ac = a @ b + b @ a
                expected = 2.0 * eye if i == j else np.zeros((rep.k, rep.k))
                assert np.max(np.abs(ac - expected)) < ATOL, (rep.nu, i, j)


def test_rep_4d_block_structure():
    rep = make_rep_4d_boundary()
    gn = rep.gammas[0]
    assert np.array_equal(gn[:2, 2:], 1j * np.eye(2))
    assert np.array_equal(gn[2:, :2], -1j * np.eye(2))
    # direct multiplication oracle: gamma_n squared
    assert np.allclose(gn @ gn, np.eye(4), rtol=0, atol=ATOL)
    for g in rep.gammas[1:]:
        assert abs(np.trace(g)) < ATOL


def test_rep_4d_gamma5_anticommutes():
    rep = make_rep_4d_boundary()
    for g in rep.gammas:
        assert np.max(np.abs(rep.gamma5 @ g + g @ rep.gamma5)) < ATOL


def test_polar_frame_at_zero():
    rep = make_rep_2d()
    gr, gth = polar_gammas(0.0)
    assert np.allclose(gr, rep.gammas[0], rtol=0, atol=ATOL)
    assert np.allclose(gth, rep.gammas[1], rtol=0, atol=ATOL)


def test_polar_frame_at_half_pi():
    # substituting theta = pi/2: e^{-i pi/2} = -i, e^{i pi/2} = i
    gr, _ = polar_gammas(np.pi / 2)
    expected = np.array([[0.0, -1j], [1j, 0.0]])
    assert np.allclose(gr, expected, rtol=0, atol=ATOL)
    assert np.allclose(gr, make_rep_2d().gammas[1], rtol=0, atol=ATOL)


def test_polar_frame_properties():
    rng = np.random.default_rng(17)
    eye = np.eye(2)
    for theta in rng.uniform(-10, 10, size=100):
        gr, gth = polar_gammas(theta)
        assert np.allclose(gr @ gr, eye, rtol=0, atol=ATOL)
        assert np.allclose(gth @ gth, eye, rtol=0, atol=ATOL)
        assert np.max(np.abs(gr @ gth + gth @ gr)) < ATOL
        for g in (gr, gth):
            # hermitian and unitary
            assert np.allclose(g, g.conj().T, rtol=0, atol=ATOL)
            assert np.allclose(g @ g.conj().T, eye, rtol=0, atol=ATOL)


def test_gamma_t_is_minus_radial():
    for theta in (0.0, 1.1, -2.7):
        gr, _ = polar_gammas(theta)
        assert np.allclose(gamma_t(theta), -gr, rtol=0, atol=ATOL)


def test_slash_contraction():
    rep = make_rep_2d()
    v = np.array([0.3, -1.2])
    expected = 0.3 * rep.gammas[0] - 1.2 * rep.gammas[1]
    assert np.allclose(slash(rep.gammas, v), expected, rtol=0, atol=ATOL)


def test_slash_stack_equals_scalar_calls():
    rng = np.random.default_rng(3)
    for rep in (make_rep_2d(), make_rep_4d_boundary()):
        vectors = rng.normal(size=(5, 3, rep.nu))
        stacked = slash(rep.gammas, vectors)
        assert stacked.shape == (5, 3, rep.k, rep.k)
        for idx in np.ndindex(5, 3):
            assert np.allclose(stacked[idx], slash(rep.gammas, vectors[idx]),
                               rtol=1e-14, atol=0)

