import numpy as np

from bagdet.clifford import (anticommutator, gamma_t, make_rep_2d,
                             make_rep_4d_boundary, mats_close, polar_gammas,
                             slash)

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
    assert mats_close(rep.gammas[0] @ rep.gammas[1], 1j * rep.gamma5, ATOL)
    assert mats_close(rep.gammas[1] @ rep.gammas[0], -1j * rep.gamma5, ATOL)
    assert mats_close(rep.gammas[0] @ rep.gammas[0], eye, ATOL)


def test_anticommutation_both_reps():
    for rep in (make_rep_2d(), make_rep_4d_boundary()):
        eye = np.eye(rep.k)
        for i in range(rep.nu):
            for j in range(rep.nu):
                ac = anticommutator(rep.gammas[i], rep.gammas[j])
                expected = 2.0 * eye if i == j else np.zeros((rep.k, rep.k))
                assert np.max(np.abs(ac - expected)) < ATOL, (rep.nu, i, j)


def test_rep_4d_block_structure():
    rep = make_rep_4d_boundary()
    gn = rep.gammas[0]
    assert np.array_equal(gn[:2, 2:], 1j * np.eye(2))
    assert np.array_equal(gn[2:, :2], -1j * np.eye(2))
    # direct multiplication oracle: gamma_n squared
    assert mats_close(gn @ gn, np.eye(4), ATOL)
    for g in rep.gammas[1:]:
        assert abs(np.trace(g)) < ATOL


def test_rep_4d_gamma5_anticommutes():
    rep = make_rep_4d_boundary()
    for g in rep.gammas:
        assert np.max(np.abs(anticommutator(rep.gamma5, g))) < ATOL


def test_polar_frame_at_zero():
    rep = make_rep_2d()
    gr, gth = polar_gammas(0.0)
    assert mats_close(gr, rep.gammas[0], ATOL)
    assert mats_close(gth, rep.gammas[1], ATOL)


def test_polar_frame_at_half_pi():
    # substituting theta = pi/2: e^{-i pi/2} = -i, e^{i pi/2} = i
    gr, _ = polar_gammas(np.pi / 2)
    expected = np.array([[0.0, -1j], [1j, 0.0]])
    assert mats_close(gr, expected, ATOL)
    assert mats_close(gr, make_rep_2d().gammas[1], ATOL)


def test_polar_frame_properties():
    rng = np.random.default_rng(17)
    eye = np.eye(2)
    for theta in rng.uniform(-10, 10, size=100):
        gr, gth = polar_gammas(theta)
        assert mats_close(gr @ gr, eye, ATOL)
        assert mats_close(gth @ gth, eye, ATOL)
        assert np.max(np.abs(anticommutator(gr, gth))) < ATOL
        for g in (gr, gth):
            assert mats_close(g, g.conj().T, ATOL)          # hermitian
            assert mats_close(g @ g.conj().T, eye, ATOL)     # unitary


def test_gamma_t_is_minus_radial():
    for theta in (0.0, 1.1, -2.7):
        gr, _ = polar_gammas(theta)
        assert mats_close(gamma_t(theta), -gr, ATOL)


def test_slash_contraction():
    rep = make_rep_2d()
    v = np.array([0.3, -1.2])
    expected = 0.3 * rep.gammas[0] - 1.2 * rep.gammas[1]
    assert mats_close(slash(rep.gammas, v), expected, ATOL)


def test_slash_stack_equals_scalar_calls():
    rng = np.random.default_rng(3)
    for rep in (make_rep_2d(), make_rep_4d_boundary()):
        vectors = rng.normal(size=(5, 3, rep.nu))
        stacked = slash(rep.gammas, vectors)
        assert stacked.shape == (5, 3, rep.k, rep.k)
        for idx in np.ndindex(5, 3):
            assert np.allclose(stacked[idx], slash(rep.gammas, vectors[idx]),
                               rtol=1e-14, atol=0)


def test_mats_close_tolerance():
    a = np.eye(2)
    assert mats_close(a, a + 1e-13, 1e-12)
    assert not mats_close(a, a + 1e-11, 1e-12)
    assert not mats_close(a, np.eye(3))
