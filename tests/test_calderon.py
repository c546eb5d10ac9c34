import numpy as np
import pytest

from bagdet.calderon import (BoundaryCondition, chiral_boundary_condition,
                             chiral_obstruction_witness, check_agmon_cone,
                             check_ellipticity, disk_boundary_condition,
                             disk_q_lambda, imaginary_axis_cone,
                             numerical_rank, q_chiral, q_lambda_contour,
                             q_principal)
from bagdet.clifford import make_rep_2d, make_rep_4d_boundary
from bagdet.errors import BranchError, ContourError, DomainError
from bagdet.seeley import decay_root


def tangent_frame(theta):
    n = np.array([np.cos(theta), np.sin(theta)])
    t = np.array([-np.sin(theta), np.cos(theta)])
    return n, t


def test_q_lambda_contour_makes_at_most_one_batched_solve(monkeypatch):
    calls = []
    inner = np.linalg.solve

    def counting(a, b):
        calls.append(np.shape(a))
        return inner(a, b)

    monkeypatch.setattr(np.linalg, "solve", counting)
    q_lambda_contour(0.7, 1.3, 0.4 - 0.3j)
    assert len(calls) <= 1
    assert all(shape == (256, 2, 2) for shape in calls)


def test_q_lambda_contour_batch_rows_equal_scalar_calls(monkeypatch):
    rng = np.random.default_rng(23)
    theta = rng.uniform(0, 2 * np.pi, size=12)
    xi = rng.choice([-1.0, 1.0], size=12) * rng.uniform(0.8, 1.2, size=12)
    lam = rng.uniform(-0.3, 0.3, size=12) + 1j * rng.uniform(-0.3, 0.3, 12)
    calls = []
    inner = np.linalg.solve

    def counting(a, b):
        calls.append(np.shape(a))
        return inner(a, b)

    monkeypatch.setattr(np.linalg, "solve", counting)
    # each row's own circle, then one explicit circle around -i for all
    for circle in (None, (-1j, 0.5)):
        calls.clear()
        batch = q_lambda_contour(theta, xi, lam, circle=circle)
        assert calls == [(256, 12, 2, 2)]
        assert batch.shape == (12, 2, 2)
        for j in range(12):
            one = q_lambda_contour(theta[j], xi[j], lam[j], circle=circle)
            assert np.array_equal(batch[j], one), j
    # a scalar angle broadcasts against the stacked xi and lam
    batch = q_lambda_contour(0.4, xi, lam)
    assert np.array_equal(batch[5], q_lambda_contour(0.4, xi[5], lam[5]))


def test_q_lambda_contour_one_bad_row_fails_the_batch():
    # xi = 1, lam = 0 puts the eigenvalues -+i on the unit circle
    xi = np.array([2.0, 1.0, 3.0])
    with pytest.raises(ContourError):
        q_lambda_contour(0.0, xi, 0.0, circle=(0.0, 1.0))
    q_lambda_contour(0.0, xi[[0, 2]], 0.0, circle=(0.0, 1.0))


def test_q_principal_2d_heaviside():
    rep = make_rep_2d()
    n, t = tangent_frame(0.0)
    assert np.allclose(q_principal(rep, n, 1.0 * t), np.diag([1.0, 0.0]),
                       atol=1e-14)
    assert np.allclose(q_principal(rep, n, -1.0 * t), np.diag([0.0, 1.0]),
                       atol=1e-14)


def test_q_principal_idempotent_and_trace():
    rng = np.random.default_rng(31)
    for rep in (make_rep_2d(), make_rep_4d_boundary()):
        for _ in range(200):
            n = rng.normal(size=rep.nu)
            n /= np.linalg.norm(n)
            xi = rng.normal(size=rep.nu)
            xi -= np.dot(xi, n) * n
            if np.linalg.norm(xi) < 1e-6:
                continue
            q = q_principal(rep, n, xi)
            assert np.max(np.abs(q @ q - q)) < 1e-12
            assert abs(np.trace(q) - rep.k / 2) < 1e-12


def test_q_principal_zero_xi_rejected():
    rep = make_rep_2d()
    with pytest.raises(DomainError):
        q_principal(rep, np.array([1.0, 0.0]), np.array([0.0, 0.0]))


def _frames(rng, rep, count):
    n = rng.normal(size=(count, rep.nu))
    n /= np.linalg.norm(n, axis=-1, keepdims=True)
    xi = rng.normal(size=(count, rep.nu))
    xi -= np.sum(xi * n, axis=-1, keepdims=True) * n
    return n, xi


def test_q_principal_stack_equals_scalar_calls():
    rng = np.random.default_rng(37)
    for rep in (make_rep_2d(), make_rep_4d_boundary()):
        n, xi = _frames(rng, rep, 40)
        stacked = q_principal(rep, n, xi)
        assert stacked.shape == (40, rep.k, rep.k)
        for j in range(40):
            assert np.allclose(stacked[j], q_principal(rep, n[j], xi[j]),
                               rtol=1e-14, atol=0)


@pytest.mark.parametrize("message", ["nonzero", "unit", "orthogonal"])
def test_q_principal_one_bad_row_rejects_the_batch(message):
    rep = make_rep_2d()
    n, xi = _frames(np.random.default_rng(41), rep, 12)
    assert q_principal(rep, n, xi).shape == (12, 2, 2)
    if message == "nonzero":
        xi[7] = 0.0
    elif message == "unit":
        n[7] *= 1.5
    else:
        xi[7] += 0.1 * n[7]
    with pytest.raises(DomainError, match=message):
        q_principal(rep, n, xi)


def test_disk_q_lambda_recovers_projectors_at_zero():
    for theta in (0.0, 0.9, 4.2):
        assert np.allclose(disk_q_lambda(theta, 1.0, 0.0),
                           np.diag([1.0, 0.0]), atol=1e-15)
        assert np.allclose(disk_q_lambda(theta, -1.0, 0.0),
                           np.diag([0.0, 1.0]), atol=1e-15)


def test_disk_q_lambda_imaginary_lambda_value():
    # substitute theta=0, xi=0, lambda=i t: sqrt(0 - (it)^2) = t, so every
    # entry of the closed form becomes 1/2 at t = 1
    q = disk_q_lambda(0.0, 0.0, 1j)
    assert np.allclose(q, 0.5 * np.ones((2, 2)), atol=1e-14)


def test_disk_q_lambda_idempotent():
    rng = np.random.default_rng(8)
    for _ in range(100):
        theta = rng.uniform(0, 2 * np.pi)
        xi = rng.choice([-1, 1]) * rng.uniform(0.4, 3.0)
        lam = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        if abs(xi * xi - lam * lam) < 0.05:
            continue
        q = disk_q_lambda(theta, xi, lam)
        assert np.max(np.abs(q @ q - q)) < 1e-12


def test_disk_q_lambda_branch_cut_rejected():
    with pytest.raises(BranchError):
        disk_q_lambda(0.0, 1.0, 1.0)          # xi^2 = lambda^2
    with pytest.raises(BranchError):
        disk_q_lambda(0.0, 1.0, 2.0)          # xi^2 - lambda^2 < 0


def test_disk_q_lambda_cuts_where_decay_root_does():
    # one cut test for sqrt(xi^2 - lambda^2): just off the cut both give
    # the root with Re s > 0, on it both raise BranchError
    s = decay_root(1.0, 1.0 + 1e-15j)
    assert s.real > 0.0
    q = disk_q_lambda(0.0, 1.0, 1.0 + 1e-15j)
    assert q[0, 0] == (1.0 + s) / (2.0 * s)
    for xi, lam in [(1.0, 1.0), (1.0, 2.0), (0.5, -0.5)]:
        with pytest.raises(BranchError):
            decay_root(xi, lam)
        with pytest.raises(BranchError):
            disk_q_lambda(0.0, xi, lam)


def test_contour_matches_closed_form():
    rng = np.random.default_rng(11)
    for _ in range(40):
        theta = rng.uniform(0, 2 * np.pi)
        xi = rng.choice([-1, 1]) * rng.uniform(0.5, 2.5)
        lam = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        if abs(xi * xi - lam * lam) < 0.1:
            continue
        closed = disk_q_lambda(theta, xi, lam)
        contour = q_lambda_contour(theta, xi, lam)
        assert np.max(np.abs(closed - contour)) < 1e-8


def test_contour_recovers_projector_at_zero():
    q = q_lambda_contour(0.7, 1.0, 0.0)
    assert np.allclose(q, np.diag([1.0, 0.0]), atol=1e-10)


def test_disk_bc_degree_zero_in_xi():
    bc = disk_boundary_condition(0.7 + 0.2j)
    for theta in (0.0, 2.2):
        assert np.array_equal(bc.b(theta, 1.0), bc.b(theta, 2.0))


def test_contour_rejects_eigenvalue_on_circle():
    # eigenvalues are at -+ i sqrt(xi^2 - lam^2) = -+ i for xi=1, lam=0;
    # a circle through -i must be refused
    with pytest.raises(ContourError):
        q_lambda_contour(0.0, 1.0, 0.0, circle=(0.0, 1.0))


def test_disk_q_lambda_and_rank_batch_match_scalar_calls():
    rng = np.random.default_rng(31)
    theta = rng.uniform(0, 2 * np.pi, size=24)
    xi = rng.choice([-1.0, 1.0], size=24) * rng.uniform(0.5, 2.0, size=24)
    lam = rng.uniform(-1, 1, size=24) + 1j * rng.uniform(-1, 1, size=24)
    batch = disk_q_lambda(theta, xi, lam)
    scalar = np.stack([disk_q_lambda(*args) for args in zip(theta, xi, lam)])
    assert batch.shape == (24, 2, 2)
    np.testing.assert_allclose(batch, scalar, rtol=1e-14, atol=0)
    # a stack of ranks 1 (the projectors), 0 and 2
    stack = np.concatenate([batch, np.zeros((1, 2, 2)), np.eye(2)[None]])
    ranks = numerical_rank(stack)
    assert ranks.tolist() == [numerical_rank(m) for m in stack]
    assert ranks.tolist() == [1] * 24 + [0, 2]
    scales = rng.uniform(0.5, 2.0, size=26)
    scales[3] = 0.0
    assert numerical_rank(stack, scale=scales).tolist() == [
        numerical_rank(m, scale=c) for m, c in zip(stack, scales)]
    # one node on the branch cut raises for the batch
    with pytest.raises(BranchError):
        disk_q_lambda(0.0, np.array([1.0, 1.0, 0.5]),
                      np.array([0.2j, 1.0, 0.1]))


def test_check_ellipticity_svd_count_does_not_grow_with_samples(monkeypatch):
    calls = []
    inner = np.linalg.svd

    def counting(*args, **kwargs):
        calls.append(np.shape(args[0]))
        return inner(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    bc = disk_boundary_condition(0.8 + 0.1j)
    counts = []
    for n in (1, 32):
        samples = [(2 * np.pi * j / n, (1.0, -2.0)[j % 2]) for j in range(n)]
        calls.clear()
        report = check_ellipticity(
            bc, lambda th, xi: disk_q_lambda(th, xi, 0.0), samples)
        assert report.passed and len(report.entries) == n
        counts.append(len(calls))
    assert counts[0] == counts[1]


def test_check_ellipticity_makes_one_q_and_one_b_call():
    # every sample in one call each; the ranks are those of the samples
    # taken one at a time
    calls = []
    bc = disk_boundary_condition(0.8 + 0.1j)
    counted = BoundaryCondition(
        b=lambda th, xi: calls.append("b") or bc.b(th, xi))
    samples = [(2 * np.pi * j / 32, (1.0, -2.0)[j % 2]) for j in range(32)]
    report = check_ellipticity(
        counted,
        lambda th, xi: calls.append("q") or disk_q_lambda(th, xi, 0.0),
        samples)
    assert calls == ["q", "b"] and report.passed
    for (th, xi), entry in zip(samples, report.entries):
        q = disk_q_lambda(th, xi, 0.0)
        assert bc.b(th, xi).shape == (1, 2)
        assert entry["rank_bq"] == numerical_rank(bc.b(th, xi) @ q) == 1
    # the chiral block batches over a stack of covectors
    xis = np.array([[0.3, 0.4, 1.0], [0.0, 0.0, -2.0]])
    assert np.array_equal(q_chiral(xis), [q_chiral(v) for v in xis])


def test_ellipticity_disk_passes():
    bc = disk_boundary_condition(1.0)
    samples = [(theta, xi) for theta in np.linspace(0, 2 * np.pi, 6,
                                                    endpoint=False)
               for xi in (1.0, -1.0)]
    report = check_ellipticity(
        bc, lambda th, xi: disk_q_lambda(th, xi, 0.0), samples)
    assert report.passed
    for entry in report.entries:
        assert entry["rank_bq"] == 1 and entry["rank_q"] == 1


def test_ellipticity_zero_row_fails():
    bc = chiral_boundary_condition(0.0, 0.0)
    report = check_ellipticity(
        bc, lambda th, xi: disk_q_lambda(th, xi, 0.0), [(0.0, 1.0)])
    assert not report.passed
    assert report.entries[0]["rank_bq"] == 0


def test_ellipticity_chiral_witness_fails():
    bc = chiral_boundary_condition(1.0, 1.0)
    xi_w = chiral_obstruction_witness(1.0, 1.0)
    report = check_ellipticity(bc, lambda x, xi: q_chiral(xi),
                               [(0.0, xi_w), (0.0, np.array([0.3, 0.4, 1.0]))])
    assert not report.passed
    assert report.entries[0]["rank_bq"] == 0    # witness direction
    assert report.entries[1]["ok"]              # generic direction fine


def test_ellipticity_empty_samples():
    bc = disk_boundary_condition(1.0)
    with pytest.raises(ValueError):
        check_ellipticity(bc, lambda th, xi: disk_q_lambda(th, xi, 0.0), [])


def test_witness_examples():
    # (1,1) -> (-1, 0, 0); (1,0) -> (0,0,-1); (0,1) -> (0,0,1)
    assert np.allclose(chiral_obstruction_witness(1.0, 1.0), [-1, 0, 0])
    assert np.allclose(chiral_obstruction_witness(1.0, 0.0), [0, 0, -1])
    assert np.allclose(chiral_obstruction_witness(0.0, 1.0), [0, 0, 1])
    # for (1,0) the chiral block at the witness has only the lower-right
    # entry, so the row (1,0) annihilates it
    q = q_chiral(np.array([0.0, 0.0, -1.0]))
    assert np.allclose(q, np.diag([0.0, 1.0]), atol=1e-15)
    assert np.max(np.abs(np.array([[1.0, 0.0]]) @ q)) < 1e-15


def test_witness_properties_random():
    rng = np.random.default_rng(23)
    for _ in range(50):
        b1, b2 = rng.uniform(-2, 2, size=2)
        if abs(b1 * b1 + b2 * b2) < 0.1:
            continue
        xi = chiral_obstruction_witness(b1, b2)
        assert abs(np.linalg.norm(xi) - 1.0) < 1e-12
        row = np.array([[b1, b2]]) @ q_chiral(xi)
        assert np.max(np.abs(row)) < 1e-12


def test_witness_degenerate_parameters():
    with pytest.raises(DomainError):
        chiral_obstruction_witness(1.0, 1j)    # beta1^2 + beta2^2 = 0


def test_rank_scalar_invariance():
    rng = np.random.default_rng(4)
    bc_scale = rng.uniform(0.1, 10.0, size=20)
    q = disk_q_lambda(0.3, 1.0, 0.2j)
    b = np.array([[1.0, 0.7 * np.exp(-0.3j)]])
    base = numerical_rank(b @ q, scale=1.0)
    for c in bc_scale:
        assert numerical_rank(c * b @ q, scale=c) == base


def test_agmon_imaginary_cone_passes_for_mit_bag():
    bc = disk_boundary_condition(1.0)
    report = check_agmon_cone(bc, imaginary_axis_cone())
    assert report.condition1_passed and report.condition2_passed


def test_agmon_real_axis_cone_fails_condition1():
    bc = disk_boundary_condition(1.0)
    report = check_agmon_cone(bc, [(0.0, 0.3)])
    assert not report.condition1_passed
    assert report.eigenvalue_witnesses


def test_agmon_w_zero_fails_condition2():
    bc = disk_boundary_condition(0.0)
    report = check_agmon_cone(bc, imaginary_axis_cone())
    assert not report.condition2_passed
    assert report.rank_witnesses
