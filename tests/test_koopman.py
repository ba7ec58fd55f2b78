import math
from dataclasses import fields

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.spatial.distance import pdist

from kernelkoop import (
    DegenerateInputError,
    EstimateMode,
    InvalidArgumentError,
    KernelSpec,
    PendulumConfig,
    PointSet,
    SolveReport,
    TrajectoryDataset,
    edmd_apply,
    edmd_fit,
    empirical_risk,
    eval_kernel,
    fit_pullback,
    fit_umf,
    kernel_matrix,
    kernel_sections,
    observable_G,
    predict,
    simulate,
    solve_spd,
    subselect_centers,
)

MATERN1 = KernelSpec("matern_sobolev32", beta=1.0)
ALL_KERNELS = [
    MATERN1,
    KernelSpec("wendland_c2"),
    KernelSpec("wendland_c4"),
    KernelSpec("wendland_c6"),
]


def _random_dataset(rng, m, n_out=1, min_gap=0.08):
    """States and advanced states in the unit square, well separated."""
    def sample():
        while True:
            pts = rng.uniform(0.0, 1.0, size=(m, 2))
            if m < 2 or pdist(pts).min() > min_gap:
                return pts

    x = sample()
    x_next = sample()
    y_next = rng.normal(size=(m, n_out))
    ds = TrajectoryDataset(k=np.arange(m), x=x, x_next=x_next, y_next=y_next)
    centers = PointSet(x.copy(), indices=np.arange(m))
    return ds, centers


# ---------------------------------------------------------------------------
# TrajectoryDataset


def test_dataset_from_records_and_validation():
    ds = TrajectoryDataset(
        k=[0, 1], x=[[0.0, 1.0], [0.1, 1.1]], x_next=[[0.1, 1.1], [0.2, 1.2]], y_next=[2.0, 2.1]
    )
    assert len(ds) == 2
    assert ds.state_dim == 2 and ds.output_dim == 1
    with pytest.raises(DegenerateInputError):
        TrajectoryDataset(k=[], x=np.empty((0, 2)), x_next=np.empty((0, 2)), y_next=[])
    with pytest.raises(InvalidArgumentError):
        TrajectoryDataset(k=[0, 1], x=[[0.0]], x_next=[[0.1], [0.2]], y_next=[[1.0], [1.0]])


@pytest.mark.parametrize("field", ["x", "x_next", "y_next"])
def test_dataset_rejects_non_finite_values(field):
    arrays = {"x": [[0.0], [0.1]], "x_next": [[0.1], [0.2]], "y_next": [[1.0], [2.0]]}
    arrays[field][1][0] = math.nan
    with pytest.raises(DegenerateInputError):
        TrajectoryDataset(k=[0, 1], **arrays)


def test_dataset_rejects_duplicate_time_indices():
    with pytest.raises(DegenerateInputError):
        TrajectoryDataset(
            k=[3, 5, 3], x=[0.0, 0.1, 0.2], x_next=[0.1, 0.2, 0.3], y_next=[1.0, 2.0, 3.0]
        )


def test_sequential_dataset_chains():
    ds = simulate(PendulumConfig(steps=50))
    assert np.array_equal(ds.x_next[:-1], ds.x[1:])


# ---------------------------------------------------------------------------
# pullback interpolant


def test_pullback_single_center():
    ds = TrajectoryDataset(k=[0], x=[[0.2, 0.3]], x_next=[[0.4, 0.1]], y_next=[[5.5]])
    centers = PointSet(np.array([[0.2, 0.3]]), indices=[0])
    est = fit_pullback(ds, centers, MATERN1)
    assert est.mode is EstimateMode.PULLBACK
    assert np.allclose(est.alpha, [[5.5]])
    assert predict(est, [0.4, 0.1])[0] == pytest.approx(5.5, abs=1e-12)


@pytest.mark.parametrize("kern", ALL_KERNELS, ids=lambda s: s.label)
def test_pullback_interpolates_training_outputs(kern):
    rng = np.random.default_rng(42)
    ds, centers = _random_dataset(rng, 12, n_out=2)
    est = fit_pullback(ds, centers, kern)
    preds = predict(est, ds.x_next)
    assert np.max(np.abs(preds - ds.y_next)) < 1e-8


def test_pullback_two_center_closed_form():
    ds = simulate(PendulumConfig(steps=2))
    centers = subselect_centers(ds, 1e-9)
    assert len(centers) == 2
    est = fit_pullback(ds, centers, MATERN1)
    K = kernel_matrix(MATERN1, est.advanced_centers, est.advanced_centers)
    c = K[0, 1]
    det = 1.0 - c * c
    inv = np.array([[1.0, -c], [-c, 1.0]]) / det
    expected = inv @ ds.y_next
    np.testing.assert_allclose(est.alpha, expected, rtol=1e-12)


def test_pullback_rejects_duplicate_advanced_centers():
    ds = TrajectoryDataset(
        k=[0, 1],
        x=[[0.0, 0.0], [1.0, 1.0]],
        x_next=[[0.5, 0.5], [0.5, 0.5]],
        y_next=[[1.0], [2.0]],
    )
    centers = PointSet(np.array([[0.0, 0.0], [1.0, 1.0]]), indices=[0, 1])
    with pytest.raises(DegenerateInputError):
        fit_pullback(ds, centers, MATERN1)


def test_squared_convention_fit_fails_cleanly():
    from kernelkoop import NotPositiveDefiniteError

    ds = simulate(PendulumConfig())
    centers = subselect_centers(ds, 0.232)
    squared = KernelSpec("matern_sobolev32", beta=1.0, distance_convention="squared")
    with pytest.raises(NotPositiveDefiniteError):
        fit_pullback(ds, centers, squared)


def test_center_lookup_errors():
    ds = simulate(PendulumConfig(steps=10))
    bad = PointSet(np.array([[0.0, 2.0]]), indices=[99])
    with pytest.raises(InvalidArgumentError):
        fit_pullback(ds, bad, MATERN1)
    anon = PointSet(np.array([[0.0, 2.0]]))
    with pytest.raises(InvalidArgumentError):
        fit_pullback(ds, anon, MATERN1)


# ---------------------------------------------------------------------------
# projected estimator


def test_umf_single_center_scalar_chain():
    ds = TrajectoryDataset(k=[0], x=[[0.0, 0.0]], x_next=[[0.3, 0.4]], y_next=[[0.0]])
    centers = PointSet(np.array([[0.0, 0.0]]), indices=[0])
    g = np.array([[2.0]])
    est = fit_umf(ds, centers, MATERN1, g_at_centers=g)
    k_cross = eval_kernel(MATERN1, [0.0, 0.0], [0.3, 0.4])
    assert est.alpha[0, 0] == pytest.approx(k_cross * 2.0, rel=1e-12)
    assert predict(est, [0.0, 0.0])[0] == pytest.approx(k_cross * 2.0, rel=1e-12)


@pytest.mark.parametrize("kern", ALL_KERNELS, ids=lambda s: s.label)
def test_umf_identity_dynamics_reduces_to_interpolation(kern):
    rng = np.random.default_rng(17)
    pts = rng.uniform(0.0, 1.0, size=(8, 2))
    while pdist(pts).min() < 0.1:
        pts = rng.uniform(0.0, 1.0, size=(8, 2))
    g = rng.normal(size=(8, 1))
    ds = TrajectoryDataset(k=np.arange(8), x=pts, x_next=pts.copy(), y_next=np.zeros((8, 1)))
    centers = PointSet(pts.copy(), indices=np.arange(8))
    est = fit_umf(ds, centers, kern, g_at_centers=g)
    np.testing.assert_allclose(predict(est, pts), g, atol=1e-8)


@pytest.mark.parametrize("jitter", ["none", "auto", 1e-9])
def test_umf_diagnostics_are_the_second_solve_report(jitter):
    ds = simulate(PendulumConfig(steps=60))
    centers = subselect_centers(ds, 0.3)
    g = observable_G(centers.points)[:, None]
    est = fit_umf(ds, centers, MATERN1, g_at_centers=g, jitter_policy=jitter)
    K = kernel_matrix(MATERN1, centers, centers)
    C = kernel_matrix(MATERN1, centers, est.advanced_centers)
    first = solve_spd(K, g, jitter)
    second = solve_spd(K, C.T @ first.coefficients, jitter)
    for field in fields(SolveReport):
        assert np.array_equal(getattr(est.diagnostics, field.name), getattr(second, field.name))
    assert np.array_equal(est.alpha, second.coefficients)


def test_umf_requires_g_at_centers():
    ds = simulate(PendulumConfig(steps=10))
    centers = PointSet(ds.x[[2, 5]].copy(), indices=[2, 5])
    with pytest.raises(TypeError):
        fit_umf(ds, centers, MATERN1)
    with pytest.raises(InvalidArgumentError):
        fit_umf(ds, centers, MATERN1, g_at_centers=np.zeros((3, 1)))


# ---------------------------------------------------------------------------
# least-squares operator


def test_edmd_scalar_least_squares():
    op = edmd_fit(np.array([[2.0]]), np.array([[4.0]]))
    assert op.A[0, 0] == pytest.approx(2.0, rel=1e-14)
    assert op.residual == pytest.approx(0.0, abs=1e-12)
    assert not op.rank_deficient


def test_edmd_identity_minimizer():
    rng = np.random.default_rng(23)
    psi = rng.normal(size=(4, 9))
    op = edmd_fit(psi, psi)
    np.testing.assert_allclose(op.A, np.eye(4), atol=1e-10)


def test_edmd_rank_deficient_warns_minimum_norm():
    psi = np.array([[1.0, 1.0], [1.0, 1.0]])
    with pytest.warns(RuntimeWarning):
        op = edmd_fit(psi, psi)
    assert op.rank_deficient and op.rank == 1
    # minimum-norm solution of A [1;1] = [1;1] per column
    np.testing.assert_allclose(op.A, np.full((2, 2), 0.5), atol=1e-12)


def test_edmd_apply_trivial_operators():
    rng = np.random.default_rng(31)
    centers = PointSet(rng.uniform(size=(5, 2)), indices=np.arange(5))
    coeffs = rng.normal(size=5)
    x = rng.uniform(size=2)
    psi = kernel_sections(MATERN1, centers, x)[:, 0]
    op_id = edmd_fit(np.eye(5), np.eye(5), basis_centers=centers, kernel=MATERN1)
    assert edmd_apply(op_id, coeffs, x) == pytest.approx(float(coeffs @ psi), rel=1e-12)
    op_zero = edmd_fit(np.eye(5), np.zeros((5, 5)), basis_centers=centers, kernel=MATERN1)
    assert edmd_apply(op_zero, coeffs, x) == pytest.approx(0.0, abs=1e-14)


def test_edmd_apply_scalar_product():
    # place the query so the single kernel section evaluates to 0.5,
    # then 3 * 2 * 0.5 = 3
    a = math.sqrt(3.0)
    r_half = brentq(lambda r: (1 + a * r) * math.exp(-a * r) - 0.5, 0.1, 5.0)
    centers = PointSet(np.array([[0.0]]), indices=[0])
    op = edmd_fit(np.array([[2.0]]), np.array([[4.0]]), basis_centers=centers, kernel=MATERN1)
    value = edmd_apply(op, np.array([3.0]), np.array([r_half]))
    assert value == pytest.approx(3.0, rel=1e-10)


def test_edmd_apply_requires_basis():
    op = edmd_fit(np.array([[2.0]]), np.array([[4.0]]))
    with pytest.raises(InvalidArgumentError):
        edmd_apply(op, np.array([1.0]), np.array([0.0]))


def test_edmd_apply_rejects_a_batch_of_points():
    rng = np.random.default_rng(31)
    centers = PointSet(rng.uniform(size=(5, 2)), indices=np.arange(5))
    op = edmd_fit(np.eye(5), np.eye(5), basis_centers=centers, kernel=MATERN1)
    coeffs = rng.normal(size=5)
    x = rng.uniform(size=(3, 2))
    with pytest.raises(InvalidArgumentError, match="one point"):
        edmd_apply(op, coeffs, x)
    assert edmd_apply(op, coeffs, x[:1]) == edmd_apply(op, coeffs, x[0])


def test_edmd_equals_projected_estimator_on_pendulum():
    from kernelkoop import observable_G

    ds = simulate(PendulumConfig())
    centers = subselect_centers(ds, 0.6)
    g = observable_G(centers.points)[:, None]
    est = fit_umf(ds, centers, MATERN1, g_at_centers=g)
    op = edmd_fit(
        kernel_sections(MATERN1, centers, ds.x[_rows(ds, centers)]),
        kernel_sections(MATERN1, centers, est.advanced_centers.points),
        basis_centers=centers,
        kernel=MATERN1,
    )
    K = kernel_matrix(MATERN1, centers, centers)
    g_coeffs = solve_spd(K, g[:, 0]).coefficients
    rng = np.random.default_rng(55)
    queries = rng.uniform([-1.7, -2.0], [1.7, 2.0], size=(50, 2))
    umf_vals = predict(est, queries)[:, 0]
    edmd_vals = np.array([edmd_apply(op, g_coeffs, q) for q in queries])
    assert np.max(np.abs(umf_vals - edmd_vals)) < 1e-8


def _rows(ds, centers):
    return np.array([int(np.flatnonzero(ds.k == t)[0]) for t in centers.indices])


@pytest.mark.parametrize("kern", ALL_KERNELS, ids=lambda s: s.label)
def test_edmd_equals_projected_estimator(kern):
    rng = np.random.default_rng(97)
    for m in (3, 6):
        ds, centers = _random_dataset(rng, m)
        g = rng.normal(size=(m, 1))
        est = fit_umf(ds, centers, kern, g_at_centers=g)
        K = kernel_matrix(kern, centers, centers)
        op = edmd_fit(
            kernel_sections(kern, centers, ds.x),
            kernel_sections(kern, centers, ds.x_next),
            basis_centers=centers,
            kernel=kern,
        )
        g_coeffs = solve_spd(K, g[:, 0]).coefficients
        queries = rng.uniform(-0.2, 1.2, size=(50, 2))
        umf_vals = predict(est, queries)[:, 0]
        edmd_vals = np.array([edmd_apply(op, g_coeffs, q) for q in queries])
        assert np.max(np.abs(umf_vals - edmd_vals)) < 1e-8


# ---------------------------------------------------------------------------
# risk and prediction


def test_empirical_risk_examples():
    assert empirical_risk([[1.0, 2.0]], [[1.0, 2.0]]) == 0.0
    assert empirical_risk([[1.0, 0.0]], [[0.0, 0.0]]) == 1.0
    assert empirical_risk([1.0, 2.0], [1.0, 1.0]) == pytest.approx(0.5)
    with pytest.raises(DegenerateInputError):
        empirical_risk(np.empty((0, 1)), np.empty((0, 1)))


def test_pullback_training_risk_is_zero():
    ds = simulate(PendulumConfig(steps=64))
    centers = subselect_centers(ds, 0.4)
    est = fit_pullback(ds, centers, MATERN1)
    rows = [int(np.flatnonzero(ds.k == t)[0]) for t in centers.indices]
    targets = ds.y_next[rows]
    preds = predict(est, ds.x_next[rows])
    risk = empirical_risk(targets, preds)
    assert risk <= 1e-16 * float(np.mean(np.sum(targets**2, axis=1)))


def test_all_samples_as_centers_interpolates_everywhere():
    ds = simulate(PendulumConfig())
    gap = float(pdist(ds.x).min())
    centers = subselect_centers(ds, gap * 0.5)
    assert len(centers) == len(ds)
    est = fit_pullback(ds, centers, MATERN1)
    sup_error = np.max(np.abs(predict(est, ds.x_next) - ds.y_next))
    assert sup_error <= 1e-8


def test_predict_trivial_cases():
    center = np.array([[0.3, -0.2]])
    cs = PointSet(center.copy(), indices=[0])
    ds = TrajectoryDataset(k=[0], x=center, x_next=center + 0.1, y_next=[[1.0]])
    est = fit_pullback(ds, cs, MATERN1)
    # alpha = [1] here, and K(c, c) = 1 at the expansion center
    assert predict(est, est.advanced_centers.points[0])[0] == pytest.approx(1.0, abs=1e-14)
    ds0 = TrajectoryDataset(k=[0], x=center, x_next=center + 0.1, y_next=[[0.0]])
    est0 = fit_pullback(ds0, cs, MATERN1)
    assert np.array_equal(predict(est0, [0.0, 0.0]), np.zeros(1))


def test_predict_compact_support_far_query_is_zero_vector():
    rng = np.random.default_rng(5)
    ds, centers = _random_dataset(rng, 6)
    est = fit_pullback(ds, centers, KernelSpec("wendland_c4"))
    far = np.array([50.0, 50.0])
    assert np.array_equal(predict(est, far), np.zeros(1))


def test_predict_batch_shape_and_dim_check():
    rng = np.random.default_rng(8)
    ds, centers = _random_dataset(rng, 5, n_out=3)
    est = fit_pullback(ds, centers, MATERN1)
    out = predict(est, rng.uniform(size=(7, 2)))
    assert out.shape == (7, 3)
    with pytest.raises(InvalidArgumentError):
        predict(est, [0.0, 0.0, 0.0])


def test_predict_permutation_invariance():
    rng = np.random.default_rng(77)
    ds, centers = _random_dataset(rng, 10, n_out=2)
    est = fit_pullback(ds, centers, MATERN1)
    perm = rng.permutation(10)
    ds_perm = TrajectoryDataset(
        k=ds.k[perm], x=ds.x[perm], x_next=ds.x_next[perm], y_next=ds.y_next[perm]
    )
    centers_perm = PointSet(ds.x[perm].copy(), indices=ds.k[perm])
    est_perm = fit_pullback(ds_perm, centers_perm, MATERN1)
    queries = rng.uniform(size=(20, 2))
    np.testing.assert_allclose(
        predict(est, queries), predict(est_perm, queries), atol=1e-10
    )
