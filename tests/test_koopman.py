import ast
import inspect
import math
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve
from scipy.optimize import brentq
from scipy.spatial.distance import pdist

from kernelkoop import (
    DegenerateInputError,
    EdmdOperator,
    EstimateMode,
    InvalidArgumentError,
    KernelSpec,
    KoopmanEstimate,
    PendulumConfig,
    PointSet,
    SolveReport,
    TrajectoryDataset,
    edmd_apply,
    edmd_fit,
    empirical_risk,
    eval_kernel,
    fill_distance,
    fit_pullback,
    fit_umf,
    kernel_matrix,
    kernel_sections,
    nested_center_sets,
    observable_G,
    predict,
    simulate,
    solve_spd,
    spectral_diagnostics,
    subselect_centers,
)
from kernelkoop import koopman, linsys
from kernelkoop.io import read_estimate_csv, write_estimate_csv
from kernelkoop.kernels import _MAX_ENTRIES

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
    est = fit_umf(ds, centers, MATERN1, g_at_centers=g, jitter_policy=jitter, diagnostics="exact")
    K = kernel_matrix(MATERN1, centers, centers)
    C = kernel_matrix(MATERN1, centers, est.advanced_centers)
    first = solve_spd(K, g, jitter)
    second = solve_spd(K, C.T @ first.coefficients, jitter)
    for field in fields(SolveReport):
        assert np.array_equal(getattr(est.diagnostics, field.name), getattr(second, field.name))
    assert np.array_equal(est.alpha, second.coefficients)



@pytest.mark.parametrize("n_out", [1, 2, 3])
def test_umf_equals_two_cholesky_solves_byte_for_byte(n_out):
    ds = simulate(PendulumConfig(steps=2000))
    centers = subselect_centers(ds, 0.03)
    x = centers.points
    g = np.column_stack([observable_G(x), np.sin(x[:, 0]), np.cos(x[:, 1])])[:, :n_out]
    factor = cho_factor(kernel_matrix(MATERN1, centers, centers), lower=True)
    C = kernel_matrix(MATERN1, centers, ds.x_next[centers.indices])
    expected = cho_solve(factor, C.T @ cho_solve(factor, g))
    assert fit_umf(ds, centers, MATERN1, g_at_centers=g).alpha.tobytes() == expected.tobytes()


def test_umf_multiplies_in_scipys_blas_not_numpys():
    # the bits of numpy's and scipy's products agree, so only the source can tell them apart
    tree = ast.parse(inspect.getsource(koopman.fit_umf))
    numpy_products = [
        ast.unparse(node) for node in ast.walk(tree)
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult)
        or isinstance(node, ast.Attribute) and node.attr in ("dot", "matmul")
        or isinstance(node, ast.Name) and node.id in ("dot", "matmul")
    ]
    assert numpy_products == []
    assert any(isinstance(node, ast.Name) and node.id == "_product" for node in ast.walk(tree))


def _fit_matern(kind, dataset, centers, **options):
    if kind == "pullback":
        return fit_pullback(dataset, centers, MATERN1, **options)
    g = observable_G(centers.points)[:, None]
    return fit_umf(dataset, centers, MATERN1, g_at_centers=g, **options)


@pytest.mark.parametrize("jitter", ["none", "auto"])
@pytest.mark.parametrize("kind", ["pullback", "umf"])
def test_a_fit_computes_the_spectrum_only_when_asked(monkeypatch, kind, jitter):
    ds = simulate(PendulumConfig(steps=60))
    centers = subselect_centers(ds, 0.3)
    calls = []

    def counted(K):
        calls.append(K)
        return spectral_diagnostics(K)

    monkeypatch.setattr(linsys, "spectral_diagnostics", counted)
    default = _fit_matern(kind, ds, centers, jitter_policy=jitter)
    assert calls == []
    assert math.isnan(default.diagnostics.condition_number)
    assert math.isnan(default.diagnostics.min_eigenvalue)
    exact = _fit_matern(kind, ds, centers, jitter_policy=jitter, diagnostics="exact")
    assert len(calls) == 1
    solved = exact.advanced_centers if kind == "pullback" else centers
    K = kernel_matrix(MATERN1, solved, solved)
    assert calls[0].tobytes() == K.tobytes()
    expected = spectral_diagnostics(K)
    assert exact.diagnostics.condition_number == expected.cond
    assert exact.diagnostics.min_eigenvalue == expected.lambda_min
    assert default.alpha.tobytes() == exact.alpha.tobytes()
    assert default.diagnostics.jitter_used == exact.diagnostics.jitter_used


@pytest.mark.parametrize("kind", ["pullback", "umf"])
def test_a_fit_rejects_an_unknown_diagnostics_mode(kind):
    ds = simulate(PendulumConfig(steps=30))
    centers = subselect_centers(ds, 0.5)
    with pytest.raises(InvalidArgumentError, match="diagnostics must be 'exact' or 'off'"):
        _fit_matern(kind, ds, centers, diagnostics="lanczos")


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


def test_kernel_sections_take_records_as_points():
    ds = simulate(PendulumConfig(steps=40))
    centers = subselect_centers(ds, 0.3)
    assert kernel_sections(MATERN1, centers, ds).tobytes() == kernel_matrix(MATERN1, centers, ds.x).tobytes()
    queries = PointSet(ds.x_next[::3])
    expected = kernel_matrix(MATERN1, centers, queries.points.copy())
    assert kernel_sections(MATERN1, centers, queries).tobytes() == expected.tobytes()
    # the centers as points, as a record or one array twice: the cross matrix, so a repeated
    # center is no error
    repeated = PointSet(np.array([[0.0, 0.0], [0.5, 0.0], [0.0, 0.0]]))
    expected = kernel_matrix(MATERN1, repeated, repeated.points.copy())
    for same in (repeated, repeated.points):
        assert kernel_sections(MATERN1, same, same).tobytes() == expected.tobytes()
    # a 1-D array is still one point
    assert kernel_sections(MATERN1, centers, ds.x[0]).shape == (len(centers), 1)


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


@pytest.mark.parametrize("kernel", [MATERN1, KernelSpec("wendland_c4")], ids=["matern", "c4"])
@pytest.mark.parametrize("query", [[math.nan, 0.0], [math.inf, 0.0]], ids=["nan", "inf"])
def test_non_finite_queries_are_rejected(kernel, query):
    rng = np.random.default_rng(9)
    ds, centers = _random_dataset(rng, 5)
    est = fit_pullback(ds, centers, kernel)
    batch = np.array([[0.5, 0.5], query])
    with pytest.raises(InvalidArgumentError, match="finite"):
        predict(est, batch)
    with pytest.raises(InvalidArgumentError, match="finite"):
        predict(est, query)
    for a, b in ((batch, centers.points), (centers.points, batch)):
        with pytest.raises(InvalidArgumentError, match="finite"):
            kernel_matrix(kernel, a, b)
    with pytest.raises(InvalidArgumentError, match="finite"):
        kernel_matrix(kernel, batch, batch)


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


@pytest.mark.parametrize("n_out", [1, 2])
@pytest.mark.parametrize("mode", list(EstimateMode), ids=lambda m: m.value)
def test_blockwise_predict_matches_the_one_shot_product(mode, n_out):
    m = 40
    ds, centers = _random_dataset(np.random.default_rng(31), m, n_out=n_out, min_gap=0.01)
    if mode is EstimateMode.PULLBACK:
        est, base = fit_pullback(ds, centers, MATERN1), ds.x_next
    else:
        est, base = fit_umf(ds, centers, MATERN1, g_at_centers=ds.y_next), ds.x
    rows = max(8, _MAX_ENTRIES // m // 8 * 8)
    rng = np.random.default_rng(32)
    for count in (1, rows - 1, rows, rows + 1, 2 * rows + 3):
        x = rng.uniform(-0.5, 1.5, size=(count, 2))
        K = kernel_matrix(est.kernel, x, base)
        one_shot = K @ est.alpha
        got = predict(est, x)
        assert got.shape == one_shot.shape
        if count <= rows:
            # one block: the very same call
            assert np.array_equal(got, one_shot), count
        else:
            # BLAS rounds a row differently depending on the shape of the
            # call and its thread split, so two calls agree to within the
            # rounding bound of an m-term dot product each
            bound = 2 * m * np.finfo(float).eps * (np.abs(K) @ np.abs(est.alpha))
            assert np.all(np.abs(got - one_shot) <= bound), count
    assert predict(est, base[0]).shape == (n_out,)
    with pytest.raises(DegenerateInputError):
        predict(est, np.empty((0, 2)))


@pytest.mark.parametrize("kern", [MATERN1, KernelSpec("wendland_c4")], ids=lambda s: s.label)
def test_predict_memory_does_not_grow_with_the_queries(kern):
    rng = np.random.default_rng(9)
    grid = np.stack(np.meshgrid(np.linspace(0, 2, 20), np.linspace(0, 2, 20)), -1).reshape(-1, 2)
    ds = TrajectoryDataset(k=np.arange(400), x=grid, x_next=grid + 0.01, y_next=rng.normal(size=400))
    est = fit_pullback(ds, PointSet(grid.copy(), indices=np.arange(400)), kern)
    queries = rng.uniform(0.0, 2.0, size=(20_000, 2))
    tracemalloc.start()
    try:
        predict(est, queries)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the one-shot 2e4 x 400 kernel matrix alone is 61 MiB
    assert peak < 64 * 2**20


@pytest.mark.parametrize("kind", ["pullback", "umf"])
def test_a_large_fit_holds_at_most_one_more_m_by_m_array_than_k(kind):
    # a 39 x 39 grid at unit spacing: M = 1521, and a well-conditioned Matern Gram
    grid = np.stack(np.meshgrid(np.arange(39.0), np.arange(39.0)), -1).reshape(-1, 2)
    m = len(grid)
    ds = TrajectoryDataset(k=np.arange(m), x=grid, x_next=grid + 0.01, y_next=observable_G(grid + 0.01))
    centers = PointSet(grid.copy(), indices=np.arange(m))
    if kind == "pullback":
        def fit():
            return fit_pullback(ds, centers, MATERN1)
    else:
        def fit():
            return fit_umf(ds, centers, MATERN1, g_at_centers=observable_G(grid))
    tracemalloc.start()
    try:
        fit()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.1 * m * m * 8


# ---------------------------------------------------------------------------
# convergence rate per kernel family

# Nested gates on a 2048-step pendulum: M = 24 ... 225 centers.
RATE_ETAS = (0.4, 0.28, 0.2, 0.14, 0.1, 0.07, 0.05, 0.035)


@pytest.fixture(scope="module")
def rate_levels():
    """The pendulum, all its states and the four finest nested center sets."""
    ds = simulate(PendulumConfig(steps=2048))
    states = np.vstack([ds.x, ds.x_next[-1:]])
    return ds, states, nested_center_sets(ds, RATE_ETAS)[-4:]


@pytest.mark.parametrize(
    "kern, floor",
    [
        (MATERN1, 3.0),
        (KernelSpec("wendland_c2", support_scale=2.0), 3.0),
        (KernelSpec("wendland_c4", support_scale=2.0), 4.5),
        (KernelSpec("wendland_c6", support_scale=2.0), 6.0),
    ],
    ids=lambda v: v.label if isinstance(v, KernelSpec) else None,
)
def test_sup_error_falls_at_the_rate_of_the_kernel_smoothness(rate_levels, kern, floor):
    """Log-log slope of sup error against fill distance over the four finest levels.

    The native spaces are H^tau(R^2) with tau = 2.5, 2.5, 3.5, 4.5 (Wendland,
    Scattered Data Approximation, 2005, ch. 10); on the 1-D orbit the smooth
    target gives slopes near 2 tau - 1.5.  Measured at 2048 / 4096 / 8192
    steps: Matern 3.63 / 3.80 / 4.61, C2 3.75 / 3.79 / 4.34, C4 5.55 / 5.54 /
    6.80, C6 7.23 / 7.21 / 9.14.  A profile coefficient that breaks the
    kernel's smoothness at 0 (C2 4 -> 3, C4 18 -> 17, C6 8 -> 7, or the Matern
    linear term alone scaled by 1.7/sqrt(3)) gives 1.8 to 2.4 at those lengths.
    """
    ds, states, levels = rate_levels
    fills, errors = [], []
    for centers in levels:
        residual = predict(fit_pullback(ds, centers, kern), ds.x_next) - ds.y_next
        fills.append(fill_distance(centers, states))
        errors.append(np.max(np.linalg.norm(residual, axis=1)))
    slope = np.polyfit(np.log(fills), np.log(errors), 1)[0]
    assert slope > floor, slope


@pytest.mark.parametrize(
    "kern, floor",
    [
        (MATERN1, 3.0),
        (KernelSpec("wendland_c2", support_scale=2.0), 3.0),
        (KernelSpec("wendland_c4", support_scale=2.0), 4.5),
        (KernelSpec("wendland_c6", support_scale=2.0), 6.0),
    ],
    ids=lambda v: v.label if isinstance(v, KernelSpec) else None,
)
def test_projected_sup_error_falls_at_the_rate_of_the_kernel_smoothness(rate_levels, kern, floor):
    """The same slope for the projected estimator P_X U_f P_X G against G o f.

    Measured at 2048 steps: Matern 4.21, C2 4.39, C4 6.34, C6 8.17; the four
    profile mutations of the pullback test above give 2.0 to 2.3.
    """
    ds, states, levels = rate_levels
    fills, errors = [], []
    for centers in levels:
        est = fit_umf(ds, centers, kern, g_at_centers=observable_G(centers.points))
        fills.append(fill_distance(centers, states))
        errors.append(np.max(np.abs(predict(est, ds.x)[:, 0] - observable_G(ds.x_next))))
    slope = np.polyfit(np.log(fills), np.log(errors), 1)[0]
    assert slope > floor, slope


_TWO = PointSet(np.array([[0.0, 0.0], [1.0, 0.0]]), indices=[0, 1])


def _two_center_estimate(alpha=np.ones((2, 1))):
    return KoopmanEstimate(
        EstimateMode.PULLBACK, _TWO, _TWO, alpha, MATERN1, SolveReport(np.ones((2, 1)), 1.0, 1.0)
    )


@pytest.mark.parametrize(
    "call, message",
    [
        (
            lambda: TrajectoryDataset(
                k=[0, 1], x=[[0.0, 0.0], [1.0, 0.0]], x_next=[0.0, 1.0], y_next=[0.0, 1.0]
            ),
            "x and x_next must share dimension",
        ),
        (
            lambda: KoopmanEstimate(
                EstimateMode.PULLBACK, _TWO, PointSet([[0.0, 0.0]]), np.ones((2, 1)), MATERN1,
                SolveReport(np.ones((2, 1)), 1.0, 1.0),
            ),
            "centers, advanced centers and coefficient rows must agree",
        ),
        (
            lambda: fit_pullback(
                simulate(PendulumConfig(steps=10)), PointSet([[9.0, 9.0]], indices=[0]), MATERN1
            ),
            "center coordinates disagree with dataset states",
        ),
        (lambda: empirical_risk([1.0, 2.0], [1.0]), "shape mismatch: (2,) vs (1,)"),
        (lambda: empirical_risk(1.0, 1.0), "samples must be 1-D or 2-D, got shape ()"),
        (lambda: empirical_risk([math.inf], [math.inf]), "targets and predictions must be finite"),
        (lambda: empirical_risk([[0.0, 1.0]], [[math.nan, 1.0]]), "targets and predictions must be finite"),
        (lambda: empirical_risk(["a"], [1.0]), "targets must be a rectangular array of real numbers"),
        (
            lambda: edmd_fit(np.ones((2, 3)), np.ones((2, 4))),
            "basis evaluation matrices must share shape, got (2, 3) and (2, 4)",
        ),
        (
            lambda: edmd_apply(EdmdOperator(np.eye(2), _TWO, MATERN1), [1.0, 2.0, 3.0], [0.0, 0.0]),
            "g_coeffs must have length 2, got 3",
        ),
        (
            lambda: predict(_two_center_estimate(), ["a", "b"]),
            "queries must be a rectangular array of real numbers",
        ),
        (
            lambda: predict(_two_center_estimate(), np.array([1 + 2j, 0.0])),
            "queries must be a rectangular array of real numbers",
        ),
        (lambda: predict(_two_center_estimate(), [[0.0, 0.0], [math.nan, 0.0]]), "queries must be finite"),
        (
            lambda: edmd_fit([["a"]], [["b"]]),
            "basis evaluation matrices must be a rectangular array of real numbers",
        ),
        (
            lambda: edmd_fit(np.eye(2), np.array([[1 + 2j, 0.0], [0.0, 1.0]])),
            "basis evaluation matrices must be a rectangular array of real numbers",
        ),
        (
            lambda: edmd_apply(EdmdOperator(np.eye(2), _TWO, MATERN1), [math.nan, 1.0], [0.0, 0.0]),
            "g_coeffs must be finite",
        ),
        (
            lambda: edmd_apply(
                EdmdOperator(np.eye(2), _TWO, MATERN1), [1.0, 1.0], np.array([1 + 2j, 0.0])
            ),
            "x must be a rectangular array of real numbers",
        ),
        (
            lambda: kernel_sections(MATERN1, _TWO, ["a", "b"]),
            "kernel points must be a rectangular array of real numbers",
        ),
        (
            lambda: fit_umf(
                *_random_dataset(np.random.default_rng(4), 6), MATERN1, g_at_centers=1.0
            ),
            "g_at_centers must be 1-D or 2-D, got shape ()",
        ),
        (lambda: _two_center_estimate(alpha=1.0), "alpha must be 1-D or 2-D, got shape ()"),
    ],
    ids=[
        "state-dimension",
        "estimate-rows",
        "center-coordinates",
        "risk-shape",
        "risk-scalar",
        "risk-infinite",
        "risk-nan",
        "risk-text",
        "edmd-shape",
        "edmd-coefficients",
        "predict-text",
        "predict-complex",
        "predict-nan",
        "edmd-text",
        "edmd-complex",
        "edmd-apply-nan-coefficients",
        "edmd-apply-complex-point",
        "sections-text",
        "umf-scalar-g",
        "estimate-scalar-alpha",
    ],
)
def test_koopman_argument_errors(call, message):
    with pytest.raises(InvalidArgumentError) as err:
        call()
    assert str(err.value) == message


@pytest.mark.parametrize(
    "advanced, message",
    [
        (PointSet([[0.0, 0.0, 1.0], [1.0, 0.0, 1.0]], indices=[0, 1]),
         "centers and advanced centers must share dimension"),
        (PointSet([[0.0, 1.0], [1.0, 1.0]], indices=[5, 6]),
         "centers and advanced centers must carry equal indices"),
        (PointSet([[0.0, 1.0], [1.0, 1.0]]), "centers and advanced centers must carry equal indices"),
        # the row count is checked first, whatever else differs
        (PointSet([[0.0, 0.0, 1.0]], indices=[5]),
         "centers, advanced centers and coefficient rows must agree"),
    ],
    ids=["dimension", "indices", "indices-and-none", "rows-first"],
)
def test_estimate_requires_paired_centers(advanced, message):
    report = SolveReport(np.ones((2, 1)), 1.0, 1.0)
    with pytest.raises(InvalidArgumentError) as err:
        KoopmanEstimate(EstimateMode.PULLBACK, _TWO, advanced, report.coefficients, MATERN1, report)
    assert str(err.value) == message


@pytest.mark.parametrize("indices, written", [([5, 6], [5, 6]), (None, [0, 1])], ids=["indexed", "unindexed"])
def test_hand_built_estimate_round_trips_its_paired_centers(tmp_path, indices, written):
    centers = PointSet([[0.0, 0.0], [1.0, 0.0]], indices=indices)
    advanced = PointSet([[0.5, 0.25], [1.5, 0.25]], indices=indices)
    report = SolveReport(np.array([[1.0], [-2.0]]), 1.0, 1.0)
    estimate = KoopmanEstimate(EstimateMode.PULLBACK, centers, advanced, report.coefficients, MATERN1, report)
    path = tmp_path / "estimate.csv"
    write_estimate_csv(path, estimate)
    back = read_estimate_csv(path)
    assert back.centers.indices.tolist() == back.advanced_centers.indices.tolist() == written
    assert back.centers.points.tobytes() == centers.points.tobytes()
    assert back.advanced_centers.points.tobytes() == advanced.points.tobytes()


def _estimate_with_a_nan_coefficient(path):
    ds = simulate(PendulumConfig(steps=30))
    write_estimate_csv(path, fit_pullback(ds, subselect_centers(ds, 0.5), MATERN1))
    lines = path.read_text().splitlines()
    body = next(i for i, line in enumerate(lines) if line.startswith("idx")) + 1
    lines[body] = ",".join(lines[body].split(",")[:-1] + ["nan"])
    path.write_text("\n".join(lines) + "\n")
    return read_estimate_csv(path)


def _with_nan(values, index):
    out = np.array(values, dtype=float)
    out[index] = np.nan
    return out


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda tmp: solve_spd(np.eye(3), [1.0, np.nan, 0.0]), "rhs must be finite"),
        (
            lambda tmp: fit_umf(*_random_dataset(np.random.default_rng(4), 6), MATERN1,
                                g_at_centers=_with_nan(np.ones(6), 2)),
            "rhs must be finite",
        ),
        (
            lambda tmp: _estimate_with_a_nan_coefficient(tmp / "estimate.csv"),
            "coefficients must be finite",
        ),
        (
            lambda tmp: edmd_fit(_with_nan(np.eye(3), (1, 2)), np.eye(3)),
            "basis evaluation matrices must be finite",
        ),
    ],
    ids=["solve-rhs", "umf-g", "estimate-csv", "edmd-basis"],
)
def test_non_finite_solve_and_estimate_inputs_fail_loudly(tmp_path, call, message):
    with pytest.raises(InvalidArgumentError) as err:
        call(tmp_path)
    assert str(err.value) == message


def test_a_result_past_the_float_range_is_inf_without_a_warning():
    assert empirical_risk([1e200], [-1e200]) == math.inf
    op = EdmdOperator(np.eye(2), _TWO, MATERN1)
    assert edmd_apply(op, [1.7e308, 1.7e308], [0.5, 0.0]) == math.inf
