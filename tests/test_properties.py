"""Property tests of the shared paths: kernel profiles, Gram assembly, batch predict,
time-index lookup, the integer rule for time indices, the greedy center gate,
interpolation exactness, the projected estimator against the least-squares operator,
the CSV round trips and the joint-angle kernel."""

import math
from dataclasses import astuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.linalg import solve_triangular
from scipy.spatial.distance import cdist, pdist, squareform

import kernelkoop.geometry
import kernelkoop.kernels
from conftest import column_bits, reference_joint_angles, reference_subselect, reference_table
from kernelkoop import (
    DegenerateInputError,
    DistanceConvention,
    EstimateMode,
    InvalidArgumentError,
    KernelFamily,
    KernelSpec,
    KoopmanEstimate,
    MarkerFrame,
    PendulumConfig,
    PointSet,
    SolveReport,
    TrajectoryDataset,
    edmd_apply,
    edmd_fit,
    eta_for_center_count,
    eval_kernel,
    extract_angles,
    fill_distance,
    fit_pullback,
    fit_umf,
    joint_angles,
    kernel_matrix,
    kernel_sections,
    nested_center_sets,
    predict,
    project_sagittal,
    separation,
    simulate,
    solve_spd,
    subselect_centers,
)
from kernelkoop.io import (
    read_estimate_csv,
    read_pointset_csv,
    read_trajectory_csv,
    write_estimate_csv,
    write_pointset_csv,
    write_rows_csv,
    write_trajectory_csv,
)
from kernelkoop.kernels import _integers, _profile
from kernelkoop.koopman import _rows_at_times

# `gated_states` draws trajectories of up to max_blocks * _BLOCK + 17 states.
_BLOCK = 256

FEW = settings(max_examples=25, deadline=None, database=None, derandomize=True)

coords = st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False)
point_sets = st.tuples(st.integers(1, 12), st.integers(1, 3)).flatmap(
    lambda shape: arrays(np.float64, shape, elements=coords)
)
kernels = st.one_of(
    st.builds(KernelSpec, st.just("matern_sobolev32"), beta=st.floats(0.2, 5.0)),
    st.builds(
        KernelSpec,
        st.sampled_from(["wendland_c2", "wendland_c4", "wendland_c6"]),
        support_scale=st.floats(0.3, 2.0),
    ),
)


@FEW
@given(st.one_of(kernels, st.just(KernelSpec("matern", distance_convention="squared"))), point_sets)
def test_gram_matches_pointwise_kernel_and_cross_path(spec, pts):
    assume(len(pts) < 2 or pdist(pts).min() > 0)
    K = kernel_matrix(spec, pts, pts)
    assert np.array_equal(K, K.T)
    # the diagonal is the 0-d profile at distance 0
    assert _profile(spec, np.float64(0.0)) == 1.0
    assert np.all(np.diag(K) == 1.0)
    assert K.tobytes() == kernel_matrix(spec, pts, pts.copy()).tobytes()
    expected = [[eval_kernel(spec, a, b) for b in pts] for a in pts]
    assert K.tobytes() == np.array(expected).tobytes()


@settings(FEW, max_examples=60)
@given(
    st.one_of(kernels, st.just(KernelSpec("matern", distance_convention="squared"))),
    st.tuples(st.integers(2, 40), st.integers(1, 3)).flatmap(
        lambda shape: arrays(np.float64, shape, elements=coords, unique=True)
    ),
)
@example(KernelSpec("wendland_c4"), np.linspace(0.0, 2.0, 16)[:, None])  # two full panels
@example(KernelSpec("matern"), np.linspace(0.0, 2.0, 17)[:, None])  # and one row past them
def test_panel_gram_and_separation_have_the_bits_of_pdist(spec, pts):
    dist = pdist(pts)
    assume(dist.min() > 0)
    expected = squareform(_profile(spec, dist))
    np.fill_diagonal(expected, _profile(spec, np.float64(0.0)))
    with mock.patch.object(kernelkoop.kernels, "_MAX_ENTRIES", 8):  # panels of 8 rows
        assert kernel_matrix(spec, pts, pts).tobytes() == expected.tobytes()
        assert separation(pts) == 0.5 * dist.min()


@settings(FEW, max_examples=40)
@given(
    kernels,
    st.tuples(st.integers(2, 40), st.integers(1, 3), st.integers(1, 3)).flatmap(
        lambda s: st.tuples(
            arrays(np.float64, s[:2], elements=coords),
            _float_block((s[0] + 2) // 3, s[2]),  # finite coefficients, edge values too
        )
    ),
)
@example(KernelSpec("wendland_c4"), (np.linspace(0.0, 2.0, 33)[:, None], np.ones((11, 2))))
def test_predict_and_fill_keep_their_bits_with_a_helper(spec, case):
    pts, alpha = case
    centers = PointSet(pts[::3])
    estimate = KoopmanEstimate(
        EstimateMode.PULLBACK, centers, centers, alpha, spec, SolveReport(alpha, 1.0, 1.0)
    )

    def sweeps():
        # coefficients near the float64 limit overflow a row's sum to inf, and inf - inf is NaN
        with np.errstate(over="ignore", invalid="ignore"):
            return predict(estimate, pts).tobytes(), fill_distance(centers, pts)

    with mock.patch.object(kernelkoop.kernels, "_MAX_ENTRIES", 8):  # blocks of 8 rows
        with mock.patch.object(kernelkoop.kernels, "_shares", lambda: False):
            alone = sweeps()
        with mock.patch.object(kernelkoop.kernels, "_shares", lambda: True):
            assert sweeps() == alone


# The truncated Wendland polynomials evaluated on every entry, as a dense formula.
_DENSE_WENDLAND = {
    "wendland_c2": lambda d, t: t**4 * (4.0 * d + 1.0),
    "wendland_c4": lambda d, t: t**6 * (35.0 * d * d + 18.0 * d + 3.0) / 3.0,
    "wendland_c6": lambda d, t: t**8 * (32.0 * d**3 + 25.0 * d * d + 8.0 * d + 1.0),
}
# the support edge and its neighbours, in units of the support scale; NaN stays NaN
_EDGES = np.array([0.0, np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0), 1.5, 40.0, np.nan])
distances = arrays(
    np.float64, st.tuples(st.integers(0, 6), st.integers(1, 6)), elements=st.floats(0.0, 4.0)
)


@FEW
@given(st.sampled_from(sorted(_DENSE_WENDLAND)), st.floats(0.3, 2.0), distances)
def test_masked_wendland_profile_equals_the_dense_polynomial(family, scale, r):
    spec = KernelSpec(family, support_scale=scale)
    for spec, dist in ((spec, r), (spec, scale * _EDGES), (KernelSpec(family), _EDGES)):
        d = dist / spec.support_scale
        dense = _DENSE_WENDLAND[family](d, np.maximum(1.0 - d, 0.0))
        assert _profile(spec, dist).tobytes() == dense.tobytes()


@FEW
@given(st.floats(0.2, 5.0), st.sampled_from(list(DistanceConvention)), distances)
def test_in_place_matern_profile_equals_the_closed_form(beta, convention, r):
    spec = KernelSpec("matern_sobolev32", beta=beta, distance_convention=convention)
    arg = r if convention is DistanceConvention.PLAIN else r * r
    a = math.sqrt(3.0) / beta
    assert _profile(spec, r).tobytes() == ((1.0 + a * arg) * np.exp(-a * arg)).tobytes()


@FEW
@given(
    st.sampled_from(list(KernelFamily)),
    st.sampled_from(list(DistanceConvention)),
    st.floats(0.2, 5.0),
    distances,
)
def test_profile_written_into_its_input_has_the_bits_of_a_new_array(family, convention, scale, r):
    spec = KernelSpec(family, beta=scale, support_scale=scale, distance_convention=convention)
    for dist in (r, np.append(scale * _EDGES, [np.inf, 1e200])):
        kept = dist.copy()
        expected = _profile(spec, dist)
        assert dist.tobytes() == kept.tobytes()  # without out, the input is left as it is
        assert _profile(spec, dist, out=dist) is dist
        assert dist.tobytes() == expected.tobytes()
        assert _profile(spec, kept, out=np.empty_like(kept)).tobytes() == expected.tobytes()


@st.composite
def separated_points(draw, gap=0.1):
    """(M, d) points in [0, 2]^d, pairwise farther apart than ``gap``: random states
    passed through the greedy gate."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    states = rng.uniform(0.0, 2.0, size=(draw(st.integers(1, 30)), draw(st.integers(1, 3))))
    return subselect_centers(states, gap).points


def _affine_dataset(points, y):
    """One record per point, advanced by x -> 0.8 x + 0.1, which keeps the points apart."""
    return TrajectoryDataset(k=np.arange(len(points)), x=points, x_next=0.8 * points + 0.1, y_next=y)


def _solve_bound(m, cond, scale):
    """c * cond * eps * scale with c = 4 M: the backward error of an M x M Cholesky
    solve, amplified by the condition number."""
    return 4 * m * cond * np.finfo(float).eps * scale


@FEW
@given(kernels, separated_points(), st.data())
def test_pullback_interpolates_within_the_conditioning_bound(spec, points, data):
    y = data.draw(arrays(np.float64, (len(points), 2), elements=st.floats(-10.0, 10.0)))
    dataset = _affine_dataset(points, y)
    estimate = fit_pullback(dataset, PointSet(points, indices=dataset.k), spec, diagnostics="exact")
    residual = predict(estimate, estimate.advanced_centers.points) - y
    cond = estimate.diagnostics.condition_number
    assert np.linalg.norm(residual) <= _solve_bound(len(points), cond, np.linalg.norm(y))


@FEW
@given(kernels, separated_points(), st.data())
def test_projected_estimator_equals_the_least_squares_operator(spec, points, data):
    g = data.draw(arrays(np.float64, (len(points), 1), elements=st.floats(-10.0, 10.0)))
    dataset = _affine_dataset(points, g)
    centers = PointSet(points, indices=dataset.k)
    estimate = fit_umf(dataset, centers, spec, g_at_centers=g, diagnostics="exact")
    op = edmd_fit(
        kernel_sections(spec, centers, dataset.x),
        kernel_sections(spec, centers, dataset.x_next),
        basis_centers=centers,
        kernel=spec,
    )
    g_coeffs = solve_spd(kernel_matrix(spec, centers, centers), g[:, 0]).coefficients
    queries = np.random.default_rng(len(points)).uniform(-0.2, 2.2, size=(5, centers.dim))
    umf = predict(estimate, queries)[:, 0]
    edmd = np.array([edmd_apply(op, g_coeffs, q) for q in queries])
    # each value is sum_i alpha_i K(c_i, q) with |K| <= 1, so the coefficient
    # error of the two solves reaches it at most through the l1 norm of alpha
    cond = estimate.diagnostics.condition_number
    bound = _solve_bound(len(points), cond, np.abs(estimate.alpha).sum())
    assert np.max(np.abs(umf - edmd)) <= bound


@FEW
@given(kernels, separated_points(), st.integers(0, 2**32 - 1))
def test_interpolation_error_is_bounded_by_the_power_function(spec, X, seed):
    """|g - s_X g|(x) <= P_X(x) ||g||_H for g in the native space (Wendland 2005, Thm 11.4),
    with g = sum_j c_j K(., z_j), ||g||_H^2 = c^T K_Z c and
    P_X(x)^2 = K(x, x) - k_X(x)^T K_X^-1 k_X(x), where K(x, x) = 1 for every family."""
    rng = np.random.default_rng(seed)
    n, dim = X.shape
    Z = rng.uniform(0.0, 2.0, size=(rng.integers(1, 5), dim))
    c = rng.uniform(-1.0, 1.0, size=len(Z))
    Q = rng.uniform(-0.5, 2.5, size=(50, dim))
    L = np.linalg.cholesky(kernel_matrix(spec, X, X))
    W = solve_triangular(L, kernel_matrix(spec, X, Q), lower=True)  # L^-1 k_X(x), per column
    b = solve_triangular(L, kernel_matrix(spec, X, Z) @ c, lower=True)
    p2 = 1.0 - np.einsum("iq,iq->q", W, W)
    err = np.abs(kernel_matrix(spec, Q, Z) @ c - W.T @ b)
    norm2 = c @ kernel_matrix(spec, Z, Z) @ c
    # Rounding slack, to first order (Higham, Accuracy and Stability, 2002, ch. 8 and 10).
    # Every kernel value is off by at most 16 eps (|K| <= 1).  Cholesky and the two
    # triangular solves return the exact result for K_X + E with |E| <= 3 n eps |L||L^T|
    # entrywise; a unit diagonal bounds the entries of |L||L^T| by 1, so, with the
    # kernel errors, ||E||_2 <= e_K = (3 n^2 + 16 n) eps.  With u = K_X^-1 k_X(x) and
    # a = K_X^-1 g(X):
    # - p2 moves by -u^T E u, plus 2 u^T f for the error f of k_X(x) (||f|| <= 16 sqrt(n)
    #   eps) and n eps for the sum of squares: at most e_K (1 + |u|)^2;
    # - g(x) and each entry of g(X) carry e_g = (16 + m) eps sum|c| for m = len(Z), and
    #   s_X g(x) = k_X(x)^T a moves by f^T a - u^T E a + u^T dg(X): the error moves by at
    #   most e_K (1 + |u|) |a| + (1 + sqrt(n) |u|) e_g;
    # - norm2 moves by at most e_g sum|c|.
    # Each term is doubled to cover the second-order ones.
    eps = np.finfo(float).eps
    e_K = (3 * n * n + 16 * n) * eps
    e_g = (16 + len(Z)) * eps * np.abs(c).sum()
    u = np.linalg.norm(solve_triangular(L.T, W, lower=False), axis=0)
    a = np.linalg.norm(solve_triangular(L.T, b, lower=False))
    p2_slack = 2 * e_K * (1 + u) ** 2
    err_slack = 2 * (e_K * (1 + u) * a + (1 + math.sqrt(n) * u) * e_g)
    bound = np.sqrt(np.maximum(p2 + p2_slack, 0.0) * (norm2 + 2 * e_g * np.abs(c).sum()))
    assert np.all(err <= bound + err_slack)


_DATA = simulate(PendulumConfig(steps=60))
_ESTIMATE = fit_pullback(_DATA, subselect_centers(_DATA, 0.3), KernelSpec("matern_sobolev32"))


@FEW
@given(arrays(np.float64, st.tuples(st.integers(1, 8), st.just(2)), elements=coords))
def test_batch_predict_equals_per_point_predict(queries):
    batch = predict(_ESTIMATE, queries)
    single = np.array([predict(_ESTIMATE, q) for q in queries])
    np.testing.assert_allclose(batch, single, rtol=1e-12, atol=1e-14)


@FEW
@given(st.lists(st.integers(-50, 50), min_size=1, max_size=30, unique=True), st.data())
def test_time_index_lookup_matches_a_dict(k, data):
    k = np.array(k)
    m = len(k)
    dataset = TrajectoryDataset(k=k, x=np.arange(m), x_next=np.arange(m) + 0.5, y_next=np.zeros(m))
    times = np.array(data.draw(st.lists(st.integers(-60, 60), min_size=1, max_size=20)))
    rows, found = _rows_at_times(dataset, times)
    lookup = {int(t): i for i, t in enumerate(k)}
    assert found.tolist() == [int(t) in lookup for t in times]
    assert rows[found].tolist() == [lookup[int(t)] for t in times if int(t) in lookup]


_INT_DTYPES = [np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64]
_INT64_FLOATS = st.floats(-(2.0**63), 2.0**63, exclude_max=True).map(lambda v: float(np.floor(v)))


@st.composite
def index_arrays(draw):
    """A scalar or 1-D array of int64-range values: any integer dtype, or integral floats."""
    shape = draw(st.sampled_from([(), (0,), (1,), (7,)]))
    dtype = draw(st.sampled_from(_INT_DTYPES + [np.float64, np.float32]))
    if dtype in _INT_DTYPES:
        info = np.iinfo(dtype)
        elements = st.integers(int(info.min), min(int(info.max), 2**63 - 1))
    elif dtype is np.float32:
        elements = st.floats(-(2.0**63), 2.0**63, exclude_max=True, width=32).map(np.floor)
    else:
        elements = _INT64_FLOATS
    return draw(arrays(dtype, shape, elements=elements))


@FEW
@given(index_arrays())
def test_integer_rule_returns_every_int64_value_exactly(values):
    out = _integers(values, "k")
    assert out.dtype == np.int64 and out.shape == values.shape
    assert np.reshape(out, -1).tolist() == [int(v) for v in np.reshape(values, -1).tolist()]


_BAD_FLOATS = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 0.5, 1e300, 2.0**63, -(2.0**64)]),
    st.floats(allow_nan=False, allow_infinity=False).filter(lambda v: v != math.floor(v)),
    st.floats(2.0**63, 1e308),
    st.floats(-1e308, -(2.0**63), exclude_max=True),
)


@st.composite
def bad_index_arrays(draw):
    """(values, first bad value): a float or uint64 array with one value that is not an
    integer in the int64 range, or a bool or text array, whose every value is bad."""
    kind = draw(st.sampled_from(["float", "uint64", "bool", "text"]))
    n = draw(st.integers(1, 7))
    if kind == "bool":
        values = draw(arrays(np.bool_, n))
        return values, values.tolist()[0]
    if kind == "text":
        values = np.array(draw(st.lists(st.text(max_size=3), min_size=n, max_size=n)))
        return values, values.tolist()[0]
    if kind == "float":
        values = draw(arrays(np.float64, n, elements=_INT64_FLOATS))
        bad = draw(_BAD_FLOATS)
    else:
        values = draw(arrays(np.uint64, n, elements=st.integers(0, 2**63 - 1)))
        bad = draw(st.integers(2**63, 2**64 - 1))
    i = draw(st.integers(0, n - 1))
    values[i] = bad
    return values, values[i].item()


@FEW
@given(bad_index_arrays())
def test_integer_rule_rejects_every_other_value_naming_the_first(case):
    values, bad = case
    with pytest.raises(InvalidArgumentError) as err:
        _integers(values, "k")
    assert str(err.value) == f"k must be integers in the int64 range, got {bad!r}"


@st.composite
def gated_states(draw, max_blocks=3, grid=None):
    """(states, eta): a random walk, or a dyadic grid whose distances often equal eta.

    ``grid`` True or False picks one of the two; None draws it.
    """
    d = draw(st.integers(1, 6))
    m = draw(st.integers(1, max_blocks * _BLOCK + 17))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if grid is None:
        grid = draw(st.booleans())
    if grid:
        states = rng.integers(-4, 5, size=(m, d)) * 0.25
        eta = draw(st.sampled_from([0.25, 0.5, 0.75, 1.0]))
    else:
        states = np.cumsum(rng.normal(scale=0.2, size=(m, d)), axis=0)
        eta = draw(st.floats(0.05, 1.5))
    return states, eta


@FEW
@given(gated_states(), st.data())
def test_subselect_equals_the_per_state_loop(case, data):
    states, eta = case
    seed = None
    if data.draw(st.booleans()):
        # seed with the centers of a coarser gate on a prefix, as nesting does
        prefix = states[: data.draw(st.integers(1, len(states)))]
        points, kept = reference_subselect(prefix, 2.0 * eta)
        seed = PointSet(points, indices=kept)
    centers = subselect_centers(states, eta, seed_centers=seed)
    points, kept = reference_subselect(states, eta, seed)
    assert centers.points.tobytes() == points.tobytes()
    assert centers.indices.tolist() == kept.tolist()


@FEW
@given(gated_states(grid=True), st.sampled_from([1.0, -1.0]), st.sampled_from([0, 10, 30]), st.data())
def test_subselect_strips_keep_the_ties_on_their_edges_far_from_the_origin(case, sign, k, data):
    # the shift by 2**k is exact on the quarter grid, so a distance equal to eta stays equal
    # to it, and the strip of a state at first coordinate p0 must reach exactly p0 +- eta
    states, eta = case
    states = states + sign * 2.0**k
    seed = None
    if data.draw(st.booleans()):
        points, kept = reference_subselect(states[: data.draw(st.integers(1, len(states)))], 2.0 * eta)
        seed = PointSet(points, indices=kept)
    centers = subselect_centers(states, eta, seed_centers=seed)
    points, kept = reference_subselect(states, eta, seed)
    assert centers.points.tobytes() == points.tobytes()
    assert centers.indices.tolist() == kept.tolist()


@FEW
@given(gated_states(max_blocks=2), st.lists(st.floats(0.05, 2.0), min_size=1, max_size=4, unique=True))
def test_nested_levels_with_one_strip_equal_subselect_per_level(case, etas):
    states, _ = case
    etas = sorted(etas, reverse=True)
    seed = None
    for eta, level in zip(etas, nested_center_sets(states, etas)):
        seed = subselect_centers(states, eta, seed_centers=seed)
        assert level.points.tobytes() == seed.points.tobytes()
        assert level.indices.tolist() == seed.indices.tolist()


@FEW
@given(gated_states(max_blocks=1), st.data())
def test_bisection_steps_with_one_strip_equal_subselect(case, data):
    states, _ = case
    count = data.draw(st.integers(1, len(states)))
    greedy = kernelkoop.geometry._greedy
    steps = []

    def recorded(states, indices, strip, eta, seeds):
        centers = greedy(states, indices, strip, eta, seeds)
        steps.append((eta, centers))
        return centers

    with mock.patch.object(kernelkoop.geometry, "_greedy", recorded):
        try:
            eta_for_center_count(states, count)
        except DegenerateInputError:  # repeated states, or a count the gate jumps past
            pass
    assert steps
    for eta, centers in steps:
        expected = subselect_centers(states, eta)
        assert centers.points.tobytes() == expected.points.tobytes()
        assert centers.indices.tolist() == expected.indices.tolist()


@FEW
@given(gated_states())
def test_subselect_covers_every_state_and_separates_centers(case):
    states, eta = case
    centers = subselect_centers(states, eta)
    assert np.all(cdist(states, centers.points).min(axis=1) <= eta)
    if len(centers) > 1:
        assert pdist(centers.points).min() > eta


@FEW
@given(gated_states(max_blocks=2), st.lists(st.floats(0.05, 2.0), min_size=1, max_size=4, unique=True))
def test_nested_levels_are_prefixes(case, etas):
    states, _ = case
    sets = nested_center_sets(states, sorted(etas, reverse=True))
    for small, large in zip(sets, sets[1:]):
        assert np.array_equal(large.points[: len(small)], small.points)
        assert np.array_equal(large.indices[: len(small)], small.indices)


# Floats whose text form is easy to get wrong: signed zero, subnormals, the
# extremes of float64 and values that repr prints in e-notation.
EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
               -1.7976931348623157e308, 1e-05, 1e16, 0.1, 1 / 3]
finite = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False))


def _float_block(m, n):
    return arrays(np.float64, (m, n), elements=finite)


@st.composite
def trajectories(draw):
    m, d, n = draw(st.integers(1, 12)), draw(st.integers(1, 3)), draw(st.integers(1, 2))
    k = draw(st.lists(st.integers(-2**62, 2**62), min_size=m, max_size=m, unique=True))
    return TrajectoryDataset(
        k=np.array(k), x=draw(_float_block(m, d)), x_next=draw(_float_block(m, d)),
        y_next=draw(_float_block(m, n)),
    )


def _bits(a):
    return a.dtype.str, a.shape, a.tobytes()


def _assert_table_matches_oracle(path, rows):
    """The file past its comment block is what the per-cell formatter writes."""
    table = "".join(ln for ln in path.read_text().splitlines(True) if not ln.startswith("#"))
    assert table == reference_table(table.split("\n", 1)[0].split(","), rows)


@FEW
@given(trajectories())
def test_trajectory_csv_round_trip_is_bit_exact(tmp_path_factory, ds):
    path = tmp_path_factory.mktemp("traj") / "trajectory.csv"
    write_trajectory_csv(path, ds, {"command": "simulate"})
    back = read_trajectory_csv(path)
    for name in ("k", "x", "x_next", "y_next"):
        assert _bits(getattr(back, name)) == _bits(getattr(ds, name)), name
    _assert_table_matches_oracle(path, [
        [int(ds.k[i])] + list(ds.x[i]) + list(ds.x_next[i]) + list(ds.y_next[i])
        for i in range(len(ds))
    ])


@FEW
@given(st.tuples(st.integers(1, 10), st.integers(1, 3)).flatmap(
    lambda shape: st.tuples(_float_block(*shape), st.lists(
        st.integers(0, 2**62), min_size=shape[0], max_size=shape[0]))
))
def test_pointset_csv_round_trip_is_bit_exact(tmp_path_factory, case):
    points, indices = case
    ps = PointSet(points, indices=np.array(indices))
    path = tmp_path_factory.mktemp("points") / "points.csv"
    write_pointset_csv(path, ps)
    back = read_pointset_csv(path)
    assert _bits(back.points) == _bits(ps.points)
    assert _bits(back.indices) == _bits(ps.indices)
    _assert_table_matches_oracle(path, [[int(i)] + list(p) for i, p in zip(ps.indices, ps.points)])


positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
any_kernel = st.builds(
    KernelSpec,
    st.sampled_from(list(KernelFamily)),
    beta=positive,
    support_scale=positive,
    distance_convention=st.sampled_from(list(DistanceConvention)),
)
_ONE_POINT = (np.zeros((1, 1)), np.ones((1, 1)), np.ones((1, 1)), [1.0, 1.0, 0.0])


@FEW
@given(st.tuples(st.integers(1, 10), st.integers(1, 3), st.integers(1, 2)).flatmap(
    lambda s: st.tuples(_float_block(s[0], s[1]), _float_block(s[0], s[1]),
                        _float_block(s[0], s[2]), st.lists(finite, min_size=3, max_size=3))
), any_kernel)
@example(_ONE_POINT, KernelSpec("matern", beta=0.35, distance_convention="squared"))
@example(_ONE_POINT, KernelSpec("wendland_c6", beta=1 / 3, support_scale=5e-324))
def test_estimate_csv_round_trip_is_bit_exact(tmp_path_factory, case, kernel):
    centers, advanced, alpha, (cond, lam, jitter) = case
    idx = np.arange(len(centers)) * 3
    est = KoopmanEstimate(
        mode=EstimateMode.PULLBACK,
        centers=PointSet(centers, indices=idx),
        advanced_centers=PointSet(advanced, indices=idx),
        alpha=alpha,
        kernel=kernel,
        diagnostics=SolveReport(alpha, cond, lam, jitter),
    )
    path = tmp_path_factory.mktemp("estimate") / "estimate.csv"
    write_estimate_csv(path, est, {"command": "fit"})
    back = read_estimate_csv(path)
    assert _bits(back.centers.indices) == _bits(idx)
    assert _bits(back.centers.points) == _bits(est.centers.points)
    assert _bits(back.advanced_centers.points) == _bits(est.advanced_centers.points)
    assert _bits(back.alpha) == _bits(est.alpha)
    assert back.kernel == est.kernel and back.mode is est.mode
    report = (back.diagnostics.condition_number, back.diagnostics.min_eigenvalue,
              back.diagnostics.jitter_used)
    assert np.array(report).tobytes() == np.array([cond, lam, jitter]).tobytes()
    rows = [[int(i)] + list(c) + list(a) + list(w)
            for i, c, a, w in zip(idx, est.centers.points, est.advanced_centers.points, est.alpha)]
    _assert_table_matches_oracle(path, rows)


@FEW
@given(st.integers(0, 8).flatmap(lambda m: st.tuples(
    st.lists(st.sampled_from(["a", "matern(1.0)", "nan", ""]), min_size=m, max_size=m),
    st.lists(st.integers(-2**63, 2**63 - 1), min_size=m, max_size=m),
    st.lists(finite, min_size=m, max_size=m),
    _float_block(m, 2),
)))
def test_row_writer_matches_the_per_cell_formatter(tmp_path_factory, case):
    labels, ints, floats, block = case
    path = tmp_path_factory.mktemp("rows") / "table.csv"
    header = ["label", "n", "value", "np_value", "u", "v"]
    rows = [[s, i, f, np.float64(f), *b] for s, i, f, b in zip(labels, ints, floats, block)]
    write_rows_csv(path, header, rows, {"command": "t"})
    assert path.read_text() == "# command = t\n" + reference_table(header, rows)
    write_rows_csv(path, ["u", "v"], block)
    assert path.read_text() == reference_table(["u", "v"], block.tolist())


@st.composite
def legs(draw):
    """(n, 3, 3) hip/knee/ankle markers (x forward, y lateral, z up): generic legs, legs
    with a zero-length thigh, and straight or fully folded legs bent by at most 1e-6."""
    n = draw(st.integers(1, 40))
    pts = draw(arrays(np.float64, (n, 3, 3), elements=coords))
    kind = draw(arrays(np.int8, n, elements=st.integers(0, 2)))
    reach = draw(arrays(np.float64, n, elements=st.floats(-2.0, 2.0)))
    bend = draw(arrays(np.float64, n, elements=st.floats(-1e-6, 1e-6)))
    thigh = pts[:, 1] - pts[:, 0]
    pts[kind == 1, 1] = pts[kind == 1, 0]
    collinear = pts[:, 1] + reach[:, None] * thigh + bend[:, None] * thigh[:, ::-1] * [1, 0, -1]
    pts[kind == 2, 2] = collinear[kind == 2]
    return pts


# a straight and a fully folded leg whose cos(theta2) rounds to +1 and -1 plus an ulp
ROUNDED_PAST_ONE = np.array([
    [[0.0, 0.1, 0.0], [0.3, 0.1, -0.3], [0.75, 0.1, -0.75]],
    [[0.0, 0.1, 0.0], [0.1, 0.1, -0.7], [0.05, 0.1, -0.35]],
])


@FEW
@given(legs())
@example(ROUNDED_PAST_ONE)
def test_batched_angles_equal_one_row_calls_and_the_per_frame_oracle(pts):
    n = len(pts)
    batch = MarkerFrame(np.arange(n), pts[:, 0], pts[:, 1], pts[:, 2])
    singles = [MarkerFrame(i, *pts[i]) for i in range(n)]
    got = extract_angles(batch)
    assert column_bits(got) == column_bits(extract_angles(singles))
    one_row = []
    for frame in singles:
        try:
            one_row.append(joint_angles(project_sagittal(frame)))
        except DegenerateInputError:
            pass
    assert [_bits(np.array(astuple(s))) for s in got] == [_bits(np.array(astuple(s))) for s in one_row]

    oracle = [(i, reference_joint_angles(*p[:, [0, 2]])) for i, p in enumerate(pts)]
    oracle = [(i, want) for i, want in oracle if want is not None]
    assert [s.t for s in got] == [i for i, _ in oracle]
    eps = np.finfo(float).eps
    for s, (_, (theta1, theta2, y1, y2)) in zip(got, oracle):
        assert (s.y1, s.y2) == (y1, y2)
        assert abs(s.theta1 - theta1) <= 4 * np.spacing(abs(theta1))
        # cos(theta2) agrees to a few eps, which arccos scales by 1/sin(theta2);
        # at collinear legs that is bounded by the absolute 1e-7
        amplified = 8 * eps / math.sin(theta2) if math.sin(theta2) > 0 else math.inf
        assert abs(s.theta2 - theta2) <= 4 * np.spacing(theta2) + min(1e-7, amplified)
