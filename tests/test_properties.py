"""Property tests of the shared paths: Gram assembly, batch predict, time-index lookup,
and the greedy center gate."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.spatial.distance import cdist, pdist

from conftest import reference_subselect
from kernelkoop import (
    KernelSpec,
    PendulumConfig,
    PointSet,
    TrajectoryDataset,
    eval_kernel,
    fit_pullback,
    kernel_matrix,
    nested_center_sets,
    predict,
    simulate,
    subselect_centers,
)
from kernelkoop.geometry import _BLOCK
from kernelkoop.koopman import _rows_at_times

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
@given(kernels, point_sets)
def test_gram_matches_pointwise_kernel_and_cross_path(spec, pts):
    assume(len(pts) < 2 or pdist(pts).min() > 0)
    K = kernel_matrix(spec, pts, pts)
    assert np.array_equal(K, K.T)
    assert K.tobytes() == kernel_matrix(spec, pts, pts.copy()).tobytes()
    expected = [[eval_kernel(spec, a, b) for b in pts] for a in pts]
    np.testing.assert_allclose(K, expected, rtol=1e-14, atol=1e-15)


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


@st.composite
def gated_states(draw, max_blocks=3):
    """(states, eta): a random walk, or a dyadic grid whose distances often equal eta."""
    d = draw(st.integers(1, 6))
    m = draw(st.integers(1, max_blocks * _BLOCK + 17))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
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
