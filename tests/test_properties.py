"""Property tests of the shared paths: Gram assembly, batch predict, time-index lookup."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.spatial.distance import pdist

from kernelkoop import (
    KernelSpec,
    PendulumConfig,
    TrajectoryDataset,
    eval_kernel,
    fit_pullback,
    kernel_matrix,
    predict,
    simulate,
    subselect_centers,
)
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
