import math
import tracemalloc

import numpy as np
import pytest
from scipy.spatial.distance import cdist, pdist

from conftest import reference_subselect
from kernelkoop import (
    DegenerateInputError,
    InvalidArgumentError,
    KernelSpec,
    PendulumConfig,
    PointSet,
    eta_for_center_count,
    fill_distance,
    kernel_matrix,
    nested_center_sets,
    separation,
    simulate,
    subselect_centers,
)
from kernelkoop import geometry, kernels
from kernelkoop.kernels import _MAX_ENTRIES, _row_blocks

MiB = 2**20


def _peak_bytes(fn, *args):
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_subselect_hand_trace():
    centers = subselect_centers(np.array([0.0, 0.3, 0.7, 1.5]), eta=0.5)
    assert centers.points[:, 0].tolist() == [0.0, 0.7, 1.5]
    assert centers.indices.tolist() == [0, 2, 3]


def test_subselect_keeps_everything_for_tiny_eta():
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(40, 2))
    centers = subselect_centers(pts, eta=1e-9)
    assert len(centers) == 40
    assert np.array_equal(centers.points, pts)


def test_subselect_gate_is_strict():
    # equal-distance candidates are rejected: distance must exceed eta
    centers = subselect_centers(np.array([0.0, 0.5, 1.0]), eta=0.5)
    assert centers.points[:, 0].tolist() == [0.0, 1.0]


def test_subselect_rules_out_a_state_whose_squared_distance_underflows():
    # cdist squares 1e-170 to 0.0, so the second state is not more than eta = 1e-300 from
    # the first, though its first coordinate lies far outside [-eta, eta]
    states = np.array([[0.0, 0.0], [1e-170, 0.0]])
    points, kept = reference_subselect(states, 1e-300)
    assert subselect_centers(states, 1e-300).indices.tolist() == kept.tolist() == [0]


def test_pendulum_37_centers():
    dataset = simulate(PendulumConfig())
    eta = eta_for_center_count(dataset, 37)
    assert len(subselect_centers(dataset, eta)) == 37
    # the frozen default gate sits inside the 37-center plateau
    assert len(subselect_centers(dataset, 0.232)) == 37


def test_subselect_separation_invariant():
    rng = np.random.default_rng(5)
    for seed in range(4):
        pts = np.cumsum(rng.normal(size=(120, 2), scale=0.3), axis=0)
        eta = 0.4
        centers = subselect_centers(pts, eta)
        if len(centers) > 1:
            assert separation(centers) > eta / 2


def test_subselect_deterministic():
    rng = np.random.default_rng(9)
    pts = rng.normal(size=(60, 3))
    a = subselect_centers(pts, 0.8)
    b = subselect_centers(pts, 0.8)
    assert np.array_equal(a.points, b.points)
    assert np.array_equal(a.indices, b.indices)


def test_subselect_rejects_bad_eta_and_empty():
    with pytest.raises(InvalidArgumentError):
        subselect_centers(np.array([0.0, 1.0]), eta=0.0)
    with pytest.raises(DegenerateInputError):
        subselect_centers(np.empty((0, 2)), eta=0.5)


def test_fill_distance_examples():
    assert fill_distance(np.array([0.0, 1.0]), np.array([0.0, 1.0])) == 0.0
    assert fill_distance(np.array([0.0]), np.array([0.0, 1.0])) == 1.0
    assert fill_distance(np.array([0.0, 2.0]), np.array([0.0, 1.0, 2.0])) == 1.0


def test_fill_distance_monotone_under_superset():
    rng = np.random.default_rng(13)
    reference = rng.normal(size=(80, 2))
    base = rng.normal(size=(6, 2))
    extended = np.vstack([base, rng.normal(size=(5, 2))])
    assert fill_distance(extended, reference) <= fill_distance(base, reference)


def test_separation_examples():
    assert separation(np.array([0.0, 1.0])) == 0.5
    assert separation(np.array([0.0, 1.0, 3.0])) == 0.5
    assert separation(np.array([[0.0, 0.0], [3.0, 4.0]])) == 2.5


def test_separation_errors():
    with pytest.raises(DegenerateInputError):
        separation(np.array([1.0]))
    with pytest.raises(DegenerateInputError):
        separation(np.array([1.0, 1.0]))


def test_nested_center_sets_are_nested():
    dataset = simulate(PendulumConfig())
    sets = nested_center_sets(dataset, [1.2, 0.6, 0.3])
    for small, large in zip(sets, sets[1:]):
        small_idx = set(small.indices.tolist())
        large_idx = set(large.indices.tolist())
        assert small_idx <= large_idx
        assert len(large) >= len(small)
    with pytest.raises(InvalidArgumentError):
        nested_center_sets(dataset, [0.5, 0.5])


def test_nested_sets_fill_decreases():
    dataset = simulate(PendulumConfig())
    states = np.vstack([dataset.x, dataset.x_next[-1:]])
    sets = nested_center_sets(dataset, [1.5, 0.8, 0.4, 0.2])
    fills = [fill_distance(c, states) for c in sets]
    assert all(b <= a for a, b in zip(fills, fills[1:]))


def test_eta_for_center_count_bisects_below_the_largest_float_unwarned():
    # the bounding box's diagonal overflows: the largest float bounds the bracket instead,
    # and the two states, an infinite distance apart, are kept by every finite eta
    states = np.array([[0.0, 0.0], [0.0, 1.5e154]])
    eta = eta_for_center_count(states, 2)
    assert 0 < eta < math.inf and len(subselect_centers(states, eta)) == 2
    # every eta keeps all three states, so the bracket's low end climbs to the largest float
    with pytest.raises(DegenerateInputError, match="no eta yields exactly 2 centers"):
        eta_for_center_count(np.vstack([states, [1.5e154, 0.0]]), 2)


def test_eta_for_center_count_unreachable():
    # both non-anchor points sit exactly at distance 1 from the first,
    # so the kept-count jumps 3 -> 1 and 2 is unreachable
    tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    assert len(subselect_centers(tri, 0.9)) == 3
    assert len(subselect_centers(tri, 1.0)) == 1
    with pytest.raises(DegenerateInputError):
        eta_for_center_count(tri, 2)


def test_subselect_accepts_pointset_with_indices():
    ps = PointSet(np.array([0.0, 0.3, 0.7, 1.5]), indices=np.array([10, 11, 12, 13]))
    centers = subselect_centers(ps, 0.5)
    assert centers.indices.tolist() == [10, 12, 13]


def test_subselect_equals_the_per_state_loop_on_a_seeded_3d_walk():
    rng = np.random.default_rng(17)
    states = np.cumsum(rng.normal(scale=0.3, size=(3 * 256 + 40, 3)), axis=0)
    seed_points, seed_idx = reference_subselect(states[:200], 1.5)
    seed = PointSet(seed_points, indices=seed_idx)
    for s in (None, seed):
        centers = subselect_centers(states, 0.5, seed_centers=s)
        points, kept = reference_subselect(states, 0.5, s)
        assert len(centers) > 7
        assert centers.points.tobytes() == points.tobytes()
        assert centers.indices.tolist() == kept.tolist()


def test_eta_for_center_count_memory_does_not_grow_with_m():
    # an m x m distance matrix at m = 4000 alone is 122 MiB
    dataset = simulate(PendulumConfig(steps=4000))
    eta, peak = _peak_bytes(eta_for_center_count, dataset, 37)
    assert len(subselect_centers(dataset, eta)) == 37
    assert peak < 16 * MiB


def test_subselect_memory_is_a_mask_and_a_distance_row():
    # 2e4 states, 1954 centers: a 256-state block of distances to them alone is 3.8 MiB
    dataset = simulate(PendulumConfig(steps=20_000))
    centers, peak = _peak_bytes(subselect_centers, dataset, 0.004)
    assert len(centers) == 1954
    assert peak < 1 * MiB


@pytest.mark.parametrize("eta, count, bound", [(0.004, 1954, 20_000 * 1954 // 100), (0.231, 37, 738_489)])
def test_subselect_measures_only_the_strips_of_the_kept_states(eta, count, bound, monkeypatch):
    # a cdist row from each kept state to every later state is 3.6e7 distances at
    # eta 0.004 and 7.4e5 at eta 0.231; the kept states' strips hold far fewer
    dataset = simulate(PendulumConfig(steps=20_000))
    computed = []
    cdist_ = kernels._cdist

    def counted(a, b, out=None):
        computed.append(a.shape[0] * b.shape[0])
        return cdist_(a, b, out=out)

    monkeypatch.setattr(kernels, "_cdist", counted)
    assert len(subselect_centers(dataset, eta)) == count
    assert sum(computed) <= bound


def test_fill_distance_is_exact_and_chunked():
    # the full 10^4 x 600 distance matrix would be 46 MiB
    rng = np.random.default_rng(21)
    reference = rng.normal(size=(10_000, 2))
    centers = rng.normal(size=(600, 2))
    fill, peak = _peak_bytes(fill_distance, centers, reference)
    assert fill == cdist(reference, centers).min(axis=1).max()
    assert peak < 16 * MiB


def test_separation_memory_is_one_distance_panel():
    # the 5500 x 5499 / 2 condensed distances alone are 115 MiB
    centers = np.random.default_rng(23).uniform(-1.0, 1.0, size=(5500, 2))
    q, peak = _peak_bytes(separation, centers)
    assert q == 0.5 * pdist(centers).min()
    assert peak < 4 * MiB


def test_fill_distance_has_the_bits_of_one_cdist_at_block_edges():
    rng = np.random.default_rng(22)
    centers = rng.normal(size=(600, 2))
    rows = _row_blocks(_MAX_ENTRIES, len(centers))[0].stop
    for count in (1, rows - 1, rows, rows + 1, 2 * rows - 1, 2 * rows, 2 * rows + 1):
        reference = rng.normal(size=(count, 2))
        expected = cdist(reference, centers).min(axis=1).max()
        assert fill_distance(centers, reference).hex() == expected.hex(), count


_EMPTY = np.empty((0, 2))
_LINE = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])


@pytest.mark.parametrize(
    "call, what, shape",
    [
        (lambda: subselect_centers(np.zeros((2, 2, 2)), 0.5), "trajectory", "(2, 2, 2)"),
        (lambda: fill_distance(_EMPTY, np.ones((3, 2))), "centers", "(0, 2)"),
        (lambda: fill_distance(np.ones((3, 2)), _EMPTY), "reference", "(0, 2)"),
        (lambda: separation(_EMPTY), "centers", "(0, 2)"),
        (lambda: eta_for_center_count(_EMPTY, 1), "trajectory", "(0, 2)"),
        (lambda: subselect_centers(np.empty((5, 0)), 0.5), "trajectory", "(5, 0)"),
        (lambda: fill_distance(np.empty((2, 0)), np.empty((2, 0))), "centers", "(2, 0)"),
        (
            lambda: kernel_matrix(KernelSpec("matern"), np.empty((3, 0)), np.empty((3, 0))),
            "kernel points",
            "(3, 0)",
        ),
    ],
    ids=[
        "subselect-3d",
        "fill-centers",
        "fill-reference",
        "separation",
        "eta-for-count",
        "subselect-0d",
        "fill-0d",
        "kernel-matrix-0d",
    ],
)
def test_unusable_points_name_the_argument_and_its_shape(call, what, shape):
    with pytest.raises(DegenerateInputError) as err:
        call()
    assert str(err.value) == f"{what} must be a nonempty (m, d) set of points, got shape {shape}"


@pytest.mark.parametrize(
    "call, error, message",
    [
        (
            lambda: subselect_centers(_LINE, 0.5, seed_centers=PointSet([0.0], indices=[0])),
            InvalidArgumentError,
            "seed centers have dimension 1, trajectory 2",
        ),
        (
            lambda: subselect_centers(_LINE, 0.5, seed_centers=PointSet(_LINE[:1])),
            InvalidArgumentError,
            "seed centers must carry trajectory indices",
        ),
        (
            lambda: fill_distance(np.array([0.0, 1.0]), _LINE),
            InvalidArgumentError,
            "dimension mismatch: centers 1, reference 2",
        ),
        (lambda: eta_for_center_count(_LINE, 4), InvalidArgumentError, "count must be in [1, 3], got 4"),
        (
            lambda: eta_for_center_count(np.vstack([_LINE[:2], _LINE[:1]]), 3),
            DegenerateInputError,
            "trajectory has repeated states; cannot reach 3 centers",
        ),
        (lambda: subselect_centers(_LINE, [1.0]), InvalidArgumentError,
         "eta must be a real number, got [1.0]"),
        (lambda: subselect_centers(_LINE, "0.1"), InvalidArgumentError,
         "eta must be a real number, got '0.1'"),
        (lambda: subselect_centers(_LINE, True), InvalidArgumentError,
         "eta must be a real number, got True"),
        (lambda: subselect_centers(_LINE, 0.1, seed_centers=_LINE), InvalidArgumentError,
         "seed centers must be a PointSet, got ndarray"),
        (lambda: nested_center_sets(_LINE, ["a"]), InvalidArgumentError,
         "eta must be a real number, got 'a'"),
        (lambda: nested_center_sets(_LINE, [1.0, -0.5]), InvalidArgumentError,
         "eta must be > 0, got -0.5"),
        (lambda: eta_for_center_count(_LINE, "3"), InvalidArgumentError,
         "count must be integers in the int64 range, got '3'"),
        (lambda: eta_for_center_count(_LINE, 2.5), InvalidArgumentError,
         "count must be integers in the int64 range, got 2.5"),
        (lambda: nested_center_sets(_LINE, 1.0), InvalidArgumentError,
         "etas must be a sequence of numbers, got 1.0"),
        (lambda: nested_center_sets(_LINE, None), InvalidArgumentError,
         "etas must be a sequence of numbers, got None"),
        (lambda: nested_center_sets(_LINE, True), InvalidArgumentError,
         "etas must be a sequence of numbers, got True"),
        (lambda: subselect_centers(_LINE, 10**400), InvalidArgumentError,
         f"eta must fit in a float, got {10**400}"),
    ],
    ids=[
        "seed-dimension", "seed-without-indices", "fill-dimension", "count-range", "repeated",
        "list-eta", "text-eta", "bool-eta", "array-seed", "text-eta-in-schedule",
        "negative-eta-in-schedule", "text-count", "fractional-count", "number-schedule",
        "none-schedule", "bool-schedule", "eta-past-float-range",
    ],
)
def test_geometry_argument_errors(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert str(err.value) == message


@pytest.mark.parametrize(
    "call",
    [
        lambda: subselect_centers(_LINE, [1.0]),
        lambda: subselect_centers(_LINE, 0.1, seed_centers=_LINE),
        lambda: nested_center_sets(_LINE, [1.0, "a"]),
        lambda: nested_center_sets(_LINE, [1.0, -0.5]),
        lambda: eta_for_center_count(_LINE, 2.5),
    ],
    ids=["list-eta", "array-seed", "text-eta-in-schedule", "negative-eta-in-schedule",
         "fractional-count"],
)
def test_bad_geometry_arguments_fail_before_any_distance(call, monkeypatch):
    def refuse(*args):
        raise AssertionError("a distance was computed")

    for name in ("_Strip", "_nearest", "_pairwise"):
        monkeypatch.setattr(geometry, name, refuse)
    with pytest.raises(InvalidArgumentError):
        call()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "call, what",
    [
        (lambda p: subselect_centers(p, 0.5), "trajectory"),
        (lambda p: nested_center_sets(p, [1.0, 0.5]), "trajectory"),
        (lambda p: fill_distance(p, _LINE), "centers"),
        (lambda p: fill_distance(_LINE, p), "reference"),
        (lambda p: separation(p), "centers"),
        (lambda p: eta_for_center_count(p, 2), "trajectory"),
    ],
    ids=["subselect", "nested", "fill-centers", "fill-reference", "separation", "eta-for-count"],
)
def test_non_finite_points_name_the_argument(call, what, bad):
    points = _LINE.copy()
    points[1, 1] = bad
    with pytest.raises(InvalidArgumentError) as err:
        call(points)
    assert str(err.value) == f"{what} must be finite"
