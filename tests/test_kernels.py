import ast
import builtins
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.spatial.distance import cdist, pdist, squareform

import kernelkoop
from kernelkoop import (
    ConfigError,
    DegenerateInputError,
    DistanceConvention,
    EstimateMode,
    InvalidArgumentError,
    KernelFamily,
    KernelSpec,
    KoopmanEstimate,
    PendulumConfig,
    PointSet,
    SolveReport,
    TrajectoryDataset,
    eval_kernel,
    fill_distance,
    kernel_matrix,
    predict,
    separation,
    simulate,
)
from kernelkoop.kernels import _MAX_ENTRIES, _profile, _row_blocks

ALL_FAMILIES = [
    KernelSpec("matern_sobolev32", beta=1.0),
    KernelSpec("wendland_c2"),
    KernelSpec("wendland_c4"),
    KernelSpec("wendland_c6"),
]


def test_matern_zero_distance_is_one():
    spec = KernelSpec("matern_sobolev32", beta=1.0)
    assert eval_kernel(spec, [0.3, -1.2], [0.3, -1.2]) == 1.0


@pytest.mark.parametrize("spec", ALL_FAMILIES, ids=lambda s: s.label)
def test_unit_diagonal_all_families(spec):
    rng = np.random.default_rng(7)
    pts = rng.normal(size=(6, 3))
    K = kernel_matrix(spec, pts, pts)
    assert np.array_equal(np.diag(K), np.ones(6))


def test_wendland_c2_hand_value():
    # (1 - 0.5)^4 * (4*0.5 + 1) = 0.0625 * 3
    spec = KernelSpec("wendland_c2")
    assert eval_kernel(spec, [0.0], [0.5]) == pytest.approx(0.1875, abs=1e-15)


def test_wendland_outside_support_is_exactly_zero():
    spec = KernelSpec("wendland_c4")
    assert eval_kernel(spec, [0.0], [1.2]) == 0.0
    # the boundary itself is outside the open support
    assert eval_kernel(spec, [0.0], [1.0]) == 0.0


def test_matern_unit_distance_scalar_oracle():
    spec = KernelSpec("matern_sobolev32", beta=1.0)
    expected = (1.0 + math.sqrt(3.0)) * math.exp(-math.sqrt(3.0))
    got = eval_kernel(spec, [0.0], [1.0])
    assert got == pytest.approx(expected, rel=1e-15)
    assert got == pytest.approx(0.48335, abs=1e-5)


def test_matern_squared_convention_uses_squared_distance():
    plain = KernelSpec("matern_sobolev32", beta=1.0)
    squared = KernelSpec("matern_sobolev32", beta=1.0, distance_convention="squared")
    r = 0.5
    a = math.sqrt(3.0)
    assert eval_kernel(plain, [0.0], [r]) == pytest.approx((1 + a * r) * math.exp(-a * r), rel=1e-15)
    assert eval_kernel(squared, [0.0], [r]) == pytest.approx(
        (1 + a * r * r) * math.exp(-a * r * r), rel=1e-15
    )
    # at unit distance the two conventions coincide
    assert eval_kernel(plain, [0.0], [1.0]) == eval_kernel(squared, [0.0], [1.0])


def test_matern_beta_scales_decay():
    wide = KernelSpec("matern_sobolev32", beta=5.0)
    narrow = KernelSpec("matern_sobolev32", beta=0.2)
    assert eval_kernel(wide, [0.0], [1.0]) > eval_kernel(narrow, [0.0], [1.0])


def test_wendland_support_scale():
    spec = KernelSpec("wendland_c2", support_scale=2.0)
    # scaled distance 0.5 at r = 1
    assert eval_kernel(spec, [0.0], [1.0]) == pytest.approx(0.1875, abs=1e-15)
    assert eval_kernel(spec, [0.0], [2.0]) == 0.0


def test_matern_strictly_decreasing():
    spec = KernelSpec("matern_sobolev32", beta=1.3)
    radii = np.linspace(0.0, 6.0, 200)
    vals = [eval_kernel(spec, [0.0], [r]) for r in radii]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_eval_kernel_dimension_mismatch():
    with pytest.raises(InvalidArgumentError):
        eval_kernel(KernelSpec("matern_sobolev32"), [0.0, 1.0], [0.0])


def test_kernel_matrix_single_point():
    K = kernel_matrix(KernelSpec("matern_sobolev32"), [[0.4, 0.4]], [[0.4, 0.4]])
    assert np.array_equal(K, [[1.0]])


def test_kernel_matrix_disjoint_supports_identity():
    ps = PointSet(np.array([0.0, 10.0]))
    K = kernel_matrix(KernelSpec("wendland_c2"), ps, ps)
    assert np.array_equal(K, np.eye(2))


def test_kernel_matrix_matern_two_points():
    ps = PointSet(np.array([0.0, 1.0]))
    K = kernel_matrix(KernelSpec("matern_sobolev32", beta=1.0), ps, ps)
    c = (1.0 + math.sqrt(3.0)) * math.exp(-math.sqrt(3.0))
    assert K[0, 1] == pytest.approx(c, rel=1e-15)
    assert K[0, 0] == K[1, 1] == 1.0
    assert K[0, 1] == K[1, 0]


@pytest.mark.parametrize("spec", ALL_FAMILIES, ids=lambda s: s.label)
def test_kernel_matrix_exact_symmetry(spec):
    rng = np.random.default_rng(11)
    pts = rng.normal(size=(25, 2))
    K = kernel_matrix(spec, pts, pts)
    assert np.array_equal(K, K.T)


@pytest.mark.parametrize("spec", ALL_FAMILIES, ids=lambda s: s.label)
@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_positive_definite_on_random_points(spec, seed):
    rng = np.random.default_rng(seed)
    m = rng.integers(5, 31)
    pts = rng.uniform(0.0, 2.0, size=(m, 2))
    while pdist(pts).min() < 1e-3:
        pts = rng.uniform(0.0, 2.0, size=(m, 2))
    eigs = np.linalg.eigvalsh(kernel_matrix(spec, pts, pts))
    assert eigs[0] > 1e-12 * eigs[-1]


def test_squared_convention_loses_positive_definiteness():
    # on a realistic center set the squared-argument variant goes indefinite,
    # which is why PLAIN is the default
    from kernelkoop import PendulumConfig, simulate, subselect_centers

    centers = subselect_centers(simulate(PendulumConfig()), 0.232)
    spec = KernelSpec("matern_sobolev32", beta=1.0, distance_convention="squared")
    eigs = np.linalg.eigvalsh(kernel_matrix(spec, centers, centers))
    assert eigs[0] < 0


def test_cross_matrix_entries():
    spec = KernelSpec("matern_sobolev32", beta=2.0)
    A = np.array([[0.0, 0.0], [1.0, 0.0]])
    B = np.array([[0.0, 1.0], [2.0, 0.0], [0.5, 0.5]])
    K = kernel_matrix(spec, A, B)
    assert K.shape == (2, 3)
    for i in range(2):
        for j in range(3):
            assert K[i, j] == pytest.approx(eval_kernel(spec, A[i], B[j]), rel=1e-15)


def test_kernel_matrix_rejects_duplicates_and_mismatch():
    spec = KernelSpec("wendland_c2")
    dup = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]])
    with pytest.raises(DegenerateInputError):
        kernel_matrix(spec, dup, dup)
    with pytest.raises(InvalidArgumentError):
        kernel_matrix(spec, np.zeros((2, 2)), np.zeros((2, 3)))
    with pytest.raises(DegenerateInputError):
        kernel_matrix(spec, np.zeros((0, 2)), np.zeros((1, 2)))


def test_spec_validation():
    with pytest.raises(InvalidArgumentError):
        KernelSpec("matern_sobolev32", beta=0.0)
    with pytest.raises(InvalidArgumentError):
        KernelSpec("wendland_c2", support_scale=-1.0)
    with pytest.raises(ConfigError):
        KernelSpec("gaussian")


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("key", ["beta", "support_scale"])
def test_spec_rejects_non_finite_parameters(key, value):
    with pytest.raises(InvalidArgumentError, match=f"{key} must be finite and > 0"):
        KernelSpec("matern_sobolev32", **{key: value})
    with pytest.raises(InvalidArgumentError, match=f"{key} must be finite and > 0"):
        KernelSpec.from_config({"family": "wendland_c4", key: str(value)})
    assert getattr(KernelSpec("wendland_c4", **{key: 5e-324}), key) == 5e-324


@pytest.mark.parametrize("value", ["abc", "", None, [1.0]])
@pytest.mark.parametrize("key", ["beta", "support_scale"])
def test_spec_rejects_a_parameter_that_is_not_a_number(key, value):
    message = re.escape(f"{key} must be a number, got {value!r}")
    with pytest.raises(InvalidArgumentError, match=message):
        KernelSpec("matern_sobolev32", **{key: value})
    if isinstance(value, str):
        with pytest.raises(InvalidArgumentError, match=message):
            KernelSpec.from_config({"family": "wendland_c4", key: value})



@pytest.mark.parametrize("family", ["matern_sobolev32", "wendland_c4"])
@pytest.mark.parametrize("key", ["beta", "support_scale"])
def test_spec_rejects_an_integer_too_large_for_a_float(key, family):
    with pytest.raises(InvalidArgumentError, match=f"^{key} must be a number"):
        KernelSpec(family, **{key: 10**400})


def test_spec_config_round_trip():
    spec = KernelSpec("wendland_c6", beta=2.5, support_scale=0.75, distance_convention="squared")
    again = KernelSpec.from_config(spec.to_config())
    assert again == spec
    assert again.family is KernelFamily.WENDLAND_C6
    assert again.distance_convention is DistanceConvention.SQUARED


FAMILY_SPELLINGS = {
    "maternsobolev32": KernelFamily.MATERN_SOBOLEV_32,
    "matern": KernelFamily.MATERN_SOBOLEV_32,
    "matern32": KernelFamily.MATERN_SOBOLEV_32,
    "wendlandc2": KernelFamily.WENDLAND_C2,
    "wendlandc4": KernelFamily.WENDLAND_C4,
    "wendlandc6": KernelFamily.WENDLAND_C6,
}
CONVENTION_SPELLINGS = {
    "plain": DistanceConvention.PLAIN,
    "plaindistance": DistanceConvention.PLAIN,
    "squared": DistanceConvention.SQUARED,
    "squareddistance": DistanceConvention.SQUARED,
}


def _respellings(key):
    """The key as given, in upper and mixed case, and with '-'/'_' and spaces added."""
    mixed = "".join(c.upper() if i % 2 else c for i, c in enumerate(key))
    return [key, key.upper(), mixed, "_".join(key), f"  {key[:3].upper()}-_{key[3:]} "]


def test_spec_accepts_alias_spellings():
    for key, family in FAMILY_SPELLINGS.items():
        for name in _respellings(key):
            assert KernelSpec(name).family is family, name
    for key, convention in CONVENTION_SPELLINGS.items():
        for name in _respellings(key):
            assert KernelSpec("matern", distance_convention=name).distance_convention is convention
    for name in ["plain", "Squared", "plain_distance", "squared-distance"]:
        with pytest.raises(ConfigError, match=re.escape(f"unknown kernel family {name!r}")):
            KernelSpec(name)
    for name in ["matern", "Wendland_C4", "matern_sobolev32"]:
        with pytest.raises(ConfigError, match=re.escape(f"unknown distance convention {name!r}")):
            KernelSpec("matern", distance_convention=name)


def test_pointset_validation():
    ps = PointSet(np.array([1.0, 2.0, 3.0]))
    assert ps.dim == 1 and len(ps) == 3
    with pytest.raises(DegenerateInputError):
        PointSet(np.empty((0, 2)))
    with pytest.raises(InvalidArgumentError):
        PointSet(np.array([[1.0, np.nan]]))
    with pytest.raises(InvalidArgumentError):
        PointSet(np.array([[1.0]]), indices=np.array([0, 1]))
    # any integer time index, as in a trajectory file
    assert PointSet(np.array([[1.0], [2.0]]), indices=[-100, -99]).indices.tolist() == [-100, -99]


_LINE2 = [[0.0], [1.0]]


def _dataset(k):
    return TrajectoryDataset(k=k, x=_LINE2, x_next=_LINE2, y_next=_LINE2)


@pytest.mark.parametrize(
    "make, error, message",
    [
        (lambda: PointSet(_LINE2, indices=[0.5, 1.7]), InvalidArgumentError,
         "indices must be integers in the int64 range, got 0.5"),
        (lambda: PointSet(_LINE2, indices=[0, 1e300]), InvalidArgumentError,
         "indices must be integers in the int64 range, got 1e+300"),
        (lambda: PointSet(_LINE2, indices=np.array([0, 2**63], np.uint64)), InvalidArgumentError,
         "indices must be integers in the int64 range, got 9223372036854775808"),
        (lambda: PointSet(_LINE2, indices=[True, False]), InvalidArgumentError,
         "indices must be integers in the int64 range, got True"),
        (lambda: PointSet(_LINE2, indices=["0", "1"]), InvalidArgumentError,
         "indices must be integers in the int64 range, got '0'"),
        (lambda: PointSet(_LINE2, indices=[[0], [1]]), InvalidArgumentError,
         "indices must be a scalar or 1-D, got shape (2, 1)"),
        (lambda: PointSet(np.empty((0, 2))), DegenerateInputError,
         "points must be a nonempty (m, d) set of points, got shape (0, 2)"),
        (lambda: PointSet(np.empty((2, 0))), DegenerateInputError,
         "points must be a nonempty (m, d) set of points, got shape (2, 0)"),
        (lambda: PointSet([[1.0, np.nan]]), InvalidArgumentError, "points must be finite"),
        (lambda: _dataset([0.5, 1.7]), InvalidArgumentError,
         "k must be integers in the int64 range, got 0.5"),
        (lambda: _dataset([0, np.nan]), InvalidArgumentError,
         "k must be integers in the int64 range, got nan"),
        (lambda: _dataset([0, 1e300]), InvalidArgumentError,
         "k must be integers in the int64 range, got 1e+300"),
        (lambda: _dataset([[0], [1]]), InvalidArgumentError,
         "k must be a scalar or 1-D, got shape (2, 1)"),
        (lambda: _dataset(0), InvalidArgumentError, "record arrays must have equal length"),
        # a list is checked element by element, not as the array numpy makes of it
        (lambda: PointSet(_LINE2, indices=[0, True]), InvalidArgumentError,
         "indices must be integers in the int64 range, got True"),
        (lambda: PointSet(_LINE2, indices=[0, 2**63]), InvalidArgumentError,
         "indices must be integers in the int64 range, got 9223372036854775808"),
        (lambda: PointSet(_LINE2, indices=[[0], [1, 2]]), InvalidArgumentError,
         "indices must be integers in the int64 range, got [0]"),
        (lambda: PointSet(_LINE2, indices=[np.float64(0.5), 1]), InvalidArgumentError,
         "indices must be integers in the int64 range, got 0.5"),
        (lambda: TrajectoryDataset(k=[0], x=1.0, x_next=1.0, y_next=1.0), InvalidArgumentError,
         "x must be 1-D or 2-D, got shape ()"),
        (lambda: TrajectoryDataset(k=[0], x=[1.0], x_next=[1.0], y_next=np.ones((1, 1, 1))),
         InvalidArgumentError, "y_next must be 1-D or 2-D, got shape (1, 1, 1)"),
        # a point list numpy cannot make a float array of names its field
        (lambda: PointSet([[0.0], [1.0, 2.0]]), InvalidArgumentError,
         "points must be a rectangular array of real numbers"),
        (lambda: fill_distance([[0.0], [1.0, 2.0]], _LINE2), InvalidArgumentError,
         "centers must be a rectangular array of real numbers"),
        (lambda: kernel_matrix(KernelSpec("matern"), [["a", "b"]], [[0.0, 1.0]]),
         InvalidArgumentError, "kernel points must be a rectangular array of real numbers"),
        (lambda: PointSet([1 + 2j, 0.0]), InvalidArgumentError,
         "points must be a rectangular array of real numbers"),
        # a complex array is refused, not cast with its imaginary part dropped
        (lambda: PointSet(np.array([1 + 2j, 0])), InvalidArgumentError,
         "points must be a rectangular array of real numbers"),
        (lambda: eval_kernel(KernelSpec("matern"), ["a"], [0.0]), InvalidArgumentError,
         "kernel points must be a rectangular array of real numbers"),
        (lambda: TrajectoryDataset(k=[0], x=[["a"]], x_next=[[1.0]], y_next=[1.0]),
         InvalidArgumentError, "x must be a rectangular array of real numbers"),
        # an int too large for a float is no real number a float array can hold
        (lambda: PointSet([[10**400, 0.0]]), InvalidArgumentError,
         "points must be a rectangular array of real numbers"),
    ],
    ids=[
        "fractional-indices", "huge-index", "index-past-int64", "bool-indices", "text-indices",
        "2d-indices", "empty-points", "zero-dim-points", "nan-point",
        "fractional-k", "nan-k", "huge-k", "2d-k", "scalar-k",
        "bool-in-index-list", "index-list-past-int64", "ragged-indices", "numpy-float-in-list",
        "scalar-states", "3d-outputs",
        "ragged-points", "ragged-centers", "text-kernel-points", "complex-points",
        "complex-array-points", "text-eval-kernel-points", "text-states", "int-past-float-points",
    ],
)
def test_bad_points_and_time_indices_raise_naming_the_field(make, error, message):
    with pytest.raises(error) as err:
        make()
    assert type(err.value) is error and str(err.value) == message


def test_time_indices_come_back_as_int64_values():
    assert _dataset(np.array([3.0, -2.0])).k.tolist() == [3, -2]
    assert _dataset(np.array([7, 8], dtype=np.uint8)).k.dtype == np.int64
    indices = PointSet(_LINE2, indices=np.array([0, 2**63 - 1], dtype=np.uint64)).indices
    assert indices.dtype == np.int64 and indices.tolist() == [0, 2**63 - 1]
    # integral floats and numpy scalars inside a list are integers too, as in an array
    indices = PointSet([[0.0], [1.0], [2.0]], indices=[3.0, np.int64(-2), np.uint8(7)]).indices
    assert indices.dtype == np.int64 and indices.tolist() == [3, -2, 7]
    assert _dataset(range(5, 7)).k.tolist() == [5, 6]
    # a PointSet holds points; a dataset's states are taken by the functions that take point sets
    with pytest.raises(TypeError):
        PointSet(_dataset([0, 1]))


@pytest.mark.parametrize("convention", ["plain", "squared"])
def test_matern_overflowed_distance_gives_zero(convention):
    # the distances overflow to inf (and their squares for the squared convention)
    spec = KernelSpec("matern", distance_convention=convention)
    far = np.array([[1e155, 0.0]])
    K = kernel_matrix(spec, far, np.array([[-1e155, 0.0], [0.0, 0.0]]))
    assert K.tolist() == [[0.0, 0.0]]
    centers = PointSet(np.array([[0.0, 0.0], [0.5, 0.0]]), indices=[0, 1])
    report = SolveReport(np.ones((2, 1)), 1.0, 1.0)
    estimate = KoopmanEstimate(EstimateMode.PULLBACK, centers, centers, report.coefficients, spec, report)
    assert predict(estimate, np.vstack([far, [[1e160, 0.0]]])).tolist() == [[0.0], [0.0]]
    # an infinite distance gives 0.0, a NaN one still gives NaN
    assert np.isnan(_profile(spec, np.array([np.inf, np.nan]))).tolist() == [False, True]


def test_from_config_requires_the_family_key():
    with pytest.raises(ConfigError) as err:
        KernelSpec.from_config({"beta": "2.0"})
    assert str(err.value) == "kernel config is missing the 'family' key"


@pytest.mark.parametrize("beta", [1e-320, 5e-324])
@pytest.mark.parametrize("convention", ["plain", "squared"])
def test_matern_scale_is_capped_so_the_diagonal_stays_one(convention, beta):
    # sqrt(3)/beta overflows below beta = 9.63e-309; inf * 0 at r = 0 would give NaN
    spec = KernelSpec("matern", beta=beta, distance_convention=convention)
    points = np.array([[0.0, 0.0], [1e-3, 0.0]])
    assert kernel_matrix(spec, points, points).tolist() == [[1.0, 0.0], [0.0, 1.0]]
    assert kernel_matrix(spec, points, points.copy()).tolist() == [[1.0, 0.0], [0.0, 1.0]]
    centers = PointSet(points, indices=[0, 1])
    report = SolveReport(np.ones((2, 1)), 1.0, 1.0)
    estimate = KoopmanEstimate(EstimateMode.PULLBACK, centers, centers, report.coefficients, spec, report)
    assert predict(estimate, np.array([[0.0, 0.0], [0.5, 0.0]])).tolist() == [[1.0], [0.0]]


@pytest.mark.parametrize("convention", ["plain", "squared"])
def test_matern_scale_cap_keeps_the_bits_of_every_finite_scale(convention):
    # the smallest betas whose scale sqrt(3)/beta is still finite, and a few ordinary ones
    smallest = np.nextafter(math.sqrt(3.0) / np.finfo(float).max, 1.0)
    for beta in (smallest, np.nextafter(smallest, 1.0), 1e-300, 1e-3, 1.0):
        scale = math.sqrt(3.0) / beta
        assert math.isfinite(scale)
        spec = KernelSpec("matern", beta=beta, distance_convention=convention)
        r = np.array([0.0, 1e-320, 1e-310, beta, 3.0 * beta])
        s = scale * (r if convention == "plain" else r * r)
        assert _profile(spec, r).tobytes() == ((1.0 + s) * np.exp(-s)).tobytes()


def _six_pass_matern(spec, r):
    """The Matern profile as six array passes over s = scale * r, the oracle of the five-pass one."""
    out = np.empty(np.shape(r))
    scale = min(math.sqrt(3.0) / spec.beta, np.finfo(float).max)
    plain = spec.distance_convention is DistanceConvention.PLAIN
    with np.errstate(over="ignore"):
        s = np.multiply(scale, r if plain else np.multiply(r, r, out=out), out=out)
    e = np.negative(np.minimum(s, 746.0, out=s), out=np.empty_like(s))
    np.exp(e, out=e)
    s += 1.0
    s *= e
    return s


@pytest.mark.parametrize("beta", [1.0, 1e-310])
@pytest.mark.parametrize("convention", ["plain", "squared"])
def test_matern_profile_has_the_bits_of_the_six_pass_formula(convention, beta):
    spec = KernelSpec("matern", beta=beta, distance_convention=convention)
    r = np.array([0.0, 745.2, 1e308, np.inf, 1e-320, 0.5, 1.0, 30.0])
    expected = _six_pass_matern(spec, r)
    assert _profile(spec, r).tobytes() == expected.tobytes()
    # in place, as kernel_matrix calls it, and on the diagonal's 0-d distance
    inplace = r.copy()
    assert _profile(spec, inplace, out=inplace).tobytes() == expected.tobytes()
    zero = np.float64(0.0)
    assert _profile(spec, zero).tobytes() == _six_pass_matern(spec, zero).tobytes()


def test_trajectory_dataset_is_owned_by_kernels_and_re_exported_by_koopman():
    import kernelkoop.kernels
    import kernelkoop.koopman

    assert kernelkoop.koopman.TrajectoryDataset is kernelkoop.kernels.TrajectoryDataset
    assert kernelkoop.TrajectoryDataset is kernelkoop.kernels.TrajectoryDataset
    assert kernelkoop.kernels.TrajectoryDataset.__module__ == "kernelkoop.kernels"


@pytest.mark.parametrize("module", ["kernels", "geometry", "dynamics"])
def test_point_layer_modules_import_no_estimator_io_or_cli(module):
    # kernels (points, kernels) < linsys < koopman; geometry and dynamics sit on kernels only
    tree = ast.parse(Path(kernelkoop.__file__).with_name(f"{module}.py").read_text("utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            imported.update([node.module] if node.module else [a.name for a in node.names])
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [node.module] if isinstance(node, ast.ImportFrom) else [a.name for a in node.names]
            imported.update(n.split(".", 1)[1] for n in names if n.startswith("kernelkoop."))
    assert imported and not imported & {"koopman", "io", "mocap", "cli"}


_MATERN_AND_C4 = [KernelSpec("matern", beta=0.7), KernelSpec("wendland_c4", support_scale=1.5)]


@pytest.mark.parametrize("spec", _MATERN_AND_C4, ids=lambda s: s.label)
def test_kernel_matrix_of_a_dataset_is_that_of_its_states(spec):
    ds = simulate(PendulumConfig(steps=40))
    X, Y = ds.x, ds.x_next
    assert kernel_matrix(spec, ds, ds).tobytes() == kernel_matrix(spec, X, X).tobytes()
    assert kernel_matrix(spec, ds, Y).tobytes() == kernel_matrix(spec, X, Y).tobytes()
    assert kernel_matrix(spec, Y, ds).tobytes() == kernel_matrix(spec, Y, X).tobytes()


@pytest.mark.parametrize("family", ["wendland_c2", "wendland_c4", "wendland_c6"])
def test_wendland_overflowed_scaled_distance_gives_zero(family):
    # r / 1e-309 overflows to inf for every r above about 0.18, which is outside the support
    spec = KernelSpec(family, support_scale=1e-309)
    points = np.array([[0.0, 0.0], [0.5, 0.0]])
    assert kernel_matrix(spec, points, points).tolist() == [[1.0, 0.0], [0.0, 1.0]]
    assert kernel_matrix(spec, points, points.copy()).tolist() == [[1.0, 0.0], [0.0, 1.0]]
    centers = PointSet(points, indices=[0, 1])
    report = SolveReport(np.ones((2, 1)), 1.0, 1.0)
    estimate = KoopmanEstimate(EstimateMode.PULLBACK, centers, centers, report.coefficients, spec, report)
    queries = np.array([[0.0, 0.0], [0.25, 0.0], [3.0, 0.0]])
    assert predict(estimate, queries).tolist() == [[1.0], [0.0], [0.0]]


# the four families and the squared-distance Matern
_BLOCK_SPECS = ALL_FAMILIES + [KernelSpec("matern", beta=0.7, distance_convention="squared")]


def _block_id(spec):
    return f"{spec.label}-{spec.distance_convention.value}"


def test_row_blocks_cover_the_rows_in_multiples_of_8_of_at_most_the_cap():
    for m, cols in [(0, 5), (1, 5), (1000, 1), (10**5, 37), (5000, 1954), (40, 3 * _MAX_ENTRIES)]:
        blocks = _row_blocks(m, cols)
        rows = blocks[0].stop
        assert rows % 8 == 0 and (rows * cols <= _MAX_ENTRIES or rows == 8), (m, cols)
        assert [(b.start, b.stop) for b in blocks] == [
            (s, s + rows) for s in range(0, max(m, 1), rows)
        ]
    assert _row_blocks(10**5, 1954)[0].stop == 64


def test_a_second_distance_query_runs_no_import_statement(monkeypatch):
    points = np.zeros((2, 2))
    kernelkoop.kernels._cdist(points, points)  # may bind scipy's cdist
    seen = []
    real = builtins.__import__
    monkeypatch.setattr(builtins, "__import__", lambda *args, **kw: seen.append(args[0]) or real(*args, **kw))
    kernelkoop.kernels._cdist(points, points)
    monkeypatch.undo()
    assert seen == []


@pytest.mark.parametrize("spec", _BLOCK_SPECS, ids=_block_id)
def test_blocked_cross_matrix_has_the_bits_of_one_cdist_and_profile(spec):
    rng = np.random.default_rng(5)
    B = rng.uniform(-1.0, 1.0, size=(700, 2))
    rows = _row_blocks(_MAX_ENTRIES, len(B))[0].stop
    for count in (rows - 1, rows, rows + 1, 2 * rows - 1, 2 * rows, 2 * rows + 1):
        A = rng.uniform(-1.0, 1.0, size=(count, 2))
        got = kernel_matrix(spec, A, B)
        assert got.tobytes() == _profile(spec, cdist(A, B)).tobytes(), count
        # the sections of B at A: the transposed assembly, blocked along B
        assert kernel_matrix(spec, B, A).tobytes() == _profile(spec, cdist(B, A)).tobytes(), count


def _pdist_gram(spec, points):
    """The Gram as one profile of the condensed distances, squared out, with K(x, x) on the diagonal."""
    expected = squareform(_profile(spec, pdist(points)))
    np.fill_diagonal(expected, _profile(spec, np.float64(0.0)))
    return expected


@pytest.mark.parametrize("spec", _BLOCK_SPECS, ids=_block_id)
def test_chunked_gram_has_the_bits_of_one_profile_of_pdist(spec, monkeypatch):
    # M = 513 is read in three upper row panels of 248, 248 and 17 rows
    rng = np.random.default_rng(6)
    points = rng.uniform(-1.0, 1.0, size=(513, 2))
    assert [(b.start, b.stop) for b in _row_blocks(513, 513)] == [(0, 248), (248, 496), (496, 744)]
    assert kernel_matrix(spec, points, points).tobytes() == _pdist_gram(spec, points).tobytes()
    # 8-row panels: one row short of, at and one row past the first three panel edges
    monkeypatch.setattr(kernelkoop.kernels, "_MAX_ENTRIES", 8)
    for m in (7, 8, 9, 15, 16, 17, 23, 24, 25, 1954):
        points = rng.uniform(-1.0, 1.0, size=(m, 2))
        assert len(_row_blocks(m, m)) == -(-m // 8), m
        assert kernel_matrix(spec, points, points).tobytes() == _pdist_gram(spec, points).tobytes(), m
        assert separation(points) == 0.5 * pdist(points).min(), m


@pytest.mark.parametrize(
    "pair",
    [(2, 5), (3, 12), (0, 19), (18, 19)],
    ids=["one-panel", "two-panels", "first-and-last-row", "last-panel"],
)
@pytest.mark.parametrize("rows", [8, None], ids=["8-row-panels", "default-panels"])
def test_duplicates_raise_wherever_the_panels_put_them(pair, rows, monkeypatch):
    if rows:
        monkeypatch.setattr(kernelkoop.kernels, "_MAX_ENTRIES", rows)
    points = np.random.default_rng(9).uniform(-1.0, 1.0, size=(20, 3))
    points[pair[1]] = points[pair[0]]
    with pytest.raises(DegenerateInputError, match="^kernel centers must be pairwise distinct$"):
        kernel_matrix(KernelSpec("wendland_c2"), points, points)
    with pytest.raises(DegenerateInputError, match="^centers must be pairwise distinct$"):
        separation(points)


@pytest.mark.parametrize("spec", _BLOCK_SPECS, ids=_block_id)
def test_cross_matrix_memory_beside_its_output_does_not_grow_with_the_rows(spec):
    # assembled unblocked, a 2e4 x 200 matrix needs 60-160 MiB of temporaries beside it
    rng = np.random.default_rng(8)
    B = rng.uniform(-1.0, 1.0, size=(200, 2))
    for m in (2_000, 20_000):
        A = rng.uniform(-1.0, 1.0, size=(m, 2))
        tracemalloc.start()
        try:
            K = kernel_matrix(spec, A, B)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - K.nbytes < 8 * _MAX_ENTRIES * 8, m


@pytest.mark.parametrize("spec", _BLOCK_SPECS, ids=_block_id)
def test_gram_memory_beside_its_output_does_not_grow_with_the_points(spec):
    # a condensed distance array beside K is half a K: 14.6 MiB at M = 2000
    rng = np.random.default_rng(10)
    for m in (500, 2_000):
        points = rng.uniform(-1.0, 1.0, size=(m, 2))
        tracemalloc.start()
        try:
            K = kernel_matrix(spec, points, points)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - K.nbytes < 8 * _MAX_ENTRIES * 8, m


def _imported(node) -> list[str]:
    """The dotted names an import statement brings in, each with its module."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom):
        return [f"{node.module}.{alias.name}" for alias in node.names]
    return []


def test_only_kernels_computes_distances():
    # one distance owner: kernels imports scipy.spatial at one place and names no distance
    # function but cdist, no other module names one; geometry imports nothing from scipy at all
    spatial = []
    for path in sorted(Path(kernelkoop.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            names = _imported(node)
            if any(name.startswith("scipy.spatial") for name in names):
                spatial.append(path.name)
            if path.name == "geometry.py":
                assert not any(name.startswith("scipy") for name in names), node.lineno
            named = {"cdist"} if path.name == "kernels.py" else set()
            assert not ({"cdist", "pdist", "squareform"} - named) & {
                getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "name", None)
            }, (path.name, getattr(node, "lineno", None))
    assert spatial == ["kernels.py"]


def test_only_kernels_converts_to_float():
    # one float rule, kernels._floats: no other module passes dtype=float or calls .astype(float)
    for path in sorted(Path(kernelkoop.__file__).parent.glob("*.py")):
        if path.name == "kernels.py":
            continue
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            assert not any(
                kw.arg == "dtype" and getattr(kw.value, "id", None) == "float"
                for kw in node.keywords
            ), (path.name, node.lineno)
            assert not (
                getattr(node.func, "attr", None) == "astype"
                and any(getattr(arg, "id", None) == "float" for arg in node.args)
            ), (path.name, node.lineno)


def test_only_kernels_sizes_the_blocks():
    # one block rule, kernels._row_blocks: no other module reads the cap or writes a block
    # formula of its own, a max(...) over a floor division or a range(...) with a step
    for path in sorted(Path(kernelkoop.__file__).parent.glob("*.py")):
        if path.name == "kernels.py":
            continue
        tree = ast.parse(path.read_text("utf-8"))
        for node in ast.walk(tree):
            assert "_MAX_ENTRIES" not in (
                getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "name", None)
            ), path.name
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                assert not (node.func.id == "range" and len(node.args) == 3), (path.name, node.lineno)
                assert not (node.func.id == "max" and any(
                    isinstance(n, ast.BinOp) and isinstance(n.op, ast.FloorDiv)
                    for arg in node.args for n in ast.walk(arg)
                )), (path.name, node.lineno)
