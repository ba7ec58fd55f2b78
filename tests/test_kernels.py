import math
import re

import numpy as np
import pytest
from scipy.spatial.distance import pdist

from kernelkoop import (
    ConfigError,
    DegenerateInputError,
    DistanceConvention,
    InvalidArgumentError,
    KernelFamily,
    KernelSpec,
    PointSet,
    eval_kernel,
    kernel_matrix,
)

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
    with pytest.raises(InvalidArgumentError):
        PointSet(np.empty((0, 2)))
    with pytest.raises(InvalidArgumentError):
        PointSet(np.array([[1.0, np.nan]]))
    with pytest.raises(InvalidArgumentError):
        PointSet(np.array([[1.0]]), indices=np.array([0, 1]))
