"""Strictly positive-definite kernel families and kernel-matrix assembly.

Two families are provided, both radial in the Euclidean distance
``r = ||x - y||_2``:

* Matern 3/2 with decay hyperparameter ``beta``:
  ``(1 + sqrt(3)*r/beta) * exp(-sqrt(3)*r/beta)``.
* Wendland compactly supported polynomials of smoothness C2, C4 and C6,
  in the scaled distance ``d = r / support_scale`` with ``(1 - d)_+``
  truncation, normalized so that K(x, x) = 1::

      C2: (1-d)_+^4 (4d + 1)
      C4: (1-d)_+^6 (35d^2 + 18d + 3) / 3
      C6: (1-d)_+^8 (32d^3 + 25d^2 + 8d + 1)

The Matern family additionally supports a nonstandard "squared" distance
convention that feeds ``r^2`` into the same profile.  The squared variant
is not guaranteed positive definite and exists only so runs using that
convention can be compared; PLAIN is the default everywhere.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np
from scipy.spatial.distance import cdist, pdist, squareform

from .errors import ConfigError, DegenerateInputError, InvalidArgumentError

_SQRT3 = math.sqrt(3.0)


class KernelFamily(enum.Enum):
    """Supported kernel families."""

    MATERN_SOBOLEV_32 = "matern_sobolev32"
    WENDLAND_C2 = "wendland_c2"
    WENDLAND_C4 = "wendland_c4"
    WENDLAND_C6 = "wendland_c6"


class DistanceConvention(enum.Enum):
    """Distance measure fed to the Matern profile.

    PLAIN uses ``||x - y||_2`` (standard, strictly positive definite).
    SQUARED uses ``||x - y||_2^2`` and is kept only for comparison runs;
    it loses the positive-definiteness guarantee.
    """

    PLAIN = "plain"
    SQUARED = "squared"


# keys are lowercased with separators squashed out
_FAMILY_ALIASES = {
    "maternsobolev32": KernelFamily.MATERN_SOBOLEV_32,
    "matern": KernelFamily.MATERN_SOBOLEV_32,
    "matern32": KernelFamily.MATERN_SOBOLEV_32,
    "wendlandc2": KernelFamily.WENDLAND_C2,
    "wendlandc4": KernelFamily.WENDLAND_C4,
    "wendlandc6": KernelFamily.WENDLAND_C6,
}

_CONVENTION_ALIASES = {
    "plain": DistanceConvention.PLAIN,
    "plaindistance": DistanceConvention.PLAIN,
    "squared": DistanceConvention.SQUARED,
    "squareddistance": DistanceConvention.SQUARED,
}


def _coerce_family(value: KernelFamily | str) -> KernelFamily:
    if isinstance(value, KernelFamily):
        return value
    key = str(value).strip().lower().replace("-", "").replace("_", "")
    try:
        return _FAMILY_ALIASES[key]
    except KeyError:
        raise ConfigError(f"unknown kernel family {value!r}") from None


def _coerce_convention(value: DistanceConvention | str) -> DistanceConvention:
    if isinstance(value, DistanceConvention):
        return value
    key = str(value).strip().lower().replace("-", "").replace("_", "")
    try:
        return _CONVENTION_ALIASES[key]
    except KeyError:
        raise ConfigError(f"unknown distance convention {value!r}") from None


@dataclass(frozen=True)
class KernelSpec:
    """A kernel family together with its hyperparameters.

    Parameters
    ----------
    family : KernelFamily or str
        One of the four supported families.
    beta : float
        Matern decay hyperparameter, dimensionless, > 0.  Unused by the
        Wendland families.
    support_scale : float
        Wendland support radius in state-coordinate units, > 0.  Unused
        by the Matern family.
    distance_convention : DistanceConvention or str
        Only meaningful for the Matern family; default PLAIN.
    """

    family: KernelFamily
    beta: float = 1.0
    support_scale: float = 1.0
    distance_convention: DistanceConvention = DistanceConvention.PLAIN

    def __post_init__(self) -> None:
        object.__setattr__(self, "family", _coerce_family(self.family))
        object.__setattr__(
            self, "distance_convention", _coerce_convention(self.distance_convention)
        )
        object.__setattr__(self, "beta", float(self.beta))
        object.__setattr__(self, "support_scale", float(self.support_scale))
        if not self.beta > 0:
            raise InvalidArgumentError(f"beta must be > 0, got {self.beta}")
        if not self.support_scale > 0:
            raise InvalidArgumentError(
                f"support_scale must be > 0, got {self.support_scale}"
            )

    @property
    def label(self) -> str:
        """Short human-readable tag used in CSV rows."""
        if self.family is KernelFamily.MATERN_SOBOLEV_32:
            return f"matern_sobolev32(beta={self.beta:g})"
        return self.family.value

    def to_config(self) -> dict[str, str]:
        """Flat key-value form, the inverse of :meth:`from_config`."""
        return {
            "family": self.family.value,
            "beta": repr(self.beta),
            "support_scale": repr(self.support_scale),
            "distance_convention": self.distance_convention.value,
        }

    @classmethod
    def from_config(cls, mapping: Mapping[str, str]) -> "KernelSpec":
        """Build a spec from a flat key-value block (all values strings)."""
        if "family" not in mapping:
            raise ConfigError("kernel config is missing the 'family' key")
        try:
            beta = float(mapping.get("beta", 1.0))
            scale = float(mapping.get("support_scale", 1.0))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad kernel config: {exc}") from exc
        return cls(
            family=mapping["family"],
            beta=beta,
            support_scale=scale,
            distance_convention=mapping.get("distance_convention", "plain"),
        )


@dataclass
class PointSet:
    """Points in ambient space with optional trajectory time indices.

    ``points`` is an (M, d) array; a 1-D input of length M is treated as
    M points on the real line.  ``indices`` carries the trajectory times
    k_i of the points when they were subselected from a trajectory.
    """

    points: np.ndarray
    indices: np.ndarray | None = None

    def __post_init__(self) -> None:
        pts = as_points(self.points)
        if pts.ndim != 2 or pts.shape[0] == 0 or pts.shape[1] == 0:
            raise InvalidArgumentError(
                f"points must form a nonempty (M, d) array, got shape {np.shape(self.points)}"
            )
        if not np.all(np.isfinite(pts)):
            raise InvalidArgumentError("points must be finite")
        self.points = pts
        if self.indices is not None:
            idx = np.asarray(self.indices, dtype=int)
            if idx.shape != (pts.shape[0],):
                raise InvalidArgumentError(
                    f"indices must have shape ({pts.shape[0]},), got {idx.shape}"
                )
            if np.any(idx < 0):
                raise InvalidArgumentError("indices must be nonnegative")
            self.indices = idx

    def __len__(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


def as_points(obj) -> np.ndarray:
    """The points of a PointSet or array-like as a float array.

    A 1-D input of length M is M points on the real line, shape (M, 1);
    other shapes are returned as given for the caller to validate.
    """
    if isinstance(obj, PointSet):
        return obj.points
    pts = np.asarray(obj, dtype=float)
    return pts[:, None] if pts.ndim == 1 else pts


def _profile(spec: KernelSpec, r: np.ndarray) -> np.ndarray:
    """Evaluate the radial profile on an array of Euclidean distances."""
    if spec.family is KernelFamily.MATERN_SOBOLEV_32:
        arg = r if spec.distance_convention is DistanceConvention.PLAIN else r * r
        a = _SQRT3 / spec.beta
        return (1.0 + a * arg) * np.exp(-a * arg)
    d = r / spec.support_scale
    t = np.maximum(1.0 - d, 0.0)
    if spec.family is KernelFamily.WENDLAND_C2:
        return t**4 * (4.0 * d + 1.0)
    if spec.family is KernelFamily.WENDLAND_C4:
        return t**6 * (35.0 * d * d + 18.0 * d + 3.0) / 3.0
    return t**8 * (32.0 * d**3 + 25.0 * d * d + 8.0 * d + 1.0)


def eval_kernel(spec: KernelSpec, x, y) -> float:
    """Evaluate K(x, y) for two points of equal dimension."""
    xv = np.asarray(x, dtype=float).ravel()
    yv = np.asarray(y, dtype=float).ravel()
    if xv.shape != yv.shape:
        raise InvalidArgumentError(
            f"dimension mismatch: {xv.shape[0]} vs {yv.shape[0]}"
        )
    r = float(np.linalg.norm(xv - yv))
    return float(_profile(spec, np.float64(r)))


def kernel_matrix(spec: KernelSpec, A, B) -> np.ndarray:
    """Assemble the matrix [K(a_i, b_j)] for two point sets.

    Passing the same object as A and B (``B is A``) asks for the Gram
    matrix: it is assembled from the pairwise distances once, so it is
    exactly symmetric, and the points are required to be pairwise
    distinct (the matrix would be singular otherwise).  Any other pair is
    assembled as a cross matrix, even when the two hold equal points.
    """
    gram = B is A
    pa = as_points(A)
    pb = pa if gram else as_points(B)
    for pts, obj in ((pa, A), (pb, B)):
        if pts.ndim != 2 or pts.shape[0] == 0:
            raise DegenerateInputError(
                f"expected a nonempty set of points, got shape {np.shape(obj)}"
            )
    if pa.shape[1] != pb.shape[1]:
        raise InvalidArgumentError(
            f"dimension mismatch: {pa.shape[1]} vs {pb.shape[1]}"
        )
    if not gram:
        return _profile(spec, cdist(pa, pb))
    dist = pdist(pa)
    if dist.size and float(dist.min()) == 0.0:
        raise DegenerateInputError("kernel centers must be pairwise distinct")
    K = squareform(_profile(spec, dist))
    np.fill_diagonal(K, _profile(spec, np.float64(0.0)))
    return K
