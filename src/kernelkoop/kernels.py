"""Strictly positive-definite kernel families, kernel-matrix assembly and distance queries.

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

Distances come from ``scipy.spatial.distance.cdist``, imported by the
first distance query in a process, not with this module, so that
``simulate``, ``--help`` and argument errors do not load scipy.

Distance queries run in blocks of rows (``_row_blocks``).  Two row sweeps
that write one value per row, ``koopman.predict`` and fill distance's
``_nearest``, share their blocks between the calling thread and at most
one helper thread, a ``ThreadPoolExecutor``'s worker built by the first
such sweep (``_each``): two threads when the process may use two or more
CPUs, none beside the caller on one CPU.  Every block writes only its own
rows, so the number of threads changes no bit.  There is no option for
it; ``taskset -c 0`` (or any affinity mask of one CPU) keeps a process to
one thread.  The Gram, the cross matrix and ``separation`` run their
blocks in the calling thread.  The greedy subselection's query, ``_Strip``,
sorts the states once by their first coordinate and measures a point's
distances only to the states whose first coordinate is within about
``eta`` of its own, in the calling thread alone.
"""

from __future__ import annotations

import contextlib
import contextvars
import enum
import math
import os
import threading
from dataclasses import asdict, dataclass, fields
from typing import Iterator, Mapping

import numpy as np

from .errors import ConfigError, DegenerateInputError, InvalidArgumentError

_SQRT3 = math.sqrt(3.0)
# Cap on the entries of one distance or kernel temporary: 1 MiB of float64,
# whatever the number of points, so that a block's distances and the two
# temporaries of its profile stay near a core's L2 cache.
_MAX_ENTRIES = 1 << 17
# `_each`'s helper threads are the `_MOST - 1` workers of `_EXECUTOR`, built under `_STARTING`
# by the first query that shares its blocks.
_MOST = 2  # threads that share a query at most: the most this was measured with (2 vCPUs)
_EXECUTOR = None
_STARTING = threading.Lock()


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


# spellings beside each member's own value; keys are lowercased with
# separators squashed out
_ALIASES = {
    "matern": KernelFamily.MATERN_SOBOLEV_32,
    "matern32": KernelFamily.MATERN_SOBOLEV_32,
    "plaindistance": DistanceConvention.PLAIN,
    "squareddistance": DistanceConvention.SQUARED,
}


def _coerce(enum_cls: type[enum.Enum], value, what: str):
    """The member of ``enum_cls`` that ``value`` names, in any case, with or without '-'/'_'."""
    if isinstance(value, enum_cls):
        return value
    key = str(value).strip().lower().replace("-", "").replace("_", "")
    member = {m.value.replace("_", ""): m for m in enum_cls}.get(key, _ALIASES.get(key))
    if not isinstance(member, enum_cls):
        raise ConfigError(f"unknown {what} {value!r}")
    return member


@dataclass(frozen=True)
class KernelSpec:
    """A kernel family together with its hyperparameters.

    Parameters
    ----------
    family : KernelFamily or str
        One of the four supported families.
    beta : float
        Matern decay hyperparameter, dimensionless, finite and > 0.
        Unused by the Wendland families.
    support_scale : float
        Wendland support radius in state-coordinate units, finite and
        > 0.  Unused by the Matern family.
    distance_convention : DistanceConvention or str
        Only meaningful for the Matern family; default PLAIN.
    """

    family: KernelFamily
    beta: float = 1.0
    support_scale: float = 1.0
    distance_convention: DistanceConvention = DistanceConvention.PLAIN

    def __post_init__(self) -> None:
        object.__setattr__(self, "family", _coerce(KernelFamily, self.family, "kernel family"))
        convention = _coerce(DistanceConvention, self.distance_convention, "distance convention")
        object.__setattr__(self, "distance_convention", convention)
        for key in ("beta", "support_scale"):
            raw = getattr(self, key)
            try:
                value = float(raw)
            except (TypeError, ValueError, OverflowError):  # an int too large for a float
                raise InvalidArgumentError(f"{key} must be a number, got {raw!r}") from None
            if not 0 < value < math.inf:
                raise InvalidArgumentError(f"{key} must be finite and > 0, got {value}")
            object.__setattr__(self, key, value)

    @property
    def label(self) -> str:
        """Short human-readable tag used in CSV rows."""
        if self.family is KernelFamily.MATERN_SOBOLEV_32:
            return f"matern_sobolev32(beta={self.beta:g})"
        return self.family.value

    def to_config(self) -> dict[str, str]:
        """Flat key-value form, the inverse of :meth:`from_config`."""
        return {
            key: value.value if isinstance(value, enum.Enum) else repr(value)
            for key, value in asdict(self).items()
        }

    @classmethod
    def from_config(cls, mapping: Mapping[str, str]) -> "KernelSpec":
        """Build a spec from a flat key-value block (all values strings); other keys are ignored."""
        if "family" not in mapping:
            raise ConfigError("kernel config is missing the 'family' key")
        return cls(**{f.name: mapping[f.name] for f in fields(cls) if f.name in mapping})


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
        if isinstance(self.points, TrajectoryDataset):  # _points would take its states
            raise TypeError("a PointSet holds points, not a TrajectoryDataset")
        self.points = _points(self.points, "points")
        if self.indices is not None:
            self.indices = _integers(self.indices, "indices")
            if self.indices.shape != (len(self),):
                raise InvalidArgumentError(
                    f"indices must have shape ({len(self)},), got {self.indices.shape}"
                )

    def __len__(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


@dataclass
class TrajectoryDataset:
    """Ordered samples (k_i, x_{k_i}, x_{k_i+1}, y_{k_i+1}) from one trajectory.

    Both the sampled states and their advanced states are stored, so the
    estimators never need the (unknown) dynamics map itself.  Outputs are
    measurements of the (unknown) observable at the advanced states.
    Time indices must be unique and all values finite.
    """

    k: np.ndarray
    x: np.ndarray
    x_next: np.ndarray
    y_next: np.ndarray

    def __post_init__(self) -> None:
        self.k = _integers(self.k, "k")
        for key in ("x", "x_next", "y_next"):
            arr = as_points(getattr(self, key), key)
            if arr.ndim != 2:
                raise InvalidArgumentError(f"{key} must be 1-D or 2-D, got shape {arr.shape}")
            setattr(self, key, arr)
        m = self.x.shape[0]
        if self.k.shape != (m,) or self.x_next.shape[0] != m or self.y_next.shape[0] != m:
            raise InvalidArgumentError("record arrays must have equal length")
        if self.x.shape != self.x_next.shape:
            raise InvalidArgumentError("x and x_next must share dimension")
        if m == 0:
            raise DegenerateInputError("dataset is empty")
        if not all(np.isfinite(a).all() for a in (self.x, self.x_next, self.y_next)):
            raise DegenerateInputError("x, x_next and y_next must be finite")
        if np.unique(self.k).size != m:
            raise DegenerateInputError("time indices k must be unique")

    def __len__(self) -> int:
        return self.k.shape[0]

    @property
    def state_dim(self) -> int:
        return self.x.shape[1]

    @property
    def output_dim(self) -> int:
        return self.y_next.shape[1]


def as_points(obj, what: str = "points") -> np.ndarray:
    """The points of a PointSet or array-like as a float array.

    A 1-D input of length M is M points on the real line, shape (M, 1);
    other shapes are returned as given for the caller to validate.  An
    input that is not an array of real numbers (ragged, text, complex)
    raises InvalidArgumentError naming ``what``.
    """
    if isinstance(obj, PointSet):
        return obj.points
    pts = _floats(obj, what)
    return pts[:, None] if pts.ndim == 1 else pts


def _floats(obj, what: str) -> np.ndarray:
    """``obj`` as a float array, not copied if it is one; ragged, text or complex input raises.

    Complex input is refused, not cast with its imaginary part dropped.
    """
    try:
        arr = np.asarray(obj)
        if arr.dtype.kind != "c":
            return arr.astype(float, copy=False)
    except (TypeError, ValueError, OverflowError):  # OverflowError: an int too large for a float
        pass
    raise InvalidArgumentError(f"{what} must be a rectangular array of real numbers")


def _finite(obj, what: str) -> np.ndarray:
    """``obj`` as ``_floats`` converts it, every value finite, else InvalidArgumentError."""
    arr = _floats(obj, what)
    if not np.isfinite(arr).all():
        raise InvalidArgumentError(f"{what} must be finite")
    return arr


def _integers(values, what: str) -> np.ndarray:
    """``values``, a scalar or 1-D, as int64; each must be an integer in the int64 range.

    An integral float is one; NaN, 0.5, 2**63, a bool or text is not, and
    raises InvalidArgumentError naming ``what`` and the first bad value.
    A list is checked element by element, not as the array numpy would
    make of it, which turns [0, True] into [0, 1] and [0, 2**63] into floats.
    """
    typed = isinstance(values, (np.ndarray, np.generic))
    arr = np.asarray(values) if typed else np.asarray(values, dtype=object)
    if arr.ndim > 1:
        raise InvalidArgumentError(f"{what} must be a scalar or 1-D, got shape {arr.shape}")
    if arr.dtype.kind in "iu":  # a uint64 past the int64 range wraps to a negative int64
        ok = arr == arr.astype(np.int64)
    elif arr.dtype.kind == "f":
        ok = (arr == np.floor(arr)) & (arr >= -(2.0**63)) & (arr < 2.0**63)
    else:  # bools, text and the elements of a list
        ok = np.vectorize(_is_int64, otypes=[bool])(arr)
    if not ok.all():
        bad = arr[~ok][0]
        bad = bad.item() if isinstance(bad, np.generic) else bad
        raise InvalidArgumentError(f"{what} must be integers in the int64 range, got {bad!r}")
    return arr.astype(np.int64, copy=False)


def _is_int64(v) -> bool:
    """Whether one value is an integer, or an integral float, in the int64 range; no bool is."""
    if isinstance(v, (bool, np.bool_)) or not isinstance(v, (int, float, np.integer, np.floating)):
        return False
    # v == v first: an ordered comparison with NaN would raise the invalid flag
    return v == v and -(2**63) <= v < 2**63 and v == int(v)


def _time_indices(obj) -> np.ndarray:
    """The time indices of points: a dataset's k, else a PointSet's indices, else 0..m-1."""
    if isinstance(obj, TrajectoryDataset):
        return obj.k
    indices = obj.indices if isinstance(obj, PointSet) else None
    return np.arange(len(as_points(obj))) if indices is None else indices


def _points(obj, what: str) -> np.ndarray:
    """The points ``what`` of a dataset (its states), PointSet or array: nonempty (m, d), finite."""
    if isinstance(obj, TrajectoryDataset):
        obj = obj.x
    pts = as_points(obj, what)
    if pts.ndim != 2 or 0 in pts.shape:
        raise DegenerateInputError(
            f"{what} must be a nonempty (m, d) set of points, got shape {np.shape(obj)}"
        )
    if not np.isfinite(pts).all():
        raise InvalidArgumentError(f"{what} must be finite")
    return pts


def _row_blocks(m: int, cols: int) -> list[slice]:
    """Row blocks of an (m, cols) array: 8k rows, at most ``_MAX_ENTRIES`` entries unless k = 1.

    m = 0 gives one empty slice, so a loop over the blocks still makes one call.
    """
    rows = max(8, _MAX_ENTRIES // cols // 8 * 8)
    return [slice(s, s + rows) for s in range(0, max(m, 1), rows)]


def _participants() -> int:
    """Threads that share a blocked query: the CPUs this process may use, at most ``_MOST``."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return min(cpus, _MOST)


def _each(fn, items: list) -> None:
    """Call ``fn`` on every item, in this thread and ``_participants() - 1`` helper jobs.

    Its callers are the two row sweeps, ``koopman.predict`` and ``_nearest``.
    Each participant takes the next item from one shared iterator until none
    is left, so ``fn`` must write only what its item owns.  One participant,
    or one item, is a plain loop.  The first exception stops every
    participant from taking a further item and is raised here once they have
    all stopped.  A job the helper has not started when this thread runs out
    of items is cancelled, so a busy helper never blocks the caller; at
    interpreter shutdown this thread runs every item.  Jobs run in a copy of
    the caller's context, so numpy's ``errstate`` holds in the helper too.
    """
    global _EXECUTOR
    n = min(len(items), _participants())
    if n < 2:
        for item in items:
            fn(item)
        return
    todo = iter(items)  # next() on a list iterator is atomic under the GIL
    errors = []

    def drain():
        try:
            for item in todo:
                if errors:
                    break
                fn(item)
        except BaseException as exc:  # raised in the caller once every participant stops
            errors.append(exc)

    jobs = []  # extended job by job: a refused job leaves the earlier ones in the list
    with contextlib.suppress(RuntimeError):  # interpreter shutdown: no import, thread or job
        with _STARTING:
            if _EXECUTOR is None:
                from concurrent.futures import ThreadPoolExecutor
                _EXECUTOR = ThreadPoolExecutor(_MOST - 1, thread_name_prefix="kernelkoop-helper")
        jobs.extend(_EXECUTOR.submit(contextvars.copy_context().run, drain) for _ in range(n - 1))
    drain()
    try:
        for job in jobs:
            if not job.cancel():  # the helper has started it: wait for it to stop
                job.result()
    except BaseException as exc:  # interrupted while waiting: the helper stops too
        errors.append(exc)
        raise
    if errors:
        raise errors[0]


# A forked child has none of the parent's threads: its first shared query builds its own
# executor, under a new lock, since a thread the child lacks may have held the old one.
if hasattr(os, "register_at_fork"):  # not on Windows
    os.register_at_fork(
        after_in_child=lambda: globals().update(_EXECUTOR=None, _STARTING=threading.Lock())
    )


_scipy_cdist = None  # scipy.spatial.distance.cdist, bound by the first _cdist call


def _cdist(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``scipy.spatial.distance.cdist(a, b, out=out)``, scipy imported by the first call.

    Later calls run no import statement: a strip query is a few
    microseconds, of which the statement took more than one.
    """
    global _scipy_cdist
    if _scipy_cdist is None:
        from scipy.spatial.distance import cdist as _scipy_cdist
    return _scipy_cdist(a, b, out=out)


class _Strip:
    """The states sorted by their first coordinate, for queries of the states near a point.

    A state within ``eta`` of a point has its first coordinate within ``eta``
    of the point's, so ``near`` measures only the states of that strip.
    """

    def __init__(self, states: np.ndarray) -> None:
        self.order = np.argsort(states[:, 0], kind="stable")
        self.states = states[self.order]
        self.key = np.ascontiguousarray(self.states[:, 0])

    def near(self, point: np.ndarray, eta: float) -> np.ndarray:
        """The rows of the states whose ``cdist`` from ``point``, a (d,) array, is not > ``eta``.

        The strip is padded past ``eta`` by more than the rounding of ``cdist``
        can take off a distance: 1e-9 of it, 2**-50 * |point[0]| (4 eps) for
        the coordinates, and 2**-500 for squares that underflow.  The pad is
        a Python float, which overflows to inf unwarned: every state is then
        in the strip.
        """
        p0 = float(point[0])
        pad = float(eta) * (1.0 + 1e-9) + 2.0**-50 * abs(p0) + 2.0**-500
        lo, hi = self.key.searchsorted(p0 - pad), self.key.searchsorted(p0 + pad, "right")
        dist = _cdist(point[None], self.states[lo:hi])[0]
        return self.order[lo:hi][~(dist > eta)]


def _nearest(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Each point's distance to its nearest center, one row block of points at a time."""
    out = np.empty(len(points))

    def block(blk):
        _cdist(points[blk], centers).min(axis=1, out=out[blk])

    _each(block, _row_blocks(len(points), len(centers)))
    return out


def _pairwise(points: np.ndarray, what: str) -> Iterator[tuple[slice, np.ndarray]]:
    """Upper row panels ``(blk, cdist(points[blk], points[blk.start:]))``; a zero raises.

    The panels are made in the calling thread.  A panel's diagonal, a point
    against itself, holds inf.
    """
    for blk in _row_blocks(len(points), len(points)):
        panel = _cdist(points[blk], points[blk.start:])
        np.fill_diagonal(panel, np.inf)
        if float(panel.min()) == 0.0:
            raise DegenerateInputError(f"{what} must be pairwise distinct")
        yield blk, panel


def _profile(spec: KernelSpec, r: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Evaluate the radial profile on an array of Euclidean distances.

    The Wendland polynomials are evaluated only inside the support, d < 1
    (NaN counts as inside, so it propagates); every other entry is 0.0,
    which is what the truncated polynomial gives there.

    The values go to ``out`` (r's shape, and it may be r itself), which is
    returned; without it they go to a new array, and r is left as it is.
    """
    if out is None:
        out = np.empty(np.shape(r))
    if spec.family is KernelFamily.MATERN_SOBOLEV_32:
        plain = spec.distance_convention is DistanceConvention.PLAIN
        # (1 + s) exp(-s) in five passes over t = -s; negation is exact, so -(scale*r),
        # max(t, -746) = -min(s, 746) and 1 - t = 1 + s keep the bits of the s form.
        # exp(-s) is 0.0 from s = 745.14 on, so clamping s at 746 keeps the bits of every
        # finite s and gives 0.0 where the distance, its square or the product overflowed
        scale = min(_SQRT3 / spec.beta, np.finfo(float).max)  # finite: s = 0, not NaN, at r = 0
        with np.errstate(over="ignore"):
            t = np.multiply(-scale, r if plain else np.multiply(r, r, out=out), out=out)
        np.maximum(t, -746.0, out=t)
        e = np.exp(t)
        np.subtract(1.0, t, out=t)
        t *= e
        return t
    # a distance that overflows to inf is outside the support, so it gives 0.0 unwarned
    with np.errstate(over="ignore"):
        d = r / spec.support_scale
    out[...] = 0.0
    inside = ~(d >= 1.0)
    d = d[inside]
    t = 1.0 - d
    if spec.family is KernelFamily.WENDLAND_C2:
        out[inside] = t**4 * (4.0 * d + 1.0)
    elif spec.family is KernelFamily.WENDLAND_C4:
        out[inside] = t**6 * (35.0 * d * d + 18.0 * d + 3.0) / 3.0
    else:
        out[inside] = t**8 * (32.0 * d**3 + 25.0 * d * d + 8.0 * d + 1.0)
    return out


def eval_kernel(spec: KernelSpec, x, y) -> float:
    """Evaluate K(x, y) for two points of equal dimension, as a 1x1 cross matrix."""
    xv = as_points(x, "kernel points").ravel()
    yv = as_points(y, "kernel points").ravel()
    return float(kernel_matrix(spec, xv[None, :], yv[None, :])[0, 0])


def kernel_matrix(spec: KernelSpec, A, B) -> np.ndarray:
    """Assemble the matrix [K(a_i, b_j)] for two point sets.

    Passing the same object as A and B (``B is A``) asks for the Gram
    matrix: each upper row panel of pairwise distances is profiled once
    and written with its transpose, so K is exactly symmetric, and the
    points are required to be pairwise distinct (the matrix would be
    singular otherwise).  Any other pair is assembled as a cross matrix,
    even when the two hold equal points.  Every coordinate must be finite.

    Both are assembled in blocks of at most ``_MAX_ENTRIES`` distances, in
    the calling thread, so the memory beside the output does not grow with
    the number of points; distances and profile are elementwise, so the
    blocks change no bit.
    """
    gram = B is A
    pa = _points(A, "kernel points")
    pb = pa if gram else _points(B, "kernel points")
    if pa.shape[1] != pb.shape[1]:
        raise InvalidArgumentError(
            f"dimension mismatch: {pa.shape[1]} vs {pb.shape[1]}"
        )
    if not gram:
        out = np.empty((pa.shape[0], pb.shape[0]))
        for blk in _row_blocks(*out.shape):
            _cdist(pa[blk], pb, out=out[blk])
            _profile(spec, out[blk], out=out[blk])
        return out
    K = np.empty((len(pa), len(pa)))
    for blk, panel in _pairwise(pa, "kernel centers"):
        _profile(spec, panel, out=panel)
        K[blk, blk.start:] = panel
        K[blk.start:, blk] = panel.T
    np.fill_diagonal(K, _profile(spec, np.float64(0.0)))
    return K
