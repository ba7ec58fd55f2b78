"""Marker ingestion, sagittal-plane joint angles, and kinematics-map fitting.

The planar frame uses (forward, up) coordinates.  Hip flexion theta1 is
the signed angle from the body-down direction to the hip-to-knee vector
(forward flexion positive); knee flexion theta2 is the interior angle
between the thigh and shank vectors, in [0, pi].  The outputs y1, y2 are
the ankle position relative to the hip, resolved along the up and forward
body axes respectively.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, fields, replace
from typing import Iterable

import numpy as np

from .errors import CsvFormatError, DegenerateInputError, InvalidArgumentError
from .geometry import subselect_centers
from .io import _read_body, _read_header
from .kernels import KernelSpec, TrajectoryDataset, _finite, _integers
from .koopman import KoopmanEstimate, fit_pullback

log = logging.getLogger(__name__)

_AXIS_NAMES = {"x": 0, "y": 1, "z": 2}
_MARKERS = ("hip", "knee", "ankle")
_SEGMENT_EPS = 1e-12

MARKER_COLUMNS = ("t", *(f"{name}_{axis}" for name in _MARKERS for axis in "xyz"))


@dataclass(frozen=True)
class _Markers:
    """Finite hip, knee and ankle markers (meters) of one frame or of len() frames.

    For n frames, ``t`` has shape (n,) and each marker (n, _width); a
    single frame has a scalar ``t`` and (_width,) markers.
    """

    t: int | np.ndarray
    hip: np.ndarray
    knee: np.ndarray
    ankle: np.ndarray

    def __post_init__(self) -> None:
        t = _integers(self.t, "t")
        object.__setattr__(self, "t", t.item() if t.ndim == 0 else t)
        shape = t.shape + (self._width,)
        for name in _MARKERS:
            v = _finite(getattr(self, name), f"{name} marker")
            if v.shape != shape:
                raise InvalidArgumentError(f"{name} marker must be a {self._width}-vector per frame")
            object.__setattr__(self, name, v)

    def __len__(self) -> int:
        return int(np.size(self.t))


class MarkerFrame(_Markers):
    """3-D hip, knee and ankle markers (meters) of one frame or of len() frames."""

    _width = 3


class PlanarFrame(_Markers):
    """Markers projected to the sagittal plane, coordinates (forward, up)."""

    _width = 2


@dataclass(frozen=True)
class JointAngleSample:
    """Joint angles (rad) and hip-relative ankle coordinates (m) of one or len() frames.

    For n frames every field is an (n,) array, and ``samples[i]`` is the
    i-th sample, with scalar fields.
    """

    t: int | np.ndarray
    theta1: float | np.ndarray
    theta2: float | np.ndarray
    y1: float | np.ndarray
    y2: float | np.ndarray

    def __len__(self) -> int:
        return int(np.size(self.t))

    def __getitem__(self, i: int) -> JointAngleSample:
        return JointAngleSample(*(getattr(self, f.name)[i].item() for f in fields(self)))


def _axis_index(axis: str) -> int:
    try:
        return _AXIS_NAMES[axis.strip().lower()]
    except (AttributeError, KeyError):
        raise InvalidArgumentError(f"unknown axis {axis!r}; use x, y or z") from None


def _plane_indices(plane_axes) -> np.ndarray:
    """Coordinate indices of the (forward, up) axes, two distinct names of x, y and z."""
    try:
        fwd, up = plane_axes
    except (TypeError, ValueError):  # not an iterable of two
        raise InvalidArgumentError(f"plane axes must be a pair, got {plane_axes!r}") from None
    fwd, up = _axis_index(fwd), _axis_index(up)
    if fwd == up:
        raise InvalidArgumentError("plane axes must be two distinct coordinate axes")
    return np.array([fwd, up])


def project_sagittal(frame: MarkerFrame, plane_axes=("x", "z")) -> PlanarFrame:
    """Drop the mediolateral coordinate, keeping (forward, up) components."""
    sel = _plane_indices(plane_axes)
    return PlanarFrame(frame.t, *(getattr(frame, name)[..., sel] for name in _MARKERS))


def _samples(frames: PlanarFrame) -> tuple[JointAngleSample, list[str]]:
    """The samples of the frames along the leading axis, and one message per degenerate frame."""
    v1 = frames.knee - frames.hip
    v2 = frames.ankle - frames.knee
    rel = frames.ankle - frames.hip
    n1 = np.sqrt((v1 * v1).sum(axis=1))
    n2 = np.sqrt((v2 * v2).sum(axis=1))
    # signed angle from the body-down direction (0, -1) to v1, forward positive
    theta1 = np.arctan2(v1[:, 0], -v1[:, 1])
    with np.errstate(divide="ignore", invalid="ignore"):  # degenerate frames are dropped
        theta2 = np.arccos(np.clip((v1 * v2).sum(axis=1) / (n1 * n2), -1.0, 1.0))
    bad = (n1 < _SEGMENT_EPS) | (n2 < _SEGMENT_EPS)
    skipped = [
        f"frame {t}: zero-length limb segment (hip-knee {a:.3e}, knee-ankle {b:.3e})"
        for t, a, b in zip(frames.t[bad].tolist(), n1[bad].tolist(), n2[bad].tolist())
    ]
    columns = (frames.t, theta1, theta2, rel[:, 1], rel[:, 0])
    return JointAngleSample(*(v[~bad] for v in columns)), skipped


def joint_angles(frame: PlanarFrame) -> JointAngleSample:
    """Hip and knee flexion angles plus hip-relative ankle coordinates of one frame.

    Raises DegenerateInputError when a limb segment has zero length.
    """
    row = (np.reshape(getattr(frame, name), (1, 2)) for name in _MARKERS)
    samples, skipped = _samples(PlanarFrame(np.array([frame.t]), *row))
    if skipped:
        raise DegenerateInputError(skipped[0])
    return samples[0]


def extract_angles(
    frames: MarkerFrame | Iterable[MarkerFrame], plane_axes=("x", "z")
) -> JointAngleSample:
    """Project and convert every frame, skipping degenerate ones with a warning.

    ``frames`` is a MarkerFrame of n frames, as read_marker_csv returns, or
    an iterable of single frames, which is stacked into one first.  The
    result is one record of the kept frames, each field an array with one
    entry per sample.
    """
    if not isinstance(frames, MarkerFrame):
        frames = list(frames)
        rows = (np.reshape([getattr(f, name) for f in frames], (-1, 3)) for name in _MARKERS)
        frames = MarkerFrame(np.array([f.t for f in frames]), *rows)
    samples, skipped = _samples(project_sagittal(frames, plane_axes))
    for message in skipped:
        log.warning("skipping frame: %s", message)
    if skipped:
        log.warning("skipped %d degenerate frame(s)", len(skipped))
    return samples


def read_marker_csv(path) -> MarkerFrame:
    """Read every marker frame of a CSV with the documented columns.

    Columns are found by header name, in any order; other columns are
    ignored, and so are '#' lines.  Rows containing non-finite values are
    skipped and counted in the log.  ``t`` must be an integral frame index.
    """
    with open(path, encoding="utf-8") as fh:
        _, header = _read_header(fh, path)
        missing = [c for c in MARKER_COLUMNS if c not in header]
        if missing:
            raise CsvFormatError(f"{path}: missing column(s) {', '.join(missing)}")
        table = _read_body(fh, path, usecols=[header.index(c) for c in MARKER_COLUMNS], ndmin=2)
    finite = np.isfinite(table).all(axis=1)
    if not finite.all():
        skipped = np.count_nonzero(~finite)
        log.warning("%s: skipped %d frame(s) with non-finite markers", path, skipped)
        table = table[finite]
    try:
        return MarkerFrame(table[:, 0], *np.split(table[:, 1:], 3, axis=1))
    except InvalidArgumentError as exc:  # the markers are finite, so t is at fault
        raise CsvFormatError(f"{path}: bad integer frame index ({exc})") from None


def build_dataset(samples: JointAngleSample) -> TrajectoryDataset:
    """Consecutive-sample trajectory in (theta1, theta2) with (y1, y2) outputs."""
    if len(samples) < 2:
        raise DegenerateInputError("need at least 2 angle samples to form a trajectory")
    states = np.column_stack((samples.theta1, samples.theta2))
    outputs = np.column_stack((samples.y1, samples.y2))
    return TrajectoryDataset(
        k=np.arange(len(samples) - 1),
        x=states[:-1],
        x_next=states[1:],
        y_next=outputs[1:],
    )


def fit_kinematics(
    samples: JointAngleSample,
    eta: float,
    kernel: KernelSpec,
) -> tuple[KoopmanEstimate, KoopmanEstimate]:
    """Subselect angle-space centers and fit one estimate per output component.

    Returns the fitted maps for the two ankle coordinates.  Near-duplicate
    poses can make the kernel system borderline, so the solve runs with
    the automatic jitter ladder; any jitter used is flagged in the
    diagnostics and logged.
    """
    dataset = build_dataset(samples)
    centers = subselect_centers(dataset, eta)
    if len(centers) < 2:
        raise DegenerateInputError(
            f"only {len(centers)} center(s) survive subselection with eta={eta}; "
            "the pose stream is too static to fit"
        )
    estimate = fit_pullback(dataset, centers, kernel, jitter_policy="auto", diagnostics="exact")
    if estimate.diagnostics.jitter_used > 0:
        log.warning(
            "kernel system required jitter %.3e", estimate.diagnostics.jitter_used
        )
    log.info(
        "kinematics fit: %d centers, cond %.3e",
        len(centers),
        estimate.diagnostics.condition_number,
    )
    g1, g2 = (
        replace(estimate, alpha=a, diagnostics=replace(estimate.diagnostics, coefficients=a))
        for a in (estimate.alpha[:, 0:1], estimate.alpha[:, 1:2])
    )
    return g1, g2
