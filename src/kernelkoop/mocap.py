"""Marker ingestion, sagittal-plane joint angles, and kinematics-map fitting.

The planar frame uses (forward, up) coordinates.  Hip flexion theta1 is
the signed angle from the body-down direction to the hip-to-knee vector
(forward flexion positive); knee flexion theta2 is the interior angle
between the thigh and shank vectors, in [0, pi].  The outputs y1, y2 are
the ankle position relative to the hip, resolved along the up and forward
body axes respectively.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

from .errors import CsvFormatError, DegenerateInputError, InvalidArgumentError
from .geometry import subselect_centers
from .kernels import KernelSpec
from .koopman import KoopmanEstimate, TrajectoryDataset, fit_pullback

log = logging.getLogger(__name__)

_AXIS_NAMES = {"x": 0, "y": 1, "z": 2}
_SEGMENT_EPS = 1e-12

MARKER_COLUMNS = (
    "t",
    "hip_x", "hip_y", "hip_z",
    "knee_x", "knee_y", "knee_z",
    "ankle_x", "ankle_y", "ankle_z",
)


@dataclass(frozen=True)
class MarkerFrame:
    """One capture frame of 3-D hip, knee and ankle marker positions (meters)."""

    t: int
    hip: np.ndarray
    knee: np.ndarray
    ankle: np.ndarray

    def __post_init__(self) -> None:
        for name in ("hip", "knee", "ankle"):
            v = np.asarray(getattr(self, name), dtype=float)
            if v.shape != (3,):
                raise InvalidArgumentError(f"{name} marker must be a 3-vector")
            if not np.all(np.isfinite(v)):
                raise InvalidArgumentError(f"{name} marker must be finite")
            object.__setattr__(self, name, v)


@dataclass(frozen=True)
class PlanarFrame:
    """Markers projected to the sagittal plane, coordinates (forward, up)."""

    t: int
    hip: np.ndarray
    knee: np.ndarray
    ankle: np.ndarray


@dataclass(frozen=True)
class JointAngleSample:
    """Joint angles (rad) and hip-relative ankle coordinates (m) for one frame."""

    t: int
    theta1: float
    theta2: float
    y1: float
    y2: float


def _axis_index(axis) -> int:
    if isinstance(axis, str):
        try:
            return _AXIS_NAMES[axis.strip().lower()]
        except KeyError:
            raise InvalidArgumentError(f"unknown axis {axis!r}; use x, y or z") from None
    idx = int(axis)
    if idx not in (0, 1, 2):
        raise InvalidArgumentError(f"axis index must be 0, 1 or 2, got {idx}")
    return idx


def project_sagittal(frame: MarkerFrame, plane_axes=("x", "z")) -> PlanarFrame:
    """Drop the mediolateral coordinate, keeping (forward, up) components."""
    fwd = _axis_index(plane_axes[0])
    up = _axis_index(plane_axes[1])
    if fwd == up:
        raise InvalidArgumentError("plane axes must be two distinct coordinate axes")
    sel = np.array([fwd, up])
    return PlanarFrame(
        t=frame.t,
        hip=frame.hip[sel],
        knee=frame.knee[sel],
        ankle=frame.ankle[sel],
    )


def joint_angles(frame: PlanarFrame) -> JointAngleSample:
    """Hip and knee flexion angles plus hip-relative ankle coordinates.

    Raises DegenerateInputError when a limb segment has zero length.
    """
    v1 = frame.knee - frame.hip
    v2 = frame.ankle - frame.knee
    n1 = float(np.linalg.norm(v1))
    n2 = float(np.linalg.norm(v2))
    if n1 < _SEGMENT_EPS or n2 < _SEGMENT_EPS:
        raise DegenerateInputError(
            f"frame {frame.t}: zero-length limb segment (hip-knee {n1:.3e}, knee-ankle {n2:.3e})"
        )
    # signed angle from the body-down direction (0, -1) to v1, forward positive
    theta1 = math.atan2(v1[0], -v1[1])
    cos_t2 = float(np.dot(v1, v2)) / (n1 * n2)
    theta2 = math.acos(min(1.0, max(-1.0, cos_t2)))
    rel = frame.ankle - frame.hip
    return JointAngleSample(
        t=frame.t,
        theta1=theta1,
        theta2=theta2,
        y1=float(rel[1]),
        y2=float(rel[0]),
    )


def extract_angles(
    frames: Iterable[MarkerFrame], plane_axes=("x", "z")
) -> list[JointAngleSample]:
    """Project and convert every frame, skipping degenerate ones with a warning."""
    samples = []
    skipped = 0
    for frame in frames:
        try:
            samples.append(joint_angles(project_sagittal(frame, plane_axes)))
        except DegenerateInputError as exc:
            skipped += 1
            log.warning("skipping frame: %s", exc)
    if skipped:
        log.warning("skipped %d degenerate frame(s)", skipped)
    return samples


def read_marker_csv(path) -> list[MarkerFrame]:
    """Read marker frames from CSV with the documented column layout.

    Comment lines starting with '#' are ignored.  Rows containing
    non-finite marker values are skipped and counted in the log.
    """
    frames = []
    skipped = 0
    with open(path, newline="") as fh:
        rows = csv.reader(line for line in fh if not line.startswith("#"))
        try:
            header = [c.strip() for c in next(rows)]
        except StopIteration:
            raise CsvFormatError(f"{path}: empty marker file") from None
        missing = [c for c in MARKER_COLUMNS if c not in header]
        if missing:
            raise CsvFormatError(f"{path}: missing column(s) {', '.join(missing)}")
        col = {name: header.index(name) for name in MARKER_COLUMNS}
        for lineno, row in enumerate(rows, start=2):
            if not row:
                continue
            try:
                values = {name: float(row[col[name]]) for name in MARKER_COLUMNS}
            except (ValueError, IndexError) as exc:
                raise CsvFormatError(f"{path}:{lineno}: bad row ({exc})") from None
            if not all(math.isfinite(v) for v in values.values()):
                skipped += 1
                continue
            coords = [values[name] for name in MARKER_COLUMNS[1:]]
            frames.append(
                MarkerFrame(
                    t=int(values["t"]),
                    hip=np.array(coords[0:3]),
                    knee=np.array(coords[3:6]),
                    ankle=np.array(coords[6:9]),
                )
            )
    if skipped:
        log.warning("%s: skipped %d frame(s) with non-finite markers", path, skipped)
    return frames


def build_dataset(samples: Sequence[JointAngleSample]) -> TrajectoryDataset:
    """Consecutive-sample trajectory in (theta1, theta2) with (y1, y2) outputs."""
    if len(samples) < 2:
        raise DegenerateInputError("need at least 2 angle samples to form a trajectory")
    states = np.array([(s.theta1, s.theta2) for s in samples])
    outputs = np.array([(s.y1, s.y2) for s in samples])
    return TrajectoryDataset(
        k=np.arange(len(samples) - 1),
        x=states[:-1],
        x_next=states[1:],
        y_next=outputs[1:],
    )


def fit_kinematics(
    samples: Sequence[JointAngleSample],
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
    estimate = fit_pullback(dataset, centers, kernel, jitter_policy="auto")
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
