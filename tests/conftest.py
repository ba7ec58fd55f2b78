import math
from dataclasses import fields

import numpy as np

from kernelkoop import MarkerFrame

THIGH = 0.45
SHANK = 0.43


def gait_angles(n_frames=240, n_cycles=3):
    """Smooth closed loop in (hip, knee) angle space, traversed n_cycles times."""
    phase = 2.0 * np.pi * n_cycles * np.arange(n_frames) / n_frames
    theta1 = 0.55 * np.sin(phase)
    theta2 = 0.8 + 0.5 * np.cos(phase)
    return theta1, theta2


def leg_markers_2d(theta1, theta2):
    """Planar (forward, up) hip/knee/ankle for a 2-link leg at the given angles.

    The thigh direction makes angle theta1 with body-down (forward positive);
    the shank bends backward by the interior knee angle theta2.
    """
    hip = np.zeros((theta1.size, 2))
    knee = hip + THIGH * np.column_stack([np.sin(theta1), -np.cos(theta1)])
    shank_dir = theta1 - theta2
    ankle = knee + SHANK * np.column_stack([np.sin(shank_dir), -np.cos(shank_dir)])
    return hip, knee, ankle


def synthetic_gait_frames(n_frames=240, n_cycles=3, lateral=0.12):
    """3-D marker frames (x forward, y mediolateral, z up) tracing a gait loop."""
    theta1, theta2 = gait_angles(n_frames, n_cycles)
    hip, knee, ankle = leg_markers_2d(theta1, theta2)

    def lift(planar, i):
        return np.array([planar[i, 0], lateral, planar[i, 1]])

    return [
        MarkerFrame(t=i, hip=lift(hip, i), knee=lift(knee, i), ankle=lift(ankle, i))
        for i in range(n_frames)
    ]


def column_bits(record):
    """(dtype, shape, bytes) of every field of a columnar record, to compare records bit for bit."""
    return [
        (v.dtype.str, v.shape, v.tobytes())
        for v in (np.asarray(getattr(record, f.name)) for f in fields(record))
    ]


def write_marker_csv(path, frames):
    lines = ["t,hip_x,hip_y,hip_z,knee_x,knee_y,knee_z,ankle_x,ankle_y,ankle_z"]
    for f in frames:
        cells = [str(f.t)] + [repr(float(v)) for m in (f.hip, f.knee, f.ankle) for v in m]
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n")


def reference_joint_angles(hip, knee, ankle):
    """One planar frame's (theta1, theta2, y1, y2) with per-frame scalar math.

    None when a limb segment is shorter than 1e-12.
    """
    v1 = knee - hip
    v2 = ankle - knee
    n1 = float(np.linalg.norm(v1))
    n2 = float(np.linalg.norm(v2))
    if n1 < 1e-12 or n2 < 1e-12:
        return None
    theta1 = math.atan2(v1[0], -v1[1])
    cos_t2 = float(np.dot(v1, v2)) / (n1 * n2)
    theta2 = math.acos(min(1.0, max(-1.0, cos_t2)))
    rel = ankle - hip
    return theta1, theta2, float(rel[1]), float(rel[0])


def reference_subselect(states, eta, seed=None):
    """The greedy gate one state at a time, with one norm per state."""
    if seed is None:
        accepted, kept = np.empty((0, states.shape[1])), []
    else:
        accepted, kept = seed.points.copy(), [int(i) for i in seed.indices]
    for k, x in enumerate(states):
        if accepted.shape[0] == 0 or np.all(np.linalg.norm(accepted - x[None, :], axis=1) > eta):
            accepted = np.vstack([accepted, x[None, :]])
            kept.append(k)
    return accepted, np.array(kept, dtype=int)


def reference_cell(value) -> str:
    """One table cell as the per-cell writer formatted it."""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def reference_table(header, rows) -> str:
    """Header line and data rows, formatted one cell at a time."""
    body = "".join(",".join(reference_cell(v) for v in row) + "\n" for row in rows)
    return ",".join(header) + "\n" + body


def reference_csv(header, columns, params=None) -> str:
    """A whole table file as the one-shot writer built it: every column in one pass, then joined."""

    def cells(column):
        values = np.asarray(column)
        if values.dtype.kind in "iu":
            return map(str, values.tolist())
        if values.dtype.kind == "f":
            return map(repr, values.tolist())
        if values.dtype.kind == "U":
            return values.tolist()
        raise TypeError(f"cannot write a column of dtype {values.dtype}")

    body = "".join([",".join(row) + "\n" for row in zip(*map(cells, columns))])
    comments = "".join(f"# {k} = {v}".replace("\n", " ") + "\n" for k, v in (params or {}).items())
    return comments + ",".join(header) + "\n" + body
