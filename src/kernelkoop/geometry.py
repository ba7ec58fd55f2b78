"""Greedy center subselection along trajectories and sample-set diagnostics."""

from __future__ import annotations

from typing import Sequence

import numpy as np
from scipy.spatial.distance import cdist, pdist

from .errors import DegenerateInputError, InvalidArgumentError
from .kernels import PointSet, as_points


def _states_and_indices(data) -> tuple[np.ndarray, np.ndarray]:
    """Extract (states, time indices) from a trajectory-like object.

    Accepts a TrajectoryDataset (uses .x and .k), a PointSet, or a plain
    array of points (indices default to 0..m-1).
    """
    if hasattr(data, "x") and hasattr(data, "k"):
        return np.asarray(data.x, dtype=float), np.asarray(data.k, dtype=int)
    if isinstance(data, PointSet):
        idx = data.indices
        if idx is None:
            idx = np.arange(len(data))
        return data.points, idx
    pts = as_points(data)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise DegenerateInputError("trajectory is empty")
    return pts, np.arange(pts.shape[0])


def subselect_centers(trajectory, eta: float, seed_centers: PointSet | None = None) -> PointSet:
    """Greedy forward pass keeping states more than ``eta`` from all kept ones.

    The first state is always accepted; each later state is accepted iff
    its Euclidean distance to every previously accepted center strictly
    exceeds ``eta``.  Accepted states keep their original trajectory time
    indices so outputs and advanced states can be looked up later.

    ``seed_centers`` pre-populates the accepted set (used to build nested
    center sets); seeded points are returned first, in their given order.
    """
    if not eta > 0:
        raise InvalidArgumentError(f"eta must be > 0, got {eta}")
    states, indices = _states_and_indices(trajectory)
    if states.shape[0] == 0:
        raise DegenerateInputError("trajectory is empty")

    if seed_centers is not None:
        if seed_centers.dim != states.shape[1]:
            raise InvalidArgumentError(
                f"seed centers have dimension {seed_centers.dim}, trajectory {states.shape[1]}"
            )
        if seed_centers.indices is None:
            raise InvalidArgumentError("seed centers must carry trajectory indices")
        accepted = seed_centers.points.copy()
        kept_idx = [int(i) for i in seed_centers.indices]
    else:
        accepted = np.empty((0, states.shape[1]))
        kept_idx = []

    for x, k in zip(states, indices):
        if accepted.shape[0] == 0:
            accepted = x[None, :]
            kept_idx.append(int(k))
            continue
        dists = np.linalg.norm(accepted - x[None, :], axis=1)
        if np.all(dists > eta):
            accepted = np.vstack([accepted, x[None, :]])
            kept_idx.append(int(k))
    return PointSet(accepted, indices=np.array(kept_idx, dtype=int))


def nested_center_sets(trajectory, etas: Sequence[float]) -> list[PointSet]:
    """Nested center sets for a strictly decreasing gate schedule.

    Each level reuses the previous level's centers as seeds, so the sets
    are nested and their fill distances decrease with the schedule.
    """
    etas = [float(e) for e in etas]
    if any(b >= a for a, b in zip(etas, etas[1:])):
        raise InvalidArgumentError("eta schedule must be strictly decreasing")
    sets: list[PointSet] = []
    seed = None
    for eta in etas:
        seed = subselect_centers(trajectory, eta, seed_centers=seed)
        sets.append(seed)
    return sets


def fill_distance(centers, reference) -> float:
    """Largest distance from any reference point to its nearest center.

    The underlying manifold is unknown, so it is represented by a dense
    reference sample (the full trajectory in the pipelines here).
    """
    c, _ = _states_and_indices(centers)
    r, _ = _states_and_indices(reference)
    if c.shape[1] != r.shape[1]:
        raise InvalidArgumentError(
            f"dimension mismatch: centers {c.shape[1]}, reference {r.shape[1]}"
        )
    return float(cdist(r, c).min(axis=1).max())


def separation(centers) -> float:
    """Half the minimum pairwise distance among centers."""
    c, _ = _states_and_indices(centers)
    if c.shape[0] < 2:
        raise DegenerateInputError("separation needs at least 2 centers")
    dmin = float(pdist(c).min())
    if dmin == 0.0:
        raise DegenerateInputError("separation is undefined for duplicate centers")
    return 0.5 * dmin


def eta_for_center_count(trajectory, count: int, max_iter: int = 200) -> float:
    """Bisect for a gate value whose greedy subselection keeps exactly ``count`` centers.

    The kept-count is a non-increasing step function of eta, so plateaus
    have positive width and bisection lands inside one when it exists.
    Raises if no eta produces the requested count.
    """
    states, _ = _states_and_indices(trajectory)
    m = states.shape[0]
    if not 1 <= count <= m:
        raise InvalidArgumentError(f"count must be in [1, {m}], got {count}")

    def kept(eta: float) -> int:
        return len(subselect_centers(trajectory, eta))

    lo = 1e-12
    hi = float(cdist(states, states).max()) + 1.0
    if kept(lo) < count:
        raise DegenerateInputError(
            f"trajectory has repeated states; cannot reach {count} centers"
        )
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        n = kept(mid)
        if n == count:
            return mid
        if n > count:
            lo = mid
        else:
            hi = mid
    raise DegenerateInputError(
        f"no eta yields exactly {count} centers (the count jumps past it)"
    )
