"""Greedy center subselection along trajectories and sample-set diagnostics."""

from __future__ import annotations

import numbers
from typing import Sequence

import numpy as np

from .errors import DegenerateInputError, InvalidArgumentError
from .kernels import PointSet, _Strip, _integers, _nearest, _pairwise, _points, _time_indices

# Halvings of the eta bracket in `eta_for_center_count` before it gives up.
_BISECTIONS = 200


def _eta(value) -> float:
    """A gate value as a float: a real number, not a bool, and > 0."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise InvalidArgumentError(f"eta must be a real number, got {value!r}")
    if not value > 0:
        raise InvalidArgumentError(f"eta must be > 0, got {value}")
    try:
        return float(value)
    except OverflowError:  # an int too large for a float
        raise InvalidArgumentError(f"eta must fit in a float, got {value}") from None


def subselect_centers(trajectory, eta: float, seed_centers: PointSet | None = None) -> PointSet:
    """Greedy forward pass keeping states more than ``eta`` from all kept ones.

    The first state is always accepted; each later state is accepted iff
    its Euclidean distance to every previously accepted center strictly
    exceeds ``eta``.  Accepted states keep their original trajectory time
    indices so outputs and advanced states can be looked up later.

    ``seed_centers`` pre-populates the accepted set; seeded points are
    returned first, in their given order.

    Each seed rules out every state within ``eta`` of it, and each kept
    state the later ones; both ask the strip query ``kernels._Strip``.
    """
    eta = _eta(eta)
    states = _points(trajectory, "trajectory")
    if seed_centers is not None:
        if not isinstance(seed_centers, PointSet):
            raise InvalidArgumentError(
                f"seed centers must be a PointSet, got {type(seed_centers).__name__}"
            )
        if seed_centers.dim != states.shape[1]:
            raise InvalidArgumentError(
                f"seed centers have dimension {seed_centers.dim}, trajectory {states.shape[1]}"
            )
        if seed_centers.indices is None:
            raise InvalidArgumentError("seed centers must carry trajectory indices")
    return _greedy(states, _time_indices(trajectory), _Strip(states), eta, seed_centers)


def _greedy(states, indices, strip: _Strip, eta: float, seeds: PointSet | None) -> PointSet:
    """``subselect_centers`` on validated arguments, with a strip of ``states`` to share."""
    points, kept = [], []
    alive = np.ones(states.shape[0], dtype=bool)
    if seeds is not None:
        points, kept = [seeds.points], [seeds.indices]
        for seed in seeds.points:
            alive[strip.near(seed, eta)] = False
    rows = []
    i = int(alive.argmax())  # the first state left in play, if any is
    while alive[i]:
        rows.append(i)
        alive[strip.near(states[i], eta)] = False  # state i too, at distance 0
        i += int(alive[i:].argmax())
    return PointSet(
        np.concatenate(points + [states[rows]]),
        indices=np.concatenate(kept + [indices[rows]]),
    )


def nested_center_sets(trajectory, etas: Sequence[float]) -> list[PointSet]:
    """Nested center sets for a strictly decreasing gate schedule.

    Each level reuses the previous level's centers as seeds, so the sets
    are nested and their fill distances decrease with the schedule.
    """
    try:
        etas = [_eta(e) for e in etas]
    except TypeError:  # etas is no sequence
        raise InvalidArgumentError(f"etas must be a sequence of numbers, got {etas!r}") from None
    if any(b >= a for a, b in zip(etas, etas[1:])):
        raise InvalidArgumentError("eta schedule must be strictly decreasing")
    states = _points(trajectory, "trajectory")
    indices, strip = _time_indices(trajectory), _Strip(states)
    sets: list[PointSet] = []
    seed = None
    for eta in etas:
        seed = _greedy(states, indices, strip, eta, seed)
        sets.append(seed)
    return sets


def fill_distance(centers, reference) -> float:
    """Largest distance from any reference point to its nearest center.

    The underlying manifold is unknown, so it is represented by a dense
    reference sample (the full trajectory in the pipelines here).
    """
    c = _points(centers, "centers")
    r = _points(reference, "reference")
    if c.shape[1] != r.shape[1]:
        raise InvalidArgumentError(
            f"dimension mismatch: centers {c.shape[1]}, reference {r.shape[1]}"
        )
    return float(_nearest(r, c).max())


def separation(centers) -> float:
    """Half the minimum pairwise distance among centers."""
    c = _points(centers, "centers")
    if c.shape[0] < 2:
        raise DegenerateInputError("separation needs at least 2 centers")
    return 0.5 * min(float(panel.min()) for _, panel in _pairwise(c, "centers"))


def eta_for_center_count(trajectory, count: int) -> float:
    """Bisect for a gate value whose greedy subselection keeps exactly ``count`` centers.

    The kept-count is a non-increasing step function of eta, so plateaus
    have positive width and bisection lands inside one when it exists.
    Raises if no eta produces the requested count.
    """
    states = _points(trajectory, "trajectory")
    m = states.shape[0]
    count = _integers(count, "count")
    if count.ndim or not 1 <= count <= m:
        raise InvalidArgumentError(f"count must be in [1, {m}], got {count}")

    indices, strip = _time_indices(trajectory), _Strip(states)

    def kept(eta: float) -> int:
        return len(_greedy(states, indices, strip, eta, None))

    lo = 1e-12
    # the bounding-box diagonal bounds the diameter of the states; past the float range
    # the largest float does, since a distance that overflows exceeds every finite eta
    with np.errstate(over="ignore"):
        diagonal = float(np.linalg.norm(states.max(axis=0) - states.min(axis=0)))
    hi = min(diagonal, np.finfo(float).max) + 1.0
    if kept(lo) < count:
        raise DegenerateInputError(
            f"trajectory has repeated states; cannot reach {count} centers"
        )
    for _ in range(_BISECTIONS):
        mid = 0.5 * lo + 0.5 * hi  # the bits of 0.5 * (lo + hi), which overflows near the top
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
