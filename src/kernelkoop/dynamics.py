"""Pendulum trajectory generation with a half-kick/drift/half-kick scheme.

The state is (x1, x2) = (momentum, angle) for a unit-mass, unit-length
pendulum with unit gravity, so the force term is -sin(angle).  The
scalar observable used in the synthetic experiments is

    G(x) = 1.5 - sin(x2) + x1**2 / 9.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, InvalidArgumentError
from .kernels import TrajectoryDataset, _floats


@dataclass(frozen=True)
class PendulumConfig:
    """Initial condition and discretization of the pendulum run.

    Defaults put the orbit on a closed libration loop; they are recorded
    in every output file so runs are reproducible.
    """

    x1_0: float = 0.0
    x2_0: float = 2.0
    h: float = 0.1
    steps: int = 256

    def __post_init__(self) -> None:
        for name in ("x1_0", "x2_0", "h", "steps"):
            raw = getattr(self, name)
            try:
                value = operator.index(raw) if name == "steps" else float(raw)
            except (TypeError, ValueError, OverflowError):  # an int too large for a float
                kind = "an integer" if name == "steps" else "a number"
                raise InvalidArgumentError(f"{name} must be {kind}, got {raw!r}") from None
            if isinstance(value, float) and not math.isfinite(value):
                raise InvalidArgumentError(f"{name} must be finite, got {value}")
            object.__setattr__(self, name, value)
        if not self.h > 0:
            raise InvalidArgumentError(f"time step must be > 0, got {self.h}")
        if self.steps < 1:
            raise InvalidArgumentError(f"steps must be >= 1, got {self.steps}")
        if self.steps >= 2**63:
            raise InvalidArgumentError(f"steps must be in the int64 range, got {self.steps}")


def pendulum_step(x1: float, x2: float, h: float) -> tuple[float, float]:
    """One half-kick / drift / half-kick update of (momentum, angle)."""
    p_half = x1 + 0.5 * h * (-math.sin(x2))
    x2_new = x2 + h * p_half
    x1_new = p_half + 0.5 * h * (-math.sin(x2_new))
    return x1_new, x2_new


def observable_G(x) -> float | np.ndarray:
    """Synthetic observable 1.5 - sin(x2) + x1^2/9; accepts one state or a batch."""
    arr = _floats(x, "state")
    if arr.shape[-1:] != (2,):
        raise InvalidArgumentError(f"state must be 2-dimensional, got shape {arr.shape}")
    # G of a huge or an infinite state is inf or NaN, unwarned
    with np.errstate(over="ignore", invalid="ignore"):
        val = 1.5 - np.sin(arr[..., 1]) + arr[..., 0] ** 2 / 9.0
    return float(val) if arr.ndim == 1 else val


def hamiltonian(x1: float, x2: float) -> float:
    """Pendulum energy 0.5*x1^2 - cos(x2), conserved up to integrator drift."""
    return 0.5 * x1 * x1 - math.cos(x2)


def simulate(config: PendulumConfig) -> TrajectoryDataset:
    """Iterate the step map and record (k, x_k, x_{k+1}, G(x_{k+1})) per step, all finite."""
    try:
        states = np.empty((config.steps + 1, 2))
    except ValueError:  # numpy refuses a size past its limits before it tries to allocate
        raise MemoryError(f"{config.steps + 1} states exceed numpy's largest array") from None
    states[0] = (config.x1_0, config.x2_0)
    # an overflow is found by the finiteness check below, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            for i in range(config.steps):
                states[i + 1] = pendulum_step(states[i, 0], states[i, 1], config.h)
        except ValueError:  # math.sin of an infinite angle
            states[i + 1:] = np.nan
        y_next = observable_G(states[1:])
    bad = ~(np.isfinite(states[1:]).all(axis=1) & np.isfinite(y_next))
    if bad.any():
        raise DegenerateInputError(
            f"the pendulum leaves the finite range at step {int(bad.argmax())}: "
            "its state or G is not finite"
        )
    return TrajectoryDataset(
        k=np.arange(config.steps), x=states[:-1], x_next=states[1:], y_next=y_next
    )
