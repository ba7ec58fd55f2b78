import math
import re

import numpy as np
import pytest

from kernelkoop import (
    DegenerateInputError,
    InvalidArgumentError,
    PendulumConfig,
    hamiltonian,
    observable_G,
    pendulum_step,
    simulate,
)


def test_stable_equilibrium_is_fixed():
    assert pendulum_step(0.0, 0.0, 0.37) == (0.0, 0.0)


def test_inverted_equilibrium_is_fixed():
    x1, x2 = pendulum_step(0.0, math.pi, 0.2)
    assert abs(x1) < 1e-14
    assert abs(x2 - math.pi) < 1e-14


def test_step_hand_arithmetic():
    x1, x2 = pendulum_step(1.0, 0.0, 0.1)
    assert x2 == pytest.approx(0.1, abs=1e-15)
    assert x1 == pytest.approx(1.0 - 0.05 * math.sin(0.1), rel=1e-15)
    assert x1 == pytest.approx(0.9950083, abs=1e-7)


@pytest.mark.parametrize("seed", range(4))
def test_reversibility(seed):
    rng = np.random.default_rng(seed)
    x1, x2 = rng.uniform(-2, 2, size=2)
    h = rng.uniform(0.01, 0.3)
    f1, f2 = pendulum_step(x1, x2, h)
    b1, b2 = pendulum_step(f1, f2, -h)
    assert abs(b1 - x1) < 1e-12
    assert abs(b2 - x2) < 1e-12


@pytest.mark.parametrize("seed", range(4))
def test_odd_symmetry(seed):
    rng = np.random.default_rng(10 + seed)
    x1, x2 = rng.uniform(-3, 3, size=2)
    h = rng.uniform(0.01, 0.3)
    f1, f2 = pendulum_step(x1, x2, h)
    g1, g2 = pendulum_step(-x1, -x2, h)
    assert abs(g1 + f1) < 1e-14
    assert abs(g2 + f2) < 1e-14


def test_energy_drift_within_frozen_bound():
    config = PendulumConfig()
    ds = simulate(config)
    states = np.vstack([ds.x, ds.x_next[-1:]])
    h0 = hamiltonian(config.x1_0, config.x2_0)
    drift = max(abs(hamiltonian(x1, x2) - h0) for x1, x2 in states)
    assert drift <= 0.05 * abs(h0) + 0.05


def test_simulate_single_step_equilibrium():
    ds = simulate(PendulumConfig(x1_0=0.0, x2_0=0.0, steps=1))
    assert len(ds) == 1
    assert np.array_equal(ds.x[0], [0.0, 0.0])
    assert np.array_equal(ds.x_next[0], [0.0, 0.0])
    assert ds.y_next[0, 0] == 1.5


def test_simulate_defaults_shape_and_chaining():
    ds = simulate(PendulumConfig())
    assert len(ds) == 256
    assert np.array_equal(ds.x_next[:-1], ds.x[1:])
    np.testing.assert_allclose(ds.y_next[:, 0], observable_G(ds.x_next), rtol=0)


def test_observable_values():
    assert observable_G([0.0, 0.0]) == 1.5
    assert observable_G([3.0, 0.0]) == pytest.approx(2.5, rel=1e-15)
    assert observable_G([0.0, math.pi / 2]) == pytest.approx(0.5, abs=1e-15)


def test_observable_batch_and_dim_check():
    batch = observable_G(np.array([[0.0, 0.0], [3.0, 0.0]]))
    np.testing.assert_allclose(batch, [1.5, 2.5], rtol=1e-15)
    with pytest.raises(InvalidArgumentError):
        observable_G([1.0, 2.0, 3.0])
    with pytest.raises(InvalidArgumentError, match=r"state must be 2-dimensional, got shape \(\)"):
        observable_G(1.0)
    with pytest.raises(InvalidArgumentError, match="state must be a rectangular array of real numbers"):
        observable_G(["a", "b"])


def test_observable_of_a_huge_state_is_inf_without_a_warning():
    assert observable_G([1e200, 0.0]) == math.inf
    assert np.isnan(observable_G(np.array([[0.0, math.inf]]))).all()


def test_steps_past_the_largest_array_are_out_of_memory_before_any_allocation():
    with pytest.raises(MemoryError, match="exceed numpy's largest array"):
        simulate(PendulumConfig(steps=2**62))


def test_config_validation():
    with pytest.raises(InvalidArgumentError):
        PendulumConfig(h=0.0)
    with pytest.raises(InvalidArgumentError):
        PendulumConfig(steps=0)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("field", ["x1_0", "x2_0", "h"])
def test_config_rejects_non_finite(field, value):
    with pytest.raises(InvalidArgumentError, match=field):
        PendulumConfig(**{field: value})


@pytest.mark.parametrize(
    "field, value",
    [
        ("steps", 2.5), ("steps", "10"), ("steps", None), ("x1_0", "0.5x"), ("x2_0", [1.0]), ("h", None),
        ("steps", 2**63), ("steps", 10**20),
    ],
)
def test_config_rejects_a_field_of_the_wrong_type(field, value):
    with pytest.raises(InvalidArgumentError, match=f"^{field} must be "):
        PendulumConfig(**{field: value})



@pytest.mark.parametrize("value", [10**400, -(10**400)], ids=["huge", "-huge"])
@pytest.mark.parametrize("field", ["x1_0", "x2_0", "h"])
def test_config_rejects_an_integer_too_large_for_a_float(field, value):
    with pytest.raises(InvalidArgumentError, match=f"^{field} must be a number"):
        PendulumConfig(**{field: value})


def test_config_converts_numbers_like_kernel_spec():
    config = PendulumConfig(x1_0="0.5", x2_0=np.float32(2.0), h=1, steps=np.int64(3))
    assert [type(v) for v in (config.x1_0, config.x2_0, config.h, config.steps)] == [
        float, float, float, int,
    ]
    assert (config.x1_0, config.x2_0, config.h, config.steps) == (0.5, 2.0, 1.0, 3)


def test_diverging_pendulum_names_its_first_non_finite_step():
    # momentum near 1e154 makes the angle step h * p overflow after a few steps
    with pytest.raises(DegenerateInputError) as err:
        simulate(PendulumConfig(h=1e154, steps=50))
    step = int(re.search(r"at step (\d+):", str(err.value)).group(1))
    assert step > 0
    ds = simulate(PendulumConfig(h=1e154, steps=step))
    assert np.isfinite(ds.x_next).all() and np.isfinite(ds.y_next).all()
    with pytest.raises(DegenerateInputError, match=f"at step {step}:"):
        simulate(PendulumConfig(h=1e154, steps=step + 1))
