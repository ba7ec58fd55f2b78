import math
import warnings

import numpy as np
import pytest

from kernelkoop import (
    InvalidArgumentError,
    NotPositiveDefiniteError,
    solve_spd,
    spectral_diagnostics,
)
from kernelkoop import linsys

MATERN_UNIT = (1.0 + math.sqrt(3.0)) * math.exp(-math.sqrt(3.0))


def test_identity_system():
    b = np.array([[1.0], [2.0], [-3.0]])
    report = solve_spd(np.eye(3), b)
    assert np.array_equal(report.coefficients, b)
    assert report.condition_number == 1.0
    assert report.jitter_used == 0.0


def test_two_by_two_closed_form_oracle():
    c = MATERN_UNIT
    K = np.array([[1.0, c], [c, 1.0]])
    rhs = np.array([1.0, 0.0])
    report = solve_spd(K, rhs)
    # closed-form 2x2 inverse applied to [1, 0]
    det = 1.0 - c * c
    expected = np.array([1.0 / det, -c / det])
    np.testing.assert_allclose(report.coefficients, expected, rtol=1e-13)
    np.testing.assert_allclose(report.coefficients, [1.3046, -0.6306], atol=5e-4)


def test_diagonal_condition_number():
    report = solve_spd(np.diag([2.0, 1.0]), np.ones(2))
    assert report.condition_number == pytest.approx(2.0, rel=1e-14)


def test_rhs_shape_preserved():
    K = np.diag([2.0, 4.0])
    vec = solve_spd(K, np.array([2.0, 4.0])).coefficients
    assert vec.shape == (2,)
    mat = solve_spd(K, np.ones((2, 3))).coefficients
    assert mat.shape == (2, 3)


def test_spectral_diagnostics_examples():
    assert spectral_diagnostics(np.eye(4)) == (1.0, 1.0, 1.0)
    lam_min, lam_max, cond = spectral_diagnostics(np.diag([4.0, 1.0]))
    assert (lam_min, lam_max, cond) == (1.0, 4.0, 4.0)


def test_spectral_diagnostics_matern_pair_oracle():
    c = MATERN_UNIT
    K = np.array([[1.0, c], [c, 1.0]])
    lam_min, lam_max, cond = spectral_diagnostics(K)
    # eigenvalues of [[1, c], [c, 1]] are 1 -+ c
    assert lam_min == pytest.approx(1.0 - c, rel=1e-13)
    assert lam_max == pytest.approx(1.0 + c, rel=1e-13)
    assert cond == pytest.approx((1.0 + c) / (1.0 - c), rel=1e-12)
    assert lam_min == pytest.approx(0.51665, abs=1e-5)
    assert lam_max == pytest.approx(1.48335, abs=1e-5)
    assert cond == pytest.approx(2.8711, abs=2e-4)


def test_asymmetry_overflowing_the_difference_is_rejected_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidArgumentError, match="not symmetric"):
            spectral_diagnostics([[0.0, 1e308], [-1e308, 0.0]])


def test_rejects_non_symmetric():
    K = np.array([[1.0, 0.5], [0.2, 1.0]])
    with pytest.raises(InvalidArgumentError):
        solve_spd(K, np.ones(2))
    with pytest.raises(InvalidArgumentError):
        spectral_diagnostics(K)


def test_rejects_bad_shapes():
    with pytest.raises(InvalidArgumentError):
        solve_spd(np.ones((2, 3)), np.ones(2))
    with pytest.raises(InvalidArgumentError):
        solve_spd(np.eye(3), np.ones(2))
    with pytest.raises(InvalidArgumentError):
        solve_spd(np.eye(2), np.ones(2), jitter_policy="sometimes")


def test_singular_matrix_none_policy_fails():
    K = np.ones((2, 2))
    with pytest.raises(NotPositiveDefiniteError):
        solve_spd(K, np.ones(2))


def test_singular_matrix_auto_policy_regularizes():
    K = np.ones((3, 3))
    report = solve_spd(K, np.ones(3), jitter_policy="auto")
    assert report.jitter_used > 0.0
    resid = (K + report.jitter_used * np.eye(3)) @ report.coefficients - np.ones(3)
    assert np.max(np.abs(resid)) < 1e-8


def test_fixed_jitter_policy():
    report = solve_spd(np.eye(2), np.array([3.0, 3.0]), jitter_policy=0.5)
    np.testing.assert_allclose(report.coefficients, [2.0, 2.0], rtol=1e-14)
    assert report.jitter_used == 0.5


@pytest.mark.parametrize("seed", range(5))
def test_solve_residual_invariant(seed):
    rng = np.random.default_rng(seed)
    m = rng.integers(3, 40)
    R = rng.normal(size=(m, m))
    K = R @ R.T + 0.1 * np.eye(m)
    K = 0.5 * (K + K.T)
    b = rng.normal(size=(m, 2))
    report = solve_spd(K, b)
    assert report.condition_number < 1e8
    resid = np.max(np.abs(K @ report.coefficients - b))
    assert resid <= 1e-8 * np.max(np.abs(b))


@pytest.mark.parametrize("seed", range(3))
def test_extreme_eigenvalues_bracket_rayleigh_quotients(seed):
    rng = np.random.default_rng(100 + seed)
    m = 12
    A = rng.normal(size=(m, m))
    K = 0.5 * (A + A.T)
    lam_min, lam_max, _ = spectral_diagnostics(K)
    for _ in range(20):
        v = rng.normal(size=m)
        q = float(v @ K @ v) / float(v @ v)
        assert lam_min - 1e-12 <= q <= lam_max + 1e-12


@pytest.mark.parametrize("seed", range(3))
def test_cond_at_least_diagonal_ratio(seed):
    rng = np.random.default_rng(200 + seed)
    m = 10
    R = rng.normal(size=(m, m))
    K = R @ R.T + 0.5 * np.eye(m)
    K = 0.5 * (K + K.T)
    _, _, cond = spectral_diagnostics(K)
    diag = np.diag(K)
    assert cond >= diag.max() / diag.min() - 1e-12


@pytest.mark.parametrize(
    "rhs, policy",
    [(np.ones(4), "sometimes"), (np.ones(4), -1.0), (np.ones(3), "none"), (np.ones((4, 1, 1)), "auto")],
    ids=["unknown-policy", "negative-jitter", "short-rhs", "rhs-3d"],
)
def test_bad_input_fails_before_the_eigendecomposition(monkeypatch, rhs, policy):
    def eigvalsh(K):
        raise AssertionError("eigvalsh reached")

    monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
    with pytest.raises(InvalidArgumentError):
        solve_spd(np.eye(4), rhs, jitter_policy=policy)


@pytest.mark.parametrize(
    "policy", [math.nan, math.inf, "nan", "inf"], ids=["nan", "inf", "nan-text", "inf-text"]
)
def test_non_finite_jitter_fails_before_the_eigendecomposition(monkeypatch, policy):
    def eigvalsh(K):
        raise AssertionError("eigvalsh reached")

    monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
    with pytest.raises(InvalidArgumentError, match="finite float >= 0"):
        solve_spd(np.eye(2), np.ones(2), jitter_policy=policy)


@pytest.mark.parametrize("policy", ["none", "auto", 0.5])
def test_a_valid_solve_computes_the_diagnostics_once(monkeypatch, policy):
    calls = []

    def counted(K):
        calls.append(K)
        return spectral_diagnostics(K)

    monkeypatch.setattr(linsys, "spectral_diagnostics", counted)
    solve_spd(np.diag([2.0, 1.0]), np.ones(2), jitter_policy=policy)
    assert len(calls) == 1


@pytest.mark.parametrize("entry", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("policy", ["none", "auto", 0.5])
def test_non_finite_matrix_fails_before_the_eigendecomposition(monkeypatch, entry, policy):
    def eigvalsh(K):
        raise AssertionError("eigvalsh reached")

    monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
    K = np.eye(3)
    K[1, 1] = entry
    with pytest.raises(InvalidArgumentError, match="finite"):
        solve_spd(K, np.ones(3), jitter_policy=policy)
    with pytest.raises(InvalidArgumentError, match="finite"):
        spectral_diagnostics(K)


@pytest.mark.parametrize("policy", ["none", "auto", 0.5])
def test_empty_matrix_is_an_invalid_argument(policy):
    with pytest.raises(InvalidArgumentError, match="nonempty"):
        solve_spd(np.zeros((0, 0)), np.zeros(0), jitter_policy=policy)
    with pytest.raises(InvalidArgumentError, match="nonempty"):
        spectral_diagnostics(np.zeros((0, 0)))
