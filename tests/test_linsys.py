import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_factor, cho_solve

from kernelkoop import (
    InvalidArgumentError,
    KernelSpec,
    NotPositiveDefiniteError,
    kernel_matrix,
    solve_spd,
    spectral_diagnostics,
)
from kernelkoop import linsys
from kernelkoop.kernels import _row_blocks

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
    [
        (np.ones(4), "sometimes"), (np.ones(4), -1.0), (np.ones(3), "none"),
        (np.ones((4, 1, 1)), "auto"), (np.ones(4), np.array(["none", "auto"])),
        (np.ones(4), np.array([0.5])), (np.ones(4), 10**400),
    ],
    ids=[
        "unknown-policy", "negative-jitter", "short-rhs", "rhs-3d",
        "policy-array", "one-element-array", "int-past-float-range",
    ],
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


def _counting_spectrum(monkeypatch):
    calls = []

    def counted(K):
        calls.append(K)
        return spectral_diagnostics(K)

    monkeypatch.setattr(linsys, "spectral_diagnostics", counted)
    return calls


@pytest.mark.parametrize("policy", ["none", "auto", 0.5])
def test_a_solve_without_diagnostics_computes_no_spectrum(monkeypatch, policy):
    K = np.array([[2.0, 0.5, 0.0], [0.5, 1.0, 0.25], [0.0, 0.25, 3.0]])
    rhs = np.array([[1.0, -2.0], [0.5, 3.0], [-1.0, 0.25]])
    calls = _counting_spectrum(monkeypatch)
    off = solve_spd(K, rhs, jitter_policy=policy, diagnostics="off")
    assert calls == []
    assert math.isnan(off.condition_number) and math.isnan(off.min_eigenvalue)
    exact = solve_spd(K, rhs, jitter_policy=policy, diagnostics="exact")
    assert len(calls) == 1
    assert off.coefficients.tobytes() == exact.coefficients.tobytes()
    assert off.jitter_used == exact.jitter_used
    expected = spectral_diagnostics(K)
    assert (exact.condition_number, exact.min_eigenvalue) == (expected.cond, expected.lambda_min)


@pytest.mark.parametrize(
    "mode", ["lanczos", "EXACT", None, True, np.array(["exact", "off"]), np.array(["off"])]
)
def test_an_unknown_diagnostics_mode_fails_before_the_eigendecomposition(monkeypatch, mode):
    def eigvalsh(K):
        raise AssertionError("eigvalsh reached")

    monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
    with pytest.raises(InvalidArgumentError, match="diagnostics must be 'exact' or 'off'"):
        solve_spd(np.eye(2), np.ones(2), diagnostics=mode)


@pytest.mark.parametrize(
    "K, message",
    [
        (np.array([[1.0, 0.5], [0.0, 1.0]]), "not symmetric"),
        (np.array([[1.0, 0.0], [0.0, math.nan]]), "finite"),
        (np.zeros((0, 0)), "nonempty"),
        (np.ones(3), "square"),
    ],
    ids=["asymmetric", "nan", "empty", "1-d"],
)
def test_a_solve_without_diagnostics_checks_the_matrix_alike(K, message):
    rhs = np.ones(len(K))
    for mode in ("exact", "off"):
        with pytest.raises(InvalidArgumentError, match=message):
            solve_spd(K, rhs, diagnostics=mode)


@pytest.mark.parametrize("policy", ["none", "auto", 0.0])
def test_a_failed_solve_names_the_min_eigenvalue_in_either_mode(monkeypatch, policy):
    K = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues -1 and 3
    messages = []
    for mode in ("exact", "off"):
        with pytest.raises(NotPositiveDefiniteError) as info:
            solve_spd(K, np.ones(2), jitter_policy=policy, diagnostics=mode)
        messages.append(str(info.value))
    assert messages[0] == messages[1]
    assert "min eigenvalue -1.000e+00" in messages[0]
    calls = _counting_spectrum(monkeypatch)
    with pytest.raises(NotPositiveDefiniteError):
        solve_spd(K, np.ones(2), jitter_policy=policy, diagnostics="off")
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# the symmetry check, panel by panel

_M = 600
_PANEL = _row_blocks(_M, _M)[0].stop
# the rows either side of each panel boundary
_EDGE_ROWS = [k * _PANEL + o for k in (1, 2) for o in (-1, 0, 1)]


def _dense_check_message(K):
    """The error of the symmetry check made in one dense pass over K, or None."""
    scale = float(np.max(np.abs(K)))
    if not np.isfinite(scale):
        return "matrix entries must be finite"
    with np.errstate(over="ignore"):
        asym = float(np.max(np.abs(K - K.T)))
    if asym > 1e-10 * max(scale, 1e-300):
        return f"matrix is not symmetric (relative asymmetry {asym / max(scale, 1e-300):.3e})"
    return None


def _check_message(K):
    try:
        assert linsys._check_symmetric(K) is K
    except InvalidArgumentError as err:
        return str(err)
    return None


def _symmetric_base():
    assert len(_row_blocks(_M, _M)) == 3
    A = np.random.default_rng(5).uniform(-0.5, 0.5, size=(_M, _M))
    K = A + A.T
    np.fill_diagonal(K, 1.0)  # so the scale is 1.0 exactly
    return K


@pytest.mark.parametrize("row", _EDGE_ROWS)
def test_the_panel_check_draws_the_line_where_the_dense_check_does(row):
    # entry (row, col) is delta above its mirror, which is 0.0: the asymmetry is delta
    # exactly, and the tolerance lets 1e-10 through but not the next float up
    K = _symmetric_base()
    for col in (0, row - 1, row + 1, _M - 1):
        for delta, fails in ((1e-10, False), (np.nextafter(1e-10, 1.0), True)):
            A = K.copy()
            A[row, col], A[col, row] = delta, 0.0
            got = _check_message(A)
            assert got == _dense_check_message(A), (col, delta)
            assert (got is not None) == fails, (col, delta)


@pytest.mark.parametrize("row", _EDGE_ROWS)
def test_the_panel_check_reports_the_dense_relative_asymmetry(row):
    K = _symmetric_base()
    K[row, 3] += 0.25
    K[_M - 2, row] -= 1e-3
    assert _check_message(K) == _dense_check_message(K)
    assert _check_message(K).startswith("matrix is not symmetric")


@pytest.mark.parametrize("entry", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("where", [(_M - 1, _M - 1), (_M - 1, 0), (2 * _PANEL, _M - 1)])
def test_a_non_finite_entry_in_the_last_panel_only_fails(entry, where):
    K = _symmetric_base()
    K[where] = entry
    assert _check_message(K) == _dense_check_message(K) == "matrix entries must be finite"


@pytest.mark.parametrize("where", [(_M - 1, 5), (5, _M - 1), (_PANEL, _PANEL - 1)])
def test_an_asymmetry_overflowing_in_a_later_panel_is_rejected_without_a_warning(where):
    K = _symmetric_base()
    K[where], K[where[::-1]] = 1e308, -1e308
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        message = _check_message(K)
    assert message == _dense_check_message(K) == "matrix is not symmetric (relative asymmetry inf)"


# ---------------------------------------------------------------------------
# the jittered factorization and the memory of a solve


def _gram(m=40):
    pts = np.random.default_rng(2).uniform(0.0, 3.0, size=(m, 2))
    return kernel_matrix(KernelSpec("matern"), pts, pts)


def _with_asymmetry(K):
    A = K.copy()
    A[3, 1] += 1e-13
    return A


def _spy_factorizations(monkeypatch):
    seen = []

    def spy(a, **kwargs):
        seen.append(np.array(a))
        return cho_factor(a, **kwargs)

    monkeypatch.setattr(linsys, "cho_factor", spy)
    return seen


@pytest.mark.parametrize(
    "K",
    [_gram(), _with_asymmetry(_gram()), np.array([[2.0, -0.0], [-0.0, 2.0]])],
    ids=["gram", "user-asymmetry", "negative-zero"],
)
@pytest.mark.parametrize("lam", [1e-9, 0.5])
def test_the_jittered_copy_is_k_plus_lam_times_the_identity(monkeypatch, K, lam):
    b = np.linspace(-1.0, 1.0, len(K))
    kept = K.copy()
    seen = _spy_factorizations(monkeypatch)
    report = solve_spd(K, b, jitter_policy=lam, diagnostics="off")
    expected = K + lam * np.eye(len(K))
    assert len(seen) == 1 and seen[0].tobytes() == expected.tobytes()
    assert K.tobytes() == kept.tobytes()
    reference = cho_solve(cho_factor(expected, lower=True), b)
    assert report.coefficients.tobytes() == reference.tobytes()


def test_every_rung_of_the_auto_ladder_copies_k_plus_its_jitter(monkeypatch):
    K = np.ones((3, 3))  # singular: the ladder runs until a jitter makes it definite
    seen = _spy_factorizations(monkeypatch)
    report = solve_spd(K, np.ones(3), jitter_policy="auto", diagnostics="off")
    unit = np.trace(K) / 3
    ladder = [0.0] + [step * unit for step in linsys._AUTO_JITTER_STEPS]
    assert report.jitter_used == ladder[len(seen) - 1] > 0
    for lam, copy in zip(ladder, seen):
        assert copy.tobytes() == (K if lam == 0.0 else K + lam * np.eye(3)).tobytes()
    assert np.array_equal(K, np.ones((3, 3)))


def _traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def large_gram():
    # a 39 x 39 grid at unit spacing: M = 1521, and a well-conditioned Matern Gram
    grid = np.stack(np.meshgrid(np.arange(39.0), np.arange(39.0)), -1).reshape(-1, 2)
    return kernel_matrix(KernelSpec("matern"), grid, grid)


def test_the_symmetry_check_holds_no_full_size_temporary(large_gram):
    assert _traced_peak(lambda: linsys._check_symmetric(large_gram)) <= 4 * 2**20


@pytest.mark.parametrize("policy", ["none", 1e-9])
def test_a_solve_without_diagnostics_holds_one_copy_of_k(large_gram, policy):
    rhs = np.ones(len(large_gram))
    peak = _traced_peak(lambda: solve_spd(large_gram, rhs, jitter_policy=policy, diagnostics="off"))
    assert peak <= 1.1 * large_gram.nbytes


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(
    st.integers(1, 300), st.integers(1, 4), st.sampled_from("CF"), st.sampled_from("CF"),
    st.integers(0, 2**32 - 1),
)
def test_the_product_has_the_bits_of_numpys_matmul(m, p, order_a, order_b, seed):
    rng = np.random.default_rng(seed)
    a = np.asarray(rng.standard_normal((m, m)), order=order_a)
    b = np.asarray(rng.standard_normal((m, p)), order=order_b)
    product = linsys._product(a, b)
    assert product.shape == (m, p)
    assert product.tobytes() == (a @ b).tobytes()


@pytest.mark.parametrize("p", [1, 3])
@pytest.mark.parametrize("order", ["C", "F"])
def test_the_product_copies_neither_memory_order_of_the_matrix(large_gram, order, p):
    a = np.asarray(large_gram, order=order)
    b = np.ones((len(a), p))
    assert _traced_peak(lambda: linsys._product(a, b)) <= 2**20


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: solve_spd([["a"]], [1.0]), "matrix"),
        (lambda: solve_spd(np.eye(1), ["a"]), "rhs"),
        (lambda: spectral_diagnostics([["a"]]), "matrix"),
        (lambda: solve_spd(np.array([[1 + 1j]]), [1.0]), "matrix"),
        (lambda: solve_spd(np.eye(1), np.array([1j])), "rhs"),
        (lambda: spectral_diagnostics(np.eye(2, dtype=complex)), "matrix"),
    ],
    ids=["text-matrix", "text-rhs", "text-spectrum", "complex-matrix", "complex-rhs", "complex-spectrum"],
)
def test_text_or_complex_input_is_an_invalid_argument_naming_it(call, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidArgumentError) as err:
            call()
    assert str(err.value) == f"{message} must be a rectangular array of real numbers"
