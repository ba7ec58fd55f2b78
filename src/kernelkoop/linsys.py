"""Symmetric positive-definite solves and spectral stability diagnostics.

Coefficient systems K alpha = rhs are solved through a Cholesky
factorization; the inverse is never formed.  A solve with
``diagnostics="exact"`` reports the condition number and smallest
eigenvalue of the raw input matrix, since those quantities drive the
numerical stability of kernel interpolation; with ``"off"`` it skips the
eigendecomposition and reports NaN for both.

The factorization is ``scipy.linalg``'s, imported by the first
factorization in a process, not with this module, so that a process that
never solves (``simulate``, ``--help``, an argument error) does not load
scipy; the README gives the start-up times this saves.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InvalidArgumentError, NotPositiveDefiniteError
from .kernels import _finite, _floats, _row_blocks

_SYMMETRY_RTOL = 1e-10
_AUTO_JITTER_STEPS = (1e-12, 1e-10, 1e-8)


@dataclass
class SolveReport:
    """Outcome of an SPD solve.

    ``condition_number`` and ``min_eigenvalue`` describe the raw input
    matrix when the solve ran with ``diagnostics="exact"``, and are NaN
    when it ran with ``"off"``.  ``jitter_used`` > 0 means the solution is
    of the regularized system (K + jitter*I) alpha = rhs.
    """

    coefficients: np.ndarray
    condition_number: float
    min_eigenvalue: float
    jitter_used: float = 0.0


class SpectralDiagnostics(NamedTuple):
    lambda_min: float
    lambda_max: float
    cond: float


def _check_symmetric(K) -> np.ndarray:
    """K as a float array, checked square, nonempty, finite and symmetric to ``_SYMMETRY_RTOL``.

    K is read one row panel of ``_row_blocks`` at a time; a panel's part
    right of the diagonal is compared with the column panel below it,
    which covers every pair.  Beside K this holds about 2 MiB, and the
    maxima, so the relative asymmetry, have the bits of a dense pass.
    """
    K = _floats(K, "matrix")
    if K.ndim != 2 or K.shape[0] != K.shape[1] or K.size == 0:
        raise InvalidArgumentError(f"matrix must be square and nonempty, got shape {K.shape}")
    blocks = _row_blocks(*K.shape)
    # np.max, not max: a NaN panel maximum stays NaN
    scale = float(np.max([np.max(np.abs(K[blk])) for blk in blocks]))
    if not np.isfinite(scale):
        raise InvalidArgumentError("matrix entries must be finite")
    with np.errstate(over="ignore"):  # a difference overflowing to inf is asymmetric
        asym = float(np.max([
            np.max(np.abs(K[blk, blk.start:] - K[blk.start:, blk].T)) for blk in blocks
        ]))
    if asym > _SYMMETRY_RTOL * max(scale, 1e-300):
        raise InvalidArgumentError(
            f"matrix is not symmetric (relative asymmetry {asym / max(scale, 1e-300):.3e})"
        )
    return K


def spectral_diagnostics(K) -> SpectralDiagnostics:
    """Extreme eigenvalues and 2-norm condition number of a symmetric matrix."""
    K = _check_symmetric(K)
    eigs = np.linalg.eigvalsh(K)
    lam_min = float(eigs[0])
    lam_max = float(eigs[-1])
    cond = lam_max / lam_min if lam_min > 0 else float("inf")
    return SpectralDiagnostics(lam_min, lam_max, cond)


def _parse_jitter(jitter_policy, what: str = "jitter_policy") -> float:
    """The first jitter of a policy: 0 for "none" and "auto", else the fixed finite jitter >= 0."""
    if isinstance(jitter_policy, str) and jitter_policy in ("none", "auto"):
        return 0.0
    try:  # an array is no jitter, even with one element
        jitter = float(jitter_policy) if isinstance(jitter_policy, (str, numbers.Real)) else np.nan
    except (ValueError, OverflowError):  # OverflowError: an int too large for a float
        jitter = np.nan
    if not np.isfinite(jitter) or jitter < 0:
        raise InvalidArgumentError(
            f"{what} must be 'none', 'auto' or a finite float >= 0, got {jitter_policy!r}"
        )
    return jitter


def cho_factor(a, **kwargs):
    """``scipy.linalg.cho_factor``; the first call in a process imports scipy.linalg."""
    from scipy import linalg

    return linalg.cho_factor(a, **kwargs)


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` for 2-D float arrays, in scipy's BLAS, with the bits of numpy's ``@``.

    As numpy's matmul does, a one-column ``b`` is a dgemv and any other a
    dgemm, each given ``a`` in its own memory order with the matching
    transpose flag, so a C- or F-contiguous ``a`` is never copied.

    Not ``@``: the numpy and scipy wheels each bundle an OpenBLAS with its
    own thread pool, and numpy's worker spins for about 0.1 s after a
    threaded product, against the next Cholesky in scipy's pool:
    ``fit_umf``'s second solve at M = 1954 took 147 ms after ``@`` and
    78-85 ms after this, same bits (2 vCPUs, two threads per pool).
    """
    from scipy.linalg import blas

    ta = a.flags.f_contiguous  # else a.T is the F-contiguous operand
    if b.shape[1] == 1:
        return blas.dgemv(1.0, a if ta else a.T, b[:, 0], trans=not ta)[:, None]
    tb = b.flags.f_contiguous
    # (a @ b).T = b.T @ a.T, which is what Fortran's column order reads
    return blas.dgemm(1.0, b if tb else b.T, a if ta else a.T, trans_a=tb, trans_b=ta).T


def _cholesky(K: np.ndarray, lam: float):
    """The lower Cholesky factor of K + lam*I, made in one copy of K, freed if it fails.

    With jitter the copy is K + 0.0 in Fortran order (entry for entry
    K + lam*I off the diagonal, -0.0 included), and it is factored in place.

    Without jitter scipy makes the copy: the copy path gives the same bits
    but is slower.  On ``large_m``'s M = 1954 Matern Gram (2 vCPUs, medians
    of 7 calls, 3 rounds) it took 69-72 ms against 55-60, numpy's
    transposing F-order copy alone 25-26 ms; at 3 factors per pass that is
    about 40 ms of ``large_m``'s ``fit_s``.
    """
    if lam == 0.0:
        return cho_factor(K, lower=True, check_finite=False)
    a = np.add(K, 0.0, out=np.empty(K.shape, order="F"))
    np.fill_diagonal(a, np.diagonal(K) + lam)
    return cho_factor(a, lower=True, overwrite_a=True, check_finite=False)


def solve_spd(
    K, rhs, jitter_policy: str | float = "none", diagnostics: str = "exact"
) -> SolveReport:
    """Solve (K + jitter*I) alpha = rhs with K symmetric positive definite.

    ``jitter_policy`` is ``"none"`` (fail on factorization failure, the
    default so conditioning studies measure raw matrices), a fixed finite
    jitter >= 0, or ``"auto"`` which retries with jitter escalating through
    {1e-12, 1e-10, 1e-8} * trace(K)/M after a failure at zero.

    ``diagnostics`` is ``"exact"`` (the default: the report carries the
    condition number and smallest eigenvalue from ``spectral_diagnostics``)
    or ``"off"`` (no eigendecomposition; both are NaN).  Either mode checks
    K and rhs alike, and a failed factorization names the smallest
    eigenvalue in its ``NotPositiveDefiniteError``.

    Memory: beside K and rhs, an ``"off"`` solve holds one copy of K, the
    Cholesky factor, and the symmetry check's panels; ``"exact"`` adds
    what ``eigvalsh`` needs.  K itself is never changed.
    """
    ladder = [_parse_jitter(jitter_policy)]
    if not (isinstance(diagnostics, str) and diagnostics in ("exact", "off")):
        raise InvalidArgumentError(f"diagnostics must be 'exact' or 'off', got {diagnostics!r}")
    K = _floats(K, "matrix")
    b = _finite(rhs, "rhs")
    # a K that is not 2-D is rejected by _check_symmetric, still before eigvalsh
    if K.ndim == 2 and (b.ndim not in (1, 2) or b.shape[0] != K.shape[0]):
        raise InvalidArgumentError(
            f"rhs must have {K.shape[0]} rows, got shape {np.shape(rhs)}"
        )
    if diagnostics == "exact":
        diag = spectral_diagnostics(K)
    else:
        _check_symmetric(K)
        diag = SpectralDiagnostics(np.nan, np.nan, np.nan)
    if jitter_policy == "auto":
        unit = float(np.trace(K)) / K.shape[0]
        ladder += [step * unit for step in _AUTO_JITTER_STEPS]

    from scipy.linalg import cho_solve  # as _cholesky's factor, a first-use import

    for lam in ladder:
        try:
            factor = _cholesky(K, lam)
        except np.linalg.LinAlgError:  # scipy.linalg.LinAlgError is this class
            continue
        return SolveReport(
            coefficients=cho_solve(factor, b, check_finite=False),
            condition_number=diag.cond,
            min_eigenvalue=diag.lambda_min,
            jitter_used=lam,
        )
    if diagnostics == "off":  # the error names the smallest eigenvalue in either mode
        diag = spectral_diagnostics(K)
    raise NotPositiveDefiniteError(
        f"Cholesky factorization failed (min eigenvalue {diag.lambda_min:.3e}, "
        f"jitter ladder exhausted under policy {jitter_policy!r})"
    )
