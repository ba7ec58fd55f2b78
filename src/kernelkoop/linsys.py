"""Symmetric positive-definite solves and spectral stability diagnostics.

Coefficient systems K alpha = rhs are solved through a Cholesky
factorization; the inverse is never formed.  Each solve reports the
condition number and smallest eigenvalue of the raw input matrix, since
those quantities drive the numerical stability of kernel interpolation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve

from .errors import InvalidArgumentError, NotPositiveDefiniteError

_SYMMETRY_RTOL = 1e-10
_AUTO_JITTER_STEPS = (1e-12, 1e-10, 1e-8)


@dataclass
class SolveReport:
    """Outcome of an SPD solve.

    ``condition_number`` and ``min_eigenvalue`` describe the raw input
    matrix.  ``jitter_used`` > 0 means the solution is of the regularized
    system (K + jitter*I) alpha = rhs.
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
    K = np.asarray(K, dtype=float)
    if K.ndim != 2 or K.shape[0] != K.shape[1] or K.size == 0:
        raise InvalidArgumentError(f"matrix must be square and nonempty, got shape {K.shape}")
    scale = float(np.max(np.abs(K)))
    if not np.isfinite(scale):
        raise InvalidArgumentError("matrix entries must be finite")
    with np.errstate(over="ignore"):  # a difference overflowing to inf is asymmetric
        asym = float(np.max(np.abs(K - K.T)))
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
    if jitter_policy in ("none", "auto"):
        return 0.0
    try:
        jitter = float(jitter_policy)
    except (TypeError, ValueError):
        jitter = float("nan")
    if not np.isfinite(jitter) or jitter < 0:
        raise InvalidArgumentError(
            f"{what} must be 'none', 'auto' or a finite float >= 0, got {jitter_policy!r}"
        )
    return jitter


def solve_spd(K, rhs, jitter_policy: str | float = "none") -> SolveReport:
    """Solve (K + jitter*I) alpha = rhs with K symmetric positive definite.

    ``jitter_policy`` is ``"none"`` (fail on factorization failure, the
    default so conditioning studies measure raw matrices), a fixed finite
    jitter >= 0, or ``"auto"`` which retries with jitter escalating through
    {1e-12, 1e-10, 1e-8} * trace(K)/M after a failure at zero.
    """
    ladder = [_parse_jitter(jitter_policy)]
    K = np.asarray(K, dtype=float)
    b = np.asarray(rhs, dtype=float)
    squeeze = b.ndim == 1
    if squeeze:
        b = b[:, None]
    # a K that is not 2-D is rejected by spectral_diagnostics, still before eigvalsh
    if K.ndim == 2 and (b.ndim != 2 or b.shape[0] != K.shape[0]):
        raise InvalidArgumentError(
            f"rhs must have {K.shape[0]} rows, got shape {np.shape(rhs)}"
        )
    diag = spectral_diagnostics(K)
    if jitter_policy == "auto":
        unit = float(np.trace(K)) / K.shape[0]
        ladder += [step * unit for step in _AUTO_JITTER_STEPS]

    for lam in ladder:
        Kreg = K if lam == 0.0 else K + lam * np.eye(K.shape[0])
        try:
            factor = cho_factor(Kreg, lower=True, check_finite=False)
        except LinAlgError:
            continue
        alpha = cho_solve(factor, b, check_finite=False)
        if squeeze:
            alpha = alpha[:, 0]
        return SolveReport(
            coefficients=alpha,
            condition_number=diag.cond,
            min_eigenvalue=diag.lambda_min,
            jitter_used=lam,
        )
    raise NotPositiveDefiniteError(
        f"Cholesky factorization failed (min eigenvalue {diag.lambda_min:.3e}, "
        f"jitter ladder exhausted under policy {jitter_policy!r})"
    )
