"""Kernel estimators of the composition operator g -> g ∘ f from trajectory data.

Two estimators are provided.  The pullback interpolant fits coefficients
against the kernel matrix of the advanced centers f(Xi) and evaluates as a
function of the advanced state; it interpolates the training outputs
exactly.  The projected estimator composes two orthogonal projections onto
the span of kernel sections at the centers and evaluates as a function of
the current state.  With the kernel-section basis and as many basis
functions as samples, the projected estimator coincides with the
least-squares (dynamic mode decomposition style) operator fit, which is
also implemented here for cross-checking.
"""

from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, InvalidArgumentError
from .kernels import (
    KernelSpec, PointSet, TrajectoryDataset, _each, _finite, _floats, _points, _row_blocks,
    as_points, kernel_matrix,
)
from .linsys import SolveReport, _product, solve_spd


class EstimateMode(enum.Enum):
    PULLBACK = "pullback"
    PROJECTED = "projected"


@dataclass
class KoopmanEstimate:
    """A fitted kernel expansion sum_i alpha_i K(c_i, .) per output component.

    In PULLBACK mode the expansion centers c_i are the advanced centers and
    the estimate is a function of the advanced state; in PROJECTED mode the
    centers are the sample states themselves.
    """

    mode: EstimateMode
    centers: PointSet
    advanced_centers: PointSet
    alpha: np.ndarray
    kernel: KernelSpec
    diagnostics: SolveReport

    def __post_init__(self) -> None:
        self.alpha = as_points(self.alpha, "alpha")
        if self.alpha.ndim != 2:
            raise InvalidArgumentError(f"alpha must be 1-D or 2-D, got shape {self.alpha.shape}")
        m = len(self.centers)
        if len(self.advanced_centers) != m or self.alpha.shape[0] != m:
            raise InvalidArgumentError(
                "centers, advanced centers and coefficient rows must agree"
            )
        if self.advanced_centers.dim != self.centers.dim:
            raise InvalidArgumentError("centers and advanced centers must share dimension")
        # None equals only None: both carry the same time indices or neither does
        if not np.array_equal(self.centers.indices, self.advanced_centers.indices):
            raise InvalidArgumentError("centers and advanced centers must carry equal indices")
        if not np.isfinite(self.alpha).all():
            raise InvalidArgumentError("coefficients must be finite")

    @property
    def output_dim(self) -> int:
        return self.alpha.shape[1]


@dataclass
class EdmdOperator:
    """Least-squares operator matrix A with its basis-defining center set."""

    A: np.ndarray
    basis_centers: PointSet | None = None
    kernel: KernelSpec | None = None
    residual: float = 0.0
    rank: int = 0
    rank_deficient: bool = False


def _rows_at_times(dataset: TrajectoryDataset, times) -> tuple[np.ndarray, np.ndarray]:
    """Dataset rows whose time index k equals each of ``times``, and which exist.

    Rows of missing times are arbitrary and must be masked by the second
    array.  Relies on the time indices of the dataset being unique.
    """
    order = np.argsort(dataset.k)
    sorted_k = dataset.k[order]
    pos = np.minimum(np.searchsorted(sorted_k, times), len(sorted_k) - 1)
    return order[pos], sorted_k[pos] == times


def _advance(dataset: TrajectoryDataset, centers: PointSet) -> tuple[PointSet, np.ndarray]:
    """The advanced centers f(Xi) and the outputs measured there, looked up by time index."""
    if centers.indices is None:
        raise InvalidArgumentError("centers must carry trajectory indices")
    rows, found = _rows_at_times(dataset, centers.indices)
    if not found.all():
        t = int(centers.indices[~found][0])
        raise InvalidArgumentError(f"center time index {t} not present in dataset")
    if not np.array_equal(dataset.x[rows], centers.points):
        raise InvalidArgumentError("center coordinates disagree with dataset states")
    return PointSet(dataset.x_next[rows], indices=dataset.k[rows]), dataset.y_next[rows]


def fit_pullback(
    dataset: TrajectoryDataset,
    centers: PointSet,
    kernel: KernelSpec,
    jitter_policy: str | float = "none",
    diagnostics: str = "off",
) -> KoopmanEstimate:
    """Interpolate outputs against the kernel matrix of the advanced centers.

    Coefficients solve K(f(Xi), f(Xi)) alpha = [y at advanced centers].
    The fitted estimate reproduces every training output exactly (up to
    solver tolerance) when evaluated at the advanced centers.

    ``diagnostics`` is the mode of ``solve_spd``.  The default ``"off"``
    skips the eigendecomposition, so the report's ``condition_number`` and
    ``min_eigenvalue`` are NaN; ``"exact"`` fills them in.  The
    coefficients are the same in both modes.
    """
    advanced, targets = _advance(dataset, centers)
    report = solve_spd(kernel_matrix(kernel, advanced, advanced), targets, jitter_policy, diagnostics)
    return KoopmanEstimate(
        EstimateMode.PULLBACK, centers, advanced, report.coefficients, kernel, report
    )


def fit_umf(
    dataset: TrajectoryDataset,
    centers: PointSet,
    kernel: KernelSpec,
    g_at_centers: np.ndarray,
    jitter_policy: str | float = "none",
    diagnostics: str = "off",
) -> KoopmanEstimate:
    """Projected estimator: project g, compose with the sampled dynamics, project again.

    With K = K(Xi, Xi) and C = K(Xi, f(Xi)), the coefficients for each
    output component are alpha = K^-1 C^T K^-1 g(Xi), computed as two SPD
    solves.  ``g_at_centers`` (required) holds g evaluated at the centers,
    one row per center.  The diagnostics are the second solve's report;
    both solves factor the same K, so its cond, lambda_min and jitter are
    those of the first.  The first solve runs with diagnostics off and the
    second in the mode ``diagnostics`` (as in ``fit_pullback``: ``"off"``
    by default, ``"exact"`` for the spectrum), so a fit computes at most
    one eigendecomposition.

    Memory: K lives through the fit, and beside it at most one more
    M x M array at a time, C or a solve's Cholesky factor (with
    ``"off"``), so the peak is about 2 K.

    The product C^T K^-1 g(Xi) between the solves runs in scipy's BLAS,
    like the solves (``linsys._product``).  C^T goes in as the
    F-contiguous transpose of C, not copied.
    """
    g = as_points(g_at_centers, "g_at_centers")
    if g.ndim != 2:
        raise InvalidArgumentError(f"g_at_centers must be 1-D or 2-D, got shape {g.shape}")
    if g.shape[0] != len(centers):
        raise InvalidArgumentError(
            f"g_at_centers must have {len(centers)} rows, got {g.shape[0]}"
        )
    advanced, _ = _advance(dataset, centers)
    K = kernel_matrix(kernel, centers, centers)
    first = solve_spd(K, g, jitter_policy, "off")
    rhs = _product(kernel_matrix(kernel, centers, advanced).T, first.coefficients)  # C is freed here
    report = solve_spd(K, rhs, jitter_policy, diagnostics)
    return KoopmanEstimate(
        EstimateMode.PROJECTED, centers, advanced, report.coefficients, kernel, report
    )


def predict(estimate: KoopmanEstimate, x) -> np.ndarray:
    """Evaluate the fitted expansion at one query point or a batch.

    A 1-D input returns the output vector; an (m, d) batch returns (m, n).
    PULLBACK estimates expect the advanced state as the query point.

    The queries go through in the row blocks of ``kernels._row_blocks``,
    whose kernel matrices hold at most ``_MAX_ENTRIES`` entries, so the
    extra memory does not grow with m.  The blocks are shared by the
    threads of ``kernels._each``; each thread multiplies the blocks it
    built and writes their rows, so the threads change no bit.  A query
    set that fits in one block is one call of
    ``kernel_matrix(kernel, x, centers) @ alpha``.  Blocks
    are a multiple of 8 rows long, which keeps BLAS's grouping of rows
    wherever the block calls and the one-shot call split the rows alike;
    the result then has the one-shot bits, and otherwise agrees with them
    to within rounding.
    """
    pts = _finite(x, "queries")
    single = pts.ndim == 1
    pts = np.atleast_2d(pts)
    base = (
        estimate.advanced_centers
        if estimate.mode is EstimateMode.PULLBACK
        else estimate.centers
    )
    if pts.shape[1] != base.dim:
        raise InvalidArgumentError(
            f"query dimension {pts.shape[1]} does not match centers ({base.dim})"
        )
    out = np.empty((pts.shape[0], estimate.output_dim))

    def block(blk):
        out[blk] = kernel_matrix(estimate.kernel, pts[blk], base.points) @ estimate.alpha

    # an empty query set still makes one call, which rejects it
    _each(block, _row_blocks(pts.shape[0], len(base)))
    return out[0] if single else out


def empirical_risk(targets, predictions) -> float:
    """Mean squared Euclidean output error over a sample batch."""
    t = _floats(targets, "targets")
    p = _floats(predictions, "predictions")
    if t.shape != p.shape:
        raise InvalidArgumentError(f"shape mismatch: {t.shape} vs {p.shape}")
    if t.ndim not in (1, 2):
        raise InvalidArgumentError(f"samples must be 1-D or 2-D, got shape {t.shape}")
    if not (np.isfinite(t).all() and np.isfinite(p).all()):
        raise InvalidArgumentError("targets and predictions must be finite")
    if t.size == 0:
        raise DegenerateInputError("empirical risk of an empty sample list")
    if t.ndim == 1:
        t = t[:, None]
        p = p[:, None]
    with np.errstate(over="ignore"):  # an error past the float range is inf
        return float(np.mean(np.sum((t - p) ** 2, axis=1)))


def kernel_sections(kernel: KernelSpec, centers: PointSet, points) -> np.ndarray:
    """Basis-evaluation matrix: entry (i, j) is K(c_i, p_j).

    ``points`` is a PointSet, a dataset (its states) or an array, in which
    a 1-D array is one point.  The matrix is assembled as a cross matrix
    also when ``points`` are the centers themselves.
    """
    if not isinstance(points, (PointSet, TrajectoryDataset)):
        points = np.atleast_2d(_floats(points, "kernel points"))
    # a view, never `centers` itself: kernel_matrix takes the Gram path when B is A
    return kernel_matrix(kernel, centers, _points(points, "kernel points").view())


def edmd_fit(
    psi_x: np.ndarray,
    psi_x_plus: np.ndarray,
    basis_centers: PointSet | None = None,
    kernel: KernelSpec | None = None,
) -> EdmdOperator:
    """Least-squares fit of A minimizing ||A Psi(X) - Psi(X+)||_F.

    Solved through a rank-revealing factorization, so rank-deficient
    basis-evaluation matrices yield the minimum-norm solution with a
    warning instead of failing like the normal-equations closed form.
    """
    Px, Pp = (_finite(psi, "basis evaluation matrices") for psi in (psi_x, psi_x_plus))
    if Px.ndim != 2 or Px.shape != Pp.shape:
        raise InvalidArgumentError(
            f"basis evaluation matrices must share shape, got {Px.shape} and {Pp.shape}"
        )
    n_basis = Px.shape[0]
    solution, _, rank, _ = np.linalg.lstsq(Px.T, Pp.T, rcond=None)
    A = solution.T
    rank = int(rank)
    deficient = rank < n_basis
    if deficient:
        warnings.warn(
            f"basis evaluation matrix has rank {rank} < {n_basis}; "
            "returning the minimum-norm least-squares operator",
            RuntimeWarning,
            stacklevel=2,
        )
    residual = float(np.linalg.norm(A @ Px - Pp, "fro"))
    return EdmdOperator(
        A=A,
        basis_centers=basis_centers,
        kernel=kernel,
        residual=residual,
        rank=rank,
        rank_deficient=deficient,
    )


def edmd_apply(op: EdmdOperator, g_coeffs, x) -> float:
    """Evaluate (A-advanced g)(x) = g_coeffs^T A psi(x) in the kernel-section basis.

    ``x`` is one point: a 1-D vector or a single-row (1, d) array.
    """
    if op.basis_centers is None or op.kernel is None:
        raise InvalidArgumentError(
            "operator carries no kernel-section basis; fit with basis_centers and kernel"
        )
    coeffs = _finite(g_coeffs, "g_coeffs").ravel()
    if coeffs.shape[0] != op.A.shape[0]:
        raise InvalidArgumentError(
            f"g_coeffs must have length {op.A.shape[0]}, got {coeffs.shape[0]}"
        )
    pts = np.atleast_2d(_floats(x, "x"))
    if pts.shape[0] != 1:
        raise InvalidArgumentError(f"x must be one point, got shape {np.shape(x)}")
    psi = kernel_sections(op.kernel, op.basis_centers, pts)[:, 0]
    with np.errstate(over="ignore", invalid="ignore"):  # a sum past the float range: inf or NaN
        return float(coeffs @ op.A @ psi)
