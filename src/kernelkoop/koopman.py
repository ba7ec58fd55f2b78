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
from .kernels import KernelSpec, PointSet, as_points, kernel_matrix
from .linsys import SolveReport, solve_spd


@dataclass
class TrajectoryDataset:
    """Ordered samples (k_i, x_{k_i}, x_{k_i+1}, y_{k_i+1}) from one trajectory.

    Both the sampled states and their advanced states are stored, so the
    estimators never need the (unknown) dynamics map itself.  Outputs are
    measurements of the (unknown) observable at the advanced states.
    Time indices must be unique and all values finite.
    """

    k: np.ndarray
    x: np.ndarray
    x_next: np.ndarray
    y_next: np.ndarray

    def __post_init__(self) -> None:
        self.k = np.asarray(self.k, dtype=int)
        self.x = as_points(self.x)
        self.x_next = as_points(self.x_next)
        self.y_next = as_points(self.y_next)
        m = self.k.shape[0]
        if self.x.shape[0] != m or self.x_next.shape[0] != m or self.y_next.shape[0] != m:
            raise InvalidArgumentError("record arrays must have equal length")
        if self.x.shape != self.x_next.shape:
            raise InvalidArgumentError("x and x_next must share dimension")
        if m == 0:
            raise DegenerateInputError("dataset is empty")
        if not all(np.isfinite(a).all() for a in (self.x, self.x_next, self.y_next)):
            raise DegenerateInputError("x, x_next and y_next must be finite")
        if np.unique(self.k).size != m:
            raise DegenerateInputError("time indices k must be unique")

    def __len__(self) -> int:
        return self.k.shape[0]

    @property
    def state_dim(self) -> int:
        return self.x.shape[1]

    @property
    def output_dim(self) -> int:
        return self.y_next.shape[1]


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
        self.alpha = as_points(self.alpha)
        m = len(self.centers)
        if len(self.advanced_centers) != m or self.alpha.shape[0] != m:
            raise InvalidArgumentError(
                "centers, advanced centers and coefficient rows must agree"
            )

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
    return PointSet(dataset.x_next[rows].copy(), indices=dataset.k[rows]), dataset.y_next[rows]


def _estimate(
    mode: EstimateMode, centers: PointSet, advanced: PointSet, kernel: KernelSpec, report: SolveReport
) -> KoopmanEstimate:
    return KoopmanEstimate(mode, centers, advanced, report.coefficients, kernel, report)


def fit_pullback(
    dataset: TrajectoryDataset,
    centers: PointSet,
    kernel: KernelSpec,
    jitter_policy: str | float = "none",
) -> KoopmanEstimate:
    """Interpolate outputs against the kernel matrix of the advanced centers.

    Coefficients solve K(f(Xi), f(Xi)) alpha = [y at advanced centers].
    The fitted estimate reproduces every training output exactly (up to
    solver tolerance) when evaluated at the advanced centers.
    """
    advanced, targets = _advance(dataset, centers)
    report = solve_spd(kernel_matrix(kernel, advanced, advanced), targets, jitter_policy)
    return _estimate(EstimateMode.PULLBACK, centers, advanced, kernel, report)


def fit_umf(
    dataset: TrajectoryDataset,
    centers: PointSet,
    kernel: KernelSpec,
    g_at_centers: np.ndarray,
    jitter_policy: str | float = "none",
) -> KoopmanEstimate:
    """Projected estimator: project g, compose with the sampled dynamics, project again.

    With K = K(Xi, Xi) and C = K(Xi, f(Xi)), the coefficients for each
    output component are alpha = K^-1 C^T K^-1 g(Xi), computed as two SPD
    solves.  ``g_at_centers`` (required) holds g evaluated at the centers,
    one row per center.  The diagnostics are the second solve's report;
    both solves factor the same K, so its cond, lambda_min and jitter are
    those of the first.
    """
    g = as_points(g_at_centers)
    if g.shape[0] != len(centers):
        raise InvalidArgumentError(
            f"g_at_centers must have {len(centers)} rows, got {g.shape[0]}"
        )
    advanced, _ = _advance(dataset, centers)
    K = kernel_matrix(kernel, centers, centers)
    first = solve_spd(K, g, jitter_policy)
    C = kernel_matrix(kernel, centers, advanced)
    report = solve_spd(K, C.T @ first.coefficients, jitter_policy)
    return _estimate(EstimateMode.PROJECTED, centers, advanced, kernel, report)


def predict(estimate: KoopmanEstimate, x) -> np.ndarray:
    """Evaluate the fitted expansion at one query point or a batch.

    A 1-D input returns the output vector; an (m, d) batch returns (m, n).
    PULLBACK estimates expect the advanced state as the query point.
    """
    pts = np.asarray(x, dtype=float)
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
    out = kernel_matrix(estimate.kernel, pts, base.points) @ estimate.alpha
    return out[0] if single else out


def empirical_risk(targets, predictions) -> float:
    """Mean squared Euclidean output error over a sample batch."""
    t = np.asarray(targets, dtype=float)
    p = np.asarray(predictions, dtype=float)
    if t.shape != p.shape:
        raise InvalidArgumentError(f"shape mismatch: {t.shape} vs {p.shape}")
    if t.size == 0:
        raise DegenerateInputError("empirical risk of an empty sample list")
    if t.ndim == 1:
        t = t[:, None]
        p = p[:, None]
    return float(np.mean(np.sum((t - p) ** 2, axis=1)))


def kernel_sections(kernel: KernelSpec, centers: PointSet, points) -> np.ndarray:
    """Basis-evaluation matrix: entry (i, j) is K(c_i, p_j)."""
    return kernel_matrix(kernel, centers, np.atleast_2d(points))


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
    Px = np.asarray(psi_x, dtype=float)
    Pp = np.asarray(psi_x_plus, dtype=float)
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
    coeffs = np.asarray(g_coeffs, dtype=float).ravel()
    if coeffs.shape[0] != op.A.shape[0]:
        raise InvalidArgumentError(
            f"g_coeffs must have length {op.A.shape[0]}, got {coeffs.shape[0]}"
        )
    pts = np.atleast_2d(np.asarray(x, dtype=float))
    if pts.shape[0] != 1:
        raise InvalidArgumentError(f"x must be one point, got shape {np.shape(x)}")
    psi = kernel_sections(op.kernel, op.basis_centers, pts)[:, 0]
    return float(coeffs @ op.A @ psi)
