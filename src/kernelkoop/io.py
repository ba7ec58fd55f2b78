"""CSV persistence with provenance comments, atomic writes, exact round-trips.

Every file starts with '# key = value' comment lines recording the
configuration that produced it.  Floats are written with shortest
round-trip repr, so rereading a file reproduces the arrays bit for bit
and reruns produce byte-identical files.

Tables go a column at a time.  The writer formats each column in one
pass (ints by ``str``, floats by ``repr``, strings as they are) and
joins the columns row-wise.  The readers parse the whole body with one
``np.loadtxt`` call, which converts each float field with
``PyOS_string_to_double``: the same correctly rounded conversion that
``float()`` uses, so a file written with ``repr`` reads back to the same
bits.  The readers return C-contiguous arrays, int64 for ``k``/``idx``
and float64 for the rest.
"""

from __future__ import annotations

import os
import tempfile
import warnings
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import CsvFormatError
from .kernels import KernelSpec, PointSet
from .koopman import EstimateMode, KoopmanEstimate, TrajectoryDataset
from .linsys import SolveReport


def fmt(value) -> str:
    """Shortest round-trip decimal form of a float."""
    return repr(float(value))


def atomic_write_text(path, text: str) -> None:
    """Write via a sibling temp file and rename, so readers never see partial files."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


_KERNEL = "kernel."


def _kernel_params(kernel: KernelSpec) -> dict[str, str]:
    """The ``kernel.<key>`` provenance comments of a kernel, parsed back by read_estimate_csv."""
    return {_KERNEL + key: value for key, value in kernel.to_config().items()}


def write_rows_csv(path, header: Sequence[str], rows, params=None) -> None:
    """Generic table writer: comments, one header line, then data rows.

    ``rows`` is a sequence of rows or a 2-D array.  Each column holds one
    kind of value: ints, floats or preformatted strings.
    """
    columns = rows.T if isinstance(rows, np.ndarray) else list(zip(*rows))
    _write_columns(path, header, columns, params)


def _write_columns(path, header: Sequence[str], columns, params) -> None:
    cells = [_column_cells(column) for column in columns]
    body = "".join([",".join(row) + "\n" for row in zip(*cells)])
    comments = "".join(f"# {key} = {value}\n" for key, value in (params or {}).items())
    atomic_write_text(path, comments + ",".join(header) + "\n" + body)


def _column_cells(column):
    """The cells of one column: ints by ``str``, floats by ``repr``, strings as given."""
    values = np.asarray(column)
    if values.dtype.kind in "iu":
        return map(str, values.tolist())
    if values.dtype.kind == "f":
        return map(repr, values.tolist())
    if values.dtype.kind == "U":
        return values.tolist()
    raise TypeError(f"cannot write a column of dtype {values.dtype}")


def _read_table(path) -> tuple[dict[str, str], list[str], np.ndarray, np.ndarray]:
    """Parse (comments, header, first column, other columns) from a CSV of this module.

    The body is parsed by one ``np.loadtxt`` into an int64 first column and
    an (n, ncols - 1) float64 block.  A non-integer first cell, a
    non-number, a missing or an extra cell raises CsvFormatError.
    """
    with open(path, encoding="utf-8") as fh:
        comments, header = _read_header(fh, path)
        dtype = np.dtype([("first", np.int64), ("rest", np.float64, (len(header) - 1,))])
        table = _read_body(fh, path, dtype=dtype, ndmin=1)
    return comments, header, *(np.ascontiguousarray(table[f]) for f in ("first", "rest"))


def _read_header(fh, path) -> tuple[dict[str, str], list[str]]:
    """Scan the '#' comment lines and the header line of an open CSV, line by line."""
    comments: dict[str, str] = {}
    try:
        for line in fh:
            if not line.strip():
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if "=" in body:
                    key, _, value = body.partition("=")
                    comments[key.strip()] = value.strip()
                continue
            return comments, [c.strip() for c in line.split(",")]
    except UnicodeDecodeError as exc:
        raise CsvFormatError(f"{path}: not UTF-8 text ({exc})") from None
    raise CsvFormatError(f"{path}: no header line found")


def _read_body(fh, path, **loadtxt_args) -> np.ndarray:
    """The rest of an open CSV by one ``np.loadtxt``, blank and '#' lines skipped."""
    try:
        with warnings.catch_warnings():
            # a header without rows is reported by each reader
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            # numpy 1.x reads "1.0" into an int column with only this warning
            warnings.simplefilter("error", DeprecationWarning)
            return np.loadtxt(
                (line for line in fh if line.strip()), delimiter=",", **loadtxt_args
            )
    except (ValueError, DeprecationWarning) as exc:
        raise CsvFormatError(f"{path}: bad row ({exc})") from None


# ---------------------------------------------------------------------------
# trajectories


def write_trajectory_csv(path, dataset: TrajectoryDataset, params=None) -> None:
    d = dataset.state_dim
    n = dataset.output_dim
    header = (
        ["k"]
        + [f"x{i + 1}" for i in range(d)]
        + [f"x{i + 1}_next" for i in range(d)]
        + (["y_next"] if n == 1 else [f"y{i + 1}_next" for i in range(n)])
    )
    columns = [dataset.k, *dataset.x.T, *dataset.x_next.T, *dataset.y_next.T]
    _write_columns(path, header, columns, params)


def read_trajectory_csv(path) -> TrajectoryDataset:
    _, header, k, values = _read_table(path)
    if not len(k):
        raise CsvFormatError(f"{path}: no trajectory records")
    if header[0] != "k":
        raise CsvFormatError(f"{path}: first column must be 'k', got {header[0]!r}")
    state_cols = [c for c in header if c.startswith("x") and not c.endswith("_next")]
    next_cols = [c for c in header if c.startswith("x") and c.endswith("_next")]
    out_cols = [c for c in header if c.startswith("y")]
    if not state_cols or len(state_cols) != len(next_cols) or not out_cols:
        raise CsvFormatError(f"{path}: unrecognized trajectory header {header}")

    def block(cols):
        return np.ascontiguousarray(values[:, [header.index(c) - 1 for c in cols]])

    return TrajectoryDataset(
        k=k, x=block(state_cols), x_next=block(next_cols), y_next=block(out_cols)
    )


# ---------------------------------------------------------------------------
# point sets


def _indices(points: PointSet) -> np.ndarray:
    """The trajectory indices of the points, or 0..M-1 when they carry none."""
    return points.indices if points.indices is not None else np.arange(len(points))


def write_pointset_csv(path, points: PointSet, params=None) -> None:
    header = ["idx"] + [f"x{i + 1}" for i in range(points.dim)]
    _write_columns(path, header, [_indices(points), *points.points.T], params)


def read_pointset_csv(path) -> PointSet:
    _, header, idx, pts = _read_table(path)
    if not len(idx):
        raise CsvFormatError(f"{path}: empty point set")
    if header[0] != "idx":
        raise CsvFormatError(f"{path}: first column must be 'idx', got {header[0]!r}")
    return PointSet(pts, indices=idx)


# ---------------------------------------------------------------------------
# fitted estimates


def write_estimate_csv(path, estimate: KoopmanEstimate, params=None) -> None:
    report = estimate.diagnostics
    meta = {
        **(params or {}),
        "mode": estimate.mode.value,
        **_kernel_params(estimate.kernel),
        "condition_number": fmt(report.condition_number),
        "min_eigenvalue": fmt(report.min_eigenvalue),
        "jitter_used": fmt(report.jitter_used),
    }

    d = estimate.centers.dim
    n = estimate.output_dim
    header = (
        ["idx"]
        + [f"c{i + 1}" for i in range(d)]
        + [f"a{i + 1}" for i in range(d)]
        + [f"alpha{i + 1}" for i in range(n)]
    )
    columns = [
        _indices(estimate.centers),
        *estimate.centers.points.T,
        *estimate.advanced_centers.points.T,
        *estimate.alpha.T,
    ]
    _write_columns(path, header, columns, meta)


def read_estimate_csv(path) -> KoopmanEstimate:
    comments, header, idx, data = _read_table(path)
    if not len(idx):
        raise CsvFormatError(f"{path}: estimate file has no centers")
    if "mode" not in comments:
        raise CsvFormatError(f"{path}: missing 'mode' in the comment block")
    d = sum(1 for c in header if c.startswith("c"))
    n = sum(1 for c in header if c.startswith("alpha"))
    if d == 0 or n == 0 or len(header) != 1 + 2 * d + n:
        raise CsvFormatError(f"{path}: unrecognized estimate header {header}")
    centers = PointSet(np.ascontiguousarray(data[:, :d]), indices=idx)
    advanced = PointSet(np.ascontiguousarray(data[:, d : 2 * d]), indices=idx)
    alpha = np.ascontiguousarray(data[:, 2 * d :])
    kernel_config = {k.removeprefix(_KERNEL): v for k, v in comments.items() if k.startswith(_KERNEL)}
    try:
        kernel = KernelSpec.from_config(kernel_config)
        mode = EstimateMode(comments["mode"])
        report = SolveReport(
            coefficients=alpha,
            condition_number=float(comments.get("condition_number", "nan")),
            min_eigenvalue=float(comments.get("min_eigenvalue", "nan")),
            jitter_used=float(comments.get("jitter_used", "0.0")),
        )
    except ValueError as exc:
        raise CsvFormatError(f"{path}: bad comment ({exc})") from None
    return KoopmanEstimate(
        mode=mode,
        centers=centers,
        advanced_centers=advanced,
        alpha=alpha,
        kernel=kernel,
        diagnostics=report,
    )
