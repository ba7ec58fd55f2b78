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
from dataclasses import fields
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import CsvFormatError
from .kernels import KernelSpec, PointSet, TrajectoryDataset, _time_indices
from .koopman import EstimateMode, KoopmanEstimate
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


_KERNEL_KEYS = tuple(f.name for f in fields(KernelSpec))
# the comment block of an estimate file, in written order; the reader requires every key
_ESTIMATE_KEYS = (
    "mode", *(f"kernel.{key}" for key in _KERNEL_KEYS),
    "condition_number", "min_eigenvalue", "jitter_used",
)


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
    # a multi-line config value (its lines joined by '\n') stays on its one comment line
    comments = "".join(f"# {k} = {v}".replace("\n", " ") + "\n" for k, v in (params or {}).items())
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


def _names(pattern: str, count: int) -> list[str]:
    return [pattern.format(i + 1) for i in range(count)]


def _split(path, header: list[str], layout, what: str, values: np.ndarray):
    """The d-, d- and n-wide column blocks of a table whose header is exactly ``layout(d, n)``."""
    for d in range(1, (len(header) - 2) // 2 + 1):
        if header == layout(d, len(header) - 1 - 2 * d):
            return [np.ascontiguousarray(b) for b in np.split(values, [d, 2 * d], axis=1)]
    raise CsvFormatError(f"{path}: unrecognized {what} header {header}")


# ---------------------------------------------------------------------------
# trajectories


def _trajectory_header(d: int, n: int) -> list[str]:
    outputs = ["y_next"] if n == 1 else _names("y{}_next", n)
    return ["k", *_names("x{}", d), *_names("x{}_next", d), *outputs]


def write_trajectory_csv(path, dataset: TrajectoryDataset, params=None) -> None:
    header = _trajectory_header(dataset.state_dim, dataset.output_dim)
    columns = [dataset.k, *dataset.x.T, *dataset.x_next.T, *dataset.y_next.T]
    _write_columns(path, header, columns, params)


def read_trajectory_csv(path) -> TrajectoryDataset:
    _, header, k, values = _read_table(path)
    if not len(k):
        raise CsvFormatError(f"{path}: no trajectory records")
    x, x_next, y_next = _split(path, header, _trajectory_header, "trajectory", values)
    return TrajectoryDataset(k=k, x=x, x_next=x_next, y_next=y_next)


# ---------------------------------------------------------------------------
# point sets


def _pointset_header(d: int) -> list[str]:
    return ["idx", *_names("x{}", d)]


def write_pointset_csv(path, points: PointSet, params=None) -> None:
    header = _pointset_header(points.dim)
    _write_columns(path, header, [_time_indices(points), *points.points.T], params)


def read_pointset_csv(path) -> PointSet:
    _, header, idx, pts = _read_table(path)
    if not len(idx):
        raise CsvFormatError(f"{path}: empty point set")
    if len(header) < 2 or header != _pointset_header(len(header) - 1):
        raise CsvFormatError(f"{path}: unrecognized point-set header {header}")
    return PointSet(pts, indices=idx)


# ---------------------------------------------------------------------------
# fitted estimates


def _estimate_header(d: int, n: int) -> list[str]:
    return ["idx", *_names("c{}", d), *_names("a{}", d), *_names("alpha{}", n)]


def write_estimate_csv(path, estimate: KoopmanEstimate, params=None) -> None:
    report = estimate.diagnostics
    values = [
        estimate.mode.value,
        *estimate.kernel.to_config().values(),  # in field order, as _KERNEL_KEYS
        *map(fmt, (report.condition_number, report.min_eigenvalue, report.jitter_used)),
    ]
    meta = {**(params or {}), **dict(zip(_ESTIMATE_KEYS, values))}
    header = _estimate_header(estimate.centers.dim, estimate.output_dim)
    columns = [
        _time_indices(estimate.centers),
        *estimate.centers.points.T,
        *estimate.advanced_centers.points.T,
        *estimate.alpha.T,
    ]
    _write_columns(path, header, columns, meta)


def read_estimate_csv(path) -> KoopmanEstimate:
    comments, header, idx, data = _read_table(path)
    if not len(idx):
        raise CsvFormatError(f"{path}: estimate file has no centers")
    centers, advanced, alpha = _split(path, header, _estimate_header, "estimate", data)
    try:
        mode, *kernel_config, cond, lam, jitter = [comments[key] for key in _ESTIMATE_KEYS]
        kernel = KernelSpec.from_config(dict(zip(_KERNEL_KEYS, kernel_config)))
        mode = EstimateMode(mode)
        report = SolveReport(alpha, float(cond), float(lam), float(jitter))
    except KeyError as exc:
        raise CsvFormatError(f"{path}: missing {exc} in the comment block") from None
    except ValueError as exc:
        raise CsvFormatError(f"{path}: bad comment ({exc})") from None
    return KoopmanEstimate(
        mode=mode,
        centers=PointSet(centers, indices=idx),
        advanced_centers=PointSet(advanced, indices=idx),
        alpha=alpha,
        kernel=kernel,
        diagnostics=report,
    )
