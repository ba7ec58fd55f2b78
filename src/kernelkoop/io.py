"""CSV persistence with provenance comments, atomic writes, exact round-trips.

Every file starts with '# key = value' comment lines recording the
configuration that produced it.  Floats are written with shortest
round-trip repr, so rereading a file reproduces the arrays bit for bit
and reruns produce byte-identical files.

Tables are written one block of ``_BLOCK_ROWS`` rows at a time, so a
write holds one block's text whatever the table's length.  A block is
formatted a column at a time (ints by ``str``, floats by ``repr``,
strings as they are) and joined row-wise.  A failed write leaves its
path as it was and no temp file.  The readers parse the whole body with
one ``np.loadtxt`` call, which converts each float field with
``PyOS_string_to_double``: the same correctly rounded conversion that
``float()`` uses, so a file written with ``repr`` reads back to the same
bits.  The readers return C-contiguous arrays, int64 for ``k``/``idx``
and float64 for the rest.
"""

from __future__ import annotations

import itertools
import os
import tempfile
import warnings
from dataclasses import fields
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import CsvFormatError
from .kernels import KernelSpec, PointSet, TrajectoryDataset, _slices, _time_indices
from .koopman import EstimateMode, KoopmanEstimate
from .linsys import SolveReport


def fmt(value) -> str:
    """Shortest round-trip decimal form of a float."""
    return repr(float(value))


def atomic_write_text(path, text: str | Iterable[str]) -> None:
    """Write a str, or an iterable of str chunks, via a sibling temp file and rename.

    Readers never see a partial file: if a write or the iterable raises, the
    temp file is removed and ``path`` keeps what it held.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.writelines([text] if isinstance(text, str) else text)
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


# rows per written block: a 6-column trajectory's write holds about 0.4 MiB at any length
_BLOCK_ROWS = 1024
# the cell formatter of each column kind: ints by ``str``, floats by ``repr``, strings as given
_FORMATS = {"i": str, "u": str, "f": repr, "U": str}


def _write_columns(path, header: Sequence[str], columns, params) -> None:
    columns = [np.asarray(column) for column in columns]
    for column in columns:  # checked before the temp file exists
        if column.dtype.kind not in _FORMATS:
            raise TypeError(f"cannot write a column of dtype {column.dtype}")
    # a multi-line config value (its lines joined by '\n') stays on its one comment line
    comments = "".join(f"# {k} = {v}".replace("\n", " ") + "\n" for k, v in (params or {}).items())
    n = min(map(len, columns), default=0)
    blocks = (_block([column[rows] for column in columns]) for rows in _slices(n, _BLOCK_ROWS))
    atomic_write_text(path, itertools.chain([comments + ",".join(header) + "\n"], blocks))


def _block(columns) -> str:
    """The text of one block of rows, formatted a column at a time and joined row-wise."""
    cells = [map(_FORMATS[column.dtype.kind], column.tolist()) for column in columns]
    return "".join([",".join(row) + "\n" for row in zip(*cells)])


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
