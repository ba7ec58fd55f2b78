import os
import tracemalloc
import warnings

import numpy as np
import pytest
from conftest import reference_csv

from kernelkoop import (
    CsvFormatError,
    KernelSpec,
    PendulumConfig,
    PointSet,
    TrajectoryDataset,
    fit_pullback,
    simulate,
    subselect_centers,
)
from kernelkoop import io as kio
from kernelkoop.io import (
    atomic_write_text,
    read_estimate_csv,
    read_pointset_csv,
    read_trajectory_csv,
    write_estimate_csv,
    write_pointset_csv,
    write_rows_csv,
    write_trajectory_csv,
)


def test_trajectory_round_trip_exact(tmp_path):
    ds = simulate(PendulumConfig(steps=40))
    path = tmp_path / "traj.csv"
    write_trajectory_csv(path, ds, {"dynamics.h": "0.1"})
    back = read_trajectory_csv(path)
    assert np.array_equal(back.k, ds.k)
    assert np.array_equal(back.x, ds.x)
    assert np.array_equal(back.x_next, ds.x_next)
    assert np.array_equal(back.y_next, ds.y_next)
    assert path.read_text().startswith("# dynamics.h = 0.1\n")


def test_trajectory_header_matches_contract(tmp_path):
    ds = simulate(PendulumConfig(steps=3))
    path = tmp_path / "traj.csv"
    write_trajectory_csv(path, ds)
    header = [l for l in path.read_text().splitlines() if not l.startswith("#")][0]
    assert header == "k,x1,x2,x1_next,x2_next,y_next"


def test_pointset_round_trip_exact(tmp_path):
    rng = np.random.default_rng(2)
    ps = PointSet(rng.normal(size=(9, 3)), indices=np.arange(10, 19))
    path = tmp_path / "points.csv"
    write_pointset_csv(path, ps)
    back = read_pointset_csv(path)
    assert np.array_equal(back.points, ps.points)
    assert np.array_equal(back.indices, ps.indices)


def test_unindexed_points_are_numbered_by_position(tmp_path):
    points = np.array([[0.0], [0.3], [0.7], [1.5]])
    for trajectory in (points, PointSet(points)):
        assert subselect_centers(trajectory, 0.5).indices.tolist() == [0, 2, 3]
    indexed = PointSet(points, indices=[-4, 10, 11, 30])
    assert subselect_centers(indexed, 0.5).indices.tolist() == [-4, 11, 30]
    path = tmp_path / "points.csv"
    write_pointset_csv(path, PointSet(points))
    assert read_pointset_csv(path).indices.tolist() == [0, 1, 2, 3]
    assert path.read_text().splitlines()[1:3] == ["0,0.0", "1,0.3"]


def test_estimate_round_trip_exact(tmp_path):
    ds = simulate(PendulumConfig(steps=60))
    centers = subselect_centers(ds, 0.5)
    kernel = KernelSpec("wendland_c4", support_scale=1.5)
    est = fit_pullback(ds, centers, kernel, diagnostics="exact")
    path = tmp_path / "estimate.csv"
    write_estimate_csv(path, est)
    back = read_estimate_csv(path)
    assert back.mode == est.mode
    assert back.kernel == est.kernel
    assert np.array_equal(back.alpha, est.alpha)
    assert np.array_equal(back.centers.points, est.centers.points)
    assert np.array_equal(back.centers.indices, est.centers.indices)
    assert np.array_equal(back.advanced_centers.points, est.advanced_centers.points)
    assert back.diagnostics.condition_number == est.diagnostics.condition_number
    assert back.diagnostics.jitter_used == est.diagnostics.jitter_used



def test_estimate_of_a_default_fit_round_trips_its_nan_diagnostics(tmp_path):
    ds = simulate(PendulumConfig(steps=60))
    est = fit_pullback(ds, subselect_centers(ds, 0.5), KernelSpec("matern_sobolev32"))
    path = tmp_path / "estimate.csv"
    write_estimate_csv(path, est)
    assert "# condition_number = nan\n# min_eigenvalue = nan\n" in path.read_text()
    back = read_estimate_csv(path)
    names = ("condition_number", "min_eigenvalue", "jitter_used")
    written = [getattr(est.diagnostics, name) for name in names]
    assert np.isnan(written[:2]).all()
    assert np.array_equal([getattr(back.diagnostics, name) for name in names], written, equal_nan=True)
    assert np.array_equal(back.alpha, est.alpha)


def test_writes_are_deterministic(tmp_path):
    ds = simulate(PendulumConfig(steps=25))
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    write_trajectory_csv(a, ds, {"command": "simulate"})
    write_trajectory_csv(b, ds, {"command": "simulate"})
    assert a.read_bytes() == b.read_bytes()


def test_atomic_write_replaces_and_leaves_no_temp(tmp_path):
    target = tmp_path / "file.txt"
    atomic_write_text(target, "first")
    atomic_write_text(target, "second")
    assert target.read_text() == "second"
    assert [p.name for p in tmp_path.iterdir()] == ["file.txt"]


def test_read_rejects_malformed_files(tmp_path):
    path = tmp_path / "junk.csv"
    path.write_text("# only = comments\n")
    with pytest.raises(CsvFormatError):
        read_trajectory_csv(path)
    path.write_text("k,x1,x1_next,y_next\n0,bad,0.1,1.0\n")
    with pytest.raises(CsvFormatError):
        read_trajectory_csv(path)
    path.write_text("idx,x1\n")
    with pytest.raises(CsvFormatError):
        read_pointset_csv(path)
    ds = simulate(PendulumConfig(steps=30))
    write_estimate_csv(path, fit_pullback(ds, subselect_centers(ds, 0.5), KernelSpec("matern")))
    lines = path.read_text().splitlines(True)
    for key, value in [("mode", "bogus"), ("condition_number", "high"), ("kernel.family", "gaussian")]:
        path.write_text("".join(
            f"# {key} = {value}\n" if line.startswith(f"# {key} =") else line for line in lines
        ))
        with pytest.raises(CsvFormatError, match=f"junk.csv: bad comment .*{value}"):
            read_estimate_csv(path)


BAD_TRAJECTORY_ROWS = {
    "extra-cell": "0,0.1,0.2,1.0,999",
    "missing-cell": "0,0.1,0.2",
    "empty-cell": "0,0.1,,1.0",
    "non-integer-k": "1.0,0.1,0.2,1.0",
}


@pytest.mark.parametrize("row", BAD_TRAJECTORY_ROWS.values(), ids=BAD_TRAJECTORY_ROWS.keys())
def test_read_trajectory_rejects_a_malformed_row(tmp_path, row):
    path = tmp_path / "traj.csv"
    path.write_text(f"# command = simulate\nk,x1,x1_next,y_next\n1,0.3,0.4,2.0\n{row}\n")
    with pytest.raises(CsvFormatError, match="traj.csv"):
        read_trajectory_csv(path)


def test_read_rejects_rows_wider_than_the_header(tmp_path):
    path = tmp_path / "points.csv"
    path.write_text("idx,x1\n0,0.5,0.7\n1,0.6,0.8\n")
    with pytest.raises(CsvFormatError):
        read_pointset_csv(path)
    ds = simulate(PendulumConfig(steps=30))
    est = fit_pullback(ds, subselect_centers(ds, 0.5), KernelSpec("matern_sobolev32"))
    path = tmp_path / "estimate.csv"
    write_estimate_csv(path, est)
    lines = path.read_text().splitlines()
    body_start = next(i for i, line in enumerate(lines) if line.startswith("idx")) + 1
    path.write_text("\n".join(lines[:body_start] + [f"{r},0.5" for r in lines[body_start:]]) + "\n")
    with pytest.raises(CsvFormatError):
        read_estimate_csv(path)


def test_read_skips_blank_lines_and_reads_a_header_without_rows_as_empty(tmp_path):
    path = tmp_path / "traj.csv"
    path.write_text("# a = 1\n\nk,x1,x1_next,y_next\n\n0,0.1,0.2,1.0\n  \n1,0.3,0.4,2.0\n")
    assert read_trajectory_csv(path).k.tolist() == [0, 1]
    path.write_text("k,x1,x1_next,y_next\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(CsvFormatError, match="no trajectory records"):
            read_trajectory_csv(path)


def test_readers_return_c_contiguous_arrays(tmp_path):
    ds = simulate(PendulumConfig(steps=40))
    write_trajectory_csv(tmp_path / "traj.csv", ds)
    back = read_trajectory_csv(tmp_path / "traj.csv")
    est = fit_pullback(ds, subselect_centers(ds, 0.5), KernelSpec("matern_sobolev32"))
    write_estimate_csv(tmp_path / "estimate.csv", est)
    fitted = read_estimate_csv(tmp_path / "estimate.csv")
    arrays = {
        "k": back.k,
        "x": back.x,
        "x_next": back.x_next,
        "y_next": back.y_next,
        "idx": fitted.centers.indices,
        "advanced idx": fitted.advanced_centers.indices,
        "centers": fitted.centers.points,
        "advanced": fitted.advanced_centers.points,
        "alpha": fitted.alpha,
        "coefficients": fitted.diagnostics.coefficients,
    }
    for name, array in arrays.items():
        assert array.flags.c_contiguous, name
        assert array.dtype == (np.int64 if "idx" in name or name == "k" else np.float64), name


def _written_files(tmp_path):
    """A trajectory, a point set and an estimate as the package writes them, by file name."""
    ds = simulate(PendulumConfig(steps=30))
    est = fit_pullback(ds, subselect_centers(ds, 0.5), KernelSpec("matern_sobolev32"))
    write_trajectory_csv(tmp_path / "trajectory.csv", ds)
    write_pointset_csv(tmp_path / "points.csv", est.centers)
    write_estimate_csv(tmp_path / "estimate.csv", est)
    return {name: tmp_path / name for name in ("trajectory.csv", "points.csv", "estimate.csv")}


def _rewrite_columns(path, header):
    """Rewrite a CSV with the columns named in ``header``, cells moved with their names.

    A name the file lacks becomes a new column of zeros.
    """
    lines = path.read_text().splitlines()
    start = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    old = lines[start].split(",")
    rows = [dict(zip(old, line.split(","))) for line in lines[start + 1 :]]
    body = [",".join(row.get(name, "0.0") for name in header) for row in rows]
    path.write_text("\n".join(lines[:start] + [",".join(header)] + body) + "\n")


REARRANGED_COLUMNS = {
    "trajectory-swapped-next-states": ("trajectory.csv", "k,x1,x2,x2_next,x1_next,y_next"),
    "trajectory-swapped-states": ("trajectory.csv", "k,x2,x1,x1_next,x2_next,y_next"),
    "trajectory-output-first": ("trajectory.csv", "k,y_next,x1,x2,x1_next,x2_next"),
    "trajectory-extra-column": ("trajectory.csv", "k,x1,x2,x1_next,x2_next,y_next,extra"),
    "points-swapped": ("points.csv", "idx,x2,x1"),
    "points-extra-column": ("points.csv", "idx,x1,x2,extra"),
    "points-no-coordinates": ("points.csv", "idx"),
    "estimate-alpha-first": ("estimate.csv", "idx,alpha1,c1,c2,a1,a2"),
    "estimate-swapped-blocks": ("estimate.csv", "idx,a1,a2,c1,c2,alpha1"),
    "estimate-swapped-centers": ("estimate.csv", "idx,c2,c1,a1,a2,alpha1"),
    "estimate-extra-column": ("estimate.csv", "idx,c1,c2,a1,a2,alpha1,extra"),
}
READERS = {
    "trajectory.csv": read_trajectory_csv,
    "points.csv": read_pointset_csv,
    "estimate.csv": read_estimate_csv,
}


@pytest.mark.parametrize("name, header", REARRANGED_COLUMNS.values(), ids=REARRANGED_COLUMNS)
def test_readers_reject_rearranged_or_extra_columns(tmp_path, name, header):
    path = _written_files(tmp_path)[name]
    READERS[name](path)
    _rewrite_columns(path, header.split(","))
    with pytest.raises(CsvFormatError, match=f"{name}: unrecognized .* header"):
        READERS[name](path)


ESTIMATE_COMMENTS = [
    "mode",
    "kernel.family",
    "kernel.beta",
    "kernel.support_scale",
    "kernel.distance_convention",
    "condition_number",
    "min_eigenvalue",
    "jitter_used",
]


def test_estimate_writer_emits_exactly_the_required_comments(tmp_path):
    lines = _written_files(tmp_path)["estimate.csv"].read_text().splitlines()
    keys = [line[2:].partition(" = ")[0] for line in lines if line.startswith("#")]
    assert keys == ESTIMATE_COMMENTS


@pytest.mark.parametrize("key", ESTIMATE_COMMENTS)
def test_read_estimate_requires_every_comment(tmp_path, key):
    path = _written_files(tmp_path)["estimate.csv"]
    lines = path.read_text().splitlines(True)
    path.write_text("".join(line for line in lines if not line.startswith(f"# {key} =")))
    with pytest.raises(CsvFormatError, match=f"estimate.csv: missing '{key}'"):
        read_estimate_csv(path)


def test_multi_line_comment_values_are_written_on_one_line(tmp_path):
    ds = simulate(PendulumConfig(steps=3))
    path = tmp_path / "traj.csv"
    write_trajectory_csv(path, ds, {"etas": "1.8, 1.2,\n0.8, 0.55", "steps": 3})
    assert path.read_text().startswith("# etas = 1.8, 1.2, 0.8, 0.55\n# steps = 3\nk,")
    assert read_trajectory_csv(path).k.tolist() == [0, 1, 2]


@pytest.mark.parametrize("cleanup_fails", [False, True], ids=["temp-removed", "cleanup-fails"])
def test_failed_atomic_write_raises_its_own_error(tmp_path, monkeypatch, cleanup_fails):
    if cleanup_fails:
        def unlink(path):
            raise FileNotFoundError(path)

        monkeypatch.setattr(os, "unlink", unlink)
    with pytest.raises(UnicodeEncodeError) as err:
        atomic_write_text(tmp_path / "out.csv", "bad \ud800\n")
    assert str(err.value) == (
        "'utf-8' codec can't encode character '\\ud800' in position 4: surrogates not allowed"
    )
    # the temp file goes unless removing it failed too; the target is never written
    assert len(list(tmp_path.iterdir())) == int(cleanup_fails)
    assert not (tmp_path / "out.csv").exists()


def _header_only_estimate(path):
    path.write_text("# mode = pullback\nidx,c1,c2,a1,a2,alpha1\n")
    return read_estimate_csv(path)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (
            lambda path: write_rows_csv(path, ["ok"], np.array([[True]])),
            TypeError,
            "cannot write a column of dtype bool",
        ),
        (_header_only_estimate, CsvFormatError, "{path}: estimate file has no centers"),
    ],
    ids=["column-dtype", "estimate-without-centers"],
)
def test_io_errors(tmp_path, call, error, message):
    path = tmp_path / "table.csv"
    with pytest.raises(error) as err:
        call(path)
    assert str(err.value) == message.format(path=path)


BLOCK = kio._BLOCK_ROWS
MiB = 1 << 20


def _table(n):
    """n rows of a string, an int and two float columns, with NaN, ±inf and −0.0 at the block edges."""
    rng = np.random.default_rng(n)
    labels = rng.choice(["", "a", "matern(1.0)", "nan"], n)
    ints = rng.integers(-2**63, 2**63 - 1, n)
    floats = rng.standard_normal((n, 2)) * 10.0 ** rng.integers(-300, 300, (n, 2))
    for row in {0, BLOCK - 1, BLOCK, n - 1} & set(range(n)):
        floats[row] = rng.choice([np.nan, np.inf, -np.inf, -0.0], 2)
    return labels, ints, floats


@pytest.mark.parametrize("n", [k * BLOCK + e for k in (1, 2) for e in (-1, 0, 1)])
def test_block_writer_equals_the_one_shot_writer_at_block_edges(tmp_path, n):
    labels, ints, floats = _table(n)
    path = tmp_path / "table.csv"
    header = ["label", "n", "u", "v"]
    rows = [[s, int(i), *f] for s, i, f in zip(labels.tolist(), ints, floats.tolist())]
    params = {"command": "t", "etas": "1.8,\n0.8"}
    write_rows_csv(path, header, rows, params)
    assert path.read_bytes() == reference_csv(header, list(zip(*rows)), params).encode()
    write_rows_csv(path, ["u", "v"], floats)
    assert path.read_bytes() == reference_csv(["u", "v"], floats.T).encode()
    finite = np.nan_to_num(floats)  # −0.0 and the largest floats stay
    ds = TrajectoryDataset(k=ints, x=finite, x_next=finite[::-1], y_next=finite[:, 1])
    write_trajectory_csv(path, ds)
    columns = [ds.k, *ds.x.T, *ds.x_next.T, *ds.y_next.T]
    assert path.read_bytes() == reference_csv(kio._trajectory_header(2, 1), columns).encode()


def test_a_header_without_rows_is_written_alone(tmp_path):
    path = tmp_path / "table.csv"
    write_rows_csv(path, ["a", "b"], [], {"command": "t"})
    assert path.read_bytes() == reference_csv(["a", "b"], [], {"command": "t"}).encode()
    assert path.read_text() == "# command = t\na,b\n"
    write_rows_csv(path, ["u", "v"], np.empty((0, 2)))
    assert path.read_text() == reference_csv(["u", "v"], np.empty((2, 0))) == "u,v\n"


def _failing_chunks():
    yield "k,x1\n"
    yield "0,1.0\n" * 10000  # past the file's buffer, so bytes reach the temp file
    raise RuntimeError("chunk failed")


@pytest.mark.parametrize("old", [None, b"old bytes\n"], ids=["new-path", "existing-file"])
def test_a_failing_chunk_leaves_the_path_as_it_was(tmp_path, old):
    path = tmp_path / "out.csv"
    if old is not None:
        path.write_bytes(old)
    with pytest.raises(RuntimeError, match="chunk failed"):
        atomic_write_text(path, _failing_chunks())
    assert [p.name for p in tmp_path.iterdir()] == ([] if old is None else ["out.csv"])
    if old is not None:
        assert path.read_bytes() == old


def test_column_kinds_are_checked_before_any_file_is_opened(tmp_path, monkeypatch):
    opened = []
    monkeypatch.setattr(kio, "atomic_write_text", lambda path, text: opened.append(path))
    with pytest.raises(TypeError, match="cannot write a column of dtype bool"):
        write_rows_csv(tmp_path / "t.csv", ["n", "ok"], [[1, True], [2, False]])
    assert opened == []


def test_a_trajectory_writes_peak_memory_does_not_grow_with_its_length(tmp_path):
    peaks = []
    for steps in (20000, 60000):
        ds = simulate(PendulumConfig(steps=steps))
        tracemalloc.start()
        try:
            write_trajectory_csv(tmp_path / "traj.csv", ds, {"command": "simulate"})
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks) < 2 * MiB, peaks
    assert abs(peaks[1] - peaks[0]) < 1 * MiB, peaks
