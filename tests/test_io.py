import warnings

import numpy as np
import pytest

from kernelkoop import (
    CsvFormatError,
    KernelSpec,
    PendulumConfig,
    PointSet,
    fit_pullback,
    simulate,
    subselect_centers,
)
from kernelkoop.io import (
    atomic_write_text,
    read_estimate_csv,
    read_pointset_csv,
    read_trajectory_csv,
    write_estimate_csv,
    write_pointset_csv,
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


def test_estimate_round_trip_exact(tmp_path):
    ds = simulate(PendulumConfig(steps=60))
    centers = subselect_centers(ds, 0.5)
    kernel = KernelSpec("wendland_c4", support_scale=1.5)
    est = fit_pullback(ds, centers, kernel)
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
