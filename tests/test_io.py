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
