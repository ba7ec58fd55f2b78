"""Behaviour lock: every artifact of the six default CLI commands against golden values.

The goldens in ``tests/golden/`` are the artifacts themselves, written by
the CLI with its default configuration (``mocap`` reads the 240-frame
synthetic gait of ``conftest.synthetic_gait_frames``).  Comments, header
and rows are compared cell by cell: integer and string cells exactly,
float cells at a relative tolerance of 1e-12.  The two 60x60 surfaces are
locked on a fixed subset of rows that meets every grid row and every grid
column twice; their goldens carry the original row number in a leading
``row`` column.

After a change that is meant to alter an artifact, regenerate the goldens
with ``PYTHONPATH=src python tests/test_behaviour_lock.py`` and say in the
change which bytes moved and why.
"""

import math
from pathlib import Path

import pytest

from conftest import synthetic_gait_frames, write_marker_csv
from kernelkoop.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
RTOL = 1e-12
GRID_N = 60
SURFACES = ("fit_surface.csv", "mocap_surface.csv")
ARTIFACTS = (
    "trajectory.csv",
    "estimate.csv",
    "fit_surface.csv",
    "fit_diagnostics.csv",
    "convergence.csv",
    "conditioning.csv",
    "mineig.csv",
    "mocap_angles.csv",
    "mocap_estimate_g1.csv",
    "mocap_estimate_g2.csv",
    "mocap_surface.csv",
    "mocap_diagnostics.csv",
)
# grid point (i, (a*i) % 60) for a coprime to 60 visits every grid row and column once
SURFACE_ROWS = sorted({i * GRID_N + (a * i) % GRID_N for a in (7, 13) for i in range(GRID_N)})


def run_default_commands(out: Path) -> None:
    markers = out / "markers.csv"
    write_marker_csv(markers, synthetic_gait_frames())
    for command in ("simulate", "fit", "convergence", "conditioning", "mineig"):
        assert main(["--out", str(out), command]) == 0, command
    assert main(["--out", str(out), "mocap", "--markers", str(markers)]) == 0


def read_table(path: Path):
    """(comment pairs, header, rows) of a CSV artifact, all cells as strings."""
    comments, header, rows = [], None, []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].partition("=")
            comments.append((key.strip(), value.strip()))
        elif header is None:
            header = line.split(",")
        elif line:
            rows.append(line.split(","))
    return comments, header, rows


def locked_table(path: Path):
    """The part of an artifact the lock compares, in the goldens' layout."""
    comments, header, rows = read_table(path)
    if path.name in SURFACES:
        assert len(rows) == GRID_N * GRID_N
        header = ["row"] + header
        rows = [[str(i)] + rows[i] for i in SURFACE_ROWS]
    return comments, header, rows


def cells_match(got: str, want: str) -> bool:
    if got == want:
        return True
    try:
        int(want)
        return False  # integer cells compare exactly
    except ValueError:
        pass
    try:
        a, b = float(got), float(want)
    except ValueError:
        return False  # string cells compare exactly
    return math.isclose(a, b, rel_tol=RTOL, abs_tol=0.0)


def _kept(new: str, old: str | None) -> str:
    return old if old is not None and cells_match(new, old) else new


def write_goldens(out: Path) -> None:
    """Write the goldens from the artifacts in ``out``.

    Each old cell that the lock accepts for its new value is kept, comment
    values by key and rows by position, so last-digit differences between
    machines rewrite no golden.
    """
    GOLDEN.mkdir(exist_ok=True)
    for name in ARTIFACTS:
        comments, header, rows = locked_table(out / name)
        old_comments, old_header, old_rows = [], None, []
        if (GOLDEN / name).exists():
            old_comments, old_header, old_rows = read_table(GOLDEN / name)
        old = dict(old_comments)
        comments = [(key, _kept(value, old.get(key))) for key, value in comments]
        if header == old_header:
            rows = [
                [_kept(cell, was) for cell, was in zip(row, old_rows[i])]
                if i < len(old_rows) and len(old_rows[i]) == len(row) else row
                for i, row in enumerate(rows)
            ]
        lines = [f"# {key} = {value}" for key, value in comments]
        lines += [",".join(header)] + [",".join(row) for row in rows]
        (GOLDEN / name).write_text("\n".join(lines) + "\n")


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    out = tmp_path_factory.mktemp("lock")
    run_default_commands(out)
    return out


def test_commands_write_exactly_the_locked_artifacts(artifacts):
    written = {p.name for p in artifacts.glob("*.csv")} - {"markers.csv"}
    assert written == set(ARTIFACTS)
    assert {p.name for p in GOLDEN.glob("*.csv")} == set(ARTIFACTS)


@pytest.mark.parametrize("name", ARTIFACTS)
def test_artifact_matches_golden(artifacts, name):
    got_comments, got_header, got_rows = locked_table(artifacts / name)
    want_comments, want_header, want_rows = read_table(GOLDEN / name)
    assert got_header == want_header
    assert [k for k, _ in got_comments] == [k for k, _ in want_comments]
    for (key, got), (_, want) in zip(got_comments, want_comments):
        assert cells_match(got, want), f"comment {key}: {got} != {want}"
    assert len(got_rows) == len(want_rows)
    for i, (got_row, want_row) in enumerate(zip(got_rows, want_rows)):
        assert len(got_row) == len(want_row), f"row {i}"
        for col, got, want in zip(want_header, got_row, want_row):
            assert cells_match(got, want), f"row {i}, column {col}: {got} != {want}"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        run_default_commands(Path(tmp))
        write_goldens(Path(tmp))
    print(f"wrote {len(ARTIFACTS)} goldens to {GOLDEN}")
