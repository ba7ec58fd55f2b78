"""Fuzz tests of the failure contract.

The library: every array- and number-valued argument of the public
functions, given an ill-typed value, either works or raises a
``KernelKoopError`` subclass, and emits no warning.  The one warning a
call may emit is ``edmd_fit``'s documented rank-deficiency
``RuntimeWarning``.  Out of scope are the record-typed arguments (a
non-``PointSet`` as seed centers or as the centers of a fit, a
non-config given to ``simulate``, a non-dataset given to a fit, objects
that are not frames, samples or estimates), file paths, and the per-step
scalar helpers ``pendulum_step`` and ``hamiltonian``.

The CLI: ``cli.main`` over random configs, every ``DEFAULTS`` key and all
six commands, exits 0, 2, 3 or 4; a failure prints exactly one ``error:``
line and creates no output directory; a success writes no non-finite
cell, except the documented ``separation = nan`` of a fit with one center
and ``cond = inf`` beside a ``lambda_min`` <= 0.

Marker files: with one to three cells of a good file replaced by a bad
one, removed or doubled, ``read_marker_csv`` returns frames or raises
``CsvFormatError``, and ``mocap`` exits 0, or 4 with one ``error:`` line
and no output directory.
"""

import contextlib
import io
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import synthetic_gait_frames, write_marker_csv
from kernelkoop import (
    CsvFormatError,
    KernelKoopError,
    KernelSpec,
    KoopmanEstimate,
    MarkerFrame,
    PendulumConfig,
    PlanarFrame,
    PointSet,
    TrajectoryDataset,
    cli,
    edmd_apply,
    edmd_fit,
    empirical_risk,
    eta_for_center_count,
    eval_kernel,
    extract_angles,
    fill_distance,
    fit_kinematics,
    fit_pullback,
    fit_umf,
    kernel_matrix,
    kernel_sections,
    nested_center_sets,
    observable_G,
    predict,
    project_sagittal,
    read_marker_csv,
    separation,
    simulate,
    solve_spd,
    spectral_diagnostics,
    subselect_centers,
)

FUZZ = settings(max_examples=40, deadline=None, database=None, derandomize=True)

_DS = simulate(PendulumConfig(steps=12))
_CENTERS = subselect_centers(_DS, 0.3)
_SPEC = KernelSpec("matern")
_EST = fit_pullback(_DS, _CENTERS, _SPEC)
_K = kernel_matrix(_SPEC, _CENTERS, _CENTERS)
_G = observable_G(_CENTERS.points)
_PSI = kernel_sections(_SPEC, _CENTERS, _DS.x)
_PSI_PLUS = kernel_sections(_SPEC, _CENTERS, _DS.x_next)
_OP = edmd_fit(_PSI, _PSI_PLUS, _CENTERS, _SPEC)
_FRAMES = synthetic_gait_frames(n_frames=24, n_cycles=1)
_FRAME = _FRAMES[0]
_SAMPLES = extract_angles(_FRAMES)
_LEG = ([0.0, 0.0], [0.0, -0.4], [0.1, -0.8])


def _dataset(**field):
    return TrajectoryDataset(
        **{"k": _DS.k, "x": _DS.x, "x_next": _DS.x_next, "y_next": _DS.y_next, **field}
    )


def _estimate(alpha):
    return KoopmanEstimate(
        _EST.mode, _EST.centers, _EST.advanced_centers, alpha, _SPEC, _EST.diagnostics
    )


# (entry point and argument, call with the value in that argument and valid values elsewhere)
_CALLS = {
    "PendulumConfig.x1_0": lambda v: PendulumConfig(x1_0=v),
    "PendulumConfig.x2_0": lambda v: PendulumConfig(x2_0=v),
    "PendulumConfig.h": lambda v: PendulumConfig(h=v),
    "PendulumConfig.steps": lambda v: PendulumConfig(steps=v),
    "observable_G.x": observable_G,
    "KernelSpec.family": lambda v: KernelSpec(v),
    "KernelSpec.beta": lambda v: KernelSpec("matern", beta=v),
    "KernelSpec.support_scale": lambda v: KernelSpec("wendland_c2", support_scale=v),
    "KernelSpec.distance_convention": lambda v: KernelSpec("matern", distance_convention=v),
    "PointSet.points": PointSet,
    "PointSet.indices": lambda v: PointSet(_CENTERS.points, indices=v),
    "TrajectoryDataset.k": lambda v: _dataset(k=v),
    "TrajectoryDataset.x": lambda v: _dataset(x=v),
    "TrajectoryDataset.x_next": lambda v: _dataset(x_next=v),
    "TrajectoryDataset.y_next": lambda v: _dataset(y_next=v),
    "eval_kernel.x": lambda v: eval_kernel(_SPEC, v, [0.0, 0.0]),
    "eval_kernel.y": lambda v: eval_kernel(_SPEC, [0.0, 0.0], v),
    "kernel_matrix.A": lambda v: kernel_matrix(_SPEC, v, _CENTERS),
    "kernel_matrix.B": lambda v: kernel_matrix(_SPEC, _CENTERS, v),
    "kernel_matrix.gram": lambda v: kernel_matrix(_SPEC, v, v),
    "subselect_centers.trajectory": lambda v: subselect_centers(v, 0.3),
    "subselect_centers.eta": lambda v: subselect_centers(_DS, v),
    "nested_center_sets.trajectory": lambda v: nested_center_sets(v, [0.6, 0.3]),
    "nested_center_sets.etas": lambda v: nested_center_sets(_DS, v),
    "fill_distance.centers": lambda v: fill_distance(v, _DS),
    "fill_distance.reference": lambda v: fill_distance(_CENTERS, v),
    "separation.centers": separation,
    "eta_for_center_count.trajectory": lambda v: eta_for_center_count(v, 2),
    "eta_for_center_count.count": lambda v: eta_for_center_count(_DS, v),
    "solve_spd.K": lambda v: solve_spd(v, _G),
    "solve_spd.rhs": lambda v: solve_spd(_K, v),
    "solve_spd.jitter_policy": lambda v: solve_spd(_K, _G, jitter_policy=v),
    "solve_spd.diagnostics": lambda v: solve_spd(_K, _G, diagnostics=v),
    "spectral_diagnostics.K": spectral_diagnostics,
    "fit_pullback.jitter_policy": lambda v: fit_pullback(_DS, _CENTERS, _SPEC, jitter_policy=v),
    "fit_pullback.diagnostics": lambda v: fit_pullback(_DS, _CENTERS, _SPEC, diagnostics=v),
    "fit_umf.g_at_centers": lambda v: fit_umf(_DS, _CENTERS, _SPEC, v),
    "fit_umf.jitter_policy": lambda v: fit_umf(_DS, _CENTERS, _SPEC, _G, jitter_policy=v),
    "fit_umf.diagnostics": lambda v: fit_umf(_DS, _CENTERS, _SPEC, _G, diagnostics=v),
    "predict.x": lambda v: predict(_EST, v),
    "KoopmanEstimate.alpha": _estimate,
    "empirical_risk.targets": lambda v: empirical_risk(v, [1.0, 2.0]),
    "empirical_risk.predictions": lambda v: empirical_risk([1.0, 2.0], v),
    "kernel_sections.points": lambda v: kernel_sections(_SPEC, _CENTERS, v),
    "edmd_fit.psi_x": lambda v: edmd_fit(v, _PSI_PLUS),
    "edmd_fit.psi_x_plus": lambda v: edmd_fit(_PSI, v),
    "edmd_apply.g_coeffs": lambda v: edmd_apply(_OP, v, [0.0, 0.0]),
    "edmd_apply.x": lambda v: edmd_apply(_OP, np.ones(len(_CENTERS)), v),
    "MarkerFrame.t": lambda v: MarkerFrame(v, _FRAME.hip, _FRAME.knee, _FRAME.ankle),
    "MarkerFrame.hip": lambda v: MarkerFrame(0, v, _FRAME.knee, _FRAME.ankle),
    "MarkerFrame.knee": lambda v: MarkerFrame(0, _FRAME.hip, v, _FRAME.ankle),
    "MarkerFrame.ankle": lambda v: MarkerFrame(0, _FRAME.hip, _FRAME.knee, v),
    "PlanarFrame.t": lambda v: PlanarFrame(v, *_LEG),
    "PlanarFrame.hip": lambda v: PlanarFrame(0, v, *_LEG[1:]),
    "project_sagittal.plane_axes": lambda v: project_sagittal(_FRAME, plane_axes=v),
    "extract_angles.plane_axes": lambda v: extract_angles(_FRAMES, plane_axes=v),
    "fit_kinematics.eta": lambda v: fit_kinematics(_SAMPLES, v, _SPEC),
}

# ill-typed values: text, complex, non-finite, out of range, ragged, of the wrong rank
_POOL = [
    "a",
    ["a", "b"],
    np.array(["x", "z"]),
    1 + 2j,
    np.array([1 + 2j, 0j]),
    None,
    True,
    math.nan,
    -math.inf,
    [math.nan, 0.0],
    -1,
    0,
    10**400,
    [[1.0], [1.0, 2.0]],
    [],
    np.zeros((2, 2, 2)),
    np.array([0.5, 0.25]),
    np.array([0.5]),
    {},
]

_VALUES = st.one_of(
    st.sampled_from(_POOL),
    st.integers(),
    st.floats(),
    st.complex_numbers(),
    st.text("ax1.e-", max_size=4),  # an explicit alphabet: the default one costs seconds to build
    st.lists(st.floats(), max_size=4),
    st.lists(st.lists(st.floats(), min_size=2, max_size=2), max_size=4),
)


def _escapes(value) -> dict[str, str]:
    """Each entry point whose call with ``value`` raised outside the contract or warned."""
    found = {}
    for name, call in _CALLS.items():
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                call(value)
            except KernelKoopError:
                pass
            except Exception as exc:  # noqa: BLE001 - what escapes is the finding
                found[name] = f"{type(exc).__name__}: {exc}"
        # every warning is recorded, whatever its class: numpy 1.x has no
        # np.exceptions.ComplexWarning to name
        caught = [
            w for w in caught
            if not (name.startswith("edmd_fit") and w.category is RuntimeWarning
                    and "basis evaluation matrix has rank" in str(w.message))
        ]
        if caught:
            found[name] = f"{caught[0].category.__name__}: {caught[0].message}"
    return found


def _with_examples(values):
    def decorate(test):
        for v in values:
            test = example(v)(test)
        return test
    return decorate


@FUZZ
@given(_VALUES)
@_with_examples(_POOL)
def test_public_arguments_keep_the_failure_contract(value):
    assert _escapes(value) == {}


# edge strings for every config key: non-finite, out of range, subnormal, Python-only integer
# spellings, other scripts' digits, empty; no valid size above a few hundred
_CONFIG_VALUES = [
    "nan", "inf", "-inf", "1e400", "-1e400", "1e-309", "5e-324", "1_0", "١", "", ",", "0", "-1",
    "1", "2", "0.5", "0.2", "1e-8", "300", "abc", "none", "auto", "x", "Z", "wendland_c4",
    "matern:0.5", "matern:nan", "1.2, 0.6", "0.4 0.8", "100000000000000000000",
]
_KEYS = [(section, key) for section, values in cli.DEFAULTS.items() for key in values]
_COMMANDS = ["simulate", "fit", "convergence", "conditioning", "mineig", "mocap"]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A default trajectory and a marker file, and a directory for each run's config and output."""
    root = tmp_path_factory.mktemp("cli_fuzz")
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["--out", str(root), "simulate"]) == 0
    write_marker_csv(root / "markers.csv", synthetic_gait_frames(n_frames=60, n_cycles=1))
    return root


def _non_finite_cells(out):
    """(file, column, cell) of each non-finite number in the bodies of the CSV files in out."""
    found = []
    for path in sorted(out.iterdir()):
        lines = [line for line in path.read_text("utf-8").splitlines() if not line.startswith("#")]
        header = lines[0].split(",")
        for row in lines[1:]:
            cells = dict(zip(header, row.split(",")))
            for column, cell in cells.items():
                try:
                    finite = math.isfinite(float(cell))
                except ValueError:  # a label, such as a kernel's
                    continue
                # documented: one center has no pair, so its separation is nan; a matrix
                # whose computed smallest eigenvalue is <= 0 has an infinite condition number
                one_center = column == "separation" and cells["M"] == "1"
                singular = column == "cond" and cell == "inf" and float(cells["lambda_min"]) <= 0
                if not (finite or one_center or singular):
                    found.append((path.name, column, cell))
    return found


@FUZZ
@given(
    st.sampled_from(_COMMANDS),
    st.dictionaries(st.sampled_from(_KEYS), st.sampled_from(_CONFIG_VALUES), max_size=4),
)
@example(command="simulate", overrides={("dynamics", "steps"): "100000000000000000000"})
@example(command="fit", overrides={("fit", "eta"): "4"})  # one center: separation = nan
def test_cli_keeps_the_failure_contract(inputs, command, overrides):
    run = Path(tempfile.mkdtemp(dir=inputs))
    config = run / "config.ini"
    sections = {}
    for (section, key), value in overrides.items():
        sections.setdefault(section, []).append(f"{key} = {value}")
    config.write_text("".join(f"[{s}]\n" + "\n".join(v) + "\n" for s, v in sections.items()), "utf-8")
    trajectory = ["--trajectory", str(inputs / "trajectory.csv")]
    options = {"fit": trajectory, "convergence": trajectory}
    options["mocap"] = ["--markers", str(inputs / "markers.csv")]
    argv = ["--config", str(config), "--out", str(run / "out"), command, *options.get(command, [])]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    errors = [line for line in err.getvalue().splitlines() if line.startswith("error:")]
    assert code in (0, 2, 3, 4)
    if code:
        assert len(errors) == 1 and not (run / "out").exists(), err.getvalue()
    else:
        assert not errors
        assert _non_finite_cells(run / "out") == []


# text, empty, non-finite, overflowing, underscored, and as t fractional or past int64;
# None removes the cell and "+" doubles it
_MARKER_CELLS = ["abc", "", "nan", "inf", "-inf", "1e400", "1_0", "0.5", "9223372036854775808",
                 None, "+"]


@FUZZ
@given(st.lists(
    st.tuples(st.integers(1, 60), st.integers(0, 9), st.sampled_from(_MARKER_CELLS)),
    min_size=1, max_size=3, unique_by=lambda edit: edit[0],
))
@example(edits=[(5, 0, "0.5")])  # a fractional frame index
@example(edits=[(5, 3, None), (9, 9, "+")])  # a short row and a long one
def test_marker_files_keep_the_failure_contract(inputs, edits):
    lines = (inputs / "markers.csv").read_text("utf-8").splitlines()
    for row, col, cell in edits:
        cells = lines[row].split(",")
        if cell is None:
            del cells[col]
        elif cell == "+":
            cells.insert(col, cells[col])
        else:
            cells[col] = cell
        lines[row] = ",".join(cells)
    run = Path(tempfile.mkdtemp(dir=inputs))
    markers = run / "markers.csv"
    markers.write_text("\n".join(lines) + "\n", "utf-8")
    try:
        frames = read_marker_csv(markers)
    except CsvFormatError:
        frames = None
    else:
        assert isinstance(frames, MarkerFrame)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(["--out", str(run / "out"), "mocap", "--markers", str(markers)])
    errors = [line for line in err.getvalue().splitlines() if line.startswith("error:")]
    assert code == (4 if frames is None else 0), err.getvalue()
    assert len(errors) == (1 if code else 0) and (run / "out").exists() == (not code)
