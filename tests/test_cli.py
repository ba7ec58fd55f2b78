import numpy as np
import pytest
from scipy.spatial.distance import cdist

from conftest import synthetic_gait_frames, write_marker_csv
from kernelkoop import cli, subselect_centers
from kernelkoop import io as kio
from kernelkoop.cli import ETA_37_CENTERS, main
from kernelkoop.io import read_estimate_csv, read_trajectory_csv


def _read_table(path):
    comments = {}
    rows = []
    header = None
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].partition("=")
            comments[key.strip()] = value.strip()
        elif header is None:
            header = line.split(",")
        elif line:
            rows.append(line.split(","))
    return comments, header, rows


def test_simulate_writes_trajectory(tmp_path):
    assert main(["--out", str(tmp_path), "simulate"]) == 0
    ds = read_trajectory_csv(tmp_path / "trajectory.csv")
    assert len(ds) == 256
    comments, _, _ = _read_table(tmp_path / "trajectory.csv")
    assert comments["dynamics.h"] == "0.1"


def test_simulate_single_step_equilibrium(tmp_path):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text("[dynamics]\nx2_0 = 0.0\nsteps = 1\n")
    assert main(["--config", str(cfg), "--out", str(tmp_path), "simulate"]) == 0
    _, header, rows = _read_table(tmp_path / "trajectory.csv")
    assert len(rows) == 1
    assert float(rows[0][header.index("y_next")]) == 1.5


def test_rerun_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["--out", str(out), "simulate"]) == 0
        assert main(["--out", str(out), "fit"]) == 0
    for name in ("trajectory.csv", "estimate.csv", "fit_surface.csv", "fit_diagnostics.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_fit_default_reproduces_37_centers(tmp_path):
    assert main(["--out", str(tmp_path), "simulate"]) == 0
    assert main(["--out", str(tmp_path), "fit"]) == 0
    est = read_estimate_csv(tmp_path / "estimate.csv")
    assert len(est.centers) == 37
    _, header, rows = _read_table(tmp_path / "fit_diagnostics.csv")
    assert int(rows[0][header.index("M")]) == 37


def test_fit_beta_sweep_grids_finite(tmp_path):
    assert main(["--out", str(tmp_path), "simulate"]) == 0
    for beta in (5.0, 1.0, 0.5, 0.2):
        out = tmp_path / f"beta_{beta}"
        cfg = tmp_path / f"beta_{beta}.ini"
        cfg.write_text(f"[kernel]\nbeta = {beta}\n")
        code = main(
            ["--config", str(cfg), "--out", str(out), "fit",
             "--trajectory", str(tmp_path / "trajectory.csv")]
        )
        assert code == 0
        _, header, rows = _read_table(out / "fit_surface.csv")
        values = np.array([[float(v) for v in r] for r in rows])
        assert np.all(np.isfinite(values))


def test_fit_wendland_grid_zero_outside_support(tmp_path):
    assert main(["--out", str(tmp_path), "simulate"]) == 0
    cfg = tmp_path / "cfg.ini"
    cfg.write_text("[kernel]\nfamily = wendland_c2\n")
    code = main(["--config", str(cfg), "--out", str(tmp_path), "fit"])
    assert code == 0
    est = read_estimate_csv(tmp_path / "estimate.csv")
    _, header, rows = _read_table(tmp_path / "fit_surface.csv")
    grid = np.array([[float(r[0]), float(r[1])] for r in rows])
    vals = np.array([float(r[2]) for r in rows])
    far = cdist(grid, est.advanced_centers.points).min(axis=1) >= 1.0
    assert far.sum() > 0
    assert np.all(vals[far] == 0.0)


def test_fit_grid_interpolates_at_refined_node(tmp_path):
    assert main(["--out", str(tmp_path), "simulate"]) == 0
    cfg = tmp_path / "cfg.ini"
    cfg.write_text("[fit]\ngrid_n = 241\n")
    assert main(["--config", str(cfg), "--out", str(tmp_path), "fit"]) == 0
    ds = read_trajectory_csv(tmp_path / "trajectory.csv")
    est = read_estimate_csv(tmp_path / "estimate.csv")
    _, header, rows = _read_table(tmp_path / "fit_surface.csv")
    grid = np.array([[float(r[0]), float(r[1])] for r in rows])
    vals = np.array([float(r[2]) for r in rows])
    # training output at the first advanced center, read off the nearest fine-grid node
    target_rows = np.flatnonzero(ds.k == est.centers.indices[0])
    y = ds.y_next[target_rows[0], 0]
    node = int(cdist(grid, est.advanced_centers.points[:1]).argmin())
    assert abs(vals[node] - y) < 0.05


def test_convergence_slope_reported(tmp_path):
    assert main(["--out", str(tmp_path), "simulate"]) == 0
    assert main(["--out", str(tmp_path), "convergence"]) == 0
    comments, header, rows = _read_table(tmp_path / "convergence.csv")
    assert float(comments["loglog_slope"]) >= 1.0
    fills = [float(r[header.index("fill_distance")]) for r in rows]
    errors = [float(r[header.index("sup_error")]) for r in rows]
    assert all(b <= a for a, b in zip(fills, fills[1:]))
    # halving the fill never increases the sup error by more than 10%
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            if fills[j] <= 0.5 * fills[i]:
                assert errors[j] <= 1.1 * errors[i]


def test_conditioning_table_structure(tmp_path):
    assert main(["--out", str(tmp_path), "conditioning"]) == 0
    _, header, rows = _read_table(tmp_path / "conditioning.csv")
    assert header == ["kernel", "beta", "spacing", "M", "separation", "cond", "lambda_min"]
    ms = sorted({int(r[header.index("M")]) for r in rows})
    assert ms[0] == 2 and ms[-1] == 64
    kernels = {r[0] for r in rows}
    assert len(kernels) == 7


def test_mineig_table_structure(tmp_path):
    assert main(["--out", str(tmp_path), "mineig"]) == 0
    _, header, rows = _read_table(tmp_path / "mineig.csv")
    base = {float(r[header.index("base_eta")]) for r in rows}
    assert len(base) >= 3
    lam = [float(r[header.index("lambda_min")]) for r in rows]
    assert all(v > 0 for v in lam)


def test_mineig_far_pair_leaves_lambda_min_unchanged(tmp_path):
    from kernelkoop import (
        PendulumConfig,
        kernel_matrix,
        simulate,
        spectral_diagnostics,
        subselect_centers,
    )
    from kernelkoop.cli import parse_kernel_token

    cfg = tmp_path / "cfg.ini"
    cfg.write_text("[mineig]\nbase_etas = 0.7, 0.5, 0.4\ndeltas = 6.0\n")
    assert main(["--config", str(cfg), "--out", str(tmp_path), "mineig"]) == 0
    _, header, rows = _read_table(tmp_path / "mineig.csv")
    kern = parse_kernel_token("wendland_c4")
    ds = simulate(PendulumConfig())
    for row in rows:
        eta = float(row[header.index("base_eta")])
        centers = subselect_centers(ds, eta)
        base = spectral_diagnostics(kernel_matrix(kern, centers, centers)).lambda_min
        lam = float(row[header.index("lambda_min")])
        assert abs(lam - base) <= 0.1 * base


def test_mineig_zero_delta_rejected(tmp_path):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text("[mineig]\ndeltas = 0.5, 0.0\n")
    assert main(["--config", str(cfg), "--out", str(tmp_path), "mineig"]) == 2


def test_mocap_pipeline_outputs(tmp_path):
    markers = tmp_path / "markers.csv"
    write_marker_csv(markers, synthetic_gait_frames())
    assert main(["--out", str(tmp_path), "mocap", "--markers", str(markers)]) == 0
    _, header, rows = _read_table(tmp_path / "mocap_angles.csv")
    assert header == ["t", "theta1", "theta2", "y1", "y2"]
    assert len(rows) == 240
    _, header, rows = _read_table(tmp_path / "mocap_surface.csv")
    assert header == ["theta1", "theta2", "G1_hat", "G2_hat"]
    values = np.array([[float(v) for v in r] for r in rows])
    assert np.all(np.isfinite(values))
    _, header, rows = _read_table(tmp_path / "mocap_diagnostics.csv")
    assert int(rows[0][header.index("M")]) >= 5


def test_mocap_rerun_byte_identical(tmp_path):
    markers = tmp_path / "markers.csv"
    write_marker_csv(markers, synthetic_gait_frames())
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["--out", str(out), "mocap", "--markers", str(markers)]) == 0
    for name in (
        "mocap_angles.csv",
        "mocap_estimate_g1.csv",
        "mocap_estimate_g2.csv",
        "mocap_surface.csv",
        "mocap_diagnostics.csv",
    ):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_mocap_constant_stream_exit_code(tmp_path, capsys):
    frames = synthetic_gait_frames(n_frames=3, n_cycles=1)
    markers = tmp_path / "markers.csv"
    write_marker_csv(markers, [frames[0]] * 40)
    assert main(["--out", str(tmp_path), "mocap", "--markers", str(markers)]) == 3
    assert "center" in capsys.readouterr().err


def test_mocap_malformed_header_exit_code(tmp_path, capsys):
    markers = tmp_path / "markers.csv"
    markers.write_text("t,hip_x,hip_y,hip_z,knee_x,knee_y,knee_z,ankle_x,ankle_z\n")
    assert main(["--out", str(tmp_path), "mocap", "--markers", str(markers)]) == 4
    assert "ankle_y" in capsys.readouterr().err


def test_unknown_config_key_is_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text("[dynamics]\nwarp_speed = 9\n")
    assert main(["--config", str(cfg), "--out", str(tmp_path), "simulate"]) == 2
    assert "warp_speed" in capsys.readouterr().err


def test_missing_config_file_is_io_error(tmp_path):
    assert main(["--config", str(tmp_path / "nope.ini"), "--out", str(tmp_path), "simulate"]) == 4


def test_missing_trajectory_file_is_io_error(tmp_path):
    assert main(["--out", str(tmp_path), "fit"]) == 4


def test_conditioning_subselects_once_per_distinct_spacing(tmp_path, monkeypatch):
    calls = []

    def counting(dataset, eta, *args, **kwargs):
        calls.append(eta)
        return subselect_centers(dataset, eta, *args, **kwargs)

    monkeypatch.setattr(cli, "subselect_centers", counting)
    assert main(["--out", str(tmp_path), "conditioning"]) == 0
    spacings = [float(s) for s in cli.DEFAULTS["conditioning"]["spacings"].split(",")]
    assert sorted(calls) == sorted(set(spacings))


@pytest.mark.parametrize(
    "command, setting, column, kept",
    [
        ("convergence", "[convergence]\netas = 9, 1.8, 1.2, 0.8\n", "eta", ["1.8", "1.2", "0.8"]),
        ("conditioning", "[conditioning]\nkernels = wendland_c4\nspacings = 9, 1.6\n",
         "spacing", ["1.6"]),
        ("mineig", "[mineig]\nbase_etas = 9, 1.2\ndeltas = 0.5, 0.25\n", "base_eta", ["1.2", "1.2"]),
    ],
    ids=["convergence", "conditioning", "mineig"],
)
def test_sweep_cell_with_fewer_than_two_centers_is_skipped(
    tmp_path, capsys, command, setting, column, kept
):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(setting)
    assert main(["--out", str(tmp_path), "simulate"]) == 0
    capsys.readouterr()
    assert main(["--config", str(cfg), "--out", str(tmp_path), command]) == 0
    assert capsys.readouterr().err == f"warning: {column}=9.0 keeps fewer than 2 centers, skipped\n"
    _, header, rows = _read_table(tmp_path / f"{command}.csv")
    assert [r[header.index(column)] for r in rows] == kept


def test_threads_option_is_gone(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--out", str(tmp_path), "--threads", "2", "conditioning"])
    assert exc.value.code == 2
    assert "invalid choice: '2'" in capsys.readouterr().err
    assert not tmp_path.joinpath("conditioning.csv").exists()


@pytest.mark.parametrize(
    "flag, value", [("--eta", "0.3"), ("--family", "wendland_c2"), ("--beta", "0.2")]
)
def test_fit_setting_flags_are_gone(tmp_path, capsys, flag, value):
    assert main(["--out", str(tmp_path), "simulate"]) == 0
    with pytest.raises(SystemExit) as exc:
        main(["--out", str(tmp_path), "fit", flag, value])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
    assert not (tmp_path / "estimate.csv").exists()


@pytest.mark.parametrize(
    "setting, message",
    [
        ("axis_fwd = w", "unknown axis 'w'; use x, y or z"),
        ("axis_up = 2", "unknown axis '2'; use x, y or z"),
        ("axis_up = X", "plane axes must be two distinct coordinate axes"),
    ],
    ids=["fwd-unknown", "up-digit", "up-duplicate"],
)
def test_bad_mocap_axis_fails_before_the_markers_are_read(
    tmp_path, capsys, monkeypatch, setting, message
):
    reads = []
    monkeypatch.setattr(cli, "read_marker_csv", lambda path: reads.append(path))
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(f"[mocap]\n{setting}\n")
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), "mocap", "--markers", "m.csv"]) == 2
    assert message in capsys.readouterr().err
    assert reads == []
    assert not out.exists()


@pytest.mark.parametrize(
    "command, text, message",
    [
        ("fit", "[kernel]\nbeta = inf\n", "beta must be finite and > 0, got inf"),
        ("fit", "[kernel]\nfamily = wendland_c4\nsupport_scale = inf\n",
         "support_scale must be finite and > 0, got inf"),
        ("mocap", "[mocap]\nbeta = inf\n", "beta must be finite and > 0, got inf"),
        ("mocap", "[mocap]\nsupport_scale = -inf\n", "support_scale must be finite and > 0"),
        ("conditioning", "[conditioning]\nkernels = matern:inf\n",
         "beta must be finite and > 0, got inf"),
        ("mineig", "[mineig]\nkernel = matern:inf\n", "beta must be finite and > 0, got inf"),
    ],
    ids=["kernel-beta", "kernel-support", "mocap-beta", "mocap-support", "token", "mineig-token"],
)
def test_non_finite_kernel_parameter_is_a_config_error(tmp_path, capsys, command, text, message):
    commands = _fit_and_mocap_inputs(tmp_path)
    commands.update(conditioning=["conditioning"], mineig=["mineig"])
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(text)
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), *commands[command]]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("jitter", ["bogus", "nan", "inf", "-1"])
def test_bad_fit_jitter_fails_before_the_trajectory_is_read(tmp_path, capsys, monkeypatch, jitter):
    assert main(["--out", str(tmp_path), "simulate"]) == 0
    reads = []
    monkeypatch.setattr(kio, "read_trajectory_csv", lambda path: reads.append(path))
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(f"[fit]\njitter = {jitter}\n")
    assert main(["--config", str(cfg), "--out", str(tmp_path), "fit"]) == 2
    assert "[fit] jitter must be 'none', 'auto' or a finite float >= 0" in capsys.readouterr().err
    assert reads == []
    assert not (tmp_path / "estimate.csv").exists()


@pytest.mark.parametrize(
    "command, section, key, value",
    [
        ("fit", "fit", "eta", "inf"),
        ("convergence", "convergence", "error_floor", "nan"),
        ("mocap", "mocap", "eta", "nan"),
    ],
)
def test_non_finite_config_number_is_a_config_error(tmp_path, capsys, command, section, key, value):
    commands = _fit_and_mocap_inputs(tmp_path)
    commands["convergence"] = ["convergence", "--trajectory", commands["fit"][-1]]
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(f"[{section}]\n{key} = {value}\n")
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), *commands[command]]) == 2
    assert f"[{section}] {key} must be finite, got '{value}'" in capsys.readouterr().err
    assert not out.exists()


def test_fit_nan_output_is_a_numerical_failure(tmp_path, capsys):
    assert main(["--out", str(tmp_path), "simulate"]) == 0
    path = tmp_path / "trajectory.csv"
    comments, header, rows = _read_table(path)
    rows[5][header.index("y_next")] = "nan"
    lines = [f"# {k} = {v}" for k, v in comments.items()] + [",".join(header)]
    path.write_text("\n".join(lines + [",".join(r) for r in rows]) + "\n")
    assert main(["--out", str(tmp_path), "fit"]) == 3
    assert "finite" in capsys.readouterr().err
    assert not (tmp_path / "estimate.csv").exists()
    assert not (tmp_path / "fit_surface.csv").exists()


def test_fit_trajectory_with_an_extra_cell_is_an_io_error(tmp_path, capsys):
    assert main(["--out", str(tmp_path), "simulate"]) == 0
    lines = (tmp_path / "trajectory.csv").read_text().splitlines()
    lines[-1] += ",999"
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    assert main(["--out", str(out), "fit", "--trajectory", str(bad)]) == 4
    assert "bad.csv" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


def test_default_eta_constant_matches_config():
    from kernelkoop.cli import DEFAULTS

    assert float(DEFAULTS["fit"]["eta"]) == ETA_37_CENTERS


def _fit_and_mocap_inputs(tmp_path):
    """A default trajectory and the 240-frame gait, outside the output directory."""
    inputs = tmp_path / "in"
    assert main(["--out", str(inputs), "simulate"]) == 0
    markers = inputs / "markers.csv"
    write_marker_csv(markers, synthetic_gait_frames())
    return {
        "fit": ["fit", "--trajectory", str(inputs / "trajectory.csv")],
        "mocap": ["mocap", "--markers", str(markers)],
    }


@pytest.mark.parametrize("grid_n", ["0", "-5"])
@pytest.mark.parametrize("command", ["fit", "mocap"])
def test_grid_n_below_one_is_a_config_error_and_writes_nothing(tmp_path, capsys, command, grid_n):
    commands = _fit_and_mocap_inputs(tmp_path)
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(f"[{command}]\ngrid_n = {grid_n}\n")
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), *commands[command]]) == 2
    assert f"[{command}] grid_n" in capsys.readouterr().err
    assert not out.exists()


def test_mocap_failing_after_the_angles_writes_nothing(tmp_path):
    # the angles table is complete before the fit finds too few centers
    markers = tmp_path / "static.csv"
    write_marker_csv(markers, [synthetic_gait_frames()[0]] * 40)
    out = tmp_path / "out"
    assert main(["--out", str(out), "mocap", "--markers", str(markers)]) == 3
    assert not out.exists()


@pytest.mark.parametrize("field", ["x1_0", "x2_0", "h"])
def test_non_finite_pendulum_config_is_a_config_error(tmp_path, capsys, field):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(f"[dynamics]\n{field} = inf\n")
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), "simulate"]) == 2
    assert field in capsys.readouterr().err
    assert not out.exists()


def test_empty_conditioning_kernels_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text("[conditioning]\nkernels =\n")
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), "conditioning"]) == 2
    assert "[conditioning] kernels" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("section, setting", [("fit", "grid_n = 10"), ("kernel", "beta = 2")])
def test_default_section_is_an_unknown_section(tmp_path, capsys, section, setting):
    commands = _fit_and_mocap_inputs(tmp_path)
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(f"[DEFAULT]\neta = 0.5\n[{section}]\n{setting}\n")
    assert main(["--config", str(cfg), "--out", str(tmp_path / "out"), *commands["fit"]]) == 2
    assert "unknown config section [DEFAULT]" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "command, section, key",
    [
        ("convergence", "convergence", "etas"),
        ("conditioning", "conditioning", "spacings"),
        ("mineig", "mineig", "base_etas"),
        ("mineig", "mineig", "deltas"),
    ],
)
def test_non_finite_list_value_is_a_config_error(tmp_path, capsys, command, section, key, value):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(f"[{section}]\n{key} = 0.5, {value}\n")
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), command]) == 2
    assert f"[{section}] {key} must list finite numbers" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "text, message",
    [
        ("[dynamics]\nsteps = 10\nsteps = 20\n", "already exists"),
        ("steps = 10\n[dynamics]\n", "no section headers"),
        ("[dynamics]\nh = 5%\n", "[dynamics] h must be a number, got '5%'"),
    ],
    ids=["duplicate-key", "key-before-section", "percent-in-value"],
)
def test_configparser_errors_are_config_errors(tmp_path, capsys, text, message):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(text)
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), "simulate"]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def _marker_file(tmp_path, edit):
    """The default gait's marker file with its text lines passed through ``edit``."""
    markers = tmp_path / "markers.csv"
    write_marker_csv(markers, synthetic_gait_frames())
    markers.write_text("".join(edit(markers.read_text().splitlines(True))))
    return markers


@pytest.mark.parametrize(
    "edit, code, message",
    [
        (lambda ls: [ls[0], "0.01" + ls[1][1:], "0.02" + ls[2][1:], *ls[3:]], 4, "integer frame"),
        (lambda ls: [ls[0], "1e300" + ls[1][1:], *ls[2:]], 4, "integer frame"),
        (lambda ls: [ls[0], "9.3e18" + ls[1][1:], *ls[2:]], 4, "integer frame"),
        (lambda ls: [*ls[:5], "4,0.0,0.12\n", *ls[5:]], 4, "bad row"),
        (lambda ls: [*ls[:5], ls[5].replace(",", ",x", 1), *ls[6:]], 4, "bad row"),
        (lambda ls: ls[:1], 3, "no usable frames"),
    ],
    ids=["fractional-t", "huge-t", "t-past-int64", "short-row", "non-numeric-cell", "header-only"],
)
def test_mocap_bad_marker_file_exit_codes(tmp_path, capsys, edit, code, message):
    markers = _marker_file(tmp_path, edit)
    out = tmp_path / "out"
    assert main(["--out", str(out), "mocap", "--markers", str(markers)]) == code
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, code",
    [
        (["--config", "BAD", "simulate"], 2),
        (["fit", "--trajectory", "BAD"], 4),
        (["mocap", "--markers", "BAD"], 4),
    ],
    ids=["config", "trajectory", "markers"],
)
def test_input_that_is_not_utf8_fails_with_its_exit_code(tmp_path, capsys, argv, code):
    bad = tmp_path / "input"
    bad.write_bytes(b"# note = caf\xff\n[dynamics]\n")
    out = tmp_path / "out"
    assert main(["--out", str(out), *(str(bad) if a == "BAD" else a for a in argv)]) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "decode" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, section, key, lines, header",
    [
        ("convergence", "convergence", "etas", ["1.8, 1.2,", "0.8, 0.55"], "eta"),
        ("conditioning", "conditioning", "kernels", ["wendland_c2", "matern:0.5"], "kernel"),
    ],
)
def test_multi_line_config_value_is_one_comment_line(tmp_path, command, section, key, lines, header):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(f"[{section}]\n{key} = {lines[0]}\n  {lines[1]}\n")
    assert main(["--out", str(tmp_path), "simulate"]) == 0
    assert main(["--config", str(cfg), "--out", str(tmp_path), command]) == 0
    text = (tmp_path / f"{command}.csv").read_text().splitlines()
    first = next(line for line in text if not line.startswith("#"))
    assert first.split(",")[0] == header
    assert f"# {section}.{key} = {' '.join(lines)}" in text


def test_fit_and_convergence_record_the_dynamics_of_their_trajectory(tmp_path):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text("[dynamics]\nsteps = 100\n")
    assert main(["--config", str(cfg), "--out", str(tmp_path), "simulate"]) == 0
    assert main(["--out", str(tmp_path), "fit"]) == 0
    assert main(["--out", str(tmp_path), "convergence"]) == 0
    for name in ("estimate.csv", "fit_diagnostics.csv", "convergence.csv"):
        comments, _, _ = _read_table(tmp_path / name)
        assert comments["dynamics.steps"] == "100", name

    lines = (tmp_path / "trajectory.csv").read_text().splitlines(True)
    bare = tmp_path / "bare.csv"
    bare.write_text("".join(line for line in lines if not line.startswith("#")))
    out = tmp_path / "bare"
    assert main(["--out", str(out), "fit", "--trajectory", str(bare)]) == 0
    for name in ("estimate.csv", "fit_diagnostics.csv"):
        comments, _, _ = _read_table(out / name)
        assert not [key for key in comments if key.startswith("dynamics.")], name


def test_fit_trajectory_with_swapped_columns_is_an_io_error(tmp_path, capsys):
    assert main(["--out", str(tmp_path), "simulate"]) == 0
    path = tmp_path / "trajectory.csv"
    path.write_text(path.read_text().replace("x1_next,x2_next", "x2_next,x1_next"))
    out = tmp_path / "out"
    assert main(["--out", str(out), "fit", "--trajectory", str(path)]) == 4
    assert "unrecognized trajectory header" in capsys.readouterr().err
    assert not out.exists()
