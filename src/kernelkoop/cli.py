"""Experiment driver: simulate, fit, and the convergence/conditioning studies.

Every subcommand reads a flat INI config (sections per module, all
defaults documented in --help) and computes its CSV artifacts; `main`
writes them, each with a provenance comment block, only once the command
has succeeded, so a failed command leaves no files behind.  Reruns with
the same inputs produce byte-identical files.  Plotting is left to
external tools.

Exit codes: 0 success, 2 invalid config, 3 numerical failure or out of
memory, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import configparser
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import io as kio
from .dynamics import PendulumConfig, simulate
from .errors import (
    ConfigError,
    CsvFormatError,
    DegenerateInputError,
    InvalidArgumentError,
    NotPositiveDefiniteError,
)
from .geometry import fill_distance, nested_center_sets, separation, subselect_centers
from .kernels import KernelSpec, TrajectoryDataset, kernel_matrix
from .koopman import fit_pullback, predict
from .linsys import _parse_jitter, spectral_diagnostics
from .mocap import _plane_indices, extract_angles, fit_kinematics, read_marker_csv

# Gate recovered by bisection so the default 256-step trajectory keeps
# exactly 37 centers (plateau [0.229, 0.2355]); see `eta_for_center_count`.
ETA_37_CENTERS = 0.232

DEFAULTS: dict[str, dict[str, str]] = {
    "dynamics": {f.name: str(f.default) for f in fields(PendulumConfig)},
    "kernel": KernelSpec("matern_sobolev32").to_config(),
    "fit": {
        "eta": str(ETA_37_CENTERS),
        "grid_n": "60",
        "jitter": "none",
    },
    "convergence": {
        # strictly decreasing subselection gates; each level nests the previous
        "etas": "1.8, 1.2, 0.8, 0.55, 0.38, 0.26, 0.18",
        "error_floor": "1e-12",
    },
    "conditioning": {
        "kernels": "wendland_c2 wendland_c4 wendland_c6 matern:0.2 matern:0.5 matern:1 matern:5",
        # coarse block: all gaps exceed the Wendland support (identity matrices);
        # fine block: deep interpolation regime where smoothness drives cond
        "spacings": "3.2, 2.25, 1.6, 1.12, 1.0, 0.16, 0.152, 0.146, 0.141, 0.137",
    },
    "mineig": {
        "kernel": "wendland_c4",
        "base_etas": "1.2, 0.7, 0.4, 0.232",
        "deltas": "0.5, 0.35, 0.25, 0.18, 0.12, 0.085, 0.06, 0.042, 0.03, 0.02",
    },
    "mocap": {
        "eta": "0.5",
        **KernelSpec("matern_sobolev32", beta=2.0).to_config(),
        "axis_fwd": "x",
        "axis_up": "z",
        "grid_n": "60",
    },
}


# ---------------------------------------------------------------------------
# configuration plumbing


def load_config(path: str | None) -> dict[str, dict[str, str]]:
    """Merge an optional INI file over the built-in defaults."""
    cfg = {section: dict(values) for section, values in DEFAULTS.items()}
    if path is None:
        return cfg
    # '[]' is no valid header, so '[DEFAULT]' is an ordinary, unknown section;
    # values are literal: no '%(name)s' expansion
    parser = configparser.ConfigParser(default_section="", interpolation=None)
    try:
        read = parser.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"bad config file: {exc}") from None
    if not read:
        raise OSError(f"config file not found: {path}")
    for section in parser.sections():
        if section not in cfg:
            raise ConfigError(f"unknown config section [{section}]")
        for key, value in parser.items(section):
            if key not in cfg[section]:
                raise ConfigError(f"unknown key '{key}' in section [{section}]")
            cfg[section][key] = value
    return cfg


def _float(cfg, section: str, key: str) -> float:
    try:
        value = float(cfg[section][key])
    except ValueError:
        raise ConfigError(
            f"[{section}] {key} must be a number, got {cfg[section][key]!r}"
        ) from None
    if not np.isfinite(value):
        raise ConfigError(f"[{section}] {key} must be finite, got {cfg[section][key]!r}")
    return value


def _count(cfg, section: str, key: str) -> int:
    try:
        value = int(cfg[section][key])
    except ValueError:
        raise ConfigError(
            f"[{section}] {key} must be an integer, got {cfg[section][key]!r}"
        ) from None
    if value < 1:
        raise ConfigError(f"[{section}] {key} must be at least 1, got {value}")
    if value >= 2**63:
        raise ConfigError(f"[{section}] {key} must be in the int64 range, got {value}")
    return value


def _float_list(cfg, section: str, key: str) -> list[float]:
    raw = cfg[section][key].replace(",", " ").split()
    if not raw:
        raise ConfigError(f"[{section}] {key} must list at least one number")
    try:
        values = [float(tok) for tok in raw]
    except ValueError:
        raise ConfigError(f"[{section}] {key} contains a non-number") from None
    if not np.all(np.isfinite(values)):
        raise ConfigError(f"[{section}] {key} must list finite numbers")
    return values


def parse_kernel_token(token: str) -> KernelSpec:
    """Compact kernel notation for sweep lists: 'wendland_c4' or 'matern:0.5'."""
    name, _, param = token.partition(":")
    return KernelSpec(family=name, beta=param) if param else KernelSpec(family=name)


def _pendulum_config(cfg) -> PendulumConfig:
    return PendulumConfig(
        x1_0=_float(cfg, "dynamics", "x1_0"),
        x2_0=_float(cfg, "dynamics", "x2_0"),
        h=_float(cfg, "dynamics", "h"),
        steps=_count(cfg, "dynamics", "steps"),
    )


def _params(cfg, *sections: str) -> dict[str, str]:
    """The provenance of a command: every key of each section it reads, as written."""
    return {f"{section}.{k}": v for section in sections for k, v in cfg[section].items()}


def _sweep(cells, fn, what: str, key: str) -> list:
    """``fn(*cell)`` for each sweep cell ``(value, centers, ...)``, in order.

    A cell that keeps fewer than 2 centers is skipped with a warning naming
    ``what=value``; a sweep that skips every cell fails, naming the config ``key``.
    """
    results = []
    for value, centers, *rest in cells:
        if len(centers) < 2:
            print(f"warning: {what}={value} keeps fewer than 2 centers, skipped", file=sys.stderr)
        else:
            results.append(fn(value, centers, *rest))
    if not results:
        raise DegenerateInputError(f"every value of {key} keeps fewer than 2 centers")
    return results


def _all_states(dataset) -> np.ndarray:
    """Every simulated state: the sampled states plus the final advanced one."""
    return np.vstack([dataset.x, dataset.x_next[-1:]])


_DIAGNOSTICS_HEADER = ["M", "fill_distance", "separation", "cond", "lambda_min", "jitter_used"]


def _grid(grid_n: int) -> np.ndarray:
    """An unfilled (grid_n, grid_n, 2) surface grid, allocated before a command computes.

    A grid past numpy's largest array is out of memory, refused before
    anything is allocated.
    """
    try:
        return np.empty((grid_n, grid_n, 2))
    except ValueError:  # numpy refuses a size past its limits before it tries to allocate
        raise MemoryError(f"a {grid_n} x {grid_n} grid exceeds numpy's largest array") from None


def _surface_and_diagnostics(estimates, states: np.ndarray, grid: np.ndarray):
    """The estimates on a grid over the first one's advanced centers, and its diagnostics row.

    ``grid``, from ``_grid``, is filled with points (z1[i], z2[j]) at row
    i * grid_n + j, the axes padding the centers' bounding box by a tenth of
    its extent; the row follows _DIAGNOSTICS_HEADER, with the fill over ``states``.
    """
    first = estimates[0]
    box = first.advanced_centers.points
    if box.shape[1] != 2:
        raise InvalidArgumentError("surface grids require 2-D states")
    lo, hi = box.min(axis=0), box.max(axis=0)
    pad = 0.1 * np.where(hi > lo, hi - lo, 1.0)
    z1, z2 = (np.linspace(a, b, len(grid)) for a, b in zip(lo - pad, hi + pad))
    grid[..., 0] = z1[:, None]
    grid[..., 1] = z2
    grid = grid.reshape(-1, 2)
    surface = np.column_stack([grid, *(predict(e, grid) for e in estimates)])
    centers, report = first.centers, first.diagnostics
    row = [
        len(centers),
        fill_distance(centers, states),
        separation(centers) if len(centers) > 1 else float("nan"),
        report.condition_number,
        report.min_eigenvalue,
        report.jitter_used,
    ]
    return surface, row


# ---------------------------------------------------------------------------
# subcommands: each writes nothing and returns (artifacts, params, summary), the
# artifacts as {file name: (writer, *payload)}, the writer looked up in `io` per call
# (a rebound one is used); `main` calls writer(path, *payload, {"command": ..., **params})


def cmd_simulate(args, cfg) -> tuple[dict, dict, str]:
    dataset = simulate(_pendulum_config(cfg))
    out = Path(args.out) / "trajectory.csv"
    artifacts = {"trajectory.csv": (kio.write_trajectory_csv, dataset)}
    return artifacts, _params(cfg, "dynamics"), f"wrote {out} ({len(dataset)} records)"


def cmd_fit(args, cfg) -> tuple[dict, dict, str]:
    kernel = KernelSpec.from_config(cfg["kernel"])
    eta = _float(cfg, "fit", "eta")
    grid_n = _count(cfg, "fit", "grid_n")
    _parse_jitter(cfg["fit"]["jitter"], "[fit] jitter")
    grid = _grid(grid_n)
    dataset, dynamics = _read_trajectory(args)

    centers = subselect_centers(dataset, eta)
    estimate = fit_pullback(dataset, centers, kernel, cfg["fit"]["jitter"], diagnostics="exact")
    surface, diagnostics = _surface_and_diagnostics([estimate], _all_states(dataset), grid)
    n = estimate.output_dim
    outputs = ["y_hat"] if n == 1 else [f"y{j + 1}_hat" for j in range(n)]

    params = {**_params(cfg, "fit", "kernel"), **dynamics}
    artifacts = {
        "estimate.csv": (kio.write_estimate_csv, estimate),
        "fit_surface.csv": (kio.write_rows_csv, ["z1", "z2", *outputs], surface),
        "fit_diagnostics.csv": (kio.write_rows_csv, _DIAGNOSTICS_HEADER, [diagnostics]),
    }
    m, fill, _, cond = diagnostics[:4]
    return artifacts, params, f"fit: M={m} fill={fill:.4f} cond={cond:.4e}"


def cmd_convergence(args, cfg) -> tuple[dict, dict, str]:
    kernel = KernelSpec.from_config(cfg["kernel"])
    etas = _float_list(cfg, "convergence", "etas")
    floor = _float(cfg, "convergence", "error_floor")
    dataset, dynamics = _read_trajectory(args)
    states = _all_states(dataset)

    def cell(eta, centers):
        estimate = fit_pullback(dataset, centers, kernel)
        residual = predict(estimate, dataset.x_next) - dataset.y_next
        sup_error = float(np.max(np.linalg.norm(residual, axis=1)))
        return [eta, fill_distance(centers, states), len(centers), sup_error]

    cells = list(zip(etas, nested_center_sets(dataset, etas)))
    rows = _sweep(cells, cell, "eta", "[convergence] etas")

    fills = np.array([r[1] for r in rows])
    errors = np.array([r[3] for r in rows])
    usable = errors > floor
    if usable.sum() < 2:
        raise DegenerateInputError(
            "fewer than 2 rows have sup_error above [convergence] error_floor, too few for a slope"
        )
    slope, intercept = np.polyfit(np.log(fills[usable]), np.log(errors[usable]), 1)

    params = {
        **_params(cfg, "kernel"),
        **dynamics,
        **_params(cfg, "convergence"),
        "loglog_slope": kio.fmt(slope),
        "loglog_intercept": kio.fmt(intercept),
    }
    table = (kio.write_rows_csv, ["eta", "fill_distance", "M", "sup_error"], rows)
    summary = f"convergence: {len(rows)} rows, log-log slope {slope:.3f}"
    return {"convergence.csv": table}, params, summary


def cmd_conditioning(args, cfg) -> tuple[dict, dict, str]:
    kernels = [parse_kernel_token(tok) for tok in cfg["conditioning"]["kernels"].split()]
    if not kernels:
        raise ConfigError("[conditioning] kernels must list at least one kernel")
    spacings = _float_list(cfg, "conditioning", "spacings")
    dataset = simulate(_pendulum_config(cfg))

    # every kernel's cells share one subselection per distinct spacing
    centers_at = {s: subselect_centers(dataset, s) for s in dict.fromkeys(spacings)}

    def cell(spacing, centers, kernel):
        diag = spectral_diagnostics(kernel_matrix(kernel, centers, centers))
        row = [kernel.label, kernel.beta, spacing, len(centers), separation(centers)]
        return row + [diag.cond, diag.lambda_min]

    cells = [(s, centers_at[s], kernel) for kernel in kernels for s in spacings]
    rows = _sweep(cells, cell, "spacing", "[conditioning] spacings")

    header = ["kernel", "beta", "spacing", "M", "separation", "cond", "lambda_min"]
    summary = f"conditioning: {len(rows)} rows -> {Path(args.out) / 'conditioning.csv'}"
    table = (kio.write_rows_csv, header, rows)
    return {"conditioning.csv": table}, _params(cfg, "dynamics", "conditioning"), summary


def cmd_mineig(args, cfg) -> tuple[dict, dict, str]:
    kernel = parse_kernel_token(cfg["mineig"]["kernel"])
    base_etas = _float_list(cfg, "mineig", "base_etas")
    deltas = _float_list(cfg, "mineig", "deltas")
    if any(d <= 0 for d in deltas):
        raise ConfigError("pair distances must be positive (a zero distance duplicates the center)")
    dataset = simulate(_pendulum_config(cfg))
    states = _all_states(dataset)
    centroid = states.mean(axis=0)

    def cell(eta, centers):
        fill = fill_distance(centers, states)
        anchor = centers.points[0]
        direction = anchor - centroid
        norm = float(np.linalg.norm(direction))
        direction = direction / norm if norm > 0 else np.array([1.0, 0.0])
        block = []
        for delta in deltas:
            extra = anchor + delta * direction
            augmented = np.vstack([centers.points, extra[None, :]])
            diag = spectral_diagnostics(kernel_matrix(kernel, augmented, augmented))
            block.append([eta, fill, len(centers) + 1, delta, diag.lambda_min])
        return block

    cells = [(eta, subselect_centers(dataset, eta)) for eta in base_etas]
    rows = [row for block in _sweep(cells, cell, "base_eta", "[mineig] base_etas") for row in block]

    header = ["base_eta", "fill_distance", "M", "pair_distance", "lambda_min"]
    summary = f"mineig: {len(rows)} rows -> {Path(args.out) / 'mineig.csv'}"
    table = (kio.write_rows_csv, header, rows)
    return {"mineig.csv": table}, _params(cfg, "dynamics", "mineig"), summary


def cmd_mocap(args, cfg) -> tuple[dict, dict, str]:
    kernel = KernelSpec.from_config(cfg["mocap"])
    eta = _float(cfg, "mocap", "eta")
    grid_n = _count(cfg, "mocap", "grid_n")
    axes = (cfg["mocap"]["axis_fwd"], cfg["mocap"]["axis_up"])
    _plane_indices(axes)
    grid = _grid(grid_n)

    frames = read_marker_csv(args.markers)
    samples = extract_angles(frames, plane_axes=axes)
    if not samples:
        raise DegenerateInputError("no usable frames in the marker file")
    g1, g2 = fit_kinematics(samples, eta, kernel)
    angle_states = np.column_stack((samples.theta1, samples.theta2))
    surface, diagnostics = _surface_and_diagnostics([g1, g2], angle_states, grid)

    artifacts = {
        "mocap_angles.csv": (
            kio.write_rows_csv,
            ["t", "theta1", "theta2", "y1", "y2"],
            list(zip(samples.t, samples.theta1, samples.theta2, samples.y1, samples.y2)),
        ),
        "mocap_estimate_g1.csv": (kio.write_estimate_csv, g1),
        "mocap_estimate_g2.csv": (kio.write_estimate_csv, g2),
        "mocap_surface.csv": (kio.write_rows_csv, ["theta1", "theta2", "G1_hat", "G2_hat"], surface),
        "mocap_diagnostics.csv": (
            kio.write_rows_csv,
            ["frames", "samples", *_DIAGNOSTICS_HEADER],
            [[len(frames), len(samples), *diagnostics]],
        ),
    }
    m, _, _, cond = diagnostics[:4]
    summary = f"mocap: {len(samples)} samples, M={m}, cond={cond:.4e}"
    return artifacts, _params(cfg, "mocap"), summary


# ---------------------------------------------------------------------------
# argument parsing


def _read_trajectory(args) -> tuple[TrajectoryDataset, dict[str, str]]:
    """The ``--trajectory`` file (default <out>/trajectory.csv) and its ``dynamics.*`` comments."""
    path = Path(args.out) / "trajectory.csv" if args.trajectory is None else Path(args.trajectory)
    dataset = kio.read_trajectory_csv(path)
    with open(path, encoding="utf-8") as fh:  # the comment block only, not the body again
        comments, _ = kio._read_header(fh, path)
    return dataset, {k: v for k, v in comments.items() if k.startswith("dynamics.")}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kernelkoop",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--config", default=None, help="INI config file; defaults shown below")
    parser.add_argument("--out", default="out", help="output directory (default: ./out)")

    defaults_help = "\n".join(
        f"[{section}]\n" + "\n".join(f"  {k} = {v}" for k, v in values.items())
        for section, values in DEFAULTS.items()
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    trajectory = ("--trajectory", {"help": "trajectory CSV (default <out>/trajectory.csv)"})
    markers = ("--markers", {"required": True, "help": "marker CSV file"})
    # built per call, not at module level, so it holds the cmd_* bound at that time
    for name, func, text, *options in (
        ("simulate", cmd_simulate, "generate the pendulum trajectory CSV"),
        ("fit", cmd_fit, "subselect centers, fit the interpolant, emit surface grid", trajectory),
        ("convergence", cmd_convergence, "error vs fill distance over nested center sets", trajectory),
        ("conditioning", cmd_conditioning, "condition number vs center spacing per kernel"),
        ("mineig", cmd_mineig, "minimum eigenvalue vs injected pair distance"),
        ("mocap", cmd_mocap, "joint angles and kinematics fits from marker CSV", markers),
    ):
        p = sub.add_parser(name, help=text)
        for flag, kwargs in options:
            p.add_argument(flag, **kwargs)
        p.set_defaults(func=func)

    parser.epilog = "config defaults:\n" + defaults_help
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        artifacts, params, summary = args.func(args, cfg)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, (write, *payload) in artifacts.items():
            write(out_dir / name, *payload, {"command": args.command, **params})
        print(summary)
        return 0
    except (ConfigError, InvalidArgumentError) as exc:
        code, error = 2, exc
    except (DegenerateInputError, NotPositiveDefiniteError) as exc:
        code, error = 3, exc
    except MemoryError as exc:  # a size past what the machine can allocate
        code, error = 3, f"out of memory: {exc}"
    except (CsvFormatError, OSError) as exc:
        code, error = 4, exc
    print(f"error: {error}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
