"""Experiment driver: simulate, fit, and the convergence/conditioning studies.

Every subcommand reads a flat INI config (sections per module, all
defaults documented in --help) and computes its CSV artifacts; `main`
writes them, each with a provenance comment block, only once the command
has succeeded, so a failed command leaves no files behind.  Reruns with
the same inputs produce byte-identical files.  Plotting is left to
external tools.

Exit codes: 0 success, 2 invalid config, 3 numerical failure, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import configparser
import sys
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
from .kernels import KernelSpec, kernel_matrix
from .koopman import KoopmanEstimate, TrajectoryDataset, fit_pullback, predict
from .linsys import _parse_jitter, spectral_diagnostics
from .mocap import _plane_indices, extract_angles, fit_kinematics, read_marker_csv

# Gate recovered by bisection so the default 256-step trajectory keeps
# exactly 37 centers (plateau [0.229, 0.2355]); see `eta_for_center_count`.
ETA_37_CENTERS = 0.232

DEFAULTS: dict[str, dict[str, str]] = {
    "dynamics": {
        "x1_0": "0.0",
        "x2_0": "2.0",
        "h": "0.1",
        "steps": "256",
    },
    "kernel": {
        "family": "matern_sobolev32",
        "beta": "1.0",
        "support_scale": "1.0",
        "distance_convention": "plain",
    },
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
        "family": "matern_sobolev32",
        "beta": "2.0",
        "support_scale": "1.0",
        "distance_convention": "plain",
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
    if param:
        try:
            beta = float(param)
        except ValueError:
            raise ConfigError(f"bad kernel token {token!r}") from None
        return KernelSpec(family=name, beta=beta)
    return KernelSpec(family=name)


def _pendulum_config(cfg) -> PendulumConfig:
    return PendulumConfig(
        x1_0=_float(cfg, "dynamics", "x1_0"),
        x2_0=_float(cfg, "dynamics", "x2_0"),
        h=_float(cfg, "dynamics", "h"),
        steps=_count(cfg, "dynamics", "steps"),
    )


def _dynamics_params(cfg) -> dict[str, str]:
    return {f"dynamics.{k}": v for k, v in cfg["dynamics"].items()}


def _sweep(cells, fn, what: str) -> list:
    """``fn(*cell)`` for each sweep cell ``(value, centers, ...)``, in order.

    A cell that keeps fewer than 2 centers is skipped with a warning naming
    ``what=value``.
    """
    results = []
    for value, centers, *rest in cells:
        if len(centers) < 2:
            print(f"warning: {what}={value} keeps fewer than 2 centers, skipped", file=sys.stderr)
        else:
            results.append(fn(value, centers, *rest))
    return results


def _all_states(dataset) -> np.ndarray:
    """Every simulated state: the sampled states plus the final advanced one."""
    return np.vstack([dataset.x, dataset.x_next[-1:]])


_DIAGNOSTICS_HEADER = ["M", "fill_distance", "separation", "cond", "lambda_min", "jitter_used"]


def _surface_and_diagnostics(estimates, states: np.ndarray, grid_n: int):
    """The estimates on a grid over the first one's advanced centers, and its diagnostics row.

    The grid_n x grid_n grid pads the centers' bounding box by a tenth of its
    extent; the row follows _DIAGNOSTICS_HEADER, with the fill over ``states``.
    """
    first = estimates[0]
    box = first.advanced_centers.points
    if box.shape[1] != 2:
        raise InvalidArgumentError("surface grids require 2-D states")
    lo, hi = box.min(axis=0), box.max(axis=0)
    pad = 0.1 * np.where(hi > lo, hi - lo, 1.0)
    axes = [np.linspace(a, b, grid_n) for a, b in zip(lo - pad, hi + pad)]
    grid = np.column_stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")])
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


def _write_artifacts(out_dir: Path, artifacts: dict, params: dict) -> None:
    """Write each artifact under its file name in ``out_dir``, with ``params`` as comments."""
    for name, artifact in artifacts.items():
        path = out_dir / name
        if isinstance(artifact, TrajectoryDataset):
            kio.write_trajectory_csv(path, artifact, params)
        elif isinstance(artifact, KoopmanEstimate):
            kio.write_estimate_csv(path, artifact, params)
        else:
            header, rows = artifact
            kio.write_rows_csv(path, header, rows, params)


# ---------------------------------------------------------------------------
# subcommands: each writes nothing and returns (artifacts, params, summary),
# the artifacts by file name, each a TrajectoryDataset, a KoopmanEstimate
# or a (header, rows) table; `main` puts the command name first in params


def cmd_simulate(args, cfg) -> tuple[dict, dict, str]:
    dataset = simulate(_pendulum_config(cfg))
    out = Path(args.out) / "trajectory.csv"
    summary = f"wrote {out} ({len(dataset)} records)"
    return {"trajectory.csv": dataset}, _dynamics_params(cfg), summary


def cmd_fit(args, cfg) -> tuple[dict, dict, str]:
    kernel = KernelSpec.from_config(cfg["kernel"])
    eta = _float(cfg, "fit", "eta")
    grid_n = _count(cfg, "fit", "grid_n")
    _parse_jitter(cfg["fit"]["jitter"], "[fit] jitter")
    dataset, dynamics = _read_trajectory(args)

    centers = subselect_centers(dataset, eta)
    estimate = fit_pullback(dataset, centers, kernel, jitter_policy=cfg["fit"]["jitter"])
    surface, diagnostics = _surface_and_diagnostics([estimate], _all_states(dataset), grid_n)
    n = estimate.output_dim
    outputs = ["y_hat"] if n == 1 else [f"y{j + 1}_hat" for j in range(n)]

    params = {
        "fit.eta": kio.fmt(eta),
        "fit.grid_n": grid_n,
        **kio._kernel_params(kernel),
        **dynamics,
    }
    artifacts = {
        "estimate.csv": estimate,
        "fit_surface.csv": (["z1", "z2", *outputs], surface),
        "fit_diagnostics.csv": (_DIAGNOSTICS_HEADER, [diagnostics]),
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
    rows = _sweep(cells, cell, "eta")

    fills = np.array([r[1] for r in rows])
    errors = np.array([r[3] for r in rows])
    usable = errors > floor
    if usable.sum() >= 2:
        slope, intercept = np.polyfit(np.log(fills[usable]), np.log(errors[usable]), 1)
    else:
        slope, intercept = float("nan"), float("nan")
        print("warning: too few usable rows for a slope fit", file=sys.stderr)

    params = {
        **kio._kernel_params(kernel),
        **dynamics,
        "convergence.etas": cfg["convergence"]["etas"],
        "loglog_slope": kio.fmt(slope),
        "loglog_intercept": kio.fmt(intercept),
    }
    table = (["eta", "fill_distance", "M", "sup_error"], rows)
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
    rows = _sweep(cells, cell, "spacing")

    params = {
        **_dynamics_params(cfg),
        "conditioning.kernels": cfg["conditioning"]["kernels"],
        "conditioning.spacings": cfg["conditioning"]["spacings"],
    }
    header = ["kernel", "beta", "spacing", "M", "separation", "cond", "lambda_min"]
    out = Path(args.out) / "conditioning.csv"
    return {"conditioning.csv": (header, rows)}, params, f"conditioning: {len(rows)} rows -> {out}"


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
    rows = [row for block in _sweep(cells, cell, "base_eta") for row in block]

    params = {
        **_dynamics_params(cfg),
        **kio._kernel_params(kernel),
        "mineig.base_etas": cfg["mineig"]["base_etas"],
        "mineig.deltas": cfg["mineig"]["deltas"],
    }
    header = ["base_eta", "fill_distance", "M", "pair_distance", "lambda_min"]
    out = Path(args.out) / "mineig.csv"
    return {"mineig.csv": (header, rows)}, params, f"mineig: {len(rows)} rows -> {out}"


def cmd_mocap(args, cfg) -> tuple[dict, dict, str]:
    kernel = KernelSpec.from_config(cfg["mocap"])
    eta = _float(cfg, "mocap", "eta")
    grid_n = _count(cfg, "mocap", "grid_n")
    axes = (cfg["mocap"]["axis_fwd"], cfg["mocap"]["axis_up"])
    _plane_indices(axes)

    frames = read_marker_csv(args.markers)
    samples = extract_angles(frames, plane_axes=axes)
    if not samples:
        raise DegenerateInputError("no usable frames in the marker file")
    g1, g2 = fit_kinematics(samples, eta, kernel)
    angle_states = np.array([(s.theta1, s.theta2) for s in samples])
    surface, diagnostics = _surface_and_diagnostics([g1, g2], angle_states, grid_n)

    params = {
        "mocap.eta": kio.fmt(eta),
        "mocap.axis_fwd": axes[0],
        "mocap.axis_up": axes[1],
        **kio._kernel_params(kernel),
    }
    artifacts = {
        "mocap_angles.csv": (
            ["t", "theta1", "theta2", "y1", "y2"],
            [[s.t, s.theta1, s.theta2, s.y1, s.y2] for s in samples],
        ),
        "mocap_estimate_g1.csv": g1,
        "mocap_estimate_g2.csv": g2,
        "mocap_surface.csv": (["theta1", "theta2", "G1_hat", "G2_hat"], surface),
        "mocap_diagnostics.csv": (
            ["frames", "samples", *_DIAGNOSTICS_HEADER],
            [[len(frames), len(samples), *diagnostics]],
        ),
    }
    m, _, _, cond = diagnostics[:4]
    return artifacts, params, f"mocap: {len(samples)} samples, M={m}, cond={cond:.4e}"


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

    p = sub.add_parser("simulate", help="generate the pendulum trajectory CSV")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fit", help="subselect centers, fit the interpolant, emit surface grid")
    p.add_argument("--trajectory", default=None, help="trajectory CSV (default <out>/trajectory.csv)")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("convergence", help="error vs fill distance over nested center sets")
    p.add_argument("--trajectory", default=None, help="trajectory CSV (default <out>/trajectory.csv)")
    p.set_defaults(func=cmd_convergence)

    p = sub.add_parser("conditioning", help="condition number vs center spacing per kernel")
    p.set_defaults(func=cmd_conditioning)

    p = sub.add_parser("mineig", help="minimum eigenvalue vs injected pair distance")
    p.set_defaults(func=cmd_mineig)

    p = sub.add_parser("mocap", help="joint angles and kinematics fits from marker CSV")
    p.add_argument("--markers", required=True, help="marker CSV file")
    p.set_defaults(func=cmd_mocap)

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
        _write_artifacts(out_dir, artifacts, {"command": args.command, **params})
        print(summary)
        return 0
    except (ConfigError, InvalidArgumentError) as exc:
        code, error = 2, exc
    except (DegenerateInputError, NotPositiveDefiniteError) as exc:
        code, error = 3, exc
    except (CsvFormatError, OSError) as exc:
        code, error = 4, exc
    print(f"error: {error}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
