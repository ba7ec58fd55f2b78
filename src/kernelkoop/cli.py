"""Experiment driver: simulate, fit, and the convergence/conditioning studies.

Every subcommand reads a flat INI config (sections per module, all
defaults documented in --help), writes CSV artifacts with a provenance
comment block, and is deterministic: rerunning with the same inputs
produces byte-identical files.  Plotting is left to external tools.

Exit codes: 0 success, 2 invalid config, 3 numerical failure, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import configparser
import sys
from concurrent.futures import ThreadPoolExecutor
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
from .koopman import fit_pullback, predict
from .linsys import spectral_diagnostics
from .mocap import extract_angles, fit_kinematics, read_marker_csv

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
    parser = configparser.ConfigParser()
    read = parser.read(path)
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
        return float(cfg[section][key])
    except ValueError:
        raise ConfigError(
            f"[{section}] {key} must be a number, got {cfg[section][key]!r}"
        ) from None


def _int(cfg, section: str, key: str) -> int:
    try:
        return int(cfg[section][key])
    except ValueError:
        raise ConfigError(
            f"[{section}] {key} must be an integer, got {cfg[section][key]!r}"
        ) from None


def _float_list(cfg, section: str, key: str) -> list[float]:
    raw = cfg[section][key].replace(",", " ").split()
    if not raw:
        raise ConfigError(f"[{section}] {key} must list at least one number")
    try:
        return [float(tok) for tok in raw]
    except ValueError:
        raise ConfigError(f"[{section}] {key} contains a non-number") from None


def _kernel_from_section(cfg, section: str) -> KernelSpec:
    values = cfg[section]
    return KernelSpec.from_config(
        {
            "family": values["family"],
            "beta": values["beta"],
            "support_scale": values["support_scale"],
            "distance_convention": values["distance_convention"],
        }
    )


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
        steps=_int(cfg, "dynamics", "steps"),
    )


def _dynamics_params(cfg) -> dict[str, str]:
    return {f"dynamics.{k}": v for k, v in cfg["dynamics"].items()}


def _kernel_params(kernel: KernelSpec) -> dict[str, str]:
    return {f"kernel.{k}": v for k, v in kernel.to_config().items()}


def _run_cells(cells, fn, threads: int):
    """Evaluate independent sweep cells, preserving schedule order."""
    if threads <= 1:
        return [fn(cell) for cell in cells]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, cells))


def _all_states(dataset) -> np.ndarray:
    """Every simulated state: the sampled states plus the final advanced one."""
    return np.vstack([dataset.x, dataset.x_next[-1:]])


def _surface_points(box_points: np.ndarray, grid_n: int, pad: float = 0.1) -> np.ndarray:
    """Rectangular evaluation grid over a padded 2-D bounding box."""
    if box_points.shape[1] != 2:
        raise InvalidArgumentError("surface grids require 2-D states")
    lo = box_points.min(axis=0)
    hi = box_points.max(axis=0)
    span = np.where(hi > lo, hi - lo, 1.0)
    lo = lo - pad * span
    hi = hi + pad * span
    u = np.linspace(lo[0], hi[0], grid_n)
    v = np.linspace(lo[1], hi[1], grid_n)
    uu, vv = np.meshgrid(u, v, indexing="ij")
    return np.column_stack([uu.ravel(), vv.ravel()])


# ---------------------------------------------------------------------------
# subcommands


def cmd_simulate(args, cfg) -> int:
    config = _pendulum_config(cfg)
    dataset = simulate(config)
    out = Path(args.out) / "trajectory.csv"
    kio.write_trajectory_csv(out, dataset, {"command": "simulate", **_dynamics_params(cfg)})
    print(f"wrote {out} ({len(dataset)} records)")
    return 0


def cmd_fit(args, cfg) -> int:
    if args.eta is not None:
        cfg["fit"]["eta"] = str(args.eta)
    if args.family is not None:
        cfg["kernel"]["family"] = args.family
    if args.beta is not None:
        cfg["kernel"]["beta"] = str(args.beta)
    kernel = _kernel_from_section(cfg, "kernel")
    eta = _float(cfg, "fit", "eta")
    grid_n = _int(cfg, "fit", "grid_n")
    dataset = kio.read_trajectory_csv(_trajectory_path(args))

    centers = subselect_centers(dataset, eta)
    estimate = fit_pullback(dataset, centers, kernel, jitter_policy=cfg["fit"]["jitter"])
    states = _all_states(dataset)
    fill = fill_distance(centers, states)
    sep = separation(centers) if len(centers) > 1 else float("nan")

    params = {
        "command": "fit",
        "fit.eta": kio.fmt(eta),
        "fit.grid_n": grid_n,
        **_kernel_params(kernel),
        **_dynamics_params(cfg),
    }
    out_dir = Path(args.out)
    kio.write_estimate_csv(out_dir / "estimate.csv", estimate, params)

    grid = _surface_points(estimate.advanced_centers.points, grid_n)
    values = predict(estimate, grid)
    n = values.shape[1]
    header = ["z1", "z2"] + (["y_hat"] if n == 1 else [f"y{j + 1}_hat" for j in range(n)])
    kio.write_rows_csv(
        out_dir / "fit_surface.csv",
        header,
        np.column_stack([grid, values]),
        params,
    )
    kio.write_rows_csv(
        out_dir / "fit_diagnostics.csv",
        ["M", "fill_distance", "separation", "cond", "lambda_min", "jitter_used"],
        [[
            len(centers),
            fill,
            sep,
            estimate.diagnostics.condition_number,
            estimate.diagnostics.min_eigenvalue,
            estimate.diagnostics.jitter_used,
        ]],
        params,
    )
    print(
        f"fit: M={len(centers)} fill={fill:.4f} cond={estimate.diagnostics.condition_number:.4e}"
    )
    return 0


def cmd_convergence(args, cfg) -> int:
    kernel = _kernel_from_section(cfg, "kernel")
    etas = _float_list(cfg, "convergence", "etas")
    floor = _float(cfg, "convergence", "error_floor")
    dataset = kio.read_trajectory_csv(_trajectory_path(args))
    states = _all_states(dataset)

    center_sets = nested_center_sets(dataset, etas)

    def cell(pair):
        eta, centers = pair
        if len(centers) < 2:
            return None
        estimate = fit_pullback(dataset, centers, kernel)
        residual = predict(estimate, dataset.x_next) - dataset.y_next
        sup_error = float(np.max(np.linalg.norm(residual, axis=1)))
        fill = fill_distance(centers, states)
        return [kio.fmt(eta), kio.fmt(fill), len(centers), kio.fmt(sup_error)]

    results = _run_cells(list(zip(etas, center_sets)), cell, args.threads)
    rows = []
    for eta, row in zip(etas, results):
        if row is None:
            print(f"warning: eta={eta} keeps fewer than 2 centers, row skipped", file=sys.stderr)
            continue
        rows.append(row)

    fills = np.array([float(r[1]) for r in rows])
    errors = np.array([float(r[3]) for r in rows])
    usable = errors > floor
    if usable.sum() >= 2:
        slope, intercept = np.polyfit(np.log(fills[usable]), np.log(errors[usable]), 1)
    else:
        slope, intercept = float("nan"), float("nan")
        print("warning: too few usable rows for a slope fit", file=sys.stderr)

    params = {
        "command": "convergence",
        **_kernel_params(kernel),
        **_dynamics_params(cfg),
        "convergence.etas": cfg["convergence"]["etas"],
        "loglog_slope": kio.fmt(slope) if slope == slope else "nan",
        "loglog_intercept": kio.fmt(intercept) if intercept == intercept else "nan",
    }
    out = Path(args.out) / "convergence.csv"
    kio.write_rows_csv(out, ["eta", "fill_distance", "M", "sup_error"], rows, params)
    print(f"convergence: {len(rows)} rows, log-log slope {slope:.3f}")
    return 0


def cmd_conditioning(args, cfg) -> int:
    kernels = [parse_kernel_token(tok) for tok in cfg["conditioning"]["kernels"].split()]
    spacings = _float_list(cfg, "conditioning", "spacings")
    dataset = simulate(_pendulum_config(cfg))

    cells = [(kernel, spacing) for kernel in kernels for spacing in spacings]
    # every kernel's cells share one subselection per distinct spacing
    centers_at = {s: subselect_centers(dataset, s) for s in dict.fromkeys(spacings)}

    def cell(item):
        kernel, spacing = item
        centers = centers_at[spacing]
        if len(centers) < 2:
            return None
        K = kernel_matrix(kernel, centers, centers)
        diag = spectral_diagnostics(K)
        return [
            kernel.label,
            kio.fmt(kernel.beta),
            kio.fmt(spacing),
            len(centers),
            kio.fmt(separation(centers)),
            kio.fmt(diag.cond),
            kio.fmt(diag.lambda_min),
        ]

    results = _run_cells(cells, cell, args.threads)
    rows = []
    for (kernel, spacing), row in zip(cells, results):
        if row is None:
            print(
                f"warning: spacing={spacing} keeps fewer than 2 centers, row skipped",
                file=sys.stderr,
            )
            continue
        rows.append(row)

    params = {
        "command": "conditioning",
        **_dynamics_params(cfg),
        "conditioning.kernels": cfg["conditioning"]["kernels"],
        "conditioning.spacings": cfg["conditioning"]["spacings"],
    }
    out = Path(args.out) / "conditioning.csv"
    kio.write_rows_csv(
        out,
        ["kernel", "beta", "spacing", "M", "separation", "cond", "lambda_min"],
        rows,
        params,
    )
    print(f"conditioning: {len(rows)} rows -> {out}")
    return 0


def cmd_mineig(args, cfg) -> int:
    kernel = parse_kernel_token(cfg["mineig"]["kernel"])
    base_etas = _float_list(cfg, "mineig", "base_etas")
    deltas = _float_list(cfg, "mineig", "deltas")
    if any(d <= 0 for d in deltas):
        raise ConfigError("pair distances must be positive (a zero distance duplicates the center)")
    dataset = simulate(_pendulum_config(cfg))
    states = _all_states(dataset)
    centroid = states.mean(axis=0)

    rows = []
    for eta in base_etas:
        centers = subselect_centers(dataset, eta)
        if len(centers) < 2:
            print(f"warning: base eta={eta} keeps fewer than 2 centers, skipped", file=sys.stderr)
            continue
        fill = fill_distance(centers, states)
        anchor = centers.points[0]
        direction = anchor - centroid
        norm = float(np.linalg.norm(direction))
        direction = direction / norm if norm > 0 else np.array([1.0, 0.0])
        for delta in deltas:
            extra = anchor + delta * direction
            augmented = np.vstack([centers.points, extra[None, :]])
            diag = spectral_diagnostics(kernel_matrix(kernel, augmented, augmented))
            rows.append(
                [
                    kio.fmt(eta),
                    kio.fmt(fill),
                    len(centers) + 1,
                    kio.fmt(delta),
                    kio.fmt(diag.lambda_min),
                ]
            )

    params = {
        "command": "mineig",
        **_dynamics_params(cfg),
        **_kernel_params(kernel),
        "mineig.base_etas": cfg["mineig"]["base_etas"],
        "mineig.deltas": cfg["mineig"]["deltas"],
    }
    out = Path(args.out) / "mineig.csv"
    kio.write_rows_csv(
        out, ["base_eta", "fill_distance", "M", "pair_distance", "lambda_min"], rows, params
    )
    print(f"mineig: {len(rows)} rows -> {out}")
    return 0


def cmd_mocap(args, cfg) -> int:
    kernel = _kernel_from_section(cfg, "mocap")
    eta = _float(cfg, "mocap", "eta")
    grid_n = _int(cfg, "mocap", "grid_n")
    axes = (cfg["mocap"]["axis_fwd"], cfg["mocap"]["axis_up"])

    frames = read_marker_csv(args.markers)
    samples = extract_angles(frames, plane_axes=axes)
    if not samples:
        raise DegenerateInputError("no usable frames in the marker file")

    params = {
        "command": "mocap",
        "mocap.eta": kio.fmt(eta),
        "mocap.axis_fwd": axes[0],
        "mocap.axis_up": axes[1],
        **_kernel_params(kernel),
    }
    out_dir = Path(args.out)
    kio.write_rows_csv(
        out_dir / "mocap_angles.csv",
        ["t", "theta1", "theta2", "y1", "y2"],
        [[s.t, s.theta1, s.theta2, s.y1, s.y2] for s in samples],
        params,
    )

    g1, g2 = fit_kinematics(samples, eta, kernel)
    kio.write_estimate_csv(out_dir / "mocap_estimate_g1.csv", g1, params)
    kio.write_estimate_csv(out_dir / "mocap_estimate_g2.csv", g2, params)

    grid = _surface_points(g1.advanced_centers.points, grid_n)
    v1 = predict(g1, grid)[:, 0]
    v2 = predict(g2, grid)[:, 0]
    kio.write_rows_csv(
        out_dir / "mocap_surface.csv",
        ["theta1", "theta2", "G1_hat", "G2_hat"],
        np.column_stack([grid, v1, v2]),
        params,
    )

    centers = g1.centers
    angle_states = np.array([(s.theta1, s.theta2) for s in samples])
    fill = fill_distance(centers, angle_states)
    sep = separation(centers)
    kio.write_rows_csv(
        out_dir / "mocap_diagnostics.csv",
        ["frames", "samples", "M", "fill_distance", "separation", "cond", "lambda_min", "jitter_used"],
        [[
            len(frames),
            len(samples),
            len(centers),
            fill,
            sep,
            g1.diagnostics.condition_number,
            g1.diagnostics.min_eigenvalue,
            g1.diagnostics.jitter_used,
        ]],
        params,
    )
    print(
        f"mocap: {len(samples)} samples, M={len(centers)}, cond={g1.diagnostics.condition_number:.4e}"
    )
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _trajectory_path(args) -> Path:
    if args.trajectory is not None:
        return Path(args.trajectory)
    return Path(args.out) / "trajectory.csv"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kernelkoop",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--config", default=None, help="INI config file; defaults shown below")
    parser.add_argument("--out", default="out", help="output directory (default: ./out)")
    parser.add_argument("--threads", type=int, default=1, help="parallel sweep cells (default 1)")

    defaults_help = "\n".join(
        f"[{section}]\n" + "\n".join(f"  {k} = {v}" for k, v in values.items())
        for section, values in DEFAULTS.items()
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("simulate", help="generate the pendulum trajectory CSV")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fit", help="subselect centers, fit the interpolant, emit surface grid")
    p.add_argument("--trajectory", default=None, help="trajectory CSV (default <out>/trajectory.csv)")
    p.add_argument("--eta", type=float, default=None, help="override [fit] eta")
    p.add_argument("--family", default=None, help="override [kernel] family")
    p.add_argument("--beta", type=float, default=None, help="override [kernel] beta")
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
        if args.threads < 1:
            raise ConfigError(f"--threads must be at least 1, got {args.threads}")
        cfg = load_config(args.config)
        Path(args.out).mkdir(parents=True, exist_ok=True)
        return args.func(args, cfg)
    except (ConfigError, InvalidArgumentError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DegenerateInputError, NotPositiveDefiniteError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (CsvFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
