"""The kernelkoop benchmark workloads; BENCHMARK.json runs long_inputs and large_m.

Each workload builds its inputs from a seed (`setup`), runs one timed
pass through the package's CLI or its public functions (`run_pass`), and
checks the pass's outputs afterwards, outside the timed region (`check`).
A pass is a list of operations; an operation fails when it raises, exits
non-zero or fails one of its checks.  Why each workload exists is written
down in README.md next to this file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import resource
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import kernelkoop as kk  # noqa: E402
from kernelkoop import cli as kcli  # noqa: E402
from kernelkoop import io as kio  # noqa: E402

# An interpolation residual at the advanced centers is "at the solver's
# level" below this.  The prototypes measured about 1e-14 at M = 37 and at
# M = 1954 (cond ~1e10); a solve that lost digits sits far above it.
RESIDUAL_TOL = 1e-10

# The default 256-step pendulum run keeps exactly this many centers.
PAPER_CENTERS = 37

clock = time.perf_counter_ns


def child_env() -> dict[str, str]:
    """Environment for child interpreters: the package from src/, like the parent."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@dataclass
class Op:
    """One operation of a pass: a CLI command or a library call."""

    name: str
    error: str | None = None

    def fail(self, reason: str) -> None:
        if self.error is None:
            self.error = reason


@dataclass
class Pass:
    """Timings, operations and outputs of one pass."""

    ops: list[Op]
    wall_ns: int = 0
    fit_ns: int = 0
    eval_ns: int = 0
    queries: int = 0
    child_rss_mib: float = 0.0
    max_abs_err: float = math.nan
    digests: dict[str, str] = field(default_factory=dict)
    outputs: dict = field(default_factory=dict)
    spans: list | None = None


def _check_same(op: Op, key: str, value: str, p: Pass, reference: Pass | None) -> None:
    """Record an output digest and require it to equal the first pass's."""
    p.digests[key] = value
    if reference is not None and reference.digests.get(key) != value:
        op.fail(f"{key} differs from the first pass of this run")


# ---------------------------------------------------------------------------
# synthetic gait markers

THIGH = 0.45
SHANK = 0.43
FRAMES_PER_CYCLE = 80
MARKER_HEADER = "t,hip_x,hip_y,hip_z,knee_x,knee_y,knee_z,ankle_x,ankle_y,ankle_z"


def write_markers(path: Path, n_frames: int, rng: np.random.Generator) -> None:
    """Marker CSV of a 2-link leg walking a closed (hip, knee) loop.

    The seed sets the starting phase, the hip amplitude (±5 %) and 0.5 mm
    of marker noise, so each seed is a different recording of one gait.
    """
    phase = 2.0 * np.pi * np.arange(n_frames) / FRAMES_PER_CYCLE + rng.uniform(0, 2 * np.pi)
    theta1 = 0.55 * (1.0 + rng.uniform(-0.05, 0.05)) * np.sin(phase)
    theta2 = 0.8 + 0.5 * np.cos(phase)
    knee = THIGH * np.column_stack([np.sin(theta1), -np.cos(theta1)])
    shank = theta1 - theta2
    ankle = knee + SHANK * np.column_stack([np.sin(shank), -np.cos(shank)])
    knee = knee + rng.normal(scale=5e-4, size=knee.shape)
    ankle = ankle + rng.normal(scale=5e-4, size=ankle.shape)
    lateral = 0.12
    lines = [MARKER_HEADER]
    for i in range(n_frames):
        cells = [0.0, lateral, 0.0, knee[i, 0], lateral, knee[i, 1], ankle[i, 0], lateral, ankle[i, 1]]
        lines.append(f"{i}," + ",".join(repr(float(v)) for v in cells))
    path.write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# CLI workloads: paper_cli and long_inputs

# The commands that go from the trajectory to fitted estimates: each
# subselects centers and calls fit_pullback.  Their time is fit_s.
FIT_COMMANDS = ("fit", "convergence")

# Artifacts each command writes, checked for byte identity across passes.
ARTIFACTS = {
    "simulate": ("trajectory.csv",),
    "fit": ("estimate.csv", "fit_surface.csv", "fit_diagnostics.csv"),
    "convergence": ("convergence.csv",),
    "conditioning": ("conditioning.csv",),
    "mineig": ("mineig.csv",),
    "mocap": (
        "mocap_angles.csv",
        "mocap_estimate_g1.csv",
        "mocap_estimate_g2.csv",
        "mocap_surface.csv",
        "mocap_diagnostics.csv",
    ),
}


@dataclass
class CliState:
    config: Path | None
    markers: Path


class CliWorkload:
    """CLI commands run in order on one output directory per pass.

    With ``spawn`` each command is a fresh ``python -m kernelkoop.cli``
    process, as a user runs it; otherwise ``kernelkoop.cli.main`` is called
    in this process.  The traced run always calls it in-process.
    """

    def __init__(self, commands, frames, steps=None, spawn=False, expect_centers=None):
        self.commands = commands
        self.frames = frames
        self.steps = steps
        self.spawn = spawn
        self.expect_centers = expect_centers

    def setup(self, seed: int, work: Path) -> CliState:
        rng = np.random.default_rng(seed)
        markers = work / "markers.csv"
        write_markers(markers, self.frames, rng)
        config = None
        if self.steps is not None:
            # The trajectory keeps the paper's initial state.  With about 37
            # centers, max_abs_err depends on where the centers fall: started
            # at seeded phases it spread by a factor of 10 across 10 seeds.
            config = work / "workload.ini"
            config.write_text(
                f"[dynamics]\nsteps = {self.steps}\n"
                "[kernel]\nfamily = wendland_c4\nsupport_scale = 1.0\n"
            )
        return CliState(config=config, markers=markers)

    def _argv(self, state: CliState, out: Path, command: str) -> list[str]:
        argv = ["--out", str(out)]
        if state.config is not None:
            argv = ["--config", str(state.config)] + argv
        argv.append(command)
        if command == "mocap":
            argv += ["--markers", str(state.markers)]
        return argv

    def run_pass(self, state: CliState, out: Path, in_process: bool) -> Pass:
        p = Pass(ops=[Op(c) for c in self.commands])
        spawn = self.spawn and not in_process
        start = clock()
        for op in p.ops:
            argv = self._argv(state, out, op.name)
            t0 = clock()
            try:
                if spawn:
                    code, rss = _spawn_cli(argv, out / f".{op.name}.stderr")
                    p.child_rss_mib = max(p.child_rss_mib, rss)
                else:
                    with contextlib.redirect_stdout(io.StringIO()):
                        code = kcli.main(argv)
            except Exception as exc:  # the operation failed; the run goes on
                op.fail(f"raised {exc!r}")
                continue
            if op.name in FIT_COMMANDS:
                p.fit_ns += clock() - t0
            if code != 0:
                reason = f"exit code {code}"
                if spawn:
                    reason += ": " + " ".join((out / f".{op.name}.stderr").read_text().split()[-20:])
                op.fail(reason)
        p.ops.append(self._predict(p, out))
        p.wall_ns = clock() - start
        return p

    def _predict(self, p: Pass, out: Path) -> Op:
        """Evaluate the `fit` estimate at every advanced state of the trajectory.

        Only M of those states are centers; the rest are held out.  Only the
        `predict` call is timed for eval_qps; it runs in this process.
        """
        op = Op("predict")
        try:
            est = kio.read_estimate_csv(out / "estimate.csv")
            data = kio.read_trajectory_csv(out / "trajectory.csv")
            t0 = clock()
            values = kk.predict(est, data.x_next)
            p.eval_ns = clock() - t0
        except Exception as exc:
            op.fail(f"raised {exc!r}")
            return op
        p.queries = len(data.x_next)
        p.outputs["predict"] = (values, data.y_next)
        return op

    def check(self, state: CliState, p: Pass, reference: Pass | None, out: Path) -> None:
        ops = {op.name: op for op in p.ops}
        if "predict" in p.outputs:
            values, truth = p.outputs.pop("predict")
            p.max_abs_err = float(np.max(np.abs(values - truth)))
            if not math.isfinite(p.max_abs_err):
                ops["predict"].fail("max_abs_err is not finite")
            _check_same(ops["predict"], "predict", digest(values.tobytes()), p, reference)
        for op in p.ops:
            for name in ARTIFACTS.get(op.name, ()):
                path = out / name
                if not path.is_file():
                    op.fail(f"{name} was not written")
                    continue
                _check_same(op, name, digest(path.read_bytes()), p, reference)
        fit = ops.get("fit")
        if fit is not None and fit.error is None:
            try:
                self._check_fit(fit, p, out)
            except Exception as exc:
                fit.fail(f"fit outputs unreadable: {exc!r}")
        shutil.rmtree(out, ignore_errors=True)

    def _check_fit(self, op: Op, p: Pass, out: Path) -> None:
        header, rows = _table(out / "fit_diagnostics.csv")
        centers = int(rows[0][header.index("M")])
        if self.expect_centers is not None and centers != self.expect_centers:
            op.fail(f"fit kept {centers} centers, expected {self.expect_centers}")
        est = kio.read_estimate_csv(out / "estimate.csv")
        advanced = est.advanced_centers.points
        residual = np.max(np.abs(kk.predict(est, advanced)[:, 0] - kk.observable_G(advanced)))
        if not residual <= RESIDUAL_TOL:
            op.fail(f"interpolation residual {residual:.3e} > {RESIDUAL_TOL:g}")


def _table(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = [ln for ln in path.read_text().splitlines() if ln and not ln.startswith("#")]
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def _spawn_cli(argv: list[str], stderr_path: Path) -> tuple[int, float]:
    """Run one CLI command in a fresh interpreter; return (exit code, peak RSS MiB)."""
    stderr_path.parent.mkdir(parents=True, exist_ok=True)
    with open(stderr_path, "w") as err:
        proc = subprocess.Popen(
            [sys.executable, "-m", "kernelkoop.cli", *argv],
            env=child_env(),
            cwd=ROOT,
            stdout=subprocess.DEVNULL,
            stderr=err,
        )
        # wait4 reaps the child and returns its own resource usage
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# library workloads: large_m and wide_eval


@dataclass
class FitState:
    data: kk.TrajectoryDataset
    g_states: np.ndarray
    queries: np.ndarray
    truth: dict[str, np.ndarray]
    centers: kk.PointSet | None


class FitWorkload:
    """Fit and predict through the library on a long trajectory.

    The trajectory is the paper's pendulum orbit started at a seeded phase,
    so the centers differ per seed while their number stays near M = 1954.
    With ``timed_subselect`` each pass subselects the centers; otherwise
    set-up selects them once and each pass reuses them.
    """

    def __init__(self, kernel, umf, timed_subselect, n_queries, steps, eta, warm_m):
        self.kernel = kernel
        self.umf = umf
        self.timed_subselect = timed_subselect
        self.n_queries = n_queries
        self.steps = steps
        self.eta = eta
        self.warm_m = warm_m

    def setup(self, seed: int, work: Path) -> FitState:
        rng = np.random.default_rng(seed)
        lead = int(rng.integers(0, 1000))
        full = kk.simulate(kk.PendulumConfig(steps=self.steps + lead))
        data = kk.TrajectoryDataset(
            k=np.arange(self.steps),
            x=full.x[lead:],
            x_next=full.x_next[lead:],
            y_next=full.y_next[lead:],
        )
        # held-out queries: advanced states moved exactly 1e-3 off the orbit in
        # a seeded direction.  The error grows with that distance, so a fixed
        # distance keeps max_abs_err from following the tail of a noise draw.
        rows = rng.choice(self.steps, self.n_queries, replace=False)
        angle = rng.uniform(0.0, 2.0 * np.pi, self.n_queries)
        queries = data.x_next[rows] + 1e-3 * np.column_stack([np.cos(angle), np.sin(angle)])
        truth = {"pullback": kk.observable_G(queries)}
        if self.umf:
            # the projected estimate approximates G(f(x)), one step ahead
            h = kk.PendulumConfig().h
            advanced = np.array([kk.pendulum_step(a, b, h) for a, b in queries])
            truth["umf"] = kk.observable_G(advanced)
        centers = None if self.timed_subselect else kk.subselect_centers(data, self.eta)
        _warm_up(self.warm_m, rng)
        return FitState(data, kk.observable_G(data.x), queries, truth, centers)

    def run_pass(self, state: FitState, out: Path, in_process: bool) -> Pass:
        data, kernel = state.data, self.kernel

        def centers(r):
            return r["subselect"] if self.timed_subselect else state.centers

        stages = []
        if self.timed_subselect:
            stages.append(("subselect", lambda r: kk.subselect_centers(data, self.eta)))
        stages.append(("fit_pullback", lambda r: kk.fit_pullback(data, centers(r), kernel)))
        if self.umf:
            stages.append((
                "fit_umf",
                lambda r: kk.fit_umf(
                    data, centers(r), kernel, g_at_centers=state.g_states[centers(r).indices]
                ),
            ))
        n_fit = len(stages)
        stages.append(("predict_pullback", lambda r: kk.predict(r["fit_pullback"], state.queries)))
        if self.umf:
            stages.append(("predict_umf", lambda r: kk.predict(r["fit_umf"], state.queries)))

        p = Pass(ops=[Op(name) for name, _ in stages])
        start = clock()
        ends = []
        for op, (name, fn) in zip(p.ops, stages):
            try:
                p.outputs[name] = fn(p.outputs)
            except Exception as exc:  # later stages depend on this one
                op.fail(f"raised {exc!r}")
                for later in p.ops[len(ends) + 1:]:
                    later.fail(f"not run: {name} failed")
                break
            ends.append(clock())
        p.wall_ns = clock() - start
        if len(ends) == len(stages):
            p.fit_ns = ends[n_fit - 1] - start
            p.eval_ns = ends[-1] - ends[n_fit - 1]
            p.queries = self.n_queries * (len(stages) - n_fit)
        return p

    def check(self, state: FitState, p: Pass, reference: Pass | None, out: Path) -> None:
        ops = {op.name: op for op in p.ops}
        res = p.outputs
        if "subselect" in res:
            _check_same(ops["subselect"], "centers", digest(res["subselect"].indices.tobytes()), p, reference)
        if "fit_pullback" in res:
            est = res["fit_pullback"]
            targets = state.data.y_next[est.centers.indices]
            residual = np.max(np.abs(kk.predict(est, est.advanced_centers.points) - targets))
            if not residual <= RESIDUAL_TOL:
                ops["fit_pullback"].fail(f"interpolation residual {residual:.3e} > {RESIDUAL_TOL:g}")
            _check_same(ops["fit_pullback"], "alpha_pullback", digest(est.alpha.tobytes()), p, reference)
        if "fit_umf" in res:
            alpha = res["fit_umf"].alpha
            if not np.all(np.isfinite(alpha)):
                ops["fit_umf"].fail("coefficients are not finite")
            _check_same(ops["fit_umf"], "alpha_umf", digest(alpha.tobytes()), p, reference)
        errors = []
        for which, truth in state.truth.items():
            name = f"predict_{which}"
            if name not in res:
                continue
            err = float(np.max(np.abs(res[name][:, 0] - truth)))
            if not math.isfinite(err):
                ops[name].fail("max_abs_err is not finite")
            _check_same(ops[name], name, digest(res[name].tobytes()), p, reference)
            errors.append(err)
        if errors:
            p.max_abs_err = max(errors)
        p.outputs = {}


def _warm_up(m: int, rng: np.random.Generator) -> None:
    """One SPD solve at the workload's size, before anything is timed.

    In a fresh process the first threaded factorization of this size
    sometimes took twice as long as later ones; it did not after such a
    solve, nor with one BLAS thread, so it is most likely BLAS thread
    start-up and first touch of its buffers.  A long-lived process pays
    that once, so it is set-up, not part of every pass.
    """
    a = rng.normal(size=(m, m))
    kk.solve_spd(a @ a.T / m + np.eye(m), np.ones(m))


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------

PAPER_COMMANDS = ("simulate", "fit", "convergence", "conditioning", "mineig", "mocap")
LONG_COMMANDS = ("simulate", "fit", "convergence", "mocap")

# Full sizes are the benchmark; smoke sizes keep the same code paths small
# enough for the test suite.
SIZES = {
    "full": {"long_steps": 20000, "long_frames": 8000, "fit_steps": 20000, "eta": 0.004,
             "large_queries": 10000, "wide_queries": 20000, "warm_m": 2000},
    "smoke": {"long_steps": 1000, "long_frames": 400, "fit_steps": 1000, "eta": 0.04,
              "large_queries": 500, "wide_queries": 1000, "warm_m": 100},
}


def make(name: str, size: str = "full"):
    s = SIZES[size]
    matern = kk.KernelSpec("matern_sobolev32", beta=1.0)
    wendland = kk.KernelSpec("wendland_c4", support_scale=0.5)
    if name == "paper_cli":
        return CliWorkload(PAPER_COMMANDS, frames=240, spawn=True, expect_centers=PAPER_CENTERS)
    if name == "long_inputs":
        return CliWorkload(LONG_COMMANDS, frames=s["long_frames"], steps=s["long_steps"])
    fit_sizes = {"steps": s["fit_steps"], "eta": s["eta"], "warm_m": s["warm_m"]}
    if name == "large_m":
        return FitWorkload(matern, umf=True, timed_subselect=True, n_queries=s["large_queries"], **fit_sizes)
    if name == "wide_eval":
        return FitWorkload(wendland, umf=False, timed_subselect=False, n_queries=s["wide_queries"], **fit_sizes)
    raise KeyError(name)
