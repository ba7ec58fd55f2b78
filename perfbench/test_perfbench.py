"""Smoke tests of the benchmark: every workload at reduced inputs, untraced and traced."""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import kernelkoop
import run as bench
import workloads
from tracer import LAYERS, Tracer

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

_results = {}


def result(name, trace):
    """One smoke-size run per (workload, trace), shared by the tests below."""
    if (name, trace) not in _results:
        _results[name, trace] = bench.run_benchmark(name, seed=3, seconds=0, trace=trace, size="smoke")
    return _results[name, trace]


def value(res, key):
    return res["metrics"][key]["value"]


@pytest.mark.parametrize("name", bench.WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(name):
    res = result(name, False)
    assert res["correct"], res["failures"]
    assert res["failed"] == 0 and res["attempted"] >= 1
    assert {k: m["unit"] for k, m in res["metrics"].items()} == END_TO_END
    for key in END_TO_END:
        assert math.isfinite(value(res, key)) and value(res, key) > 0, key


@pytest.mark.parametrize("name", bench.WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(name):
    res = result(name, True)
    assert res["correct"], res["failures"]
    assert {k: m["unit"] for k, m in res["metrics"].items()} == PER_LAYER
    layers = sum(value(res, f"{layer}.self_s") for layer in LAYERS)
    assert layers + value(res, "trace.remainder_s") == pytest.approx(value(res, "trace.wall_s"), abs=1e-9)
    assert value(res, "cli.import_s") > 0


def test_traced_counts_match_the_workloads():
    paper = result("paper_cli", True)
    assert value(paper, "cli.commands") == 6
    assert value(paper, "dynamics.steps") == 3 * 256  # simulate, conditioning, mineig
    assert value(paper, "linsys.diag_calls") > 0
    assert value(paper, "mocap.frames") == 240

    long = result("long_inputs", True)
    sizes = workloads.SIZES["smoke"]
    assert value(long, "cli.commands") == 4
    assert value(long, "dynamics.steps") == sizes["long_steps"]
    assert value(long, "mocap.frames") == sizes["long_frames"]
    assert value(long, "io.bytes_written") > 0 and value(long, "io.bytes_read") > 0

    large = result("large_m", True)
    assert value(large, "geometry.states_scanned") == sizes["fit_steps"]
    assert value(large, "kernels.sym_calls") == 2  # K in fit_pullback and in fit_umf
    assert value(large, "kernels.cross_calls") == 3  # C in fit_umf, two predicts
    assert value(large, "linsys.solves") == 3
    assert value(large, "linsys.max_m") == value(large, "geometry.centers_kept")
    assert value(large, "koopman.fits") == 2
    assert value(large, "koopman.queries") == 2 * sizes["large_queries"]
    assert value(large, "cli.commands") == 0 and value(large, "mocap.self_s") == 0

    wide = result("wide_eval", True)
    assert value(wide, "koopman.queries") == sizes["wide_queries"]
    assert value(wide, "kernels.cross_entries") == sizes["wide_queries"] * value(wide, "linsys.max_m")


def test_span_tree_is_nested_and_sees_imported_names():
    spans = result("long_inputs", True)["traced_passes"][0].spans
    for i, span in enumerate(spans):
        assert span.end_ns >= span.start_ns and span.self_ns >= 0
        if span.parent is not None:
            parent = spans[span.parent]
            assert span.parent < i
            assert parent.start_ns <= span.start_ns and span.end_ns <= parent.end_ns
    names = {(s.name, spans[s.parent].name if s.parent is not None else None) for s in spans}
    # reached through `from .koopman import fit_pullback` in mocap and
    # `from .kernels import kernel_matrix` in koopman
    assert ("kernelkoop.koopman.fit_pullback", "kernelkoop.mocap.fit_kinematics") in names
    assert ("kernelkoop.kernels.kernel_matrix", "kernelkoop.koopman.fit_pullback") in names
    assert ("kernelkoop.cli.cmd_fit", "kernelkoop.cli.main") in names


def test_csv_artifacts_identical_with_and_without_tracing():
    for name in ("paper_cli", "long_inputs"):
        res = result(name, True)
        untraced, traced = res["untraced_passes"][0], res["traced_passes"][0]
        assert traced.digests and traced.digests == untraced.digests


def test_tracer_restores_every_binding():
    bound = {
        (kernelkoop.cli, "subselect_centers"),
        (kernelkoop.mocap, "fit_pullback"),
        (kernelkoop.koopman, "kernel_matrix"),
        (kernelkoop, "predict"),
        (kernelkoop.cli, "main"),
    }
    before = {key: getattr(*key) for key in bound}
    with Tracer():
        for key in bound:
            assert getattr(*key).__wrapped__ is before[key]
    for key in bound:
        assert getattr(*key) is before[key]


def test_failed_check_counts_as_failed_operation(tmp_path):
    workload = workloads.make("large_m", "smoke")
    state = workload.setup(1, tmp_path)
    first = workload.run_pass(state, tmp_path, in_process=False)
    workload.check(state, first, None, tmp_path)
    assert all(op.error is None for op in first.ops)

    second = workload.run_pass(state, tmp_path, in_process=False)
    second.outputs["fit_pullback"].alpha *= 1.0 + 1e-6
    workload.check(state, second, first, tmp_path)
    failed = {op.name: op.error for op in second.ops if op.error is not None}
    assert list(failed) == ["fit_pullback"]
    assert "interpolation residual" in failed["fit_pullback"]

    cli = workloads.make("long_inputs", "smoke")
    cli_state = cli.setup(1, tmp_path)
    ref = cli.run_pass(cli_state, tmp_path / "a", in_process=True)
    cli.check(cli_state, ref, None, tmp_path / "a")
    again = cli.run_pass(cli_state, tmp_path / "b", in_process=True)
    with open(tmp_path / "b" / "convergence.csv", "a") as fh:
        fh.write("\n")
    cli.check(cli_state, again, ref, tmp_path / "b")
    assert [op.name for op in again.ops if op.error is not None] == ["convergence"]


def test_command_prints_environment_and_result(tmp_path):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "wide_eval", "--seed", "2",
         "--seconds", "0", "--trace", "0", "--size", "smoke"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    *_, env_line, last = done.stdout.strip().splitlines()
    res = json.loads(last)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0
    env = json.loads(env_line)["env"]
    assert env["seed"] == 2
    assert {"nproc", "python", "numpy", "scipy", "blas", "blas_threads", "cpu"} <= set(env)


def test_command_fails_without_a_checkout(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "large_m", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert "{" not in done.stdout


def test_same_seed_same_inputs(tmp_path):
    workload = workloads.make("wide_eval", "smoke")
    a = workload.setup(5, tmp_path)
    b = workload.setup(5, tmp_path)
    c = workload.setup(6, tmp_path)
    assert np.array_equal(a.queries, b.queries) and np.array_equal(a.data.x, b.data.x)
    assert not np.array_equal(a.queries, c.queries)
