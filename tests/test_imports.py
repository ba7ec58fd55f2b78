"""scipy is imported on first use: by the first distance query or factorization.

Each check runs in a fresh interpreter, since this one has scipy loaded
by the tests themselves.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import kernelkoop

# Runs each step in turn and prints, after each, the scipy modules loaded so far.
_CHILD = """
import contextlib, io, json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

def run(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli.main(argv)
        except SystemExit as exc:
            return exc.code

out, bad = sys.argv[1], sys.argv[2]
loaded = {}
import kernelkoop
loaded["import kernelkoop"] = (None, scipy_modules())
import kernelkoop.cli as cli, kernelkoop.io
loaded["import kernelkoop.cli, kernelkoop.io"] = (None, scipy_modules())
for name, argv in [
    ("simulate", ["--out", out, "simulate"]),
    ("--help", ["--help"]),
    ("config error", ["--config", bad, "--out", out, "fit"]),
    ("fit", ["--out", out, "fit"]),
]:
    loaded[name] = (run(argv), scipy_modules())
print(json.dumps(loaded))
"""


def test_scipy_is_loaded_by_the_first_computation_only(tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text("[fit]\neta = abc\n")
    env = dict(os.environ)
    src = str(Path(kernelkoop.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", _CHILD, str(tmp_path / "out"), str(bad)],
        env=env, capture_output=True, text=True, check=True,
    )
    loaded = json.loads(done.stdout)
    fit_code, after_fit = loaded.pop("fit")
    assert {step: modules for step, (_, modules) in loaded.items()} == dict.fromkeys(loaded, [])
    assert [code for code, _ in loaded.values()] == [None, None, 0, 0, 2]
    assert fit_code == 0
    assert {"scipy.linalg", "scipy.spatial"} <= set(after_fit)


# Runs each step in turn and prints, after each, the threads alive and whether a
# module of concurrent.futures is loaded; then a query that shares its many blocks,
# fill distance over 3000 points, after which the helper threads number one less
# than the CPUs the process may use, at most 1 (scipy, loaded by the query, imports
# concurrent.futures itself).
_THREADS_CHILD = """
import contextlib, io, json, os, sys, threading

def state():
    return threading.active_count(), any(m.split(".")[0] == "concurrent" for m in sys.modules)

def run(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli.main(argv)
        except SystemExit as exc:
            return exc.code

seen = {}
import kernelkoop
seen["import kernelkoop"] = state()
import kernelkoop.cli as cli
for name, argv in [("simulate", ["--out", sys.argv[1], "simulate"]), ("--help", ["--help"])]:
    run(argv)
    seen[name] = state()
import numpy as np
points = np.random.default_rng(0).uniform(size=(3000, 2))
kernelkoop.fill_distance(points[::3], points)
seen["a query of many blocks"] = state()
seen["cpus"] = len(os.sched_getaffinity(0))
print(json.dumps(seen))
"""


def test_no_thread_and_no_executor_before_a_query_of_many_blocks(tmp_path):
    env = dict(os.environ)
    src = str(Path(kernelkoop.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", _THREADS_CHILD, str(tmp_path / "out")],
        env=env, capture_output=True, encoding="utf-8", check=True,
    )
    seen = json.loads(done.stdout)
    cpus = seen.pop("cpus")
    shared = seen.pop("a query of many blocks")
    assert seen == dict.fromkeys(seen, [1, False])
    assert shared[0] == min(cpus, 2)
