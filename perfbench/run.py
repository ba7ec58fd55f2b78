"""Run one kernelkoop benchmark workload and print its metrics.

From the root of a repository checkout:

    python3 perfbench/run.py --workload large_m --seed 1 --seconds 50 --trace 0

The workload's inputs are generated from ``--seed``.  Passes over the
workload repeat until ``--seconds`` is used up; every pass is checked.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The line before it records the machine and library versions.  See
README.md next to this file for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = ROOT / ".perfbench_work"

WORKLOADS = ("paper_cli", "long_inputs", "large_m", "wide_eval")

# Fresh processes whose set-up is timed for setup_s, one before each pass
# until there are this many; the median is reported.
SETUP_PROBES = {"full": 5, "smoke": 1}
# Fresh processes timing `import kernelkoop.cli` for cli.import_s.
IMPORT_PROBES = 3


def nproc() -> int:
    return len(os.sched_getaffinity(0))


@contextlib.contextmanager
def work_dir():
    """A scratch directory inside the checkout, removed afterwards."""
    WORK_ROOT.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(dir=WORK_ROOT))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()


def probe_setup(name: str, seed: int, size: str) -> float:
    """Seconds from starting a fresh interpreter until its set-up is done."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
           "--size", size, "--setup-probe"]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait()
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up of {name} failed in a fresh process (exit code {code})")
    return elapsed


def probe_import() -> float:
    """Seconds a fresh interpreter spends in `import kernelkoop.cli`."""
    import workloads

    code = "import time; t = time.perf_counter(); import kernelkoop.cli; print(time.perf_counter() - t)"
    done = subprocess.run([sys.executable, "-c", code], env=workloads.child_env(),
                          capture_output=True, text=True, check=True)
    return float(done.stdout)


def blas_threads() -> dict[str, int]:
    """Thread count of every OpenBLAS library loaded in this process."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and ".so" in ln})
    found = {}
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(lib).name] = fn()
                break
    return found


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    cpu = "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "seed": seed,
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "cpu": cpu,
    }


def run_benchmark(name: str, seed: int, seconds: float, trace: bool, size: str = "full") -> dict:
    """Set up, run passes for ``seconds``, check them and compute the metrics.

    With ``trace`` the passes alternate untraced and traced, both calling
    the package in-process; otherwise every pass is untraced.
    """
    # imported here, not at the top, so that main() sets the BLAS thread
    # count before numpy loads
    import workloads
    from tracer import Tracer, layer_metrics

    workload = workloads.make(name, size)
    import_s = [probe_import() for _ in range(IMPORT_PROBES)] if trace else []
    setup_s, untraced, traced = [], [], []
    probing = 0.0
    with work_dir() as work:
        state = workload.setup(seed, work)
        reference = None
        start = time.perf_counter()
        while True:
            if not trace and len(setup_s) < SETUP_PROBES[size]:
                # Interleaved with the passes, so that set-up and passes are
                # timed over the same stretch of the host's speed.  Probe
                # time does not count toward ``seconds``.
                t0 = time.perf_counter()
                setup_s.append(probe_setup(name, seed, size))
                probing += time.perf_counter() - t0
            out = work / f"pass{len(untraced) + len(traced)}"
            if trace and len(traced) < len(untraced):
                tracer = Tracer()
                with tracer:
                    p = workload.run_pass(state, out, in_process=True)
                p.spans = tracer.spans
                traced.append(p)
            else:
                p = workload.run_pass(state, out, in_process=trace)
                untraced.append(p)
            workload.check(state, p, reference, out)
            reference = reference or p
            done = len(untraced) + len(traced)
            elapsed = time.perf_counter() - start - probing
            if (traced or not trace) and elapsed + elapsed / done > seconds:
                break
    while not trace and len(setup_s) < SETUP_PROBES[size]:
        setup_s.append(probe_setup(name, seed, size))

    passes = untraced + traced
    ops = [op for p in passes for op in p.ops]
    failures = [f"{op.name}: {op.error}" for op in ops if op.error is not None]
    if trace:
        median_pass = sorted(traced, key=lambda p: p.wall_ns)[(len(traced) - 1) // 2]
        metrics = layer_metrics(median_pass.spans, median_pass.wall_ns)
        metrics["cli.import_s"] = statistics.median(import_s)
        metrics["trace.overhead_s"] = (
            statistics.median(p.wall_ns for p in traced) - statistics.median(p.wall_ns for p in untraced)
        ) / 1e9
    else:
        rss = max(p.child_rss_mib for p in passes) or workloads.peak_rss_mib()
        metrics = {
            "setup_s": statistics.median(setup_s),
            "wall_s": statistics.median(p.wall_ns for p in passes) / 1e9,
            "fit_s": statistics.median(p.fit_ns for p in passes) / 1e9,
            "eval_qps": statistics.median(p.queries * 1e9 / p.eval_ns if p.eval_ns else 0.0 for p in passes),
            "peak_rss_mib": rss,
            "max_abs_err": statistics.median(p.max_abs_err for p in passes),
        }
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    return {
        "correct": not failures,
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
        "failures": failures,
        "untraced_passes": untraced,
        "traced_passes": traced,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: reduced inputs for the test suite")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "kernelkoop" / "__init__.py").is_file():
        print(f"error: {ROOT} holds no src/kernelkoop; run from a repository checkout",
              file=sys.stderr)
        return 2
    # at most nproc BLAS threads, here and in every child interpreter
    os.environ["OPENBLAS_NUM_THREADS"] = str(nproc())

    if args.setup_probe:
        import workloads

        with work_dir() as work:
            workloads.make(args.workload, args.size).setup(args.seed, work)
            print("ready", flush=True)
        return 0

    result = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    failures = result.pop("failures")
    passes = len(result.pop("untraced_passes")) + len(result.pop("traced_passes"))
    for line in failures:
        print(f"failed: {line}")
    print(f"{args.workload}: {passes} passes, fail_ratio {result['failed'] / result['attempted']:.4g} "
          f"({result['failed']}/{result['attempted']} operations failed)")
    print(json.dumps({"env": environment(args.seed)}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
