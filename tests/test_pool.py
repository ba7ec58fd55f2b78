"""The distance layer's threads: ``kernels._each`` and the two row sweeps it shares.

Only ``koopman.predict`` and fill distance's ``kernels._nearest`` share
their blocks, as ``_each``'s docstring describes; the Gram, the cross
matrix and ``separation`` run in the calling thread.  Whether the helper
shares a sweep must change no bit of any result, and the failure contract
must hold whichever thread meets the failure: the error is raised in the
caller, after which neither thread takes a further block.  Each test sets
``_shares`` itself, so it runs the same on any host, and most set
``_MAX_ENTRIES`` to 8 so that small examples span many blocks.  The last
tests run a fresh interpreter each, for what happens once per process:
which queries start a helper, a query at interpreter shutdown, in a forked
child, and the first query of two threads at once.
"""

import ast
import hashlib
import json
import os
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import kernelkoop.cli as cli
import kernelkoop.kernels as kernels
from kernelkoop import (
    KernelSpec,
    PendulumConfig,
    TrajectoryDataset,
    fill_distance,
    fit_pullback,
    fit_umf,
    kernel_matrix,
    observable_G,
    predict,
    separation,
    simulate,
    subselect_centers,
)

SPECS = [KernelSpec("matern", beta=1.0), KernelSpec("wendland_c4", support_scale=0.5)]
# how long a test holds one thread inside a block, so that the other takes the next
WAIT = 5.0


def _in_helper() -> bool:
    return threading.current_thread() is not threading.main_thread()


def _results(spec: KernelSpec) -> dict[str, bytes]:
    """The bytes of each query, fit and predict on a short pendulum run, 1 and 3 outputs."""
    ds = simulate(PendulumConfig(steps=300))
    centers = subselect_centers(ds, 0.2)
    y3 = np.column_stack([ds.y_next[:, 0], np.sin(ds.x_next[:, 0]), ds.x_next[:, 1]])
    ds3 = TrajectoryDataset(k=ds.k, x=ds.x, x_next=ds.x_next, y_next=y3)
    g1 = observable_G(centers.points)
    g3 = np.column_stack([g1, centers.points])
    queries = np.random.default_rng(4).uniform(-2.0, 2.0, size=(61, 2))
    out = {
        "cross": kernel_matrix(spec, queries, centers.points),
        "gram": kernel_matrix(spec, centers, centers),
        "fill": np.float64(fill_distance(centers, ds.x)),
        "separation": np.float64(separation(centers)),
    }
    for name, data, g in (("1", ds, g1), ("3", ds3, g3)):
        for est in (fit_pullback(data, centers, spec), fit_umf(data, centers, spec, g_at_centers=g)):
            key = f"{est.mode.value}{name}"
            out[f"alpha_{key}"] = est.alpha
            out[f"predict_{key}"] = predict(est, queries)
    return {key: np.asarray(value).tobytes() for key, value in out.items()}


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.label)
def test_the_number_of_participants_changes_no_bit(spec, monkeypatch):
    monkeypatch.setattr(kernels, "_MAX_ENTRIES", 8)
    threads = set()
    cdist = kernels._cdist

    def spy(*args, **kwargs):
        threads.add(threading.current_thread().name)
        time.sleep(1e-4)  # lets a helper in on short queries
        return cdist(*args, **kwargs)

    monkeypatch.setattr(kernels, "_cdist", spy)
    results = {}
    for shares in (False, True):
        monkeypatch.setattr(kernels, "_shares", lambda shares=shares: shares)
        threads.clear()
        results[shares] = _results(spec)
        assert len(threads) == 2 if shares else len(threads) == 1, (shares, threads)
    assert results[True] == results[False]


def test_a_helpers_memory_error_exits_3_with_one_error_line(tmp_path, capsys, monkeypatch):
    out = str(tmp_path / "out")
    assert cli.main(["--out", out, "simulate"]) == 0
    capsys.readouterr()
    monkeypatch.setattr(kernels, "_MAX_ENTRIES", 8)
    shared, raised = threading.Event(), threading.Event()

    def shares():
        shared.set()  # called by _each: the caller is in a shared query, the fit's predict
        return True

    monkeypatch.setattr(kernels, "_shares", shares)
    profile = kernels._profile

    def spy(spec, r, out=None):
        if _in_helper():
            raised.set()
            raise MemoryError("a helper's block")
        if shared.is_set():
            raised.wait(WAIT)  # the caller holds its first shared block until a helper has failed
        return profile(spec, r, out=out)

    monkeypatch.setattr(kernels, "_profile", spy)
    assert cli.main(["--out", out, "fit"]) == 3
    captured = capsys.readouterr()
    assert captured.err == "error: out of memory: a helper's block\n"
    assert captured.out == ""
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["trajectory.csv"]


def test_after_a_helpers_error_the_caller_takes_no_further_item(monkeypatch):
    monkeypatch.setattr(kernels, "_shares", lambda: True)
    taken, failed = threading.Event(), threading.Event()
    calls = []

    def fn(item):
        calls.append(("helper" if _in_helper() else "caller", item))
        if _in_helper():
            taken.wait(WAIT)  # the helper fails only once the caller has an item of its own
            failed.set()
            raise ValueError("helper")
        taken.set()
        failed.wait(WAIT)
        time.sleep(0.05)  # the helper records its error meanwhile

    with pytest.raises(ValueError, match="^helper$"):
        kernels._each(fn, list(range(50)))
    assert sorted(who for who, _ in calls) == ["caller", "helper"]


def test_after_the_callers_error_the_helper_takes_no_further_item(monkeypatch):
    monkeypatch.setattr(kernels, "_shares", lambda: True)
    started = threading.Event()
    calls = []

    def fn(item):
        if _in_helper():
            calls.append("start")
            started.set()
            time.sleep(0.05)  # the caller fails meanwhile
            calls.append("end")
            return
        started.wait(WAIT)
        raise ValueError("caller")

    with pytest.raises(ValueError, match="^caller$"):
        kernels._each(fn, list(range(50)))
    # the helper's one item had finished by the time _each raised
    assert calls == ["start", "end"]


def test_every_item_is_taken_once_by_more_participants_than_cpus(monkeypatch):
    monkeypatch.setattr(kernels, "_shares", lambda: True)
    counts = [0] * 20_000

    def fn(item):
        counts[item] += 1  # a read-modify-write: an item taken twice would show as 2

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        caller = threading.Thread(target=kernels._each, args=(fn, list(range(len(counts)))))
        caller.start()
        caller.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not caller.is_alive()
    assert counts == [1] * len(counts)


def test_one_participant_is_a_plain_loop_in_the_caller(monkeypatch):
    monkeypatch.setattr(kernels, "_shares", lambda: False)
    seen = []
    kernels._each(lambda item: seen.append((item, _in_helper())), list(range(20)))
    assert seen == [(i, False) for i in range(20)]


class _Executor(ThreadPoolExecutor):
    """``kernels._EXECUTOR``'s kind, counting the jobs submitted; a refusing one raises."""

    def __init__(self, refuse: bool = False):
        super().__init__(1, thread_name_prefix="test-helper")
        self.refuse, self.jobs = refuse, 0

    def submit(self, fn, *args, **kwargs):
        self.jobs += 1
        if self.refuse:  # what an executor does once the interpreter is shutting down
            raise RuntimeError("cannot schedule new futures after interpreter shutdown")
        return super().submit(fn, *args, **kwargs)


@pytest.mark.parametrize("shares, items, jobs", [(False, 20, 0), (True, 1, 0), (True, 20, 1)])
def test_each_submits_at_most_one_job(shares, items, jobs, monkeypatch):
    monkeypatch.setattr(kernels, "_shares", lambda: shares)
    seen = []
    with _Executor() as executor:
        monkeypatch.setattr(kernels, "_EXECUTOR", executor)
        kernels._each(lambda item: (time.sleep(1e-4), seen.append(item)), list(range(items)))
    assert sorted(seen) == list(range(items))
    assert executor.jobs == jobs


def test_a_refused_job_leaves_every_item_to_the_caller(one_thread_digest, monkeypatch):
    monkeypatch.setattr(kernels, "_shares", lambda: True)
    threads, cdist = set(), kernels._cdist

    def spy(*args, **kwargs):
        threads.add(threading.current_thread())
        return cdist(*args, **kwargs)

    monkeypatch.setattr(kernels, "_cdist", spy)
    points = np.random.default_rng(0).uniform(size=(3000, 2))
    with _Executor(refuse=True) as executor:
        monkeypatch.setattr(kernels, "_EXECUTOR", executor)
        near = kernels._nearest(points, points[::3])
    assert hashlib.sha256(near.tobytes()).hexdigest() == one_thread_digest
    assert (executor.jobs, threads) == (1, {threading.current_thread()})


class _Interrupted(Exception):
    pass


def _interrupt(signum, frame):
    raise _Interrupted


@pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="no SIGALRM on this platform")
def test_a_caller_interrupted_while_waiting_raises_before_the_helpers_item_ends(monkeypatch):
    monkeypatch.setattr(kernels, "_shares", lambda: True)
    held, release = threading.Event(), threading.Event()
    calls = []

    def fn(item):
        if _in_helper():
            calls.append("start")
            held.set()
            release.wait(WAIT)  # the helper holds its item until the test lets it go
            calls.append("end")
        else:
            held.wait(WAIT)
            # the caller has the other item and then none is left: it is waiting for the
            # helper when the alarm interrupts it
            signal.setitimer(signal.ITIMER_REAL, 0.05)

    previous = signal.signal(signal.SIGALRM, _interrupt)
    try:
        with pytest.raises(_Interrupted):
            kernels._each(fn, [0, 1])
        assert calls == ["start"]
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        release.set()
    deadline = time.monotonic() + WAIT
    while calls != ["start", "end"] and time.monotonic() < deadline:
        time.sleep(0.01)
    assert calls == ["start", "end"]


def test_participants_follow_the_cpus_this_process_may_use(monkeypatch):
    monkeypatch.setattr(kernels.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert kernels._shares() is False
    monkeypatch.setattr(kernels.os, "sched_getaffinity", lambda pid: set(range(8)))
    assert kernels._shares() is True
    # a platform without the affinity call counts the CPUs of the machine; None is unknown
    monkeypatch.delattr(kernels.os, "sched_getaffinity")
    monkeypatch.setattr(kernels.os, "cpu_count", lambda: None)
    assert kernels._shares() is False
    monkeypatch.setattr(kernels.os, "cpu_count", lambda: 4)
    assert kernels._shares() is True


def test_helpers_run_under_the_callers_errstate(monkeypatch):
    monkeypatch.setattr(kernels, "_MAX_ENTRIES", 8)
    monkeypatch.setattr(kernels, "_shares", lambda: True)
    # centers 1000 apart and queries halfway between them: every kernel value of the
    # predict underflows in exp, in 5 blocks of 8 rows
    x = 1000.0 * np.arange(40.0)[:, None]
    ds = TrajectoryDataset(k=np.arange(40), x=x, x_next=x, y_next=np.ones((40, 1)))
    estimate = fit_pullback(ds, subselect_centers(ds, 1.0), KernelSpec("matern"))
    helper_raised = threading.Event()
    profile = kernels._profile

    def spy(spec, r, out=None):
        if not _in_helper():
            helper_raised.wait(WAIT)  # the caller holds its first block until a helper has raised
            return profile(spec, r, out=out)
        try:
            return profile(spec, r, out=out)
        except FloatingPointError:
            helper_raised.set()
            raise

    monkeypatch.setattr(kernels, "_profile", spy)
    with np.errstate(under="raise"), pytest.raises(FloatingPointError, match="underflow"):
        predict(estimate, x + 500.0)
    assert helper_raised.is_set()


# Prefix of the scripts below, each run in a fresh interpreter: a shared sweep
# whatever the host, and one shared query as a digest: fill distance's sweep, each of
# 3000 points' distance to the nearest of 1000 centers, in 24 blocks of 128 rows.
_QUERY = """
import hashlib, json, os, sys, threading
import numpy as np
import kernelkoop.kernels as kernels
from kernelkoop import KernelSpec, fill_distance, kernel_matrix, separation

kernels._shares = lambda: True
points = np.random.default_rng(0).uniform(size=(3000, 2))
centers = points[::3]

def query():
    return hashlib.sha256(kernels._nearest(points, centers).tobytes()).hexdigest()
"""


def _run(script: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    src = str(Path(kernels.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-c", _QUERY + script, *args],
        env=env, capture_output=True, encoding="utf-8", timeout=120,
    )


@pytest.fixture
def one_thread_digest(monkeypatch):
    monkeypatch.setattr(kernels, "_shares", lambda: False)
    points = np.random.default_rng(0).uniform(size=(3000, 2))
    return hashlib.sha256(kernels._nearest(points, points[::3]).tobytes()).hexdigest()


def test_only_the_two_row_sweeps_call_each():
    callers = set()
    for path in sorted(Path(kernels.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text("utf-8")).body:
            for node in ast.walk(top):
                func = getattr(node, "func", None)
                if "_each" in (getattr(func, "id", None), getattr(func, "attr", None)):
                    callers.add((path.stem, getattr(top, "name", None)))
    assert callers == {("kernels", "_nearest"), ("koopman", "predict")}


def test_the_matrix_queries_run_in_the_caller_and_fill_distance_shares():
    # the threads that ran a distance, query by query, the three matrix queries both
    # before the first helper exists and after
    done = _run("""
cdist, ran = kernels._cdist, set()

def spy(*args, **kwargs):
    ran.add(threading.current_thread().name.startswith("kernelkoop-helper"))
    return cdist(*args, **kwargs)

kernels._cdist = spy
spec, seen = KernelSpec("matern"), []
queries = {
    "gram": lambda: kernel_matrix(spec, points, points),
    "cross": lambda: kernel_matrix(spec, points, centers),
    "separation": lambda: separation(points),
    "fill": lambda: fill_distance(centers, points),
}
for name in ["gram", "cross", "separation", "fill", "gram", "cross", "separation"]:
    ran.clear()
    queries[name]()
    seen.append([name, sorted(ran)])
print(json.dumps(seen))
""")
    assert done.returncode == 0, done.stderr
    helper = [name for name, ran in json.loads(done.stdout) if ran != [False]]
    assert helper == ["fill"]


@pytest.mark.parametrize("before", ["never", "after a query"])
def test_a_query_at_interpreter_shutdown_runs_in_the_caller(before, one_thread_digest):
    # atexit handlers run after the threading module's shutdown, which stops the helper
    # and refuses new threads, jobs and the import of concurrent.futures.thread
    done = _run("""
import atexit
atexit.register(lambda: print(query()))
if sys.argv[1] != "never":
    print(query())
""", before)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.split() == [one_thread_digest] * (1 if before == "never" else 2)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork on this platform")
def test_a_forked_child_shares_its_queries_and_keeps_no_array(one_thread_digest):
    # the parent's helper thread is not in the child; the child's query must neither
    # wait for it nor leave its arrays to a job that no thread will run
    done = _run("""
import gc, signal, time, weakref
seen = {"parent": query()}
read, write = os.pipe()
pid = os.fork()
if pid == 0:
    signal.alarm(60)  # a child that hangs is killed
    near = kernels._nearest(points, centers)
    child = {"child": hashlib.sha256(near.tobytes()).hexdigest()}
    ref = weakref.ref(near)
    del near
    deadline = time.monotonic() + 10.0
    while ref() is not None and time.monotonic() < deadline:
        gc.collect()
        time.sleep(0.01)
    child["released"] = ref() is None
    os.write(write, json.dumps(child).encode())
    os._exit(0)
os.close(write)
with os.fdopen(read) as pipe:
    seen.update(json.loads(pipe.read() or "{}"))
seen["status"] = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
print(json.dumps(seen))
""")
    assert done.returncode == 0, done.stderr
    seen = json.loads(done.stdout)
    assert seen == {"parent": one_thread_digest, "child": one_thread_digest, "released": True, "status": 0}


def test_first_use_from_two_threads_starts_one_helper(one_thread_digest):
    # a second executor would not show afterwards: its thread ends once its last job
    # is gone, so the threads that ran a block are counted as well as those left alive
    done = _run("""
cdist, ran = kernels._cdist, set()

def spy(*args, **kwargs):
    if threading.current_thread().name.startswith("kernelkoop-helper"):
        ran.add(threading.current_thread())
    return cdist(*args, **kwargs)

kernels._cdist = spy
start, digests = threading.Barrier(2), []

def run():
    start.wait()  # both threads ask for the helper at the same moment
    digests.append(query())

threads = [threading.Thread(target=run) for _ in range(2)]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join()
alive = [t for t in threading.enumerate() if t.name.startswith("kernelkoop-helper")]
print(json.dumps({"digests": digests, "ran a block": len(ran), "alive": len(alive)}))
""")
    assert done.returncode == 0, done.stderr
    seen = json.loads(done.stdout)
    assert seen == {"digests": [one_thread_digest] * 2, "ran a block": 1, "alive": 1}
