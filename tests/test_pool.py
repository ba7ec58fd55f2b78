"""The distance layer's threads: ``kernels._each`` and the queries it shares.

The number of participants must change no bit of any result, and the
failure contract must hold whichever thread meets the failure: the error
is raised in the caller, after which no participant takes a further block.
Each test sets ``_participants`` itself, so it runs the same on any host,
and most set ``_MAX_ENTRIES`` to 8 so that small examples span many blocks.
The last tests run a fresh interpreter each, for what happens once per
process: a query at interpreter shutdown, in a forked child, and the first
query of two threads at once.
"""

import hashlib
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import kernelkoop.cli as cli
import kernelkoop.kernels as kernels
from kernelkoop import (
    DegenerateInputError,
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
# how long a test holds one participant inside a block, so that another takes the next
WAIT = 5.0


def _in_helper() -> bool:
    return threading.current_thread() is not threading.main_thread()


def _results(spec: KernelSpec) -> dict[str, bytes]:
    """The bytes of every shared query on a short pendulum run, 1 and 3 outputs."""
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
    for n in (1, 2, 3):
        monkeypatch.setattr(kernels, "_participants", lambda n=n: n)
        threads.clear()
        results[n] = _results(spec)
        assert len(threads) == 1 if n == 1 else len(threads) >= 2, (n, threads)
    assert results[2] == results[1]
    assert results[3] == results[1]


@pytest.mark.parametrize(
    "query, message",
    [
        (lambda p: kernel_matrix(KernelSpec("wendland_c2"), p, p),
         "kernel centers must be pairwise distinct"),
        (separation, "centers must be pairwise distinct"),
    ],
    ids=["gram", "separation"],
)
def test_a_duplicate_in_a_helpers_panel_raises_in_the_caller(query, message, monkeypatch):
    monkeypatch.setattr(kernels, "_MAX_ENTRIES", 8)
    monkeypatch.setattr(kernels, "_participants", lambda: 2)
    points = np.random.default_rng(9).uniform(-1.0, 1.0, size=(40, 3))
    points[35] = points[27]  # in the panel of rows 24..31, which holds 16 columns
    seen = threading.Event()
    takers = {}
    cdist = kernels._cdist

    def spy(a, b, out=None):
        if _in_helper():
            takers[len(b)] = "helper"
            if len(b) == 16:
                seen.set()
        else:
            takers.setdefault(len(b), "caller")
            seen.wait(WAIT)  # the caller holds its first panel until a helper has the duplicate
        return cdist(a, b, out=out)

    monkeypatch.setattr(kernels, "_cdist", spy)
    with pytest.raises(DegenerateInputError, match=f"^{message}$"):
        query(points)
    assert takers[16] == "helper"


def test_a_helpers_memory_error_exits_3_with_one_error_line(tmp_path, capsys, monkeypatch):
    out = str(tmp_path / "out")
    assert cli.main(["--out", out, "simulate"]) == 0
    capsys.readouterr()
    monkeypatch.setattr(kernels, "_MAX_ENTRIES", 8)
    monkeypatch.setattr(kernels, "_participants", lambda: 2)
    raised = threading.Event()
    profile = kernels._profile

    def spy(spec, r, out=None):
        if _in_helper():
            raised.set()
            raise MemoryError("a helper's block")
        raised.wait(WAIT)  # the caller holds its first block until a helper has failed
        return profile(spec, r, out=out)

    monkeypatch.setattr(kernels, "_profile", spy)
    assert cli.main(["--out", out, "fit"]) == 3
    captured = capsys.readouterr()
    assert captured.err == "error: out of memory: a helper's block\n"
    assert captured.out == ""
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["trajectory.csv"]


def test_after_a_helpers_error_the_caller_takes_no_further_item(monkeypatch):
    monkeypatch.setattr(kernels, "_participants", lambda: 2)
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
    monkeypatch.setattr(kernels, "_participants", lambda: 2)
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
    monkeypatch.setattr(kernels, "_participants", lambda: 4)
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
    monkeypatch.setattr(kernels, "_participants", lambda: 1)
    seen = []
    kernels._each(lambda item: seen.append((item, _in_helper())), list(range(20)))
    assert seen == [(i, False) for i in range(20)]


def test_participants_follow_the_cpus_this_process_may_use(monkeypatch):
    monkeypatch.setattr(kernels.os, "sched_getaffinity", lambda pid: {0})
    assert kernels._participants() == 1
    monkeypatch.setattr(kernels.os, "sched_getaffinity", lambda pid: set(range(8)))
    assert kernels._participants() == 2
    # a participant's own queries are not shared again
    nested = []
    kernels._each(lambda item: nested.append(kernels._participants()), list(range(4)))
    assert nested == [1, 1, 1, 1]


def test_helpers_run_under_the_callers_errstate(monkeypatch):
    monkeypatch.setattr(kernels, "_MAX_ENTRIES", 8)
    monkeypatch.setattr(kernels, "_participants", lambda: 2)
    # 1000 apart, every kernel value but the diagonal underflows in exp
    points = 1000.0 * np.arange(40.0)[:, None]
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
        kernel_matrix(KernelSpec("matern"), points, points[::-1])
    assert helper_raised.is_set()


# Prefix of the scripts below, each run in a fresh interpreter: two participants
# whatever the host, and one shared query, a Gram of 3000 points, as a digest.
_QUERY = """
import hashlib, json, os, sys, threading
import numpy as np
import kernelkoop.kernels as kernels
from kernelkoop import KernelSpec, kernel_matrix

kernels._participants = lambda: 2
points = np.random.default_rng(0).uniform(size=(3000, 2))

def query():
    return hashlib.sha256(kernel_matrix(KernelSpec("matern"), points, points).tobytes()).hexdigest()
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
    monkeypatch.setattr(kernels, "_participants", lambda: 1)
    points = np.random.default_rng(0).uniform(size=(3000, 2))
    return hashlib.sha256(kernel_matrix(KernelSpec("matern"), points, points).tobytes()).hexdigest()


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
    gram = kernel_matrix(KernelSpec("matern"), points, points)
    child = {"child": hashlib.sha256(gram.tobytes()).hexdigest()}
    ref = weakref.ref(gram)
    del gram
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
