"""The distance layer's threads: ``kernels._each`` and the queries it shares.

The number of participants must change no bit of any result, and the
failure contract must hold whichever thread meets the failure: the error
is raised in the caller, after which no participant takes a further block.
Each test sets ``_participants`` itself, so it runs the same on any host,
and most set ``_MAX_ENTRIES`` to 8 so that small examples span many blocks.
"""

import sys
import threading
import time

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
    failed = threading.Event()
    calls = []

    def fn(item):
        calls.append(("helper" if _in_helper() else "caller", item))
        if _in_helper():
            failed.set()
            raise ValueError("helper")
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
