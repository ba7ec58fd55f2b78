"""Spans around kernelkoop's public functions, installed from outside the package.

`Tracer` replaces each traced function with a wrapper in every kernelkoop
module that binds it, so calls through ``from .x import y`` names (for
example ``kernelkoop.mocap.fit_pullback``) are seen as well as calls
through the defining module.  Each call records a span: its name, layer,
start, end and parent span.  Counts are taken at the same boundary, from
the call's arguments and result.  Leaving the ``with`` block restores
every original binding.

Functions called once per trajectory step or per marker frame
(``pendulum_step``, ``eval_kernel``, ``project_sagittal``,
``joint_angles``, ``io.fmt``) are not wrapped: a span per element would
time the tracer, not the layer.  Their cost shows in the self time of
the traced function that calls them.
"""

from __future__ import annotations

import importlib
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

LAYERS = ("cli", "io", "dynamics", "geometry", "kernels", "linsys", "koopman", "mocap")


@dataclass
class Span:
    name: str
    layer: str
    group: str | None
    start_ns: int
    end_ns: int = 0
    parent: int | None = None
    child_ns: int = 0
    counts: dict = field(default_factory=dict)

    @property
    def self_ns(self) -> int:
        return self.end_ns - self.start_ns - self.child_ns


# ---------------------------------------------------------------------------
# counters: (args, kwargs, result) -> counts recorded on the span


def _n_points(obj) -> int:
    """Number of points in a dataset, PointSet or array, as the package reads them."""
    if hasattr(obj, "x") and hasattr(obj, "k"):
        return len(obj.x)
    if hasattr(obj, "points"):
        return len(obj.points)
    return len(np.asarray(obj))


def _points(obj) -> np.ndarray:
    return np.asarray(obj.points if hasattr(obj, "points") else obj, dtype=float)


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _count_main(args, kwargs, result):
    return {"commands": 1}


def _count_write(args, kwargs, result):
    path = _arg(args, kwargs, 0, "path")
    return {"bytes_written": os.path.getsize(path)}


def _count_read(args, kwargs, result):
    path = _arg(args, kwargs, 0, "path")
    return {"bytes_read": os.path.getsize(path)}


def _count_simulate(args, kwargs, result):
    return {"steps": len(result)}


def _count_subselect(args, kwargs, result):
    seed = _arg(args, kwargs, 2, "seed_centers")
    scanned = _n_points(_arg(args, kwargs, 0, "trajectory"))
    kept = len(result) - (len(seed) if seed is not None else 0)
    return {"states_scanned": scanned, "centers_kept": kept}


def _count_fill(args, kwargs, result):
    centers = _arg(args, kwargs, 0, "centers")
    reference = _arg(args, kwargs, 1, "reference")
    return {"fill_pairs": _n_points(centers) * _n_points(reference)}


def _count_kernel_matrix(args, kwargs, result):
    a = _points(_arg(args, kwargs, 1, "A"))
    b = _points(_arg(args, kwargs, 2, "B"))
    # the package's own test for symmetric assembly
    same = a is b or (a.shape == b.shape and np.array_equal(a, b))
    kind = "sym" if same else "cross"
    return {f"{kind}_calls": 1, f"{kind}_entries": result.size, "bytes_computed": result.nbytes}


def _count_solve(args, kwargs, result):
    m = np.shape(_arg(args, kwargs, 0, "K"))[0]
    rhs = np.shape(_arg(args, kwargs, 1, "rhs"))
    nrhs = rhs[1] if len(rhs) > 1 else 1
    return {
        "solves": 1,
        "max_m": m,
        # Cholesky factor plus the two triangular solves of the system posed
        "flops_computed": m**3 / 3.0 + 2.0 * m * m * nrhs,
        "jittered": int(result.jitter_used > 0),
    }


def _count_diag(args, kwargs, result):
    return {"diag_calls": 1, "max_m": np.shape(_arg(args, kwargs, 0, "K"))[0]}


def _count_fit(args, kwargs, result):
    return {"fits": 1}


def _count_predict(args, kwargs, result):
    x = np.asarray(_arg(args, kwargs, 1, "x"))
    return {"queries": 1 if x.ndim == 1 else x.shape[0]}


def _count_frames(args, kwargs, result):
    return {"frames": len(result)}


# (module, function, layer, group, counter).  The group names the per-layer
# metric the span's self time is added to; None adds it to the layer only.
TARGETS = (
    ("kernelkoop.cli", "main", "cli", None, _count_main),
    *(
        ("kernelkoop.cli", f"cmd_{c}", "cli", None, None)
        for c in ("simulate", "fit", "convergence", "conditioning", "mineig", "mocap")
    ),
    ("kernelkoop.io", "atomic_write_text", "io", "write", _count_write),
    ("kernelkoop.io", "write_rows_csv", "io", "write", None),
    ("kernelkoop.io", "write_trajectory_csv", "io", "write", None),
    ("kernelkoop.io", "write_pointset_csv", "io", "write", None),
    ("kernelkoop.io", "write_estimate_csv", "io", "write", None),
    ("kernelkoop.io", "read_trajectory_csv", "io", "read", _count_read),
    ("kernelkoop.io", "read_pointset_csv", "io", "read", _count_read),
    ("kernelkoop.io", "read_estimate_csv", "io", "read", _count_read),
    ("kernelkoop.dynamics", "simulate", "dynamics", "simulate", _count_simulate),
    ("kernelkoop.geometry", "subselect_centers", "geometry", "subselect", _count_subselect),
    ("kernelkoop.geometry", "nested_center_sets", "geometry", None, None),
    ("kernelkoop.geometry", "fill_distance", "geometry", "fill", _count_fill),
    ("kernelkoop.geometry", "separation", "geometry", None, None),
    # split into kernels.sym_s and kernels.cross_s by its counts
    ("kernelkoop.kernels", "kernel_matrix", "kernels", None, _count_kernel_matrix),
    ("kernelkoop.linsys", "solve_spd", "linsys", "solve", _count_solve),
    ("kernelkoop.linsys", "spectral_diagnostics", "linsys", "diag", _count_diag),
    ("kernelkoop.koopman", "fit_pullback", "koopman", "fit", _count_fit),
    ("kernelkoop.koopman", "fit_umf", "koopman", "fit", _count_fit),
    ("kernelkoop.koopman", "predict", "koopman", "predict", _count_predict),
    ("kernelkoop.mocap", "read_marker_csv", "mocap", "read", _count_frames),
    ("kernelkoop.mocap", "extract_angles", "mocap", "angles", None),
    ("kernelkoop.mocap", "fit_kinematics", "mocap", "fit", None),
)


class Tracer:
    """Records spans for every call of the TARGETS while installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, fn, layer, group, counter):
        name = f"{fn.__module__}.{fn.__name__}"
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            span = Span(name, layer, group, 0, parent=stack[-1] if stack else None)
            spans.append(span)
            stack.append(len(spans) - 1)
            span.start_ns = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end_ns = clock()
                stack.pop()
                if span.parent is not None:
                    spans[span.parent].child_ns += span.end_ns - span.start_ns
            if counter is not None:
                span.counts = counter(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def __enter__(self) -> "Tracer":
        targets = [(importlib.import_module(mod), *rest) for mod, *rest in TARGETS]
        modules = [
            mod for key, mod in list(sys.modules.items())
            if mod is not None and (key == "kernelkoop" or key.startswith("kernelkoop."))
        ]
        for module, func_name, layer, group, counter in targets:
            original = getattr(module, func_name)
            wrapped = self._wrap(original, layer, group, counter)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, attr, original))
                        setattr(mod, attr, wrapped)
        return self

    def __exit__(self, *exc) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()


def layer_metrics(spans: list[Span], wall_ns: int) -> dict[str, float]:
    """Per-layer self times and counts of one traced pass.

    Self times are span time minus the time of child spans, so the layer
    self times plus ``trace.remainder_s`` (time in no span: the
    benchmark's own code between calls) add up to ``trace.wall_s``.
    """
    ns: dict[str, int] = {}
    counts: dict[str, float] = {}
    for span in spans:
        self_ns = span.self_ns
        ns[f"{span.layer}.self"] = ns.get(f"{span.layer}.self", 0) + self_ns
        if span.group is not None:
            key = f"{span.layer}.{span.group}"
            ns[key] = ns.get(key, 0) + self_ns
        for key, value in span.counts.items():
            full = f"{span.layer}.{key}"
            if key == "max_m":
                counts[full] = max(counts.get(full, 0), value)
            else:
                counts[full] = counts.get(full, 0) + value
        for kind in ("sym", "cross"):
            if f"{kind}_calls" in span.counts:
                ns[f"kernels.{kind}"] = ns.get(f"kernels.{kind}", 0) + self_ns
    root_ns = sum(s.end_ns - s.start_ns for s in spans if s.parent is None)

    def sec(key):
        return ns.get(key, 0) / 1e9

    out = {f"{layer}.self_s": sec(f"{layer}.self") for layer in LAYERS}
    out.update({
        "cli.commands": counts.get("cli.commands", 0),
        "io.write_s": sec("io.write"),
        "io.read_s": sec("io.read"),
        "io.bytes_written": counts.get("io.bytes_written", 0),
        "io.bytes_read": counts.get("io.bytes_read", 0),
        "dynamics.simulate_s": sec("dynamics.simulate"),
        "dynamics.steps": counts.get("dynamics.steps", 0),
        "geometry.subselect_s": sec("geometry.subselect"),
        "geometry.states_scanned": counts.get("geometry.states_scanned", 0),
        "geometry.centers_kept": counts.get("geometry.centers_kept", 0),
        "geometry.accept_ratio": (
            counts.get("geometry.centers_kept", 0) / counts["geometry.states_scanned"]
            if counts.get("geometry.states_scanned") else 0.0
        ),
        "geometry.fill_s": sec("geometry.fill"),
        "geometry.fill_pairs": counts.get("geometry.fill_pairs", 0),
        "kernels.sym_s": sec("kernels.sym"),
        "kernels.sym_calls": counts.get("kernels.sym_calls", 0),
        "kernels.sym_entries": counts.get("kernels.sym_entries", 0),
        "kernels.cross_s": sec("kernels.cross"),
        "kernels.cross_calls": counts.get("kernels.cross_calls", 0),
        "kernels.cross_entries": counts.get("kernels.cross_entries", 0),
        "kernels.bytes_computed": counts.get("kernels.bytes_computed", 0),
        "linsys.solve_s": sec("linsys.solve"),
        "linsys.solves": counts.get("linsys.solves", 0),
        "linsys.diag_s": sec("linsys.diag"),
        "linsys.diag_calls": counts.get("linsys.diag_calls", 0),
        "linsys.max_m": counts.get("linsys.max_m", 0),
        "linsys.flops_computed": counts.get("linsys.flops_computed", 0),
        "linsys.jittered": counts.get("linsys.jittered", 0),
        "koopman.fit_self_s": sec("koopman.fit"),
        "koopman.fits": counts.get("koopman.fits", 0),
        "koopman.predict_self_s": sec("koopman.predict"),
        "koopman.queries": counts.get("koopman.queries", 0),
        "mocap.read_s": sec("mocap.read"),
        "mocap.angles_s": sec("mocap.angles"),
        "mocap.frames": counts.get("mocap.frames", 0),
        "mocap.fit_self_s": sec("mocap.fit"),
        "trace.wall_s": wall_ns / 1e9,
        "trace.remainder_s": (wall_ns - root_ns) / 1e9,
        "trace.spans": len(spans),
    })
    return out
