"""Span recorder for the traced benchmark run.

``Tracer.install()`` replaces every public function of the traced rampdro
modules with a wrapper that records one span per call: name, start, end and
the index of the enclosing span.  A function is replaced under every module
attribute that holds it, so names a consumer imported by value (``dro``'s
``distances``, ``solve``'s ``sin_angle``, ``analytic``'s
``smoothed_ramp_deriv``, the package re-exports) are traced as well as the
defining module's own attribute.  ``uninstall()`` puts the originals back.

Spans live in flat arrays while the workload runs and are written out once,
at the end; ``layer_metrics`` turns one recording into the per-layer
metrics the benchmark reports.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from array import array

import numpy as np

MODULES = ("cli", "dataset", "losses", "objective", "solve", "geometry", "dro", "analytic")

LOSS_VALUE = ("losses.ramp", "losses.smoothed_ramp", "losses.smoothed_hinge")
LOSS_DERIV = ("losses.smoothed_ramp_deriv", "losses.smoothed_hinge_deriv")
ORACLE_KERNELS = (
    "dro.worst_case_dual_from_distances",
    "dro.worst_case_knapsack_from_distances",
    "dro.cvar_from_distances",
)

# per-layer metric names and units, in report order
LAYER_METRICS = {
    "losses.value_ns_per_elem": "ns",
    "losses.deriv_ns_per_elem": "ns",
    "losses.elems": "count",
    "objective.evals": "count",
    "objective.eval_us": "us",
    "objective.self_us": "us",
    "solve.starts": "count",
    "solve.iters": "count",
    "solve.evals_per_iter": "ratio",
    "solve.converged_share": "ratio",
    "solve.self_s": "s",
    "solve.cluster_s": "s",
    "dataset.generate_s": "s",
    "geometry.distances_calls": "count",
    "geometry.distances_us": "us",
    "geometry.margin_profile_us": "us",
    "dro.dual_us": "us",
    "dro.knapsack_us": "us",
    "dro.cvar_us": "us",
    "dro.calls": "count",
    "analytic.scan_s": "s",
    "analytic.grid_s": "s",
    "analytic.refine_calls": "count",
    "analytic.refine_s": "s",
    "analytic.origin_s": "s",
    "cli.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}

# metrics that must repeat exactly between two traced runs of the same input
COUNT_METRICS = tuple(
    k for k, unit in LAYER_METRICS.items() if unit == "count"
) + ("solve.evals_per_iter", "solve.converged_share")


def _public_functions(module):
    return [
        (name, obj)
        for name, obj in vars(module).items()
        if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not name.startswith("_")
    ]


class Recording:
    """Spans of one traced stretch of work, stored column-wise."""

    def __init__(self, names):
        self.names = names            # name table shared with the tracer
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.elems = array("q")       # loss kernels: elements evaluated
        self.solves = {}              # span index -> (iterations, converged)

    def __len__(self):
        return len(self.name_id)

    def to_json(self) -> dict:
        t0 = self.start[0] if len(self) else 0.0
        return {
            "names": self.names,
            "columns": ["name", "start_ns", "end_ns", "parent"],
            "spans": [
                [n, round((s - t0) * 1e9), round((e - t0) * 1e9), p]
                for n, s, e, p in zip(self.name_id, self.start, self.end, self.parent)
            ],
        }


class Tracer:
    def __init__(self):
        self._rampdro = importlib.import_module("rampdro")
        self._modules = [importlib.import_module(f"rampdro.{m}") for m in MODULES]
        self.names: list = []
        self._ids: dict = {}
        self._stack: list = []
        self._patched: list = []      # (module, attribute, original)
        self.rec = Recording(self.names)

    def start_recording(self) -> Recording:
        self.rec = Recording(self.names)
        self._stack.clear()
        return self.rec

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, name: str, fn):
        nid = self._name_id(name)
        stack = self._stack
        clock = time.perf_counter
        is_loss = name.startswith("losses.")
        is_minimize = name == "solve.minimize"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self.rec
            idx = len(rec.name_id)
            rec.name_id.append(nid)
            rec.parent.append(stack[-1] if stack else -1)
            rec.elems.append(int(np.size(args[0])) if is_loss and args else 0)
            rec.end.append(0.0)
            stack.append(idx)
            rec.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.end[idx] = clock()
                stack.pop()
            if is_minimize:
                rec.solves[idx] = (int(result.iterations), bool(result.converged))
            return result

        return traced

    def install(self) -> None:
        if self._patched:
            return
        holders = [self._rampdro, *self._modules]
        for module in self._modules:
            short = module.__name__.rsplit(".", 1)[1]
            for fname, fn in _public_functions(module):
                wrapper = self._wrap(f"{short}.{fname}", fn)
                for holder in holders:
                    for attr, value in list(vars(holder).items()):
                        if value is fn:
                            self._patched.append((holder, attr, fn))
                            setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patched):
            setattr(holder, attr, original)
        self._patched.clear()


def _sum(values) -> float:
    return float(sum(values))


def _mean(values) -> float:
    values = list(values)
    return float(sum(values) / len(values)) if values else 0.0


def _durations(rec: Recording):
    """Inclusive and self seconds of every span."""
    dur = [e - s for s, e in zip(rec.start, rec.end)]
    child = [0.0] * len(dur)
    for i, p in enumerate(rec.parent):
        if p >= 0:
            child[p] += dur[i]
    return dur, [d - c for d, c in zip(dur, child)]


def layer_metrics(rec: Recording) -> dict:
    """Per-layer metrics of one recording.

    Times are seconds unless the metric name says otherwise.  A layer the
    workload never calls reports 0.
    """
    dur, self_t = _durations(rec)
    names = [rec.names[n] for n in rec.name_id]
    by_name: dict = {}
    for i, name in enumerate(names):
        by_name.setdefault(name, []).append(i)

    def idx(name):
        return by_name.get(name, [])

    def total(name):
        return _sum(dur[i] for i in idx(name))

    def mean_us(name, times=dur):
        return _mean(times[i] for i in idx(name)) * 1e6

    def elems(kernels):
        return sum(rec.elems[i] for k in kernels for i in idx(k))

    def per_elem_ns(kernels):
        n = elems(kernels)
        return _sum(total(k) for k in kernels) / n * 1e9 if n else 0.0

    def in_module(i, prefix):
        return i >= 0 and names[i].startswith(prefix)

    solves = [rec.solves[i] for i in idx("solve.minimize")]
    evals = len(idx("objective.evaluate_with_gradient"))
    iters = sum(it for it, _ in solves)
    minimize_s: dict = {}
    for i in idx("solve.minimize"):
        minimize_s[rec.parent[i]] = minimize_s.get(rec.parent[i], 0.0) + dur[i]
    scan_s = total("analytic.scan_stationary_points")
    refine_s = total("analytic.refine_candidate")

    return {
        "losses.value_ns_per_elem": per_elem_ns(LOSS_VALUE),
        "losses.deriv_ns_per_elem": per_elem_ns(LOSS_DERIV),
        "losses.elems": elems(LOSS_VALUE + LOSS_DERIV),
        "objective.evals": evals,
        "objective.eval_us": mean_us("objective.evaluate_with_gradient"),
        "objective.self_us": mean_us("objective.evaluate_with_gradient", self_t),
        "solve.starts": len(solves),
        "solve.iters": iters,
        "solve.evals_per_iter": evals / iters if iters else 0.0,
        "solve.converged_share": sum(c for _, c in solves) / len(solves) if solves else 0.0,
        "solve.self_s": _sum(self_t[i] for i in idx("solve.minimize")),
        "solve.cluster_s": _sum(dur[i] - minimize_s.get(i, 0.0) for i in idx("solve.multistart")),
        # outermost dataset calls only: corruptions call the index selector
        "dataset.generate_s": _sum(
            dur[i] for i, name in enumerate(names)
            if name.startswith("dataset.") and not in_module(rec.parent[i], "dataset.")
        ),
        "geometry.distances_calls": len(idx("geometry.distances")),
        "geometry.distances_us": mean_us("geometry.distances"),
        "geometry.margin_profile_us": mean_us("geometry.margin_profile"),
        "dro.dual_us": mean_us("dro.worst_case_prob_dual"),
        "dro.knapsack_us": mean_us("dro.worst_case_prob_knapsack"),
        "dro.cvar_us": mean_us("dro.cvar_distance"),
        "dro.calls": sum(len(idx(k)) for k in ORACLE_KERNELS),
        "analytic.scan_s": scan_s,
        "analytic.grid_s": scan_s - refine_s,
        "analytic.refine_calls": len(idx("analytic.refine_candidate")),
        "analytic.refine_s": refine_s,
        "analytic.origin_s": total("analytic.origin_directional_derivatives"),
        "cli.self_s": _sum(self_t[i] for i, name in enumerate(names) if name.startswith("cli.")),
    }


def module_self_s(rec: Recording) -> dict:
    """Self seconds per traced module, for the design-check shares."""
    _, self_t = _durations(rec)
    totals: dict = {}
    for nid, t in zip(rec.name_id, self_t):
        module = rec.names[nid].split(".", 1)[0]
        totals[module] = totals.get(module, 0.0) + t
    return totals


def write_spans(path, recording: Recording) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(recording.to_json(), fh, separators=(",", ":"))
