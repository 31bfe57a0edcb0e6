"""Span recorder that wraps dpextrema's layers from outside the package.

Every module-level function and every method of a class defined in one of the
layer modules is replaced, in every ``dpextrema`` namespace that bound it, by a
wrapper that records a span (id, parent, operation, name, start, end) and
calls the original with the same arguments.  Wrappers only time and count:
they never touch arguments, results or random draws.  Spans stay in memory
until :meth:`Recorder.write` and :meth:`Recorder.layer_metrics` read them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array

import numpy as np

LAYERS = ("cli", "harness", "crossval", "models", "partial", "extrema", "privacy", "linalg")

#: Per-layer metric groups: metric prefix -> spans (``<layer>.<qualname>``)
#: whose calls and inclusive time it reports.  A group member that the program
#: no longer defines is skipped; a group left with no member is an error.
GROUPS = {
    "crossval.cv": ("crossval.cv_choose_r",),
    "crossval.fold_estimates": ("crossval._estimate",),
    "models.estimate": ("models.gaussian_private_mle", "models.regression_private_mle"),
    "models.bootstrap_draws": (
        "models.PrivatizedGaussianEstimate.bootstrap_draws",
        "models.PrivatizedRegressionEstimate.bootstrap_draws",
    ),
    "privacy.clamp": ("privacy.Bounds.clamp",),
    "privacy.sensitivity": (
        "privacy.sensitivity_sum_bounded",
        "privacy.sensitivity_gram_bounded",
        "privacy.sensitivity_cross_bounded",
    ),
    "privacy.laplace": (
        "privacy.LaplaceSpec.sample",
        "privacy.laplace_sample",
        "privacy.laplace_symmetric_sample",
    ),
    "linalg.psd_repair": ("linalg.psd_repair",),
    "linalg.sym_sqrt": ("linalg.sym_sqrt",),
    "extrema.limit": ("extrema.ppb_limit_from_draws", "extrema.ppb_lower_limit"),
    "extrema.bias_reduced": ("extrema.bias_reduced_from_draws", "extrema.bias_reduced_estimate"),
    "extrema.baselines": ("extrema.naive_lower_limit", "extrema.bonferroni_lower_limit"),
    "harness.generate_data": ("harness._generate_data",),
    "partial.estimate": (
        "partial.partial_gaussian_private_mle",
        "partial.partial_regression_private_mle",
    ),
    "cli": ("cli.main",),
    "cli.read_csv": ("cli._read_csv_matrix",),
}


def _count_draws(counters, args, kwargs, result):
    size = kwargs["size"] if "size" in kwargs else args[1]
    counters["draws.attempted"] += int(size)
    counters["draws.failed"] += int(result[1])


def _count_repair(counters, args, kwargs, result):
    counters["psd_repair.clipped"] += int(result.shift > 0.0)
    counters["psd_repair.degenerate"] += int(bool(result.degenerate))


#: Counts read off return values at the span boundary, by span name.
OBSERVERS = {
    "models.PrivatizedGaussianEstimate.bootstrap_draws": _count_draws,
    "models.PrivatizedRegressionEstimate.bootstrap_draws": _count_draws,
    "linalg.psd_repair": _count_repair,
}


def _layer_callables(module, layer):
    """(owner, attribute, raw value, function, span name) for one layer module."""
    found = []
    for attr, value in vars(module).items():
        if inspect.isfunction(value) and value.__module__ == module.__name__:
            found.append((module, attr, value, value, f"{layer}.{value.__qualname__}"))
        elif (
            inspect.isclass(value)
            and value.__module__ == module.__name__
            and not getattr(value, "_is_protocol", False)
        ):
            for name, raw in vars(value).items():
                if name.startswith("__"):
                    continue
                func = raw.__func__ if isinstance(raw, (staticmethod, classmethod)) else raw
                if inspect.isfunction(func) and func.__module__ == module.__name__:
                    found.append((value, name, raw, func, f"{layer}.{func.__qualname__}"))
    return found


class Recorder:
    """Installs the wrappers around one traced operation at a time."""

    def __init__(self):
        modules = {layer: importlib.import_module(f"dpextrema.{layer}") for layer in LAYERS}
        namespaces = [m for n, m in sys.modules.items() if n == "dpextrema" or n.startswith("dpextrema.")]
        self.names: list[str] = []
        self.counters = {
            "draws.attempted": 0,
            "draws.failed": 0,
            "psd_repair.clipped": 0,
            "psd_repair.degenerate": 0,
        }
        self._parent = array("q")
        self._name = array("q")
        self._op = array("q")
        self._start = array("q")
        self._end = array("q")
        self._stack = [-1]
        self._current_op = -1
        self._patches = []  # (owner, attribute, original, wrapped)
        for layer, module in modules.items():
            for owner, attr, raw, func, span in _layer_callables(module, layer):
                wrapped = self._wrap(func, span)
                if isinstance(raw, staticmethod):
                    wrapped = staticmethod(wrapped)
                elif isinstance(raw, classmethod):
                    wrapped = classmethod(wrapped)
                if owner is module:
                    # every namespace that imported the same function object
                    for ns in namespaces:
                        for name, value in list(vars(ns).items()):
                            if value is func:
                                self._patches.append((ns, name, func, wrapped))
                else:
                    self._patches.append((owner, attr, raw, wrapped))
        #: group members the program no longer defines, reported with the run
        self.missing = {
            g: absent
            for g, spans in GROUPS.items()
            if (absent := [s for s in spans if s not in self.names])
        }
        empty = [g for g, spans in GROUPS.items() if len(self.missing.get(g, ())) == len(spans)]
        if empty:
            raise RuntimeError(f"no traced function left for metric groups {empty}")

    def _wrap(self, func, span):
        name_id = len(self.names)
        self.names.append(span)
        observe = OBSERVERS.get(span)
        counters = self.counters
        parent, name_ids, ops, starts, ends, stack = (
            self._parent, self._name, self._op, self._start, self._end, self._stack,
        )
        clock = time.perf_counter_ns
        recorder = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            sid = len(starts)
            parent.append(stack[-1])
            name_ids.append(name_id)
            ops.append(recorder._current_op)
            ends.append(0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = func(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if observe is not None:
                observe(counters, args, kwargs, result)
            return result

        return wrapper

    def trace(self, op_index, call):
        """Run ``call()`` with every wrapper installed; spans carry ``op_index``."""
        self._current_op = op_index
        for owner, attr, _, wrapped in self._patches:
            setattr(owner, attr, wrapped)
        try:
            return call()
        finally:
            for owner, attr, original, _ in self._patches:
                setattr(owner, attr, original)

    def write(self, path) -> int:
        """Write every span as CSV (id, parent, op, name, start_ns, end_ns).

        Times are nanoseconds since the first span started.
        """
        origin = self._start[0] if self._start else 0
        with open(path, "w") as fh:
            fh.write("id,parent,op,name,start_ns,end_ns\n")
            for sid in range(len(self._start)):
                fh.write(
                    f"{sid},{self._parent[sid]},{self._op[sid]},{self.names[self._name[sid]]},"
                    f"{self._start[sid] - origin},{self._end[sid] - origin}\n"
                )
        return len(self._start)

    def layer_metrics(self, ops: int) -> dict[str, float]:
        """Per-op call counts, inclusive group times and per-layer self times."""
        parent = np.frombuffer(self._parent, dtype=np.int64)
        name = np.frombuffer(self._name, dtype=np.int64)
        dur_ms = (
            np.frombuffer(self._end, dtype=np.int64) - np.frombuffer(self._start, dtype=np.int64)
        ) / 1e6
        has_parent = parent >= 0
        child_ms = np.bincount(parent[has_parent], weights=dur_ms[has_parent], minlength=dur_ms.size)
        self_ms = dur_ms - child_ms
        layer_of = np.array([LAYERS.index(n.split(".", 1)[0]) for n in self.names], dtype=np.int64)

        out: dict[str, float] = {}
        for layer_id, layer in enumerate(LAYERS):
            out[f"{layer}.self_ms"] = float(self_ms[layer_of[name] == layer_id].sum()) / ops
        for group, spans in GROUPS.items():
            ids = [self.names.index(s) for s in spans if s in self.names]
            member = np.isin(name, ids)
            # inclusive time counts only the outermost member of a nested chain
            nested = np.zeros_like(member)
            anc = parent.copy()
            while True:
                live = anc >= 0
                if not live.any():
                    break
                nested[live] |= member[anc[live]]
                anc[live] = parent[anc[live]]
            out[f"{group}.calls"] = float(member.sum()) / ops
            out[f"{group}.ms"] = float(dur_ms[member & ~nested].sum()) / ops
        attempted = self.counters["draws.attempted"]
        out["models.draws.attempted"] = attempted / ops
        out["models.draws.failed"] = self.counters["draws.failed"] / ops
        out["models.draws.useful_ratio"] = (
            (attempted - self.counters["draws.failed"]) / attempted if attempted else 1.0
        )
        out["linalg.psd_repair.clipped"] = self.counters["psd_repair.clipped"] / ops
        out["linalg.psd_repair.degenerate"] = self.counters["psd_repair.degenerate"] / ops
        return out
