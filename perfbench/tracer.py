"""Per-layer tracing of graphbench from outside the program.

``Tracer.install`` wraps every public function of graphbench's modules, plus
``Graph.__post_init__``, and rebinds each wrapper wherever the original is
bound by name (``harness`` and ``tasks`` import ``normalize``,
``eigendecompose`` and friends directly). Each call is a span; a span's self
time is its duration minus the time its child spans cover. Spans are
aggregated per function as they close: calls, total and self seconds,
raised exceptions, distinct inputs where work can repeat, and a few
counters. Time spent hashing inputs is charged to no layer.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import sys
import time
from collections import defaultdict

import numpy as np

MODULES = ("similarity", "inference", "core_graph", "tasks", "metrics", "harness")

# Glue whose self time is not a named layer's work (see ``layer_metrics``).
GLUE = ("harness.run_grid", "harness.run_one")
# Scalar helpers called once per eigenvalue: a span each would cost more than
# the work, so their time stays in the caller's self time.
UNWRAPPED = ("tasks.simoncelli_response",)


def digest(args, kwargs) -> bytes:
    """Hash of a call's arguments; arrays by shape, dtype and bytes."""
    h = hashlib.blake2b(digest_size=16)

    def add(value):
        if isinstance(value, np.ndarray):
            h.update(repr((value.shape, value.dtype.str)).encode())
            h.update(np.ascontiguousarray(value).data)
        else:
            h.update(repr(value).encode())

    for value in args:
        add(value)
    for name in sorted(kwargs):
        h.update(name.encode())
        add(kwargs[name])
    return h.digest()


def _graph_config(cfg):
    """Raw-graph identity of a grid point, or None when it builds no graph."""
    if cfg.method not in ("naive", "nnk", "smooth"):
        return None
    return (cfg.method, cfg.similarity, cfg.k, cfg.gamma, cfg.sigma)


class Tracer:
    def __init__(self):
        self.reset()

    def reset(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.raised = defaultdict(int)
        self.counters = defaultdict(int)
        self.distinct = defaultdict(set)
        self._stack = []  # child seconds accumulated per open span

    def _key(self, name, args, kwargs):
        """(group, key) for calls whose repeated inputs mean repeated work."""
        if name.startswith("similarity."):
            return "similarity", (name, digest(args, kwargs))
        if name == "core_graph.eigendecompose":
            return name, digest(args, kwargs)
        if name == "harness.run_one":
            graph = _graph_config(args[1])
            return ("harness.graph_config", graph) if graph else None
        return None

    def _count_result(self, name, args, result):
        if name == "inference.nnls_solve" and not result[1]:
            self.counters["inference.nnls_solve.fallback"] += 1
        elif name == "core_graph.graph_init":
            self.counters["core_graph.edges_built"] += len(args[0].edges)

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            t0 = time.perf_counter()
            keyed = self._key(name, args, kwargs)
            if keyed is not None:
                self.distinct[keyed[0]].add(keyed[1])
                self.counters[keyed[0]] += 1
            if self._stack:  # hashing belongs to no span
                self._stack[-1] += time.perf_counter() - t0
            self._stack.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.raised[name] += 1
                raise
            finally:
                duration = time.perf_counter() - start
                self.calls[name] += 1
                self.total[name] += duration
                self.self_time[name] += duration - self._stack.pop()
                if self._stack:
                    self._stack[-1] += duration
            self._count_result(name, args, result)
            return result

        return functools.update_wrapper(traced, fn)

    def install(self):
        """Wrap graphbench's public functions everywhere they are bound."""
        import graphbench
        from graphbench.core_graph import Graph

        wrappers = {}
        for short in MODULES:
            module = importlib.import_module(f"graphbench.{short}")
            for attr, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not attr.startswith("_")
                    and f"{short}.{attr}" not in UNWRAPPED
                ):
                    wrappers[obj] = self.wrap(f"{short}.{attr}", obj)
        for module in [graphbench] + [sys.modules[f"graphbench.{s}"] for s in MODULES]:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(module, attr, wrappers[obj])
        Graph.__post_init__ = self.wrap("core_graph.graph_init", Graph.__post_init__)

    def stats(self) -> dict:
        """Plain-JSON view of everything recorded."""
        return {
            "calls": dict(self.calls),
            "total": dict(self.total),
            "self": dict(self.self_time),
            "raised": dict(self.raised),
            "counters": dict(self.counters),
            "distinct": {group: len(keys) for group, keys in self.distinct.items()},
        }


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(
    stats: dict, grid_s: float, load_s: float, untraced_grid_s: float, busy_frac: float
) -> dict:
    """The per-layer metrics, from one traced grid run's ``Tracer.stats``.

    ``grid_s`` is the traced run's grid wall time, ``untraced_grid_s`` that of
    an untraced serial run of the same grid, ``busy_frac`` the pool's busy
    fraction in the timed run. A metric of a layer the workload never calls
    reads 0.
    """
    calls, self_s, total = stats["calls"], stats["self"], stats["total"]
    counters, distinct = stats["counters"], stats["distinct"]

    def c(name):
        return calls.get(name, 0)

    def s(name):
        return self_s.get(name, 0.0)

    sim_calls = sum(n for name, n in calls.items() if name.startswith("similarity."))
    smooth_calls = c("inference.smooth_graph")
    named_self = sum(v for name, v in self_s.items() if name not in GLUE)
    out = {
        "similarity.self_s": sum(v for n, v in self_s.items() if n.startswith("similarity.")),
        "similarity.calls": sim_calls,
        "similarity.unique_frac": _ratio(distinct.get("similarity", 0), sim_calls),
        "inference.knn_select.self_s": s("inference.knn_select"),
        "inference.nnk_graph.self_s": s("inference.nnk_graph"),
        "inference.nnls_solve.calls": c("inference.nnls_solve"),
        "inference.nnls_solve.fallback_frac": _ratio(
            counters.get("inference.nnls_solve.fallback", 0), c("inference.nnls_solve")
        ),
        "inference.smooth_graph.self_s": s("inference.smooth_graph"),
        "inference.learn_log_degree_weights.self_s": s("inference.learn_log_degree_weights"),
        "inference.learn_log_degree_weights.calls": c("inference.learn_log_degree_weights"),
        "inference.smooth_graph.solves_per_graph": _ratio(
            c("inference.learn_log_degree_weights"), smooth_calls
        ),
        "inference.smooth_graph.fail_frac": _ratio(
            stats["raised"].get("inference.smooth_graph", 0), smooth_calls
        ),
        "core_graph.from_dense.self_s": s("core_graph.from_dense"),
        "core_graph.normalize.self_s": s("core_graph.normalize"),
        "core_graph.graph_init.self_s": s("core_graph.graph_init"),
        "core_graph.laplacian.self_s": s("core_graph.laplacian"),
        "core_graph.edges_built": counters.get("core_graph.edges_built", 0),
        "core_graph.eigendecompose.self_s": s("core_graph.eigendecompose"),
        "core_graph.eigendecompose.calls": c("core_graph.eigendecompose"),
        "core_graph.eigendecompose.unique_frac": _ratio(
            distinct.get("core_graph.eigendecompose", 0), c("core_graph.eigendecompose")
        ),
        "core_graph.matrix_exponential.self_s": s("core_graph.matrix_exponential"),
        "tasks.spectral_cluster.self_s": s("tasks.spectral_cluster"),
        "tasks.discretize.self_s": s("tasks.discretize"),
        "tasks.kmeans.self_s": s("tasks.kmeans"),
        "tasks.train_logistic_regression.self_s": s("tasks.train_logistic_regression"),
        "tasks.train_logistic_regression.calls": c("tasks.train_logistic_regression"),
        "tasks.diffuse_features.self_s": s("tasks.diffuse_features"),
        "tasks.best_tau_denoise.self_s": s("tasks.best_tau_denoise"),
        "tasks.denoise.calls": c("tasks.denoise"),
        "metrics.ami.self_s": s("metrics.ami"),
        "harness.load_dataset.s": load_s,
        "harness.build_graph.calls": c("harness.build_graph"),
        "harness.build_graph.unique_frac": _ratio(
            distinct.get("harness.graph_config", 0), counters.get("harness.graph_config", 0)
        ),
        "harness.run_one.self_s": s("harness.run_one"),
        "harness.emit_report.s": total.get("harness.emit_report", 0.0),
        "harness.pool.busy_frac": busy_frac,
        "trace.coverage": _ratio(named_self, grid_s),
        "trace.overhead_frac": _ratio(grid_s, untraced_grid_s) - 1.0,
    }
    return out
