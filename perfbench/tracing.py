"""Per-layer spans, recorded from outside the program.

:class:`Tracer` wraps the public callables of each ``quorumopt`` module in
every module that binds them (``find_strategy`` is bound in ``optimize``,
``search`` and ``cli``; methods are wrapped once on their class). Each call
becomes a span ``(layer, start, end, parent, command id)`` kept in memory;
the program itself is not changed. A callable that no longer exists is
reported as absent, and its metrics read 0.

Metric definitions, all totals over one pass of the workload's stream:

* ``<layer>.self_s``: span time minus the time of its child spans, summed
  (the run reports the median over its traced passes);
* ``<layer>.calls``: outermost entries into the layer (a recursive or
  nested call of the same layer is not counted again);
* ``*.sets_out``: quorums returned;
* ``lp.rows/cols/nnz/iterations/infeasible``: summed over HiGHS calls, from
  the arrays handed to ``linprog`` and its result; ``lp.matrix_bytes`` is
  computed from those arrays' shapes and item sizes, not measured;
* ``search.candidates``: ``SearchResult.candidates_examined``;
  ``search.solved`` and ``search.infeasible`` count the strategy solves a
  search ran that returned or were infeasible; ``search.skipped_ft`` is the
  rest, the candidates below the fault-tolerance floor;
  ``search.useful_ratio = solved / candidates``;
* ``trace.overhead_frac``: the traced stream's time over the untraced one's,
  minus 1, each the sum of its commands' best times over the passes.

Which end-to-end metric each layer metric should move, and on which
workload:

=========================================================  ======================  ==========================
layer metrics                                              should move             on
=========================================================  ======================  ==========================
expr.minimal_sets.{calls,self_s,sets_out},                 wall_s, cmd_p50_s       wide (main);
model.fault_tolerance.{calls,self_s},                                              candidates_per_s on search
model.quorum_system.{calls,self_s},
model.resilient_quorums.{calls,self_s,sets_out}
lp.solve.{calls,self_s} (dense build),                     cmd_p50_s, cmd_p90_s    plan;
lp.highs.{self_s,iterations}, lp.{rows,cols,nnz,                                   candidates_per_s on search
matrix_bytes,infeasible}
optimize.find_strategy.{calls,self_s},                     candidates_per_s;       search; plan
optimize.strategy_init.self_s, optimize.metrics.self_s,    cmd_p50_s
optimize.quorum_latency.{calls,self_s}
search.search.self_s, search.enumerate.self_s,             candidates_per_s,       search only
oracle.truth_table.{calls,self_s}, search.{candidates,     wall_s
skipped_ft,infeasible,solved,useful_ratio}
cli.load_config.{calls,self_s}, cli.main.self_s,           cmd_p50_s               plan
expr.parse.{calls,self_s}, expr.canonical.self_s
trace.overhead_frac                                        traced vs untraced      all
=========================================================  ======================  ==========================
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from array import array

import numpy as np

# (layer, module, callable); "Class.method" names are wrapped on the class.
TARGETS = [
    ("cli.main", "cli", "main"),
    ("cli.load_config", "cli", "load_config"),
    ("expr.parse", "expr", "parse"),
    ("expr.canonical", "expr", "canonical"),
    ("expr.minimal_sets", "expr", "minimal_sets"),
    ("model.quorum_system", "model", "QuorumSystem.__init__"),
    ("model.fault_tolerance", "model", "QuorumSystem.fault_tolerance"),
    ("model.fault_tolerance", "model", "QuorumSystem.read_fault_tolerance"),
    ("model.fault_tolerance", "model", "QuorumSystem.write_fault_tolerance"),
    ("model.resilient_quorums", "model", "QuorumSystem.resilient_quorums"),
    ("lp.solve", "lp", "LinearProgram.solve"),
    ("lp.highs", "lp", "linprog"),
    ("optimize.find_strategy", "optimize", "find_strategy"),
    ("optimize.strategy_init", "optimize", "Strategy.__init__"),
    ("optimize.metrics", "optimize", "Strategy.load"),
    ("optimize.metrics", "optimize", "Strategy.load_at"),
    ("optimize.metrics", "optimize", "Strategy.capacity"),
    ("optimize.metrics", "optimize", "Strategy.latency"),
    ("optimize.metrics", "optimize", "Strategy.network_load"),
    ("optimize.quorum_latency", "optimize", "quorum_latency"),
    ("search.search", "search", "search"),
    ("search.enumerate", "search", "enumerate_candidates"),
    ("oracle.truth_table", "oracle", "truth_table"),
]
GENERATORS = {"enumerate_candidates"}
SETS_OUT = {"expr.minimal_sets", "model.resilient_quorums"}

CALLS = [
    "expr.minimal_sets", "model.fault_tolerance", "model.quorum_system",
    "model.resilient_quorums", "lp.solve", "optimize.find_strategy",
    "optimize.quorum_latency", "oracle.truth_table", "cli.load_config", "expr.parse",
]
SELF = [
    "expr.minimal_sets", "model.fault_tolerance", "model.quorum_system",
    "model.resilient_quorums", "lp.solve", "lp.highs", "optimize.find_strategy",
    "optimize.strategy_init", "optimize.metrics", "optimize.quorum_latency",
    "search.search", "search.enumerate", "oracle.truth_table", "cli.load_config",
    "cli.main", "expr.parse", "expr.canonical",
]
LP_COUNTS = ["rows", "cols", "nnz", "matrix_bytes", "iterations", "infeasible"]
SEARCH_COUNTS = ["candidates", "skipped_ft", "infeasible", "solved"]


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for layer in CALLS:
        units[f"{layer}.calls"] = "count"
    for layer in SELF:
        units[f"{layer}.self_s"] = "s"
    for layer in SETS_OUT:
        units[f"{layer}.sets_out"] = "count"
    units["lp.highs.iterations"] = "count"
    for key in LP_COUNTS:
        if key != "iterations":
            units[f"lp.{key}"] = "bytes" if key == "matrix_bytes" else "count"
    for key in SEARCH_COUNTS:
        units[f"search.{key}"] = "count"
    units["search.useful_ratio"] = "ratio"
    units["trace.overhead_frac"] = "ratio"
    return dict(sorted(units.items()))


def exact_counts(metrics: dict) -> dict:
    """The metrics that count work, which must repeat exactly."""
    return {
        k: v for k, v in metrics.items()
        if not k.endswith("self_s") and k not in ("trace.overhead_frac", "search.useful_ratio")
    }


class _TracedIter:
    """Times each ``next()`` of a generator as one span."""

    __slots__ = ("_tracer", "_layer", "_gen")

    def __init__(self, tracer, layer, gen):
        self._tracer, self._layer, self._gen = tracer, layer, gen

    def __iter__(self):
        return self

    def __next__(self):
        i = self._tracer.enter(self._layer)
        try:
            return next(self._gen)
        finally:
            self._tracer.exit(i)


class Tracer:
    def __init__(self):
        self.layers = sorted({layer for layer, _, _ in TARGETS})
        self._ids = {name: i for i, name in enumerate(self.layers)}
        self.absent: list[str] = []
        self._undo: list[tuple[object, str, object]] = []
        self.command = -1
        self.reset()

    def reset(self) -> None:
        self.layer = array("h")
        self.parent = array("i")
        self.cmd = array("i")
        self.start = array("d")
        self.end = array("d")
        self.attrs: dict[int, dict] = {}
        self._stack = [-1]

    def enter(self, layer: int) -> int:
        i = len(self.layer)
        self.layer.append(layer)
        self.parent.append(self._stack[-1])
        self.cmd.append(self.command)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def exit(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    # -- installation ---------------------------------------------------------

    def install(self, package) -> None:
        """Wrap every target in every loaded module of ``package``."""
        modules = [
            m for name, m in sys.modules.items()
            if m is not None and (name == package.__name__ or name.startswith(package.__name__ + "."))
        ]
        self.absent = []
        for layer, module_name, qualname in TARGETS:
            owner = sys.modules.get(f"{package.__name__}.{module_name}")
            class_name, _, attr = qualname.rpartition(".")
            if class_name:
                owner = getattr(owner, class_name, None)
            original = vars(owner).get(attr) if owner is not None else None
            if original is None:
                self.absent.append(f"{module_name}.{qualname}")
                continue
            wrapper = self._wrap(self._ids[layer], layer, attr, original)
            if class_name:
                self._patch(owner, attr, wrapper)
            else:
                for m in modules:
                    for name, value in list(vars(m).items()):
                        if value is original:
                            self._patch(m, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    def _patch(self, owner, name, wrapper) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def _wrap(self, lid: int, layer: str, attr: str, fn):
        tracer = self
        if attr in GENERATORS:
            def traced_gen(*args, **kwargs):
                return _TracedIter(tracer, lid, fn(*args, **kwargs))
            return functools.wraps(fn)(traced_gen)

        after = _AFTER.get(layer)

        def traced(*args, **kwargs):
            i = tracer.enter(lid)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.exit(i)
                tracer.attrs[i] = {"raised": type(exc).__name__}
                raise
            tracer.exit(i)
            if after is not None:
                tracer.attrs[i] = after(args, kwargs, result)
            return result

        return functools.wraps(fn)(traced)

    # -- summaries ------------------------------------------------------------

    def summarize(self) -> dict[str, float]:
        """Per-layer metrics of the spans recorded since the last reset."""
        n = len(self.layer)
        names = self.layers
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        self_s = dict.fromkeys(names, 0.0)
        calls = dict.fromkeys(names, 0)
        sets_out = dict.fromkeys(names, 0)
        lp = dict.fromkeys(LP_COUNTS, 0)
        search = dict.fromkeys(SEARCH_COUNTS, 0)
        traced_candidates = 0
        find_id = self._ids["optimize.find_strategy"]
        search_id = self._ids["search.search"]
        qs_id = self._ids["model.quorum_system"]
        for i in range(n):
            name = names[self.layer[i]]
            self_s[name] += self.end[i] - self.start[i] - child[i]
            p = self.parent[i]
            if p < 0 or self.layer[p] != self.layer[i]:
                calls[name] += 1
            attrs = self.attrs.get(i)
            if name in SETS_OUT and attrs:
                sets_out[name] += attrs.get("sets_out", 0)
            elif name == "lp.highs" and attrs and "rows" in attrs:
                for key in LP_COUNTS:
                    lp[key] += attrs[key]
            elif name == "search.search" and attrs and "candidates" in attrs:
                search["candidates"] += attrs["candidates"]
            if p >= 0 and self.layer[p] == search_id:
                if self.layer[i] == qs_id:
                    traced_candidates += 1
                elif self.layer[i] == find_id:
                    failed = attrs and attrs.get("raised") in ("Infeasible", "NoResilientQuorum")
                    search["infeasible" if failed else "solved"] += 1
        search["skipped_ft"] = search["candidates"] - search["solved"] - search["infeasible"]
        self.candidates_mismatch = traced_candidates != search["candidates"]

        out: dict[str, float] = {}
        for layer in CALLS:
            out[f"{layer}.calls"] = calls.get(layer, 0)
        for layer in SELF:
            out[f"{layer}.self_s"] = self_s.get(layer, 0.0)
        for layer in SETS_OUT:
            out[f"{layer}.sets_out"] = sets_out[layer]
        out["lp.highs.iterations"] = lp["iterations"]
        for key in LP_COUNTS:
            if key != "iterations":
                out[f"lp.{key}"] = lp[key]
        for key in SEARCH_COUNTS:
            out[f"search.{key}"] = search[key]
        c = search["candidates"]
        out["search.useful_ratio"] = search["solved"] / c if c else 0.0
        return out

    def write(self, path) -> int:
        """Write the recorded spans as gzipped JSON lines; returns the count."""
        n = len(self.layer)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for i in range(n):
                fh.write(json.dumps([
                    i, self.layers[self.layer[i]], self.start[i], self.end[i],
                    self.parent[i], self.cmd[i],
                ]) + "\n")
        return n


def _sets_out(args, kwargs, result):
    return {"sets_out": len(result)}


def _linprog_stats(args, kwargs, result):
    c = args[0] if args else kwargs["c"]
    arrays = [c] + [kwargs.get(k) for k in ("A_ub", "b_ub", "A_eq", "b_eq")]
    mats = [kwargs.get(k) for k in ("A_ub", "A_eq")]
    return {
        "rows": sum(m.shape[0] for m in mats if m is not None),
        "cols": len(c),
        "nnz": sum(int(np.count_nonzero(m)) for m in mats if m is not None),
        "matrix_bytes": sum(np.asarray(a).nbytes for a in arrays if a is not None),
        "iterations": int(getattr(result, "nit", 0)),
        "infeasible": int(getattr(result, "status", 0) == 2),
    }


def _search_result(args, kwargs, result):
    return {"candidates": result.candidates_examined}


_AFTER = {
    "expr.minimal_sets": _sets_out,
    "model.resilient_quorums": _sets_out,
    "lp.highs": _linprog_stats,
    "search.search": _search_result,
}
