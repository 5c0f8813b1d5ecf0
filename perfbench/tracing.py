"""Host-clock spans around the program's layer entry points.

Nothing under ``src/`` is edited.  :func:`traced_step` replaces each
entry point listed in :data:`TARGETS` with a wrapper that records a
span (name, start, end, parent span) on a :class:`Recorder`, runs the
step, and puts the originals back, so checks and untraced code between
steps are never recorded.  Module-level functions are also rebound in
every ``repro`` module that imported them by name
(``from repro.x import f``), so call sites inside the program and in
the benchmark's own modules see the wrapper too.

Spans stay in memory until the run ends; :meth:`Recorder.write`
dumps them as JSON lines.  A layer's *self time* is its span duration
minus the time its child spans cover (:meth:`Recorder.self_times`).
"""

from __future__ import annotations

import functools
import importlib
import json
import pkgutil
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple

__all__ = ["Recorder", "TARGETS", "traced_step", "module_of", "memo_lookups"]

_now = time.perf_counter

#: (name, start, end, parent span index or None)
Span = Tuple[str, float, float, Optional[int]]

#: Process-wide memo tables of ``repro.baselines`` that count their
#: lookups on the global metrics registry.
MEMO_CACHES = ("partition", "relation", "spst_plan", "p2p_plan", "evaluate")


class Recorder:
    """In-memory span and counter store for one traced run."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: List[Optional[Span]] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._stack: List[int] = []
        self._sites: Optional[List[tuple]] = None

    def open(self, name: str) -> Tuple[int, Optional[int], float]:
        """Reserve a span slot; returns the handle for :meth:`close`."""
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(index)
        return index, parent, _now()

    def close(self, handle: Tuple[int, Optional[int], float], name: str) -> None:
        end = _now()
        index, parent, start = handle
        self._stack.pop()
        self.spans[index] = (name, start, end, parent)

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counts[name] += amount

    # -- analysis --------------------------------------------------------
    def closed_spans(self) -> List[Span]:
        return [s for s in self.spans if s is not None]

    def self_times(self) -> Dict[str, float]:
        """Total self seconds per span name."""
        spans = self.spans
        covered = [0.0] * len(spans)
        for span in spans:
            if span is not None and span[3] is not None:
                covered[span[3]] += span[2] - span[1]
        totals: Dict[str, float] = defaultdict(float)
        for i, span in enumerate(spans):
            if span is not None:
                totals[span[0]] += (span[2] - span[1]) - covered[i]
        return dict(totals)

    def write(self, path) -> None:
        """Dump every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as out:
            for i, span in enumerate(self.spans):
                if span is None:
                    continue
                name, start, end, parent = span
                out.write(json.dumps({
                    "id": i, "name": name, "start": start, "end": end,
                    "parent": parent, "run": self.run_id,
                }) + "\n")


def module_of(span_name: str) -> str:
    """The layer (``repro`` module) a span name belongs to."""
    return span_name.split(".", 1)[0]


def memo_lookups() -> Dict[str, float]:
    """Lookups of the ``repro.baselines`` memo tables so far, by outcome."""
    from repro.obs.metrics import global_metrics

    registry = global_metrics()
    return {
        outcome: sum(registry.counter("cache.lookups", cache=cache,
                                      outcome=outcome).value
                     for cache in MEMO_CACHES)
        for outcome in ("hit", "miss")
    }


def _wrap(rec: Recorder, name: str, fn: Callable,
          counter: Optional[Callable] = None) -> Callable:
    """A span around ``fn``; ``counter(rec, args, result)`` runs after."""
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        handle = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(handle, name)
        if counter is not None:
            counter(rec, args, result)
        return result

    return traced


def _counting(counter: Callable) -> Callable:
    """A wrapper factory that also reads each call's result."""
    return functools.partial(_wrap, counter=counter)


# -- per-target counters (read the call's result) ------------------------
def _count_flows(rec: Recorder, args, result) -> None:
    rec.count("simulator.flows", result.num_flows)
    rec.count("simulator.bytes", result.bytes_moved())


def _count_transfers(rec: Recorder, args, result) -> None:
    rec.count("runtime.transfers", result[1].transfers)


def _count_rows(rec: Recorder, args, result) -> None:
    rec.count("comm.rows_gathered", args[0].bytes_per_row_factor)


def _count_plan_source(rec: Recorder, args, result) -> None:
    rec.count(f"sampling.plan_source.{result.plan_source}")


def _count_cache_get(rec: Recorder, args, result) -> None:
    rec.count("autotune.PlanCache.get.calls")
    if result is not None:
        rec.count("autotune.PlanCache.get.hits")


def _count_replan(rec: Recorder, args, result) -> None:
    rec.count("autotune.incremental_replan.calls")
    if result.patched:
        rec.count("autotune.incremental_replan.patched")


def _wrap_cached_assignment(rec: Recorder, name: str, fn: Callable) -> Callable:
    """Counts on-disk assignment-cache lookups and the hits among them
    (a lookup that never calls its ``compute`` was served from disk)."""
    spanned = _wrap(rec, name, fn)

    @functools.wraps(fn)
    def traced(key_parts, num_vertices, compute):
        computed = []

        def tracked_compute():
            computed.append(True)
            return compute()

        result = spanned(key_parts, num_vertices, tracked_compute)
        rec.count("cache.assignment.lookups")
        if not computed:
            rec.count("cache.assignment.hits")
        return result

    return traced


#: (module, attribute path, span name, wrapper factory).  The names are
#: ``<layer>.<entry point>``; the first component is the layer.  A
#: factory ``(rec, name, fn) -> wrapper`` replaces the plain span.
TARGETS: List[Tuple[str, str, str, Callable]] = [
    ("repro.graph.datasets", "load_dataset", "graph.load_dataset", _wrap),
    ("repro.partition.hierarchical", "hierarchical_partition",
     "partition.hierarchical_partition", _wrap),
    ("repro.cache", "cached_assignment", "cache.cached_assignment",
     _wrap_cached_assignment),
    ("repro.core.relation", "CommRelation.__init__", "core.CommRelation",
     _wrap),
    ("repro.core.spst", "SPSTPlanner.plan", "core.SPSTPlanner.plan", _wrap),
    ("repro.baselines.strategies", "evaluate_scheme",
     "baselines.evaluate_scheme", _wrap),
    ("repro.baselines.dgcl_r", "evaluate_dgcl_r",
     "baselines.evaluate_dgcl_r", _wrap),
    ("repro.simulator.executor", "PlanExecutor.execute",
     "simulator.PlanExecutor.execute", _counting(_count_flows)),
    ("repro.simulator.executor", "PlanExecutor.execute_backward",
     "simulator.PlanExecutor.execute_backward", _counting(_count_flows)),
    ("repro.runtime.protocol", "ProtocolRunner.run_data",
     "runtime.ProtocolRunner.run_data", _counting(_count_transfers)),
    ("repro.comm.allgather", "CompiledAllgather.__init__",
     "comm.CompiledAllgather.init", _wrap),
    ("repro.comm.allgather", "CompiledAllgather.forward",
     "comm.CompiledAllgather.forward", _counting(_count_rows)),
    ("repro.comm.allgather", "CompiledAllgather.backward",
     "comm.CompiledAllgather.backward", _wrap),
    ("repro.gnn.layers", "GCNLayer.forward", "gnn.GCNLayer.forward", _wrap),
    ("repro.gnn.layers", "GCNLayer.backward", "gnn.GCNLayer.backward", _wrap),
    ("repro.gnn.functional", "softmax_cross_entropy",
     "gnn.softmax_cross_entropy", _wrap),
    ("repro.gnn.models", "SGD.step", "gnn.SGD.step", _wrap),
    ("repro.gnn.minibatch", "MiniBatchTrainer.run_batch",
     "gnn.MiniBatchTrainer.run_batch", _wrap),
    ("repro.sampling.samplers", "NeighborSampler.sample",
     "sampling.NeighborSampler.sample", _wrap),
    ("repro.sampling.planner", "BatchPlanner.plan_batch",
     "sampling.BatchPlanner.plan_batch", _counting(_count_plan_source)),
    ("repro.autotune.cache", "PlanCache.get", "autotune.PlanCache.get",
     _counting(_count_cache_get)),
    ("repro.autotune.cache", "PlanCache.put", "autotune.PlanCache.put",
     _wrap),
    ("repro.autotune.replan", "incremental_replan",
     "autotune.incremental_replan", _counting(_count_replan)),
]


def _binding_sites(rec: Recorder) -> List[tuple]:
    """Every (owner, attribute, original, wrapper) to swap per step.

    All ``repro`` modules are imported first, so no module imported
    later can capture a wrapper through ``from x import f`` while a
    step is running.
    """
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(info.name)
    sites = []
    for module_name, path, name, make_wrapper in TARGETS:
        module = importlib.import_module(module_name)
        owner_path, _, attr = path.rpartition(".")
        owner = getattr(module, owner_path) if owner_path else module
        original = owner.__dict__[attr]
        wrapper = make_wrapper(rec, name, original)
        sites.append((owner, attr, original, wrapper))
        if owner is not module:
            continue
        for other_name, other in list(sys.modules.items()):
            if (other is None or other is module
                    or not other_name.startswith(("repro", "perfbench"))):
                continue
            for key, value in list(vars(other).items()):
                if value is original:
                    sites.append((other, key, original, wrapper))
    return sites


@contextmanager
def traced_step(rec: Optional[Recorder], name: str = "step"):
    """Run the body as one traced step; a no-op when ``rec`` is None.

    The wrappers are installed for the body only, and the memo-table
    lookups it makes are counted as ``cache.memo.{lookups,hits}``.
    """
    if rec is None:
        yield
        return
    if rec._sites is None:
        rec._sites = _binding_sites(rec)
    before = memo_lookups()
    for owner, attr, _, wrapper in rec._sites:
        setattr(owner, attr, wrapper)
    try:
        handle = rec.open(name)
        try:
            yield
        finally:
            rec.close(handle, name)
    finally:
        for owner, attr, original, _ in reversed(rec._sites):
            setattr(owner, attr, original)
        after = memo_lookups()
        rec.count("cache.memo.hits", after["hit"] - before["hit"])
        rec.count("cache.memo.lookups", sum(after.values()) - sum(before.values()))
