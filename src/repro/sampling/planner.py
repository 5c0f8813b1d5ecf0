"""Per-mini-batch communication planning with cache + patch reuse.

Full-graph DGCL plans once and trains forever; sampled training needs
a *fresh* communication plan for every batch, which turns planning into
a hot path (thousands of plans per epoch).  The :class:`BatchPlanner`
keeps that path fast by resolving every batch through the one plan
ladder of :class:`~repro.autotune.resolve.PlanResolver` (described in
``docs/autotune.md``): the store is the shared
:class:`~repro.autotune.cache.PlanCache`, keyed by the sampled subgraph
(:func:`repro.autotune.fingerprint.subgraph_fingerprint` — cheap: the
parent digest is memoised); the donor is the previous batch's plan,
since consecutive batches sample overlapping neighborhoods.
Resolutions land on :class:`BatchPlanStats`, whose sustained plans/sec
is what ``bench_sampling.py`` measures.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.autotune.cache import PlanCache
from repro.autotune.fingerprint import (
    CacheKey,
    config_fingerprint,
    partition_fingerprint,
    subgraph_fingerprint,
    topology_fingerprint,
)
from repro.autotune.resolve import PlanResolver
from repro.core.plan import CommPlan
from repro.core.relation import CommRelation
from repro.core.spst import SPSTPlanner
from repro.graph.csr import Graph
from repro.obs.telemetry import NULL_TELEMETRY, Telemetry
from repro.sampling.samplers import SampledSubgraph
from repro.topology.topology import Topology

__all__ = ["PlannedBatch", "BatchPlanner", "BatchPlanStats"]


@dataclass(frozen=True)
class PlannedBatch:
    """One mini-batch, ready to execute: subgraph + relation + plan.

    ``plan_source`` says which rung of the ladder produced the plan:
    ``"cache"``, ``"patched"`` (the previous batch's trees reused),
    ``"replanned"`` or ``"planned"``.  ``wall_seconds`` is the planning
    time of this batch alone.
    """

    subgraph: SampledSubgraph
    relation: CommRelation
    plan: CommPlan
    plan_source: str
    key: CacheKey
    wall_seconds: float

    @property
    def num_seeds(self) -> int:
        """Seed count of the underlying batch."""
        return self.subgraph.num_seeds


@dataclass
class BatchPlanStats:
    """Running counters of one planner's lifetime (JSON-able)."""

    batches: int = 0
    by_source: Dict[str, int] = field(default_factory=dict)
    wall_seconds: float = 0.0

    def record(self, source: str, wall: float) -> None:
        """Fold one planned batch into the counters."""
        self.batches += 1
        self.by_source[source] = self.by_source.get(source, 0) + 1
        self.wall_seconds += wall

    @property
    def plans_per_second(self) -> float:
        """Sustained planning throughput so far."""
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.batches / self.wall_seconds

    def as_dict(self) -> Dict[str, object]:
        """The counters as a plain mapping (for reports and the CLI)."""
        return {
            "batches": self.batches,
            "by_source": dict(sorted(self.by_source.items())),
            "wall_seconds": self.wall_seconds,
            "plans_per_second": self.plans_per_second,
        }


class BatchPlanner:
    """Plans communication for a stream of sampled subgraphs.

    ``assignment`` is the *parent* graph's partition; each batch plans
    on its restriction to the sampled vertex set, so a vertex trains on
    the same device whether it arrived in a mini-batch or the full
    graph.  ``plan_cache`` (optional) makes exact repeats free across
    epochs and processes; ``incremental`` (default) arms the
    patch-from-previous-batch rung; ``telemetry.metrics`` (optional)
    counts resolutions.
    """

    def __init__(
        self,
        graph: Graph,
        assignment: np.ndarray,
        topology: Topology,
        plan_cache: Optional[PlanCache] = None,
        chunks_per_class: int = 4,
        seed: int = 0,
        incremental: bool = True,
        telemetry: Telemetry = NULL_TELEMETRY,
    ) -> None:
        assignment = np.asarray(assignment, dtype=np.int64)
        if assignment.size != graph.num_vertices:
            raise ValueError("assignment must label every parent vertex")
        self.graph = graph
        self.assignment = assignment
        self.topology = topology
        self.plan_cache = plan_cache
        self.chunks_per_class = int(chunks_per_class)
        self.seed = int(seed)
        self.incremental = bool(incremental)
        self.stats = BatchPlanStats()
        self._topology_fp = topology_fingerprint(topology)
        self._config = {
            "strategy": "spst-minibatch",
            "chunks_per_class": self.chunks_per_class,
            "seed": self.seed,
        }
        self._config_fp = config_fingerprint(self._config)
        self._resolver = PlanResolver(
            plan_cache, caller="sampling",
            chunks_per_class=self.chunks_per_class, seed=self.seed,
            patched_name="spst-minibatch", telemetry=telemetry,
        )
        #: Previous batch's plan as an in-memory donor document (same
        #: envelope a cache entry carries).
        self._donor: Optional[dict] = None

    # ------------------------------------------------------------------
    def batch_key(self, batch: SampledSubgraph) -> CacheKey:
        """The content-addressed cache key of one sampled batch."""
        sub_assignment = self.assignment[batch.vertices]
        return CacheKey(
            graph=subgraph_fingerprint(
                self.graph, batch.vertices, batch.graph
            ),
            partition=partition_fingerprint(sub_assignment),
            topology=self._topology_fp,
            config=self._config_fp,
        )

    def _cold_plan(self, relation: CommRelation) -> CommPlan:
        """The cold rung: plain chunked SPST on the batch relation."""
        return SPSTPlanner(
            self.topology, chunks_per_class=self.chunks_per_class,
            seed=self.seed,
        ).plan(relation, name="spst-minibatch")

    def plan_batch(self, batch: SampledSubgraph) -> PlannedBatch:
        """Plan one sampled batch through the cache/patch/plan ladder."""
        start = time.perf_counter()
        sub_assignment = self.assignment[batch.vertices]
        relation = CommRelation(
            batch.graph, sub_assignment, self.topology.num_devices
        )
        key = self.batch_key(batch)
        resolution = self._resolver.resolve(
            key, relation, self.topology,
            cold=lambda: self._cold_plan(relation),
            donor=(lambda: self._donor) if self.incremental else None,
            meta=lambda: {"strategy": "spst-minibatch"},
        )
        self._donor = resolution.as_donor()
        wall = time.perf_counter() - start
        self.stats.record(resolution.source, wall)
        return PlannedBatch(
            subgraph=batch,
            relation=relation,
            plan=resolution.plan,
            plan_source=resolution.source,
            key=key,
            wall_seconds=wall,
        )

    def plan_stream(self, batches) -> List[PlannedBatch]:
        """Plan every batch of an iterable; returns them in order."""
        return [self.plan_batch(batch) for batch in batches]

    def reset_donor(self) -> None:
        """Forget the previous batch (the next one plans cold or cached)."""
        self._donor = None
