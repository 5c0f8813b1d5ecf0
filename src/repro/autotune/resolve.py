"""The one plan ladder: exact store hit, then incremental patch, then cold.

The session's :meth:`~repro.api.DGCLSession.build_comm_info`, the
per-batch :class:`~repro.sampling.planner.BatchPlanner` and the elastic
:class:`~repro.elastic.controller.ElasticController` all resolve their
plans through a :class:`PlanResolver`; they differ only in the store,
donor and cold planner they plug in.  ``docs/autotune.md`` ("The plan
ladder") describes the rungs: ``cache``, ``patched``, then ``planned``
(``replanned`` when a patch was rejected).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Dict, Optional

from repro.autotune.replan import incremental_replan, plan_cost
from repro.core.plan import CommPlan
from repro.core.relation import CommRelation
from repro.core.serialize import plan_to_jsonable
from repro.errors import PlanCacheError
from repro.obs.telemetry import NULL_TELEMETRY, Telemetry
from repro.topology.topology import Topology

__all__ = ["MemoryPlanStore", "PlanResolver", "Resolution"]


class MemoryPlanStore:
    """An in-process exact-key store with the ladder's view of
    :class:`~repro.autotune.cache.PlanCache`; hits return the stored
    plan object verbatim."""

    def __init__(self) -> None:
        self._plans: Dict[str, CommPlan] = {}

    def get(self, key, topology: Topology) -> Optional[CommPlan]:
        """The plan stored under ``key``, or None."""
        return self._plans.get(key.digest)

    def put(self, key, plan: CommPlan, meta: Optional[dict] = None) -> None:
        """Remember ``plan`` under ``key`` (``meta`` is not kept)."""
        self._plans[key.digest] = plan

    def count_patch(self) -> None:
        """Patches are counted on ``plan.resolve`` only."""


@dataclass
class Resolution:
    """One resolved plan and the ladder rung that produced it."""

    plan: CommPlan
    source: str  # "cache" | "patched" | "replanned" | "planned"

    @cached_property
    def cost(self) -> float:
        """The plan's modelled cost ``t(S)`` in unit-seconds."""
        return plan_cost(self.plan)

    def as_donor(self) -> dict:
        """The plan as a donor document for a later resolve."""
        return {
            "plan": plan_to_jsonable(self.plan),
            "meta": {"cost_units": self.cost},
        }


class PlanResolver:
    """The cache -> patch -> cold ladder for one caller.

    ``store`` is the exact-hit rung (None skips it and stores nothing);
    ``caller`` labels the ``plan.resolve`` metric, counted on
    ``telemetry.metrics`` when that registry is set;
    ``chunks_per_class``, ``seed`` and ``patched_name`` shape patched
    plans.
    """

    def __init__(
        self,
        store=None,
        *,
        caller: str,
        chunks_per_class: int = 4,
        seed: int = 0,
        patched_name: str = "spst-patched",
        telemetry: Telemetry = NULL_TELEMETRY,
    ) -> None:
        self.store = store
        self.caller = caller
        self.chunks_per_class = chunks_per_class
        self.seed = seed
        self.patched_name = patched_name
        self.telemetry = telemetry

    def resolve(
        self,
        key,
        relation: CommRelation,
        topology: Topology,
        cold: Callable[[], CommPlan],
        donor: Optional[Callable[[], Optional[dict]]] = None,
        meta: Optional[Callable[[], dict]] = None,
    ) -> Resolution:
        """Resolve the plan for ``key`` on the new ``relation`` and
        ``topology``.

        ``cold()`` is the caller's from-scratch planner.  ``donor()``
        runs on a store miss and returns the plan document to patch (a
        cache entry or :meth:`Resolution.as_donor`) or None; without a
        ``donor`` the patch rung is skipped.  ``meta()`` runs after
        planning and gives the stored entry's metadata, to which the
        plan's ``cost_units`` is added.
        """
        resolution = self._lookup(key, topology)
        if resolution is None:
            resolution = self._build(relation, topology, cold, donor)
            if self.store is not None:
                entry = dict(meta() if meta is not None else {})
                entry["cost_units"] = resolution.cost
                self.store.put(key, resolution.plan, meta=entry)
        metrics = self.telemetry.metrics
        if metrics is not None:
            metrics.counter("plan.resolve", source=resolution.source,
                            caller=self.caller).inc()
        return resolution

    def _lookup(self, key, topology: Topology) -> Optional[Resolution]:
        """Rung 1: an exact hit in the store."""
        if self.store is None:
            return None
        try:
            plan = self.store.get(key, topology)
        except PlanCacheError:
            return None  # invalid entry: fall through and replan
        return Resolution(plan, "cache") if plan is not None else None

    def _build(self, relation, topology, cold, donor) -> Resolution:
        """Rungs 2 and 3: patch the donor, else plan cold."""
        doc = donor() if donor is not None else None
        if doc is None:
            return Resolution(cold(), "planned")
        result = incremental_replan(
            doc, relation, topology, chunks_per_class=self.chunks_per_class,
            seed=self.seed, name=self.patched_name,
        )
        if not result.patched:
            return Resolution(cold(), "replanned")
        if self.store is not None:
            self.store.count_patch()
        resolution = Resolution(result.plan, "patched")
        resolution.cost = result.patched_cost  # priced by the guard
        return resolution
