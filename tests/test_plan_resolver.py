"""The one plan ladder: cache -> patch -> cold, in that order."""

from __future__ import annotations

import numpy as np
import pytest

from repro.autotune.cache import PlanCache
from repro.autotune.fingerprint import cache_key
from repro.autotune.replan import plan_cost
from repro.autotune.resolve import MemoryPlanStore, PlanResolver, Resolution
from repro.core.relation import CommRelation
from repro.core.serialize import plan_to_jsonable
from repro.core.spst import SPSTPlanner
from repro.obs import MetricsRegistry, Telemetry
from repro.topology.presets import dgx1


@pytest.fixture()
def inputs(small_graph):
    """(topology, relation, key, cold planner) on a random partition."""
    topology = dgx1()
    rng = np.random.default_rng(11)
    assignment = rng.integers(0, topology.num_devices, small_graph.num_vertices)
    relation = CommRelation(small_graph, assignment, topology.num_devices)
    key = cache_key(small_graph, assignment, topology, {"strategy": "spst"})
    calls = []

    def cold():
        calls.append(1)
        return SPSTPlanner(topology, seed=0).plan(relation)

    cold.calls = calls
    return topology, relation, key, cold


def _resolve(resolver, inputs, **kwargs):
    topology, relation, key, cold = inputs
    return resolver.resolve(key, relation, topology, cold=cold, **kwargs)


def test_rejected_patch_plans_cold_bit_for_bit(inputs):
    topology, relation, _, cold = inputs
    scratch = cold()
    # Claim the donor was absurdly cheap: any patch regresses past the
    # guard, so the ladder must fall through to the caller's cold plan.
    donor = {
        "plan": plan_to_jsonable(scratch),
        "meta": {"cost_units": plan_cost(scratch) / 1e6},
    }
    resolution = _resolve(PlanResolver(caller="test"), inputs,
                          donor=lambda: donor)
    assert resolution.source == "replanned"
    resolution.plan.validate(relation)
    assert plan_to_jsonable(resolution.plan) == plan_to_jsonable(scratch)


@pytest.mark.parametrize("donor", [None, lambda: None])
def test_without_a_donor_document_plans_cold(inputs, donor):
    resolution = _resolve(PlanResolver(caller="test"), inputs, donor=donor)
    assert resolution.source == "planned"
    assert len(inputs[3].calls) == 1


def test_undrifted_donor_patches_without_cold_planning(inputs, tmp_path):
    _, relation, _, cold = inputs
    scratch = cold()
    donor = Resolution(scratch, "planned").as_donor()
    cache = PlanCache(tmp_path)
    resolution = _resolve(PlanResolver(cache, caller="test"), inputs,
                          donor=lambda: donor)
    assert resolution.source == "patched"
    assert len(cold.calls) == 1  # only the donor's own plan
    resolution.plan.validate(relation)
    assert resolution.cost == pytest.approx(plan_cost(scratch))
    assert cache.stats.patches == 1 and cache.stats.stores == 1


def test_store_hit_skips_donor_and_cold(inputs, tmp_path):
    cache = PlanCache(tmp_path)
    resolver = PlanResolver(cache, caller="test")
    first = _resolve(resolver, inputs, meta=lambda: {"strategy": "spst"})
    assert first.source == "planned"
    doc = cache.load_document(cache.path_for(inputs[2]))
    assert doc["meta"] == {"strategy": "spst", "cost_units": first.cost}

    def no_donor():
        raise AssertionError("donor looked up on an exact hit")

    again = _resolve(resolver, inputs, donor=no_donor)
    assert again.source == "cache"
    assert len(inputs[3].calls) == 1
    assert plan_to_jsonable(again.plan) == plan_to_jsonable(first.plan)
    assert cache.stats.stores == 1 and cache.stats.hits == 1


def test_corrupt_entry_falls_through(inputs, tmp_path):
    cache = PlanCache(tmp_path)
    cache.path_for(inputs[2]).write_text("{not json")
    resolution = _resolve(PlanResolver(cache, caller="test"), inputs)
    assert resolution.source == "planned"
    assert cache.stats.invalidations == 1


def test_memory_store_hit_returns_the_stored_plan(inputs):
    registry = MetricsRegistry()
    resolver = PlanResolver(MemoryPlanStore(), caller="probe",
                            telemetry=Telemetry(metrics=registry))
    first = _resolve(resolver, inputs)
    again = _resolve(resolver, inputs)
    assert again.source == "cache" and again.plan is first.plan
    # Every resolution counts once, labelled by caller and rung.
    snap = registry.snapshot()
    assert snap["plan.resolve{caller=probe,source=planned}"] == 1
    assert snap["plan.resolve{caller=probe,source=cache}"] == 1
