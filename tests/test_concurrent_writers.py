"""The plan cache survives concurrent writers of the same entry."""

from __future__ import annotations

import multiprocessing

import numpy as np

from repro.autotune.cache import PlanCache
from repro.autotune.fingerprint import cache_key
from repro.core.relation import CommRelation
from repro.core.serialize import plan_to_jsonable
from repro.core.spst import SPSTPlanner
from repro.graph.generators import rmat
from repro.topology.presets import dgx1

WRITERS = 4
WRITES = 100


def _plan_and_key():
    graph = rmat(60, 300, seed=1)
    topology = dgx1()
    assignment = np.arange(graph.num_vertices) % topology.num_devices
    relation = CommRelation(graph, assignment, topology.num_devices)
    plan = SPSTPlanner(topology, seed=0).plan(relation)
    return plan, cache_key(graph, assignment, topology, {"strategy": "spst"})


def _put_many(directory: str) -> int:
    """One writer: store and annotate the same key repeatedly; returns
    how many writes raised."""
    cache = PlanCache(directory)
    plan, key = _plan_and_key()
    errors = 0
    for i in range(WRITES):
        try:
            cache.put(key, plan, meta={"writer": i})
            cache.annotate(key, observed_error=0.0)
        except OSError:
            errors += 1
    return errors


def _race(worker, directory) -> list:
    with multiprocessing.get_context("spawn").Pool(WRITERS) as pool:
        return pool.map_async(worker, [str(directory)] * WRITERS).get(timeout=300)


def test_plan_cache_concurrent_writers(tmp_path):
    assert _race(_put_many, tmp_path) == [0] * WRITERS
    plan, key = _plan_and_key()
    cache = PlanCache(tmp_path)
    stored = cache.get(key, plan.topology)
    assert plan_to_jsonable(stored) == plan_to_jsonable(plan)
    assert list(tmp_path.iterdir()) == [cache.path_for(key)]
