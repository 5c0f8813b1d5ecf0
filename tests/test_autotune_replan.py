"""Incremental replanning: patched plans deliver exactly like scratch."""

from __future__ import annotations

import numpy as np
import pytest

from repro.autotune.replan import incremental_replan, plan_cost
from repro.chaos.oracles import RunObservation, check_delivery
from repro.comm.allgather import CompiledAllgather
from repro.core.relation import CommRelation
from repro.core.serialize import plan_to_jsonable
from repro.core.spst import SPSTPlanner
from repro.topology.links import PhysicalConnection
from repro.topology.presets import dgx1
from repro.topology.topology import Link, Topology


def _assignment(graph, topology, seed=11):
    rng = np.random.default_rng(seed)
    return rng.integers(0, topology.num_devices, graph.num_vertices)


def _entry(plan, cost=None):
    """A minimal cache-entry envelope around a plan document."""
    meta = {} if cost is None else {"cost_units": cost}
    return {"plan": plan_to_jsonable(plan), "meta": meta}


def _rescale(topology: Topology, name_factor) -> Topology:
    """The same topology with per-connection bandwidth scaling."""
    remap = {}
    for link in topology.links:
        for conn in link.connections:
            if conn not in remap:
                remap[conn] = PhysicalConnection(
                    conn.name, conn.kind,
                    conn.bandwidth * name_factor(conn.name),
                )
    links = [Link(l.src, l.dst, tuple(remap[c] for c in l.connections))
             for l in topology.links]
    return Topology(
        num_devices=topology.num_devices,
        links=links,
        machine_of=topology.machine_of,
        socket_of=topology.socket_of,
        switch_of=topology.switch_of,
        host_paths={d: (tuple(remap[c] for c in topology.host_write_path(d)),
                        tuple(remap[c] for c in topology.host_read_path(d)))
                    for d in topology.devices()
                    if topology.has_host_staging(d)},
        memory_bytes=topology.memory_bytes,
        name=topology.name,
    )


def _gathered(relation, plan, seed=0):
    """Per-device forward-allgather outputs for random features."""
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(relation.graph.num_vertices, 5))
    runtime = CompiledAllgather(relation, plan)
    local = [features[relation.local_vertices[d]]
             for d in range(relation.num_devices)]
    return runtime.forward(local)


def _delivery_equivalent(relation, patched, scratch) -> None:
    """Assert both plans deliver byte-identical embeddings everywhere."""
    expected = _gathered(relation, scratch)
    got = _gathered(relation, patched)
    obs = RunObservation(
        gathered=got, total_time=0.0, transfers=0, device_finish={},
        stage_finish={}, log_signature=(), trace_signature=(), metrics={},
    )
    assert check_delivery(obs, expected) == []


@pytest.fixture()
def base(small_graph):
    """(topology, assignment, relation, plan) baseline for drift tests."""
    topology = dgx1()
    assignment = _assignment(small_graph, topology)
    relation = CommRelation(small_graph, assignment, topology.num_devices)
    plan = SPSTPlanner(topology, seed=0).plan(relation)
    return topology, assignment, relation, plan


def test_identical_inputs_patch_reuses_everything(base):
    topology, _, relation, plan = base
    result = incremental_replan(_entry(plan), relation, topology)
    assert result.patched
    assert result.regrown_routes == 0 and result.dropped_routes == 0
    assert result.reused_routes == len(plan.routes)
    result.plan.validate(relation)
    _delivery_equivalent(relation, result.plan, plan)


def test_topology_drift_patches_and_delivers(small_graph, base):
    topology, assignment, relation, plan = base
    drifted = _rescale(topology, lambda n: 1.3 if "nv" in n else 1.0)
    result = incremental_replan(_entry(plan), relation, drifted)
    assert result.source in ("patched", "replanned")
    result.plan.validate(relation)
    scratch = SPSTPlanner(drifted, seed=0).plan(relation)
    _delivery_equivalent(relation, result.plan, scratch)


def test_partition_drift_patches_and_delivers(small_graph, base):
    topology, assignment, _, plan = base
    moved = assignment.copy()
    moved[:20] = (moved[:20] + 1) % topology.num_devices
    relation = CommRelation(small_graph, moved, topology.num_devices)
    result = incremental_replan(_entry(plan), relation, topology)
    result.plan.validate(relation)
    scratch = SPSTPlanner(topology, seed=0).plan(relation)
    _delivery_equivalent(relation, result.plan, scratch)
    # Every class the old partition also had reuses its cached tree.
    assert result.reused_routes > 0


def test_vanished_link_routes_regrow(small_graph, base):
    topology, _, relation, plan = base
    # Remove one NVLink entirely: routes that crossed it must regrow.
    victim = topology.links[0]
    pruned = Topology(
        num_devices=topology.num_devices,
        links=[l for l in topology.links if l is not victim],
        machine_of=topology.machine_of,
        socket_of=topology.socket_of,
        switch_of=topology.switch_of,
        host_paths={d: (topology.host_write_path(d),
                        topology.host_read_path(d))
                    for d in topology.devices()
                    if topology.has_host_staging(d)},
        memory_bytes=topology.memory_bytes,
        name=topology.name,
    )
    result = incremental_replan(_entry(plan), relation, pruned)
    result.plan.validate(relation)
    assert result.regrown_routes > 0
    for route in result.plan.routes:
        assert all(link is not victim for link, _ in route.edges)


def test_threshold_regression_falls_back_to_full_replan(base):
    topology, _, relation, plan = base
    # Claim the donor plan was absurdly cheap: any patch "regresses"
    # past the threshold and the replanner must start from scratch.
    entry = _entry(plan, cost=plan_cost(plan) / 1e6)
    result = incremental_replan(entry, relation, topology, threshold=1.5)
    assert result.source == "replanned"
    # A rejected patch carries no plan: the caller plans from scratch
    # (tests/test_plan_resolver.py checks that fallback).
    assert result.plan is None and not result.patched


def test_patched_cost_is_reported(base):
    topology, _, relation, plan = base
    baseline = plan_cost(plan)
    result = incremental_replan(_entry(plan, cost=baseline), relation,
                                topology)
    assert result.patched
    assert result.patched_cost == pytest.approx(baseline)
    assert result.baseline_cost == pytest.approx(baseline)
