"""Edge-case tests for Workload plumbing and the Swap executor."""

import numpy as np
import pytest

from repro.baselines import Workload, evaluate_scheme
from repro.baselines.strategies import clear_caches
from repro.core.baseline_planners import peer_to_peer_plan
from repro.core.relation import CommRelation
from repro.graph.csr import Graph
from repro.graph.datasets import DatasetSpec
from repro.graph.generators import rmat
from repro.schemes import global_registry, register_scheme
from repro.simulator.executor import SwapExecutor
from repro.topology import dgx1, multi_dgx1


def tiny_workload(topology=None, num_layers=2, graph=None, feature_size=24,
                  dataset="tiny-cells", **kwargs):
    graph = graph if graph is not None else rmat(300, 2500, seed=17)
    spec = DatasetSpec(
        name=dataset, num_vertices=300, num_edges=2500,
        feature_size=feature_size, hidden_size=12, num_classes=3,
        builder=lambda s: graph, paper_vertices="-", paper_edges="-",
        paper_avg_degree=8.3,
    )
    return Workload(dataset, "gcn", topology or dgx1(),
                    num_layers=num_layers, graph=graph, spec=spec, **kwargs)


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_caches()
    yield
    clear_caches()


class TestWorkloadPlumbing:
    def test_device_slice_consistency(self):
        w = tiny_workload()
        total_local = 0
        total_edges = 0
        for d in range(8):
            num_local, num_rows, num_edges = w.device_slice(d)
            assert num_rows >= num_local
            total_local += num_local
            total_edges += num_edges
        assert total_local == w.graph.num_vertices
        assert total_edges == w.graph.num_edges

    def test_boundary_bytes_three_layers(self):
        w = tiny_workload(num_layers=3)
        assert w.boundary_bytes() == [24 * 4, 12 * 4, 12 * 4]

    def test_plan_shared_across_workload_instances(self):
        """Plans key on the cell's content: two Workloads with the same
        cell share one plan object — the paper's reuse argument."""
        topo = dgx1()
        a = tiny_workload(topo)
        b = tiny_workload(topo)
        assert a.spst_plan is b.spst_plan
        assert a.p2p_plan is b.p2p_plan

    def test_clear_caches_breaks_sharing(self):
        topo = dgx1()
        a = tiny_workload(topo)
        plan_a = a.spst_plan
        clear_caches()
        b = tiny_workload(topo)
        assert b.spst_plan is not plan_a

    def test_model_sync_time_zero_single_device(self):
        from repro.topology import single_device

        w = tiny_workload(single_device())
        assert w.model_sync_time == 0.0

    def test_three_layer_epoch_costs_more_comm(self):
        shallow = evaluate_scheme(tiny_workload(num_layers=2), scheme="dgcl")
        clear_caches()
        deep = evaluate_scheme(tiny_workload(num_layers=3), scheme="dgcl")
        assert deep.comm_time > shallow.comm_time


def _hits(kind):
    from repro.cache import memo

    return memo.metrics.counter("cache.lookups", cache=kind,
                                outcome="hit").value


class TestContentKeyedMemo:
    """Same display names, different content: never a stale result.

    Each case prices cell ``a``, then cell ``b`` that shares every name
    with ``a``, and compares ``b`` with a fresh pricing after
    ``clear_caches()``.
    """

    @pytest.fixture(autouse=True)
    def _no_disk_cache(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", "0")

    @staticmethod
    def _stale_then_fresh(make_a, make_b):
        first = evaluate_scheme(make_a(), scheme="dgcl")
        second = evaluate_scheme(make_b(), scheme="dgcl")
        clear_caches()
        fresh = evaluate_scheme(make_b(), scheme="dgcl")
        return first, second, fresh

    def test_same_name_different_graph(self):
        other = rmat(300, 1200, seed=18)
        first, second, fresh = self._stale_then_fresh(
            tiny_workload, lambda: tiny_workload(graph=other))
        assert fresh.epoch_time != first.epoch_time
        assert second.epoch_time == fresh.epoch_time

    def test_same_name_different_feature_size(self):
        first, second, fresh = self._stale_then_fresh(
            tiny_workload, lambda: tiny_workload(feature_size=4 * 24))
        assert fresh.epoch_time != first.epoch_time
        assert second.epoch_time == fresh.epoch_time

    def test_same_named_topology_different_memory(self):
        small = lambda: tiny_workload(dgx1(memory_bytes=1024))
        first, second, fresh = self._stale_then_fresh(tiny_workload, small)
        assert first.status == "ok"
        assert second.status == fresh.status == "oom"

    def test_same_named_topology_different_bandwidth(self):
        first, second, fresh = self._stale_then_fresh(
            lambda: tiny_workload(multi_dgx1(2)),
            lambda: tiny_workload(multi_dgx1(2, ib_bandwidth=1e9)))
        assert fresh.epoch_time != first.epoch_time
        assert second.epoch_time == fresh.epoch_time

    def test_same_content_different_name_is_a_relabelled_hit(self):
        first = evaluate_scheme(tiny_workload(), scheme="dgcl")
        before = _hits("evaluate")
        second = evaluate_scheme(tiny_workload(dataset="twin"), scheme="dgcl")
        assert _hits("evaluate") == before + 1
        assert (first.dataset, second.dataset) == ("tiny-cells", "twin")
        assert second.epoch_time == first.epoch_time

    def test_scheme_plan_key_covers_chunks(self):
        seen = []

        def builder(relation, topology, *, chunks_per_class=4, seed=0,
                    engine="vectorized", staleness=0):
            seen.append(chunks_per_class)
            return peer_to_peer_plan(relation, topology)

        register_scheme("chunk-probe", builder=builder)
        try:
            for chunks in (1, 4):
                evaluate_scheme(tiny_workload(chunks_per_class=chunks),
                                scheme="chunk-probe")
        finally:
            global_registry().unregister("chunk-probe")
        assert seen == [1, 4]


class TestAssignmentDiskCache:
    @pytest.fixture(autouse=True)
    def _disk_cache(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        return tmp_path

    def test_other_graph_misses_across_clear_caches(self):
        first = tiny_workload().partition.assignment
        clear_caches()
        other = rmat(300, 1200, seed=18)
        got = tiny_workload(graph=other).partition.assignment
        fresh = tiny_workload(graph=other)._compute_assignment()
        assert not np.array_equal(fresh, first)
        np.testing.assert_array_equal(got, fresh)

    @pytest.mark.parametrize("bad", [
        lambda a: a.astype(np.float64),
        lambda a: np.full_like(a, -1),
    ], ids=["float", "negative"])
    def test_invalid_entry_is_recomputed(self, bad, _disk_cache):
        good = tiny_workload().partition.assignment
        (entry,) = _disk_cache.glob("assignment-*.npy")
        np.save(entry, bad(good))
        clear_caches()
        np.testing.assert_array_equal(tiny_workload().partition.assignment,
                                      good)
        np.testing.assert_array_equal(np.load(entry), good)


class TestSwapDetails:
    @pytest.fixture(scope="class")
    def relation(self):
        graph = rmat(300, 2500, seed=17)
        from repro.partition import partition

        r = partition(graph, 8, seed=0)
        return CommRelation(graph, r.assignment, 8)

    def test_no_remote_vertices_means_cheap_reads(self):
        """A relation with no cross edges only pays the dump phase."""
        g = Graph([0, 1], [1, 0], 16)
        assignment = np.zeros(16, dtype=np.int64)
        rel = CommRelation(g, assignment, 8)
        report = SwapExecutor(dgx1()).execute(rel, 64, dump_bytes_per_unit=64)
        # the only volume is device 0 dumping its 16 local rows
        assert report.total_time < 1e-5

    def test_phases_ordered(self, relation):
        report = SwapExecutor(dgx1()).execute(
            relation, 128, dump_bytes_per_unit=128
        )
        assert report.stage_finish[0] <= report.stage_finish[1]
        assert report.stage_finish[1] == pytest.approx(report.total_time)

    def test_host_efficiency_scales_time(self, relation):
        fast = SwapExecutor(dgx1(), host_efficiency=1.0).execute(relation, 128)
        slow = SwapExecutor(dgx1(), host_efficiency=0.5).execute(relation, 128)
        assert slow.total_time > 1.5 * fast.total_time

    def test_bigger_payload_costs_more(self, relation):
        ex = SwapExecutor(dgx1())
        small = ex.execute(relation, 16, dump_bytes_per_unit=16)
        large = ex.execute(relation, 512, dump_bytes_per_unit=512)
        assert large.total_time > small.total_time
