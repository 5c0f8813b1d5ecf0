"""Tests for the functional graphAllgather runtime (data movement)."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.comm.allgather import BufferMaps, CompiledAllgather
from repro.core import CommRelation, SPSTPlanner, peer_to_peer_plan
from repro.core.nonatomic import max_substages, split_backward_substages
from repro.graph.generators import rmat
from repro.partition import partition
from repro.topology import dgx1, ring


@pytest.fixture(scope="module", params=["spst", "p2p", "ring"])
def runtime(request):
    graph = rmat(250, 1800, seed=4)
    r = partition(graph, 6, seed=0)
    rel = CommRelation(graph, r.assignment, 6)
    if request.param == "spst":
        plan = SPSTPlanner(dgx1(6), seed=0).plan(rel)
    elif request.param == "p2p":
        plan = peer_to_peer_plan(rel, dgx1(6))
    else:
        # ring forces multi-hop forwarding through relay devices
        plan = SPSTPlanner(ring(6), granularity="chunk", seed=0).plan(rel)
    return graph, rel, CompiledAllgather(rel, plan)


def local_blocks(rel, matrix):
    return [matrix[rel.local_vertices[d]] for d in range(rel.num_devices)]


class TestForward:
    def test_delivers_exact_rows(self, runtime):
        graph, rel, ag = runtime
        rng = np.random.default_rng(0)
        h = rng.standard_normal((graph.num_vertices, 7)).astype(np.float32)
        full = ag.forward(local_blocks(rel, h))
        for d in range(rel.num_devices):
            layout = np.concatenate(
                [rel.local_vertices[d], rel.remote_vertices[d]]
            )
            assert np.array_equal(full[d], h[layout])

    def test_dimension_agnostic(self, runtime):
        graph, rel, ag = runtime
        for dim in (1, 3, 64):
            h = np.arange(graph.num_vertices * dim, dtype=np.float32)
            h = h.reshape(graph.num_vertices, dim)
            full = ag.forward(local_blocks(rel, h))
            assert full[0].shape[1] == dim

    def test_wrong_block_count_rejected(self, runtime):
        _, rel, ag = runtime
        with pytest.raises(ValueError):
            ag.forward([np.zeros((1, 2))])

    def test_wrong_row_count_rejected(self, runtime):
        _, rel, ag = runtime
        blocks = [
            np.zeros((rel.local_vertices[d].size + 1, 2), dtype=np.float32)
            for d in range(rel.num_devices)
        ]
        with pytest.raises(ValueError):
            ag.forward(blocks)


class TestBackward:
    def test_gradients_accumulate_at_owner(self, runtime):
        """Owner's gradient = its own grad + sum over consumers' grads."""
        graph, rel, ag = runtime
        rng = np.random.default_rng(1)
        dim = 5
        grads = []
        for d in range(rel.num_devices):
            rows = rel.local_vertices[d].size + rel.remote_vertices[d].size
            grads.append(rng.standard_normal((rows, dim)).astype(np.float64))
        out = ag.backward(grads)

        # Reference: accumulate per global vertex.
        expected = np.zeros((graph.num_vertices, dim))
        for d in range(rel.num_devices):
            layout = np.concatenate(
                [rel.local_vertices[d], rel.remote_vertices[d]]
            )
            np.add.at(expected, layout, grads[d])
        for d in range(rel.num_devices):
            assert np.allclose(out[d], expected[rel.local_vertices[d]],
                               atol=1e-9)

    def test_forward_backward_adjoint(self, runtime):
        """<forward(h), g> == <h, backward(g)> — allgather is linear."""
        graph, rel, ag = runtime
        rng = np.random.default_rng(2)
        dim = 3
        h = rng.standard_normal((graph.num_vertices, dim))
        blocks = local_blocks(rel, h)
        full = ag.forward(blocks)
        grads = [rng.standard_normal(f.shape) for f in full]
        back = ag.backward(grads)
        lhs = sum((f * g).sum() for f, g in zip(full, grads))
        rhs = sum((b * x).sum() for b, x in zip(back, blocks))
        assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_plain_scatter_equals_scatter_add_on_relay_plan(self, runtime):
        """Seeding the backward buffers with a plain row assignment gives
        exactly what the scatter-add did: the final layout's rows are
        distinct even on multi-hop plans whose relays hold extra rows."""
        graph, rel, ag = runtime
        rng = np.random.default_rng(3)
        grads = [
            rng.standard_normal((out.size, 4)).astype(np.float32)
            for out in ag._out_rows
        ]
        acc = []
        for d in range(rel.num_devices):
            buf = np.zeros((ag._vertices[d].size, 4), dtype=np.float32)
            np.add.at(buf, ag._out_rows[d], grads[d])
            acc.append(buf)
        for src, dst, src_rows, dst_rows in reversed(ag._ops):
            acc[src][src_rows] += acc[dst][dst_rows]
        expected = [acc[d][ag._local_rows[d]] for d in range(rel.num_devices)]
        for got, want in zip(ag.backward(grads), expected):
            assert np.array_equal(got, want)

    def test_overlapping_layout_rejected(self):
        """The plain scatter needs distinct layout rows; a relation whose
        remote set repeats a local vertex is refused at compile time."""
        rel = SimpleNamespace(num_devices=1,
                              local_vertices=[np.array([0, 1])],
                              remote_vertices=[np.array([1])])
        with pytest.raises(AssertionError, match="overlap"):
            BufferMaps(rel, [])


class TestNonAtomicSubstages:
    def test_waves_isolate_receivers(self, runtime):
        """Within one wave, each (receiver, stage) hears one sender —
        gradients for one vertex can therefore never collide."""
        _, rel, ag = runtime
        tuples = ag.plan.backward_tuples()
        for wave in split_backward_substages(tuples):
            senders = {}
            for t in wave:
                key = (t.dst, t.stage)
                senders.setdefault(key, set()).add(t.src)
            assert all(len(s) == 1 for s in senders.values())

    def test_waves_cover_all_tuples(self, runtime):
        _, rel, ag = runtime
        tuples = ag.plan.backward_tuples()
        waves = split_backward_substages(tuples)
        assert sum(len(w) for w in waves) == len(tuples)

    def test_wave_count_bounded(self, runtime):
        _, rel, ag = runtime
        tuples = ag.plan.backward_tuples()
        assert max_substages(tuples) <= rel.num_devices - 1

    def test_empty(self):
        assert split_backward_substages([]) == []
        assert max_substages([]) == 0
