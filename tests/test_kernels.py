"""Numeric contract of the degree-grouped aggregation operator.

:class:`~repro.gnn.functional.SegmentSum` sums float32 rows in a
different order than a row-by-row loop, so it is pinned against a
float64 per-row oracle with an explicit bound: for a row of degree
``k`` every output element may differ from the exact sum by at most
``4 * k * eps32 * sum(|x|)`` over that row's terms (a recursive
float32 sum of ``k`` terms is off by at most ``(k - 1) * eps32`` times
the absolute sum).  Reruns, and freshly built operators, must be
bit-identical, and the backward scatter must be the exact transpose of
the forward gather.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CommRelation, SPSTPlanner
from repro.gnn import SingleDeviceTrainer, build_gcn
from repro.gnn.distributed import DistributedTrainer
from repro.gnn.functional import SegmentSum, segment_sum
from repro.gnn.layers import GraphContext
from repro.graph.csr import Graph
from repro.graph.datasets import synthetic_features, synthetic_labels
from repro.graph.generators import locality_power_law
from repro.partition import partition
from repro.topology import dgx1

EPS32 = float(np.finfo(np.float32).eps)
HUB_DEGREE = 1000


@st.composite
def csr_cases(draw):
    """A CSR plus its gather indices and the shape of the values.

    Covers zero edges, empty leading/trailing rows, no rows at all,
    repeated neighbors (indices drawn with replacement from few
    sources) and, optionally, one hub row of degree >= 1000.
    """
    degrees = draw(st.lists(st.integers(0, 6), max_size=30))
    lead = draw(st.integers(0, 3)) if degrees else 0
    trail = draw(st.integers(0, 3)) if degrees else 0
    degrees = [0] * lead + degrees + [0] * trail
    if degrees and draw(st.booleans()):
        hub_at = draw(st.integers(0, len(degrees) - 1))
        degrees[hub_at] = draw(st.integers(HUB_DEGREE, HUB_DEGREE + 200))
    indptr = np.zeros(len(degrees) + 1, dtype=np.int64)
    np.cumsum(degrees, out=indptr[1:])
    num_src = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    indices = rng.integers(0, num_src, int(indptr[-1]), dtype=np.int64)
    shape = draw(st.sampled_from([(), (1,), (5,)]))
    return indptr, indices, num_src, shape, rng


def oracle(x, indptr, indices):
    """float64 row-by-row sums and their per-element error bound."""
    x64 = x.astype(np.float64)
    n = indptr.size - 1
    exact = np.zeros((n,) + x.shape[1:])
    bound = np.zeros_like(exact)
    for i in range(n):
        terms = x64[indices[indptr[i]: indptr[i + 1]]]
        k = terms.shape[0]
        exact[i] = terms.sum(axis=0)
        bound[i] = 4 * k * EPS32 * np.abs(terms).sum(axis=0)
    return exact, bound


class TestAgainstFloat64Oracle:
    @given(csr_cases())
    @settings(max_examples=60, deadline=None)
    def test_gather_sum_within_bound(self, case):
        indptr, indices, num_src, shape, rng = case
        x = rng.standard_normal((num_src,) + shape).astype(np.float32)
        got = SegmentSum(indptr, indices)(x)
        exact, bound = oracle(x, indptr, indices)
        assert got.shape == exact.shape and got.dtype == np.float32
        assert (np.abs(got - exact) <= bound).all()
        # Empty rows are exactly zero, not merely within the bound.
        empty = np.diff(indptr) == 0
        assert not got[empty].any()

    @given(csr_cases())
    @settings(max_examples=40, deadline=None)
    def test_edge_values_within_bound(self, case):
        indptr, _, _, shape, rng = case
        values = rng.standard_normal((int(indptr[-1]),) + shape)
        values = values.astype(np.float32)
        positions = np.arange(values.shape[0])
        got = segment_sum(values, indptr)
        exact, bound = oracle(values, indptr, positions)
        assert (np.abs(got - exact) <= bound).all()

    def test_no_rows(self):
        op = SegmentSum(np.zeros(1, dtype=np.int64), np.zeros(0, np.int64))
        assert op(np.ones((4, 3), np.float32)).shape == (0, 3)

    def test_num_rows_pads_and_truncates(self):
        indptr = np.array([0, 1, 3])
        indices = np.array([0, 1, 1])
        x = np.array([1.0, 2.0], dtype=np.float32)
        assert SegmentSum(indptr, indices, num_rows=4)(x).tolist() == \
            [1.0, 4.0, 0.0, 0.0]
        assert SegmentSum(indptr, indices, num_rows=1)(x).tolist() == [1.0]


def _context(seed: int) -> GraphContext:
    """A context whose destination rows are a strict prefix of its input
    rows (the device-local layout), with one hub destination."""
    rng = np.random.default_rng(seed)
    num_rows, num_dst = 300, 120
    src = rng.integers(0, num_rows, 900)
    dst = rng.integers(0, num_dst, 900)
    src = np.concatenate([src, rng.integers(0, num_rows, HUB_DEGREE)])
    dst = np.concatenate([dst, np.zeros(HUB_DEGREE, dtype=np.int64)])
    graph = Graph(src, dst, num_vertices=num_rows, dedup=False)
    return GraphContext.from_graph(graph, num_dst=num_dst)


class TestAdjointness:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_scatter_is_transpose_of_gather(self, seed):
        ctx = _context(seed)
        rng = np.random.default_rng(seed + 10)
        h = rng.standard_normal((ctx.num_rows, 4))
        g = rng.standard_normal((ctx.num_dst, 4))
        lhs = float((ctx.scatter_sum(g) * h).sum())
        rhs = float((g * ctx.gather_sum(h)).sum())
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


class TestDeterminism:
    @pytest.mark.parametrize("shape", [(), (1,), (7,)])
    def test_reruns_and_rebuilds_are_bit_identical(self, shape):
        ctx = _context(3)
        rng = np.random.default_rng(4)
        h = rng.standard_normal((ctx.num_rows,) + shape).astype(np.float32)
        g = rng.standard_normal((ctx.num_dst,) + shape).astype(np.float32)
        fresh = _context(3)
        for op, rebuilt, x in ((ctx.gather_sum, fresh.gather_sum, h),
                               (ctx.scatter_sum, fresh.scatter_sum, g)):
            first = op(x)
            assert np.array_equal(first, op(x))
            assert np.array_equal(first, rebuilt(x))

    def test_operators_are_built_once_per_context(self):
        ctx = _context(5)
        assert ctx.gather_sum is ctx.gather_sum
        assert ctx.scatter_sum is ctx.scatter_sum


class TestTrainingParity:
    def test_distributed_matches_single_device_on_hub_twin(self):
        """A power-law twin with one planted hub of in-degree >= 1000:
        the hub's row is summed in a different order on its owner than
        on one device, and the loss still agrees at rtol 1e-4."""
        base = locality_power_law(1500, 3.0, exponent=2.1, seed=2)
        rng = np.random.default_rng(6)
        talkers = rng.choice(1500, HUB_DEGREE + 100, replace=False)
        src = np.concatenate([base.edges[0], talkers])
        dst = np.concatenate([base.edges[1],
                              np.full(talkers.size, 7, dtype=np.int64)])
        graph = Graph(src, dst, num_vertices=1500)
        assert int(np.diff(graph.in_indptr).max()) >= HUB_DEGREE
        feats = synthetic_features(graph, 32, seed=1)
        labels = synthetic_labels(graph, 6, seed=1)
        rel = CommRelation(graph, partition(graph, 4, seed=0).assignment, 4)
        plan = SPSTPlanner(dgx1(4), seed=0).plan(rel)
        ref = SingleDeviceTrainer(graph, build_gcn(32, 16, 6, seed=3), feats,
                                  labels, lr=0.1)
        dist = DistributedTrainer(rel, plan, build_gcn(32, 16, 6, seed=3),
                                  feats, labels, lr=0.1)
        for _ in range(3):
            a, b = ref.run_epoch(), dist.run_epoch()
            assert b.loss == pytest.approx(a.loss, rel=1e-4)
