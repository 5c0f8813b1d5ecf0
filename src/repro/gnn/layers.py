"""GNN layers: GCN, CommNet and GIN (paper §7, "GNN models").

Each layer follows the aggregate-update pattern of equation (1):

* **GCN** aggregates neighbors with a normalised weighted sum and
  applies one dense transform (simple, communication-bound);
* **CommNet** combines the vertex's own embedding and the neighbor mean
  through two dense transforms;
* **GIN** adds a weighted self-connection to the neighbor sum and feeds
  it through a two-layer MLP — the most computation-heavy of the three,
  matching the paper's ordering.

Layers operate on a :class:`GraphContext` in *local layout*: the input
matrix has one row per vertex present on the device — the ``num_dst``
vertices whose outputs are computed first, then any remote rows
fetched by graphAllgather.  Backward passes are hand written and return
both parameter gradients and the gradient w.r.t. every input row
(including remote rows, which the runtime ships back to their owners).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Optional, Tuple

import numpy as np

from repro.gnn.functional import SegmentSum, relu, relu_grad
from repro.graph.csr import Graph
from repro.simulator.compute import LayerComputeCost

__all__ = ["GraphContext", "GCNLayer", "CommNetLayer", "GINLayer",
           "SAGELayer", "GATLayer"]

Cache = Tuple
Grads = Dict[str, np.ndarray]


@dataclass(frozen=True)
class GraphContext:
    """CSR views a layer needs, in device-local row numbering.

    ``in_indptr``/``in_indices`` list, per destination row ``v``
    (``v < num_dst``), the input rows of its in-neighbors.
    ``out_indptr``/``out_indices`` are the transpose over all
    ``num_rows`` input rows (used by the backward scatter).

    The :class:`~repro.gnn.functional.SegmentSum` operators over these
    views are built on first use and kept for the context's lifetime,
    so a trainer that reuses its contexts across epochs builds each
    operator once.
    """

    num_rows: int
    num_dst: int
    in_indptr: np.ndarray
    in_indices: np.ndarray
    out_indptr: np.ndarray
    out_indices: np.ndarray

    @classmethod
    def from_graph(cls, graph: Graph, num_dst: Optional[int] = None) -> "GraphContext":
        """Build a context from a graph whose edge heads are all < num_dst."""
        num_dst = graph.num_vertices if num_dst is None else num_dst
        if graph.num_edges and int(graph.edges[1].max()) >= num_dst:
            raise ValueError("an edge head lies outside the destination rows")
        return cls(
            num_rows=graph.num_vertices,
            num_dst=num_dst,
            in_indptr=graph.in_indptr[: num_dst + 1],
            in_indices=graph.in_indices,
            out_indptr=graph.out_indptr,
            out_indices=graph.out_indices,
        )

    @property
    def num_edges(self) -> int:
        return int(self.in_indices.size)

    def in_degrees(self) -> np.ndarray:
        """In-degree of every destination row."""
        return np.diff(self.in_indptr)

    @cached_property
    def gather_sum(self) -> SegmentSum:
        """Forward aggregation: ``(num_rows, F) -> (num_dst, F)`` sums of
        each destination row's in-neighbor rows."""
        return SegmentSum(self.in_indptr, self.in_indices)

    @cached_property
    def scatter_sum(self) -> SegmentSum:
        """Backward of :attr:`gather_sum`: ``(num_dst, F) -> (num_rows,
        F)`` sums over each input row's out-edges."""
        return SegmentSum(self.out_indptr, self.out_indices, self.num_rows)

    @cached_property
    def edge_sum(self) -> SegmentSum:
        """Per-destination sums of values given per in-CSR edge."""
        return SegmentSum(self.in_indptr)


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    scale = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-scale, scale, (fan_in, fan_out)).astype(np.float32)


class _Layer:
    """Shared parameter plumbing."""

    def __init__(self, in_dim: int, out_dim: int) -> None:
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.params: Dict[str, np.ndarray] = {}

    def parameter_count(self) -> int:
        return sum(p.size for p in self.params.values())

    @property
    def memory_dims(self):
        """Widths of the activations this layer materialises per row."""
        return [self.out_dim]

    def apply_grads(self, grads: Grads, lr: float) -> None:
        for name, grad in grads.items():
            self.params[name] -= lr * grad


class GCNLayer(_Layer):
    """Graph convolution: ``act((h_v + sum_nbr h_u) / (deg+1) @ W + b)``.

    The normalised self-inclusive mean is the "weighted sum" GCN
    aggregation; degrees come from the context, so the distributed and
    single-device versions normalise identically.
    """

    def __init__(self, in_dim: int, out_dim: int, activation: bool = True,
                 seed: int = 0) -> None:
        super().__init__(in_dim, out_dim)
        rng = np.random.default_rng(seed)
        self.activation = activation
        self.params["W"] = _glorot(rng, in_dim, out_dim)
        self.params["b"] = np.zeros(out_dim, dtype=np.float32)

    def forward(self, ctx: GraphContext, h: np.ndarray) -> Tuple[np.ndarray, Cache]:
        """One layer pass; returns (output rows, backward cache)."""
        deg = ctx.in_degrees().astype(h.dtype) + 1.0
        agg = ctx.gather_sum(h)
        agg += h[: ctx.num_dst]
        agg /= deg[:, None]
        pre = agg @ self.params["W"] + self.params["b"]
        out = relu(pre) if self.activation else pre
        return out, (h, agg, pre, deg)

    def backward(self, ctx: GraphContext, cache: Cache,
                 grad_out: np.ndarray) -> Tuple[np.ndarray, Grads]:
        """Hand-written backward; returns (input-row grads, param grads)."""
        h, agg, pre, deg = cache
        d_pre = relu_grad(pre, grad_out) if self.activation else grad_out
        grads = {
            "W": agg.T @ d_pre,
            "b": d_pre.sum(axis=0),
        }
        d_agg = (d_pre @ self.params["W"].T) / deg[:, None]
        d_h = ctx.scatter_sum(d_agg)
        d_h[: ctx.num_dst] += d_agg
        return d_h, grads

    def compute_cost(self, num_dst: int, num_rows: int, num_edges: int,
                     bytes_per_float: int = 4) -> LayerComputeCost:
        # DGL's GraphConv projects before aggregating when that shrinks
        # the width (602 -> 256 on Reddit), so aggregation streams the
        # smaller dimension; the projection then covers every input row.
        """Hardware-independent cost descriptor of one forward pass."""
        if self.out_dim < self.in_dim:
            agg_dim, dense_rows = self.out_dim, num_rows
        else:
            agg_dim, dense_rows = self.in_dim, num_dst
        agg_bytes = 2.0 * num_edges * agg_dim * bytes_per_float
        flops = 2.0 * dense_rows * self.in_dim * self.out_dim
        return LayerComputeCost(agg_bytes=agg_bytes, dense_flops=flops, num_kernels=3)


class CommNetLayer(_Layer):
    """CommNet: ``tanh(h_v @ W_self + mean_nbr(h) @ W_comm + b)``.

    Models cooperating agents that mix their own state with the mean of
    the messages they receive; two dense transforms per layer.
    """

    def __init__(self, in_dim: int, out_dim: int, activation: bool = True,
                 seed: int = 0) -> None:
        super().__init__(in_dim, out_dim)
        rng = np.random.default_rng(seed)
        self.activation = activation
        self.params["W_self"] = _glorot(rng, in_dim, out_dim)
        self.params["W_comm"] = _glorot(rng, in_dim, out_dim)
        self.params["b"] = np.zeros(out_dim, dtype=np.float32)

    def forward(self, ctx: GraphContext, h: np.ndarray) -> Tuple[np.ndarray, Cache]:
        """One layer pass; returns (output rows, backward cache)."""
        deg = ctx.in_degrees().astype(h.dtype)
        safe_deg = np.where(deg > 0, deg, 1.0)
        mean = ctx.gather_sum(h) / safe_deg[:, None]
        h_dst = h[: ctx.num_dst]
        pre = h_dst @ self.params["W_self"] + mean @ self.params["W_comm"]
        pre += self.params["b"]
        out = np.tanh(pre) if self.activation else pre
        return out, (h, h_dst, mean, out, safe_deg)

    def backward(self, ctx: GraphContext, cache: Cache,
                 grad_out: np.ndarray) -> Tuple[np.ndarray, Grads]:
        """Hand-written backward; returns (input-row grads, param grads)."""
        h, h_dst, mean, out, safe_deg = cache
        d_pre = grad_out * (1.0 - out * out) if self.activation else grad_out
        grads = {
            "W_self": h_dst.T @ d_pre,
            "W_comm": mean.T @ d_pre,
            "b": d_pre.sum(axis=0),
        }
        d_mean = (d_pre @ self.params["W_comm"].T) / safe_deg[:, None]
        d_h = ctx.scatter_sum(d_mean)
        d_h[: ctx.num_dst] += d_pre @ self.params["W_self"].T
        return d_h, grads

    def compute_cost(self, num_dst: int, num_rows: int, num_edges: int,
                     bytes_per_float: int = 4) -> LayerComputeCost:
        # The communication branch can project first like GCN; the self
        # branch always transforms only the destination rows.
        """Hardware-independent cost descriptor of one forward pass."""
        if self.out_dim < self.in_dim:
            agg_dim, comm_rows = self.out_dim, num_rows
        else:
            agg_dim, comm_rows = self.in_dim, num_dst
        agg_bytes = 2.0 * num_edges * agg_dim * bytes_per_float
        flops = 2.0 * self.in_dim * self.out_dim * (num_dst + comm_rows)
        return LayerComputeCost(agg_bytes=agg_bytes, dense_flops=flops, num_kernels=4)


class GINLayer(_Layer):
    """GIN: ``MLP((1 + eps) * h_v + sum_nbr h_u)`` with a 2-layer MLP.

    The MLP hidden width is ``hidden_mult * out_dim``, making GIN the
    most computation-intensive of the three models, as in the paper.
    """

    def __init__(self, in_dim: int, out_dim: int, activation: bool = True,
                 eps: float = 0.1, hidden_mult: int = 2, seed: int = 0) -> None:
        super().__init__(in_dim, out_dim)
        rng = np.random.default_rng(seed)
        self.activation = activation
        self.eps = eps
        hidden = hidden_mult * out_dim
        self.hidden_dim = hidden
        self.params["W1"] = _glorot(rng, in_dim, hidden)
        self.params["b1"] = np.zeros(hidden, dtype=np.float32)
        self.params["W2"] = _glorot(rng, hidden, out_dim)
        self.params["b2"] = np.zeros(out_dim, dtype=np.float32)

    @property
    def memory_dims(self):
        return [self.hidden_dim, self.out_dim]

    def forward(self, ctx: GraphContext, h: np.ndarray) -> Tuple[np.ndarray, Cache]:
        """One layer pass; returns (output rows, backward cache)."""
        summed = ctx.gather_sum(h)
        summed += (1.0 + self.eps) * h[: ctx.num_dst]
        pre1 = summed @ self.params["W1"] + self.params["b1"]
        hid = relu(pre1)
        pre2 = hid @ self.params["W2"] + self.params["b2"]
        out = relu(pre2) if self.activation else pre2
        return out, (h, summed, pre1, hid, pre2)

    def backward(self, ctx: GraphContext, cache: Cache,
                 grad_out: np.ndarray) -> Tuple[np.ndarray, Grads]:
        """Hand-written backward; returns (input-row grads, param grads)."""
        h, summed, pre1, hid, pre2 = cache
        d_pre2 = relu_grad(pre2, grad_out) if self.activation else grad_out
        d_hid = relu_grad(pre1, d_pre2 @ self.params["W2"].T)
        grads = {
            "W2": hid.T @ d_pre2,
            "b2": d_pre2.sum(axis=0),
            "W1": summed.T @ d_hid,
            "b1": d_hid.sum(axis=0),
        }
        d_sum = d_hid @ self.params["W1"].T
        d_h = ctx.scatter_sum(d_sum)
        d_h[: ctx.num_dst] += (1.0 + self.eps) * d_sum
        return d_h, grads

    def compute_cost(self, num_dst: int, num_rows: int, num_edges: int,
                     bytes_per_float: int = 4) -> LayerComputeCost:
        # GIN's MLP is non-linear, so aggregation cannot be deferred
        # behind a projection: it streams the full input width.
        """Hardware-independent cost descriptor of one forward pass."""
        agg_bytes = 2.0 * num_edges * self.in_dim * bytes_per_float
        flops = 2.0 * num_dst * (
            self.in_dim * self.hidden_dim + self.hidden_dim * self.out_dim
        )
        return LayerComputeCost(agg_bytes=agg_bytes, dense_flops=flops, num_kernels=5)


class SAGELayer(_Layer):
    """GraphSAGE (mean aggregator): ``act([h_v ; mean_nbr(h)] @ W + b)``.

    The concatenation doubles the transform's input width, which is the
    classic SAGE cost signature.  Listed in the paper's intro as one of
    the GNN families DGCL serves; not part of the evaluation trio.
    """

    def __init__(self, in_dim: int, out_dim: int, activation: bool = True,
                 seed: int = 0) -> None:
        super().__init__(in_dim, out_dim)
        rng = np.random.default_rng(seed)
        self.activation = activation
        self.params["W"] = _glorot(rng, 2 * in_dim, out_dim)
        self.params["b"] = np.zeros(out_dim, dtype=np.float32)

    def forward(self, ctx: GraphContext, h: np.ndarray) -> Tuple[np.ndarray, Cache]:
        """One layer pass; returns (output rows, backward cache)."""
        deg = ctx.in_degrees().astype(h.dtype)
        safe_deg = np.where(deg > 0, deg, 1.0)
        mean = ctx.gather_sum(h) / safe_deg[:, None]
        concat = np.concatenate([h[: ctx.num_dst], mean], axis=1)
        pre = concat @ self.params["W"] + self.params["b"]
        out = relu(pre) if self.activation else pre
        return out, (h, concat, pre, safe_deg)

    def backward(self, ctx: GraphContext, cache: Cache,
                 grad_out: np.ndarray) -> Tuple[np.ndarray, Grads]:
        """Hand-written backward; returns (input-row grads, param grads)."""
        h, concat, pre, safe_deg = cache
        d_pre = relu_grad(pre, grad_out) if self.activation else grad_out
        grads = {
            "W": concat.T @ d_pre,
            "b": d_pre.sum(axis=0),
        }
        d_concat = d_pre @ self.params["W"].T
        d_self = d_concat[:, : self.in_dim]
        d_mean = d_concat[:, self.in_dim :] / safe_deg[:, None]
        d_h = ctx.scatter_sum(d_mean)
        d_h[: ctx.num_dst] += d_self
        return d_h, grads

    def compute_cost(self, num_dst: int, num_rows: int, num_edges: int,
                     bytes_per_float: int = 4) -> LayerComputeCost:
        """Hardware-independent cost descriptor of one forward pass."""
        agg_bytes = 2.0 * num_edges * self.in_dim * bytes_per_float
        flops = 2.0 * num_dst * (2 * self.in_dim) * self.out_dim
        return LayerComputeCost(agg_bytes=agg_bytes, dense_flops=flops,
                                num_kernels=4)


class GATLayer(_Layer):
    """Single-head graph attention (Velickovic et al., the paper's [33]).

    ``z = h W``; per edge ``u -> v`` an attention logit
    ``e = LeakyReLU(a_src . z_u + a_dst . z_v)`` is softmax-normalised
    over ``v``'s in-edges, and ``out_v = act(sum alpha_uv z_u)``.
    Attention makes the aggregation itself parametric — the heaviest
    per-edge math of the layer zoo.
    """

    def __init__(self, in_dim: int, out_dim: int, activation: bool = True,
                 negative_slope: float = 0.2, seed: int = 0) -> None:
        super().__init__(in_dim, out_dim)
        rng = np.random.default_rng(seed)
        self.activation = activation
        self.negative_slope = negative_slope
        self.params["W"] = _glorot(rng, in_dim, out_dim)
        self.params["a_src"] = _glorot(rng, out_dim, 1)[:, 0]
        self.params["a_dst"] = _glorot(rng, out_dim, 1)[:, 0]
        self.params["b"] = np.zeros(out_dim, dtype=np.float32)

    def _leaky(self, x: np.ndarray) -> np.ndarray:
        return np.where(x > 0, x, self.negative_slope * x)

    def _leaky_grad(self, x: np.ndarray) -> np.ndarray:
        return np.where(x > 0, 1.0, self.negative_slope).astype(x.dtype)

    def forward(self, ctx: GraphContext, h: np.ndarray) -> Tuple[np.ndarray, Cache]:
        """One layer pass; returns (output rows, backward cache)."""
        z = h @ self.params["W"]
        s_src = z @ self.params["a_src"]
        s_dst = z @ self.params["a_dst"]
        # Per-edge logits in in-CSR order (grouped by destination).
        u = ctx.in_indices
        v = np.repeat(np.arange(ctx.num_dst), np.diff(ctx.in_indptr))
        raw = s_src[u] + s_dst[v]
        e = self._leaky(raw)
        # Segment softmax with max-shift for stability.
        seg_max = np.full(ctx.num_dst, -np.inf, dtype=e.dtype)
        np.maximum.at(seg_max, v, e)
        shifted = np.exp(e - np.where(np.isfinite(seg_max), seg_max, 0.0)[v])
        denom = ctx.edge_sum(shifted)
        safe_denom = np.where(denom > 0, denom, 1.0)
        alpha = shifted / safe_denom[v]
        pre = ctx.edge_sum(alpha[:, None] * z[u])
        pre = pre + self.params["b"]
        out = relu(pre) if self.activation else pre
        return out, (h, z, u, v, raw, alpha, pre)

    def backward(self, ctx: GraphContext, cache: Cache,
                 grad_out: np.ndarray) -> Tuple[np.ndarray, Grads]:
        """Hand-written backward; returns (input-row grads, param grads)."""
        h, z, u, v, raw, alpha, pre = cache
        d_pre = relu_grad(pre, grad_out) if self.activation else grad_out

        # out_v = sum alpha_e z_u  (+ b)
        d_alpha = np.einsum("ef,ef->e", z[u], d_pre[v])
        d_z = np.zeros_like(z)
        np.add.at(d_z, u, alpha[:, None] * d_pre[v])

        # softmax backward per destination segment.
        seg_dot = np.zeros(ctx.num_dst, dtype=d_alpha.dtype)
        np.add.at(seg_dot, v, alpha * d_alpha)
        d_e = alpha * (d_alpha - seg_dot[v])
        d_raw = d_e * self._leaky_grad(raw)

        # raw = a_src . z_u + a_dst . z_v
        d_s_src = np.zeros(z.shape[0], dtype=d_raw.dtype)
        d_s_dst = np.zeros(z.shape[0], dtype=d_raw.dtype)
        np.add.at(d_s_src, u, d_raw)
        np.add.at(d_s_dst, v, d_raw)
        d_z += np.outer(d_s_src, self.params["a_src"])
        d_z += np.outer(d_s_dst, self.params["a_dst"])

        grads = {
            "W": h.T @ d_z,
            "a_src": z.T @ d_s_src,
            "a_dst": z.T @ d_s_dst,
            "b": d_pre.sum(axis=0),
        }
        d_h = d_z @ self.params["W"].T
        return d_h, grads

    def compute_cost(self, num_dst: int, num_rows: int, num_edges: int,
                     bytes_per_float: int = 4) -> LayerComputeCost:
        # Projection of every row plus per-edge attention math.
        """Hardware-independent cost descriptor of one forward pass."""
        agg_bytes = 4.0 * num_edges * self.out_dim * bytes_per_float
        flops = 2.0 * num_rows * self.in_dim * self.out_dim \
            + 6.0 * num_edges * self.out_dim
        return LayerComputeCost(agg_bytes=agg_bytes, dense_flops=flops,
                                num_kernels=6)
