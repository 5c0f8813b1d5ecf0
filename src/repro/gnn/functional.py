"""Vectorised primitives for CSR-based GNN computation.

Everything here is pure numpy.  The central primitive is
:class:`SegmentSum`, a precompiled sum over CSR segments: built once
from ``indptr`` (plus optional gather ``indices``), it groups the rows
by degree so one call is a handful of dense ``x[idx].sum(axis=1)``
reductions, one per distinct degree.
Layers get their operators from
:class:`~repro.gnn.layers.GraphContext`, which builds each one lazily
and keeps it for the context's lifetime; :func:`segment_sum`,
:func:`aggregate_sum`, :func:`aggregate_mean` and :func:`scatter_back`
build a throwaway operator per call.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

__all__ = [
    "SegmentSum",
    "segment_sum",
    "aggregate_sum",
    "aggregate_mean",
    "scatter_back",
    "relu",
    "relu_grad",
    "softmax_cross_entropy",
]


class SegmentSum:
    """Precompiled ``out[i] = sum(x[indices[indptr[i]:indptr[i+1]]])``.

    Rows are stable-sorted by degree and rows of equal degree ``k``
    share one group ``(rows, idx)``, where ``idx`` is the ``(n_k, k)``
    matrix of the rows' gather indices; a call evaluates
    ``out[rows] = x[idx].sum(axis=1)`` per group.  Without ``indices``
    ``x`` holds one row per CSR entry (``idx`` are entry positions).
    The output has ``num_rows`` rows (default ``indptr.size - 1``):
    segments beyond it are dropped and missing or empty ones are zero.
    Summation order is fixed at build time, so reruns are
    bit-identical.
    """

    def __init__(self, indptr: np.ndarray, indices: Optional[np.ndarray] = None,
                 num_rows: Optional[int] = None) -> None:
        indptr = np.asarray(indptr)
        self.num_rows = indptr.size - 1 if num_rows is None else int(num_rows)
        deg = np.diff(indptr[: self.num_rows + 1])
        order = np.argsort(deg, kind="stable")
        degrees, starts = np.unique(deg[order], return_index=True)
        self.groups: List[Tuple[np.ndarray, np.ndarray]] = []
        for k, lo, hi in zip(degrees, starts, np.r_[starts[1:], deg.size]):
            if k == 0:
                continue
            rows = order[lo:hi]
            idx = indptr[rows][:, None] + np.arange(k)
            if indices is not None:
                idx = indices[idx]
            self.groups.append((rows, idx))

    def __call__(self, x: np.ndarray) -> np.ndarray:
        out = np.zeros((self.num_rows,) + x.shape[1:], dtype=x.dtype)
        for rows, idx in self.groups:
            out[rows] = np.take(x, idx, axis=0).sum(axis=1)
        return out


def segment_sum(values: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """Sum ``values`` rows within consecutive CSR segments.

    ``values`` has one row per CSR entry; segment ``i`` spans rows
    ``indptr[i]:indptr[i+1]``.  Empty segments yield zero rows.
    """
    return SegmentSum(indptr)(values)


def aggregate_sum(
    h: np.ndarray, indptr: np.ndarray, indices: np.ndarray
) -> np.ndarray:
    """Per-vertex sum of in-neighbor rows: ``out[v] = sum_u h[u]``.

    ``indptr``/``indices`` are the in-CSR: segment ``v`` lists the
    in-neighbors of ``v``.
    """
    return SegmentSum(indptr, indices)(h)


def aggregate_mean(
    h: np.ndarray, indptr: np.ndarray, indices: np.ndarray
) -> np.ndarray:
    """Per-vertex mean of in-neighbor rows (zero for isolated vertices)."""
    sums = aggregate_sum(h, indptr, indices)
    deg = np.diff(indptr).astype(h.dtype)
    deg[deg == 0] = 1
    return sums / deg[:, None]


def scatter_back(
    grad_out: np.ndarray,
    out_indptr: np.ndarray,
    out_indices: np.ndarray,
    num_rows: int,
) -> np.ndarray:
    """Backward of :func:`aggregate_sum`.

    The forward sums ``h[u]`` into ``out[v]`` for each edge ``u -> v``;
    the backward therefore sums ``grad_out[v]`` into ``grad_h[u]``.
    ``out_indptr``/``out_indices`` are the *out*-CSR (segment ``u`` lists
    the heads of u's out-edges).
    """
    return SegmentSum(out_indptr, out_indices, num_rows)(grad_out)


def relu(x: np.ndarray) -> np.ndarray:
    """Elementwise max(x, 0)."""
    return np.maximum(x, 0)


def relu_grad(x: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Backward of :func:`relu`: mask ``grad`` where ``x <= 0``."""
    return grad * (x > 0)


def softmax_cross_entropy(
    logits: np.ndarray, labels: np.ndarray
) -> Tuple[float, np.ndarray]:
    """Mean cross-entropy loss and its gradient w.r.t. ``logits``."""
    if logits.ndim != 2:
        raise ValueError("logits must be (rows, classes)")
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    probs = exp / exp.sum(axis=1, keepdims=True)
    n = logits.shape[0]
    eps = np.finfo(probs.dtype).tiny
    loss = float(-np.log(probs[np.arange(n), labels] + eps).mean())
    grad = probs
    grad[np.arange(n), labels] -= 1.0
    return loss, grad / n
