"""Functional execution of graphAllgather (and its backward scatter).

The paper's ``graphAllgather`` (§4.2) is a synchronous collective: after
it returns, every device holds the embeddings of its local *and* remote
vertices.  This module executes the operation for real on numpy buffers
following a compiled :class:`~repro.core.plan.CommPlan` — including
multi-hop forwarding, where a relay device receives rows it does not
consume purely to pass them on in a later stage.

All row indices are precompiled once per plan (the paper reuses its
send/receive tables across layers and epochs the same way), so the
per-call work is pure vectorised gather/scatter.

The backward direction implements gradient flow: every device starts
from the gradient w.r.t. its full (local + remote) row block; remote-row
gradients travel the communication trees *in reverse*, accumulating at
forwarders, and arrive summed at the owner — the semantics that
non-atomic sub-stage execution (§6.2) preserves on real hardware.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.core.plan import CommPlan
from repro.core.relation import CommRelation

__all__ = ["CompiledAllgather", "BufferMaps", "compile_buffer_maps"]


class BufferMaps:
    """Precompiled buffer layouts and per-tuple row indices.

    ``vertices[d]`` lists every vertex device ``d`` ever touches (local,
    consumed, or relayed), sorted; ``ops`` holds one
    ``(src, dst, src_rows, dst_rows)`` gather/scatter per compiled
    tuple, in the same order as the tuple list it was built from;
    ``local_rows[d]`` / ``out_rows[d]`` locate the local block and the
    final local-then-remote layout inside the buffer.  A device's local
    and remote vertices are disjoint, so ``out_rows[d]`` never repeats
    a row (checked here, relied on by the backward scatter).
    """

    def __init__(self, relation: CommRelation, tuples) -> None:
        self.num_devices = relation.num_devices
        touched: List[set] = [set() for _ in range(self.num_devices)]
        for d in range(self.num_devices):
            touched[d].update(map(int, relation.local_vertices[d]))
        for t in tuples:
            touched[t.dst].update(map(int, t.vertices))
        self.vertices: List[np.ndarray] = [
            np.asarray(sorted(s), dtype=np.int64) for s in touched
        ]

        self.ops: List[Tuple[int, int, np.ndarray, np.ndarray]] = [
            (t.src, t.dst, self.rows_of(t.src, t.vertices),
             self.rows_of(t.dst, t.vertices))
            for t in tuples
        ]
        self.local_rows: List[np.ndarray] = []
        self.out_rows: List[np.ndarray] = []
        for d in range(self.num_devices):
            self.local_rows.append(self.rows_of(d, relation.local_vertices[d]))
            layout = np.concatenate(
                [relation.local_vertices[d], relation.remote_vertices[d]]
            )
            rows = self.rows_of(d, layout)
            if np.count_nonzero(np.bincount(rows)) != rows.size:
                raise AssertionError(
                    f"device {d} local and remote vertices overlap"
                )
            self.out_rows.append(rows)

    def rows_of(self, device: int, ids: np.ndarray) -> np.ndarray:
        """Buffer rows of ``ids`` on ``device`` (asserts presence)."""
        rows = np.searchsorted(self.vertices[device], ids)
        if (rows >= self.vertices[device].size).any() or (
            self.vertices[device][rows] != ids
        ).any():
            raise AssertionError(
                f"device {device} buffer is missing planned vertices"
            )
        return rows

    def make_buffers(self, local_embeddings: List[np.ndarray]) -> List[np.ndarray]:
        """Allocate per-device buffers seeded with the local blocks."""
        dim = local_embeddings[0].shape[1] if local_embeddings[0].ndim == 2 else 1
        buffers = []
        for d in range(self.num_devices):
            buf = np.zeros((self.vertices[d].size, dim),
                           dtype=local_embeddings[d].dtype)
            buf[self.local_rows[d]] = local_embeddings[d]
            buffers.append(buf)
        return buffers


def compile_buffer_maps(relation: CommRelation, tuples) -> BufferMaps:
    """Build the buffer layout for an arbitrary compiled tuple list."""
    return BufferMaps(relation, tuples)


class CompiledAllgather:
    """Plan-driven allgather over per-device numpy buffers."""

    def __init__(self, relation: CommRelation, plan: CommPlan) -> None:
        plan.validate(relation)
        self.relation = relation
        self.plan = plan
        self.num_devices = relation.num_devices

        tuples = sorted(plan.tuples(), key=lambda t: t.stage)
        maps = BufferMaps(relation, tuples)
        self._vertices = maps.vertices
        self._ops = maps.ops
        self._local_rows = maps.local_rows
        self._out_rows = maps.out_rows

    # ------------------------------------------------------------------
    @property
    def bytes_per_row_factor(self) -> int:
        """Payload rows transferred per call (all hops, all tuples)."""
        return sum(op[2].size for op in self._ops)

    def forward(self, local_embeddings: List[np.ndarray]) -> List[np.ndarray]:
        """Collect local + remote rows on every device.

        ``local_embeddings[d]`` has one row per local vertex of device
        ``d`` (sorted by global id).  Returns per-device matrices in the
        LocalGraph layout (local rows first, then remote rows).
        """
        if len(local_embeddings) != self.num_devices:
            raise ValueError("need one embedding block per device")
        dim = local_embeddings[0].shape[1] if local_embeddings[0].ndim == 2 else 1
        buffers = []
        for d in range(self.num_devices):
            h = local_embeddings[d]
            if h.shape[0] != self.relation.local_vertices[d].size:
                raise ValueError(
                    f"device {d}: expected "
                    f"{self.relation.local_vertices[d].size} local rows, "
                    f"got {h.shape[0]}"
                )
            buf = np.zeros((self._vertices[d].size, dim), dtype=h.dtype)
            buf[self._local_rows[d]] = h
            buffers.append(buf)
        for src, dst, src_rows, dst_rows in self._ops:
            buffers[dst][dst_rows] = buffers[src][src_rows]
        return [buffers[d][self._out_rows[d]] for d in range(self.num_devices)]

    def backward(self, full_grads: List[np.ndarray]) -> List[np.ndarray]:
        """Scatter remote-row gradients back to their owners.

        ``full_grads[d]`` is the gradient w.r.t. device ``d``'s full
        (local + remote) block.  Returns per-device gradients w.r.t. the
        local block only, with every remote contribution accumulated in.
        """
        if len(full_grads) != self.num_devices:
            raise ValueError("need one gradient block per device")
        dim = full_grads[0].shape[1]
        acc = []
        for d in range(self.num_devices):
            buf = np.zeros((self._vertices[d].size, dim), dtype=full_grads[d].dtype)
            # out_rows are distinct (BufferMaps checks it), so a plain
            # scatter places each gradient row; relay-only rows stay 0.
            buf[self._out_rows[d]] = full_grads[d]
            acc.append(buf)
        # Reverse stage order: children push their accumulated gradient
        # to the parent; each tree edge is traversed exactly once.
        for src, dst, src_rows, dst_rows in reversed(self._ops):
            acc[src][src_rows] += acc[dst][dst_rows]
        return [acc[d][self._local_rows[d]] for d in range(self.num_devices)]
