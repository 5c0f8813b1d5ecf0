"""Multilevel k-way graph partitioning in the METIS style.

The paper partitions the input graph with METIS "to minimize the number
of cross-partition edges for communication reduction and also ensure
that each partition has a similar number of vertices for load balancing"
(§4.1).  METIS itself is not available here, so this module implements
the same multilevel scheme from scratch:

1. **Coarsening** — repeated heavy-edge matching contracts the graph
   until it is small (a few dozen vertices per requested part).
2. **Initial partitioning** — greedy region growing on the coarsest
   graph, seeding parts far apart and absorbing the most-connected
   boundary vertex that keeps the balance constraint.
3. **Uncoarsening + refinement** — the partition is projected back level
   by level, running boundary Kernighan–Lin/FM-style passes (move a
   vertex to the adjacent part with the best edge-cut gain, subject to
   balance) at every level.

The partitioner works on the symmetrised weighted graph; edge cut is
reported on the original directed graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.graph.csr import Graph

__all__ = ["PARTITIONER_VERSION", "PartitionResult", "partition", "edge_cut"]

#: Version of this partitioner and the hierarchical split built on it;
#: keys the on-disk assignment cache.  Bump it when assignments move.
PARTITIONER_VERSION = 1


@dataclass(frozen=True)
class PartitionResult:
    """A vertex-to-part assignment plus quality metrics."""

    assignment: np.ndarray
    num_parts: int
    edge_cut: int
    imbalance: float

    def parts(self) -> List[np.ndarray]:
        """Vertex ids of each part, ascending within a part."""
        return [np.flatnonzero(self.assignment == p) for p in range(self.num_parts)]

    def part_sizes(self) -> np.ndarray:
        """Vertex count of every part."""
        return np.bincount(self.assignment, minlength=self.num_parts)


def edge_cut(graph: Graph, assignment: np.ndarray) -> int:
    """Number of directed edges whose endpoints live in different parts."""
    src, dst = graph.edges
    if src.size == 0:
        return 0
    return int((assignment[src] != assignment[dst]).sum())


# ----------------------------------------------------------------------
# Internal weighted-graph representation used during the multilevel walk.
# ----------------------------------------------------------------------
class _WeightedGraph:
    """Undirected weighted CSR used by coarsening/refinement."""

    __slots__ = ("n", "indptr", "indices", "eweights", "vweights")

    def __init__(
        self,
        n: int,
        indptr: np.ndarray,
        indices: np.ndarray,
        eweights: np.ndarray,
        vweights: np.ndarray,
    ) -> None:
        self.n = n
        self.indptr = indptr
        self.indices = indices
        self.eweights = eweights
        self.vweights = vweights

    @classmethod
    def from_graph(cls, graph: Graph) -> "_WeightedGraph":
        src, dst = graph.edges
        n = graph.num_vertices
        # Symmetrise and merge parallel edges, accumulating weights.
        all_src = np.concatenate([src, dst])
        all_dst = np.concatenate([dst, src])
        keep = all_src != all_dst
        all_src, all_dst = all_src[keep], all_dst[keep]
        return cls._from_edges(n, all_src, all_dst,
                               np.ones(all_src.size, dtype=np.int64),
                               np.ones(n, dtype=np.int64))

    @classmethod
    def _from_edges(
        cls,
        n: int,
        src: np.ndarray,
        dst: np.ndarray,
        weights: np.ndarray,
        vweights: np.ndarray,
    ) -> "_WeightedGraph":
        if src.size == 0:
            indptr = np.zeros(n + 1, dtype=np.int64)
            return cls(n, indptr, np.empty(0, np.int64), np.empty(0, np.int64), vweights)
        code = src * np.int64(n) + dst
        order = np.argsort(code, kind="stable")
        code, src, dst, weights = code[order], src[order], dst[order], weights[order]
        boundary = np.empty(code.size, dtype=bool)
        boundary[0] = True
        boundary[1:] = code[1:] != code[:-1]
        group = np.cumsum(boundary) - 1
        merged_w = np.bincount(group, weights=weights).astype(np.int64)
        merged_src = src[boundary]
        merged_dst = dst[boundary]
        counts = np.bincount(merged_src, minlength=n)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return cls(n, indptr, merged_dst, merged_w, vweights)

    def neighbors(self, v: int) -> Tuple[np.ndarray, np.ndarray]:
        s, e = self.indptr[v], self.indptr[v + 1]
        return self.indices[s:e], self.eweights[s:e]


def _heavy_edge_matching(wg: _WeightedGraph, rng: np.random.Generator) -> np.ndarray:
    """Match each vertex with its heaviest unmatched neighbor.

    Returns ``match`` with ``match[v]`` = partner (or ``v`` for
    unmatched/self-matched vertices).
    """
    order = rng.permutation(wg.n)
    match = np.full(wg.n, -1, dtype=np.int64)
    indptr, indices, eweights = wg.indptr, wg.indices, wg.eweights
    for v in order:
        if match[v] != -1:
            continue
        s, e = indptr[v], indptr[v + 1]
        best, best_w = v, -1
        for i in range(s, e):
            u = indices[i]
            if match[u] == -1 and u != v and eweights[i] > best_w:
                best, best_w = u, eweights[i]
        match[v] = best
        match[best] = v
    return match


def _contract(wg: _WeightedGraph, match: np.ndarray) -> Tuple[_WeightedGraph, np.ndarray]:
    """Contract matched pairs; returns the coarse graph and the mapping."""
    n = wg.n
    coarse_id = np.full(n, -1, dtype=np.int64)
    next_id = 0
    for v in range(n):
        if coarse_id[v] != -1:
            continue
        coarse_id[v] = next_id
        partner = match[v]
        if partner != v and coarse_id[partner] == -1:
            coarse_id[partner] = next_id
        next_id += 1
    vweights = np.bincount(coarse_id, weights=wg.vweights, minlength=next_id).astype(np.int64)

    # Re-express edges in coarse ids and drop intra-cluster edges.
    src = np.repeat(np.arange(n, dtype=np.int64), np.diff(wg.indptr))
    csrc = coarse_id[src]
    cdst = coarse_id[wg.indices]
    keep = csrc != cdst
    coarse = _WeightedGraph._from_edges(
        next_id, csrc[keep], cdst[keep], wg.eweights[keep], vweights
    )
    return coarse, coarse_id


def _farthest_seeds(
    wg: _WeightedGraph, num_parts: int, rng: np.random.Generator
) -> np.ndarray:
    """Pick seeds spread apart by BFS distance (disconnected first)."""
    seeds = [int(rng.integers(wg.n))]
    for _ in range(num_parts - 1):
        # Multi-source BFS from the current seeds.
        dist = np.full(wg.n, -1, dtype=np.int64)
        frontier = list(seeds)
        for s in frontier:
            dist[s] = 0
        level = 0
        while frontier:
            level += 1
            nxt = []
            for v in frontier:
                nbrs, _ = wg.neighbors(v)
                for u in nbrs:
                    if dist[u] == -1:
                        dist[u] = level
                        nxt.append(int(u))
            frontier = nxt
        unreached = np.flatnonzero(dist == -1)
        if unreached.size:
            seeds.append(int(rng.choice(unreached)))
        else:
            far = np.flatnonzero(dist == dist.max())
            seeds.append(int(rng.choice(far)))
    return np.asarray(seeds, dtype=np.int64)


def _weighted_cut(wg: _WeightedGraph, assignment: np.ndarray) -> int:
    src = np.repeat(np.arange(wg.n, dtype=np.int64), np.diff(wg.indptr))
    crossing = assignment[src] != assignment[wg.indices]
    return int(wg.eweights[crossing].sum())


def _initial_partition(
    wg: _WeightedGraph,
    num_parts: int,
    max_part_weight: float,
    rng: np.random.Generator,
    restarts: int = 4,
) -> np.ndarray:
    """Greedy region growing, best of several far-apart seedings."""
    best: Optional[np.ndarray] = None
    best_cut = np.iinfo(np.int64).max
    for _ in range(restarts):
        assignment = _grow_regions(wg, num_parts, max_part_weight, rng)
        cut = _weighted_cut(wg, assignment)
        if cut < best_cut:
            best, best_cut = assignment, cut
    return best


def _grow_regions(
    wg: _WeightedGraph, num_parts: int, max_part_weight: float, rng: np.random.Generator
) -> np.ndarray:
    assignment = np.full(wg.n, -1, dtype=np.int64)
    part_weight = np.zeros(num_parts, dtype=np.int64)
    seeds = _farthest_seeds(wg, num_parts, rng)
    order_parts = rng.permutation(num_parts)
    for p, seed in zip(order_parts, seeds):
        assignment[seed] = p
        part_weight[p] = wg.vweights[seed]

    # Grow parts: repeatedly take the lightest part and absorb its most
    # connected unassigned neighbor (or any unassigned vertex).
    unassigned = wg.n - num_parts
    while unassigned > 0:
        p = int(np.argmin(np.where(part_weight < max_part_weight, part_weight, np.iinfo(np.int64).max)))
        members = np.flatnonzero(assignment == p)
        best, best_conn = -1, -1
        for v in members:
            nbrs, ws = wg.neighbors(v)
            for u, w in zip(nbrs, ws):
                if assignment[u] == -1 and w > best_conn:
                    best, best_conn = u, w
        if best == -1:
            remaining = np.flatnonzero(assignment == -1)
            best = int(remaining[0])
        assignment[best] = p
        part_weight[p] += wg.vweights[best]
        unassigned -= 1
    return assignment


def _refine(
    wg: _WeightedGraph,
    assignment: np.ndarray,
    num_parts: int,
    max_part_weight: float,
    passes: int,
    rng: np.random.Generator,
) -> None:
    """Boundary FM-style refinement, in place."""
    part_weight = np.bincount(assignment, weights=wg.vweights, minlength=num_parts)
    indptr, indices, eweights = wg.indptr, wg.indices, wg.eweights
    degrees = np.diff(indptr)
    for _ in range(passes):
        moved = 0
        # A vertex is on the boundary iff one of its edges crosses parts.
        edge_src_part = np.repeat(assignment, degrees)
        crossing = edge_src_part != assignment[indices]
        boundary = np.flatnonzero(
            np.bincount(np.repeat(np.arange(wg.n), degrees),
                        weights=crossing, minlength=wg.n) > 0
        )
        order = boundary[rng.permutation(boundary.size)]
        for v in order:
            s, e = indptr[v], indptr[v + 1]
            if s == e:
                continue
            home = assignment[v]
            nbr_parts = assignment[indices[s:e]]
            if (nbr_parts == home).all():
                continue  # interior vertex
            # Connectivity of v to each adjacent part.
            conn: dict = {}
            for u_part, w in zip(nbr_parts, eweights[s:e]):
                conn[u_part] = conn.get(u_part, 0) + w
            internal = conn.get(home, 0)
            best_part, best_gain = home, 0
            for p, w in conn.items():
                if p == home:
                    continue
                if part_weight[p] + wg.vweights[v] > max_part_weight:
                    continue
                gain = w - internal
                if gain > best_gain or (
                    gain == best_gain
                    and best_part != home
                    and part_weight[p] < part_weight[best_part]
                ):
                    best_part, best_gain = p, gain
            # Also allow zero-gain balance moves from overweight parts.
            if best_part == home and part_weight[home] > max_part_weight:
                candidates = [p for p in conn if p != home
                              and part_weight[p] + wg.vweights[v] <= max_part_weight]
                if candidates:
                    best_part = min(candidates, key=lambda p: part_weight[p])
            if best_part != home:
                part_weight[home] -= wg.vweights[v]
                part_weight[best_part] += wg.vweights[v]
                assignment[v] = best_part
                moved += 1
        if moved == 0:
            break


def partition(
    graph: Graph,
    num_parts: int,
    seed: int = 0,
    balance_factor: float = 1.05,
    refine_passes: int = 4,
    coarsen_until: Optional[int] = None,
) -> PartitionResult:
    """Partition ``graph`` into ``num_parts`` balanced parts, minimising cut.

    Parameters
    ----------
    graph:
        The directed data graph.
    num_parts:
        Number of partitions (= number of GPUs).
    seed:
        Seed for the randomised matching/refinement orders.
    balance_factor:
        Maximum allowed part weight relative to the perfectly balanced
        weight (METIS' ``ufactor`` analogue).
    refine_passes:
        Boundary-refinement passes per level.
    coarsen_until:
        Stop coarsening when at most this many vertices remain
        (default: ``max(32 * num_parts, 128)``).
    """
    if num_parts < 1:
        raise ValueError("num_parts must be at least 1")
    n = graph.num_vertices
    if num_parts == 1:
        return PartitionResult(np.zeros(n, dtype=np.int64), 1, 0, 1.0 if n else 0.0)
    if num_parts > n:
        raise ValueError(f"cannot split {n} vertices into {num_parts} parts")

    rng = np.random.default_rng(seed)
    target = coarsen_until or max(32 * num_parts, 128)

    # 1. Coarsen.
    levels: List[Tuple[_WeightedGraph, np.ndarray]] = []
    wg = _WeightedGraph.from_graph(graph)
    while wg.n > target:
        match = _heavy_edge_matching(wg, rng)
        coarse, mapping = _contract(wg, match)
        if coarse.n >= wg.n * 0.95:  # matching stalled (e.g. star graphs)
            break
        levels.append((wg, mapping))
        wg = coarse

    total_weight = float(wg.vweights.sum())
    max_part_weight = balance_factor * total_weight / num_parts

    # 2. Initial partition on the coarsest graph.
    assignment = _initial_partition(wg, num_parts, max_part_weight, rng)
    _refine(wg, assignment, num_parts, max_part_weight, refine_passes, rng)

    # 3. Uncoarsen with refinement at every level.
    for finer, mapping in reversed(levels):
        assignment = assignment[mapping]
        _refine(finer, assignment, num_parts, max_part_weight, refine_passes, rng)

    sizes = np.bincount(assignment, minlength=num_parts)
    imbalance = float(sizes.max() / (n / num_parts)) if n else 0.0
    return PartitionResult(
        assignment=assignment,
        num_parts=num_parts,
        edge_cut=edge_cut(graph, assignment),
        imbalance=imbalance,
    )
