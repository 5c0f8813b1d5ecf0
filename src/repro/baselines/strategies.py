"""Simulated per-epoch evaluation of the communication schemes.

A :class:`Workload` bundles everything one experiment cell needs — the
data graph, the model, the topology, the partition and the
communication relation — with lazy caching of the expensive pieces
(partition, plans).  :func:`evaluate_scheme` then produces a
:class:`SchemeResult` holding the simulated per-epoch time decomposed
into communication and computation, or an OOM verdict.

Epoch anatomy (mirrors the paper's Listing 1 plus the backward pass):

* forward: for each layer ``i``, one graphAllgather at the layer's
  input width, then the layer's computation (all schemes run the same
  kernels — §7, "all methods used DGL for single-GPU execution");
* backward: for each layer in reverse, the layer's backward computation
  (≈ 2x forward), then — for every boundary except the input features —
  the gradient scatter, which is the allgather executed in reverse
  (§6.1), non-atomic sub-staged for DGCL (§6.2) and atomic for the
  baselines.

Replication has zero communication but computes and stores the K-hop
closure; Swap stages everything through host memory.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Dict, List, Optional

import numpy as np

from repro.core.baseline_planners import peer_to_peer_plan
from repro.core.plan import CommPlan
from repro.core.relation import CommRelation
from repro.cache import cached_assignment
from repro.comm.collectives import ring_allreduce_time
from repro.comm.methods import CommMethod, MethodTable
from repro.core.spst import SPSTPlanner
from repro.graph.csr import Graph
from repro.graph.datasets import DATASETS, DatasetSpec, load_dataset
from repro.gnn.models import GNNModel, build_model
from repro.obs.metrics import global_metrics
from repro.obs.telemetry import NULL_TELEMETRY, Telemetry
from repro.obs.tracer import TRAINER_TRACK
from repro.partition.hierarchical import hierarchical_partition
from repro.partition.replication import replication_closure
from repro.simulator.compute import (
    ComputeModel,
    partition_memory_bytes,
    training_memory_bytes,
)
from repro.simulator.devices import SimulatedOOMError
from repro.simulator.executor import PlanExecutor, SwapExecutor
from repro.topology.topology import Topology

__all__ = ["Workload", "SchemeResult", "evaluate_scheme", "SCHEMES"]

SCHEMES = ("dgcl", "peer-to-peer", "swap", "replication")

BYTES_PER_FLOAT = 4

# Partitions, relations and plans are independent of the GNN model (the
# paper stresses that one plan serves every layer and model), so they are
# cached process-wide across Workload instances.
_PARTITION_CACHE: Dict[tuple, object] = {}
_RELATION_CACHE: Dict[tuple, CommRelation] = {}
_SPST_CACHE: Dict[tuple, CommPlan] = {}
_P2P_CACHE: Dict[tuple, CommPlan] = {}
# evaluate_scheme is pure in (workload identity, scheme, method): the
# auto-tuner prices the same cell repeatedly across search rungs, so
# results are memoised process-wide too.
_EVAL_CACHE: Dict[tuple, "SchemeResult"] = {}


def clear_caches() -> None:
    """Drop all memoised partitions/relations/plans (mainly for tests)."""
    from repro.schemes.builtin import clear_plan_cache

    _PARTITION_CACHE.clear()
    _RELATION_CACHE.clear()
    _SPST_CACHE.clear()
    _P2P_CACHE.clear()
    _EVAL_CACHE.clear()
    clear_plan_cache()


@dataclass
class SchemeResult:
    """Simulated outcome of one (scheme, workload) cell."""

    scheme: str
    dataset: str
    model: str
    num_devices: int
    status: str  # "ok", "oom" or "unsupported"
    epoch_time: float = float("nan")
    comm_time: float = float("nan")
    compute_time: float = float("nan")
    detail: Dict[str, float] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def ms(self, attr: str = "epoch_time") -> float:
        """The given time attribute in milliseconds."""
        return getattr(self, attr) * 1e3


class Workload:
    """One experiment cell: dataset x model x topology (cached pieces)."""

    def __init__(
        self,
        dataset: str,
        model_name: str,
        topology: Topology,
        num_layers: int = 2,
        seed: int = 0,
        chunks_per_class: int = 4,
        graph: Optional[Graph] = None,
        spec: Optional[DatasetSpec] = None,
        partitioner: str = "hierarchical",
        assignment: Optional[np.ndarray] = None,
    ) -> None:
        if partitioner not in ("hierarchical", "metis"):
            raise ValueError(
                f"unknown partitioner {partitioner!r}; "
                "available: hierarchical, metis"
            )
        self.dataset = dataset
        self.model_name = model_name
        self.topology = topology
        self.num_layers = num_layers
        self.seed = seed
        self.chunks_per_class = chunks_per_class
        self.partitioner = partitioner
        self._assignment = assignment
        self.spec = spec or DATASETS[dataset]
        self.graph = graph if graph is not None else load_dataset(dataset, seed=seed)
        self.model = build_model(
            model_name,
            self.spec.feature_size,
            self.spec.hidden_size,
            self.spec.num_classes,
            num_layers=num_layers,
            seed=seed,
        )
        self.compute_model = ComputeModel()

    # -- cached expensive artefacts -------------------------------------
    def _cache_key(self) -> tuple:
        if self._assignment is not None:
            from repro.autotune.fingerprint import partition_fingerprint

            part = ("explicit", partition_fingerprint(self._assignment))
        else:
            part = (self.partitioner,)
        return (
            self.dataset,
            self.topology.name,
            self.topology.num_devices,
            self.seed,
        ) + part

    @staticmethod
    def _count_cache(name: str, hit: bool) -> None:
        """Account a memo-table lookup on the process-wide registry."""
        global_metrics().counter(
            "cache.lookups", cache=name, outcome="hit" if hit else "miss"
        ).inc()

    def _compute_assignment(self) -> np.ndarray:
        """Run the configured partitioner (the cold path)."""
        if self.partitioner == "metis":
            from repro.partition.metis import partition as metis_partition

            return metis_partition(
                self.graph, self.num_devices, seed=self.seed
            ).assignment
        return hierarchical_partition(
            self.graph, self.topology, seed=self.seed
        ).assignment

    @cached_property
    def partition(self):
        key = self._cache_key()
        self._count_cache("partition", key in _PARTITION_CACHE)
        if key not in _PARTITION_CACHE:
            if self._assignment is not None:
                assignment = np.asarray(self._assignment, dtype=np.int64)
            else:
                assignment = cached_assignment(
                    ("partition",) + key,
                    self.graph.num_vertices,
                    self._compute_assignment,
                )
            from repro.partition.metis import PartitionResult, edge_cut

            sizes = np.bincount(assignment, minlength=self.num_devices)
            n = self.graph.num_vertices
            _PARTITION_CACHE[key] = PartitionResult(
                assignment=assignment,
                num_parts=self.num_devices,
                edge_cut=edge_cut(self.graph, assignment),
                imbalance=float(sizes.max() / (n / self.num_devices)) if n else 0.0,
            )
        return _PARTITION_CACHE[key]

    @cached_property
    def relation(self) -> CommRelation:
        key = self._cache_key()
        self._count_cache("relation", key in _RELATION_CACHE)
        if key not in _RELATION_CACHE:
            _RELATION_CACHE[key] = CommRelation(
                self.graph, self.partition.assignment, self.topology.num_devices
            )
        return _RELATION_CACHE[key]

    @cached_property
    def spst_plan(self) -> CommPlan:
        key = self._cache_key() + (self.chunks_per_class,)
        self._count_cache("spst_plan", key in _SPST_CACHE)
        if key not in _SPST_CACHE:
            planner = SPSTPlanner(
                self.topology,
                granularity="chunk",
                chunks_per_class=self.chunks_per_class,
                seed=self.seed,
            )
            _SPST_CACHE[key] = planner.plan(self.relation)
        return _SPST_CACHE[key]

    @cached_property
    def p2p_plan(self) -> CommPlan:
        key = self._cache_key()
        self._count_cache("p2p_plan", key in _P2P_CACHE)
        if key not in _P2P_CACHE:
            _P2P_CACHE[key] = peer_to_peer_plan(self.relation, self.topology)
        return _P2P_CACHE[key]

    # -- shared helpers --------------------------------------------------
    @property
    def num_devices(self) -> int:
        return self.topology.num_devices

    def boundary_bytes(self) -> List[int]:
        """Payload bytes per vertex at each allgather boundary."""
        return [d * BYTES_PER_FLOAT for d in self.model.layer_dims[: self.num_layers]]

    def device_slice(self, device: int):
        """(num_local, num_rows, num_edges) of one device's partition."""
        local = self.relation.local_vertices[device].size
        remote = self.relation.remote_vertices[device].size
        lg = self.relation.local_graph(device)
        return local, local + remote, lg.graph.num_edges

    def partition_compute_time(self) -> float:
        """Max-over-devices epoch compute of the partitioned schemes."""
        worst = 0.0
        for d in range(self.num_devices):
            num_dst, num_rows, num_edges = self.device_slice(d)
            cost = self.model.compute_cost(num_dst, num_rows, num_edges)
            worst = max(worst, self.compute_model.seconds(cost))
        return worst

    def check_partition_memory(self, cache_features: bool = False) -> None:
        """Raise SimulatedOOMError if any device cannot hold its slice.

        With ``cache_features`` each device additionally pins the
        layer-0 embeddings of its remote vertices for the whole run.
        """
        dims = self.model.memory_dims()
        boundary_dims = self.model.layer_dims[: self.num_layers]
        feature_dim = self.model.layer_dims[0]
        for d in range(self.num_devices):
            num_local, num_rows, num_edges = self.device_slice(d)
            need = partition_memory_bytes(
                num_local, num_rows - num_local, num_edges, dims, boundary_dims
            )
            if cache_features:
                need += (num_rows - num_local) * feature_dim * BYTES_PER_FLOAT
            cap = self.topology.memory_bytes[d]
            if need > cap:
                raise SimulatedOOMError(d, need, cap, 0)

    @cached_property
    def model_sync_time(self) -> float:
        """Per-epoch weight allreduce (Horovod/DDP stand-in, §6.3)."""
        if self.num_devices < 2:
            return 0.0
        return ring_allreduce_time(self.topology, self.model.state_bytes())

    def result(self, scheme: str, **kwargs) -> SchemeResult:
        """Build a SchemeResult pre-filled with this workload's identity."""
        return SchemeResult(
            scheme=scheme,
            dataset=self.dataset,
            model=self.model_name,
            num_devices=self.num_devices,
            **kwargs,
        )


# ----------------------------------------------------------------------
# Per-scheme evaluation
# ----------------------------------------------------------------------
def _planned_comm_time(
    workload: Workload, plan: CommPlan, nonatomic: bool,
    executor: Optional[PlanExecutor] = None,
    cache_features: bool = False,
    fidelity: str = "event",
) -> Dict[str, float]:
    """Forward allgather + backward scatter time per epoch for a plan.

    ``cache_features`` models the paper's §3 option (1): layer-0
    embeddings of the remote vertices are cached on each GPU once, so
    the feature boundary needs no per-epoch allgather.
    """
    executor = executor or PlanExecutor(workload.topology)
    tracer = executor.telemetry.tracer
    boundaries = workload.boundary_bytes()
    first = 1 if cache_features else 0
    forward = 0.0
    for li, bpu in enumerate(boundaries[first:], start=first):
        t0 = tracer.now if tracer is not None else 0.0
        report = executor.execute(plan, bpu, fidelity=fidelity,
                                  label=f"allgather L{li}")
        forward += report.total_time
        if tracer is not None:
            tracer.add_span(f"allgather L{li}", "phase", TRAINER_TRACK,
                            t0, t0 + report.total_time,
                            bytes=report.bytes_moved())
            tracer.advance(report.total_time)
    backward = 0.0
    backward_tuples = plan.backward_tuples()
    model = workload.compute_model
    for li, bpu in enumerate(boundaries[1:], start=1):
        # feature gradients are never shipped
        received = {}
        for t in backward_tuples:
            received[t.dst] = received.get(t.dst, 0.0) + t.units * bpu
        reduce_time = max(
            (model.gradient_reduce_seconds(b, atomic=not nonatomic)
             for b in received.values()),
            default=0.0,
        )
        t0 = tracer.now if tracer is not None else 0.0
        report = executor.execute_backward(
            backward_tuples, bpu, atomic=not nonatomic, fidelity=fidelity,
            label=f"scatter L{li}",
        )
        transfer = report.total_time
        if tracer is not None:
            tracer.add_span(f"scatter L{li}", "phase", TRAINER_TRACK,
                            t0, t0 + transfer + reduce_time,
                            bytes=report.bytes_moved(),
                            reduce_seconds=reduce_time)
            tracer.advance(transfer + reduce_time)
        backward += transfer + reduce_time
    return {"forward": forward, "backward": backward,
            "total": forward + backward}


def _evaluate_partitioned(
    workload: Workload, scheme: str, plan: CommPlan, nonatomic: bool,
    cache_features: bool = False,
    methods: Optional["MethodTable"] = None,
    fidelity: str = "event",
    telemetry: Telemetry = NULL_TELEMETRY,
) -> SchemeResult:
    try:
        workload.check_partition_memory(cache_features=cache_features)
    except SimulatedOOMError:
        return workload.result(scheme, status="oom")
    compute = workload.partition_compute_time()
    if workload.num_devices == 1:
        return workload.result(
            scheme, status="ok", epoch_time=compute, comm_time=0.0,
            compute_time=compute,
        )
    executor = None
    if telemetry.armed or methods is not None:
        executor = PlanExecutor(workload.topology, methods=methods,
                                telemetry=telemetry)
    comm = _planned_comm_time(workload, plan, nonatomic=nonatomic,
                              cache_features=cache_features,
                              executor=executor, fidelity=fidelity)
    sync = workload.model_sync_time
    comm = dict(comm, sync=sync)
    return workload.result(
        scheme,
        status="ok",
        epoch_time=compute + comm["total"] + sync,
        comm_time=comm["total"],
        compute_time=compute,
        detail=comm,
    )


def _evaluate_swap(
    workload: Workload,
    telemetry: Telemetry = NULL_TELEMETRY,
) -> SchemeResult:
    if workload.topology.num_machines() > 1:
        # NeuGraph's swap is a single-machine design (§7: "as Swap is
        # designed for a single machine ... we do not use it for 16 GPUs").
        return workload.result("swap", status="unsupported")
    compute = workload.partition_compute_time()
    if workload.num_devices == 1:
        return workload.result("swap", status="ok", epoch_time=compute,
                               comm_time=0.0, compute_time=compute)
    executor = SwapExecutor(workload.topology, telemetry=telemetry)
    tracer = telemetry.tracer
    boundaries = workload.boundary_bytes()

    def _swap_round(name: str, bpu: float, dump) -> float:
        t0 = tracer.now if tracer is not None else 0.0
        report = executor.execute(
            workload.relation, bpu, dump_bytes_per_unit=dump
        )
        if tracer is not None:
            tracer.add_span(name, "phase", TRAINER_TRACK, t0,
                            t0 + report.total_time,
                            bytes=report.bytes_moved())
            tracer.advance(report.total_time)
        return report.total_time

    # Boundary 0 reads input features already resident in host memory
    # (no dump); later boundaries dump the previous layer's outputs.
    forward = sum(
        _swap_round(f"swap L{i}", bpu, None if i == 0 else bpu)
        for i, bpu in enumerate(boundaries)
    )
    backward = sum(
        _swap_round(f"swap grad L{i}", bpu, bpu)
        for i, bpu in enumerate(boundaries[1:], start=1)
    )
    comm = forward + backward
    sync = workload.model_sync_time
    return workload.result(
        "swap", status="ok", epoch_time=compute + comm + sync,
        comm_time=comm, compute_time=compute,
        detail={"forward": forward, "backward": backward, "sync": sync},
    )


def _evaluate_replication(workload: Workload) -> SchemeResult:
    graph = workload.graph
    assignment = workload.partition.assignment
    hops = workload.num_layers
    closures = [
        replication_closure(graph, assignment, h) for h in range(hops + 1)
    ]
    in_degree = graph.in_degree()
    dims = workload.model.memory_dims()
    model = workload.compute_model

    # Memory: each device stores activations for its K-hop closure plus
    # the induced adjacency.
    for d in range(workload.num_devices):
        rows = closures[hops][d].size
        edges = int(in_degree[closures[max(hops - 1, 0)][d]].sum())
        need = training_memory_bytes(rows, edges, dims)
        cap = workload.topology.memory_bytes[d]
        if need > cap:
            return workload.result("replication", status="oom")

    # Compute: layer i produces embeddings for the (K-1-i)-hop closure,
    # consuming the (K-i)-hop closure — replicas are recomputed on every
    # device that stores them, which is Replication's whole cost.
    compute = 0.0
    for li, layer in enumerate(workload.model.layers):
        produced_hop = hops - 1 - li
        worst = 0.0
        for d in range(workload.num_devices):
            dst_rows = closures[produced_hop][d]
            num_dst = dst_rows.size
            num_rows = closures[produced_hop + 1][d].size
            num_edges = int(in_degree[dst_rows].sum())
            cost = layer.compute_cost(num_dst, num_rows, num_edges)
            fwd = model.seconds(cost)
            bwd = model.seconds(cost.scaled(2.0))
            worst = max(worst, fwd + bwd)
        compute += worst
    sync = workload.model_sync_time
    return workload.result(
        "replication", status="ok", epoch_time=compute + sync,
        comm_time=0.0, compute_time=compute, detail={"sync": sync},
    )


def _copy_result(result: SchemeResult) -> SchemeResult:
    """Independent copy of a memoised result (detail dict included)."""
    return replace(result, detail=dict(result.detail))


def evaluate_scheme(
    workload: Workload,
    *,
    scheme: str,
    method: Optional[object] = None,
    fidelity: str = "event",
    staleness: int = 0,
    telemetry: Telemetry = NULL_TELEMETRY,
) -> SchemeResult:
    """Run one scheme on one workload; never raises on OOM.

    Everything after the workload is keyword-only.  ``scheme`` is
    resolved through the :mod:`repro.schemes` registry (alias-aware, so
    ``spst``/``p2p`` work), and each spec's ``cost_fn`` does the
    pricing — unknown names raise
    :class:`~repro.errors.UnknownSchemeError` listing every registered
    scheme.  With an armed ``telemetry`` the priced collectives also
    emit per-flow spans and counters (tracer, metrics), and the
    plan-based schemes' executor collects predicted-vs-actual audits
    (auditor) and flight-recorder reports (recorder); the returned
    numbers are unchanged.

    ``method`` forces one §6.2 transfer mechanism (a
    :class:`~repro.comm.methods.CommMethod` or its string value) on
    every device pair of the plan-based schemes instead of DGCL's
    automatic per-pair selection — the knob the auto-tuner sweeps.

    ``fidelity`` picks how the plan-based schemes are priced:
    ``"event"`` (default) runs the full flow-level simulation,
    ``"cost"`` prices straight from the per-stage traffic matrix —
    O(stages x connections), the mode the auto-tuner's halving rungs
    use.  Schemes without a CommPlan (swap / replication / dgcl-r)
    always price at event fidelity.

    ``staleness`` is the bounded-staleness knob: schemes with delayed
    aggregation (``distgnn-delayed``) amortise their communication over
    ``staleness + 1`` epochs; exact schemes ignore it.

    Identical ``(workload, scheme, method, fidelity, staleness)`` cells
    are memoised process-wide (the tuner prices the same cell across
    search rungs); telemetry-armed calls bypass the memo so spans are
    always emitted.
    """
    from repro.schemes import EvalContext, get_scheme

    if fidelity not in ("event", "cost"):
        raise ValueError("fidelity must be 'event' or 'cost'")
    spec = get_scheme(scheme)  # raises UnknownSchemeError when absent
    scheme = spec.name
    if not spec.supports_staleness:
        staleness = 0
    method_key = str(method) if method is not None else None
    memo_key = None
    if not telemetry.armed:
        memo_key = workload._cache_key() + (
            workload.model_name, workload.num_layers,
            workload.chunks_per_class, scheme, spec.version, method_key,
            fidelity, staleness,
        )
        Workload._count_cache("evaluate", memo_key in _EVAL_CACHE)
        if memo_key in _EVAL_CACHE:
            return _copy_result(_EVAL_CACHE[memo_key])

    methods = None
    if method is not None and spec.tunable_method:
        forced = method if isinstance(method, CommMethod) else CommMethod(method)
        methods = MethodTable(workload.topology, force=forced)

    result = spec.cost_fn(workload, EvalContext(
        fidelity=fidelity, staleness=staleness, methods=methods,
        telemetry=telemetry,
    ))
    if memo_key is not None:
        _EVAL_CACHE[memo_key] = _copy_result(result)
    return result
