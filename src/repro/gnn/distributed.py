"""Distributed full-graph training over simulated devices.

This is the Listing-1 workflow of the paper executed for real: each
device holds one partition, calls graphAllgather before every layer,
runs the unmodified single-GPU layer on its local graph, and in the
backward pass ships remote-vertex gradients back through the reversed
communication trees.  Model weights are data-parallel: gradients are
summed across devices (the paper delegates this to Horovod/DDP and
notes GNN models are small).

The trainer is *functionally* distributed — every embedding row really
moves through the planned trees — while running in one process.  Its
losses are asserted (in the test suite and the ``repro train``
self-check) to match :class:`~repro.gnn.training.SingleDeviceTrainer`
within rtol 1e-4, which is the paper's correctness criterion ("all
baselines are equivalent in single-GPU training from the algorithm
perspective").  Not bit-identical: a device numbers its local and
remote rows differently from the single device, so float32
aggregation sums the same terms in another order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.comm.allgather import CompiledAllgather
from repro.core.plan import CommPlan
from repro.core.relation import CommRelation
from repro.gnn.functional import softmax_cross_entropy
from repro.gnn.layers import GraphContext
from repro.gnn.models import GNNModel, SGD
from repro.gnn.training import EpochResult
from repro.obs.telemetry import NULL_TELEMETRY, Telemetry
from repro.obs.tracer import TRAINER_TRACK, device_track

__all__ = ["DistributedTrainer"]

BYTES_PER_FLOAT = 4


class DistributedTrainer:
    """Data-parallel full-graph training over a communication plan."""

    def __init__(
        self,
        relation: CommRelation,
        plan: CommPlan,
        model: GNNModel,
        features: np.ndarray,
        labels: np.ndarray,
        lr: float = 0.01,
        optimizer=None,
        telemetry: Telemetry = NULL_TELEMETRY,
    ) -> None:
        if features.shape[0] != relation.graph.num_vertices:
            raise ValueError("features must cover every vertex")
        self.relation = relation
        self.plan = plan
        self.model = model
        self.labels = labels
        self.optimizer = optimizer or SGD(model, lr=lr)
        self.allgather = CompiledAllgather(relation, plan)
        self.loss_history: List[float] = []

        self.num_devices = relation.num_devices
        self._contexts: List[GraphContext] = []
        self._local_features: List[np.ndarray] = []
        self._local_labels: List[np.ndarray] = []
        self._slices: List[tuple] = []  # (num_dst, num_rows, num_edges)
        for d in range(self.num_devices):
            lg = relation.local_graph(d)
            self._contexts.append(
                GraphContext.from_graph(lg.graph, num_dst=lg.num_local)
            )
            self._slices.append(
                (lg.num_local, lg.graph.num_vertices, lg.graph.num_edges)
            )
            local_ids = relation.local_vertices[d]
            self._local_features.append(
                features[local_ids].astype(np.float32, copy=True)
            )
            self._local_labels.append(labels[local_ids])
        self._total_vertices = relation.graph.num_vertices

        #: Optional telemetry.  The functional trainer has no clock of
        #: its own, so phases are priced the same way the evaluation
        #: does — collectives on the flow simulator, kernels on the
        #: compute model — and laid out on the tracer's phase clock.
        #: Numerics never depend on the telemetry.
        self.telemetry = telemetry
        self._price_executor = None
        self._compute_model = None
        self._sync_seconds = 0.0
        if telemetry.armed:
            from repro.comm.collectives import ring_allreduce_time
            from repro.simulator.compute import ComputeModel
            from repro.simulator.executor import PlanExecutor

            self._price_executor = PlanExecutor(plan.topology,
                                                telemetry=telemetry)
            self._compute_model = ComputeModel()
            if self.num_devices >= 2:
                self._sync_seconds = ring_allreduce_time(
                    plan.topology, model.state_bytes()
                )

    # ------------------------------------------------------------------
    # Telemetry pricing (no-ops unless the telemetry is armed)
    def _trace_comm(self, name: str, dim: int, backward: bool) -> None:
        """Price one collective and lay its spans on the phase clock."""
        tracer = self.telemetry.tracer
        t0 = tracer.now if tracer is not None else 0.0
        report = self._price_executor.execute(
            self.plan, dim * BYTES_PER_FLOAT, backward=backward
        )
        if tracer is not None:
            tracer.add_span(name, "phase", TRAINER_TRACK, t0,
                            t0 + report.total_time,
                            bytes=report.bytes_moved())
            tracer.advance(report.total_time)

    def _trace_compute(self, name: str, layer, backward: bool) -> None:
        """Price one layer's kernels; one span per device, max advances."""
        durations = []
        for num_dst, num_rows, num_edges in self._slices:
            cost = layer.compute_cost(num_dst, num_rows, num_edges)
            if backward:
                cost = cost.scaled(2.0)
            durations.append(self._compute_model.seconds(cost))
        worst = max(durations, default=0.0)
        tracer, metrics = self.telemetry.tracer, self.telemetry.metrics
        if tracer is not None:
            t0 = tracer.now
            for d, dur in enumerate(durations):
                tracer.add_span(name, "compute", device_track(d), t0, t0 + dur)
            tracer.add_span(name, "phase", TRAINER_TRACK, t0, t0 + worst)
            tracer.advance(worst)
        if metrics is not None and durations:
            metrics.histogram("compute.straggler_gap").observe(
                worst - min(durations)
            )

    # ------------------------------------------------------------------
    def run_epoch(self, update: bool = True) -> EpochResult:
        """One distributed forward/backward pass (all devices)."""
        num_layers = self.model.num_layers
        traced = self._price_executor is not None
        tracer = self.telemetry.tracer
        epoch = len(self.loss_history)
        epoch_start = tracer.now if tracer is not None else 0.0
        h_local = [f.copy() for f in self._local_features]
        caches: List[List] = [[] for _ in range(self.num_devices)]
        full_inputs: List[List[np.ndarray]] = [[] for _ in range(self.num_devices)]

        for li, layer in enumerate(self.model.layers):
            if traced:
                self._trace_comm(
                    f"allgather L{li}", self.model.layer_dims[li],
                    backward=False,
                )
            # graphAllgather: fetch remote rows for this layer boundary.
            h_full = self.allgather.forward(h_local)
            for d in range(self.num_devices):
                out, cache = layer.forward(self._contexts[d], h_full[d])
                caches[d].append(cache)
                full_inputs[d].append(h_full[d])
                h_local[d] = out
            if traced:
                self._trace_compute(f"L{li} forward", layer, backward=False)

        # Loss: global mean cross-entropy over all vertices.  The local
        # helper normalises by the local count, so rescale each device's
        # contribution by n_local / N to match the reference trainer.
        loss = 0.0
        grad_local: List[np.ndarray] = []
        for d in range(self.num_devices):
            n_local = h_local[d].shape[0]
            if n_local == 0:
                grad_local.append(h_local[d].copy())
                continue
            l_d, g_d = softmax_cross_entropy(h_local[d], self._local_labels[d])
            weight = n_local / self._total_vertices
            loss += l_d * weight
            grad_local.append(g_d * weight)

        # Backward through layers, scattering remote grads between them.
        weight_grads: List[Dict[str, np.ndarray]] = [
            None for _ in range(self.model.num_layers)
        ]
        grad = grad_local
        for li in reversed(range(num_layers)):
            layer = self.model.layers[li]
            full_grads = []
            for d in range(self.num_devices):
                g_full, g_params = layer.backward(
                    self._contexts[d], caches[d][li], grad[d]
                )
                full_grads.append(g_full)
                if weight_grads[li] is None:
                    weight_grads[li] = {k: v.copy() for k, v in g_params.items()}
                else:
                    for k, v in g_params.items():
                        weight_grads[li][k] += v
            if traced:
                self._trace_compute(f"L{li} backward", layer, backward=True)
            if li == 0:
                break  # input features need no gradient: skip the scatter
            if traced:
                self._trace_comm(
                    f"scatter L{li}", self.model.layer_dims[li], backward=True
                )
            # Gradient scatter: remote rows travel back to their owners.
            grad = self.allgather.backward(full_grads)

        if update:
            self.optimizer.step(weight_grads)
            if traced and tracer is not None:
                t0 = tracer.now
                tracer.add_span(
                    "optimizer.allreduce", "phase", TRAINER_TRACK, t0,
                    t0 + self._sync_seconds, bytes=self.model.state_bytes(),
                )
                tracer.advance(self._sync_seconds)

        logits = self.gather_logits(h_local)
        self.loss_history.append(loss)
        if tracer is not None:
            tracer.add_span(f"epoch {epoch}", "epoch", TRAINER_TRACK,
                            epoch_start, tracer.now, loss=float(loss))
            if self.telemetry.metrics is not None:
                self.telemetry.metrics.histogram("epoch.seconds").observe(
                    tracer.now - epoch_start
                )
        return EpochResult(loss=loss, logits=logits, feature_grad=None)

    def gather_logits(self, h_local: List[np.ndarray]) -> np.ndarray:
        """Assemble per-device outputs into global vertex order."""
        dim = h_local[0].shape[1]
        logits = np.zeros((self._total_vertices, dim), dtype=h_local[0].dtype)
        for d in range(self.num_devices):
            logits[self.relation.local_vertices[d]] = h_local[d]
        return logits

    def train(self, epochs: int) -> List[float]:
        """Run ``epochs`` distributed epochs; returns the loss history."""
        for _ in range(epochs):
            self.run_epoch()
        return list(self.loss_history)
