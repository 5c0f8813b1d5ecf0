"""Cost-guided strategy auto-tuning.

The tuner answers the question the paper's Table 5 leaves to the reader:
*which* communication scheme should this (graph, partition, topology)
run?  It enumerates the feasible candidates of a
:class:`~repro.autotune.space.SearchSpace`, prices each one with the
staged cost model through :func:`repro.baselines.evaluate_scheme`
(never executing a real epoch), and hands the schedule to a pluggable
search driver — exhaustive for the default dozen-point space,
successive halving with simulated short runs when the space grows.

A *simulated short run* (fidelity < 1) prices a one-boundary,
single-chunk version of the candidate: roughly an order of magnitude
cheaper to evaluate and rank-correlated with the full model, which is
exactly what a halving rung needs.

The winner is reported as a :class:`TuneReport`; for plan-based
winners, :meth:`TuneReport.build_plan` compiles the executable
:class:`~repro.core.plan.CommPlan` the session or CLI then installs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.autotune.drivers import (
    SearchDriver,
    Trial,
    best_trial,
    select_driver,
)
from repro.autotune.fingerprint import graph_fingerprint
from repro.autotune.space import CandidateScheme, SearchSpace
from repro.baselines.strategies import Workload, evaluate_scheme
from repro.core.plan import CommPlan
from repro.graph.csr import Graph
from repro.graph.datasets import DATASETS, DatasetSpec
from repro.obs.telemetry import NULL_TELEMETRY, Telemetry
from repro.topology.topology import Topology

__all__ = ["AutoTuner", "TuneReport", "workload_spec"]


def workload_spec(
    graph: Graph,
    name: str,
    feature_size: int = 64,
    hidden_size: int = 64,
    num_classes: int = 8,
) -> DatasetSpec:
    """A synthetic :class:`DatasetSpec` wrapping an arbitrary graph.

    Lets the tuner (and any caller) build a
    :class:`~repro.baselines.Workload` for a graph that is not one of
    the four dataset twins.
    """
    return DatasetSpec(
        name=name,
        num_vertices=graph.num_vertices,
        num_edges=graph.num_edges,
        feature_size=feature_size,
        hidden_size=hidden_size,
        num_classes=num_classes,
        builder=lambda seed=0: graph,
        paper_vertices="-",
        paper_edges="-",
        paper_avg_degree=graph.avg_degree,
    )


@dataclass
class TuneReport:
    """Outcome of one tuning run."""

    best: Trial
    trials: List[Trial]
    driver: str
    space_size: int
    workloads: Dict[Tuple[str, int, int], Workload] = field(
        default_factory=dict, repr=False
    )

    @property
    def candidate(self) -> CandidateScheme:
        """The winning candidate."""
        return self.best.candidate

    @property
    def evaluations(self) -> int:
        """Total cost-model evaluations the driver spent."""
        return len(self.trials)

    def workload_for(self, candidate: CandidateScheme) -> Optional[Workload]:
        """The full-fidelity workload a candidate was priced on."""
        return self.workloads.get(
            (candidate.partitioner, candidate.chunks_per_class, 0)
        )

    def build_plan(self) -> CommPlan:
        """Compile the winner's executable plan (plan-based winners).

        Raises ``ValueError`` for winners that have no CommPlan form
        (swap / replication / dgcl-r) — those are *evaluation* schemes;
        a session that needs real collectives restricts its space with
        ``plan_based_only=True``.  Winners from the scheme registry
        compile through their registered ``builder``; the SPST and
        peer-to-peer winners reuse the workload's memoised plans.
        """
        cand = self.candidate
        if not cand.plan_based:
            raise ValueError(
                f"winning strategy {cand.strategy!r} does not compile to "
                "a CommPlan; restrict the space with plan_based_only=True"
            )
        workload = self.workload_for(cand)
        if workload is None:  # pragma: no cover - driver contract
            raise RuntimeError("winner was never priced at full fidelity")
        if cand.strategy == "peer-to-peer":
            return workload.p2p_plan
        if cand.strategy in ("dgcl", "dgcl-cache"):
            return workload.spst_plan
        return cand.spec.build_plan(
            workload.relation, workload.topology,
            chunks_per_class=cand.chunks_per_class, seed=workload.seed,
            staleness=cand.staleness,
        )

    def summary(self) -> str:
        """Human-readable ranking table."""
        finals = {}
        for t in self.trials:
            if t.fidelity >= 1.0:
                finals[t.candidate] = t
        ranked = sorted(finals.values(), key=lambda t: t.cost)
        lines = [
            f"auto-tune: {self.space_size} candidate(s), "
            f"{self.evaluations} evaluation(s), driver={self.driver}",
            f"{'candidate':32s} {'epoch(ms)':>10s} {'comm(ms)':>9s}  status",
        ]
        for t in ranked:
            mark = " <- pick" if t.candidate == self.candidate else ""
            if t.result.ok:
                lines.append(
                    f"{t.candidate.label():32s} {t.result.ms():>10.3f} "
                    f"{t.result.ms('comm_time'):>9.3f}  ok{mark}"
                )
            else:
                lines.append(
                    f"{t.candidate.label():32s} {'-':>10s} {'-':>9s}  "
                    f"{t.result.status}{mark}"
                )
        return "\n".join(lines)

    def as_dict(self) -> dict:
        """JSON-able report (CLI ``--json`` and benchmark artifacts)."""
        return {
            "driver": self.driver,
            "space_size": self.space_size,
            "evaluations": self.evaluations,
            "picked": self.best.as_dict(),
            "trials": [t.as_dict() for t in self.trials],
        }


class AutoTuner:
    """Select the cheapest communication scheme for one workload.

    Parameters
    ----------
    graph, topology:
        The data graph and device graph to tune for.
    model_name, num_layers:
        The GNN whose boundary widths and compute costs price the
        candidates (defaults to a 2-layer GCN).
    dataset:
        Twin name for the model/feature dimensions; ``None`` derives a
        content-addressed synthetic spec from the graph.
    spec:
        Explicit :class:`~repro.graph.datasets.DatasetSpec` overriding
        the twin/synthetic dimensions (custom feature or hidden sizes
        via :func:`workload_spec`); its name keys the workload caches.
    space:
        The candidate space; defaults to every feasible strategy at
        default knobs.
    driver:
        Search driver; default picks by space size
        (:func:`~repro.autotune.drivers.select_driver`).
    assignment:
        Explicit partition assignment.  When given, the partitioner
        dimension collapses (every candidate prices under this
        partition) — this is how a session with a user partition tunes.
    telemetry:
        Optional sinks.  ``telemetry.auditor`` audits the tuner's
        *full-fidelity* evaluations (the final rung — the numbers the
        pick is made on); halving's cost-only short runs stay memoised
        and unaudited.  Only the auditor reaches the evaluations:
        arming their metrics would bypass the memo on every trial.
        ``telemetry.metrics`` counts ``autotune.evaluations`` and
        ``autotune.audited``.  Trial costs are unchanged (asserted by
        the telemetry-neutrality tests).
    """

    def __init__(
        self,
        graph: Graph,
        topology: Topology,
        model_name: str = "gcn",
        num_layers: int = 2,
        seed: int = 0,
        dataset: Optional[str] = None,
        space: Optional[SearchSpace] = None,
        driver: Optional[SearchDriver] = None,
        assignment: Optional[np.ndarray] = None,
        telemetry: Telemetry = NULL_TELEMETRY,
        spec: Optional[DatasetSpec] = None,
    ) -> None:
        self.graph = graph
        self.topology = topology
        self.model_name = model_name
        self.num_layers = num_layers
        self.seed = seed
        self.assignment = assignment
        self.telemetry = telemetry
        if spec is not None:
            self.dataset = spec.name
            self.spec = spec
        elif dataset is not None and dataset in DATASETS:
            self.dataset = dataset
            self.spec = DATASETS[dataset]
        else:
            # Display label only: the process-wide memo keys on the
            # graph's content, not on this name.
            self.dataset = dataset or f"auto-{graph_fingerprint(graph)[:12]}"
            self.spec = workload_spec(graph, self.dataset)
        self.space = space if space is not None else SearchSpace(topology)
        self.driver = driver
        self._workloads: Dict[Tuple[str, int, int], Workload] = {}

    # ------------------------------------------------------------------
    def _workload(
        self, candidate: CandidateScheme, fidelity: float
    ) -> Workload:
        """The (cached) workload one candidate prices against.

        Fidelity below 1 swaps in the simulated short run: one layer
        boundary and single-chunk routing.
        """
        short = fidelity < 1.0
        layers = 1 if short else self.num_layers
        chunks = 1 if short else candidate.chunks_per_class
        partitioner = candidate.partitioner
        if self.assignment is not None:
            partitioner = "hierarchical"  # collapsed: explicit assignment
        key = (partitioner, chunks, layers if short else 0)
        if key not in self._workloads:
            self._workloads[key] = Workload(
                self.dataset,
                self.model_name,
                self.topology,
                num_layers=layers,
                seed=self.seed,
                chunks_per_class=chunks,
                graph=self.graph,
                spec=self.spec,
                partitioner=partitioner,
                assignment=self.assignment,
            )
        return self._workloads[key]

    def evaluate(self, candidate: CandidateScheme, fidelity: float = 1.0) -> Trial:
        """Price one candidate under the staged cost model.

        Halving rungs (fidelity < 1) price at the executor's cost-only
        fidelity — stage times straight from the traffic matrix, no
        per-transfer events — on top of the short-run workload; the
        full-fidelity final rung runs the event simulation, so the
        winner's number is the exact one the session would see.
        """
        workload = self._workload(candidate, fidelity)
        pricing = "cost" if fidelity < 1.0 else "event"
        auditor = self.telemetry.auditor if pricing == "event" else None
        result = evaluate_scheme(
            workload, scheme=candidate.strategy, method=candidate.method,
            fidelity=pricing, staleness=candidate.staleness,
            telemetry=Telemetry(auditor=auditor),
        )
        metrics = self.telemetry.metrics
        if metrics is not None:
            metrics.counter("autotune.evaluations",
                            strategy=candidate.strategy).inc()
            if auditor is not None:
                metrics.counter("autotune.audited",
                                strategy=candidate.strategy).inc()
        return Trial(candidate=candidate, result=result, fidelity=fidelity,
                     pricing=pricing)

    def tune(self) -> TuneReport:
        """Search the space and report the winner."""
        candidates = self.space.candidates()
        if not candidates:
            raise ValueError("the search space is empty for this topology")
        driver = self.driver or select_driver(len(candidates))
        trials = driver.search(candidates, self.evaluate)
        pick = best_trial(trials)
        full = {
            key: w for key, w in self._workloads.items() if key[2] == 0
        }
        return TuneReport(
            best=pick,
            trials=trials,
            driver=driver.name,
            space_size=len(candidates),
            workloads=full,
        )
