"""The benchmark's three workloads: set-up, timed window, checks.

Each workload function takes the workload seed, the run length and a
:class:`Scratch` (per-run temporary directories inside the checkout)
and returns an :class:`Outcome`.  The program only receives generated
inputs: twins from ``load_dataset(name, seed)``, features and labels
from ``synthetic_features``/``synthetic_labels``.

Untraced, a workload measures its timed window for ``seconds`` and
fills :attr:`Outcome.end_to_end`.  Step and plan times are reported as
*costs*: median wall time divided by the median time of the reference
workload of :mod:`perfbench.calibration` sampled in the same phase,
which cancels most of the speed drift of a shared machine; the plan
cost and the raw seconds go to the per-layer set.

The inputs of a run depend on the seed only.  ``seconds`` decides how
often a workload repeats its fixed work (epochs of one trainer, rounds
of fixed cells, rounds of a fixed batch stream), never which inputs it
measures.  Traced, a workload measures untraced for the first half of
``seconds``, then repeats the same work once with
:mod:`perfbench.tracing` installed and fills :attr:`Outcome.per_layer`
from it, plus the overhead (traced minus untraced).  Correctness checks
run outside the timed steps; a failed check is counted, never raised.
"""

from __future__ import annotations

import gc
import itertools
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from perfbench.calibration import Calibrator
from perfbench.tracing import TARGETS, Recorder, memo_lookups, module_of, traced_step
from repro.api import DGCLSession
from repro.autotune import PlanCache
from repro.baselines import SCHEMES, Workload, evaluate_dgcl_r, evaluate_scheme
from repro.baselines.strategies import clear_caches
from repro.comm.allgather import CompiledAllgather
from repro.gnn import MiniBatchOracle, MiniBatchTrainer, SingleDeviceTrainer, build_model
from repro.gnn.distributed import DistributedTrainer
from repro.graph.datasets import DATASETS, load_dataset, synthetic_features, synthetic_labels
from repro.runtime.protocol import ProtocolRunner
from repro.topology import topology_for_gpu_count

__all__ = ["END_TO_END", "PER_LAYER", "WORKLOADS", "Outcome", "Scratch"]

now = time.perf_counter

#: ``repro train`` default learning rate.
LR = 0.05
#: Every wrapped entry point, then ``step``: the benchmark's own code plus
#: program code no span covers.
_SELF_TIMES = tuple(name for _, _, name, _ in TARGETS) + ("step",)
#: Layers whose self time is reported as a share of the traced steps.
LAYERS = tuple(dict.fromkeys(module_of(name) for name in _SELF_TIMES))

#: End-to-end metric -> unit (untraced runs, every workload).
END_TO_END = {
    "setup_s": "s",
    "step_cost.p50": "cal",
    "peak_rss_mb": "MB",
}

#: Per-layer metric -> unit (traced runs, every workload; 0 where the
#: layer does not run).  Seconds and counts are per timed step.
PER_LAYER: Dict[str, str] = {f"{name}.s": "s" for name in _SELF_TIMES}
PER_LAYER.update({
    "comm.rows_gathered": "count",
    "core.SPSTPlanner.plan.calls": "count",
    "simulator.PlanExecutor.execute.calls": "count",
    "simulator.flows": "count",
    "simulator.bytes": "B",
    "runtime.transfers": "count",
    "runtime.rows_misdelivered": "count",
    "sampling.plan_source.planned": "count",
    "sampling.plan_source.patched": "count",
    "sampling.plan_source.replanned": "count",
    "sampling.plan_source.cache": "count",
    "sampling.patch_accept_ratio": "ratio",
    "sampling.cache_hit_ratio": "ratio",
    "sampling.plan_share.cold": "%",
    "sampling.batches_per_s.cold": "1/s",
    "sampling.batches_per_s.warm": "1/s",
    "cache.assignment.lookups": "count",
    "cache.assignment.hits": "count",
    "cache.memo.lookups": "count",
    "cache.memo.hits": "count",
    "sim_epoch_ms.dgcl": "ms",
    "sim_comm_ms.dgcl": "ms",
    "sim_speedup_vs_p2p": "ratio",
    "checks.failed_share": "ratio",
    "trace.overhead_s": "s",
    "trace.overhead_pct": "%",
    # Window figures without a bound: the planning cost spreads too
    # widely from run to run to gate, and raw wall times drift with
    # the machine.
    "plan_cost.p50": "cal",
    "raw.step_s.p50": "s",
    "raw.plan_s.p50": "s",
    "raw.steps_per_s": "1/s",
    "calibration.reference_s": "s",
})
PER_LAYER.update({f"share.{layer}": "%" for layer in LAYERS})


@dataclass
class Outcome:
    """What one run measured and how its checks went."""

    end_to_end: Dict[str, float] = field(default_factory=dict)
    per_layer: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: False once a check fails that the measurement itself relies on
    #: (see :meth:`check`).
    correct: bool = True
    #: Per-cell simulated numbers of cold-evaluate, keyed by phase
    #: ("untraced"/"traced"); the tests compare the two.
    sim_cells: Dict[str, List[tuple]] = field(default_factory=dict)
    recorder: Optional[Recorder] = None

    def check(self, ok: bool, *, validity: bool = True) -> bool:
        """Count one check.  ``validity=False`` marks a check of a known
        program defect: its failure counts in ``failed`` but leaves
        ``correct`` alone, because the timed work is still as stated."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if validity:
                self.correct = False
        return ok


class Scratch:
    """Per-run temporary directories under ``root``, removed on close.

    :meth:`fresh_repro_cache` points ``REPRO_CACHE_DIR`` at a new empty
    directory, so the on-disk assignment cache can never serve a
    partition computed before (and never one from the user's home).
    """

    def __init__(self, root: Path) -> None:
        root.mkdir(parents=True, exist_ok=True)
        self.root = Path(tempfile.mkdtemp(prefix="run-", dir=root))
        self._saved_env = os.environ.get("REPRO_CACHE_DIR")

    def fresh_dir(self, label: str) -> Path:
        return Path(tempfile.mkdtemp(prefix=f"{label}-", dir=self.root))

    def fresh_repro_cache(self) -> Path:
        directory = self.fresh_dir("repro-cache")
        os.environ["REPRO_CACHE_DIR"] = str(directory)
        return directory

    def close(self) -> None:
        if self._saved_env is None:
            os.environ.pop("REPRO_CACHE_DIR", None)
        else:
            os.environ["REPRO_CACHE_DIR"] = self._saved_env
        shutil.rmtree(self.root, ignore_errors=True)

    def __enter__(self) -> "Scratch":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ----------------------------------------------------------------------
# shared helpers
def peak_rss_mb() -> float:
    """Peak resident set of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def layer_metrics(outcome: Outcome, rec: Recorder, untraced_s: float) -> None:
    """Add the figures of the traced steps on ``rec`` to ``outcome.per_layer``.

    ``untraced_s`` is the wall time of the same steps without tracing.
    Times and counts are per step; shares are of the traced step time.
    """
    steps = [s for s in rec.closed_spans() if s[3] is None]
    n = max(len(steps), 1)
    traced_s = sum(end - start for _, start, end, _ in steps)
    by_layer = {layer: 0.0 for layer in LAYERS}
    by_name: Dict[str, float] = {}
    for name, seconds in rec.self_times().items():
        layer = module_of(name)
        by_layer[layer] += seconds
        key = "step" if layer == "step" else name
        by_name[key] = by_name.get(key, 0.0) + seconds
    calls: Dict[str, int] = {}
    for name, *_ in rec.closed_spans():
        calls[name] = calls.get(name, 0) + 1

    metrics: Dict[str, float] = {}
    for name in _SELF_TIMES:
        metrics[f"{name}.s"] = by_name.get(name, 0.0) / n
    for name, value in rec.counts.items():
        if PER_LAYER.get(name) in ("count", "B"):
            metrics[name] = value / n
    for name in ("core.SPSTPlanner.plan", "simulator.PlanExecutor.execute"):
        metrics[f"{name}.calls"] = calls.get(name, 0) / n
    counts = rec.counts
    if counts.get("autotune.incremental_replan.calls"):
        metrics["sampling.patch_accept_ratio"] = (
            counts["autotune.incremental_replan.patched"]
            / counts["autotune.incremental_replan.calls"])
    if counts.get("autotune.PlanCache.get.calls"):
        metrics["sampling.cache_hit_ratio"] = (
            counts["autotune.PlanCache.get.hits"]
            / counts["autotune.PlanCache.get.calls"])
    for layer, seconds in by_layer.items():
        metrics[f"share.{layer}"] = 100.0 * seconds / traced_s
    metrics["trace.overhead_s"] = (traced_s - untraced_s) / n
    metrics["trace.overhead_pct"] = 100.0 * (traced_s - untraced_s) / untraced_s
    outcome.per_layer.update(metrics)
    outcome.recorder = rec


def _summarise(outcome: Outcome, setup_times: List[float],
               steps: List[float], plans: List[float], step_cal: float,
               plan_cal: float, group: int = 1) -> None:
    """End-to-end and raw metrics from the window's wall times.

    ``step_cal``/``plan_cal`` are the median reference times of the
    phases the steps and plans ran in.  With ``group`` > 1, consecutive
    runs of that many steps (and plans) are averaged first and the
    medians are taken over those means, so a mix of step kinds (8- and
    16-GPU cells; patched and replanned batches) is summarised by its
    typical mix rather than by whichever kind holds the middle value.
    """
    def p50(values: List[float]) -> float:
        return statistics.median(
            statistics.fmean(values[i:i + group])
            for i in range(0, len(values), group))

    outcome.end_to_end = {
        "setup_s": statistics.median(setup_times),
        "step_cost.p50": p50(steps) / step_cal,
        "peak_rss_mb": peak_rss_mb(),
    }
    outcome.per_layer.update({
        "plan_cost.p50": p50(plans) / plan_cal,
        "raw.step_s.p50": p50(steps),
        "raw.plan_s.p50": p50(plans),
        "raw.steps_per_s": len(steps) / sum(steps),
        "calibration.reference_s": step_cal,
    })


def _finish(outcome: Outcome) -> Outcome:
    """Zero the per-layer metrics of layers the run never called and
    add the share of failed checks."""
    for name in PER_LAYER:
        outcome.per_layer.setdefault(name, 0.0)
    outcome.per_layer["checks.failed_share"] = (
        outcome.failed / outcome.attempted if outcome.attempted else 0.0
    )
    return outcome


# ----------------------------------------------------------------------
# fullgraph-train
def fullgraph_train(seed: int, seconds: float, trace: bool, scratch: Scratch,
                    *, dataset: str = "wiki-talk", gpus: int = 8,
                    setup_reps: int = 3) -> Outcome:
    """``DistributedTrainer.run_epoch`` on a 2-layer GCN after one
    warm-up epoch; partitioning and planning happen in set-up only."""
    outcome = Outcome()
    spec = DATASETS[dataset]
    topology = topology_for_gpu_count(gpus)
    budget = seconds / 2 if trace else seconds
    setup_times: List[float] = []
    plans: List[float] = []
    epochs: List[float] = []
    with Calibrator() as cal:
        clock = cal.now
        for _ in range(setup_reps):
            # Drop the previous set-up first: only one is ever alive.
            graph = features = labels = workload = plan = trainer = None
            clear_caches()
            scratch.fresh_repro_cache()
            start = clock()
            graph = load_dataset(dataset, seed=seed, cache=False)
            features = synthetic_features(graph, spec.feature_size, seed=seed)
            labels = synthetic_labels(graph, spec.num_classes, seed=seed)
            workload = Workload(dataset, "gcn", topology, seed=seed,
                                graph=graph)
            plan_start = clock()
            plan = workload.spst_plan  # partition -> relation -> SPST
            plans.append(clock() - plan_start)
            trainer = DistributedTrainer(workload.relation, plan,
                                         workload.model, features, labels,
                                         lr=LR)
            setup_times.append(clock() - start)
        trainer.run_epoch()  # warm-up

        window = clock()
        while len(epochs) < 3 or clock() - window < budget:
            start = clock()
            trainer.run_epoch()
            epochs.append(clock() - start)
    _summarise(outcome, setup_times, epochs, plans,
               cal.median_s(since=window), cal.median_s(until=window))
    if trace:
        rec = Recorder(f"fullgraph-train:{seed}")
        for _ in epochs:
            with traced_step(rec):
                trainer.run_epoch()
        layer_metrics(outcome, rec, sum(epochs))

    # Every epoch's loss must match the single-device reference (the
    # ``repro train`` acceptance test, rtol 1e-4).
    reference = SingleDeviceTrainer(
        graph,
        build_model("gcn", spec.feature_size, spec.hidden_size,
                    spec.num_classes, seed=seed),
        features, labels, lr=LR,
    ).train(len(trainer.loss_history))
    for ref, got in zip(reference, trainer.loss_history):
        outcome.check(bool(np.isclose(got, ref, rtol=1e-4)))
    return _finish(outcome)


# ----------------------------------------------------------------------
# cold-evaluate
#: The fixed cells of one round: cell ``i`` runs on ``GPU_CYCLE[i]`` GPUs
#: (one DGX-1, then two over IB) with graph seed ``seed + i``.
GPU_CYCLE = (8, 16)


@dataclass
class Cell:
    """One cold evaluate cell: timings, simulated numbers, check inputs."""

    seconds: float
    plan_seconds: float
    sim: tuple  # (dgcl epoch ms, dgcl comm ms, p2p epoch / dgcl epoch)
    statuses: Dict[str, str]
    rows_misdelivered: int
    compiled_ok: bool
    memo_hits: float


def _run_cell(index: int, seed: int, dataset: str, scratch: Scratch,
              rec: Optional[Recorder] = None, clock=now) -> Cell:
    """twin -> partition -> relation -> SPST -> every scheme at event
    fidelity (+ dgcl-r across machines) -> one protocol allgather of
    the dgcl plan at the layer-0 width.  Everything starts cold."""
    gpus = GPU_CYCLE[index]
    graph_seed = seed + index
    spec = DATASETS[dataset]
    clear_caches()
    scratch.fresh_repro_cache()
    hits_before = memo_lookups()["hit"]

    with traced_step(rec):
        start = clock()
        topology = topology_for_gpu_count(gpus)
        graph = load_dataset(dataset, seed=graph_seed, cache=False)
        features = synthetic_features(graph, spec.feature_size, seed=graph_seed)
        workload = Workload(dataset, "gcn", topology, seed=graph_seed,
                            graph=graph)
        plan_start = clock()
        plan = workload.spst_plan
        plan_seconds = clock() - plan_start
        results = [evaluate_scheme(workload, scheme=s) for s in SCHEMES]
        if topology.num_machines() > 1:
            results.append(evaluate_dgcl_r(workload))
        relation = workload.relation
        blocks = [features[ids] for ids in relation.local_vertices]
        gathered, _ = ProtocolRunner(relation, plan).run_data(blocks)
        seconds = clock() - start

    # Every device must hold exactly the single-device gather
    # h[local ++ remote].
    memo_hits = memo_lookups()["hit"] - hits_before
    expected = [
        features[np.concatenate([relation.local_vertices[d],
                                 relation.remote_vertices[d]])]
        for d in range(relation.num_devices)
    ]
    misdelivered = sum(
        int((got != want).any(axis=1).sum()) if got.shape == want.shape
        else want.shape[0]
        for got, want in zip(gathered, expected)
    )
    compiled = CompiledAllgather(relation, plan).forward(blocks)
    compiled_ok = all(np.array_equal(got, want)
                      for got, want in zip(compiled, expected))
    by_scheme = {r.scheme: r for r in results}
    dgcl, p2p = by_scheme["dgcl"], by_scheme["peer-to-peer"]
    sim = ((dgcl.ms(), dgcl.ms("comm_time"), p2p.epoch_time / dgcl.epoch_time)
           if dgcl.ok and p2p.ok else (math.nan,) * 3)
    return Cell(seconds, plan_seconds, sim,
                {r.scheme: r.status for r in results}, misdelivered,
                compiled_ok, memo_hits)


def _check_cell(outcome: Outcome, cell: Cell) -> None:
    for status in cell.statuses.values():
        outcome.check(status in ("ok", "oom", "unsupported"))
    outcome.check(not math.isnan(cell.sim[0]))  # dgcl and p2p both priced
    outcome.check(cell.memo_hits == 0)  # really cold
    outcome.check(cell.compiled_ok)
    # Known defect: the fault-free ProtocolRunner misdelivers rows on
    # some plans that CompiledAllgather delivers correctly.
    outcome.check(cell.rows_misdelivered == 0, validity=False)


def cold_evaluate(seed: int, seconds: float, trace: bool, scratch: Scratch,
                  *, dataset: str = "wiki-talk", setup_reps: int = 5) -> Outcome:
    """Rounds of the fixed cold evaluate cells of :data:`GPU_CYCLE`; every
    round repeats the same cells, each from cold."""
    outcome = Outcome()
    setup_times = [_import_seconds(scratch) for _ in range(setup_reps)]

    def run_round(rec=None, clock=now) -> List[Cell]:
        return [_run_cell(i, seed, dataset, scratch, rec, clock)
                for i in range(len(GPU_CYCLE))]

    budget = seconds / 2 if trace else seconds
    cells: List[Cell] = []
    with Calibrator() as cal:
        window = cal.now()
        while not cells or cal.now() - window < budget:
            cells += run_round(clock=cal.now)
    rounds = len(cells) // len(GPU_CYCLE)
    reference = cal.median_s()
    _summarise(outcome, setup_times, [c.seconds for c in cells],
               [c.plan_seconds for c in cells], reference, reference,
               group=len(GPU_CYCLE))
    first = cells[:len(GPU_CYCLE)]
    for i, cell in enumerate(cells):
        _check_cell(outcome, cell)
        if i >= len(first):
            # Simulated numbers must not change between rounds, bit for bit.
            outcome.check(repr(cell.sim) == repr(first[i % len(first)].sim))
    outcome.sim_cells["untraced"] = [cell.sim for cell in first]

    if trace:
        rec = Recorder(f"cold-evaluate:{seed}")
        rerun = run_round(rec)
        for before, again in zip(first, rerun):
            _check_cell(outcome, again)
            rec.count("runtime.rows_misdelivered", again.rows_misdelivered)
            # Nor between untraced and traced runs.
            outcome.check(repr(before.sim) == repr(again.sim))
        outcome.sim_cells["traced"] = [cell.sim for cell in rerun]
        layer_metrics(outcome, rec, sum(c.seconds for c in cells) / rounds)
        sims = np.array(outcome.sim_cells["traced"], dtype=float)
        for column, name in enumerate(("sim_epoch_ms.dgcl", "sim_comm_ms.dgcl",
                                       "sim_speedup_vs_p2p")):
            outcome.per_layer[name] = float(np.mean(sims[:, column]))
    return _finish(outcome)


_IMPORT_PROBE = """
import sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import repro.baselines, repro.runtime.protocol, repro.schemes
from repro.topology import topology_for_gpu_count
for gpus in (8, 16):
    topology_for_gpu_count(gpus)
print(time.perf_counter() - start)
"""


def _import_seconds(scratch: Scratch) -> float:
    """Set-up of a cold ``repro evaluate``: a fresh interpreter imports
    the evaluation stack and builds both topologies."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, src],
        capture_output=True, text=True, check=True, timeout=120,
        cwd=scratch.root,
    )
    return float(done.stdout.split()[-1])


# ----------------------------------------------------------------------
# minibatch-train
#: The CLI's default mini-batch cell: twin, batch size, per-layer fanouts.
DATASET = "web-google"
BATCH_SIZE = 64
FANOUTS = (10, 10)
#: Batches of the seeded epoch that every pass streams.
BATCHES = 48
#: Batches averaged together before taking medians (see _summarise).
BATCH_GROUP = 8


def _pipeline(graph, topology, seed, cache_dir, assignment=None):
    """The CLI's mini-batch stack over a fresh on-disk plan cache."""
    with DGCLSession(topology, plan_cache=PlanCache(cache_dir)) as session:
        return session.sample_loader(
            graph, batch_size=BATCH_SIZE, fanouts=FANOUTS, seed=seed,
            assignment=assignment,
        )


def minibatch_train(seed: int, seconds: float, trace: bool, scratch: Scratch,
                    *, gpus: int = 8, setup_reps: int = 5) -> Outcome:
    """Rounds of two passes over the first :data:`BATCHES` batches of one
    seeded epoch: a cold pass into a fresh plan cache (planned, patched
    and replanned rungs), then a replay by a fresh trainer after
    ``reset_donor()`` (cache rung).  Every round starts from a fresh
    plan cache and fresh weights, so every round does the same work.

    The twin is the CLI's default (graph seed 0); the workload seed
    picks the epoch's shuffle, the neighbor draws, the partition and
    the initial weights.
    """
    outcome = Outcome()
    spec = DATASETS[DATASET]
    topology = topology_for_gpu_count(gpus)

    def fresh_model():
        return build_model("gcn", spec.feature_size, spec.hidden_size,
                           spec.num_classes, seed=seed)

    setup_times = []
    for _ in range(setup_reps):
        # Drop the previous set-up first: only one is ever alive.
        graph = features = labels = loader = sampler = planner = trainer = None
        cache_dir = scratch.fresh_dir("plan-cache")
        start = now()
        graph = load_dataset(DATASET, seed=0, cache=False)
        features = synthetic_features(graph, spec.feature_size, seed=seed)
        labels = synthetic_labels(graph, spec.num_classes, seed=seed)
        loader, sampler, planner = _pipeline(graph, topology, seed, cache_dir)
        trainer = MiniBatchTrainer(fresh_model(), features, labels,
                                   sampler, loader, planner, lr=LR)
        setup_times.append(now() - start)

    def stream():
        return enumerate(itertools.islice(loader.batches(0), BATCHES))

    def fresh_trainer(planner=None):
        """A trainer with the initial weights over a fresh plan cache
        (reusing the set-up's partition), or over ``planner``."""
        if planner is None:
            _, _, planner = _pipeline(graph, topology, seed,
                                      scratch.fresh_dir("plan-cache"),
                                      assignment=assignment)
        return MiniBatchTrainer(fresh_model(), features, labels,
                                sampler, loader, planner, lr=LR)

    def cold_pass(trainer, rec=None, clock=now):
        """Sample -> plan -> train every batch of the stream."""
        steps, plans = [], []
        for i, seeds in stream():
            with traced_step(rec, "step.cold"):
                start = clock()
                batch = sampler.sample(seeds, batch_index=i)
                plan_start = clock()
                planned = trainer.planner.plan_batch(batch)
                plans.append(clock() - plan_start)
                trainer.run_batch(planned)
                steps.append(clock() - start)
        return steps, plans

    def warm_pass(planner, rec=None, clock=now):
        """Replay the stream with a fresh trainer over ``planner``'s cache."""
        planner.reset_donor()
        warm = fresh_trainer(planner)
        steps, sources = [], []
        for i, seeds in stream():
            with traced_step(rec, "step.warm"):
                start = clock()
                planned = planner.plan_batch(sampler.sample(seeds, batch_index=i))
                warm.run_batch(planned)
                steps.append(clock() - start)
            sources.append(planned.plan_source)
        return warm, steps, sources

    assignment = planner.assignment
    budget = seconds / 2 if trace else seconds
    steps: List[float] = []
    plans: List[float] = []
    cold_s = warm_s = 0.0
    losses: List[List[float]] = []  # one per trainer
    replays: List[List[str]] = []  # plan sources of every replay
    with Calibrator() as cal:
        window = cal.now()
        while not replays or cal.now() - window < budget:
            if replays:
                # Free the last round before the next, so the peak
                # resident set does not grow with the number of rounds.
                trainer = warm = None
                gc.collect()
                trainer = fresh_trainer()
            cold_steps, cold_plans = cold_pass(trainer, clock=cal.now)
            warm, warm_steps, sources = warm_pass(trainer.planner,
                                                  clock=cal.now)
            steps += cold_steps + warm_steps
            plans += cold_plans
            cold_s += sum(cold_steps)
            warm_s += sum(warm_steps)
            losses += [trainer.loss_history, warm.loss_history]
            replays.append(sources)
    rounds = len(replays)
    reference = cal.median_s()
    _summarise(outcome, setup_times, steps, plans, reference, reference,
               group=BATCH_GROUP)

    if trace:
        rec = Recorder(f"minibatch-train:{seed}")
        cold = fresh_trainer()
        cold_pass(cold, rec=rec)
        warm, _, sources = warm_pass(cold.planner, rec=rec)
        losses += [cold.loss_history, warm.loss_history]
        replays.append(sources)
        layer_metrics(outcome, rec, sum(steps) / rounds)
        spans = rec.spans
        traced_cold = sum(s[2] - s[1] for s in spans if s[0] == "step.cold")
        planning = sum(s[2] - s[1] for s in spans
                       if s[0] == "sampling.BatchPlanner.plan_batch"
                       and spans[s[3]][0] == "step.cold")
        outcome.per_layer["sampling.plan_share.cold"] = (
            100.0 * planning / traced_cold)
        outcome.per_layer["sampling.batches_per_s.cold"] = (
            rounds * BATCHES / cold_s)
        outcome.per_layer["sampling.batches_per_s.warm"] = (
            rounds * BATCHES / warm_s)

    # Every replayed batch must resolve from the cache, and every
    # trainer's losses must match the single-device oracle on the same
    # batch stream (all start from identical weights).
    for replay in replays:
        for source in replay:
            outcome.check(source == "cache")
    oracle = MiniBatchOracle(fresh_model(), features, labels, lr=LR)
    for i, seeds in stream():
        oracle.run_batch(sampler.sample(seeds, batch_index=i))
    for history in losses:
        outcome.check(len(history) == BATCHES)
        for got, ref in zip(history, oracle.loss_history):
            outcome.check(bool(np.isclose(got, ref, rtol=1e-4)))
    return _finish(outcome)


WORKLOADS = {
    "fullgraph-train": fullgraph_train,
    "cold-evaluate": cold_evaluate,
    "minibatch-train": minibatch_train,
}
