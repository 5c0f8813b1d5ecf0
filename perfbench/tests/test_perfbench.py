"""Smoke tests of the benchmark itself (not of the program).

Run from the repository root::

    python3 -m pytest perfbench/tests -q

Each workload runs once at smoke size (small twin, short window, one
set-up), traced, which also fills its end-to-end metrics.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.workloads import END_TO_END, PER_LAYER, WORKLOADS, Scratch  # noqa: E402

SMOKE = {
    "fullgraph-train": {"dataset": "web-google", "gpus": 4, "setup_reps": 1},
    "cold-evaluate": {"dataset": "web-google", "setup_reps": 1},
    "minibatch-train": {"gpus": 4, "setup_reps": 1},
}


@pytest.fixture(scope="module")
def outcomes(tmp_path_factory):
    """One traced smoke run per workload, shared by the tests below."""
    done = {}
    for name, fn in WORKLOADS.items():
        with Scratch(tmp_path_factory.mktemp(name)) as scratch:
            done[name] = fn(0, 0.4, True, scratch, **SMOKE[name])
    return done


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_emits_every_metric(outcomes, workload):
    outcome = outcomes[workload]
    assert outcome.correct
    assert outcome.attempted >= 1
    assert set(outcome.end_to_end) == set(END_TO_END)
    assert all(math.isfinite(v) and v > 0 for v in outcome.end_to_end.values())
    assert set(outcome.per_layer) == set(PER_LAYER)
    assert all(math.isfinite(v) for v in outcome.per_layer.values())
    assert outcome.per_layer["checks.failed_share"] == pytest.approx(
        outcome.failed / outcome.attempted)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_spans_form_a_tree(outcomes, workload):
    rec = outcomes[workload].recorder
    spans = rec.spans
    assert spans and all(span is not None for span in spans)
    for name, start, end, parent in spans:
        assert start <= end
        if parent is None:
            assert name.startswith("step")
        else:
            _, p_start, p_end, _ = spans[parent]
            assert p_start <= start and end <= p_end, name
    assert all(v >= -1e-9 for v in rec.self_times().values())


def test_layers_show_where_each_workload_spends(outcomes):
    train = outcomes["fullgraph-train"].per_layer
    assert train["share.gnn"] + train["share.comm"] > 50
    assert train["partition.hierarchical_partition.s"] == 0
    evaluate = outcomes["cold-evaluate"].per_layer
    assert evaluate["share.partition"] > 0 and evaluate["share.gnn"] == 0
    assert evaluate["cache.assignment.lookups"] > 0
    assert evaluate["cache.assignment.hits"] == 0
    assert evaluate["cache.memo.hits"] == 0
    sampled = outcomes["minibatch-train"].per_layer
    assert sampled["core.SPSTPlanner.plan.calls"] > 0
    assert sampled["sampling.plan_source.cache"] == pytest.approx(0.5)
    assert sampled["sampling.plan_share.cold"] > 0


def test_simulated_numbers_do_not_depend_on_tracing(outcomes):
    cells = outcomes["cold-evaluate"].sim_cells
    assert cells["untraced"]
    assert repr(cells["untraced"]) == repr(cells["traced"])


def test_benchmark_json_names_every_metric_with_its_unit():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)


def test_command_prints_the_result_line(tmp_path):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "minibatch-train",
         "--seed", "3", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == END_TO_END


def test_command_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cold-evaluate",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert "metrics" not in done.stdout
