"""The one telemetry handle: run counters land on the handle's registry.

Every run-scoped counter goes to ``telemetry.metrics``; the process-wide
``global_metrics()`` keeps only the memo tables' ``cache.lookups``.
"""

import numpy as np
import pytest

from repro.api import DGCLSession
from repro.elastic import ElasticController
from repro.gnn import build_gcn
from repro.graph.generators import rmat
from repro.obs import (
    NULL_TELEMETRY,
    CostModelAuditor,
    FlightRecorder,
    MetricsRegistry,
    Telemetry,
    Tracer,
    global_metrics,
)
from repro.serve import build_scenario
from repro.topology import dgx1

TRANSITIONS = ("elastic.transition{kind=scale-in}",
               "elastic.transition{kind=scale-out}")


def _run_keys(registry: MetricsRegistry):
    """Keys of run-scoped series that must never reach the global."""
    return {k for k in registry.snapshot()
            if k.startswith(("elastic.transition", "plan.resolve"))}


class TestHandle:
    def test_null_handle_is_unarmed(self):
        assert not NULL_TELEMETRY.armed
        assert Telemetry() == NULL_TELEMETRY

    @pytest.mark.parametrize("sink", ["tracer", "metrics", "auditor",
                                      "recorder"])
    def test_any_sink_arms(self, sink):
        make = {"tracer": Tracer, "metrics": MetricsRegistry,
                "auditor": CostModelAuditor, "recorder": FlightRecorder}
        assert Telemetry(**{sink: make[sink]()}).armed


class TestElasticCounters:
    """``elastic.transition`` used to split between two registries."""

    def test_controller_counts_on_its_handle(self):
        g = rmat(200, 1400, seed=4)
        rng = np.random.default_rng(0)
        features = rng.standard_normal((g.num_vertices, 6)).astype(np.float32)
        labels = rng.integers(0, 4, g.num_vertices)
        before = _run_keys(global_metrics())
        reg = MetricsRegistry()
        controller = ElasticController(
            g, dgx1(), build_gcn(6, 8, 4, seed=7), features, labels,
            telemetry=Telemetry(metrics=reg),
        )
        controller.train_with_schedule(
            3, [(1, "shrink", (6, 7)), (2, "grow", (6, 7))]
        )
        snap = reg.snapshot()
        for key in TRANSITIONS:
            assert snap[key] == 1
        assert any(k.startswith("plan.resolve{caller=elastic") for k in snap)
        assert _run_keys(global_metrics()) == before

    def test_session_counts_the_same_keys(self):
        before = _run_keys(global_metrics())
        reg = MetricsRegistry()
        session = DGCLSession(dgx1())
        session.build_comm_info(rmat(150, 900, seed=13))
        session.arm_telemetry(metrics=reg)
        session.shrink([6, 7])
        session.grow([6, 7])
        snap = reg.snapshot()
        for key in TRANSITIONS:
            assert snap[key] == 1
        assert _run_keys(global_metrics()) == before


class TestServeTelemetry:
    def test_counters_and_recorder_match_the_report(self):
        scenario = build_scenario("poisson", horizon_scale=0.5)
        bare = scenario.run(seed=0)
        reg, rec = MetricsRegistry(), FlightRecorder()
        armed = scenario.run(seed=0,
                             telemetry=Telemetry(metrics=reg, recorder=rec))
        requests = {k: v for k, v in reg.snapshot().items()
                    if k.startswith("serve.requests{")}
        assert requests
        assert sum(requests.values()) == armed.submitted
        assert len(rec) == armed.batches
        assert armed == bare
