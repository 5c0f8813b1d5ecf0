"""One telemetry handle: the four sinks travel together.

Every instrumented component takes one ``telemetry=`` keyword holding
whichever sinks the caller armed; :data:`NULL_TELEMETRY` (none) is the
default, so an unarmed run executes exactly the code it always did.  A
layer forwarding only some sinks builds a narrower handle, e.g.
``Telemetry(metrics=telemetry.metrics)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.obs.audit import CostModelAuditor
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import FlightRecorder
from repro.obs.tracer import Tracer

__all__ = ["Telemetry", "NULL_TELEMETRY"]


@dataclass(frozen=True)
class Telemetry:
    """The sinks one run reports to; any of them may be ``None``."""

    tracer: Optional[Tracer] = None
    metrics: Optional[MetricsRegistry] = None
    auditor: Optional[CostModelAuditor] = None
    recorder: Optional[FlightRecorder] = None

    @property
    def armed(self) -> bool:
        """True when at least one sink is set."""
        return (self.tracer is not None or self.metrics is not None
                or self.auditor is not None or self.recorder is not None)


#: The unarmed handle every ``telemetry=`` parameter defaults to.
NULL_TELEMETRY = Telemetry()
