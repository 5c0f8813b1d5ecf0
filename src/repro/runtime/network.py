"""Incremental flow engine for the protocol runtime.

The batch simulator in :mod:`repro.simulator.network` runs a fixed flow
set to completion.  Here, processes post transfers *while the clock
runs*, so the engine must re-solve the max-min fair allocation whenever
the active set changes and keep exactly one pending completion event.

The fairness model (and its numerical-sweep safeguards) is shared with
the batch simulator via :func:`repro.simulator.network._max_min_rates`.

Chaos support: an optional ``capacity_of`` hook lets a fault injector
scale (or zero) a connection's bandwidth while flows are in flight —
``capacities_changed`` re-solves the allocation at the current instant.
Flows over a dead wire simply stop progressing; the hardened protocol
notices via its transfer timeout, calls :meth:`LiveNetwork.cancel`, and
re-issues the payload along a repaired path.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import SimulatorInvariantError
from repro.runtime.events import Event, Simulator
from repro.simulator.network import DEFAULT_ALPHA, _ActiveFlow, _max_min_rates
from repro.topology.links import PhysicalConnection

__all__ = ["LiveNetwork", "TransferHandle"]


class TransferHandle:
    """The caller's view of one in-flight transfer."""

    __slots__ = ("done", "start_time", "finish_time", "size_bytes", "tag", "cancelled")

    def __init__(self, size_bytes: float, tag: object = None) -> None:
        self.done = Event()
        self.start_time: Optional[float] = None
        self.finish_time: Optional[float] = None
        self.size_bytes = size_bytes
        self.tag = tag
        self.cancelled = False


class _LiveFlow:
    __slots__ = ("path", "remaining", "rate", "handle")

    def __init__(self, path, size_bytes: float, handle: TransferHandle) -> None:
        self.path = path
        self.remaining = float(size_bytes)
        self.rate = 0.0
        self.handle = handle

    # duck-type what _max_min_rates needs
    @property
    def flow(self):
        return self


class LiveNetwork:
    """Max-min fair bandwidth sharing with dynamic arrivals."""

    def __init__(
        self,
        sim: Simulator,
        alpha: float = DEFAULT_ALPHA,
        capacity_of: Optional[Callable[[PhysicalConnection], float]] = None,
    ) -> None:
        self.sim = sim
        self.alpha = alpha
        #: Optional bandwidth override (bytes/s) for fault injection.
        self.capacity_of = capacity_of
        self._active: List[_LiveFlow] = []
        self._last_update = 0.0
        self._completion_token = 0  # invalidates stale completion events

    # ------------------------------------------------------------------
    def transfer(
        self,
        path: Tuple[PhysicalConnection, ...],
        size_bytes: float,
        tag: object = None,
    ) -> TransferHandle:
        """Start a transfer after the setup latency; returns its handle."""
        if not path:
            raise ValueError("transfer needs a non-empty path")
        handle = TransferHandle(size_bytes, tag)

        def begin() -> None:
            if handle.cancelled:
                return
            handle.start_time = self.sim.now
            self._progress_to_now()
            if size_bytes <= 0:
                self._finish(_LiveFlow(path, 0.0, handle))
                return
            self._active.append(_LiveFlow(path, size_bytes, handle))
            self._reschedule()

        self.sim.schedule(self.alpha, begin)
        return handle

    def cancel(self, handle: TransferHandle) -> None:
        """Abort a transfer (idempotent); its ``done`` never triggers."""
        handle.cancelled = True
        survivors = [f for f in self._active if f.handle is not handle]
        if len(survivors) != len(self._active):
            self._progress_to_now()
            self._active = survivors
            self._reschedule()

    def capacities_changed(self) -> None:
        """Re-solve rates now — a connection's bandwidth just changed."""
        self._progress_to_now()
        self._reschedule()

    def remaining(self, handle: TransferHandle) -> float:
        """Bytes still to move for ``handle`` (exact at the current time).

        The hardened protocol polls this to tell a slow transfer (still
        progressing under contention or degradation) from a stalled one
        (crossing a dead wire).
        """
        if handle.done.triggered:
            return 0.0
        self._progress_to_now()
        for flow in self._active:
            if flow.handle is handle:
                return max(flow.remaining, 0.0)
        return handle.size_bytes  # queued, not yet begun

    # ------------------------------------------------------------------
    def _progress_to_now(self) -> None:
        dt = self.sim.now - self._last_update
        if dt > 0:
            for flow in self._active:
                flow.remaining -= flow.rate * dt
        self._last_update = self.sim.now

    def _finish(self, flow: _LiveFlow) -> None:
        flow.handle.finish_time = self.sim.now
        flow.handle.done.trigger()

    def _reschedule(self) -> None:
        """Recompute rates and (re)arm the next completion event."""
        self._completion_token += 1
        token = self._completion_token
        if not self._active:
            return
        _max_min_rates(self._active, capacity_of=self.capacity_of)
        soonest: Optional[_LiveFlow] = None
        soonest_dt = float("inf")
        for flow in self._active:
            if flow.rate > 0:
                dt = flow.remaining / flow.rate
            elif flow.remaining <= 0:
                dt = 0.0
            else:
                continue
            if dt < soonest_dt:
                soonest, soonest_dt = flow, dt
        if soonest is None:
            if self.capacity_of is not None:
                # Every active flow crosses a dead wire.  Stall silently:
                # the hardened protocol's transfer timeout will cancel and
                # re-route; a capacity recovery re-enters via
                # capacities_changed().
                return
            raise SimulatorInvariantError(
                "active flows but none can make progress"
            )
        # Numerical sweep as in the batch engine: sub-microbyte residues
        # complete immediately instead of stalling the clock.
        if soonest_dt <= 0 or soonest.remaining <= max(
            1e-6, 1e-12 * soonest.handle.size_bytes
        ):
            soonest_dt = 0.0

        def complete() -> None:
            if token != self._completion_token:
                return  # the active set changed; a newer event is armed
            self._progress_to_now()
            threshold = lambda f: max(1e-6, 1e-12 * f.handle.size_bytes)
            finished = [f for f in self._active if f.remaining <= threshold(f)]
            if not finished:
                finished = [min(self._active, key=lambda f: f.remaining)]
            self._active = [f for f in self._active if f not in finished]
            for flow in finished:
                self._finish(flow)
            self._reschedule()

        self.sim.schedule(soonest_dt, complete)

    @property
    def active_transfers(self) -> int:
        return len(self._active)
