"""Counters, gauges and histograms for the simulated runtime.

The registry is the numeric side of :mod:`repro.obs`: where the tracer
answers *when* something happened, the metrics answer *how much* —
bytes per physical connection, stage straggler gaps, flag-wait times,
retry counts, cache hit rates.  Everything is plain Python floats fed
from the deterministic simulators, so :meth:`MetricsRegistry.snapshot`
is reproducible and directly comparable across runs in tests and
benchmarks.

Metric identity is ``name`` plus sorted ``labels``, Prometheus-style::

    metrics.counter("comm.bytes", conn="qpi:m0:0->1").inc(4096)
    metrics.histogram("stage.straggler_gap").observe(2.1e-7)
    metrics.snapshot()["comm.bytes{conn=qpi:m0:0->1}"]  # -> 4096.0
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.obs.quantile import QuantileDigest

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry",
           "global_metrics"]


class Counter:
    """Monotonically increasing total."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative) to the total."""
        if amount < 0:
            raise ValueError("counters only increase")
        self.value += amount


class Gauge:
    """Last-write-wins instantaneous value."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        """Overwrite the current value."""
        self.value = float(value)

    def max(self, value: float) -> None:
        """Keep the high-water mark."""
        self.value = max(self.value, float(value))


class Histogram:
    """Streaming distribution: count, sum, min, max, mean and percentiles.

    Deliberately bucket-free — the simulated workloads are small enough
    that tests assert on exact moments — but each histogram now carries a
    deterministic :class:`~repro.obs.quantile.QuantileDigest`, so the
    exporters report p50/p90/p99 alongside the moments.  The digest is a
    pure function of the observation sequence: same seed, same
    percentiles, byte for byte.
    """

    __slots__ = ("count", "total", "min", "max", "digest")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self.digest = QuantileDigest()

    def observe(self, value: float) -> None:
        """Fold one sample into the distribution."""
        value = float(value)
        self.count += 1
        self.total += value
        self.min = min(self.min, value)
        self.max = max(self.max, value)
        self.digest.observe(value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """The q-quantile (0 <= q <= 1) from the streaming digest."""
        return self.digest.quantile(q)

    def as_dict(self) -> Dict[str, float]:
        """Plain-dict digest (count/total/mean/min/max/p50/p90/p99)."""
        if not self.count:
            return {"count": 0, "total": 0.0, "mean": 0.0,
                    "min": 0.0, "max": 0.0,
                    "p50": 0.0, "p90": 0.0, "p99": 0.0}
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": self.digest.quantile(0.50),
            "p90": self.digest.quantile(0.90),
            "p99": self.digest.quantile(0.99),
        }


def _key(name: str, labels: Dict[str, object]) -> str:
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


class MetricsRegistry:
    """One run's metrics, keyed by name + labels."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- access (creates on first use) ----------------------------------
    def counter(self, name: str, **labels: object) -> Counter:
        """The counter for ``name`` + ``labels`` (created on first use)."""
        key = _key(name, labels)
        if key not in self._counters:
            self._counters[key] = Counter()
        return self._counters[key]

    def gauge(self, name: str, **labels: object) -> Gauge:
        """The gauge for ``name`` + ``labels`` (created on first use)."""
        key = _key(name, labels)
        if key not in self._gauges:
            self._gauges[key] = Gauge()
        return self._gauges[key]

    def histogram(self, name: str, **labels: object) -> Histogram:
        """The histogram for ``name`` + ``labels`` (created on first use)."""
        key = _key(name, labels)
        if key not in self._histograms:
            self._histograms[key] = Histogram()
        return self._histograms[key]

    # -- inspection -----------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """Deterministic flat view: key -> value (or histogram dict).

        Keys are sorted, values are plain ``float``/``int``/``dict`` so
        the snapshot survives a JSON round-trip unchanged.
        """
        out: Dict[str, object] = {}
        for key in sorted(self._counters):
            out[key] = self._counters[key].value
        for key in sorted(self._gauges):
            out[key] = self._gauges[key].value
        for key in sorted(self._histograms):
            out[key] = self._histograms[key].as_dict()
        return out

    def clear(self) -> None:
        """Drop every metric (tests re-use the global registry)."""
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()

    def __len__(self) -> int:
        return len(self._counters) + len(self._gauges) + len(self._histograms)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MetricsRegistry(counters={len(self._counters)}, "
            f"gauges={len(self._gauges)}, histograms={len(self._histograms)})"
        )


def global_metrics() -> MetricsRegistry:
    """Alias of ``repro.cache.memo.metrics`` for readers outside ``src/``."""
    from repro.cache import memo  # lazy: repro.cache imports this module

    return memo.metrics
