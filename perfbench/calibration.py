"""A fixed reference workload, sampled on a timer while a run measures.

The machines this benchmark runs on are shared, and their speed drifts
by tens of percent over seconds to minutes.  A drift slows the
program's steps and a reference workload sampled at the same moments
alike, so a median step time divided by the median reference time of
the same phase (its *cost*, in ``cal`` units) is steadier from run to
run than the step time itself.

While a :class:`Calibrator` is entered, ``SIGALRM`` fires every
:data:`INTERVAL` seconds and its handler times one run of the reference.
Python runs the handler between bytecodes of the main thread, so the
samples land at regular moments inside long steps too.  :meth:`now` is
a clock that stands still while the handler runs: durations read from
it exclude the reference's own time.

The reference never calls the program: it mixes the kinds of host
work the program does, in about equal parts — a pure-Python integer
loop, dict and list churn, a fancy-index gather with a segment sum,
and small float32 matrix products.
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import List, Tuple

import numpy as np

__all__ = ["Calibrator", "INTERVAL"]

_wall = time.perf_counter

#: Seconds between two samples of the reference workload.
INTERVAL = 0.5


class Calibrator:
    """Samples the reference workload's wall time on a timer."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._x = rng.standard_normal((6000, 64)).astype(np.float32)
        self._w = rng.standard_normal((64, 64)).astype(np.float32)
        self._index = rng.integers(0, 6000, 10000)
        self._offsets = np.arange(0, 10000, 3)
        #: (program-clock time of the sample, reference seconds).
        self.samples: List[Tuple[float, float]] = []
        self._paused = 0.0
        self._previous = None

    def _reference(self) -> None:
        total = 0
        for i in range(90000):
            total += i * i % 7
        counts: dict = {}
        items = []
        for i in range(40000):
            counts[i % 97] = counts.get(i % 97, 0) + i
            items.append(-i)
        items.sort()
        np.add.reduceat(self._x[self._index], self._offsets, axis=0)
        for _ in range(13):
            self._x @ self._w

    def sample(self, *_signal_args) -> None:
        """Time one run of the reference; the clock stands still meanwhile."""
        start = _wall()
        self._reference()
        seconds = _wall() - start
        self._paused += seconds
        self.samples.append((self.now(), seconds))

    def now(self) -> float:
        """Wall seconds minus the time spent sampling the reference."""
        return _wall() - self._paused

    def __enter__(self) -> "Calibrator":
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def median_s(self, since: float = float("-inf"),
                 until: float = float("inf")) -> float:
        """Median reference time of the samples taken between the
        program-clock times ``since`` and ``until`` — one ``cal``."""
        window = [s for t, s in self.samples if since <= t <= until]
        if not window:
            self.sample()  # a phase shorter than the interval
            window = [self.samples[-1][1]]
        return statistics.median(window)
