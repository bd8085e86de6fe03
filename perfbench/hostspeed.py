"""Host-speed calibration: a fixed kernel, timed four times a second in a pass.

The benchmark host's speed drifts by 20-40 % over seconds to minutes, and
CPU time drifts with wall time, so it is the host that slows, not the
scheduling.  A pass therefore times a fixed kernel of pure-Python table
lookups, which allocates nothing, from a SIGALRM handler every
``INTERVAL_S``.  A time metric is reported in
calibrated seconds: measured seconds x ``REFERENCE_S`` / the kernel's mean
time from ``WINDOW_S`` before to ``WINDOW_S`` after the measurement.  On a host where the kernel takes ``REFERENCE_S``,
calibrated and wall seconds agree.  Time spent in the handler is taken out
of every measurement it falls into.
"""

from __future__ import annotations

import signal
import statistics
from bisect import bisect_left, bisect_right
from time import perf_counter

REFERENCE_S = 1.4e-3
INTERVAL_S = 0.25
WINDOW_S = 0.5

_TABLE = list(range(256))


def _kernel_once() -> float:
    t0 = perf_counter()
    s, table = 0, _TABLE
    for i in range(12000):
        s ^= table[(i * 7 + s) & 255]
    return perf_counter() - t0


def kernel_seconds() -> float:
    """The kernel's time now: best of three, so an interrupt does not count."""
    return min(_kernel_once() for _ in range(3))


class Calibrator:
    """Kernel samples (time, seconds) taken on demand and on a wall-clock timer."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self._times: list[float] = []
        self.spent = 0.0
        self._previous = None

    def sample(self) -> None:
        t0 = perf_counter()
        self.samples.append((t0, kernel_seconds()))
        self._times.append(t0)
        self.spent += perf_counter() - t0

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, lambda _sig, _frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def factor(self, t0: float, t1: float) -> float:
        """REFERENCE_S over the mean kernel time within WINDOW_S of [t0, t1]."""
        lo = bisect_left(self._times, t0 - WINDOW_S)
        hi = bisect_right(self._times, t1 + WINDOW_S)
        return REFERENCE_S / statistics.fmean(c for _, c in self.samples[lo:hi])
