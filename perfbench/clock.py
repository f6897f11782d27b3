"""Core-speed probe: scales measured times to a reference speed of the core.

The benchmark shares its cores with other tenants of the host.  Their load
makes the same pass of msgdt run up to 2x slower from one minute to the
next, in Python-bound and memory-bound code alike.  While a pass runs, an
interval timer interrupts it every ``INTERVAL_S`` and times a fixed probe
of benchmark code in two parts: a Python loop and an L2-sized copy.  The
core's slowdown during the pass is the mean, over the two parts, of the
part's median time over its reference time.  A pass's scaled time is its
wall time minus the time spent in the probe, divided by that slowdown.
msgdt's own code is never timed as the probe, so a change to msgdt moves
the scaled time as much as the wall time.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.025
# Median time of each probe part during a pass, on the reference box in one
# of its fast phases (README: "Bounds and steadiness").
REFERENCE_S = (60e-6, 135e-6)

_SRC = np.ones(65536)  # 512 KiB, so a copy moves 1 MiB through the 2 MiB L2
_DST = np.empty(65536)


def probe() -> tuple[float, float]:
    """Run the fixed work whose time measures the core's speed; return each part's time."""
    t0 = time.perf_counter()
    s = 0
    for i in range(1500):
        s += i
    t1 = time.perf_counter()
    for _ in range(4):
        np.copyto(_DST, _SRC)
    return t1 - t0, time.perf_counter() - t1


def slowdown(probe_times) -> float:
    """How many times slower than the reference box the core ran during ``probe_times``.

    ``probe_times`` holds one (Python loop, copy) row per probe.
    """
    return float(np.mean(np.median(np.asarray(probe_times), axis=0) / REFERENCE_S))


class CoreSpeed:
    """Times ``probe`` every ``INTERVAL_S`` of wall time between ``start`` and ``stop``.

    The handler stores into preallocated memory: a list growing at random
    points of the pass would take malloc blocks among msgdt's arrays and
    move the process's peak RSS from run to run.
    """

    CAPACITY = 1 << 15  # probes kept per pass: 13 minutes of them

    def __init__(self) -> None:
        self._times = np.zeros((self.CAPACITY, 2))
        self.count = 0
        self.handler_s = 0.0  # wall time spent in the signal handler, probe included
        self._busy = False

    @property
    def probe_times(self) -> np.ndarray:
        return self._times[:self.count]

    def record(self, py_s: float, copy_s: float) -> None:
        if self.count < self.CAPACITY:
            self._times[self.count, 0] = py_s
            self._times[self.count, 1] = copy_s
            self.count += 1

    def _handler(self, signum, frame) -> None:
        if self._busy:  # a late tick while the previous probe still runs
            return
        self._busy = True
        t0 = time.perf_counter()
        self.record(*probe())
        self.handler_s += time.perf_counter() - t0
        self._busy = False

    def start(self) -> None:
        self.count = 0
        self.handler_s = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.count:  # a pass shorter than one interval
            self.record(*probe())

    def scaled(self, wall_s: float) -> float:
        """``wall_s``, measured between ``start`` and ``stop``, without the probe and at reference speed."""
        return (wall_s - self.handler_s) / slowdown(self.probe_times)


def burst_slowdown(count: int = 40) -> float:
    """The core's slowdown now, from ``count`` probes run back to back.

    Back to back, the copy finds its source in cache and runs faster than
    the copy ``CoreSpeed`` times, so only the Python loop counts here.
    """
    return statistics.median(probe()[0] for _ in range(count)) / REFERENCE_S[0]
