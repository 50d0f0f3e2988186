"""Machine-speed probe, so timings can be read at one reference speed.

On a shared machine the speed of the same code drifts by up to 1.7x over
seconds to minutes, as co-tenants come and go.  Every PROBE_INTERVAL_S of
CPU time a SIGVTALRM handler times a fixed pure-Python loop that uses no
pwtree code.  An interval's calibrated length is its length, minus the
probes inside it, times PROBE_REF_S over the median probe time around it:
the time the interval would have taken at the speed where the loop takes
PROBE_REF_S.  A change to pwtree does not move the probe, so calibrated
times still show every gain or loss of the program.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from time import perf_counter

PROBE_INTERVAL_S = 0.05
PROBE_REF_S = 0.0003
MIN_PROBES = 5


def _probe_loop():
    total = 0
    for i in range(4000):
        total += (i * i) % 7
    return total


class SpeedProbe:
    """Times the probe loop on a CPU-time timer between start() and stop()."""

    def __init__(self):
        self.probes = []  # (start, seconds), in start order

    def _on_tick(self, signum, frame):
        start = perf_counter()
        _probe_loop()
        self.probes.append((start, perf_counter() - start))

    def start(self):
        signal.signal(signal.SIGVTALRM, self._on_tick)
        signal.setitimer(signal.ITIMER_VIRTUAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)

    def _span(self, a, b):
        return (bisect.bisect_left(self.probes, a, key=_start),
                bisect.bisect_right(self.probes, b, key=_start))

    def factor(self, a, b):
        """PROBE_REF_S over the median probe in [a, b], widened to MIN_PROBES."""
        i, j = self._span(a, b)
        while j - i < MIN_PROBES and (i > 0 or j < len(self.probes)):
            i, j = max(0, i - 1), min(len(self.probes), j + 1)
        if i == j:
            return 1.0
        return PROBE_REF_S / statistics.median(d for _, d in self.probes[i:j])

    def calibrated(self, a, b):
        """Length of [a, b] without the probes in it, at the reference speed."""
        i, j = self._span(a, b)
        busy = sum(d for _, d in self.probes[i:j])
        return (b - a - busy) * self.factor(a, b)


def _start(probe):
    return probe[0]
