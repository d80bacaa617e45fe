"""Machine speed tracking, so timings can be scaled to one reference speed.

On a shared host the same Python loop runs up to about 1.8 times slower
while a neighbour loads the core, in stretches of several seconds.  That
swamps the differences the benchmark is meant to show, so while the
end-to-end metrics are measured a ``SpeedMeter`` times a short fixed loop
every 100 ms (from a SIGALRM handler, in the measuring thread) and each
timing is divided by the slowdown those samples show around it.  A scaled
time is the time the work would take where the calibration loop takes
``REF_S``; raw wall times are kept next to it in the results file.
"""

from __future__ import annotations

import bisect
import contextlib
import signal
import statistics
import time
from fractions import Fraction

# The reference speed: one calibration_loop() in 1 ms, about what one core of
# a 2.0 GHz Xeon takes when no neighbour shares it.
REF_S = 0.001
INTERVAL_S = 0.1
MARGIN_S = 0.15  # samples this close to a window also describe it


def calibration_loop() -> float:
    """Seconds for a fixed mix of what moyalbench runs on: Fraction
    arithmetic, small- and big-int arithmetic, tuple-keyed dicts."""
    t0 = time.perf_counter()
    acc, table = Fraction(0), {}
    for k in range(1, 120):
        acc += Fraction(k * k + 1, 2 * k + 3)
        table[(k, k + 1)] = acc.numerator % 97
    x = 0
    for k in range(3000):
        x += k * k
    x *= (3**400 + x) * 7**380
    return time.perf_counter() - t0


class SpeedMeter:
    """Context manager: samples the calibration loop while it is active."""

    def __init__(self):
        self.times = []  # sample start times, increasing
        self.costs = []  # the calibration loop's duration at each sample
        self._saved = None

    def _sample(self, signum, frame):
        t = time.perf_counter()
        self.costs.append(calibration_loop())
        self.times.append(t)

    def __enter__(self):
        self._saved = signal.signal(signal.SIGALRM, self._sample)
        self._sample(None, None)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._saved)
        return False

    @contextlib.contextmanager
    def paused(self):
        """No samples inside: for work that would slow the loop itself
        (a profiler counts every call the loop makes)."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        try:
            yield
        finally:
            self._sample(None, None)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def _span(self, t0, t1):
        return bisect.bisect_left(self.times, t0), bisect.bisect_right(self.times, t1)

    def slowdown(self, t0: float, t1: float) -> float:
        """Mean calibration cost near [t0, t1] over ``REF_S``."""
        lo, hi = self._span(t0 - MARGIN_S, t1 + MARGIN_S)
        if lo == hi:  # no sample close by: take the nearest one
            lo = max(0, min(lo, len(self.times) - 1))
            hi = lo + 1
        return statistics.fmean(self.costs[lo:hi]) / REF_S

    def scaled(self, t0: float, t1: float) -> float:
        """Seconds of work in [t0, t1] at reference speed, sampling excluded."""
        lo, hi = self._span(t0, t1)
        work = (t1 - t0) - sum(self.costs[lo:hi])
        return max(work, 0.0) / self.slowdown(t0, t1)
