"""The host's speed, measured by a fixed computation run among the queries.

On a shared host the speed of one core drifts by a third and more, over
seconds and over minutes (neighbours' load, not steal time), so raw query
times of the same code differ that much between runs.  ``reference`` is a
fixed pure-Python computation of the same kind as the program's work (tuple
building, dict updates, small-int arithmetic) that owes nothing to
``defres``.  While a run measures, an interval timer interrupts it every
``EVERY_S`` of wall time and times ``reference``, so the samples are spread
evenly over the run whatever the length of a query.  (A CPU-time timer,
``ITIMER_PROF``, would coarsen the process CPU clock to the kernel's tick.)
Every measured time is scaled by ``NOMINAL_S / mean reference time`` over
the samples taken during it and ``WINDOW`` samples either side: the times a
run reports are the times on a host where ``reference`` takes
``NOMINAL_S``.  A change to
the program moves the queries and not the reference, so it shows in full.
"""

from __future__ import annotations

import gc
import itertools
import signal
import time

NOMINAL_S = 0.006  # reference seconds the reported times are scaled to
EVERY_S = 0.04  # wall seconds between reference samples while measuring
WINDOW = 25  # samples either side of a measured span that set its scale
LARGEST = 17  # reference enumerates the partitions of 1..LARGEST
EXPECTED = 36_455  # what reference returns


def _partitions(k: int, largest: int) -> list[tuple[int, ...]]:
    if k == 0:
        return [()]
    return [
        (p,) + rest
        for p in range(min(k, largest), 0, -1)
        for rest in _partitions(k - p, p)
    ]


def reference() -> int:
    """Enumerate the partitions of 1..LARGEST and tally them in a dict."""
    tally: dict[tuple[int, ...], int] = {}
    for k in range(1, LARGEST + 1):
        for p in _partitions(k, k):
            tally[p] = tally.get(p, 0) + len(p) * p[0]
    return sum(tally.values())


class HostSpeed:
    """Reference samples taken on one clock, between or inside measurements.

    ``sample`` takes one at once.  Inside ``with speed:`` a ``SIGALRM``
    timer takes one every ``EVERY_S`` of wall time; ``total_s`` lets a
    caller subtract the samples taken inside a timed call, and ``spans``
    holds, per timed call, the number of samples taken before its start
    and before its end.
    """

    def __init__(self, clock=time.process_time):
        self.clock = clock
        self.samples: list[float] = []
        self.total_s = 0.0
        self.spans: list[tuple[int, int]] = []
        self._previous = None

    def sample(self) -> None:
        # without the collector, whose passes would scan the program's heap
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = self.clock()
            result = reference()
            elapsed = self.clock() - start
        finally:
            if enabled:
                gc.enable()
        self.samples.append(elapsed)
        self.total_s += elapsed
        if result != EXPECTED:
            raise RuntimeError(f"reference returned {result}, not {EXPECTED}")

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, lambda *_: self.sample())
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self) -> float:
        """Factor that turns a measured time into a time at nominal speed."""
        if not self.samples:
            self.sample()
        return NOMINAL_S * len(self.samples) / self.total_s

    def span_scales(self) -> list[float]:
        """``scale`` for each of ``spans``, from the samples near it."""
        overall = self.scale()
        prefix = list(itertools.accumulate(self.samples, initial=0.0))
        scales = []
        for before, after in self.spans:
            lo = max(0, before - WINDOW)
            hi = min(len(self.samples), after + WINDOW)
            near_s = prefix[hi] - prefix[lo]
            scales.append(NOMINAL_S * (hi - lo) / near_s if near_s else overall)
        return scales
