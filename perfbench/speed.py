"""The machine's speed, sampled while the timed work runs.

On a shared host the same code runs up to about 1.7 times slower in some
stretches than in others, because other tenants contend for the physical
core.  The stretches last from a fraction of a second to many seconds,
and each vCPU has its own.  A run that happens to fall in slow stretches
reads slower although the program did the same work.

``SpeedSampler`` interrupts the main thread every ``PERIOD_S`` with
``SIGALRM`` and times a fixed piece of pure-Python work, the probe, on the
same CPU and between the same bytecodes as the program.  Each sample is
the fastest of ``PROBE_REPEATS`` back-to-back probes: the first one pays
for the caches the program left cold, which measures the program, not
the machine.  An interval of timed work is then reported twice:

- wall seconds, minus the time the sampler itself took inside it;
- reference seconds: the same wall seconds scaled by ``REFERENCE_S`` over
  the mean probe sample during the interval.  Samples more than
  ``OUTLIER`` times the interval's median are left out: the slow
  stretches are within about twice the fast ones, so such a sample was
  interrupted (the process descheduled, a page fault), and one of them
  would skew a short interval.  This is how long the work would take on
  a machine where the probe takes ``REFERENCE_S``, about its duration in
  a fast stretch of the machine the benchmark was tuned on.

The probe is the benchmark's own code, so a change to the program moves
reference seconds exactly as it moves wall seconds; only the machine's
speed drops out.  Pin the process to one CPU before sampling, so that the
probe and the work run on the same vCPU.
"""

from __future__ import annotations

import gc
import os
import signal
import statistics
from bisect import bisect_left
from contextlib import contextmanager
from time import perf_counter

PERIOD_S = 0.02
PROBE_LOOPS = 300
PROBE_REPEATS = 3
REFERENCE_S = 80e-6
OUTLIER = 3.0
MIN_SAMPLES = 3  # an interval with fewer samples inside uses the nearest ones


def pin_to_one_cpu() -> int:
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def _pair(a, b):
    return a + b, a * b


def probe() -> float:
    """Calls, tuple allocation, dict stores and loads, float arithmetic."""
    table = dict.fromkeys(range(128), (0.0, 0.0))
    acc = 0.0
    for i in range(PROBE_LOOPS):
        table[i & 127] = _pair(i, 0.5)
        acc += table[(i * 7) & 127][1]
    return acc


class SpeedSampler:
    """Probe samples taken while ``running`` is active.

    ``starts`` and ``spent`` are when each sample began and how long the
    handler took; ``seconds`` is the sample, the fastest probe.
    """

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.seconds: list[float] = []
        self.spent: list[float] = []

    def _sample(self, signum, frame) -> None:
        collecting = gc.isenabled()
        gc.disable()  # a collection of the program's heap is not the machine's speed
        try:
            start = perf_counter()
            best = float("inf")
            for _ in range(PROBE_REPEATS):
                begin = perf_counter()
                probe()
                best = min(best, perf_counter() - begin)
            self.seconds.append(best)
            self.starts.append(start)
            self.spent.append(perf_counter() - start)
        finally:
            if collecting:
                gc.enable()

    @contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def _window(self, start: float, end: float) -> tuple[int, int]:
        return bisect_left(self.starts, start), bisect_left(self.starts, end)

    def wall(self, start: float, end: float) -> float:
        """Seconds of ``[start, end)`` spent outside the sampler."""
        i, j = self._window(start, end)
        return end - start - sum(self.spent[i:j])

    def reference(self, start: float, end: float) -> float:
        """``wall(start, end)`` at the speed at which the probe takes ``REFERENCE_S``."""
        if len(self.seconds) < MIN_SAMPLES:
            raise RuntimeError("the speed sampler took too few samples")
        i, j = self._window(start, end)
        if j - i < MIN_SAMPLES:  # widen evenly around the interval
            i = max(0, min(i - (MIN_SAMPLES - (j - i) + 1) // 2, len(self.seconds) - MIN_SAMPLES))
            j = i + MIN_SAMPLES
        window = self.seconds[i:j]
        limit = OUTLIER * statistics.median(window)
        return self.wall(start, end) * REFERENCE_S / statistics.fmean(s for s in window if s <= limit)
