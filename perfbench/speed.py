"""The machine's speed, sampled while the program runs.

Pure-Python work on the benchmark machine runs in phases: the same work
takes up to half as long again in a slow phase, and a phase can last from
seconds to minutes, so the wall time of one run says as much about the
machine as about the program.  ``SpeedMeter`` runs a small fixed kernel of
Fraction arithmetic before and after every operation and every
``INTERVAL`` seconds during it (from a ``SIGALRM`` handler), and expresses
an operation's time in kernel runs: each stretch of program time between two
samples is divided by the mean duration of the kernel at its two ends.  The
kernel is the benchmark's own code, so a change to the program moves these
units exactly as it moves wall time, while a slow phase moves both the
program and the kernel and cancels out.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

perf = time.perf_counter
INTERVAL = 0.05     # seconds between samples inside an operation
KERNEL_TERMS = 40   # about 0.2 ms of Fraction arithmetic
NOMINAL_S = 2e-4    # seconds per kernel run at the nominal speed


def kernel() -> Fraction:
    """The fixed unit of work."""
    total = Fraction(0)
    for i in range(1, KERNEL_TERMS + 1):
        total += Fraction(i, i + 1) * Fraction(3, i + 2)
    return total


def kernel_seconds(times: int) -> float:
    """Median duration of the kernel over several runs."""
    durations = []
    for _ in range(times):
        start = perf()
        kernel()
        durations.append(perf() - start)
    return sorted(durations)[times // 2]


class SpeedMeter:
    """Samples the kernel and converts timed stretches to kernel runs."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []    # (start, end)
        self._busy = False
        self._previous = None

    def sample(self) -> None:
        if self._busy:
            return
        self._busy = True
        start = perf()
        kernel()
        self.samples.append((start, perf()))
        self._busy = False

    def _on_alarm(self, signum, frame) -> None:
        self.sample()

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def measure(self, fn):
        """Run fn between two samples; return (result, program seconds,
        kernel runs).  Program seconds leave out the samples taken inside."""
        self.sample()
        first = len(self.samples) - 1
        result = fn()
        self.sample()
        inside = self.samples[first:]
        seconds = runs = 0.0
        for (s0, e0), (s1, e1) in zip(inside, inside[1:]):
            stretch = s1 - e0
            seconds += stretch
            runs += stretch / ((e0 - s0 + e1 - s1) / 2)
        return result, seconds, runs
