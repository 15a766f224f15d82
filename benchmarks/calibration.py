"""Host-speed calibration: a fixed kernel timed between the operations.

The benchmark runs on a few cores of a shared host, whose speed swings by
a quarter or more, within seconds and over minutes, as other tenants load
it. Two 30 s runs of the same code can then differ by more than any useful
bound. The kernel below is the benchmark's own code and never changes
between commits. It mixes the three kinds of work the package does:
interpreter loops over ints, `Fraction` arithmetic, and numpy strided
writes into freshly faulted pages. It runs between operations, at most
every INTERVAL_S, on the same CPU. Each timing is divided by the slowdown
measured next to it, the median of the NEAREST samples over REFERENCE_S,
so it reads as seconds on a host where the kernel takes REFERENCE_S.
A change to the package moves the timings and not the kernel, so it
shows in full; the raw timings go into the run's record.
"""

from __future__ import annotations

import bisect
import statistics
import time
from fractions import Fraction

import numpy as np

# A fixed scale, near the kernel's median time on the 2-core Xeon
# (Sapphire Rapids, KVM) the benchmark was tuned on.
REFERENCE_S = 0.015
# Least time between two samples during timed passes.
INTERVAL_S = 0.15
# Samples nearest to a timing that give its slowdown.
NEAREST = 6

INT_STEPS = 40_000
FRACTION_TERMS = 1200
ARRAY_BYTES = 8 << 20
STRIDES = (3, 5, 7, 11, 13)


def kernel() -> float:
    """One timed pass of the fixed work; returns its seconds."""
    start = time.perf_counter()
    total, table = 0, {}
    for i in range(INT_STEPS):
        total += i * i % 7
        table[i & 255] = total
    share = Fraction(0)
    for i in range(FRACTION_TERMS):
        share += Fraction(i % 97 + 1, 707)
    marks = np.zeros(ARRAY_BYTES, dtype=np.uint8)
    for p in STRIDES:
        marks[::p] += 1
    elapsed = time.perf_counter() - start
    if (len(table) != 256 or share * 707 != sum(i % 97 + 1 for i in range(FRACTION_TERMS))
            or int(marks[0]) != len(STRIDES)):
        raise RuntimeError("calibration kernel computed a wrong result")
    return elapsed


class Sampler:
    """Kernel samples, each stamped with the time it was taken."""

    def __init__(self) -> None:
        self.stamps: list[float] = []  # ascending
        self.samples: list[float] = []

    def maybe_sample(self) -> float:
        """Sample if INTERVAL_S has passed since the last one.

        Returns the seconds spent, so a caller can leave them out.
        """
        if self.stamps and time.perf_counter() - self.stamps[-1] < INTERVAL_S:
            return 0.0
        return self.sample()

    def sample(self) -> float:
        """Take one sample; returns the seconds spent, checks included."""
        start = time.perf_counter()
        self.samples.append(kernel())
        self.stamps.append(time.perf_counter())
        return self.stamps[-1] - start

    def slowdown(self) -> float:
        """The whole run's slowdown: median sample over REFERENCE_S."""
        if not self.samples:
            raise RuntimeError("no calibration sample was taken")
        return statistics.median(self.samples) / REFERENCE_S

    def slowdown_at(self, when: float) -> float:
        """The slowdown around time `when`: median of the nearest samples.

        The host's speed swings within seconds, so a timing is divided by
        the speed measured next to it rather than by the run's median.
        """
        if not self.samples:
            raise RuntimeError("no calibration sample was taken")
        i = bisect.bisect_left(self.stamps, when)
        lo, hi = i, i  # the nearest samples form the run [lo, hi)
        while hi - lo < min(NEAREST, len(self.stamps)):
            if lo > 0 and (hi == len(self.stamps) or when - self.stamps[lo - 1] <= self.stamps[hi] - when):
                lo -= 1
            else:
                hi += 1
        return statistics.median(self.samples[lo:hi]) / REFERENCE_S
