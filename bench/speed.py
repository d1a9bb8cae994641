"""Machine speed, from a fixed calibration loop of the benchmark's own code.

The benchmark shares its cores with other work, and on such a machine the
speed of pure-Python code drifts by a factor of two or more over minutes.
Every reported time is therefore scaled to a reference speed:

    scaled = measured * REFERENCE_S / calibration

where ``calibration`` is the time of :func:`calibration_loop` measured
within a second of the interval.  The loop runs no ``nefslope`` code, so a
change to the package cannot move it; it mixes ``Fraction`` arithmetic,
big-integer arithmetic and dictionary work, like the package does.
"""

from __future__ import annotations

import bisect
import statistics
import time
from fractions import Fraction

#: Calibration time that defines the reference speed (a quiet 2-core x86-64 host, CPython 3.11).
REFERENCE_S = 0.002
#: Seconds between calibration samples during a timed loop.
EVERY_S = 0.5
#: Samples this close to an interval count towards its speed.
WINDOW_S = 1.0


def calibration_loop() -> None:
    acc = Fraction(0)
    for k in range(1, 400):
        acc += Fraction(k * k + 1, 3 * k + 7)
    x = 1
    for k in range(2000):
        x = (x * 6364136223846793005 + k) % (1 << 127)
    counts: dict[int, int] = {}
    for k in range(3000):
        counts[k % 97] = counts.get(k % 97, 0) + k


class Speed:
    def __init__(self):
        self.times: list[float] = []
        self.samples: list[float] = []

    def sample(self) -> None:
        """Best of three calibration loops, stamped with the current time."""
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            calibration_loop()
            best = min(best, time.perf_counter() - start)
        self.times.append(time.perf_counter())
        self.samples.append(best)

    def sample_if_due(self) -> None:
        if not self.times or time.perf_counter() - self.times[-1] >= EVERY_S:
            self.sample()

    def factor(self, start: float, end: float) -> float:
        """Reference speed over measured speed for the interval ``[start, end]``."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        near = self.samples[lo:hi]
        if not near:
            nearest = min(range(len(self.times)), key=lambda i: abs(self.times[i] - start))
            near = [self.samples[nearest]]
        return REFERENCE_S / statistics.mean(near)

    def scaled(self, start: float, end: float) -> float:
        return (end - start) * self.factor(start, end)
