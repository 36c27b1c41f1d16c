"""The machine's pace, for scaling measured times to a reference speed.

On a shared machine the same computation can run 20-30% slower for
stretches of seconds to minutes, whatever else the container does.  The
benchmark therefore times a fixed pure-Python kernel, independent of the
package, at least every ``INTERVAL_S`` between operations.  Each operation's
wall time is scaled by ``REFERENCE_S`` over the kernel's time around it,
which removes most of the machine's drift.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from time import perf_counter

# Best-of-3 kernel time taken as the reference pace: about the median on
# the 2-CPU machine the benchmark was built on.
REFERENCE_S = 0.001
INTERVAL_S = 0.2


def kernel() -> tuple:
    table: dict = {}
    for i in range(1500):
        key = (i % 97, i % 89)
        table[key] = table.get(key, 0) + i
    return sorted(table.items())[0]


def kernel_seconds() -> float:
    """Best of three kernel timings, in seconds."""
    best = float("inf")
    for _ in range(3):
        began = perf_counter()
        kernel()
        best = min(best, perf_counter() - began)
    return best


class Pace:
    """Kernel timings taken during a run, as (time, seconds) points."""

    def __init__(self):
        self.times: list[float] = []
        self.seconds: list[float] = []

    def mark(self) -> None:
        self.seconds.append(kernel_seconds())
        self.times.append(perf_counter())

    def maybe_mark(self) -> None:
        if not self.times or perf_counter() - self.times[-1] >= INTERVAL_S:
            self.mark()

    def scale(self, start: float, end: float) -> float:
        """Factor turning a wall time over [start, end] into reference
        time: the mean kernel time of the last point before ``start`` and
        the first point after ``end`` gives the pace over the interval."""
        before = max(bisect_right(self.times, start) - 1, 0)
        after = min(bisect_left(self.times, end), len(self.times) - 1)
        return REFERENCE_S * 2 / (self.seconds[before] + self.seconds[after])
