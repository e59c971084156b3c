"""Machine-speed probe: request times are scaled to a reference speed.

The benchmark runs on shared virtual machines whose speed changes with
the load of other tenants: by up to 1.9x, for seconds to minutes at a
time, in wall and in CPU time alike. A fixed kernel of the package's
staple work (exact Gauss-Jordan elimination over Q and GF(p) in pure
Python, the oracles' own, so no change to the package moves it) is timed
between requests, at most every INTERVAL_S. Each request's times are
scaled by REFERENCE_S over the kernel's time around it, so they read as
times on a machine where the kernel takes REFERENCE_S.
"""

from __future__ import annotations

import time
from bisect import bisect_right

from oracles import Field, row_reduce

# the kernel's time on the machine the bounds were set on, when unloaded
REFERENCE_S = 0.0035
INTERVAL_S = 0.25


def kernel() -> None:
    for f in (Field(0), Field(1009)):
        rows = [[f.elt((i * 7 + j * 3) % 11 - 5) for j in range(13)] for i in range(12)]
        row_reduce(f, rows, 13)


class SpeedProbe:
    """Kernel timings ``(end time, wall, CPU)``, taken at most every INTERVAL_S."""

    def __init__(self):
        self.samples = []

    def sample(self) -> None:
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.samples.append((t1, t1 - t0, time.process_time() - cpu0))

    def maybe_sample(self) -> None:
        if not self.samples or time.perf_counter() - self.samples[-1][0] >= INTERVAL_S:
            self.sample()


def scale(samples, start: float) -> tuple:
    """(wall, CPU) factors for a request that started at ``start``.

    The kernel times of the last sample before the request and the first
    one after it are averaged; ``samples`` is sorted by time and has one
    sample before the first request and one after the last.
    """
    i = bisect_right(samples, start, key=lambda s: s[0]) - 1
    before, after = samples[max(i, 0)], samples[min(i + 1, len(samples) - 1)]
    return (
        2 * REFERENCE_S / (before[1] + after[1]),
        2 * REFERENCE_S / (before[2] + after[2]),
    )
