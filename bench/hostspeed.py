"""Host speed, from a fixed reference task timed between the workload's items.

On a shared host the CPU's speed drifts by tens of percent over seconds to
minutes, in phases longer than one benchmark item and often longer than a
whole run, so two runs of the same code can differ by 30%.  The reference
task below slows down with the workload: it does the two kinds of work
mmcodes does (numpy row operations on small GF(2) matrices, and pure-Python
integer loops) but calls no mmcodes code, so no change to the program moves
it.  Timings divided by ``slowdown()`` are what they would be on a host
where one reference task takes ``NOMINAL_S``.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

NOMINAL_S = 0.004
_MATRIX = np.random.default_rng(0).integers(0, 2, size=(96, 128), dtype=np.uint8)


def reference_task() -> int:
    """Row-reduce a fixed 96x128 GF(2) matrix, run an integer loop, and
    return the matrix's rank."""
    m = _MATRIX.copy()
    r = 0
    for c in range(m.shape[1]):
        rows = np.flatnonzero(m[r:, c]) + r
        if rows.size == 0:
            continue
        p = rows[0]
        if p != r:
            m[[r, p]] = m[[p, r]]
        others = np.flatnonzero(m[:, c])
        m[others[others != r]] ^= m[r]
        r += 1
        if r == m.shape[0]:
            break
    s = 0
    for i in range(20000):
        s += (i * i) & 0xFF
    return r


class HostSpeed:
    """Reference-task times sampled over a run."""

    def __init__(self):
        self.samples: list[float] = []

    def sample(self, seconds: float) -> None:
        """Time the reference task repeatedly for about ``seconds`` (at
        least once)."""
        end = time.perf_counter() + seconds
        while True:
            t0 = time.perf_counter()
            reference_task()
            t1 = time.perf_counter()
            self.samples.append(t1 - t0)
            if t1 >= end:
                return

    def slowdown(self) -> float:
        """Mean reference time over ``NOMINAL_S``: above 1 on a slow host."""
        return statistics.fmean(self.samples) / NOMINAL_S
