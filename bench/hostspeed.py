"""Host speed, measured between operations, to scale timings to one speed.

The benchmark's host is a shared two-core machine whose speed drifts by
tens of percent from one second to the next (other tenants' load), which
moves every timing of a run alike: a fixed loop's per-second medians ranged
over 0.47-0.73 ms within twenty seconds.  A ``HostSpeed`` times a fixed
slice of pure-Python integer work -- Bareiss elimination on a fixed 9 x 9
matrix, the kind of work the program does -- before the first operation and
then whenever ``mark`` is called at least ``SEGMENT_S`` after the previous
slice.  That cuts the run into segments of workload time with a slice
between each two.  A segment is scaled by ``REFERENCE_SLICE_S`` over the
median of the slices around it, giving seconds at the reference speed: the
speed at which one slice takes ``REFERENCE_SLICE_S``.  Slice time counts as
no operation's time.  The slices are the benchmark's own code, so a change
to the program moves the scaled timings in full.
"""

from __future__ import annotations

import bisect
import statistics
import time

# the slice time on the 2-core x86-64 host the benchmark was defined on
# (Python 3.11) in a quiet period; under that host's usual load slices took
# 1.1 to 1.7 times as long, so scaled timings read as that host's best
REFERENCE_SLICE_S = 0.002
SEGMENT_S = 0.05
WINDOW = 2          # slices on each side of a segment that set its speed

_ROWS = [[(7 * i + 3 * j * j + i * j) % 19 - 9 for j in range(9)] for i in range(9)]


def _slice() -> int:
    total = 0
    for _ in range(60):
        a = [row[:] for row in _ROWS]
        n, prev = len(a), 1
        for k in range(n - 1):
            if a[k][k] == 0:
                a[k][k] = 1
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    a[i][j] = (a[k][k] * a[i][j] - a[i][k] * a[k][j]) // prev
            prev = a[k][k]
        total += a[-1][-1] % 97
    return total


def slice_time() -> float:
    t0 = time.perf_counter()
    _slice()
    return time.perf_counter() - t0


class HostSpeed:
    """Segments of workload time and the slices between them.

    Call ``mark`` between operations (and, for long operations, inside
    them); ``close`` ends the last segment.  ``spent(a, b)`` is the workload
    time within ``[a, b]``, and ``spent(a, b, scales())`` the same at the
    reference speed."""

    def __init__(self):
        self.slices = [slice_time()]
        self.starts = [time.perf_counter()]
        self.ends: list[float] = []

    def mark(self) -> None:
        now = time.perf_counter()
        if now - self.starts[-1] >= SEGMENT_S:
            self._cut(now)

    def close(self) -> None:
        self._cut(time.perf_counter())

    def _cut(self, now: float) -> None:
        self.ends.append(now)
        self.slices.append(slice_time())
        self.starts.append(time.perf_counter())

    def scales(self) -> list[float]:
        """Per segment: reference slice time over the median slice around it
        (slices k and k + 1 bracket segment k)."""
        n = len(self.slices)
        return [REFERENCE_SLICE_S / statistics.median(
                    self.slices[max(0, k + 1 - WINDOW):min(n, k + 1 + WINDOW)])
                for k in range(len(self.ends))]

    def spent(self, a: float, b: float, scales: list[float] | None = None) -> float:
        total = 0.0
        k = max(0, bisect.bisect_right(self.starts, a) - 1)
        while k < len(self.ends) and self.starts[k] < b:
            overlap = min(b, self.ends[k]) - max(a, self.starts[k])
            if overlap > 0:
                total += overlap * (scales[k] if scales else 1.0)
            k += 1
        return total
