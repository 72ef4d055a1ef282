"""Host-speed normalization for the benchmark's timings.

On a shared host the CPU runs the same code up to ~40% slower for stretches
of seconds, which no statistic inside one run can remove.  So every timed
job, read and set-up is bracketed by two samples of fixed pure-Python
reference loops (like the loop ``repro bench`` calibrates with), and
its time is scaled to what it would have taken on a host where one sample
takes :data:`NOMINAL_S`::

    normalized = measured × NOMINAL_S / mean(reference before, reference after)

A program change moves the measured time but not the reference, so the
normalized time still shows it; a host slowdown moves both and cancels.
The raw times are reported alongside.
"""

from __future__ import annotations

import time

#: Iterations of the two reference loops, and runs of both per sample.
ARITHMETIC_LOOPS = 15_000
OBJECT_LOOPS = 1_800
REPEATS = 2
#: One sample's time on the host the bounds were measured on, in its fast
#: state (Python 3.11, 2 vCPUs).  Only a scale: it cancels in every
#: comparison between two commits.
NOMINAL_S = 0.0021


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        self.a = a
        self.b = b

    def plus(self, x: int) -> int:
        return self.a + x


def _reference_loops() -> int:
    """Integer arithmetic, then object, dict and set churn.

    The simulator and the kernel slow down under host contention partly like
    tight arithmetic and partly like allocation-heavy code; the sum of the
    two loops tracks both better than either alone.
    """
    total = 0
    for i in range(ARITHMETIC_LOOPS):
        total += i * i % 7
    table: dict[int, _Pair] = {}
    for i in range(OBJECT_LOOPS):
        pair = _Pair(i, i & 7)
        table[i & 63] = pair
        total += pair.plus(i) + len(table) + len({i & 15, (i >> 1) & 15})
    return total


def reference_sample() -> float:
    """The mean time of one run of the reference loops over :data:`REPEATS`.

    The mean, not the minimum: a measured call runs at the host's average
    speed over its interval, not at its fastest moment.
    """
    started = time.perf_counter()
    for _ in range(REPEATS):
        _reference_loops()
    return (time.perf_counter() - started) / REPEATS


def factor(before: float, after: float) -> float:
    """The scale that maps a time measured between two samples to nominal speed."""
    return NOMINAL_S / ((before + after) / 2.0)


class Bracket:
    """Scales for back-to-back timed intervals, each closed by a new sample.

    Every interval shares its opening sample with the previous interval's
    closing one, so a run of intervals costs one sample each.  Disabled, it
    takes no samples and every scale is 1.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self._last = reference_sample() if enabled else 0.0

    def close(self) -> float:
        """The scale of the interval since the previous sample; opens the next."""
        if not self.enabled:
            return 1.0
        after = reference_sample()
        scale, self._last = factor(self._last, after), after
        return scale
