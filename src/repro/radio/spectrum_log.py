"""Spectrum occupancy statistics.

The :class:`SpectrumLog` is what an *adaptive* adversary is allowed to see of
the execution through the end of the previous round: that round's
:class:`~repro.radio.events.RoundActivity` record and per-frequency broadcast
and delivery counters over the whole execution.  It keeps no other history,
so its memory does not grow with the run length.

The simulator feeds it each resolved round's activity through
:meth:`record`; to rebuild a log after the fact, feed :meth:`record` the
activities of a ``FULL`` trace's records, in order.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Optional

from repro.radio.events import RoundActivity
from repro.types import Frequency


class SpectrumLog:
    """The latest round's spectrum activity plus whole-execution counters."""

    def __init__(self) -> None:
        self._latest: Optional[RoundActivity] = None
        self._broadcast_counts: Counter[Frequency] = Counter()
        self._delivery_counts: Counter[Frequency] = Counter()

    @property
    def latest(self) -> Optional[RoundActivity]:
        """The most recently recorded round, or ``None`` if empty."""
        return self._latest

    def record(self, activity: RoundActivity) -> None:
        """Count one round's broadcasts and deliveries and keep it as latest."""
        self._latest = activity
        broadcast_counts = self._broadcast_counts
        for frequency, senders in activity.broadcasters.items():
            broadcast_counts[frequency] += len(senders)
        delivery_counts = self._delivery_counts
        for frequency in activity.delivered:
            delivery_counts[frequency] += 1

    # -- occupancy statistics ---------------------------------------------

    def broadcast_count(self, frequency: Frequency) -> int:
        """Total number of broadcasts observed on ``frequency``."""
        return self._broadcast_counts[frequency]

    def delivery_count(self, frequency: Frequency) -> int:
        """Total number of successful deliveries observed on ``frequency``."""
        return self._delivery_counts[frequency]

    def busiest_frequencies(self, count: int, universe: Iterable[Frequency]) -> tuple[Frequency, ...]:
        """The ``count`` frequencies with the most observed broadcasts.

        Frequencies from ``universe`` that were never used rank last; ties are
        broken by frequency index for determinism.
        """
        # Sorting is stable, also with reverse=True: ranked by count alone,
        # the ascending universe keeps equal counts in frequency order.
        ranked = sorted(sorted(universe), key=self._broadcast_counts.__getitem__, reverse=True)
        return tuple(ranked[:count])

    def quietest_frequencies(
        self, count: int, universe: Iterable[Frequency]
    ) -> tuple[Frequency, ...]:
        """The ``count`` frequencies with the fewest observed broadcasts.

        Ties are broken by frequency index, as in :meth:`busiest_frequencies`.
        """
        ranked = sorted(sorted(universe), key=self._broadcast_counts.__getitem__)
        return tuple(ranked[:count])

    def most_used_frequencies(
        self, count: int, universe: Iterable[Frequency]
    ) -> tuple[Frequency, ...]:
        """The ``count`` distinct frequencies with the most broadcasts plus deliveries.

        Ties are broken by frequency index, as in :meth:`busiest_frequencies`.
        """
        broadcasts, deliveries = self._broadcast_counts, self._delivery_counts
        usage = {frequency: broadcasts[frequency] + deliveries[frequency] for frequency in universe}
        ranked = sorted(sorted(usage), key=usage.__getitem__, reverse=True)
        return tuple(ranked[:count])
