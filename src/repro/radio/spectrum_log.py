"""Spectrum occupancy statistics.

The :class:`SpectrumLog` is what an *adaptive* adversary is allowed to see of
the execution through the end of the previous round: that round's
:class:`~repro.radio.events.RoundActivity` record and per-frequency broadcast
and delivery counters over the whole execution.  It keeps no other history,
so its memory does not grow with the run length.

The log doubles as a streaming round observer (it implements the
:class:`~repro.engine.observers.RoundObserver` interface structurally, with
no dependency on the engine layer): the simulator feeds it each resolved
round's activity through :meth:`record`, and :meth:`on_round` does the same
for a round record.
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

    # -- RoundObserver interface (structural, no engine import) -----------

    def on_simulation_start(self, params, seed) -> None:
        """Observer hook: nothing to initialize — the log is ready at birth."""

    def on_activation(self, node_id, global_round) -> None:
        """Observer hook: activations are visible via the round activity."""

    def on_round(self, record) -> None:
        """Observer hook: record the round's spectrum activity."""
        self.record(record.activity)

    def on_simulation_end(self, rounds_simulated) -> None:
        """Observer hook: nothing to finalize."""

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
        ranked = sorted(
            universe,
            key=lambda frequency: (-self._broadcast_counts[frequency], frequency),
        )
        return tuple(ranked[:count])
