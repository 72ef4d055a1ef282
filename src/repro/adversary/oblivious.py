"""Oblivious adversaries given as explicit disruption schedules.

The Good Samaritan analysis (§7) assumes an *oblivious* adversary: one whose
behaviour can be written down as a fixed sequence of distributions over
disruption sets before the execution starts.  A jammer flagged ``oblivious``
(e.g. :class:`~repro.adversary.jammers.RandomJammer`) already is one: it never
reads the execution's history, and it draws only from the trial's own
adversary stream, which no node reads, so it goes into a configuration as it
is.  :class:`ObliviousSchedule` replays an explicit list of disruption sets, and
:class:`CyclicObliviousSchedule` tiles one period of them — the form the
strategy search's oblivious genomes decode to.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.adversary.base import AdversaryContext, InterferenceAdversary
from repro.types import Frequency


class ObliviousSchedule(InterferenceAdversary):
    """An adversary that replays a fixed, pre-committed disruption schedule.

    Parameters
    ----------
    schedule:
        A sequence of disruption sets, one per round.  Rounds beyond the end
        of the schedule repeat the final entry (or are empty if the schedule
        is empty).
    """

    oblivious = True

    def __init__(self, schedule: Sequence[Iterable[Frequency]]) -> None:
        self._schedule: tuple[frozenset[Frequency], ...] = tuple(
            frozenset(entry) for entry in schedule
        )

    def __len__(self) -> int:
        return len(self._schedule)

    def choose_disruption(self, context: AdversaryContext) -> frozenset[Frequency]:
        if not self._schedule:
            return frozenset()
        index = min(context.global_round - 1, len(self._schedule) - 1)
        return self._schedule[index]

    def describe(self) -> str:
        return f"oblivious schedule ({len(self._schedule)} rounds)"

    @property
    def schedule(self) -> tuple[frozenset[Frequency], ...]:
        """The pre-committed per-round disruption sets."""
        return self._schedule


class CyclicObliviousSchedule(ObliviousSchedule):
    """An oblivious adversary that replays a fixed schedule *cyclically*.

    Where :class:`ObliviousSchedule` repeats its final entry forever, this
    variant wraps around — round ``r`` plays entry ``(r − 1) mod period`` — so
    a short periodic disruption pattern covers executions of any length.  This
    is the decoded form of the strategy search's bounded oblivious genomes
    (:class:`repro.search.space.ObliviousGenome`): the genome stores one
    period, the decoded adversary tiles it over the whole execution.
    """

    def choose_disruption(self, context: AdversaryContext) -> frozenset[Frequency]:
        if not self._schedule:
            return frozenset()
        return self._schedule[(context.global_round - 1) % len(self._schedule)]

    def describe(self) -> str:
        return f"cyclic oblivious schedule (period {len(self._schedule)})"
