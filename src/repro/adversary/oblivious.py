"""Oblivious adversary wrappers.

The Good Samaritan analysis (§7) assumes an *oblivious* adversary: one whose
behaviour can be written down as a fixed sequence of distributions over
disruption sets before the execution starts.  :class:`ObliviousSchedule`
pre-draws such a sequence from any other adversary (or accepts an explicit
list), guaranteeing that nothing in the execution can influence it.
"""

from __future__ import annotations

import hashlib
import random
from typing import Iterable, Sequence

from repro.adversary.base import AdversaryContext, InterferenceAdversary
from repro.exceptions import ConfigurationError
from repro.radio.frequencies import FrequencyBand
from repro.radio.spectrum_log import SpectrumLog
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

    def identity(self) -> str:
        """Content digest of the pre-committed schedule.

        Two schedules of the same length but different disruption sets must
        have different identities, so the identity covers the actual
        per-round sets, not just the length.
        """
        digest = hashlib.sha256()
        for entry in self._schedule:
            digest.update(repr(sorted(entry)).encode("utf-8"))
        return f"{type(self).__qualname__}[{len(self._schedule)}]:{digest.hexdigest()[:16]}"

    @property
    def schedule(self) -> tuple[frozenset[Frequency], ...]:
        """The pre-committed per-round disruption sets."""
        return self._schedule

    @classmethod
    def pre_drawn(
        cls,
        inner: InterferenceAdversary,
        band: FrequencyBand,
        budget: int,
        rounds: int,
        seed: int = 0,
        active_node_count: int = 0,
    ) -> "ObliviousSchedule":
        """Pre-draw ``rounds`` rounds of ``inner``'s behaviour into a fixed schedule.

        The inner adversary sees an *empty* history in every round (it cannot
        react to the execution), which is exactly what obliviousness means.

        Parameters
        ----------
        inner:
            The adversary whose behaviour is pre-committed.
        band, budget:
            The band and disruption budget the schedule is drawn for.
        rounds:
            Length of the schedule.
        seed:
            Seed for the adversary's random stream.
        active_node_count:
            A constant node count exposed to the inner adversary.
        """
        if rounds < 0:
            raise ConfigurationError(f"schedule length must be non-negative, got {rounds}")
        rng = random.Random(seed)
        empty_history = SpectrumLog()
        schedule = []
        for global_round in range(1, rounds + 1):
            context = AdversaryContext(
                global_round=global_round,
                band=band,
                budget=budget,
                history=empty_history,
                rng=rng,
                active_node_count=active_node_count,
            )
            schedule.append(inner.choose_disruption(context))
        return cls(schedule)


class CyclicObliviousSchedule(ObliviousSchedule):
    """An oblivious adversary that replays a fixed schedule *cyclically*.

    Where :class:`ObliviousSchedule` repeats its final entry forever, this
    variant wraps around — round ``r`` plays entry ``(r − 1) mod period`` — so
    a short periodic disruption pattern covers executions of any length.  This
    is the decoded form of the strategy search's bounded oblivious genomes
    (:class:`repro.search.space.ObliviousGenome`): the genome stores one
    period, the decoded adversary tiles it over the whole execution.

    The content-digest :meth:`~ObliviousSchedule.identity` is inherited; it
    already distinguishes the cyclic class from the truncating one because it
    embeds the concrete class name.
    """

    def choose_disruption(self, context: AdversaryContext) -> frozenset[Frequency]:
        if not self._schedule:
            return frozenset()
        return self._schedule[(context.global_round - 1) % len(self._schedule)]

    def describe(self) -> str:
        return f"cyclic oblivious schedule (period {len(self._schedule)})"
