"""Table-driven reactive jamming policies.

The adversarial strategy search (:mod:`repro.search`) needs a *searchable*
family of adaptive adversaries: something richer than the hand-written
:class:`~repro.adversary.jammers.ReactiveJammer`, but still fully determined
by a small, picklable, content-hashable description.  :class:`PolicyJammer`
is that family — a lookup table from discretized
:class:`~repro.adversary.base.AdversaryContext` features to primitive jamming
moves.

Features (the table index) are deliberately coarse so the policy space stays
small enough to search:

* **phase** — ``(global_round − 1) mod phase_period``, letting a policy play
  periodic patterns;
* **heat** — how many broadcasts the previous round carried, bucketed into
  silent / lone-broadcaster / contended (the signal a real reactive jammer
  can actually sense).

Each table entry names one of the :data:`POLICY_ACTIONS` primitives, all of
which respect the per-round budget ``t`` by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

from repro.adversary.base import AdversaryContext, InterferenceAdversary
from repro.adversary.jammers import _sample
from repro.exceptions import ConfigurationError
from repro.types import Frequency

#: The primitive moves a policy table can name.
POLICY_ACTIONS: tuple[str, ...] = (
    "idle",        # disrupt nothing this round
    "busiest",     # the t historically busiest frequencies
    "quietest",    # the t historically least-used frequencies
    "random",      # a fresh uniform t-subset
    "low-band",    # the prefix [1 .. t]
    "high-band",   # the suffix [F−t+1 .. F]
    "sweep",       # a contiguous t-window advancing one frequency per round
)

#: Number of heat buckets (silent / lone broadcaster / contended).
HEAT_BUCKETS = 3


@dataclass
class PolicyJammer(InterferenceAdversary):
    """An adaptive jammer driven by a (phase × heat) → action lookup table.

    Parameters
    ----------
    table:
        One action name per (phase, heat) state, laid out row-major as
        ``table[phase * HEAT_BUCKETS + heat]``; must have exactly
        ``phase_period * HEAT_BUCKETS`` entries drawn from
        :data:`POLICY_ACTIONS`.
    phase_period:
        The period of the phase feature (``≥ 1``).
    """

    table: tuple[str, ...]
    phase_period: int = 4

    oblivious = False

    #: Heat bucketing: 0 = silent previous round, 1 = exactly one broadcast,
    #: 2 = contended (two or more).
    heat_buckets: ClassVar[int] = HEAT_BUCKETS

    def __post_init__(self) -> None:
        self.table = tuple(self.table)
        if self.phase_period < 1:
            raise ConfigurationError(f"phase_period must be positive, got {self.phase_period}")
        expected = self.phase_period * HEAT_BUCKETS
        if len(self.table) != expected:
            raise ConfigurationError(
                f"policy table needs {expected} entries "
                f"({self.phase_period} phases × {HEAT_BUCKETS} heat buckets), got {len(self.table)}"
            )
        unknown = sorted(set(self.table) - set(POLICY_ACTIONS))
        if unknown:
            raise ConfigurationError(
                f"unknown policy actions {unknown}; known: {', '.join(POLICY_ACTIONS)}"
            )

    def _heat(self, context: AdversaryContext) -> int:
        latest = context.history.latest
        if latest is None:
            return 0
        broadcasts = latest.broadcaster_count()
        return 0 if broadcasts == 0 else 1 if broadcasts == 1 else 2

    def choose_disruption(self, context: AdversaryContext) -> frozenset[Frequency]:
        if context.budget <= 0:
            return frozenset()
        phase = (context.global_round - 1) % self.phase_period
        action = self.table[phase * HEAT_BUCKETS + self._heat(context)]
        return self._apply(action, context)

    def _apply(self, action: str, context: AdversaryContext) -> frozenset[Frequency]:
        band, budget, history = context.band, context.budget, context.history
        if action == "idle":
            return frozenset()
        if action == "busiest":
            return frozenset(history.busiest_frequencies(budget, band.all_frequencies()))
        if action == "quietest":
            return frozenset(history.quietest_frequencies(budget, band.all_frequencies()))
        if action == "random":
            return frozenset(_sample(context.rng, band.all_frequencies(), budget))
        if action == "low-band":
            return frozenset(band.prefix(budget))
        if action == "high-band":
            return frozenset(range(band.size - budget + 1, band.size + 1))
        if action == "sweep":
            start = (context.global_round - 1) % band.size
            return frozenset(((start + offset) % band.size) + 1 for offset in range(budget))
        raise ConfigurationError(f"unknown policy action {action!r}")  # pragma: no cover

    def describe(self) -> str:
        return f"policy jammer ({self.phase_period} phases × {HEAT_BUCKETS} heat buckets)"
