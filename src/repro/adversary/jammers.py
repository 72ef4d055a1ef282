"""Concrete interference adversaries.

The paper's theorems quantify over *all* adversaries within the budget ``t``;
to exercise the protocols we provide a representative family:

* :class:`NoInterference` — the undisrupted baseline.
* :class:`FixedBandJammer` — always disrupts frequencies ``1 .. t`` (the weak
  adversary used in the proof of Theorem 1).
* :class:`RandomJammer` — a fresh uniformly random ``t``-subset every round.
* :class:`SweepJammer` — a contiguous window of ``t`` frequencies sweeping
  across the band (models a frequency-scanning jammer).
* :class:`BurstyJammer` — alternates between jamming at full budget and
  staying silent (duty-cycled interference, e.g. a microwave oven).
* :class:`ReactiveJammer` — adaptive: targets the frequencies with the most
  recently observed broadcasts.
* :class:`LowBandJammer` — targets the low prefix ``[1 .. 2^k]`` of the band,
  the worst case for the Good Samaritan protocol's optimistic portion.
* :class:`TwoNodeProductJammer` — approximates the Theorem 4 adversary by
  jamming the historically most *successful* frequencies (largest empirical
  ``p_j · q_j`` proxies).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

from repro.adversary.base import AdversaryContext, InterferenceAdversary
from repro.exceptions import ConfigurationError
from repro.types import Frequency


def _sample(rng: random.Random, population: Sequence[Frequency], k: int) -> list[Frequency]:
    """``k`` distinct draws from ``population``: exactly ``rng.sample(population, k)``.

    It returns the same list and leaves ``rng`` in the same state.  For
    ``k <= 5`` and at most 21 elements, CPython's ``Random.sample`` takes its
    pool branch: draw ``j`` below ``n - i`` for ``i = 0 .. k-1``, take
    ``pool[j]`` and move the pool's last unchosen element into its place.
    This runs that branch inline, each draw as
    :func:`~repro.protocols.base.draw_one_to` runs ``_randbelow``, without
    the frames ``sample`` -> ``_randbelow`` take.  Any other input (more
    elements, a larger ``k``, or a ``k`` that ``sample`` refuses) goes to
    ``rng.sample`` itself.  ``population`` is a tuple or a list.

    :class:`RandomJammer`, :class:`BurstyJammer`, :class:`LowBandJammer`
    and the policy jammer's ``random`` action draw through it.  The batch
    kernel (:mod:`repro.engine.batch`) replays the same draws on numpy words.
    """
    n = len(population)
    if n > 21 or not 0 <= k <= 5 or k > n:
        return rng.sample(population, k)
    getrandbits = rng.getrandbits
    pool = list(population)
    chosen = []
    for remaining in range(n, n - k, -1):
        bits = remaining.bit_length()
        index = getrandbits(bits)
        while index >= remaining:
            index = getrandbits(bits)
        chosen.append(pool[index])
        pool[index] = pool[remaining - 1]
    return chosen


class NoInterference(InterferenceAdversary):
    """An adversary that never disrupts anything."""

    oblivious = True

    def choose_disruption(self, context: AdversaryContext) -> frozenset[Frequency]:
        return frozenset()

    def describe(self) -> str:
        return "no interference"


class FixedBandJammer(InterferenceAdversary):
    """Always disrupt frequencies ``1 .. t`` (Theorem 1's weak adversary)."""

    oblivious = True

    def choose_disruption(self, context: AdversaryContext) -> frozenset[Frequency]:
        budget = min(context.budget, context.band.size - 1)
        return frozenset(range(1, budget + 1))

    def describe(self) -> str:
        return "fixed band [1..t]"


@dataclass
class RandomJammer(InterferenceAdversary):
    """Disrupt a uniformly random subset of ``strength`` frequencies per round.

    Parameters
    ----------
    strength:
        How many frequencies to disrupt each round.  ``None`` means the full
        budget ``t``.  Values above the budget are clamped by the simulator's
        budget check, so pass ``strength <= t``.
    """

    strength: int | None = None
    oblivious = True

    def choose_disruption(self, context: AdversaryContext) -> frozenset[Frequency]:
        count = context.budget if self.strength is None else min(self.strength, context.budget)
        if count <= 0:
            return frozenset()
        return frozenset(_sample(context.rng, context.band.all_frequencies(), count))

    def describe(self) -> str:
        label = "t" if self.strength is None else str(self.strength)
        return f"random jammer ({label} channels/round)"


@dataclass
class SweepJammer(InterferenceAdversary):
    """Disrupt a contiguous window of frequencies that advances every round.

    Parameters
    ----------
    step:
        How many frequencies the window advances per round.
    """

    step: int = 1
    oblivious = True

    def __post_init__(self) -> None:
        if self.step < 1:
            raise ConfigurationError(f"sweep step must be positive, got {self.step}")

    def choose_disruption(self, context: AdversaryContext) -> frozenset[Frequency]:
        if context.budget <= 0:
            return frozenset()
        size = context.band.size
        start = ((context.global_round - 1) * self.step) % size
        window = [((start + offset) % size) + 1 for offset in range(context.budget)]
        return frozenset(window)

    def describe(self) -> str:
        return f"sweep jammer (step {self.step})"


@dataclass
class BurstyJammer(InterferenceAdversary):
    """Alternate between full-budget jamming and silence.

    Parameters
    ----------
    on_rounds:
        Length of each jamming burst.
    off_rounds:
        Length of each quiet period.
    """

    on_rounds: int = 8
    off_rounds: int = 8
    oblivious = True

    def __post_init__(self) -> None:
        if self.on_rounds < 1 or self.off_rounds < 0:
            raise ConfigurationError(
                f"bursty jammer needs on_rounds >= 1 and off_rounds >= 0, "
                f"got {self.on_rounds}/{self.off_rounds}"
            )

    def choose_disruption(self, context: AdversaryContext) -> frozenset[Frequency]:
        period = self.on_rounds + self.off_rounds
        phase = (context.global_round - 1) % period if period else 0
        if phase >= self.on_rounds or context.budget <= 0:
            return frozenset()
        return frozenset(_sample(context.rng, context.band.all_frequencies(), context.budget))

    def describe(self) -> str:
        return f"bursty jammer ({self.on_rounds} on / {self.off_rounds} off)"


class ReactiveJammer(InterferenceAdversary):
    """Adaptive jammer targeting the busiest frequencies of the run so far.

    The jammer ranks frequencies by the number of broadcasts observed since
    the start of the execution and disrupts the top ``t``.  This is a
    natural adaptive strategy against protocols that concentrate traffic on
    a few channels.
    """

    oblivious = False

    def choose_disruption(self, context: AdversaryContext) -> frozenset[Frequency]:
        if context.budget <= 0:
            return frozenset()
        targets = context.history.busiest_frequencies(
            context.budget, context.band.all_frequencies()
        )
        return frozenset(targets)

    def describe(self) -> str:
        return "reactive jammer (busiest channels)"


@dataclass
class LowBandJammer(InterferenceAdversary):
    """Jam the low prefix of the band, optionally with a small random remainder.

    The Good Samaritan protocol concentrates its optimistic traffic on the
    prefix ``[1 .. 2^k]``; this jammer spends its budget there first, which is
    the worst case for the optimistic portion.

    Parameters
    ----------
    prefix_width:
        Width of the prefix to attack first.  ``None`` means the full budget.
    """

    prefix_width: int | None = None
    oblivious = True

    def choose_disruption(self, context: AdversaryContext) -> frozenset[Frequency]:
        if context.budget <= 0:
            return frozenset()
        width = context.budget if self.prefix_width is None else self.prefix_width
        chosen = list(context.band.prefix(width))[: context.budget]
        remaining = context.budget - len(chosen)
        if remaining > 0:
            taken = set(chosen)
            others = [f for f in context.band.all_frequencies() if f not in taken]
            chosen.extend(_sample(context.rng, others, min(remaining, len(others))))
        return frozenset(chosen)

    def describe(self) -> str:
        return "low-band jammer"


class TwoNodeProductJammer(InterferenceAdversary):
    """Approximation of the Theorem 4 adversary.

    The lower-bound adversary disrupts the ``t`` frequencies with the largest
    product ``p_j · q_j`` of the two nodes' selection probabilities.  A
    simulated adversary cannot read those probabilities directly, so this
    jammer uses the empirical frequency-usage counts (broadcasts plus
    deliveries) observed so far as a proxy, breaking ties towards low
    frequency indices (where uniform-prefix protocols concentrate mass).
    """

    oblivious = False

    def choose_disruption(self, context: AdversaryContext) -> frozenset[Frequency]:
        if context.budget <= 0:
            return frozenset()
        targets = context.history.most_used_frequencies(
            context.budget, context.band.all_frequencies()
        )
        return frozenset(targets)

    def describe(self) -> str:
        return "two-node product jammer"
