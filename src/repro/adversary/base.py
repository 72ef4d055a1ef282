"""Interference adversary interface.

The paper models all unpredictable interference — unrelated protocols,
electromagnetic noise, malicious jammers — as a single adversary that may
disrupt up to ``t < F`` frequencies per round.  The adversary chooses its
behaviour for round ``r`` knowing the protocol and the execution through
round ``r − 1`` (an *adaptive* adversary); an *oblivious* adversary commits
to a distribution sequence in advance.

Concrete adversaries implement :meth:`InterferenceAdversary.choose_disruption`.
The simulator enforces the budget: returning more than ``t`` frequencies is a
configuration error, not a way to cheat.
"""

from __future__ import annotations

import abc
import random
from dataclasses import dataclass

from repro.exceptions import ConfigurationError
from repro.radio.frequencies import FrequencyBand
from repro.radio.spectrum_log import SpectrumLog
from repro.types import Frequency


@dataclass(slots=True)
class AdversaryContext:
    """Everything an adversary may see when choosing its disruption set.

    The simulator builds one context per run and updates it in place:
    before each call it sets :attr:`global_round` and
    :attr:`active_node_count`.  An adversary reads the context during the
    call and keeps nothing from it.

    Attributes
    ----------
    global_round:
        The 1-based round about to be played.
    band:
        The frequency band.
    budget:
        The maximum number of frequencies that may be disrupted (``t``).
    history:
        Spectrum activity through the end of the previous round: that
        round's record and per-frequency broadcast and delivery counts over
        the whole execution.  Adaptive adversaries may inspect it; oblivious
        adversaries must ignore it.
    rng:
        A dedicated random stream for the adversary.
    active_node_count:
        Number of currently active nodes (known to the adversary, which
        controls activation in the model).
    """

    global_round: int
    band: FrequencyBand
    budget: int
    history: SpectrumLog
    rng: random.Random
    active_node_count: int = 0


class InterferenceAdversary(abc.ABC):
    """Base class for interference adversaries.

    Subclasses should be cheap to construct and must be deterministic given
    the random stream in the context, so experiments are reproducible from a
    single master seed.
    """

    #: Whether the adversary is oblivious (ignores the execution history).
    #: Purely informational; the Good Samaritan analysis assumes obliviousness.
    oblivious: bool = False

    @abc.abstractmethod
    def choose_disruption(self, context: AdversaryContext) -> frozenset[Frequency]:
        """Return the set of frequencies to disrupt this round (size ≤ budget)."""

    def describe(self) -> str:
        """A short human-readable description used in experiment tables."""
        return type(self).__name__


def validate_budget(band: FrequencyBand, budget: int) -> int:
    """Validate a disruption budget ``t`` against a band of size ``F``.

    The model requires ``0 ≤ t < F``.
    """
    if budget < 0:
        raise ConfigurationError(f"disruption budget must be non-negative, got {budget}")
    if budget >= band.size:
        raise ConfigurationError(
            f"disruption budget t={budget} must be strictly less than F={band.size}"
        )
    return budget
