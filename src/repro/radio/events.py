"""Records describing what happened on the radio network in one round.

These records form the vocabulary shared by the network resolver
(:mod:`repro.radio.network`), the execution trace
(:mod:`repro.engine.trace`), the metrics collector, and the adaptive
adversaries (which see the previous round's record through the spectrum log).
They are the spectrum-wide view, for observers only: a protocol never sees
them, and learns of a round only the message it received, if any.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.types import Frequency, NodeId


@dataclass(frozen=True, slots=True)
class FrequencyActivity:
    """Aggregate activity on one frequency during one round.

    Built on read by :attr:`RoundActivity.per_frequency`.

    Attributes
    ----------
    frequency:
        The frequency index.
    broadcasters:
        Node ids that broadcast on this frequency.
    listeners:
        Node ids that listened on this frequency.
    disrupted:
        Whether the adversary disrupted the frequency.
    delivered:
        Whether a message was delivered (exactly one broadcaster and no
        disruption and at least zero listeners — delivery is defined per
        listener, so this is true exactly when listeners could receive).
    """

    frequency: Frequency
    broadcasters: tuple[NodeId, ...] = ()
    listeners: tuple[NodeId, ...] = ()
    disrupted: bool = False
    delivered: bool = False

    @property
    def collided(self) -> bool:
        """True if two or more nodes broadcast on this frequency."""
        return len(self.broadcasters) >= 2


@dataclass(frozen=True, slots=True)
class RoundActivity:
    """Everything that happened on the spectrum in one global round.

    The record holds what the resolver already has: who broadcast and who
    listened on each tuned frequency, in the order the nodes acted, the
    disruption set, and the frequencies a message was delivered on.
    :attr:`per_frequency` derives the sorted per-frequency view from them.

    Attributes
    ----------
    global_round:
        The 1-based global round index.
    broadcasters:
        Mapping from frequency to the ids of the nodes that broadcast on it.
        Only frequencies with a broadcaster appear.
    listeners:
        Mapping from frequency to the ids of the nodes that listened on it.
        Only frequencies with a listener appear.
    disrupted:
        The set of frequencies disrupted by the adversary this round.
    delivered:
        The frequencies on which a message was delivered, as decided by
        :meth:`~repro.radio.network.SingleHopRadioNetwork.resolve_round`.
    activations:
        Node ids activated at the beginning of this round.
    """

    global_round: int
    broadcasters: Mapping[Frequency, Sequence[NodeId]] = field(default_factory=dict)
    listeners: Mapping[Frequency, Sequence[NodeId]] = field(default_factory=dict)
    disrupted: frozenset[Frequency] = frozenset()
    delivered: frozenset[Frequency] = frozenset()
    activations: tuple[NodeId, ...] = ()

    @property
    def per_frequency(self) -> Mapping[Frequency, FrequencyActivity]:
        """One :class:`FrequencyActivity` per tuned frequency, built on read.

        Keys are exactly the tuned frequencies in ascending order; node ids
        are sorted within each record.
        """
        broadcasters, listeners = self.broadcasters, self.listeners
        return {
            frequency: FrequencyActivity(
                frequency=frequency,
                broadcasters=tuple(sorted(broadcasters.get(frequency, ()))),
                listeners=tuple(sorted(listeners.get(frequency, ()))),
                disrupted=frequency in self.disrupted,
                delivered=frequency in self.delivered,
            )
            for frequency in sorted(broadcasters.keys() | listeners.keys())
        }

    def successful_frequencies(self) -> tuple[Frequency, ...]:
        """Frequencies on which a message was delivered this round, ascending."""
        return tuple(sorted(self.delivered))

    def broadcaster_count(self) -> int:
        """Total number of broadcasting nodes this round."""
        return sum(len(senders) for senders in self.broadcasters.values())
