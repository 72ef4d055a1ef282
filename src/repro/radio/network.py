"""The single-hop disrupted radio network.

This module implements the communication rule of the paper's model (§2):

* each node tunes to one frequency per round and either broadcasts or listens;
* a listener on frequency ``f`` receives a message iff **exactly one** node
  broadcast on ``f`` and the adversary did not disrupt ``f``;
* broadcasters receive nothing;
* nodes cannot distinguish silence, collision, and disruption.

The network is stateless: :meth:`SingleHopRadioNetwork.resolve_round` is a
pure function from the round's actions and the adversary's disruption set to
the messages delivered — one entry per listener that received, and nothing
for any other node, so a node cannot tell silence, collision and disruption
apart — plus the round's :class:`~repro.radio.events.RoundActivity` record.
The record keeps what the resolver already has — the broadcaster and
listener buckets per frequency, the disruption set, and the frequencies it
delivered on — so the delivery rule above is decided here and nowhere else:
every reader of the record (spectrum log, metrics, trace export) reads its
``delivered`` frequencies.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from repro.exceptions import ConfigurationError, SimulationError
from repro.radio.actions import RadioAction
from repro.radio.events import RoundActivity
from repro.radio.frequencies import FrequencyBand
from repro.radio.messages import Message
from repro.types import Frequency, Intent, NodeId


class SingleHopRadioNetwork:
    """A single-hop radio network with ``F`` frequencies and collisions.

    Parameters
    ----------
    band:
        The frequency band (defines ``F``).
    """

    def __init__(self, band: FrequencyBand) -> None:
        self._band = band
        #: The band as a frozenset, for O(t) validation of disruption sets.
        self._band_set: frozenset[Frequency] = frozenset(band.all_frequencies())

    @property
    def band(self) -> FrequencyBand:
        """The frequency band this network operates on."""
        return self._band

    def resolve_round(
        self,
        global_round: int,
        actions: Mapping[NodeId, RadioAction],
        disrupted: Iterable[Frequency],
        activations: Iterable[NodeId] = (),
    ) -> tuple[dict[NodeId, Message], RoundActivity]:
        """Resolve one round of communication.

        Parameters
        ----------
        global_round:
            The global round index (only recorded, never interpreted).
        actions:
            The action chosen by every active node this round.
        disrupted:
            The frequencies the adversary disrupts this round.  Frequencies
            outside the band are rejected.
        activations:
            Node ids activated this round (recorded in the activity record).

        Returns
        -------
        tuple[dict[NodeId, Message], RoundActivity]
            ``received``, mapping exactly the listeners on a delivered
            frequency to the message of that frequency's lone broadcaster,
            and the round's aggregate activity record.
        """
        # This is the disruption set's only validation.  Fast path: every
        # built-in adversary returns a frozenset of in-band ints, so a subset
        # check replaces per-frequency validation.  Anything else (or any
        # non-int: 2.0 == 2 passes the subset test) takes the strict path.
        if isinstance(disrupted, frozenset) and all(type(f) is int for f in disrupted):
            disrupted_set = disrupted
            if not disrupted_set <= self._band_set:
                for f in disrupted_set:
                    self._band.validate(f)
        else:
            disrupted_set = frozenset(self._band.validate(f) for f in disrupted)

        broadcasters: dict[Frequency, list[NodeId]] = {}
        listeners: dict[Frequency, list[NodeId]] = {}
        band = self._band
        band_size = band.size
        broadcast_intent = Intent.BROADCAST
        for node_id, action in actions.items():
            frequency = action.frequency
            if not (type(frequency) is int and 1 <= frequency <= band_size) and (
                frequency not in band
            ):
                raise SimulationError(
                    f"node {node_id} tuned to frequency {frequency} outside band "
                    f"[1..{band_size}]"
                )
            target = broadcasters if action.intent is broadcast_intent else listeners
            bucket = target.get(frequency)
            if bucket is None:
                target[frequency] = [node_id]
            else:
                bucket.append(node_id)

        received: dict[NodeId, Message] = {}
        delivered: list[Frequency] = []
        for frequency, senders in broadcasters.items():
            if len(senders) == 1 and frequency not in disrupted_set:
                delivered.append(frequency)
                receivers = listeners.get(frequency)
                if receivers:
                    message = actions[senders[0]].message
                    for node_id in receivers:
                        received[node_id] = message

        activity = RoundActivity(
            global_round=global_round,
            broadcasters=broadcasters,
            listeners=listeners,
            disrupted=disrupted_set,
            delivered=frozenset(delivered),
            activations=tuple(sorted(activations)) if activations else (),
        )
        return received, activity

    def validate_disruption_budget(self, disrupted: Iterable[Frequency], budget: int) -> frozenset[Frequency]:
        """Check that a disruption set respects the adversary budget ``t``.

        Returns the validated set.  Raises :class:`ConfigurationError` if the
        set exceeds the budget or contains out-of-band frequencies.

        The simulator does not call it: :meth:`resolve_round` validates the
        set, and the simulator checks the resolved set's size.  It stays
        because ``perfbench/layers.py`` wraps it by name.
        """
        disrupted_set = frozenset(disrupted)
        # Plain ints inside the band need no per-frequency check.  The int
        # test is needed: 2.0 == 2, so a float passes the subset test.
        if not (disrupted_set <= self._band_set and all(type(f) is int for f in disrupted_set)):
            for frequency in disrupted_set:
                self._band.validate(frequency)
        if len(disrupted_set) > budget:
            raise ConfigurationError(
                f"adversary disrupted {len(disrupted_set)} frequencies, budget is {budget}"
            )
        return disrupted_set
