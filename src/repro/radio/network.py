"""The single-hop disrupted radio network.

This module implements the communication rule of the paper's model (§2):

* each node tunes to one frequency per round and either broadcasts or listens;
* a listener on frequency ``f`` receives a message iff **exactly one** node
  broadcast on ``f`` and the adversary did not disrupt ``f``;
* broadcasters receive nothing;
* nodes cannot distinguish silence, collision, and disruption.

The network itself is stateless; :class:`SingleHopRadioNetwork.resolve_round`
is a pure function from the round's actions and the adversary's disruption set
to per-node outcomes plus an aggregate :class:`~repro.radio.events.RoundActivity`
record.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from repro.exceptions import ConfigurationError, SimulationError
from repro.radio.actions import RadioAction
from repro.radio.events import FrequencyActivity, ReceptionOutcome, RoundActivity
from repro.radio.frequencies import FrequencyBand
from repro.types import Frequency, Intent, NodeId


@dataclass(frozen=True, slots=True)
class NetworkResolution:
    """The result of resolving one round of radio communication.

    Attributes
    ----------
    outcomes:
        Per-node reception outcomes.
    activity:
        The aggregate spectrum activity record for the round.
    """

    outcomes: Mapping[NodeId, ReceptionOutcome]
    activity: RoundActivity


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
        #: Interned reception outcomes.  An outcome with no message is fully
        #: determined by ``(frequency, broadcast, collision, disrupted)`` —
        #: at most ``8·F`` distinct values — and outcomes are immutable, so
        #: the resolver hands every node a shared instance instead of
        #: allocating one dataclass per node per round.
        self._outcome_cache: dict[
            tuple[Frequency, bool, bool, bool], ReceptionOutcome
        ] = {}

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
    ) -> NetworkResolution:
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
        NetworkResolution
            Per-node outcomes and the aggregate activity record.
        """
        # Fast path: the simulator hands us an already-budget-validated
        # frozenset of in-band ints, so a subset check replaces per-frequency
        # validation.  Anything else (or any non-int) takes the strict path.
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

        outcomes: dict[NodeId, ReceptionOutcome] = {}
        per_frequency: dict[Frequency, FrequencyActivity] = {}
        outcome_cache = self._outcome_cache

        used_frequencies = broadcasters.keys() | listeners.keys()
        for frequency in sorted(used_frequencies):
            freq_bucket = broadcasters.get(frequency)
            listen_bucket = listeners.get(frequency)
            freq_broadcasters = tuple(sorted(freq_bucket)) if freq_bucket else ()
            freq_listeners = tuple(sorted(listen_bucket)) if listen_bucket else ()
            is_disrupted = frequency in disrupted_set
            broadcaster_count = len(freq_broadcasters)
            collision = broadcaster_count >= 2
            delivered = broadcaster_count == 1 and not is_disrupted

            message = None
            if delivered:
                message = actions[freq_broadcasters[0]].message

            per_frequency[frequency] = FrequencyActivity(
                frequency=frequency,
                broadcasters=freq_broadcasters,
                listeners=freq_listeners,
                disrupted=is_disrupted,
                delivered=delivered,
            )

            if freq_broadcasters:
                key = (frequency, True, collision, is_disrupted)
                outcome = outcome_cache.get(key)
                if outcome is None:
                    outcome = ReceptionOutcome(
                        frequency=frequency,
                        broadcast=True,
                        message=None,
                        collision=collision,
                        disrupted=is_disrupted,
                    )
                    outcome_cache[key] = outcome
                for node_id in freq_broadcasters:
                    outcomes[node_id] = outcome
            if freq_listeners:
                if message is None:
                    key = (frequency, False, collision, is_disrupted)
                    outcome = outcome_cache.get(key)
                    if outcome is None:
                        outcome = ReceptionOutcome(
                            frequency=frequency,
                            broadcast=False,
                            message=None,
                            collision=collision,
                            disrupted=is_disrupted,
                        )
                        outcome_cache[key] = outcome
                else:
                    outcome = ReceptionOutcome(
                        frequency=frequency,
                        broadcast=False,
                        message=message,
                        collision=collision,
                        disrupted=is_disrupted,
                    )
                for node_id in freq_listeners:
                    outcomes[node_id] = outcome

        activity = RoundActivity(
            global_round=global_round,
            per_frequency=per_frequency,
            disrupted=disrupted_set,
            activations=tuple(sorted(activations)),
        )
        return NetworkResolution(outcomes=outcomes, activity=activity)

    def validate_disruption_budget(self, disrupted: Iterable[Frequency], budget: int) -> frozenset[Frequency]:
        """Check that a disruption set respects the adversary budget ``t``.

        Returns the validated set.  Raises :class:`ConfigurationError` if the
        set exceeds the budget or contains out-of-band frequencies.
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
