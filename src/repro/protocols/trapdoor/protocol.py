"""The Trapdoor Protocol (§6).

Every node starts as a *contender* and proceeds through the ``lg N`` epochs of
the :class:`~repro.protocols.trapdoor.epochs.TrapdoorSchedule`.  In each round
a contender picks a uniformly random frequency in ``[1 .. F′]`` and broadcasts
a :class:`~repro.radio.messages.ContenderMessage` carrying its
``(rounds_active, uid)`` timestamp with the epoch's probability, otherwise it
listens.  A contender that hears a contender with a **larger** timestamp falls
through the trapdoor: it is *knocked out* and from then on only listens on a
random frequency in ``[1 .. F′]``.  A contender that survives all epochs
becomes the *leader*, declares the round numbering, and thereafter broadcasts
:class:`~repro.radio.messages.LeaderMessage`s with probability 1/2 on a random
frequency in ``[1 .. F′]``.  Any node that hears a leader message adopts the
numbering immediately.
"""

from __future__ import annotations

from repro.protocols.base import (
    BoundProtocolFactory,
    ProtocolContext,
    SynchronizationProtocol,
    SynchronizedOutputMixin,
    draw_one_to,
)
from repro.protocols.timestamps import Timestamp
from repro.protocols.trapdoor.config import TrapdoorConfig
from repro.protocols.trapdoor.epochs import TrapdoorSchedule
from repro.radio.actions import RadioAction, broadcast, listen
from repro.radio.events import ReceptionOutcome
from repro.radio.messages import ContenderMessage, LeaderMessage
from repro.types import Role


class TrapdoorProtocol(SynchronizedOutputMixin, SynchronizationProtocol):
    """Per-node state machine of the Trapdoor Protocol.

    Parameters
    ----------
    context:
        The node's protocol context (provided by the engine).
    config:
        Protocol constants; defaults to the paper's structure.
    """

    def __init__(self, context: ProtocolContext, config: TrapdoorConfig | None = None) -> None:
        super().__init__(context)
        self.config = config or TrapdoorConfig()
        self.schedule = TrapdoorSchedule(context.params, self.config)
        self._state = Role.CONTENDER
        self._band_width = self.schedule.effective_frequencies
        self._knocked_out_by: Timestamp | None = None

    # -- factory -----------------------------------------------------------

    @classmethod
    def factory(cls, config: TrapdoorConfig | None = None):
        """A :data:`~repro.protocols.base.ProtocolFactory` building this protocol."""

        return BoundProtocolFactory(cls, (config,))

    # -- protocol interface -------------------------------------------------

    @property
    def role(self) -> Role:
        return self._state

    def choose_action(self) -> RadioAction:
        rng = self.context.rng
        local_round = self.context.local_round

        if self._state is Role.CONTENDER and self.schedule.completed(local_round):
            self._become_leader()

        frequency = draw_one_to(rng, self._band_width)

        if self._state is Role.CONTENDER:
            probability = self.schedule.broadcast_probability(local_round)
            if rng.random() < probability:
                message = ContenderMessage(
                    timestamp=self._my_timestamp(),
                    epoch=self._current_epoch_index(local_round),
                )
                return broadcast(frequency, message)
            return listen(frequency)

        if self._state is Role.LEADER:
            if rng.random() < self.config.leader_broadcast_probability:
                return broadcast(frequency, self._leader_message())
            return listen(frequency)

        if self._state is Role.SYNCHRONIZED and self.config.synchronized_nodes_assist:
            output = self.current_output()
            if output is not None and rng.random() < 0.5:
                return broadcast(frequency, LeaderMessage(leader_uid=self.context.uid, round_number=output))
            return listen(frequency)

        # Knocked out (or synchronized without the assist extension): listen.
        return listen(frequency)

    def on_reception(self, outcome: ReceptionOutcome) -> None:
        message = outcome.message
        if message is None:
            return
        if isinstance(message, LeaderMessage):
            self._adopt_from_leader(message)
            return
        if isinstance(message, ContenderMessage) and self._state is Role.CONTENDER:
            if message.timestamp > self._my_timestamp():
                self._state = Role.KNOCKED_OUT
                self._knocked_out_by = message.timestamp

    # -- introspection (used by tests and metrics) ---------------------------

    @property
    def state_name(self) -> str:
        """The internal state name (contender / knocked_out / leader / synchronized)."""
        return self._state.value

    @property
    def knocked_out_by(self) -> Timestamp | None:
        """The timestamp that knocked this node out, if any."""
        return self._knocked_out_by

    # -- internals ------------------------------------------------------------

    def _my_timestamp(self) -> Timestamp:
        return Timestamp(rounds_active=self.context.local_round, uid=self.context.uid)

    def _current_epoch_index(self, local_round: int) -> int:
        epoch = self.schedule.epoch_of_round(local_round)
        return epoch.index if epoch is not None else self.schedule.epoch_count

    def _become_leader(self) -> None:
        self._state = Role.LEADER
        # The leader numbers rounds by its own activation age.
        self.adopt_round_number(self.context.local_round)

    def _leader_message(self) -> LeaderMessage:
        output = self.current_output()
        assert output is not None  # leaders always have a committed number
        return LeaderMessage(leader_uid=self.context.uid, round_number=output)

    def _adopt_from_leader(self, message: LeaderMessage) -> None:
        if self._state is Role.LEADER:
            # A second leader hearing the first adopts nothing; uniqueness is
            # guaranteed w.h.p. by the analysis, and the checker will flag
            # disagreement if it ever happens with unlucky constants.
            return
        if self._state is not Role.SYNCHRONIZED:
            self._state = Role.SYNCHRONIZED
        self.adopt_round_number(message.round_number)
