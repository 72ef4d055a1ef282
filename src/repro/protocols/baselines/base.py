"""Shared machinery for the baseline protocols.

The baselines exist to show what the Trapdoor Protocol's structure (epoch
doubling, the ``F′`` band restriction, the extended final epoch) buys.  They
all share the same leader-election skeleton:

* every node contends by occasionally broadcasting a
  :class:`~repro.radio.messages.ContenderMessage` with its
  ``(rounds_active, uid)`` timestamp;
* a contender that hears a contender with a larger timestamp is knocked out
  and only listens from then on;
* a contender that survives ``victory_rounds`` rounds declares itself leader,
  adopts its own numbering, and broadcasts
  :class:`~repro.radio.messages.LeaderMessage`s with probability 1/2;
* anyone hearing a leader message adopts the numbering.

What differs between baselines is *how* a contender picks its frequency and
broadcast probability each round — exactly the part the paper engineers
carefully.  Concrete baselines override :meth:`ContentionBaseline.contender_action`.

Because the baselines have no analytically justified stopping rule, their
``victory_rounds`` default is deliberately generous; the benchmark tables
report both their latency *and* their agreement/unique-leader rates, which is
where naive stopping rules fall over.
"""

from __future__ import annotations

import math

from repro.exceptions import ConfigurationError
from repro.protocols.base import (
    ProtocolContext,
    SynchronizationProtocol,
    SynchronizedOutputMixin,
    draw_one_to,
)
from repro.protocols.timestamps import Timestamp
from repro.radio.actions import RadioAction, broadcast, listen
from repro.radio.events import ReceptionOutcome
from repro.radio.messages import ContenderMessage, LeaderMessage
from repro.types import Role


def default_victory_rounds(context: ProtocolContext, constant: float = 6.0) -> int:
    """A generous default contention horizon: ``⌈constant · F/(F−t) · lg N⌉`` rounds."""
    params = context.params
    denominator = max(1, params.frequencies - params.disruption_budget)
    return max(
        1,
        math.ceil(constant * params.frequencies / denominator * params.log_participants),
    )


class ContentionBaseline(SynchronizedOutputMixin, SynchronizationProtocol):
    """Leader-election skeleton shared by all baseline protocols.

    Parameters
    ----------
    context:
        The node's protocol context.
    victory_rounds:
        Rounds a contender must survive before declaring itself leader.
        ``None`` uses :func:`default_victory_rounds`.
    leader_broadcast_probability:
        Probability with which the leader announces its numbering each round.
    """

    def __init__(
        self,
        context: ProtocolContext,
        victory_rounds: int | None = None,
        leader_broadcast_probability: float = 0.5,
    ) -> None:
        super().__init__(context)
        if victory_rounds is not None and victory_rounds < 1:
            raise ConfigurationError(f"victory_rounds must be positive, got {victory_rounds}")
        if not 0.0 < leader_broadcast_probability <= 1.0:
            raise ConfigurationError(
                "leader_broadcast_probability must be in (0, 1], got "
                f"{leader_broadcast_probability}"
            )
        self.victory_rounds = victory_rounds or default_victory_rounds(context)
        self.leader_broadcast_probability = leader_broadcast_probability
        self._state = Role.CONTENDER

    # -- what concrete baselines customize -------------------------------------

    def contender_action(self) -> RadioAction:
        """The frequency / broadcast decision of a still-contending node.

        Concrete baselines must return either a listen action or a broadcast
        action carrying :meth:`identity_message`.
        """
        raise NotImplementedError

    def listening_frequency(self) -> int:
        """Where knocked-out and synchronized nodes listen (default: whole band)."""
        return draw_one_to(self.context.rng, self.context.params.frequencies)

    def leader_frequency(self) -> int:
        """Where a leader announces its numbering (default: whole band)."""
        return draw_one_to(self.context.rng, self.context.params.frequencies)

    # -- shared skeleton ---------------------------------------------------------

    @property
    def role(self) -> Role:
        return self._state

    @property
    def state_name(self) -> str:
        """The internal state name (contender / knocked_out / leader / synchronized)."""
        return self._state.value

    def identity_message(self) -> ContenderMessage:
        """The contender message this node broadcasts while contending."""
        return ContenderMessage(timestamp=self.my_timestamp())

    def my_timestamp(self) -> Timestamp:
        """The node's current ``(rounds_active, uid)`` timestamp."""
        return Timestamp(rounds_active=self.context.local_round, uid=self.context.uid)

    def choose_action(self) -> RadioAction:
        rng = self.context.rng
        if self._state is Role.CONTENDER and self.context.local_round > self.victory_rounds:
            self._state = Role.LEADER
            self.adopt_round_number(self.context.local_round)
        if self._state is Role.CONTENDER:
            return self.contender_action()
        if self._state is Role.LEADER:
            frequency = self.leader_frequency()
            if rng.random() < self.leader_broadcast_probability:
                output = self.current_output()
                assert output is not None
                return broadcast(
                    frequency, LeaderMessage(leader_uid=self.context.uid, round_number=output)
                )
            return listen(frequency)
        return listen(self.listening_frequency())

    def on_reception(self, outcome: ReceptionOutcome) -> None:
        message = outcome.message
        if message is None:
            return
        if isinstance(message, LeaderMessage):
            if self._state is not Role.LEADER:
                self._state = Role.SYNCHRONIZED
                self.adopt_round_number(message.round_number)
            return
        if isinstance(message, ContenderMessage) and self._state is Role.CONTENDER:
            if message.timestamp > self.my_timestamp():
                self._state = Role.KNOCKED_OUT
