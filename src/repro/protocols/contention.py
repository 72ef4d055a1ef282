"""The Trapdoor family's leader-election skeleton (§6 and its baselines).

The Trapdoor Protocol and the wake-up baselines it is measured against run
one state machine:

* every node starts as a *contender* and occasionally broadcasts a
  :class:`~repro.radio.messages.ContenderMessage` carrying its
  ``(rounds_active, uid)`` timestamp;
* a contender that hears a contender with a larger timestamp falls through
  the trapdoor: it is *knocked out* and only listens from then on;
* a contender that survives ``victory_rounds`` rounds becomes the *leader*:
  it numbers rounds by its own activation age and announces the numbering
  in a :class:`~repro.radio.messages.LeaderMessage` with probability
  ``leader_broadcast_probability`` each round;
* any other node that hears a leader message adopts the numbering and is
  *synchronized*.

What differs between members is only *how* a contender contends, and each
member declares just that:

* :meth:`ContentionProtocol.contender_probability` — a contender's broadcast
  probability in a given local round (required unless the member overrides
  :meth:`~ContentionProtocol.contends`);
* ``band_width`` — a node tunes to a uniformly random frequency in
  ``[1 .. band_width]``: ``F`` unless the member narrows it (Trapdoor's
  ``F′``);
* a member that tunes by another rule overrides
  :meth:`~ContentionProtocol.frequency`, and
  :meth:`~ContentionProtocol.leader_frequency` if its leader follows the
  rule too; a member whose contenders draw no coin overrides
  :meth:`~ContentionProtocol.contends`.

A member with epochs also reports the epoch its contender messages carry
(:meth:`~ContentionProtocol.epoch`, diagnostics only).

The skeleton owns the rest, including the order of random draws: every round
a node draws its frequency first and then, if it contends or leads, its
broadcast coin.  The batch kernel (:mod:`repro.engine.batch`) reads a member's
horizon, probabilities and ``band_width``, but re-implements the frequency
and ``contends`` rules itself: a change to those needs kernel support too.
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
from repro.radio.actions import RadioAction, broadcast, listen
from repro.radio.messages import ContenderMessage, LeaderMessage, Message
from repro.timestamps import Timestamp
from repro.types import Role


def default_victory_rounds(context: ProtocolContext, constant: float = 6.0) -> int:
    """A generous default contention horizon: ``⌈constant · F/(F−t) · lg N⌉`` rounds.

    The baselines have no analytically justified stopping rule, so their
    horizon is deliberately long; the benchmark tables report their
    agreement and unique-leader rates, which is where naive stopping rules
    fall over.
    """
    params = context.params
    denominator = max(1, params.frequencies - params.disruption_budget)
    return max(
        1,
        math.ceil(constant * params.frequencies / denominator * params.log_participants),
    )


class ContentionProtocol(SynchronizedOutputMixin, SynchronizationProtocol):
    """The leader-election state machine every Trapdoor-family member runs.

    Parameters
    ----------
    context:
        The node's protocol context.
    victory_rounds:
        Rounds a contender must survive before declaring itself leader.
        ``None`` uses :func:`default_victory_rounds`.
    leader_broadcast_probability:
        Probability with which the leader announces its numbering each round.

    Attributes
    ----------
    band_width:
        The default frequency rule draws from ``[1 .. band_width]``.  It is
        ``F``; a member narrows it in its constructor.
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
        self.band_width = context.params.frequencies
        self._state = Role.CONTENDER

    # -- what a member declares ----------------------------------------------

    def contender_probability(self, local_round: int) -> float:
        """A contender's broadcast probability in its ``local_round``-th round."""
        raise NotImplementedError(f"{type(self).__name__} declares no contender_probability")

    def frequency(self) -> int:
        """Where a contender, knocked-out or synchronized node tunes this round."""
        return draw_one_to(self.context.rng, self.band_width)

    def leader_frequency(self) -> int:
        """Where the leader tunes this round."""
        return draw_one_to(self.context.rng, self.band_width)

    def contends(self, local_round: int) -> bool:
        """Whether a contender broadcasts this round: one coin per round."""
        return self.context.rng.random() < self.contender_probability(local_round)

    def epoch(self, local_round: int) -> int:
        """The epoch index a contender message carries, for diagnostics (0: none)."""
        return 0

    # -- the skeleton ------------------------------------------------------------

    @property
    def role(self) -> Role:
        return self._state

    @property
    def state_name(self) -> str:
        """The internal state name (contender / knocked_out / leader / synchronized)."""
        return self._state.value

    def choose_action(self) -> RadioAction:
        context = self.context
        local_round = context.local_round
        if self._state is Role.CONTENDER and local_round > self.victory_rounds:
            self._state = Role.LEADER
            self.adopt_round_number(local_round)
        if self._state is Role.LEADER:
            frequency = self.leader_frequency()
            if context.rng.random() < self.leader_broadcast_probability:
                output = self.current_output()
                assert output is not None  # a leader has adopted its own numbering
                return broadcast(
                    frequency, LeaderMessage(leader_uid=context.uid, round_number=output)
                )
            return listen(frequency)
        frequency = self.frequency()
        if self._state is Role.CONTENDER and self.contends(local_round):
            message = ContenderMessage(
                timestamp=Timestamp(rounds_active=local_round, uid=context.uid),
                epoch=self.epoch(local_round),
            )
            return broadcast(frequency, message)
        return listen(frequency)

    def on_reception(self, message: Message) -> None:
        if isinstance(message, LeaderMessage):
            # A leader hearing another leader adopts nothing: uniqueness holds
            # w.h.p., and the checker flags disagreement if it ever fails.
            if self._state is not Role.LEADER:
                self._state = Role.SYNCHRONIZED
                self.adopt_round_number(message.round_number)
            return
        if isinstance(message, ContenderMessage) and self._state is Role.CONTENDER:
            context = self.context
            if message.timestamp > Timestamp(rounds_active=context.local_round, uid=context.uid):
                self._state = Role.KNOCKED_OUT
