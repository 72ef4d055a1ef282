"""Crash-tolerant Trapdoor variant (§8, "Fault-tolerance").

The concluding remarks sketch how to make the Trapdoor Protocol tolerate
crash failures:

* a node that has not heard from the leader for sufficiently long
  (``Ω(F²/(F−t) · log N)`` rounds) *restarts* its contention;
* a node *delays outputting* a round number until it has received
  sufficiently many messages from the leader, ensuring no node commits to a
  leader that died before establishing itself;
* (our addition, needed for late arrivals after a leader crash) nodes that
  have committed keep *assisting*: they re-broadcast the numbering with a
  small probability, so the numbering survives the death of its originator.

This module provides:

* :class:`FaultToleranceConfig` — the constants of the modification;
* :class:`FaultTolerantTrapdoorProtocol` — the modified protocol.

A crash is a :class:`~repro.faults.plan.ChurnEvent` with no rejoin: the
departed node goes silent and stops advancing, which is how the
``fault_tolerance`` benchmark kills leaders.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from repro.exceptions import ConfigurationError
from repro.protocols.base import (
    BoundProtocolFactory,
    ProtocolContext,
    ProtocolFactory,
    SynchronizationProtocol,
    SynchronizedOutputMixin,
    draw_one_to,
)
from repro.protocols.trapdoor.config import TrapdoorConfig
from repro.protocols.trapdoor.epochs import TrapdoorSchedule
from repro.radio.actions import RadioAction, broadcast, listen
from repro.radio.messages import ContenderMessage, LeaderMessage, Message
from repro.timestamps import Timestamp
from repro.types import Role, SyncOutput


@dataclass(frozen=True)
class FaultToleranceConfig:
    """Constants of the crash-tolerant modification.

    Attributes
    ----------
    trapdoor:
        The underlying Trapdoor constants.
    silence_timeout_constant:
        A node restarts after ``⌈constant · F′²/(F′−t) · lg N⌉`` rounds without
        hearing a leader (the paper suggests ``Ω(F²/(F−t) · log N)``).
    commit_threshold:
        How many leader messages a node must receive before it outputs a round
        number ("delays outputting … until it has received sufficiently many
        messages from the leader").
    assist_probability:
        Probability with which committed nodes re-broadcast the numbering each
        round, keeping it alive after the leader crashes.
    """

    trapdoor: TrapdoorConfig = TrapdoorConfig()
    silence_timeout_constant: float = 4.0
    commit_threshold: int = 2
    assist_probability: float = 0.25

    def __post_init__(self) -> None:
        if self.silence_timeout_constant <= 0:
            raise ConfigurationError(
                f"silence_timeout_constant must be positive, got {self.silence_timeout_constant}"
            )
        if self.commit_threshold < 1:
            raise ConfigurationError(
                f"commit_threshold must be at least 1, got {self.commit_threshold}"
            )
        if not 0.0 <= self.assist_probability <= 1.0:
            raise ConfigurationError(
                f"assist_probability must be in [0, 1], got {self.assist_probability}"
            )

    def silence_timeout(self, schedule: TrapdoorSchedule) -> int:
        """The concrete restart timeout for a given schedule."""
        params = schedule.params
        f_prime = schedule.effective_frequencies
        denominator = max(1, f_prime - params.disruption_budget)
        return max(
            1,
            math.ceil(
                self.silence_timeout_constant
                * f_prime
                * f_prime
                / denominator
                * params.log_participants
            ),
        )


class _State(enum.Enum):
    CONTENDER = "contender"
    KNOCKED_OUT = "knocked_out"
    LEADER = "leader"
    COMMITTED = "committed"


#: The role each state reports; ``committed`` reports as synchronized.
_ROLES = {
    _State.CONTENDER: Role.CONTENDER,
    _State.KNOCKED_OUT: Role.KNOCKED_OUT,
    _State.LEADER: Role.LEADER,
    _State.COMMITTED: Role.SYNCHRONIZED,
}


class FaultTolerantTrapdoorProtocol(SynchronizedOutputMixin, SynchronizationProtocol):
    """The Trapdoor Protocol with restart-on-silence and delayed commitment.

    Parameters
    ----------
    context:
        The node's protocol context.
    config:
        Fault-tolerance constants.
    """

    def __init__(self, context: ProtocolContext, config: FaultToleranceConfig | None = None) -> None:
        super().__init__(context)
        self.config = config or FaultToleranceConfig()
        self.schedule = TrapdoorSchedule(context.params, self.config.trapdoor)
        self._band_width = self.schedule.effective_frequencies
        self._timeout = self.config.silence_timeout(self.schedule)
        self._state = _State.CONTENDER
        self._start_round = 1
        self._leader_messages_seen = 0
        self._last_leader_contact: int | None = None
        # The first numbering heard, as (announced number − local round at
        # receipt): local round r is global round r + offset.
        self._numbering_offset: int | None = None
        self._restarts = 0

    @classmethod
    def factory(cls, config: FaultToleranceConfig | None = None) -> ProtocolFactory:
        """A protocol factory for the fault-tolerant variant."""

        return BoundProtocolFactory(cls, (config,))

    # -- reporting ---------------------------------------------------------

    @property
    def role(self) -> Role:
        return _ROLES[self._state]

    @property
    def restart_count(self) -> int:
        """How many times this node restarted its contention."""
        return self._restarts

    @property
    def state_name(self) -> str:
        """The internal state name."""
        return self._state.value

    # -- per-round behaviour -------------------------------------------------

    def choose_action(self) -> RadioAction:
        rng = self.context.rng
        self._maybe_restart()

        protocol_round = self._protocol_round()
        if self._state is _State.CONTENDER and self.schedule.completed(protocol_round):
            self._become_leader()

        frequency = draw_one_to(rng, self._band_width)

        if self._state is _State.CONTENDER:
            probability = self.schedule.broadcast_probability(protocol_round)
            if rng.random() < probability:
                return broadcast(frequency, ContenderMessage(timestamp=self._my_timestamp()))
            return listen(frequency)

        if self._state is _State.LEADER:
            if rng.random() < self.config.trapdoor.leader_broadcast_probability:
                return broadcast(frequency, self._numbering_message())
            return listen(frequency)

        if self._state is _State.COMMITTED:
            if rng.random() < self.config.assist_probability:
                return broadcast(frequency, self._numbering_message())
            return listen(frequency)

        return listen(frequency)

    def on_reception(self, message: Message) -> None:
        if isinstance(message, LeaderMessage):
            self._on_leader_message(message)
            return
        if isinstance(message, ContenderMessage) and self._state is _State.CONTENDER:
            if message.timestamp > self._my_timestamp():
                self._state = _State.KNOCKED_OUT
                self._last_leader_contact = self.context.local_round

    def current_output(self) -> SyncOutput:
        # The mixin holds the committed counter; nothing is output before the
        # commit threshold is reached (the §8 "delay outputting" rule).
        return super().current_output()

    # -- internals ---------------------------------------------------------------

    def _protocol_round(self) -> int:
        return self.context.local_round - self._start_round + 1

    def _my_timestamp(self) -> Timestamp:
        # Rounds-active deliberately counts from activation (not from the last
        # restart): the earliest-activated survivor still wins ties, which is
        # what keeps re-elections converging on a single leader.
        return Timestamp(rounds_active=self.context.local_round, uid=self.context.uid)

    def _maybe_restart(self) -> None:
        if self._state not in (_State.KNOCKED_OUT,):
            return
        if self._last_leader_contact is None:
            self._last_leader_contact = self.context.local_round
            return
        if self.context.local_round - self._last_leader_contact > self._timeout:
            self._state = _State.CONTENDER
            self._start_round = self.context.local_round
            self._restarts += 1
            self._last_leader_contact = None

    def _become_leader(self) -> None:
        self._state = _State.LEADER
        if self._numbering_offset is not None:
            # Preserve a numbering learned from a previous (crashed) leader so
            # agreement survives re-election.
            self.adopt_round_number(self.context.local_round + self._numbering_offset)
        else:
            self.adopt_round_number(self.context.local_round)

    def _numbering_message(self) -> LeaderMessage:
        output = self.current_output()
        assert output is not None
        return LeaderMessage(leader_uid=self.context.uid, round_number=output)

    def _on_leader_message(self, message: LeaderMessage) -> None:
        if self._state is _State.LEADER:
            return
        self._leader_messages_seen += 1
        self._last_leader_contact = self.context.local_round
        if self._numbering_offset is None:
            self._numbering_offset = message.round_number - self.context.local_round
        if self._state is not _State.COMMITTED:
            self._state = _State.KNOCKED_OUT
        if self._leader_messages_seen >= self.config.commit_threshold:
            self._state = _State.COMMITTED
            self.adopt_round_number(self.context.local_round + self._numbering_offset)
