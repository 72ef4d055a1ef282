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
* :class:`FaultTolerantTrapdoorProtocol` — the modified protocol;
* :class:`CrashSchedule` / :func:`crashable` — a fail-silent crash injector
  that mutes a node (it stops broadcasting and ignores receptions) after a
  configured local round, which is how the ``fault_tolerance`` benchmark
  kills leaders.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Mapping

from repro.exceptions import ConfigurationError
from repro.protocols.base import (
    BoundProtocolFactory,
    ProtocolContext,
    ProtocolFactory,
    SynchronizationProtocol,
    SynchronizedOutputMixin,
    draw_one_to,
)
from repro.protocols.numbering import RoundNumbering
from repro.protocols.timestamps import Timestamp
from repro.protocols.trapdoor.config import TrapdoorConfig
from repro.protocols.trapdoor.epochs import TrapdoorSchedule
from repro.radio.actions import RadioAction, broadcast, listen
from repro.radio.events import ReceptionOutcome
from repro.radio.messages import ContenderMessage, LeaderMessage
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
        self._pending_numbering: RoundNumbering | None = None
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

    def on_reception(self, outcome: ReceptionOutcome) -> None:
        message = outcome.message
        if message is None:
            return
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
        if self._pending_numbering is not None:
            # Preserve a numbering learned from a previous (crashed) leader so
            # agreement survives re-election.
            self.adopt_round_number(self._pending_numbering.number_for(self.context.local_round))
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
        if self._pending_numbering is None:
            self._pending_numbering = RoundNumbering.adopted_from_message(
                receiver_local_round=self.context.local_round,
                announced_number=message.round_number,
            )
        if self._state is not _State.COMMITTED:
            self._state = _State.KNOCKED_OUT
        if self._leader_messages_seen >= self.config.commit_threshold:
            self._state = _State.COMMITTED
            self.adopt_round_number(
                self._pending_numbering.number_for(self.context.local_round)
            )


# ---------------------------------------------------------------------------
# Crash injection
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CrashSchedule:
    """Which nodes fail-silent, and when (in *local* rounds).

    Attributes
    ----------
    crash_rounds:
        Mapping from node id to the local round after which the node is muted.
        Nodes not present never crash.
    """

    crash_rounds: Mapping[int, int]

    def crash_round_for(self, node_id: int) -> int | None:
        """The crash round of ``node_id``, or ``None`` if it never crashes."""
        return self.crash_rounds.get(node_id)


class MutedProtocol(SynchronizationProtocol):
    """A fail-silent wrapper: after ``mute_after`` local rounds the node stops
    broadcasting and ignores everything it hears.

    The muted node keeps outputting (its clock keeps ticking), which models a
    device that left the network rather than one whose memory was wiped; what
    matters for the experiments is that it stops *transmitting* — in
    particular, a muted leader no longer announces the numbering.
    """

    def __init__(self, inner: SynchronizationProtocol, mute_after: int) -> None:
        super().__init__(inner.context)
        if mute_after < 1:
            raise ConfigurationError(f"mute_after must be >= 1, got {mute_after}")
        self.inner = inner
        self.mute_after = mute_after

    @property
    def muted(self) -> bool:
        """True once the node has crashed (fail-silent)."""
        return self.context.local_round > self.mute_after

    @property
    def role(self) -> Role:
        return self.inner.role

    def on_activate(self) -> None:
        self.inner.on_activate()

    def choose_action(self) -> RadioAction:
        if self.muted:
            return listen(draw_one_to(self.context.rng, self.context.params.frequencies))
        return self.inner.choose_action()

    def on_reception(self, outcome: ReceptionOutcome) -> None:
        if self.muted:
            return
        self.inner.on_reception(outcome)

    def current_output(self) -> SyncOutput:
        return self.inner.current_output()


@dataclass
class CrashableProtocolFactory:
    """A picklable crash-injecting :data:`~repro.protocols.base.ProtocolFactory`.

    Because protocols do not know their engine-side node id, the crash
    schedule is applied by activation order: the ``i``-th activated node gets
    the crash round registered for id ``i``.  This matches how the benchmarks
    construct their activation schedules (node ids are activation ranks).

    The activation counter is *per execution*: the simulator calls
    :meth:`fresh` before every run, so reusing one factory across a
    multi-seed batch applies the crash schedule to every trial (a shared
    counter would silently stop crashing nodes after the first execution),
    and a parallel batch behaves identically to a serial one.
    """

    inner_factory: ProtocolFactory
    schedule: CrashSchedule
    _next_index: int = 0

    def fresh(self) -> "CrashableProtocolFactory":
        """A copy with the activation counter reset (one per execution)."""
        return CrashableProtocolFactory(self.inner_factory, self.schedule)

    def __call__(self, context: ProtocolContext) -> SynchronizationProtocol:
        node_index = self._next_index
        self._next_index += 1
        inner = self.inner_factory(context)
        crash_round = self.schedule.crash_round_for(node_index)
        if crash_round is None:
            return inner
        return MutedProtocol(inner, crash_round)


def crashable(inner_factory: ProtocolFactory, schedule: CrashSchedule) -> ProtocolFactory:
    """Wrap a protocol factory with fail-silent crash injection."""
    return CrashableProtocolFactory(inner_factory, schedule)
