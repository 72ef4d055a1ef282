"""The Good Samaritan Protocol (§7).

The protocol has an *optimistic* portion — ``lg F`` super-epochs that finish
quickly when all nodes woke up together and the actual disruption ``t'`` is
small — and a *fallback* portion, a modified Trapdoor protocol with long
epochs, that guarantees termination in every execution.

Roles and transitions
---------------------
* A node starts as a **contender**.  A contender that receives a message from
  another contender is *downgraded* to a **good samaritan** (timestamps are
  ignored in the optimistic portion).
* A **samaritan** that receives a message from another samaritan is knocked
  out and becomes **passive**.
* Samaritans record which contenders reach them during the *critical epoch*
  (epoch ``lg N + 1`` of each super-epoch) in rounds that are not special for
  either party and where both nodes were activated in the same round; they
  embed those counts in their own broadcasts.
* A contender that learns it achieved the success threshold becomes
  **leader**, declares the round numbering, and broadcasts it every round with
  probability 1/2 on the special-round frequency distribution.
* A node that exits the last super-epoch unsynchronized enters the fallback:
  each round it flips a coin and either plays a round of the modified Trapdoor
  protocol (timestamps knock contenders out again) or a special Good Samaritan
  round.  A fallback contender that survives all fallback epochs becomes
  leader.
* Any node that receives a :class:`~repro.radio.messages.LeaderMessage`
  immediately adopts the numbering.

A node asks its :class:`~repro.protocols.good_samaritan.schedule.GoodSamaritanSchedule`
for its epoch once per epoch it enters, and once on entering the fallback:
it caches the epoch's span and reads the cache in every other round.
"""

from __future__ import annotations

import math

from repro.protocols.base import (
    BoundProtocolFactory,
    ProtocolContext,
    SynchronizationProtocol,
    SynchronizedOutputMixin,
    draw_one_to,
)
from repro.protocols.good_samaritan.config import GoodSamaritanConfig
from repro.protocols.good_samaritan.reports import SuccessLedger
from repro.protocols.good_samaritan.schedule import EpochSpan, GoodSamaritanSchedule
from repro.radio.actions import RadioAction, broadcast, listen
from repro.radio.messages import ContenderMessage, LeaderMessage, Message, SamaritanMessage
from repro.timestamps import Timestamp
from repro.types import Frequency, Role


class GoodSamaritanProtocol(SynchronizedOutputMixin, SynchronizationProtocol):
    """Per-node state machine of the Good Samaritan Protocol.

    Parameters
    ----------
    context:
        The node's protocol context (provided by the engine).
    config:
        Protocol constants; defaults to the paper's structure.
    """

    def __init__(self, context: ProtocolContext, config: GoodSamaritanConfig | None = None) -> None:
        super().__init__(context)
        self.config = config or GoodSamaritanConfig()
        self.schedule = GoodSamaritanSchedule(context.params, self.config)
        self._state = Role.CONTENDER
        self._ledger = SuccessLedger()
        self._this_round_special = False
        self._leader_via_fallback = False
        self._downgrade_round: int | None = None
        # Read every round: built once.
        self._frequencies = context.params.frequencies
        self._log_f = self.schedule.super_epoch_count
        self._prefix_widths = self.schedule.prefix_widths
        # The cached epoch span, valid for local rounds [first, last]; the
        # empty range makes the first read ask the schedule.
        self._span: EpochSpan | None = None
        self._span_first: float = 1
        self._span_last: float = 0

    # -- factory -----------------------------------------------------------

    @classmethod
    def factory(cls, config: GoodSamaritanConfig | None = None):
        """A :data:`~repro.protocols.base.ProtocolFactory` building this protocol."""

        return BoundProtocolFactory(cls, (config,))

    # -- protocol interface --------------------------------------------------

    @property
    def role(self) -> Role:
        return self._state

    def choose_action(self) -> RadioAction:
        self._this_round_special = False

        if self._state is Role.LEADER:
            return self._leader_action()
        if self._state in (Role.PASSIVE, Role.SYNCHRONIZED):
            return listen(self._monitoring_frequency())

        span = self._epoch_span()
        if span is not None:
            return self._optimistic_action(span)
        return self._fallback_action(self.context.local_round)

    def on_reception(self, message: Message) -> None:
        if isinstance(message, LeaderMessage):
            self._adopt_from_leader(message)
            return
        if self._state is Role.CONTENDER:
            self._contender_reception(message)
        elif self._state is Role.SAMARITAN:
            self._samaritan_reception(message)

    # -- introspection (tests, metrics) ---------------------------------------

    @property
    def state_name(self) -> str:
        """The internal state name."""
        return self._state.value

    @property
    def became_leader_via_fallback(self) -> bool:
        """True if the node won through the modified Trapdoor fallback."""
        return self._leader_via_fallback

    @property
    def downgrade_round(self) -> int | None:
        """The local round this node was downgraded to samaritan, if it was."""
        return self._downgrade_round

    @property
    def success_ledger(self) -> SuccessLedger:
        """The samaritan-side success ledger (exposed for tests)."""
        return self._ledger

    @property
    def in_fallback(self) -> bool:
        """True once this node's local round lies in the fallback portion."""
        return self.schedule.in_fallback(self.context.local_round)

    # -- optimistic portion -----------------------------------------------------

    def _optimistic_action(self, span: EpochSpan) -> RadioAction:
        rng = self.context.rng
        prefix = self._prefix_widths[span.super_epoch - 1]

        if span.epoch <= self.context.params.log_participants:
            # Regular epochs: half the time the super-epoch prefix, half the
            # time the whole band; broadcast with the epoch's probability.
            if rng.random() < self.config.local_band_probability:
                frequency = draw_one_to(rng, prefix)
            else:
                frequency = draw_one_to(rng, self._frequencies)
            probability = self.schedule.broadcast_probability(span.epoch)
            if rng.random() < probability:
                return broadcast(frequency, self._identity_message(special=False))
            return listen(frequency)

        # Critical and report epochs: half the rounds are special.
        if rng.random() < self.config.special_round_probability:
            self._this_round_special = True
            frequency = self._special_frequency()
            if rng.random() < 0.5:
                return broadcast(frequency, self._identity_message(special=True))
            return listen(frequency)

        frequency = draw_one_to(rng, prefix)
        probability = self.schedule.broadcast_probability(span.epoch)
        if rng.random() < probability:
            return broadcast(frequency, self._identity_message(special=False))
        return listen(frequency)

    def _contender_reception(self, message) -> None:
        if isinstance(message, ContenderMessage):
            # Optimistic portion: any contender message downgrades, timestamps
            # ignored.  Fallback portion: timestamps decide (modified Trapdoor).
            if self.in_fallback:
                if message.timestamp > self._my_timestamp():
                    self._state = Role.PASSIVE
            else:
                self._state = Role.SAMARITAN
                self._downgrade_round = self.context.local_round
            return
        if isinstance(message, SamaritanMessage):
            self._maybe_become_leader(message)

    def _samaritan_reception(self, message) -> None:
        if isinstance(message, SamaritanMessage):
            # A samaritan hearing another samaritan is knocked out.
            self._state = Role.PASSIVE
            return
        if isinstance(message, ContenderMessage):
            self._maybe_record_success(message)

    def _maybe_record_success(self, message: ContenderMessage) -> None:
        span = self._epoch_span()
        if span is None or span.epoch != self.schedule.critical_epoch:
            return
        if message.special or self._this_round_special:
            return
        if message.timestamp.rounds_active != self.context.local_round:
            # The contender was not activated in the same round as this samaritan.
            return
        self._ledger.ensure_epoch(span.super_epoch, span.epoch)
        self._ledger.record(message.timestamp.uid)

    def _maybe_become_leader(self, message: SamaritanMessage) -> None:
        count = message.reports.get(self.context.uid, 0)
        if count <= 0:
            return
        span = self._epoch_span()
        if span is None:
            return
        threshold = self.schedule.success_threshold(span.super_epoch)
        if count >= threshold:
            self._become_leader(via_fallback=False)

    # -- fallback portion ----------------------------------------------------------

    def _fallback_action(self, local_round: int) -> RadioAction:
        rng = self.context.rng
        fallback = self.schedule.fallback_position_of_round(local_round)
        assert fallback is not None  # in_fallback is implied by the caller

        if self._state is Role.CONTENDER and fallback.completed:
            self._become_leader(via_fallback=True)
            return self._leader_action()

        if rng.random() < 0.5:
            # A special Good Samaritan round.
            self._this_round_special = True
            frequency = self._special_frequency()
            if self._state is Role.CONTENDER and rng.random() < 0.5:
                return broadcast(frequency, self._identity_message(special=True))
            if self._state is Role.SAMARITAN and rng.random() < 0.5:
                return broadcast(frequency, self._identity_message(special=True))
            return listen(frequency)

        # A modified Trapdoor round: uniform frequency over the whole band,
        # broadcast with the fallback epoch's probability (contenders only).
        frequency = draw_one_to(rng, self._frequencies)
        if self._state is Role.CONTENDER:
            probability = self.schedule.fallback_broadcast_probability(fallback.epoch)
            if rng.random() < probability:
                return broadcast(frequency, self._identity_message(special=False))
        return listen(frequency)

    # -- leader / synchronized ---------------------------------------------------

    def _leader_action(self) -> RadioAction:
        rng = self.context.rng
        frequency = self._special_frequency()
        if rng.random() < self.config.leader_broadcast_probability:
            output = self.current_output()
            assert output is not None
            return broadcast(frequency, LeaderMessage(leader_uid=self.context.uid, round_number=output))
        return listen(frequency)

    def _monitoring_frequency(self) -> Frequency:
        """Where passive / synchronized nodes listen for leader messages."""
        rng = self.context.rng
        if rng.random() < 0.5:
            return self._special_frequency()
        return draw_one_to(rng, self._frequencies)

    def _become_leader(self, via_fallback: bool) -> None:
        self._state = Role.LEADER
        self._leader_via_fallback = via_fallback
        self.adopt_round_number(self.context.local_round)

    def _adopt_from_leader(self, message: LeaderMessage) -> None:
        if self._state is Role.LEADER:
            return
        self._state = Role.SYNCHRONIZED
        self.adopt_round_number(message.round_number)

    # -- helpers --------------------------------------------------------------------

    def _my_timestamp(self) -> Timestamp:
        return Timestamp(rounds_active=self.context.local_round, uid=self.context.uid)

    def _epoch_span(self) -> EpochSpan | None:
        """The epoch span of the current local round, or ``None`` in the fallback.

        The schedule is asked again only when ``local_round`` falls outside
        the cached ``[first, last]``: once per epoch the node enters, and once
        for the whole fallback.  The range is checked on every read, so
        ``local_round`` may be set anywhere, backwards included.
        """
        local_round = self.context.local_round
        if self._span_first <= local_round <= self._span_last:
            return self._span
        span = self.schedule.epoch_span(local_round)
        if span is None:
            self._span_first, self._span_last = self.schedule.optimistic_rounds + 1, math.inf
        else:
            self._span_first, self._span_last = span.first, span.last
        self._span = span
        return span

    def _identity_message(self, special: bool):
        span = self._epoch_span()
        epoch = span.epoch if span is not None else 0
        if self._state is Role.SAMARITAN:
            return SamaritanMessage(
                timestamp=self._my_timestamp(),
                reports=self._ledger.report(),
                special=special,
            )
        return ContenderMessage(timestamp=self._my_timestamp(), special=special, epoch=epoch)

    def _special_frequency(self) -> Frequency:
        """Draw a frequency from the special-round distribution.

        Choose ``d`` uniformly from ``[1 .. lg F]`` and then a frequency
        uniformly from ``[1 .. 2^d]`` (clamped to the band).
        """
        rng = self.context.rng
        d = draw_one_to(rng, self._log_f)
        return draw_one_to(rng, self._prefix_widths[d - 1])
