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
where it is once per epoch it enters, fallback epochs included.  It keeps
what is constant within that epoch in its own fields (the epoch's span, the
super-epoch's prefix width, whether the epoch is regular, its broadcast
probability and, in the fallback, whether every fallback epoch is done) and
reads them in every other round.  Its per-round draws run
:func:`~repro.protocols.base.draw_one_to`'s loop inline, in the order the
protocol's rules give them.
"""

from __future__ import annotations

import math

from repro.protocols.base import (
    BoundProtocolFactory,
    ProtocolContext,
    SynchronizationProtocol,
    SynchronizedOutputMixin,
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
        self.config = config = config or GoodSamaritanConfig()
        self.schedule = schedule = GoodSamaritanSchedule(context.params, config)
        self._state = Role.CONTENDER
        self._ledger = SuccessLedger()
        self._this_round_special = False
        self._leader_via_fallback = False
        self._downgrade_round: int | None = None
        # Read every round: built once.  A draw from [1 .. w] reads
        # w.bit_length()-bit words (see draw_one_to), so each width keeps its
        # bit count, and the node keeps one listen action per frequency.
        self._rng = context.rng
        self._log_n = context.params.log_participants
        self._band = context.params.frequencies
        self._band_bits = self._band.bit_length()
        self._log_f = schedule.super_epoch_count
        self._log_f_bits = self._log_f.bit_length()
        self._prefix_widths = schedule.prefix_widths
        self._prefix_bits = tuple(width.bit_length() for width in self._prefix_widths)
        self._listens = tuple(listen(frequency) for frequency in range(1, self._band + 1))
        self._local_band_probability = config.local_band_probability
        self._special_round_probability = config.special_round_probability
        # The current epoch, valid for local rounds [first, last]; the empty
        # range makes the first read ask the schedule.  _enter_epoch fills
        # the rest: the span (None in the fallback), and what the epoch's
        # rounds draw with.
        self._span: EpochSpan | None = None
        self._span_first: float = 1
        self._span_last: float = 0
        self._epoch_in_fallback = False
        self._epoch_prefix = 1
        self._epoch_prefix_bits = 1
        self._epoch_regular = True
        self._epoch_probability = 0.0
        self._epoch_completed = False

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
        state = self._state
        rng = self._rng
        getrandbits = rng.getrandbits
        if state is Role.PASSIVE or state is Role.SYNCHRONIZED:
            # Listen for a leader: half the time on the special-round
            # distribution, half the time anywhere in the band.
            if rng.random() < 0.5:
                return self._listens[self._special_frequency() - 1]
            width, bits = self._band, self._band_bits
            value = getrandbits(bits)
            while value >= width:
                value = getrandbits(bits)
            return self._listens[value]
        if state is Role.LEADER:
            return self._leader_action()

        self._this_round_special = False
        local_round = self.context.local_round
        if not self._span_first <= local_round <= self._span_last:
            self._enter_epoch(local_round)
        if self._epoch_in_fallback:
            return self._fallback_action()
        if self._epoch_regular:
            # Regular epochs: half the time the super-epoch prefix, half the
            # time the whole band; broadcast with the epoch's probability.
            if rng.random() < self._local_band_probability:
                width, bits = self._epoch_prefix, self._epoch_prefix_bits
            else:
                width, bits = self._band, self._band_bits
        elif rng.random() < self._special_round_probability:
            # Critical and report epochs: half the rounds are special.
            self._this_round_special = True
            frequency = self._special_frequency()
            if rng.random() < 0.5:
                return broadcast(frequency, self._identity_message(special=True))
            return self._listens[frequency - 1]
        else:
            width, bits = self._epoch_prefix, self._epoch_prefix_bits
        value = getrandbits(bits)
        while value >= width:
            value = getrandbits(bits)
        if rng.random() < self._epoch_probability:
            return broadcast(value + 1, self._identity_message(special=False))
        return self._listens[value]

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

    def _fallback_action(self) -> RadioAction:
        rng = self._rng
        contender = self._state is Role.CONTENDER
        if contender and self._epoch_completed:
            self._become_leader(via_fallback=True)
            return self._leader_action()

        if rng.random() < 0.5:
            # A special Good Samaritan round: the node (a contender or a
            # samaritan, the only roles that get here) broadcasts with
            # probability 1/2.
            self._this_round_special = True
            frequency = self._special_frequency()
            if rng.random() < 0.5:
                return broadcast(frequency, self._identity_message(special=True))
            return self._listens[frequency - 1]

        # A modified Trapdoor round: uniform frequency over the whole band,
        # broadcast with the fallback epoch's probability (contenders only).
        getrandbits = rng.getrandbits
        width, bits = self._band, self._band_bits
        value = getrandbits(bits)
        while value >= width:
            value = getrandbits(bits)
        if contender and rng.random() < self._epoch_probability:
            return broadcast(value + 1, self._identity_message(special=False))
        return self._listens[value]

    # -- leader / synchronized ---------------------------------------------------

    def _leader_action(self) -> RadioAction:
        frequency = self._special_frequency()
        if self._rng.random() < self.config.leader_broadcast_probability:
            output = self.current_output()
            assert output is not None
            return broadcast(frequency, LeaderMessage(leader_uid=self.context.uid, round_number=output))
        return self._listens[frequency - 1]

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

        The range is checked on every read, so ``local_round`` may be set
        anywhere, backwards included.
        """
        local_round = self.context.local_round
        if not self._span_first <= local_round <= self._span_last:
            self._enter_epoch(local_round)
        return self._span

    def _enter_epoch(self, local_round: int) -> None:
        """Cache the constants of the epoch ``local_round`` falls in.

        Runs only when ``local_round`` leaves the cached ``[first, last]``:
        once per epoch the node enters.  An optimistic epoch asks the
        schedule for its :class:`EpochSpan`, a fallback epoch for its
        :class:`~repro.protocols.good_samaritan.schedule.FallbackPosition`;
        once every fallback epoch is done, the range runs to infinity.
        """
        schedule = self.schedule
        if local_round <= schedule.optimistic_rounds:
            span = schedule.epoch_span(local_round)
            assert span is not None
            index = span.super_epoch - 1
            self._span = span
            self._span_first, self._span_last = span.first, span.last
            self._epoch_in_fallback = False
            self._epoch_prefix = self._prefix_widths[index]
            self._epoch_prefix_bits = self._prefix_bits[index]
            self._epoch_regular = span.epoch <= self._log_n
            self._epoch_probability = schedule.broadcast_probability(span.epoch)
            return
        position = schedule.fallback_position_of_round(local_round)
        assert position is not None
        if position.completed:
            self._span_first, self._span_last = schedule.total_rounds + 1, math.inf
        else:
            first = local_round - position.round_in_epoch + 1
            self._span_first = first
            self._span_last = first + schedule.fallback_epoch_length - 1
        self._span = None
        self._epoch_in_fallback = True
        self._epoch_probability = schedule.fallback_broadcast_probability(position.epoch)
        self._epoch_completed = position.completed

    def _identity_message(self, special: bool):
        """This round's own message; ``choose_action`` has cached its epoch."""
        if self._state is Role.SAMARITAN:
            return SamaritanMessage(
                timestamp=self._my_timestamp(),
                reports=self._ledger.report(),
                special=special,
            )
        span = self._span
        epoch = span.epoch if span is not None else 0
        return ContenderMessage(timestamp=self._my_timestamp(), special=special, epoch=epoch)

    def _special_frequency(self) -> Frequency:
        """Draw a frequency from the special-round distribution.

        Choose ``d`` uniformly from ``[1 .. lg F]`` and then a frequency
        uniformly from ``[1 .. 2^d]`` (clamped to the band): two
        :func:`~repro.protocols.base.draw_one_to` draws, run inline.
        """
        getrandbits = self._rng.getrandbits
        count, bits = self._log_f, self._log_f_bits
        index = getrandbits(bits)
        while index >= count:
            index = getrandbits(bits)
        width, bits = self._prefix_widths[index], self._prefix_bits[index]
        value = getrandbits(bits)
        while value >= width:
            value = getrandbits(bits)
        return value + 1
