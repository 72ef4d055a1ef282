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

That state machine is the family skeleton of
:mod:`repro.protocols.contention`; the Trapdoor Protocol declares only its
schedule: the epoch's broadcast probability, the band ``F′``, the horizon
(every epoch) and the epoch index its contender messages carry.
"""

from __future__ import annotations

from repro.protocols.base import BoundProtocolFactory, ProtocolContext
from repro.protocols.contention import ContentionProtocol
from repro.protocols.trapdoor.config import TrapdoorConfig
from repro.protocols.trapdoor.epochs import TrapdoorSchedule


class TrapdoorProtocol(ContentionProtocol):
    """Per-node state machine of the Trapdoor Protocol.

    Parameters
    ----------
    context:
        The node's protocol context (provided by the engine).
    config:
        Protocol constants; defaults to the paper's structure.
    """

    def __init__(self, context: ProtocolContext, config: TrapdoorConfig | None = None) -> None:
        self.config = config or TrapdoorConfig()
        self.schedule = TrapdoorSchedule(context.params, self.config)
        super().__init__(
            context,
            victory_rounds=self.schedule.total_rounds,
            leader_broadcast_probability=self.config.leader_broadcast_probability,
        )
        self.band_width = self.schedule.effective_frequencies

    @classmethod
    def factory(cls, config: TrapdoorConfig | None = None):
        """A :data:`~repro.protocols.base.ProtocolFactory` building this protocol."""

        return BoundProtocolFactory(cls, (config,))

    def contender_probability(self, local_round: int) -> float:
        return self.schedule.broadcast_probability(local_round)

    def epoch(self, local_round: int) -> int:
        epoch = self.schedule.epoch_of_round(local_round)
        return epoch.index if epoch is not None else self.schedule.epoch_count
