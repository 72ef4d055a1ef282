"""Single-channel ALOHA baseline.

What happens if a protocol ignores the multi-frequency structure entirely and
runs a slotted-ALOHA style contention on frequency 1?  It uses the Trapdoor's
epoch-doubling broadcast probabilities (so the contention resolution itself is
sound), but because every message rides on one channel, an adversary with any
budget ``t ≥ 1`` that chooses to sit on that channel silences the protocol
forever.  The ``baselines`` benchmark runs it against both a random jammer
(sometimes survives) and the fixed-band jammer (never survives), illustrating
why frequency diversity is not optional in the disrupted model.
"""

from __future__ import annotations

from repro.protocols.base import BoundProtocolFactory, ProtocolContext
from repro.protocols.contention import ContentionProtocol
from repro.protocols.trapdoor.config import TrapdoorConfig
from repro.protocols.trapdoor.epochs import TrapdoorSchedule


class SingleChannelAlohaProtocol(ContentionProtocol):
    """Epoch-doubling contention confined to frequency 1.

    Parameters
    ----------
    context:
        The node's protocol context.
    channel:
        The single frequency everything runs on (default 1).
    victory_rounds:
        Contention horizon; defaults to the Trapdoor schedule's total length so
        the comparison against the Trapdoor protocol is apples-to-apples.
    """

    def __init__(
        self,
        context: ProtocolContext,
        channel: int = 1,
        victory_rounds: int | None = None,
    ) -> None:
        # Build the Trapdoor schedule just for its probability ladder/horizon.
        self._schedule = TrapdoorSchedule(context.params, TrapdoorConfig())
        super().__init__(
            context,
            victory_rounds=victory_rounds or self._schedule.total_rounds,
        )
        self.channel = context.params.band.validate(channel)

    @classmethod
    def factory(cls, channel: int = 1, victory_rounds: int | None = None):
        """A protocol factory for the single-channel baseline."""

        return BoundProtocolFactory(cls, (channel, victory_rounds))

    def contender_probability(self, local_round: int) -> float:
        return self._schedule.broadcast_probability(local_round)

    def frequency(self) -> int:
        return self.channel

    def leader_frequency(self) -> int:
        return self.channel
