"""Deterministic round-robin sweep baseline.

A deterministic strawman: a contender broadcasts whenever
``local_round ≡ uid (mod slots)`` (a crude uid-based TDMA slotting) and
sweeps its frequency deterministically through the band.  Determinism removes
collisions only if uids happen to fall in distinct slot classes, and a sweep
is trivially predictable — a sweep jammer aligned with it prevents all
communication.  Its redeeming quality is simplicity; its failure modes
motivate the randomized structure of the paper's protocols.
"""

from __future__ import annotations

from repro.exceptions import ConfigurationError
from repro.protocols.base import BoundProtocolFactory, ProtocolContext
from repro.protocols.contention import ContentionProtocol


class RoundRobinSweepProtocol(ContentionProtocol):
    """Deterministic uid-slotted broadcasts on a sweeping frequency.

    Parameters
    ----------
    context:
        The node's protocol context.
    slots:
        The slotting modulus; a node broadcasts once every ``slots`` rounds.
    victory_rounds:
        Contention horizon (see :class:`~repro.protocols.contention.ContentionProtocol`).
    """

    def __init__(
        self,
        context: ProtocolContext,
        slots: int = 8,
        victory_rounds: int | None = None,
    ) -> None:
        super().__init__(context, victory_rounds=victory_rounds)
        if slots < 1:
            raise ConfigurationError(f"slots must be positive, got {slots}")
        self.slots = slots

    @classmethod
    def factory(cls, slots: int = 8, victory_rounds: int | None = None):
        """A protocol factory for the round-robin baseline."""

        return BoundProtocolFactory(cls, (slots, victory_rounds))

    def my_slot(self) -> int:
        """The slot class this node's uid falls in."""
        return self.context.uid % self.slots

    def contends(self, local_round: int) -> bool:
        # Slotted, not random: a contender draws no coin.
        return local_round % self.slots == self.my_slot()

    def frequency(self) -> int:
        """The deterministic sweep position for the node's current round.

        The leader keeps the default rule, a random frequency in the band.
        """
        frequencies = self.context.params.frequencies
        return (self.context.local_round + self.context.uid) % frequencies + 1
