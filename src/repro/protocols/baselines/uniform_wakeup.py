"""Fixed-probability wake-up baseline.

The simplest randomized contention strategy from the wake-up literature (§4):
every round, broadcast with a *fixed* probability ``p`` on a uniformly random
frequency.  Without the paper's epoch-doubling structure the choice of ``p``
must be guessed against the unknown number of participants ``n``: if ``p`` is
too high relative to ``1/n`` the channel collides constantly; if it is too
low, progress is slow.  The ``baselines`` benchmark sweeps ``n`` to show this
mismatch, which is exactly the pathology the Trapdoor epochs remove.
"""

from __future__ import annotations

from repro.exceptions import ConfigurationError
from repro.protocols.base import BoundProtocolFactory, ProtocolContext
from repro.protocols.contention import ContentionProtocol


class UniformWakeupProtocol(ContentionProtocol):
    """Contend with a fixed broadcast probability on a random frequency.

    Parameters
    ----------
    context:
        The node's protocol context.
    broadcast_probability:
        The fixed per-round broadcast probability ``p``.
    victory_rounds:
        Contention horizon (see :class:`~repro.protocols.contention.ContentionProtocol`).
    """

    def __init__(
        self,
        context: ProtocolContext,
        broadcast_probability: float = 0.1,
        victory_rounds: int | None = None,
    ) -> None:
        super().__init__(context, victory_rounds=victory_rounds)
        if not 0.0 < broadcast_probability <= 1.0:
            raise ConfigurationError(
                f"broadcast_probability must be in (0, 1], got {broadcast_probability}"
            )
        self.broadcast_probability = broadcast_probability

    @classmethod
    def factory(cls, broadcast_probability: float = 0.1, victory_rounds: int | None = None):
        """A protocol factory with the given fixed broadcast probability."""

        return BoundProtocolFactory(cls, (broadcast_probability, victory_rounds))

    def contender_probability(self, local_round: int) -> float:
        return self.broadcast_probability
