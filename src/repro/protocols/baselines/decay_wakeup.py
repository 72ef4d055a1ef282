"""Exponential-decay wake-up baseline.

A classical contention-resolution idea (decay-style backoff): cycle through
broadcast probabilities ``1/2, 1/4, 1/8, …, 1/N`` and restart the cycle.  At
some point in every cycle the probability is within a factor of two of the
ideal ``1/n``, so a successful uncontested broadcast happens reasonably soon —
but the cycle wastes a ``lg N`` factor compared to knowing ``n``, and nothing
in the strategy handles disrupted frequencies: all channels are used
uniformly regardless of ``t``.
"""

from __future__ import annotations

from repro.protocols.base import BoundProtocolFactory, ProtocolContext
from repro.protocols.contention import ContentionProtocol


class DecayWakeupProtocol(ContentionProtocol):
    """Cycle broadcast probabilities ``1/2, 1/4, …, 1/N`` on random frequencies.

    Parameters
    ----------
    context:
        The node's protocol context.
    victory_rounds:
        Contention horizon (see :class:`~repro.protocols.contention.ContentionProtocol`).
    """

    def __init__(self, context: ProtocolContext, victory_rounds: int | None = None) -> None:
        super().__init__(context, victory_rounds=victory_rounds)
        self._cycle_length = context.params.log_participants

    @classmethod
    def factory(cls, victory_rounds: int | None = None):
        """A protocol factory for the decay baseline."""

        return BoundProtocolFactory(cls, (victory_rounds,))

    def contender_probability(self, local_round: int) -> float:
        """The decay ladder ``1/2, 1/4, …, 1/N``, restarting every ``lg N`` rounds."""
        return 0.5 ** ((local_round - 1) % self._cycle_length + 1)
