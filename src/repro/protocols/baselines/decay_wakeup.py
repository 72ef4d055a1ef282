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

from repro.protocols.base import BoundProtocolFactory, ProtocolContext, draw_one_to
from repro.protocols.baselines.base import ContentionBaseline
from repro.radio.actions import RadioAction, broadcast, listen


class DecayWakeupProtocol(ContentionBaseline):
    """Cycle broadcast probabilities ``1/2, 1/4, …, 1/N`` on random frequencies.

    Parameters
    ----------
    context:
        The node's protocol context.
    victory_rounds:
        Contention horizon (see :class:`~repro.protocols.baselines.base.ContentionBaseline`).
    """

    def __init__(self, context: ProtocolContext, victory_rounds: int | None = None) -> None:
        super().__init__(context, victory_rounds=victory_rounds)
        self._cycle_length = context.params.log_participants

    @classmethod
    def factory(cls, victory_rounds: int | None = None):
        """A protocol factory for the decay baseline."""

        return BoundProtocolFactory(cls, (victory_rounds,))

    def current_probability(self) -> float:
        """The decay probability for the node's current local round."""
        phase = (self.context.local_round - 1) % self._cycle_length
        return 0.5 ** (phase + 1)

    def contender_action(self) -> RadioAction:
        rng = self.context.rng
        frequency = draw_one_to(rng, self.context.params.frequencies)
        if rng.random() < self.current_probability():
            return broadcast(frequency, self.identity_message())
        return listen(frequency)
