"""Deterministic realization of a :class:`~repro.faults.plan.FaultPlan`.

The :class:`FaultInjector` turns a declarative plan into concrete per-round
decisions for one execution: which nodes are Byzantine (drawn from the
trial's ``("fault", "byzantine")`` stream), what a Byzantine node transmits
each round (as a :class:`ForgingProtocol`), and which churn/corruption
events apply at each round start.

All randomness flows through the simulation's :class:`~repro.engine.rng.
RandomStreams` under ``("fault", ...)`` labels, so fault-free draws (node,
adversary, activation streams) are untouched and every fault decision is a
pure function of ``(master seed, plan)`` — the property the pooled/serial/
resume byte-identity guarantees rest on.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING

from repro.faults.plan import FaultPlan
from repro.params import ModelParameters
from repro.protocols.base import ProtocolContext, SynchronizationProtocol, draw_one_to
from repro.radio.actions import RadioAction, broadcast
from repro.radio.events import ReceptionOutcome
from repro.radio.messages import LeaderMessage
from repro.types import SyncOutput

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.rng import RandomStreams

#: Forged round numbers are drawn below this bound — large enough to be far
#: from any honest value, small enough to keep outputs readable in traces.
FORGED_ROUND_BOUND = 1 << 16


class FaultInjector:
    """Per-execution fault decisions derived from one plan and one seed.

    Parameters
    ----------
    plan:
        The declarative fault plan.
    streams:
        The execution's :class:`~repro.engine.rng.RandomStreams`.
    node_count:
        The activation schedule's total node population ``n``.  Byzantine
        membership is sampled from ``range(n)``; churn/corruption events
        naming nodes outside the population are ignored (documented —
        this keeps one plan sweepable across a ``node_counts`` axis).
    params:
        Model parameters (``F`` bounds forged frequencies, ``N`` forged uids).
    """

    def __init__(
        self,
        plan: FaultPlan,
        streams: "RandomStreams",
        node_count: int,
        params: ModelParameters,
    ) -> None:
        self._streams = streams
        self._params = params

        count = min(plan.byzantine_count, node_count)
        if count:
            rng = streams.stream("fault", "byzantine")
            self.byzantine_nodes: frozenset[int] = frozenset(
                rng.sample(range(node_count), count)
            )
        else:
            self.byzantine_nodes = frozenset()
        self.byzantine_start_round = plan.byzantine_start_round
        self._byzantine_rngs = {
            node_id: streams.stream("fault", "byzantine", node_id)
            for node_id in sorted(self.byzantine_nodes)
        }

        self._leaves: dict[int, tuple[int, ...]] = {}
        self._rejoins: dict[int, tuple[int, ...]] = {}
        for event in plan.churn:
            if event.node_id >= node_count:
                continue
            self._leaves.setdefault(event.leave_round, ())
            self._leaves[event.leave_round] += (event.node_id,)
            if event.rejoin_round is not None:
                self._rejoins.setdefault(event.rejoin_round, ())
                self._rejoins[event.rejoin_round] += (event.node_id,)
        self._corruptions: dict[int, tuple[int, ...]] = {}
        for event in plan.corruption:
            targets = tuple(n for n in event.node_ids if n < node_count)
            if not targets:
                continue
            self._corruptions.setdefault(event.round_index, ())
            self._corruptions[event.round_index] += targets

        self.last_fault_round = plan.last_fault_round()
        # Every round with a leave, a rejoin, a corruption, or the Byzantine
        # start: the only rounds on which the round loop consults the plan.
        event_rounds = {*self._leaves, *self._rejoins, *self._corruptions}
        if self.byzantine_nodes:
            event_rounds.add(self.byzantine_start_round)
        self.event_rounds = frozenset(event_rounds)

    # -- membership ------------------------------------------------------

    def byzantine_active(self, global_round: int) -> bool:
        """True once the Byzantine nodes (if any) have started forging."""
        return bool(self.byzantine_nodes) and global_round >= self.byzantine_start_round

    def byzantine_starts_at(self, global_round: int) -> bool:
        """True exactly at the round the Byzantine behaviour switches on."""
        return bool(self.byzantine_nodes) and global_round == self.byzantine_start_round

    # -- schedule queries (round starts) ---------------------------------

    def leaves_at(self, global_round: int) -> tuple[int, ...]:
        """Node ids scheduled to depart at the start of ``global_round``."""
        return self._leaves.get(global_round, ())

    def rejoins_at(self, global_round: int) -> tuple[int, ...]:
        """Node ids scheduled to rejoin at the start of ``global_round``."""
        return self._rejoins.get(global_round, ())

    def corruptions_at(self, global_round: int) -> tuple[int, ...]:
        """Node ids scheduled for state corruption at the start of ``global_round``."""
        return self._corruptions.get(global_round, ())

    # -- fault materialization -------------------------------------------

    def byzantine_action(self, node_id: int) -> RadioAction:
        """The forged transmission a Byzantine node makes this round.

        A fresh :class:`~repro.radio.messages.LeaderMessage` with a random
        (uid, round number) pair on a random frequency — the strongest forgery
        in this message vocabulary, since receivers adopt a leader's round
        number immediately.
        """
        rng = self._byzantine_rngs[node_id]
        frequency = draw_one_to(rng, self._params.frequencies)
        message = LeaderMessage(
            leader_uid=draw_one_to(rng, self._params.participant_bound),
            round_number=draw_one_to(rng, FORGED_ROUND_BOUND - 1),
        )
        return broadcast(frequency, message)

    def rejoin_stream(self, node_id: int, global_round: int) -> random.Random:
        """The private stream a rejoining node's fresh protocol runs on."""
        return self._streams.stream("fault", "rejoin", node_id, global_round)

    def corruption_stream(self, node_id: int, global_round: int) -> random.Random:
        """The per-(trial, node, round) stream a corrupted node restarts on."""
        return self._streams.stream("fault", "corrupt", node_id, global_round)


class ForgingProtocol(SynchronizationProtocol):
    """What a Byzantine node runs once it turns: it transmits
    :meth:`FaultInjector.byzantine_action` every round, ignores what it
    hears, outputs ⊥ and keeps the default CONTENDER role."""

    def __init__(self, context: ProtocolContext, injector: FaultInjector, node_id: int) -> None:
        super().__init__(context)
        self._injector = injector
        self._node_id = node_id

    def choose_action(self) -> RadioAction:
        return self._injector.byzantine_action(self._node_id)

    def on_reception(self, outcome: ReceptionOutcome) -> None:
        pass

    def current_output(self) -> SyncOutput:
        return None
