"""Unit tests for :class:`repro.engine.node.NodeRuntime`.

The per-round state transitions live in the simulator's round loop, so the
round-driving checks run one node through :func:`repro.engine.simulator.simulate`.
"""

from __future__ import annotations

import random

import pytest

from repro.adversary.activation import ExplicitActivation
from repro.engine.node import NodeRuntime
from repro.engine.simulator import SimulationConfig, simulate
from repro.exceptions import SimulationError
from repro.protocols.base import ProtocolContext, SynchronizationProtocol
from repro.radio.actions import RadioAction, listen
from repro.radio.messages import Message
from repro.types import Role, SyncOutput


class ScriptedProtocol(SynchronizationProtocol):
    """A minimal protocol that listens forever and outputs after a set round."""

    def __init__(self, context: ProtocolContext, sync_after: int = 3) -> None:
        super().__init__(context)
        self.sync_after = sync_after
        self.activated = False
        self.receptions: list[Message] = []
        self.action_rounds: list[int] = []

    def on_activate(self) -> None:
        self.activated = True

    def choose_action(self) -> RadioAction:
        self.action_rounds.append(self.context.local_round)
        return listen(1)

    def on_reception(self, message: Message) -> None:
        self.receptions.append(message)

    def current_output(self) -> SyncOutput:
        if self.context.local_round >= self.sync_after:
            return 100 + self.context.local_round
        return None


def make_runtime(params, sync_after=3) -> NodeRuntime:
    runtime = NodeRuntime(node_id=0, params=params, rng=random.Random(1))
    runtime.activate(global_round=5, factory=lambda ctx: ScriptedProtocol(ctx, sync_after))
    return runtime


class TestLifecycle:
    def test_inactive_runtime_raises_on_access(self, params):
        runtime = NodeRuntime(node_id=0, params=params, rng=random.Random(1))
        assert not runtime.active
        assert runtime.role is Role.PASSIVE
        assert runtime.local_round == 0
        with pytest.raises(SimulationError):
            _ = runtime.protocol
        with pytest.raises(SimulationError):
            _ = runtime.context

    def test_activation_draws_uid_and_calls_hook(self, params):
        runtime = make_runtime(params)
        assert runtime.active
        assert runtime.activation_round == 5
        assert runtime.uid >= 1
        assert runtime.protocol.activated  # type: ignore[attr-defined]
        assert runtime.local_round == 1

    def test_double_activation_rejected(self, params):
        runtime = make_runtime(params)
        with pytest.raises(SimulationError):
            runtime.activate(6, lambda ctx: ScriptedProtocol(ctx))


class TestRoundDriving:
    """One scripted node, activated in global round 5, driven for ``rounds``."""

    def drive(self, params, rounds, sync_after=3):
        protocols: list[ScriptedProtocol] = []

        def factory(context: ProtocolContext) -> ScriptedProtocol:
            protocols.append(ScriptedProtocol(context, sync_after))
            return protocols[-1]

        result = simulate(
            SimulationConfig(
                params=params,
                protocol_factory=factory,
                activation=ExplicitActivation(rounds=[5]),
                max_rounds=4 + rounds,
                stop_when_synchronized=False,
            )
        )
        [protocol] = protocols
        return result, protocol

    def test_local_round_advances_only_after_first_round(self, params):
        _, protocol = self.drive(params, rounds=3)
        assert protocol.action_rounds == [1, 2, 3]
        # A lone listener hears only silence, so it is never handed a reception.
        assert protocol.receptions == []

    def test_outputs_and_sync_latency_recorded(self, params):
        result, _ = self.drive(params, rounds=4, sync_after=3)
        assert result.trace is not None
        assert [record.outputs[0] for record in result.trace.records[4:]] == [None, None, 103, 104]
        assert result.synchronized
        assert result.metrics.sync_latencies == {0: 3}

    def test_unsynced_node_reports_no_latency(self, params):
        result, _ = self.drive(params, rounds=5, sync_after=100)
        assert not result.synchronized
        assert result.metrics.sync_latencies == {}
