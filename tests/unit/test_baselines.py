"""Unit tests for the baseline protocols."""

from __future__ import annotations

import pytest

from repro.exceptions import ConfigurationError
from repro.protocols.baselines.decay_wakeup import DecayWakeupProtocol
from repro.protocols.baselines.round_robin import RoundRobinSweepProtocol
from repro.protocols.baselines.single_channel import SingleChannelAlohaProtocol
from repro.protocols.baselines.uniform_wakeup import UniformWakeupProtocol
from repro.protocols.contention import ContentionProtocol, default_victory_rounds
from repro.radio.messages import ContenderMessage, LeaderMessage
from repro.timestamps import Timestamp
from repro.types import Role


class TestDefaultVictoryRounds:
    def test_grows_with_disruption_budget(self, make_context, params, large_params):
        low = default_victory_rounds(make_context())
        high = default_victory_rounds(make_context(model=large_params.with_budget(14)))
        assert high > low > 0


class TestSharedSkeleton:
    def test_knockout_by_larger_timestamp(self, make_context):
        protocol = UniformWakeupProtocol(make_context(uid=3, local_round=2))
        protocol.on_reception(ContenderMessage(timestamp=Timestamp(50, 1)))
        assert protocol.role is Role.KNOCKED_OUT
        assert all(protocol.choose_action().is_listen for _ in range(20))

    def test_no_knockout_by_smaller_timestamp(self, make_context):
        protocol = UniformWakeupProtocol(make_context(uid=3, local_round=20))
        protocol.on_reception(ContenderMessage(timestamp=Timestamp(1, 1)))
        assert protocol.role is Role.CONTENDER

    def test_survivor_becomes_leader_after_victory_rounds(self, make_context):
        context = make_context()
        protocol = UniformWakeupProtocol(context, victory_rounds=5)
        context.local_round = 6
        protocol.choose_action()
        assert protocol.role is Role.LEADER
        assert protocol.current_output() == 6

    def test_leader_broadcasts_leader_messages(self, make_context):
        context = make_context()
        protocol = UniformWakeupProtocol(context, victory_rounds=1)
        context.local_round = 2
        messages = [
            action.message
            for action in (protocol.choose_action() for _ in range(200))
            if action.is_broadcast
        ]
        assert messages and all(isinstance(m, LeaderMessage) for m in messages)

    def test_adoption_from_leader_message(self, make_context):
        context = make_context(local_round=3)
        protocol = UniformWakeupProtocol(context)
        protocol.on_reception(LeaderMessage(leader_uid=2, round_number=40))
        assert protocol.role is Role.SYNCHRONIZED
        assert protocol.current_output() == 40

    def test_invalid_parameters_rejected(self, make_context):
        with pytest.raises(ConfigurationError):
            UniformWakeupProtocol(make_context(), victory_rounds=0)
        with pytest.raises(ConfigurationError):
            UniformWakeupProtocol(make_context(), broadcast_probability=0)

    def test_member_without_contender_probability_fails_loudly(self, make_context):
        class Undeclared(ContentionProtocol):
            pass

        member = Undeclared(make_context())
        with pytest.raises(NotImplementedError, match="Undeclared declares no contender_probability"):
            member.choose_action()


class TestUniformWakeup:
    def test_broadcast_rate_matches_probability(self, make_context):
        protocol = UniformWakeupProtocol(make_context(), broadcast_probability=0.5, victory_rounds=10_000)
        rate = sum(protocol.choose_action().is_broadcast for _ in range(600)) / 600
        assert 0.35 < rate < 0.65

    def test_uses_whole_band(self, make_context, params):
        protocol = UniformWakeupProtocol(make_context(), victory_rounds=10_000)
        frequencies = {protocol.choose_action().frequency for _ in range(400)}
        assert min(frequencies) >= 1 and max(frequencies) <= params.frequencies
        assert len(frequencies) > params.frequencies // 2


class TestDecayWakeup:
    def test_probability_cycles_through_decay_ladder(self, make_context):
        context = make_context()
        protocol = DecayWakeupProtocol(context)
        assert protocol.contender_probability(1) == pytest.approx(0.5)
        assert protocol.contender_probability(2) == pytest.approx(0.25)
        assert protocol.contender_probability(1 + context.params.log_participants) == (
            pytest.approx(0.5)
        )

    def test_factory_builds_instances(self, make_context):
        assert isinstance(DecayWakeupProtocol.factory()(make_context()), DecayWakeupProtocol)


class TestSingleChannel:
    def test_everything_happens_on_one_channel(self, make_context):
        protocol = SingleChannelAlohaProtocol(make_context(), channel=2)
        assert all(protocol.choose_action().frequency == 2 for _ in range(100))
        assert protocol.frequency() == protocol.leader_frequency() == 2

    def test_channel_must_be_in_band(self, make_context):
        with pytest.raises(ConfigurationError):
            SingleChannelAlohaProtocol(make_context(), channel=99)

    def test_default_horizon_matches_trapdoor_schedule(self, make_context):
        protocol = SingleChannelAlohaProtocol(make_context())
        assert protocol.victory_rounds == protocol._schedule.total_rounds


class TestRoundRobin:
    def test_deterministic_frequency_sweep(self, make_context, params):
        context = make_context(uid=6)
        protocol = RoundRobinSweepProtocol(context)
        context.local_round = 1
        first = protocol.frequency()
        context.local_round = 2
        second = protocol.frequency()
        assert first != second
        assert 1 <= first <= params.frequencies and 1 <= second <= params.frequencies

    def test_broadcasts_only_in_own_slot(self, make_context):
        context = make_context(uid=6)
        protocol = RoundRobinSweepProtocol(context, slots=4, victory_rounds=10_000)
        slot = protocol.my_slot()
        state = context.rng.getstate()
        for local_round in range(1, 13):
            context.local_round = local_round
            action = protocol.choose_action()
            assert action.is_broadcast == (local_round % 4 == slot)
            assert action.frequency == protocol.frequency()
        # Slotted contention is deterministic: it draws nothing.
        assert context.rng.getstate() == state

    def test_rejects_invalid_slots(self, make_context):
        with pytest.raises(ConfigurationError):
            RoundRobinSweepProtocol(make_context(), slots=0)
