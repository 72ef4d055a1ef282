"""Unit tests for the crash-tolerant Trapdoor variant and the crash injector."""

from __future__ import annotations

import pytest

from repro.exceptions import ConfigurationError
from repro.protocols.fault_tolerant import (
    CrashSchedule,
    FaultToleranceConfig,
    FaultTolerantTrapdoorProtocol,
    MutedProtocol,
    crashable,
)
from repro.protocols.trapdoor.protocol import TrapdoorProtocol
from repro.radio.messages import ContenderMessage, LeaderMessage
from repro.timestamps import Timestamp
from repro.types import Role


class TestConfig:
    def test_defaults_validate(self):
        FaultToleranceConfig()

    def test_rejects_bad_values(self):
        with pytest.raises(ConfigurationError):
            FaultToleranceConfig(silence_timeout_constant=0)
        with pytest.raises(ConfigurationError):
            FaultToleranceConfig(commit_threshold=0)
        with pytest.raises(ConfigurationError):
            FaultToleranceConfig(assist_probability=1.5)

    def test_silence_timeout_scales_with_parameters(self, make_context, large_params):
        protocol_small = FaultTolerantTrapdoorProtocol(make_context())
        protocol_large = FaultTolerantTrapdoorProtocol(make_context(model=large_params.with_budget(10)))
        config = FaultToleranceConfig()
        assert config.silence_timeout(protocol_large.schedule) > config.silence_timeout(
            protocol_small.schedule
        )


class TestDelayedCommitment:
    def test_first_leader_message_does_not_commit(self, make_context):
        protocol = FaultTolerantTrapdoorProtocol(
            make_context(), FaultToleranceConfig(commit_threshold=2)
        )
        protocol.on_reception(LeaderMessage(leader_uid=1, round_number=30))
        assert protocol.current_output() is None
        assert protocol.role is Role.KNOCKED_OUT

    def test_commit_after_threshold_messages(self, make_context):
        context = make_context(local_round=5)
        protocol = FaultTolerantTrapdoorProtocol(context, FaultToleranceConfig(commit_threshold=2))
        protocol.on_reception(LeaderMessage(leader_uid=1, round_number=30))
        context.local_round = 7
        protocol.on_reception(LeaderMessage(leader_uid=1, round_number=32))
        assert protocol.role is Role.SYNCHRONIZED
        # The numbering advanced two rounds between the messages.
        assert protocol.current_output() == 32

    def test_committed_node_assists(self, make_context):
        context = make_context(local_round=5)
        protocol = FaultTolerantTrapdoorProtocol(
            context, FaultToleranceConfig(commit_threshold=1, assist_probability=1.0)
        )
        protocol.on_reception(LeaderMessage(leader_uid=1, round_number=30))
        action = protocol.choose_action()
        assert action.is_broadcast
        assert isinstance(action.message, LeaderMessage)
        assert action.message.round_number == protocol.current_output()


class TestRestart:
    def test_knocked_out_node_restarts_after_silence(self, make_context):
        context = make_context(uid=2, local_round=3)
        protocol = FaultTolerantTrapdoorProtocol(context)
        protocol.on_reception(ContenderMessage(timestamp=Timestamp(100, 9)))
        assert protocol.role is Role.KNOCKED_OUT
        timeout = protocol.config.silence_timeout(protocol.schedule)
        context.local_round = 3 + timeout + 2
        protocol.choose_action()
        assert protocol.role is Role.CONTENDER
        assert protocol.restart_count == 1

    def test_no_restart_while_leader_is_heard(self, make_context):
        context = make_context(uid=2, local_round=3)
        protocol = FaultTolerantTrapdoorProtocol(
            context, FaultToleranceConfig(commit_threshold=5)
        )
        protocol.on_reception(ContenderMessage(timestamp=Timestamp(100, 9)))
        timeout = protocol.config.silence_timeout(protocol.schedule)
        # Keep hearing the leader just often enough.
        for step in range(3):
            context.local_round += timeout // 2
            protocol.on_reception(LeaderMessage(leader_uid=1, round_number=10 + step))
            protocol.choose_action()
        assert protocol.restart_count == 0

    def test_restarted_leader_preserves_learned_numbering(self, make_context):
        context = make_context(uid=2, local_round=3)
        config = FaultToleranceConfig(commit_threshold=2)
        protocol = FaultTolerantTrapdoorProtocol(context, config)
        # Learn the numbering once (not enough to commit), then lose the leader.
        protocol.on_reception(LeaderMessage(leader_uid=1, round_number=50))
        timeout = protocol.config.silence_timeout(protocol.schedule)
        context.local_round = 3 + timeout + 2
        protocol.choose_action()  # restart
        assert protocol.role is Role.CONTENDER
        # Survive a full schedule to become leader; the old numbering must carry over.
        context.local_round = context.local_round + protocol.schedule.total_rounds + 1
        protocol.choose_action()
        assert protocol.role is Role.LEADER
        expected = 50 + (context.local_round - 3)
        assert protocol.current_output() == expected


class TestCrashInjection:
    def test_muted_protocol_stops_broadcasting(self, make_context):
        context = make_context()
        inner = TrapdoorProtocol(context)
        muted = MutedProtocol(inner, mute_after=5)
        context.local_round = 6
        assert muted.muted
        assert all(muted.choose_action().is_listen for _ in range(50))

    def test_muted_protocol_passes_through_before_crash(self, make_context):
        context = make_context()
        inner = TrapdoorProtocol(context)
        muted = MutedProtocol(inner, mute_after=100)
        assert not muted.muted
        assert muted.role is inner.role

    def test_muted_protocol_ignores_receptions_after_crash(self, make_context):
        context = make_context()
        muted = MutedProtocol(TrapdoorProtocol(context), mute_after=1)
        context.local_round = 5
        muted.on_reception(LeaderMessage(leader_uid=1, round_number=9))
        assert muted.current_output() is None

    def test_mute_after_must_be_positive(self, make_context):
        with pytest.raises(ConfigurationError):
            MutedProtocol(TrapdoorProtocol(make_context()), mute_after=0)

    def test_crash_schedule_lookup(self):
        schedule = CrashSchedule(crash_rounds={0: 10})
        assert schedule.crash_round_for(0) == 10
        assert schedule.crash_round_for(1) is None

    def test_crashable_factory_wraps_by_activation_order(self, make_context):
        factory = crashable(TrapdoorProtocol.factory(), CrashSchedule(crash_rounds={1: 7}))
        first = factory(make_context(uid=1))
        second = factory(make_context(uid=2))
        third = factory(make_context(uid=3))
        assert isinstance(first, TrapdoorProtocol)
        assert isinstance(second, MutedProtocol) and second.mute_after == 7
        assert isinstance(third, TrapdoorProtocol)
