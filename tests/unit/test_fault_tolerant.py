"""Unit tests for the crash-tolerant Trapdoor variant."""

from __future__ import annotations

import pytest

from repro.exceptions import ConfigurationError
from repro.protocols.fault_tolerant import FaultToleranceConfig, FaultTolerantTrapdoorProtocol
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


class TestPendingNumbering:
    """The first numbering a node hears is kept as (announced number − local
    round at receipt) until the node commits to it or becomes leader."""

    def test_leader_with_no_numbering_heard_counts_its_local_rounds(self, make_context):
        context = make_context(local_round=1)
        protocol = FaultTolerantTrapdoorProtocol(context)
        context.local_round = protocol.schedule.total_rounds + 1
        protocol.choose_action()
        assert protocol.role is Role.LEADER
        assert protocol.current_output() == context.local_round
        context.local_round += 9
        assert protocol.current_output() == context.local_round

    def test_commit_keeps_the_first_numbering_heard(self, make_context):
        context = make_context(local_round=5)
        protocol = FaultTolerantTrapdoorProtocol(context, FaultToleranceConfig(commit_threshold=2))
        protocol.on_reception(LeaderMessage(leader_uid=1, round_number=30))
        context.local_round = 7
        protocol.on_reception(LeaderMessage(leader_uid=2, round_number=99))
        assert protocol.role is Role.SYNCHRONIZED
        assert protocol.current_output() == 32

    def test_committed_node_ignores_later_numberings(self, make_context):
        context = make_context(local_round=5)
        protocol = FaultTolerantTrapdoorProtocol(context, FaultToleranceConfig(commit_threshold=1))
        protocol.on_reception(LeaderMessage(leader_uid=1, round_number=30))
        assert protocol.current_output() == 30
        context.local_round = 9
        protocol.on_reception(LeaderMessage(leader_uid=2, round_number=500))
        assert protocol.current_output() == 34

    def test_leader_ignores_other_leaders(self, make_context):
        context = make_context(local_round=1)
        protocol = FaultTolerantTrapdoorProtocol(context, FaultToleranceConfig(commit_threshold=1))
        context.local_round = protocol.schedule.total_rounds + 1
        protocol.choose_action()
        protocol.on_reception(LeaderMessage(leader_uid=2, round_number=500))
        assert protocol.role is Role.LEADER
        assert protocol.current_output() == context.local_round


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

