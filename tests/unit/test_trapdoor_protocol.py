"""Unit tests for the Trapdoor Protocol state machine."""

from __future__ import annotations


from repro.protocols.trapdoor.protocol import TrapdoorProtocol
from repro.radio.messages import ContenderMessage, LeaderMessage
from repro.timestamps import Timestamp
from repro.types import Role


class TestContenderBehaviour:
    def test_starts_as_contender_with_bottom_output(self, make_context):
        protocol = TrapdoorProtocol(make_context())
        assert protocol.role is Role.CONTENDER
        assert protocol.current_output() is None
        assert protocol.state_name == "contender"

    def test_actions_stay_inside_effective_band(self, make_context, params):
        protocol = TrapdoorProtocol(make_context())
        width = protocol.schedule.effective_frequencies
        for _ in range(200):
            action = protocol.choose_action()
            assert 1 <= action.frequency <= width

    def test_contender_messages_carry_current_timestamp(self, make_context):
        context = make_context(uid=42, local_round=1)
        protocol = TrapdoorProtocol(context)
        context.local_round = 9
        broadcasts = []
        for _ in range(500):
            action = protocol.choose_action()
            if action.is_broadcast:
                broadcasts.append(action.message)
        assert broadcasts, "expected at least one broadcast in 500 tries"
        assert all(m.timestamp == Timestamp(9, 42) for m in broadcasts)

    def test_broadcast_rate_tracks_epoch_probability(self, make_context):
        context = make_context()
        protocol = TrapdoorProtocol(context)
        context.local_round = protocol.schedule.total_rounds - 1  # final epoch, p = 1/2
        broadcasts = sum(protocol.choose_action().is_broadcast for _ in range(600))
        assert 0.35 < broadcasts / 600 < 0.65


class TestKnockout:
    def test_larger_timestamp_knocks_out(self, make_context):
        context = make_context(uid=10, local_round=3)
        protocol = TrapdoorProtocol(context)
        protocol.on_reception(ContenderMessage(timestamp=Timestamp(50, 99)))
        assert protocol.role is Role.KNOCKED_OUT
        assert protocol.knocked_out_by == Timestamp(50, 99)

    def test_smaller_timestamp_does_not_knock_out(self, make_context):
        context = make_context(uid=10, local_round=30)
        protocol = TrapdoorProtocol(context)
        protocol.on_reception(ContenderMessage(timestamp=Timestamp(2, 99)))
        assert protocol.role is Role.CONTENDER

    def test_uid_breaks_timestamp_ties(self, make_context):
        context = make_context(uid=10, local_round=5)
        protocol = TrapdoorProtocol(context)
        protocol.on_reception(ContenderMessage(timestamp=Timestamp(5, 11)))
        assert protocol.role is Role.KNOCKED_OUT

    def test_knocked_out_node_only_listens(self, make_context):
        protocol = TrapdoorProtocol(make_context())
        protocol.on_reception(ContenderMessage(timestamp=Timestamp(99, 99)))
        assert all(protocol.choose_action().is_listen for _ in range(100))


class TestLeadership:
    def test_survivor_becomes_leader_after_all_epochs(self, make_context):
        context = make_context(local_round=1)
        protocol = TrapdoorProtocol(context)
        context.local_round = protocol.schedule.total_rounds + 1
        protocol.choose_action()
        assert protocol.role is Role.LEADER
        assert protocol.current_output() == context.local_round

    def test_leader_output_increments_with_local_round(self, make_context):
        context = make_context()
        protocol = TrapdoorProtocol(context)
        context.local_round = protocol.schedule.total_rounds + 1
        protocol.choose_action()
        first = protocol.current_output()
        context.local_round += 5
        assert protocol.current_output() == first + 5

    def test_leader_broadcasts_numbering_messages(self, make_context):
        context = make_context()
        protocol = TrapdoorProtocol(context)
        context.local_round = protocol.schedule.total_rounds + 1
        messages = []
        for _ in range(300):
            action = protocol.choose_action()
            if action.is_broadcast:
                messages.append(action.message)
        assert messages
        assert all(isinstance(m, LeaderMessage) for m in messages)
        assert all(m.leader_uid == context.uid for m in messages)

    def test_leader_ignores_later_leader_messages(self, make_context):
        context = make_context()
        protocol = TrapdoorProtocol(context)
        context.local_round = protocol.schedule.total_rounds + 1
        protocol.choose_action()
        own_output = protocol.current_output()
        protocol.on_reception(LeaderMessage(leader_uid=1, round_number=9999))
        assert protocol.current_output() == own_output

    def test_knocked_out_contender_never_becomes_leader(self, make_context):
        context = make_context()
        protocol = TrapdoorProtocol(context)
        protocol.on_reception(ContenderMessage(timestamp=Timestamp(999, 999)))
        context.local_round = protocol.schedule.total_rounds + 10
        protocol.choose_action()
        assert protocol.role is Role.KNOCKED_OUT


class TestAdoption:
    def test_any_node_adopts_leader_numbering(self, make_context):
        context = make_context(local_round=4)
        protocol = TrapdoorProtocol(context)
        protocol.on_reception(LeaderMessage(leader_uid=77, round_number=500))
        assert protocol.role is Role.SYNCHRONIZED
        assert protocol.current_output() == 500
        context.local_round = 6
        assert protocol.current_output() == 502

    def test_knocked_out_node_adopts_leader_numbering(self, make_context):
        protocol = TrapdoorProtocol(make_context())
        protocol.on_reception(ContenderMessage(timestamp=Timestamp(999, 1)))
        protocol.on_reception(LeaderMessage(leader_uid=77, round_number=42))
        assert protocol.role is Role.SYNCHRONIZED
        assert protocol.current_output() == 42

    def test_synchronized_node_listens_by_default(self, make_context):
        protocol = TrapdoorProtocol(make_context())
        protocol.on_reception(LeaderMessage(leader_uid=77, round_number=42))
        assert all(protocol.choose_action().is_listen for _ in range(50))

    def test_synchronized_assist_extension_broadcasts(self, make_context):
        from repro.protocols.trapdoor.config import TrapdoorConfig

        protocol = TrapdoorProtocol(make_context(), TrapdoorConfig(synchronized_nodes_assist=True))
        protocol.on_reception(LeaderMessage(leader_uid=77, round_number=42))
        actions = [protocol.choose_action() for _ in range(300)]
        assert any(a.is_broadcast for a in actions)
        assert all(isinstance(a.message, LeaderMessage) for a in actions if a.is_broadcast)
