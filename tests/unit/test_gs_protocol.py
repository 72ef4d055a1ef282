"""Unit tests for the Good Samaritan protocol state machine."""

from __future__ import annotations

from collections import Counter

from repro.engine.observers import TraceLevel
from repro.engine.simulator import SimulationConfig, simulate
from repro.experiments.workloads import crowded_cafe
from repro.params import ModelParameters
from repro.protocols.good_samaritan.protocol import GoodSamaritanProtocol
from repro.protocols.good_samaritan.schedule import GoodSamaritanSchedule
from repro.protocols.good_samaritan.reports import SuccessLedger
from repro.radio.messages import ContenderMessage, LeaderMessage, SamaritanMessage
from repro.timestamps import Timestamp
from repro.types import Role


class TestSuccessLedger:
    def test_counts_per_contender(self):
        ledger = SuccessLedger()
        ledger.ensure_epoch(1, 5)
        assert ledger.record(10) == 1
        assert ledger.record(10) == 2
        assert ledger.record(20) == 1
        assert ledger.count(10) == 2
        assert ledger.report() == {10: 2, 20: 1}
        assert ledger.best() == (10, 2)
        assert len(ledger) == 2 and bool(ledger)

    def test_new_epoch_resets_counts(self):
        ledger = SuccessLedger()
        ledger.ensure_epoch(1, 5)
        ledger.record(10)
        ledger.ensure_epoch(2, 5)
        assert ledger.count(10) == 0
        assert ledger.best() is None
        assert not ledger

    def test_same_epoch_does_not_reset(self):
        ledger = SuccessLedger()
        ledger.ensure_epoch(1, 5)
        ledger.record(10)
        ledger.ensure_epoch(1, 5)
        assert ledger.count(10) == 1


class TestRoleTransitions:
    def test_starts_as_contender(self, make_context):
        protocol = GoodSamaritanProtocol(make_context())
        assert protocol.role is Role.CONTENDER
        assert protocol.current_output() is None

    def test_contender_downgraded_by_any_contender_message(self, make_context):
        context = make_context(uid=100, local_round=50)
        protocol = GoodSamaritanProtocol(context)
        # Optimistic portion ignores timestamps: even a *smaller* timestamp downgrades.
        protocol.on_reception(ContenderMessage(timestamp=Timestamp(1, 1)))
        assert protocol.role is Role.SAMARITAN
        assert protocol.downgrade_round == 50

    def test_samaritan_knocked_out_by_samaritan_message(self, make_context):
        protocol = GoodSamaritanProtocol(make_context())
        protocol.on_reception(ContenderMessage(timestamp=Timestamp(1, 1)))
        protocol.on_reception(SamaritanMessage(timestamp=Timestamp(2, 2)))
        assert protocol.role is Role.PASSIVE

    def test_contender_not_downgraded_by_samaritan_message(self, make_context):
        protocol = GoodSamaritanProtocol(make_context())
        protocol.on_reception(SamaritanMessage(timestamp=Timestamp(2, 2)))
        assert protocol.role is Role.CONTENDER

    def test_everyone_adopts_leader_messages(self, make_context):
        context = make_context(local_round=3)
        protocol = GoodSamaritanProtocol(context)
        protocol.on_reception(LeaderMessage(leader_uid=9, round_number=77))
        assert protocol.role is Role.SYNCHRONIZED
        assert protocol.current_output() == 77
        context.local_round = 5
        assert protocol.current_output() == 79

    def test_passive_node_adopts_leader_messages(self, make_context):
        protocol = GoodSamaritanProtocol(make_context())
        protocol.on_reception(ContenderMessage(timestamp=Timestamp(1, 1)))
        protocol.on_reception(SamaritanMessage(timestamp=Timestamp(2, 2)))
        protocol.on_reception(LeaderMessage(leader_uid=9, round_number=10))
        assert protocol.role is Role.SYNCHRONIZED


class TestSamaritanCounting:
    def put_in_critical_epoch(self, protocol, context):
        schedule = protocol.schedule
        # First round of the critical epoch of super-epoch 1.
        context.local_round = schedule.epoch_length(1) * (schedule.critical_epoch - 1) + 1
        return context.local_round

    def test_countable_reception_recorded(self, make_context):
        context = make_context(uid=5)
        protocol = GoodSamaritanProtocol(context)
        protocol.on_reception(ContenderMessage(timestamp=Timestamp(1, 1)))  # downgrade
        critical_round = self.put_in_critical_epoch(protocol, context)
        message = ContenderMessage(timestamp=Timestamp(critical_round, 42), special=False)
        protocol.on_reception(message)
        assert protocol.success_ledger.count(42) == 1

    def test_special_messages_not_counted(self, make_context):
        context = make_context(uid=5)
        protocol = GoodSamaritanProtocol(context)
        protocol.on_reception(ContenderMessage(timestamp=Timestamp(1, 1)))
        critical_round = self.put_in_critical_epoch(protocol, context)
        message = ContenderMessage(timestamp=Timestamp(critical_round, 42), special=True)
        protocol.on_reception(message)
        assert protocol.success_ledger.count(42) == 0

    def test_differently_aged_contenders_not_counted(self, make_context):
        context = make_context(uid=5)
        protocol = GoodSamaritanProtocol(context)
        protocol.on_reception(ContenderMessage(timestamp=Timestamp(1, 1)))
        critical_round = self.put_in_critical_epoch(protocol, context)
        message = ContenderMessage(timestamp=Timestamp(critical_round - 3, 42))
        protocol.on_reception(message)
        assert protocol.success_ledger.count(42) == 0

    def test_outside_critical_epoch_not_counted(self, make_context):
        context = make_context(uid=5)
        protocol = GoodSamaritanProtocol(context)
        protocol.on_reception(ContenderMessage(timestamp=Timestamp(1, 1)))
        context.local_round = 2  # epoch 1, not the critical epoch
        protocol.on_reception(ContenderMessage(timestamp=Timestamp(2, 42)))
        assert protocol.success_ledger.count(42) == 0


class TestBecomingLeader:
    def test_sufficient_report_elects_leader(self, make_context):
        context = make_context(uid=5, local_round=10)
        protocol = GoodSamaritanProtocol(context)
        threshold = protocol.schedule.success_threshold(1)
        report = SamaritanMessage(timestamp=Timestamp(10, 2), reports={5: threshold})
        protocol.on_reception(report)
        assert protocol.role is Role.LEADER
        assert protocol.current_output() == 10
        assert not protocol.became_leader_via_fallback

    def test_insufficient_report_does_not_elect(self, make_context):
        context = make_context(uid=5, local_round=10)
        protocol = GoodSamaritanProtocol(context)
        threshold = protocol.schedule.success_threshold(1)
        report = SamaritanMessage(timestamp=Timestamp(10, 2), reports={5: threshold - 1})
        protocol.on_reception(report)
        if threshold > 1:
            assert protocol.role is Role.CONTENDER
        else:
            # threshold of 1 means any positive report elects; the zero count path:
            empty = SamaritanMessage(timestamp=Timestamp(10, 2), reports={})
            fresh = GoodSamaritanProtocol(make_context(uid=6, local_round=10))
            fresh.on_reception(empty)
            assert fresh.role is Role.CONTENDER

    def test_report_for_someone_else_does_not_elect(self, make_context):
        context = make_context(uid=5, local_round=10)
        protocol = GoodSamaritanProtocol(context)
        report = SamaritanMessage(timestamp=Timestamp(10, 2), reports={999: 100})
        protocol.on_reception(report)
        assert protocol.role is Role.CONTENDER

    def test_leader_broadcasts_numbering(self, make_context):
        context = make_context(uid=5, local_round=10)
        protocol = GoodSamaritanProtocol(context)
        threshold = protocol.schedule.success_threshold(1)
        protocol.on_reception(
            SamaritanMessage(timestamp=Timestamp(10, 2), reports={5: threshold})
        )
        broadcasts = [
            action.message for action in (protocol.choose_action() for _ in range(200)) if action.is_broadcast
        ]
        assert broadcasts
        assert all(isinstance(m, LeaderMessage) for m in broadcasts)


class TestFallback:
    def test_fallback_contender_completing_epochs_becomes_leader(self, make_context):
        context = make_context(uid=5)
        protocol = GoodSamaritanProtocol(context)
        context.local_round = protocol.schedule.total_rounds + 1
        protocol.choose_action()
        assert protocol.role is Role.LEADER
        assert protocol.became_leader_via_fallback

    def test_fallback_contender_knocked_out_by_larger_timestamp(self, make_context):
        context = make_context(uid=5)
        protocol = GoodSamaritanProtocol(context)
        context.local_round = protocol.schedule.optimistic_rounds + 5
        assert protocol.in_fallback
        protocol.on_reception(ContenderMessage(timestamp=Timestamp(context.local_round + 100, 9)))
        assert protocol.role is Role.PASSIVE

    def test_fallback_contender_survives_smaller_timestamp(self, make_context):
        context = make_context(uid=5)
        protocol = GoodSamaritanProtocol(context)
        context.local_round = protocol.schedule.optimistic_rounds + 5
        protocol.on_reception(ContenderMessage(timestamp=Timestamp(1, 1)))
        assert protocol.role is Role.CONTENDER

    def test_fallback_actions_use_whole_band(self, make_context, params):
        context = make_context(uid=5)
        protocol = GoodSamaritanProtocol(context)
        context.local_round = protocol.schedule.optimistic_rounds + 5
        frequencies = {protocol.choose_action().frequency for _ in range(500)}
        assert max(frequencies) > protocol.schedule.prefix_width(1)
        assert max(frequencies) <= params.frequencies


class TestOptimisticActions:
    def test_actions_stay_in_band(self, make_context, params):
        protocol = GoodSamaritanProtocol(make_context())
        for _ in range(300):
            action = protocol.choose_action()
            assert 1 <= action.frequency <= params.frequencies

    def test_early_epoch_broadcasts_are_rare(self, make_context):
        protocol = GoodSamaritanProtocol(make_context())
        broadcasts = sum(protocol.choose_action().is_broadcast for _ in range(300))
        # Epoch 1 probability is 2/(2N) = 1/16; 300 draws should stay well below half.
        assert broadcasts < 60

    def test_samaritan_messages_carry_reports(self, make_context):
        context = make_context(uid=5)
        protocol = GoodSamaritanProtocol(context)
        protocol.on_reception(ContenderMessage(timestamp=Timestamp(1, 1)))  # downgrade
        schedule = protocol.schedule
        critical_start = schedule.epoch_length(1) * (schedule.critical_epoch - 1) + 1
        context.local_round = critical_start
        protocol.on_reception(ContenderMessage(timestamp=Timestamp(critical_start, 42)))
        # Move to the report epoch and collect broadcast messages.
        context.local_round = schedule.epoch_length(1) * (schedule.report_epoch - 1) + 1
        reports = [
            action.message
            for action in (protocol.choose_action() for _ in range(400))
            if action.is_broadcast and isinstance(action.message, SamaritanMessage)
        ]
        assert reports
        assert any(m.reports.get(42) == 1 for m in reports)


def epochs_entered(schedule: GoodSamaritanSchedule, last_round: int) -> int:
    """How many optimistic epochs start at or before local round ``last_round``."""
    entered = 0
    first = 1
    for k in range(1, schedule.super_epoch_count + 1):
        for _ in range(schedule.epochs_per_super_epoch):
            if first > last_round:
                return entered
            entered += 1
            first += schedule.epoch_length(k)
    return entered


class TestScheduleLookups:
    def test_a_node_looks_up_each_epoch_once(self, monkeypatch):
        """A node asks its schedule once per epoch it enters, plus once for the fallback."""
        lookups: Counter = Counter()
        depth = [0]

        def counted(original):
            def lookup(schedule, local_round):
                if not depth[0]:  # position_of_round asking epoch_span is one lookup
                    lookups[schedule] += 1
                depth[0] += 1
                try:
                    return original(schedule, local_round)
                finally:
                    depth[0] -= 1

            return lookup

        for name in ("epoch_span", "position_of_round"):
            monkeypatch.setattr(
                GoodSamaritanSchedule, name, counted(getattr(GoodSamaritanSchedule, name))
            )
        protocols = []

        def factory(context):
            protocols.append(GoodSamaritanProtocol(context))
            return protocols[-1]

        params = ModelParameters(frequencies=8, disruption_budget=3, participant_bound=64)
        workload = crowded_cafe(8)
        result = simulate(
            SimulationConfig(
                params=params,
                protocol_factory=factory,
                activation=workload.activation,
                adversary=workload.adversary,
                max_rounds=2_000,
                seed=3,
                trace_level=TraceLevel.NONE,
            )
        )
        assert len(protocols) == 8
        assert result.metrics.rounds_simulated > 100
        for protocol in protocols:
            schedule, last_round = protocol.schedule, protocol.context.local_round
            allowed = epochs_entered(schedule, last_round) + schedule.in_fallback(last_round)
            assert lookups[schedule] <= allowed, (last_round, lookups[schedule], allowed)
        assert sum(lookups.values()) > 0
