"""Unit tests for the simulator's streaming consumers.

The streaming checker and metrics observer are the single implementation the
post-hoc APIs replay through, so these tests pin (a) trace replay and the
simulator's fixed set of consumers, (b) trace levels, and (c) equality
between a streaming run and a post-hoc pass over the recorded trace.
"""

from __future__ import annotations

import pickle
import tracemalloc
from dataclasses import replace
from unittest import mock

import pytest

from repro.adversary.activation import StaggeredActivation
from repro.adversary.jammers import RandomJammer, ReactiveJammer
from repro.adversary.policy import PolicyJammer
from repro.engine.checker import PropertyChecker, StreamingPropertyChecker
from repro.engine.metrics import MetricsObserver, collect_metrics
from repro.engine.observers import TraceLevel, TraceRecorder, replay_trace
from repro.engine.simulator import SimulationConfig, Simulator, simulate
from repro.engine.trace import RoundRecord
from repro.exceptions import ConfigurationError
from repro.faults.plan import ChurnEvent, CorruptionEvent, FaultPlan
from repro.params import ModelParameters
from repro.protocols.base import BoundProtocolFactory, SynchronizationProtocol
from repro.protocols.trapdoor.protocol import TrapdoorProtocol
from repro.radio.actions import RadioAction, listen
from repro.radio.messages import Message
from repro.radio.spectrum_log import SpectrumLog
from repro.types import Role, SyncOutput


@pytest.fixture
def base_config(params):
    return SimulationConfig(
        params=params,
        protocol_factory=TrapdoorProtocol.factory(),
        activation=StaggeredActivation(count=6, spacing=2),
        adversary=RandomJammer(),
        max_rounds=10_000,
        seed=42,
    )


class RecordingConsumer:
    """Keeps every activation and round record a replay hands it."""

    def __init__(self) -> None:
        self.activations = []
        self.records = []

    def on_activation(self, node_id, global_round):
        self.activations.append((node_id, global_round))

    def on_round(self, record):
        self.records.append(record)


class TestObserverProtocol:
    def test_simulator_takes_no_observers(self, base_config):
        with pytest.raises(TypeError):
            Simulator(base_config, observers=[RecordingConsumer()])

    def test_spectrum_log_implements_the_observer_interface(self, base_config):
        # The log's one observer entry point is record(activity).
        result = simulate(base_config)
        log = SpectrumLog()
        for record in result.trace:
            log.record(record.activity)
        assert log.latest is result.trace.records[-1].activity
        band = base_config.params.band.all_frequencies()
        assert sum(log.broadcast_count(f) for f in band) == result.metrics.broadcasts
        assert sum(log.delivery_count(f) for f in band) == result.metrics.deliveries

    def test_replay_matches_live_observation(self, base_config):
        result = simulate(base_config)
        replayed = RecordingConsumer()
        replay_trace(result.trace, replayed)
        assert all(
            kept is record for kept, record in zip(replayed.records, result.trace, strict=True)
        )
        assert replayed.activations == list(result.trace.activation_rounds.items())
        assert len(replayed.records) == result.rounds_simulated


class TestTraceLevels:
    def test_full_is_the_default_and_keeps_every_round(self, base_config):
        result = simulate(base_config)
        assert base_config.trace_level is TraceLevel.FULL
        assert len(result.trace) == result.rounds_simulated

    def test_none_retains_no_trace(self, base_config):
        result = simulate(replace(base_config, trace_level=TraceLevel.NONE))
        assert result.trace is None

    @pytest.mark.parametrize(
        "adversary",
        [
            ReactiveJammer(),
            PolicyJammer(
                table=("idle", "busiest", "random", "sweep", "quietest", "busiest"),
                phase_period=2,
            ),
        ],
        ids=["reactive", "policy"],
    )
    def test_adaptive_adversary_runs_match_at_every_trace_level(self, base_config, adversary):
        # The reactive jammer reads the log's broadcast counters, the policy
        # jammer its latest round; the log gets the same records at any level.
        config = replace(base_config, adversary=adversary)
        full = simulate(config)
        for trace_free in (
            simulate(replace(config, trace_level=TraceLevel.SAMPLED, trace_sample_interval=10)),
            simulate(replace(config, trace_level=TraceLevel.NONE)),
        ):
            assert trace_free.metrics == full.metrics
            assert trace_free.report == full.report

    def test_none_memory_does_not_grow_with_run_length(self):
        def peak_bytes(max_rounds: int) -> int:
            config = SimulationConfig(
                params=ModelParameters(4, 1, 8),
                protocol_factory=TrapdoorProtocol.factory(),
                activation=StaggeredActivation(count=2, spacing=2),
                adversary=RandomJammer(),
                max_rounds=max_rounds,
                seed=1,
                stop_when_synchronized=False,
                trace_level=TraceLevel.NONE,
            )
            tracemalloc.start()
            try:
                assert simulate(config).rounds_simulated == max_rounds
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        short, long = peak_bytes(500), peak_bytes(5_000)
        # Ten times the rounds, the same peak: no per-round history is kept.
        assert long - short < 64 * 1024, (short, long)

    def test_sampled_keeps_a_subset_including_first_and_last_round(self, base_config):
        interval = 10
        result = simulate(
            replace(
                base_config,
                trace_level=TraceLevel.SAMPLED,
                trace_sample_interval=interval,
            )
        )
        rounds = [record.global_round for record in result.trace]
        assert rounds[0] == 1
        assert rounds[-1] == result.rounds_simulated
        assert len(rounds) <= result.rounds_simulated // interval + 2
        assert all(r % interval == 0 for r in rounds[1:-1])

    def test_sampled_trace_still_knows_every_activation(self, base_config):
        result = simulate(
            replace(base_config, trace_level=TraceLevel.SAMPLED, trace_sample_interval=50)
        )
        assert len(result.trace.activation_rounds) == 6

    def test_rejects_non_positive_sample_interval(self, base_config):
        with pytest.raises(ConfigurationError):
            replace(base_config, trace_sample_interval=0)

    def test_recorder_rejects_bad_interval(self):
        with pytest.raises(ConfigurationError):
            TraceRecorder(level=TraceLevel.SAMPLED, sample_interval=0)

    def test_sampling_every_round_yields_a_complete_trace(self, base_config):
        result = simulate(
            replace(base_config, trace_level=TraceLevel.SAMPLED, trace_sample_interval=1)
        )
        assert result.trace.complete
        assert len(result.trace) == result.rounds_simulated
        # Post-hoc consumers accept it, since nothing was dropped.
        assert PropertyChecker().check(result.trace).all_safety_holds


class TestStreamingEqualsPostHoc:
    def test_report_matches_post_hoc_checker(self, base_config):
        result = simulate(base_config)
        post_hoc = PropertyChecker().check(result.trace)
        assert result.report.violations == post_hoc.violations
        assert result.report.liveness_achieved == post_hoc.liveness_achieved
        assert result.report.synchronization_round == post_hoc.synchronization_round

    def test_metrics_match_post_hoc_collection(self, base_config):
        result = simulate(base_config)
        post_hoc = collect_metrics(result.trace)
        streamed = result.metrics
        assert streamed.rounds_simulated == post_hoc.rounds_simulated
        assert streamed.broadcasts == post_hoc.broadcasts
        assert streamed.deliveries == post_hoc.deliveries
        assert streamed.collisions == post_hoc.collisions
        assert streamed.disrupted_frequency_rounds == post_hoc.disrupted_frequency_rounds
        assert streamed.sync_latencies == post_hoc.sync_latencies
        assert streamed.role_rounds == post_hoc.role_rounds

    def test_streaming_checker_can_be_driven_manually(self, base_config):
        result = simulate(base_config)
        checker = StreamingPropertyChecker()
        replay_trace(result.trace, checker)
        report = checker.report()
        assert report.all_safety_holds == result.report.all_safety_holds
        assert report.synchronization_round == result.report.synchronization_round

    def test_metrics_observer_can_be_driven_manually(self, base_config):
        result = simulate(base_config)
        observer = MetricsObserver()
        replay_trace(result.trace, observer)
        assert observer.result() == collect_metrics(result.trace)


class TestIncompleteTraceGuards:
    """Post-hoc consumers must refuse sampled traces instead of miscomputing."""

    @pytest.fixture
    def sampled_result(self, base_config):
        return simulate(
            replace(base_config, trace_level=TraceLevel.SAMPLED, trace_sample_interval=10)
        )

    def test_sampled_traces_are_marked_incomplete(self, base_config, sampled_result):
        assert simulate(base_config).trace.complete
        assert not sampled_result.trace.complete

    def test_post_hoc_checker_refuses_a_sampled_trace(self, sampled_result):
        with pytest.raises(ValueError, match="complete trace"):
            PropertyChecker().check(sampled_result.trace)

    def test_post_hoc_metrics_refuse_a_sampled_trace(self, sampled_result):
        with pytest.raises(ValueError, match="complete trace"):
            collect_metrics(sampled_result.trace)

    def test_election_extraction_refuses_sampled_and_missing_traces(
        self, base_config, sampled_result
    ):
        from repro.apps.leader_election import election_from_result

        with pytest.raises(ValueError):
            election_from_result(sampled_result)
        trace_free = simulate(replace(base_config, trace_level=TraceLevel.NONE))
        with pytest.raises(ValueError, match="TraceLevel.FULL"):
            election_from_result(trace_free)

    def test_metrics_expose_exact_activation_rounds_without_a_trace(self, base_config):
        full = simulate(base_config)
        trace_free = simulate(replace(base_config, trace_level=TraceLevel.NONE))
        assert trace_free.metrics.activation_rounds == full.trace.activation_rounds


def test_replay_trace_refuses_incomplete_traces(base_config):
    sampled = simulate(
        replace(base_config, trace_level=TraceLevel.SAMPLED, trace_sample_interval=10)
    )
    with pytest.raises(ValueError, match="complete trace"):
        replay_trace(sampled.trace, MetricsObserver())


def test_sampled_trace_guards_rounds_simulated_but_exposes_rounds_retained(base_config):
    sampled = simulate(
        replace(base_config, trace_level=TraceLevel.SAMPLED, trace_sample_interval=10)
    )
    with pytest.raises(ValueError, match="complete trace"):
        sampled.trace.rounds_simulated
    assert sampled.trace.rounds_retained == len(sampled.trace.records)


#: A misbehaving node's output per local round; after the last entry it
#: counts on from 205.
_SCRIPT: dict[int, SyncOutput] = {1: None, 2: None, 3: 100, 4: 101, 5: -1, 6: None, 7: 200, 8: 205}


class MisbehavingProtocol(SynchronizationProtocol):
    """Breaks every safety property on scripted local rounds.

    Local round 3 commits to 100; round 5 outputs -1 (validity, and a jump
    from 101); round 6 returns to ⊥ (synch commit); round 8 jumps from 200 to
    205 (correctness).  Nodes activated in different rounds output different
    numbers in the same round (agreement).  The role changes with the script
    too, so the metrics open several spells per node.
    """

    def choose_action(self) -> RadioAction:
        return listen(1)

    def on_reception(self, message: Message) -> None:
        pass

    def current_output(self) -> SyncOutput:
        local_round = self.context.local_round
        if local_round in _SCRIPT:
            return _SCRIPT[local_round]
        return 205 + local_round - 8

    @property
    def role(self) -> Role:
        local_round = self.context.local_round
        if local_round in (3, 4):
            return Role.LEADER
        return Role.SYNCHRONIZED if local_round >= 7 else Role.CONTENDER


def misbehaving_config(faults: FaultPlan | None = None) -> SimulationConfig:
    return SimulationConfig(
        params=ModelParameters(4, 1, 8),
        protocol_factory=BoundProtocolFactory(MisbehavingProtocol),
        activation=StaggeredActivation(count=3, spacing=2),
        max_rounds=24,
        seed=5,
        stop_when_synchronized=False,
        faults=faults,
    )


def at_every_level(config: SimulationConfig):
    """``config`` run at ``NONE``, ``SAMPLED`` and ``FULL``, in that order."""
    return [
        simulate(replace(config, trace_level=TraceLevel.NONE)),
        simulate(replace(config, trace_level=TraceLevel.SAMPLED, trace_sample_interval=4)),
        simulate(replace(config, trace_level=TraceLevel.FULL)),
    ]


class TestLiveLoopChecksMisbehavingProtocols:
    """The live loop skips per-node calls that cannot fire a rule; replaying
    a record skips nothing.  A misbehaving protocol makes the two disagree if
    a skip drops a call that mattered."""

    def test_config_is_picklable(self):
        config = misbehaving_config()
        assert pickle.loads(pickle.dumps(config)).protocol_factory == config.protocol_factory

    def test_every_trace_level_reports_what_the_post_hoc_checker_finds(self):
        none, sampled, full = at_every_level(misbehaving_config())
        post_hoc = PropertyChecker().check(full.trace)
        assert none.report == sampled.report == full.report == post_hoc
        kinds = [violation.property_name for violation in full.report.violations]
        assert {"validity", "synch_commit", "correctness", "agreement"} <= set(kinds)
        # Round violations come first (validity before the round's agreement),
        # then each node's sequence violations in node order.
        assert kinds.index("validity") < kinds.index("synch_commit")
        assert [v.node_id for v in full.report.violations if v.property_name == "synch_commit"] == [
            0,
            1,
            2,
        ]
        assert full.report.liveness_achieved

    def test_every_trace_level_counts_what_collect_metrics_counts(self):
        none, sampled, full = at_every_level(misbehaving_config())
        assert none.metrics == sampled.metrics == full.metrics
        post_hoc = collect_metrics(full.trace)
        assert replace(full.metrics, leader_count=0) == replace(post_hoc, leader_count=0)
        assert list(full.metrics.role_rounds) == [Role.CONTENDER, Role.LEADER, Role.SYNCHRONIZED]

    def test_faults_do_not_split_the_trace_levels(self):
        # Churn and corruption reset a node's sequence state mid-script; the
        # Byzantine node is excluded from the sequence properties but still
        # faces validity and agreement.
        plan = FaultPlan(
            churn=(ChurnEvent(node_id=1, leave_round=6, rejoin_round=9),),
            corruption=(CorruptionEvent(round_index=12, node_ids=(0,)),),
            byzantine_count=1,
            byzantine_start_round=15,
        )
        none, sampled, full = at_every_level(misbehaving_config(plan))
        assert none.report == sampled.report == full.report
        assert none.metrics == sampled.metrics == full.metrics
        assert none.stabilization == sampled.stabilization == full.stabilization


class TestRoundRecordsOnlyForRecordKeepers:
    @staticmethod
    def records_built(config: SimulationConfig) -> tuple[int, int]:
        """(``RoundRecord`` constructions in the simulator, rounds simulated)."""
        with mock.patch("repro.engine.simulator.RoundRecord", wraps=RoundRecord) as built:
            result = Simulator(config).run()
        return built.call_count, result.rounds_simulated

    def test_a_trace_free_fault_free_run_builds_none(self, base_config):
        built, rounds = self.records_built(replace(base_config, trace_level=TraceLevel.NONE))
        assert rounds > 0 and built == 0

    @pytest.mark.parametrize("level", [TraceLevel.FULL, TraceLevel.SAMPLED])
    def test_a_recorded_run_builds_one_per_round(self, base_config, level):
        built, rounds = self.records_built(replace(base_config, trace_level=level))
        assert built == rounds

    def test_a_fault_plan_builds_none(self, base_config):
        plan = FaultPlan(churn=(ChurnEvent(node_id=1, leave_round=10, rejoin_round=20),))
        built, rounds = self.records_built(
            replace(base_config, trace_level=TraceLevel.NONE, faults=plan)
        )
        assert rounds > 0 and built == 0
