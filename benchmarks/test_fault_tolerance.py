"""Experiment ``fault_tolerance`` — crash-tolerant synchronization (§8).

The concluding remarks sketch a crash-tolerant Trapdoor variant: restart when
the leader goes silent for ``Ω(F²/(F−t)·logN)`` rounds, and delay committing
an output until several leader messages have been received.  This benchmark
kills the elected leader at different points of the execution and checks that
the surviving nodes still synchronize, agree among themselves, and re-elect a
unique replacement.  A crash is a fault-plan departure with no rejoin: the
leader, node 0, is activated in global round 1, so crashing it after its
local round ``k`` is ``ChurnEvent(0, leave_round=k + 1)``.
"""

from __future__ import annotations

from _bench_helpers import run_once
from repro.adversary.activation import ExplicitActivation, SimultaneousActivation
from repro.adversary.jammers import RandomJammer
from repro.engine.runner import run_trials
from repro.engine.simulator import SimulationConfig
from repro.experiments.tables import render_table
from repro.faults import ChurnEvent, FaultPlan
from repro.params import ModelParameters
from repro.protocols.fault_tolerant import FaultToleranceConfig, FaultTolerantTrapdoorProtocol
from repro.protocols.trapdoor.config import TrapdoorConfig
from repro.protocols.trapdoor.epochs import TrapdoorSchedule

PARAMS = ModelParameters(frequencies=8, disruption_budget=2, participant_bound=16)
FT_CONFIG = FaultToleranceConfig(
    trapdoor=TrapdoorConfig(final_epoch_constant=6.0),
    commit_threshold=2,
    assist_probability=0.25,
)
SCHEDULE = TrapdoorSchedule(PARAMS, FT_CONFIG.trapdoor)


def run_crash_scenario(leave_round: int | None, activation, seeds: int = 3):
    crash = FaultPlan(churn=(ChurnEvent(0, leave_round),)) if leave_round is not None else None
    config = SimulationConfig(
        params=PARAMS,
        protocol_factory=FaultTolerantTrapdoorProtocol.factory(FT_CONFIG),
        activation=activation,
        adversary=RandomJammer(),
        max_rounds=150_000,
        faults=crash,
    )
    return run_trials(config, seeds=seeds)


def survivors_agree(summary) -> float:
    """Fraction of executions where all nodes except the crashed one agree in every round."""
    clean = 0
    for result in summary.results:
        ok = True
        for record in result.trace:
            live_outputs = {
                value for node, value in record.outputs.items() if node != 0 and value is not None
            }
            if len(live_outputs) > 1:
                ok = False
                break
        clean += ok
    return clean / len(summary.results) if summary.results else 0.0


def survivor_liveness(summary) -> float:
    """Fraction of executions where every non-crashed node synchronized."""
    live = 0
    for result in summary.results:
        nodes = [n for n in result.trace.node_ids if n != 0]
        if all(result.trace.sync_round_of(n) is not None for n in nodes):
            live += 1
    return live / len(summary.results) if summary.results else 0.0


def test_fault_tolerance_scenarios(benchmark, emit):
    # The global round at whose start node 0 (activated in round 1) departs:
    # after its local round total_rounds + 1, the round it wins in, or after
    # local round 3 * total_rounds, long after everyone synchronized.
    scenarios = {
        "no crash": None,
        "leader crashes right after winning": SCHEDULE.total_rounds + 2,
        "leader crashes after stabilization": 3 * SCHEDULE.total_rounds + 1,
    }
    activation = ExplicitActivation(rounds=[1, 3, 5, 7])

    def run():
        return {
            name: run_crash_scenario(leave_round, activation)
            for name, leave_round in scenarios.items()
        }

    summaries = run_once(benchmark, run)
    rows = [
        {
            "scenario": name,
            "survivor_liveness": survivor_liveness(summary),
            "survivor_agreement": survivors_agree(summary),
            "mean_latency": summary.mean_latency,
            "max_stabilization_rounds": summary.max_stabilization_rounds,
        }
        for name, summary in summaries.items()
    ]
    emit(
        render_table(
            rows,
            title=f"Crash-tolerant Trapdoor ({PARAMS.describe()}, leader = node 0, 3 seeds each)",
            float_digits=2,
        )
    )
    for row in rows:
        assert row["survivor_liveness"] == 1.0, row
        assert row["survivor_agreement"] >= 2 / 3, row
    baseline = next(row for row in rows if row["scenario"] == "no crash")
    early_crash = next(row for row in rows if "right after winning" in row["scenario"])
    # Recovering from an early leader crash costs extra rounds (the silence
    # timeout plus a fresh contention), so the latency must be visibly larger.
    assert early_crash["mean_latency"] > baseline["mean_latency"]
    # A crash after everyone synchronized must actually happen, and the
    # survivors keep agreeing through it.
    leave_round = scenarios["leader crashes after stabilization"]
    for result in summaries["leader crashes after stabilization"].results:
        assert result.rounds_simulated >= leave_round, result.summary()
        assert result.stabilization.recovery_rounds == (0,), result.stabilization


def test_fault_tolerance_without_crashes_matches_trapdoor_behaviour(benchmark, emit):
    def run():
        summary = run_crash_scenario(None, SimultaneousActivation(count=5), seeds=4)
        return {
            "liveness": summary.liveness_rate,
            "agreement": summary.agreement_rate,
            "unique_leader": summary.unique_leader_rate,
            "mean_latency": summary.mean_latency,
            "schedule_rounds": SCHEDULE.total_rounds,
        }

    row = run_once(benchmark, run)
    emit(render_table([row], title="Crash-tolerant variant, failure-free executions", float_digits=2))
    assert row["liveness"] == 1.0
    assert row["agreement"] == 1.0
    assert row["unique_leader"] == 1.0
    # Delayed commitment costs a little extra over the plain schedule but stays
    # within a small constant factor.
    assert row["mean_latency"] < 3 * row["schedule_rounds"]
