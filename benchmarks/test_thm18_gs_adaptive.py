"""Experiment ``thm18`` — Good Samaritan adaptivity (Theorem 18).

Theorem 18: with an oblivious adversary, (a) every execution synchronizes in
``O(F·log³N)`` rounds, and (b) if all ``n ≥ 2`` nodes wake together and at most
``t' ≤ t`` frequencies are actually disrupted per round, synchronization takes
only ``O(t'·log³N)`` rounds.  The benchmark sweeps the *actual* disruption
``t'`` in good executions and checks that the measured latency scales with
``t'`` (not with the worst-case budget ``t``), then confirms the worst-case
fallback bound on a staggered-activation execution.
"""

from __future__ import annotations

from _bench_helpers import run_once
from repro.adversary.activation import SimultaneousActivation, StaggeredActivation
from repro.adversary.jammers import NoInterference, RandomJammer
from repro.analysis.fitting import monotonically_increasing
from repro.engine.runner import run_trials
from repro.engine.simulator import SimulationConfig
from repro.experiments.tables import render_table
from repro.params import ModelParameters
from repro.protocols.good_samaritan.protocol import GoodSamaritanProtocol
from repro.protocols.good_samaritan.schedule import GoodSamaritanSchedule

PARAMS = ModelParameters(frequencies=8, disruption_budget=4, participant_bound=16)
SCHEDULE = GoodSamaritanSchedule(PARAMS)


def good_execution_summary(actual_disruption: int, seeds: int = 3, node_count: int = 4):
    """Simultaneous activation against an oblivious random jammer using t' channels."""
    config = SimulationConfig(
        params=PARAMS,
        protocol_factory=GoodSamaritanProtocol.factory(),
        activation=SimultaneousActivation(count=node_count),
        adversary=(
            RandomJammer(strength=actual_disruption) if actual_disruption > 0 else NoInterference()
        ),
        max_rounds=60_000,
    )
    return run_trials(config, seeds=seeds)


def test_thm18_latency_tracks_actual_disruption(benchmark, emit):
    disruptions = (0, 1, 2, 4)

    def run():
        rows = []
        for t_prime in disruptions:
            summary = good_execution_summary(t_prime)
            rows.append(
                {
                    "t_prime": t_prime,
                    "measured_mean_latency": summary.mean_latency,
                    "adaptive_bound_rounds": SCHEDULE.adaptive_round_bound(max(1, t_prime)),
                    "worst_case_rounds": SCHEDULE.total_rounds,
                    "liveness": summary.liveness_rate,
                    "agreement": summary.agreement_rate,
                }
            )
        return rows

    rows = run_once(benchmark, run)
    emit(
        render_table(
            rows,
            title="Theorem 18 — Good Samaritan latency vs actual disruption t' (good executions)",
            float_digits=1,
        )
    )
    assert all(row["liveness"] == 1.0 for row in rows)
    measured = [row["measured_mean_latency"] for row in rows]
    # Latency grows with the actual disruption (allowing simulation noise) ...
    assert monotonically_increasing(measured, tolerance=0.35), measured
    # ... and in good executions it stays within a constant factor of the
    # adaptive bound, far below the worst-case trajectory.
    for row in rows:
        assert row["measured_mean_latency"] <= 2.5 * row["adaptive_bound_rounds"]
        assert row["measured_mean_latency"] < row["worst_case_rounds"] / 2


def test_thm18_worst_case_fallback_bound(benchmark, emit):
    def run():
        config = SimulationConfig(
            params=PARAMS,
            protocol_factory=GoodSamaritanProtocol.factory(),
            activation=StaggeredActivation(count=3, spacing=13),
            adversary=RandomJammer(),
            max_rounds=80_000,
        )
        return run_trials(config, seeds=2)

    summary = run_once(benchmark, run)
    rows = [
        {
            "workload": "staggered arrivals, full-budget jammer",
            "measured_max_latency": summary.max_latency,
            "worst_case_bound_rounds": SCHEDULE.total_rounds + SCHEDULE.fallback_epoch_length,
            "liveness": summary.liveness_rate,
            "unique_leader": summary.unique_leader_rate,
        }
    ]
    emit(render_table(rows, title="Theorem 18 — worst-case executions stay within O(F·log³N)", float_digits=1))
    assert summary.liveness_rate == 1.0
    assert summary.max_latency <= SCHEDULE.total_rounds + SCHEDULE.fallback_epoch_length
