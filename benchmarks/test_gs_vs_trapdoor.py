"""Experiment ``gs_vs_trapdoor`` — the adaptivity payoff (§7 motivation).

The Good Samaritan Protocol exists because "for practical networks, there are
often significantly lower levels of interference" than the worst-case budget
``t``: when the actual disruption ``t'`` is small the adaptive protocol should
finish well before the Trapdoor Protocol, whose schedule is sized for ``t``.
This benchmark runs both protocols on identical good executions while sweeping
``t'`` and reports who wins, by what factor, and where the advantage erodes.
"""

from __future__ import annotations

from _bench_helpers import run_once
from repro.adversary.activation import SimultaneousActivation
from repro.adversary.jammers import NoInterference, RandomJammer
from repro.campaigns.query import aggregate
from repro.campaigns.runner import CampaignRunner
from repro.campaigns.spec import CampaignSpec, register_workload
from repro.campaigns.store import ResultStore
from repro.engine.runner import run_trials
from repro.engine.simulator import SimulationConfig
from repro.experiments.tables import render_table
from repro.experiments.workloads import Workload
from repro.params import ModelParameters
from repro.protocols.good_samaritan.protocol import GoodSamaritanProtocol
from repro.protocols.trapdoor.protocol import TrapdoorProtocol

# A wide band with a large worst-case budget: the regime the Good Samaritan
# protocol is designed for (t = F/2, but usually only t' ≪ t channels are hit).
# The Trapdoor schedule is sized for t = 32 (its final epoch carries the
# F·t/(F−t) term), while the adaptive protocol's cost depends only on t'.
PARAMS = ModelParameters(frequencies=64, disruption_budget=32, participant_bound=16)
NODE_COUNT = 4
SEEDS = 3


def summary_for(protocol_factory, actual_disruption: int):
    config = SimulationConfig(
        params=PARAMS,
        protocol_factory=protocol_factory,
        activation=SimultaneousActivation(count=NODE_COUNT),
        adversary=(
            RandomJammer(strength=actual_disruption) if actual_disruption > 0 else NoInterference()
        ),
        max_rounds=90_000,
    )
    return run_trials(config, seeds=SEEDS)


def test_gs_beats_trapdoor_at_low_actual_disruption(benchmark, emit):
    disruptions = (0, 1, 2)

    def run():
        rows = []
        for t_prime in disruptions:
            trapdoor = summary_for(TrapdoorProtocol.factory(), t_prime)
            samaritan = summary_for(GoodSamaritanProtocol.factory(), t_prime)
            rows.append(
                {
                    "t_prime": t_prime,
                    "trapdoor_mean_latency": trapdoor.mean_latency,
                    "good_samaritan_mean_latency": samaritan.mean_latency,
                    "speedup": trapdoor.mean_latency / samaritan.mean_latency,
                    "trapdoor_liveness": trapdoor.liveness_rate,
                    "gs_liveness": samaritan.liveness_rate,
                }
            )
        return rows

    rows = run_once(benchmark, run)
    emit(
        render_table(
            rows,
            title=(
                "Good Samaritan vs Trapdoor on good executions "
                f"({PARAMS.describe()}, simultaneous start, oblivious jammer with t' channels)"
            ),
            float_digits=2,
        )
    )
    assert all(row["trapdoor_liveness"] == 1.0 and row["gs_liveness"] == 1.0 for row in rows)
    # The paper's motivation: with t' ≪ t the adaptive protocol wins outright.
    quiet = rows[0]
    assert quiet["good_samaritan_mean_latency"] < quiet["trapdoor_mean_latency"], quiet
    assert quiet["speedup"] > 1.5, quiet
    # The advantage shrinks as the actual disruption approaches the budget.
    speedups = [row["speedup"] for row in rows]
    assert speedups[-1] <= speedups[0] * 1.5


def _full_budget_workload(node_count: int) -> Workload:
    """Worst-case §7 scenario: simultaneous start, full-budget random jammer."""
    return Workload(
        name="gs_full_budget_jam",
        activation=SimultaneousActivation(count=node_count),
        adversary=RandomJammer(),
        description="simultaneous start, full-budget random jammer",
    )


register_workload("gs_full_budget_jam", _full_budget_workload)


def test_trapdoor_remains_competitive_under_full_budget_jamming(benchmark, emit, tmp_path):
    """Under worst-case (adaptive, full-budget) jamming the Trapdoor protocol is
    the safer choice — the Good Samaritan pays its log N overhead.

    This comparison runs *through the campaign layer*: both protocols form a
    declarative grid whose cells persist in a result store, and the table is a
    store aggregate grouped by protocol — cross-checked against a direct
    ``run_trials`` call to prove the store reproduces the pre-migration
    numbers exactly.
    """
    spec = CampaignSpec(
        name="gs_vs_trapdoor_worst_case",
        protocols=("trapdoor", "good-samaritan"),
        workloads=("gs_full_budget_jam",),
        frequencies=(PARAMS.frequencies,),
        budgets=(PARAMS.disruption_budget,),
        participants=(PARAMS.participant_bound,),
        node_counts=(NODE_COUNT,),
        seeds=2,
        max_rounds=150_000,
    )

    def run():
        with ResultStore(tmp_path / "worst_case.db") as store:
            CampaignRunner(spec, store).run()
            return aggregate(store, spec.name, group_by=("protocol",))

    rows = run_once(benchmark, run)
    emit(render_table(rows, title="Full-budget random jamming — worst-case comparison", float_digits=1))
    assert all(row["liveness"] == 1.0 for row in rows)
    trapdoor = next(row for row in rows if row["protocol"] == "trapdoor")
    samaritan = next(row for row in rows if row["protocol"] == "good-samaritan")
    # The ordering flips (or at least the GS advantage disappears) under
    # worst-case interference: Trapdoor is no slower here.
    assert trapdoor["mean_latency"] <= samaritan["mean_latency"] * 1.2

    # Store-backed aggregates are the pre-migration numbers: a direct run of
    # the Trapdoor configuration must agree to the last bit.
    direct = run_trials(
        SimulationConfig(
            params=PARAMS,
            protocol_factory=TrapdoorProtocol.factory(),
            activation=SimultaneousActivation(count=NODE_COUNT),
            adversary=RandomJammer(),
            max_rounds=150_000,
        ),
        seeds=2,
    )
    assert trapdoor["mean_latency"] == direct.mean_latency
    assert trapdoor["max_latency"] == direct.max_latency
