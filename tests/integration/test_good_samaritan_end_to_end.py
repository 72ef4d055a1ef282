"""End-to-end integration tests for the Good Samaritan Protocol (Theorem 18 behaviour)."""

from __future__ import annotations

import pytest

from repro.adversary.activation import SimultaneousActivation, StaggeredActivation
from repro.adversary.jammers import NoInterference, RandomJammer
from repro.engine.simulator import SimulationConfig, simulate
from repro.params import ModelParameters
from repro.protocols.good_samaritan.protocol import GoodSamaritanProtocol
from repro.protocols.good_samaritan.schedule import GoodSamaritanSchedule

PARAMS = ModelParameters(frequencies=8, disruption_budget=3, participant_bound=16)
SCHEDULE = GoodSamaritanSchedule(PARAMS)


def oblivious_jammer(actual_disruption: int):
    """A jammer using t' channels; it draws from each run's own adversary stream."""
    return RandomJammer(strength=actual_disruption) if actual_disruption else NoInterference()


def run(activation, adversary, seed=0, max_rounds=60_000):
    config = SimulationConfig(
        params=PARAMS,
        protocol_factory=GoodSamaritanProtocol.factory(),
        activation=activation,
        adversary=adversary,
        max_rounds=max_rounds,
        seed=seed,
    )
    return simulate(config)


class TestGoodExecutions:
    """Simultaneous activation + oblivious jammer with t' < t: the optimistic path."""

    @pytest.mark.parametrize("t_prime", [0, 1])
    def test_finishes_within_adaptive_bound(self, t_prime):
        result = run(SimultaneousActivation(count=4), oblivious_jammer(t_prime), seed=5)
        assert result.synchronized, result.summary()
        assert result.report.all_safety_holds
        # Theorem 18: done by the end of super-epoch lg(2t'), with slack for
        # the leader announcement reaching everyone.
        bound = SCHEDULE.adaptive_round_bound(max(1, t_prime))
        assert result.max_sync_latency <= 2 * bound

    def test_good_execution_avoids_fallback(self):
        result = run(SimultaneousActivation(count=4), oblivious_jammer(1), seed=9)
        assert result.synchronized
        assert result.max_sync_latency <= SCHEDULE.optimistic_rounds

    def test_agreement_and_single_leader(self):
        for seed in range(3):
            result = run(SimultaneousActivation(count=5), oblivious_jammer(1), seed=seed)
            assert result.leader_count == 1, result.summary()
            assert result.agreement_holds


class TestFallbackExecutions:
    """Staggered activation or heavy jamming: the protocol must still terminate."""

    def test_staggered_activation_still_synchronizes(self):
        result = run(
            StaggeredActivation(count=3, spacing=11), RandomJammer(), seed=4, max_rounds=80_000
        )
        assert result.synchronized, result.summary()
        assert result.report.all_safety_holds
        assert result.leader_count == 1

    def test_worst_case_latency_within_schedule_total(self):
        result = run(
            StaggeredActivation(count=3, spacing=11), RandomJammer(), seed=4, max_rounds=80_000
        )
        # O(F log³N): the fallback guarantees completion within the full
        # optimistic + fallback trajectory plus announcement slack.
        assert result.max_sync_latency <= SCHEDULE.total_rounds + SCHEDULE.fallback_epoch_length

    def test_single_node_eventually_leads_through_fallback(self):
        result = run(SimultaneousActivation(count=1), RandomJammer(), seed=1, max_rounds=80_000)
        assert result.synchronized
        assert result.leader_count == 1
        # A lone node cannot be confirmed by a samaritan, so it must use the fallback.
        assert result.max_sync_latency > SCHEDULE.optimistic_rounds


class TestAdaptivity:
    def test_lower_actual_disruption_is_faster(self):
        quiet = run(SimultaneousActivation(count=4), oblivious_jammer(0), seed=2)
        noisy = run(SimultaneousActivation(count=4), RandomJammer(), seed=2, max_rounds=80_000)
        assert quiet.synchronized and noisy.synchronized
        assert quiet.max_sync_latency <= noisy.max_sync_latency

    def test_roles_include_samaritans_during_execution(self):
        result = run(SimultaneousActivation(count=5), oblivious_jammer(1), seed=7)
        from repro.types import Role

        saw_samaritan = any(
            Role.SAMARITAN in record.roles.values() for record in result.trace
        )
        assert saw_samaritan, "expected at least one downgrade to good samaritan"
