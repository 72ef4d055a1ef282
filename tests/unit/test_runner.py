"""Unit tests for the multi-seed trial runner."""

from __future__ import annotations

import pytest

from repro.adversary.activation import SimultaneousActivation
from repro.adversary.jammers import RandomJammer
from repro.engine.runner import run_trials
from repro.engine.simulator import SimulationConfig
from repro.protocols.trapdoor.protocol import TrapdoorProtocol


@pytest.fixture
def base_config(params) -> SimulationConfig:
    return SimulationConfig(
        params=params,
        protocol_factory=TrapdoorProtocol.factory(),
        activation=SimultaneousActivation(count=4),
        adversary=RandomJammer(),
        max_rounds=5_000,
    )


class TestRunTrials:
    def test_integer_seed_count_expands(self, base_config):
        summary = run_trials(base_config, seeds=3)
        assert summary.trials == 3
        assert summary.seeds == (0, 1, 2)

    def test_explicit_seed_list(self, base_config):
        summary = run_trials(base_config, seeds=[5, 9])
        assert summary.seeds == (5, 9)
        assert len(summary.results) == 2

    def test_rates_for_healthy_protocol(self, base_config):
        summary = run_trials(base_config, seeds=4)
        assert summary.liveness_rate == 1.0
        assert summary.agreement_rate == 1.0
        assert summary.safety_rate == 1.0
        assert summary.unique_leader_rate == 1.0

    def test_latency_statistics_are_consistent(self, base_config):
        summary = run_trials(base_config, seeds=4)
        latencies = summary.latencies()
        assert len(latencies) == 4
        assert summary.max_latency == max(latencies)
        assert summary.mean_latency == pytest.approx(sum(latencies) / 4)
        assert min(latencies) <= summary.median_latency <= max(latencies)
        assert summary.percentile_latency(0.0) == min(latencies)
        assert summary.percentile_latency(1.0) == max(latencies)

    def test_percentile_validates_fraction(self, base_config):
        summary = run_trials(base_config, seeds=2)
        with pytest.raises(ValueError):
            summary.percentile_latency(1.5)

    def test_describe_mentions_rates(self, base_config):
        summary = run_trials(base_config, seeds=2)
        text = summary.describe()
        assert "2 trials" in text
        assert "liveness 100%" in text

    def test_empty_summary_degrades_gracefully(self, base_config):
        summary = run_trials(base_config, seeds=[])
        assert summary.trials == 0
        assert summary.liveness_rate == 0.0
        assert summary.mean_latency is None
        assert summary.max_latency is None
