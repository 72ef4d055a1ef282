"""Determinism and correctness tests for the parallel multi-seed runner.

The contract: every execution derives all randomness from its own seed, so a
batch run with worker processes — or trace-free — is statistically *identical*
to the serial full-trace batch, not merely similar.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.adversary.activation import StaggeredActivation
from repro.adversary.jammers import RandomJammer
from repro.engine.observers import TraceLevel
from repro.campaigns.query import StoredSummary
from repro.engine.plan import ExecutionPlan
from repro.engine.pool import ReducedTrial
from repro.engine.runner import TrialSummary, run_trials
from repro.engine.simulator import SimulationConfig
from repro.protocols.trapdoor.protocol import TrapdoorProtocol


@pytest.fixture
def batch_config(params):
    return SimulationConfig(
        params=params,
        protocol_factory=TrapdoorProtocol.factory(),
        activation=StaggeredActivation(count=5, spacing=2),
        adversary=RandomJammer(),
        max_rounds=10_000,
    )


def assert_summaries_identical(reference: TrialSummary, candidate: TrialSummary) -> None:
    assert candidate.seeds == reference.seeds
    assert candidate.latencies() == reference.latencies()
    assert candidate.liveness_rate == reference.liveness_rate
    assert candidate.agreement_rate == reference.agreement_rate
    assert candidate.safety_rate == reference.safety_rate
    assert candidate.unique_leader_rate == reference.unique_leader_rate
    for reference_result, candidate_result in zip(reference.results, candidate.results):
        assert candidate_result.metrics == reference_result.metrics
        assert candidate_result.report.violations == reference_result.report.violations
        assert (
            candidate_result.report.synchronization_round
            == reference_result.report.synchronization_round
        )


class TestDeterminism:
    def test_workers_match_serial_run_exactly(self, batch_config):
        serial = run_trials(batch_config, seeds=4)
        parallel = run_trials(batch_config, seeds=4, plan=ExecutionPlan(workers=4))
        assert_summaries_identical(serial, parallel)

    def test_trace_free_matches_full_trace_run_exactly(self, batch_config):
        full = run_trials(batch_config, seeds=4)
        trace_free = run_trials(batch_config, seeds=4, trace_level=TraceLevel.NONE)
        assert_summaries_identical(full, trace_free)
        assert all(result.trace is None for result in trace_free.results)
        assert all(result.trace is not None for result in full.results)

    def test_workers_plus_trace_free_matches_serial_full_trace(self, batch_config):
        serial = run_trials(batch_config, seeds=4)
        combined = run_trials(
            batch_config, seeds=4, trace_level=TraceLevel.NONE, plan=ExecutionPlan(workers=2)
        )
        assert_summaries_identical(serial, combined)

    def test_results_come_back_in_seed_order(self, batch_config):
        summary = run_trials(batch_config, seeds=(11, 3, 7), plan=ExecutionPlan(workers=3))
        assert summary.seeds == (11, 3, 7)
        for seed, result in zip(summary.seeds, summary.results):
            assert result.trace.seed == seed

    def test_config_hook_runs_in_the_parent_process(self, batch_config):
        hook_seeds = []

        def hook(config, seed):
            hook_seeds.append(seed)
            return config

        run_trials(batch_config, seeds=3, config_for_seed=hook, plan=ExecutionPlan(workers=2))
        assert hook_seeds == [0, 1, 2]


class BoomProtocol(TrapdoorProtocol):
    """Raises from its constructor to simulate a genuine bug in a worker."""

    def __init__(self, context, config=None):
        raise TypeError("boom from protocol")


class TestUnpicklableFallback:
    def test_worker_errors_are_not_misattributed_to_pickling(self, params):
        from repro.protocols.base import BoundProtocolFactory

        config = SimulationConfig(
            params=params,
            protocol_factory=BoundProtocolFactory(BoomProtocol, (None,)),
            activation=StaggeredActivation(count=3, spacing=2),
            max_rounds=100,
        )
        # The config pickles fine; the TypeError comes from inside a worker
        # and must re-raise instead of triggering the serial fallback.
        with pytest.raises(TypeError, match="boom from protocol"):
            run_trials(config, seeds=2, plan=ExecutionPlan(workers=2))

    def test_closure_factory_falls_back_to_serial_with_a_warning(self, params):
        config = SimulationConfig(
            params=params,
            protocol_factory=lambda context: TrapdoorProtocol(context),
            activation=StaggeredActivation(count=3, spacing=2),
            adversary=RandomJammer(),
            max_rounds=10_000,
        )
        serial = run_trials(config, seeds=2)
        with pytest.warns(RuntimeWarning, match="not picklable"):
            fallback = run_trials(config, seeds=2, plan=ExecutionPlan(workers=2))
        assert_summaries_identical(serial, fallback)

    def test_closure_factory_mixed_into_a_large_batch_falls_back_cleanly(self, params):
        """Regression: the fallback decision is made before submission.

        The old code submitted first and probed picklability only inside the
        exception handler — by which point the executor had already consumed
        part of the input, so the probe could see a clean remainder and
        re-raise spuriously.  A single closure-built config buried late in a
        large batch must deterministically take the serial fallback, with
        every result identical to a fully serial run.
        """

        def hook(config, seed):
            if seed == 10:  # one bad apple, deep in the batch
                return replace(config, protocol_factory=lambda ctx: TrapdoorProtocol(ctx))
            return config

        base = SimulationConfig(
            params=params,
            protocol_factory=TrapdoorProtocol.factory(),
            activation=StaggeredActivation(count=3, spacing=2),
            adversary=RandomJammer(),
            max_rounds=10_000,
        )
        serial = run_trials(base, seeds=12, config_for_seed=hook)
        with pytest.warns(RuntimeWarning, match="not picklable"):
            fallback = run_trials(
                base, seeds=12, config_for_seed=hook, plan=ExecutionPlan(workers=4)
            )
        assert_summaries_identical(serial, fallback)


def summary_with_latencies(*latencies):
    """Statistics over rows that differ only in their latency (None = no sync)."""
    records = tuple(
        ReducedTrial(
            seed=seed,
            synchronized=latency is not None,
            agreement=True,
            safety=True,
            leader_count=1,
            max_sync_latency=latency,
            rounds_simulated=100,
        )
        for seed, latency in enumerate(latencies)
    )
    return StoredSummary(records=records)


class TestPercentileInterpolation:
    def test_median_of_even_count_interpolates(self):
        summary = summary_with_latencies(1, 2, 3, 4)
        assert summary.percentile_latency(0.5) == pytest.approx(2.5)

    def test_quartiles_interpolate_between_order_statistics(self):
        summary = summary_with_latencies(10, 20, 30, 40)
        assert summary.percentile_latency(0.25) == pytest.approx(17.5)
        assert summary.percentile_latency(0.75) == pytest.approx(32.5)

    def test_extremes_hit_min_and_max(self):
        summary = summary_with_latencies(5, 1, 9)
        assert summary.percentile_latency(0.0) == 1.0
        assert summary.percentile_latency(1.0) == 9.0

    def test_single_observation_is_every_percentile(self):
        summary = summary_with_latencies(7)
        for fraction in (0.0, 0.3, 0.5, 1.0):
            assert summary.percentile_latency(fraction) == 7.0

    def test_none_latencies_are_excluded(self):
        summary = summary_with_latencies(4, None, 8)
        assert summary.percentile_latency(0.5) == pytest.approx(6.0)

    def test_empty_batch_returns_none(self):
        summary = summary_with_latencies()
        assert summary.percentile_latency(0.5) is None

    def test_out_of_range_fraction_raises(self):
        summary = summary_with_latencies(1, 2)
        with pytest.raises(ValueError):
            summary.percentile_latency(1.5)
