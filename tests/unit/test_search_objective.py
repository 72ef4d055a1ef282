"""Unit tests for search objectives: scoring math and evaluation determinism."""

from __future__ import annotations

import pytest

from repro.campaigns.store import TrialRecord
from repro.engine.plan import ExecutionPlan
from repro.exceptions import ConfigurationError
from repro.search.objective import OBJECTIVE_METRICS, SearchObjective
from repro.search.space import ParametricGenome

TINY = SearchObjective(
    protocol="trapdoor",
    workload="quiet_start",
    frequencies=4,
    budget=1,
    participants=8,
    node_count=2,
    seeds=(0, 1),
    max_rounds=4_000,
)


def record(seed, synchronized=True, latency=10, rounds=50):
    return TrialRecord(
        seed=seed,
        synchronized=synchronized,
        agreement=True,
        safety=True,
        leader_count=1,
        max_sync_latency=latency if synchronized else None,
        rounds_simulated=rounds,
    )


class TestConstruction:
    def test_seed_count_normalizes_to_a_range(self):
        objective = SearchObjective(seeds=3)
        assert objective.seeds == (0, 1, 2)

    def test_rejects_unknown_protocol_metric_and_empty_seeds(self):
        with pytest.raises(ConfigurationError, match="unknown protocol"):
            SearchObjective(protocol="carrier-pigeon")
        with pytest.raises(ConfigurationError, match="unknown objective metric"):
            SearchObjective(metric="vibes")
        with pytest.raises(ConfigurationError, match="at least one seed"):
            SearchObjective(seeds=())

    def test_round_trips_through_describe_dict(self):
        rebuilt = SearchObjective.from_dict(TINY.describe_dict())
        assert rebuilt == TINY
        assert rebuilt.describe_dict() == TINY.describe_dict()


class TestScoring:
    def test_median_latency_counts_unsynchronized_as_max_rounds(self):
        objective = SearchObjective(seeds=(0, 1, 2), max_rounds=1_000, metric="median_latency")
        records = [record(0, latency=10), record(1, latency=20), record(2, synchronized=False)]
        assert objective.score_records(records) == 20.0
        # All failed -> the score saturates at the round cap.
        failed = [record(seed, synchronized=False) for seed in range(3)]
        assert objective.score_records(failed) == 1_000.0

    def test_mean_latency_and_failure_rate_and_rounds(self):
        objective = SearchObjective(seeds=(0, 1), max_rounds=100, metric="mean_latency")
        records = [record(0, latency=10), record(1, synchronized=False)]
        assert objective.score_records(records) == pytest.approx((10 + 100) / 2)
        failure = SearchObjective(seeds=(0, 1), metric="failure_rate")
        assert failure.score_records(records) == pytest.approx(0.5)
        rounds = SearchObjective(seeds=(0, 1), metric="mean_rounds")
        assert rounds.score_records([record(0, rounds=40), record(1, rounds=60)]) == 50.0

    def test_empty_batch_is_rejected(self):
        with pytest.raises(ConfigurationError, match="empty record batch"):
            TINY.score_records([])

    def test_every_metric_scores_real_records(self):
        evaluation = TINY.evaluate(ParametricGenome(name="fixed-band"))
        # Re-score the same records under each metric via fresh objectives.
        for metric in OBJECTIVE_METRICS:
            data = dict(TINY.describe_dict())
            data["metric"] = metric
            rescored = SearchObjective.from_dict(data).score_records(evaluation.records)
            assert isinstance(rescored, float)


class TestEvaluation:
    def test_evaluation_is_deterministic(self):
        genome = ParametricGenome(name="random")
        first = TINY.evaluate(genome)
        second = TINY.evaluate(genome)
        assert first.records == second.records
        assert first.score == second.score

    def test_parallel_evaluation_matches_serial(self):
        genome = ParametricGenome(name="sweep")
        serial = TINY.evaluate(genome, plan=ExecutionPlan())
        parallel = TINY.evaluate(genome, plan=ExecutionPlan(workers=2))
        assert parallel.records == serial.records
        assert parallel.score == serial.score

    def test_workload_adversary_is_overridden_by_the_candidate(self):
        # crowded_cafe ships a RandomJammer; the candidate must replace it.
        objective = SearchObjective(
            protocol="trapdoor",
            workload="crowded_cafe",
            frequencies=4,
            budget=1,
            participants=8,
            node_count=2,
            seeds=(0,),
            max_rounds=4_000,
        )
        config = objective.config_for(ParametricGenome(name="none"))
        assert config.adversary.describe() == "no interference"
