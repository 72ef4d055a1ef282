"""Unit tests for the search driver: checkpointing, resume, and read-backs.

The load-bearing property is *exact resume*: a search killed mid-generation
and re-run on the same store must evaluate only the missing candidates and
end in a state bit-identical to an uninterrupted run — same candidate keys,
same scores, same best strategy.
"""

from __future__ import annotations

import dataclasses
import json
import os
import tempfile
import time
from pathlib import Path

import pytest

from repro.adversary.activation import SimultaneousActivation
from repro.campaigns.spec import register_workload
from repro.campaigns.store import ResultStore
from repro.engine.plan import ExecutionPlan
from repro.engine.pool import ExecutionPool
from repro.engine.runner import run_reduced_trials
from repro.exceptions import ConfigurationError, ExperimentError
from repro.experiments.workloads import quiet_start
from repro.search.checkpoint import SearchCheckpoint, SearchSpec, is_search_spec_json
from repro.search.objective import SearchObjective
from repro.search.runner import StrategySearch, export_search, search_status
from repro.search.space import ParametricGenome, StrategySpace
from repro.telemetry import Telemetry

TINY_OBJECTIVE = SearchObjective(
    protocol="trapdoor",
    workload="quiet_start",
    frequencies=4,
    budget=1,
    participants=8,
    node_count=2,
    seeds=(0, 1),
    max_rounds=4_000,
)


def tiny_spec(name="unit-search", **overrides):
    defaults = dict(
        name=name,
        objective=TINY_OBJECTIVE,
        optimizer="hill-climb",
        population=2,
        generations=2,
        master_seed=7,
    )
    defaults.update(overrides)
    return SearchSpec(**defaults)


class TestSpec:
    def test_round_trips_through_json(self):
        spec = tiny_spec()
        rebuilt = SearchSpec.from_json(spec.to_json())
        assert rebuilt == spec
        assert is_search_spec_json(spec.to_json())
        assert not is_search_spec_json(None)
        assert not is_search_spec_json("not json at all")
        assert not is_search_spec_json(json.dumps({"kind": "campaign"}))

    def test_validation(self):
        with pytest.raises(ConfigurationError, match="optimizer"):
            tiny_spec(optimizer="annealing")
        with pytest.raises(ConfigurationError, match="population"):
            tiny_spec(population=0)
        with pytest.raises(ConfigurationError, match="name"):
            tiny_spec(name="")


class TestRun:
    def test_completes_and_checkpoints_every_candidate(self):
        with ResultStore(":memory:") as store:
            result = StrategySearch(tiny_spec(), store).run()
            assert result.complete
            assert result.best is not None
            assert result.generations_completed == 3  # warm start + 2
            assert result.evaluations_total == store.cell_count("unit-search")
            assert result.executed == result.evaluations_total

    def test_search_is_deterministic_across_fresh_stores(self):
        with ResultStore(":memory:") as first_store, ResultStore(":memory:") as second_store:
            first = StrategySearch(tiny_spec(), first_store).run()
            second = StrategySearch(tiny_spec(), second_store).run()
            assert first.best.key == second.best.key
            assert first.best.score == second.best.score
            assert first.evaluations_total == second.evaluations_total
            assert first_store.completed_keys() == second_store.completed_keys()

    def test_interrupted_search_resumes_bit_identically(self, tmp_path):
        spec = tiny_spec()
        with ResultStore(":memory:") as store:
            uninterrupted = StrategySearch(spec, store).run()
            uninterrupted_keys = sorted(store.completed_keys())

        resumed_store = ResultStore(tmp_path / "resumable.db")
        with resumed_store as store:
            # "Kill" the search after 3 live evaluations, mid-warm-start ...
            partial = StrategySearch(spec, store).run(max_evaluations=3)
            assert not partial.complete
            assert partial.executed == 3
            assert store.cell_count(spec.name) == 3
            # ... then resume: only the missing candidates are evaluated.
            resumed = StrategySearch(spec, store).run()
            assert resumed.complete
            assert resumed.executed == uninterrupted.evaluations_total - 3
            assert resumed.best.key == uninterrupted.best.key
            assert resumed.best.score == uninterrupted.best.score
            assert resumed.best.generation == uninterrupted.best.generation
            assert resumed.evaluations_total == uninterrupted.evaluations_total
            assert sorted(store.completed_keys()) == uninterrupted_keys

    def test_rerunning_a_complete_search_evaluates_nothing(self):
        with ResultStore(":memory:") as store:
            first = StrategySearch(tiny_spec(), store).run()
            replay = StrategySearch(tiny_spec(), store).run()
            assert replay.executed == 0
            assert replay.reused >= first.evaluations_total
            assert replay.best.key == first.best.key

    def test_searches_differing_only_in_metric_share_evaluations(self):
        # The metric only changes scoring, never the simulated records, so a
        # second search over the same configuration re-simulates nothing.
        # (Random search proposes independently of scores, so both searches
        # name exactly the same candidates.)
        latency_spec = tiny_spec(name="by-latency", optimizer="random")
        failure_spec = tiny_spec(
            name="by-failure",
            optimizer="random",
            objective=SearchObjective.from_dict(
                {**TINY_OBJECTIVE.describe_dict(), "metric": "failure_rate"}
            ),
        )
        with ResultStore(":memory:") as store:
            first = StrategySearch(latency_spec, store).run()
            second = StrategySearch(failure_spec, store).run()
            assert second.executed == 0
            assert second.reused >= first.evaluations_total

    def test_same_name_with_a_different_spec_is_refused(self):
        with ResultStore(":memory:") as store:
            StrategySearch(tiny_spec(), store).run(max_evaluations=1)
            changed = tiny_spec(master_seed=8)
            with pytest.raises(ExperimentError, match="different spec"):
                StrategySearch(changed, store).run()

    def test_warm_start_guarantees_dominance_over_registry_jammers(self):
        from repro.adversary.registry import names as adversary_names
        from repro.search.space import ParametricGenome

        spec = tiny_spec(optimizer="random", generations=1)
        with ResultStore(":memory:") as store:
            result = StrategySearch(spec, store).run()
            checkpoint = SearchCheckpoint(store, spec)
            for name in adversary_names():
                key = checkpoint.key_for(ParametricGenome(name=name))
                records = checkpoint.stored_records(key)
                assert records is not None
                assert result.best.score >= spec.objective.score_records(records)

    @pytest.mark.parametrize("cap", [-1, 0])
    def test_cap_below_one_is_refused_before_anything_runs(self, cap):
        with ResultStore(":memory:") as store:
            with pytest.raises(ConfigurationError, match="max_evaluations must be at least 1"):
                StrategySearch(tiny_spec(), store).run(max_evaluations=cap)
            assert store.campaign_names() == []
            assert store.cell_count() == 0

    def test_on_candidate_sees_every_candidate_in_order(self):
        seen = []
        with ResultStore(":memory:") as store:
            StrategySearch(tiny_spec(), store).run(on_candidate=seen.append)
        generations = [outcome.generation for outcome in seen]
        assert generations == sorted(generations)
        assert all(not outcome.reused for outcome in seen if outcome.generation == 0)


class TestReadBacks:
    def test_status_reports_the_run_best(self):
        with ResultStore(":memory:") as store:
            result = StrategySearch(tiny_spec(), store).run()
            status = search_status(store, "unit-search")
            assert status["evaluations"] == result.evaluations_total
            assert status["best_score"] == result.best.score
            assert status["best_key"] == result.best.key
            assert status["optimizer"] == "hill-climb"

    def test_status_rejects_non_search_campaigns(self):
        with ResultStore(":memory:") as store:
            store.register_campaign("plain-campaign")
            with pytest.raises(ConfigurationError, match="not an adversary search"):
                search_status(store, "plain-campaign")

    def test_export_round_trips_the_best_genome(self, tmp_path):
        from repro.search.space import genome_from_dict

        with ResultStore(":memory:") as store:
            result = StrategySearch(tiny_spec(), store).run()
            path = export_search(store, "unit-search", tmp_path / "best.json", top=3)
            document = json.loads(path.read_text())
            assert path.read_text() == json.dumps(document, indent=2)
            assert document["best"]["key"] == result.best.key
            assert document["best"]["score"] == result.best.score
            assert len(document["top"]) == 3
            scores = [row["score"] for row in document["top"]]
            assert scores == sorted(scores, reverse=True)
            rebuilt = genome_from_dict(document["best"]["genome"])
            assert rebuilt == result.best.genome

    def test_export_requires_evaluations(self, tmp_path):
        with ResultStore(":memory:") as store:
            spec = tiny_spec()
            SearchCheckpoint(store, spec).register()
            with pytest.raises(ExperimentError, match="no evaluations"):
                export_search(store, spec.name, tmp_path / "best.json")


class TestPooledSearch:
    """One persistent pool across all generations: identity and lifecycle."""

    def test_pooled_search_matches_serial_exactly(self, tmp_path):
        spec = tiny_spec()
        with ResultStore(tmp_path / "serial.db") as serial_store:
            serial = StrategySearch(spec, serial_store).run()
            with ResultStore(tmp_path / "pooled.db") as pooled_store:
                with StrategySearch(
                    spec, pooled_store, plan=ExecutionPlan(workers=2, pool_chunk=1)
                ) as search:
                    pooled = search.run()
                    assert search.pool is not None
                    # One executor start serves the warm start and every
                    # generation of every candidate.
                    assert search.pool.starts == 1
                assert pooled.best.key == serial.best.key
                assert pooled.best.score == serial.best.score
                assert pooled.evaluations_total == serial.evaluations_total
                # The stored evaluations are byte-identical, insertion order
                # included (proposal order is deterministic).
                assert list(pooled_store.iter_cells(spec.name)) == list(
                    serial_store.iter_cells(spec.name)
                )

    def test_interrupted_pooled_search_resumes_on_a_fresh_pool_exactly(self, tmp_path):
        """Kill a pooled search mid-budget; resume on a *new* pool: identical."""
        spec = tiny_spec()
        with ResultStore(":memory:") as store:
            uninterrupted = StrategySearch(spec, store).run()
            uninterrupted_keys = sorted(store.completed_keys())

        with ResultStore(tmp_path / "resumable.db") as store:
            with StrategySearch(spec, store, plan=ExecutionPlan(workers=2)) as search:
                partial = search.run(max_evaluations=3)
            assert not partial.complete
            assert partial.executed == 3
            # A brand-new search object — and therefore a brand-new pool, as
            # after a crash or a process restart — finishes the budget.
            with StrategySearch(spec, store, plan=ExecutionPlan(workers=2)) as search:
                resumed = search.run()
            assert resumed.complete
            assert resumed.best.key == uninterrupted.best.key
            assert resumed.best.score == uninterrupted.best.score
            assert resumed.evaluations_total == uninterrupted.evaluations_total
            assert sorted(store.completed_keys()) == uninterrupted_keys

    def test_cache_only_run_never_starts_the_pool(self):
        spec = tiny_spec()
        with ResultStore(":memory:") as store:
            StrategySearch(spec, store).run()
            with StrategySearch(spec, store, plan=ExecutionPlan(workers=2)) as search:
                replay = search.run()
                assert replay.executed == 0
                assert search.pool is not None
                assert search.pool.starts == 0  # lazy: no live work, no fork


@dataclasses.dataclass
class GatedCountingActivation(SimultaneousActivation):
    """Simultaneous activation that records each trial it starts as a file
    in ``directory``, then holds every trial after the first until ``gate``
    exists.

    A search's adversary comes from its genome, so the activation is what
    counts.  Holding the one worker at the second trial freezes the
    executor's queue while the first candidate commits.
    """

    directory: str = ""
    gate: str = ""

    def activations_for_round(self, global_round, rng):
        if global_round == 1:
            handle, _path = tempfile.mkstemp(dir=self.directory)
            os.close(handle)
            deadline = time.monotonic() + 30
            while (
                len(os.listdir(self.directory)) > 1
                and not os.path.exists(self.gate)
                and time.monotonic() < deadline
            ):
                time.sleep(0.005)
        return super().activations_for_round(global_round, rng)


@dataclasses.dataclass
class CrashOnceActivation(SimultaneousActivation):
    """Kills the first worker to run it, then activates like its parent.

    The sentinel file is created before ``os._exit``, so every later trial —
    the pool's retry, or a serial comparison run — runs normally.
    """

    sentinel: str = ""

    def activations_for_round(self, global_round, rng):
        if not os.path.exists(self.sentinel):
            Path(self.sentinel).touch()
            os._exit(1)
        return super().activations_for_round(global_round, rng)


def activation_spec(workload, activation_for, **objective_fields):
    """``tiny_spec`` scored on ``quiet_start`` with its activation swapped."""
    register_workload(
        workload,
        lambda node_count: dataclasses.replace(
            quiet_start(node_count), activation=activation_for(node_count)
        ),
    )
    objective = dataclasses.replace(TINY_OBJECTIVE, workload=workload, **objective_fields)
    return tiny_spec(objective=objective)


class _StopRun(Exception):
    pass


class TestGroupedSearch:
    """Each generation's missing candidates run as one group: the cap
    counts before submission, duplicates run once, an early stop cancels
    the queued chunks, and a worker crash is retried."""

    def test_cap_counts_before_submission(self, tmp_path):
        spec = tiny_spec()
        with ResultStore(tmp_path / "uninterrupted.db") as reference:
            StrategySearch(spec, reference).run()
            expected = list(reference.iter_cells(spec.name))
        telemetry = Telemetry()
        with ResultStore(tmp_path / "capped.db") as store:
            with StrategySearch(
                spec, store, plan=ExecutionPlan(workers=2), telemetry=telemetry
            ) as search:
                partial = search.run(max_evaluations=3)
            # The warm start proposes 8 candidates; only the 3 the budget
            # pays for were ever submitted.
            dispatched = telemetry.snapshot()["counters"]["pool.trials_dispatched"]
            assert dispatched == 3 * len(spec.objective.seeds)
            assert (partial.executed, partial.complete) == (3, False)
            with StrategySearch(spec, store, plan=ExecutionPlan(workers=2)) as search:
                assert search.run().complete
            assert list(store.iter_cells(spec.name)) == expected

    def test_a_genome_proposed_twice_in_one_generation_runs_once(self, monkeypatch):
        genome = ParametricGenome(name="sweep")
        monkeypatch.setattr(StrategySpace, "warm_start", lambda self: [genome, genome])
        spec = tiny_spec(generations=0)
        telemetry = Telemetry()
        with ResultStore(":memory:") as store:
            with ExecutionPool(workers=2, telemetry=telemetry) as pool:
                result = StrategySearch(spec, store, pool=pool).run()
            assert (result.executed, result.reused) == (1, 1)
            assert store.cell_count() == 1
        # One seed batch, not two.
        dispatched = telemetry.snapshot()["counters"]["pool.trials_dispatched"]
        assert dispatched == len(spec.objective.seeds)

    def test_stopping_a_run_early_cancels_queued_chunks(self, tmp_path):
        ran = tmp_path / "ran"
        ran.mkdir()
        gate = tmp_path / "gate"
        # One seed per candidate and an explicit chunk size of 1, which the
        # pool never merges across candidates: one chunk is one candidate is
        # one trial.
        spec = activation_spec(
            "search_test_counting",
            lambda node_count: GatedCountingActivation(
                count=node_count, directory=str(ran), gate=str(gate)
            ),
            seeds=(0,),
        )

        def stop(outcome):
            raise _StopRun

        with ExecutionPool(workers=1, chunk_size=1) as pool:
            with ResultStore(":memory:") as store:
                try:
                    # Keeping the exception keeps the stopped run's frame and
                    # its drain alive, so only the run itself can have
                    # cancelled the queued chunks.
                    with pytest.raises(_StopRun) as stopped:
                        StrategySearch(spec, store, pool=pool).run(on_candidate=stop)
                finally:
                    gate.touch()
                committed = store.cell_count()
            # A later batch queues behind every chunk the stopped run left
            # on the pool, so once it returns those have all run.
            run_reduced_trials(
                TINY_OBJECTIVE.config_for(ParametricGenome(name="sweep")), seeds=1, pool=pool
            )
            trials_run = len(list(ran.iterdir()))
        assert stopped.type is _StopRun
        assert committed == 1
        # The worker's chunk and the executor's small call queue may still
        # run; the warm start's other candidates must have been cancelled.
        assert trials_run <= committed + pool.workers + 2

    def test_a_serial_run_stopped_early_runs_no_later_candidate(self, monkeypatch):
        import repro.campaigns.runner as runner_module

        batches = []
        real_run_reduced_trials = runner_module.run_reduced_trials

        def counting_run_reduced_trials(config, **kwargs):
            batches.append(config)
            return real_run_reduced_trials(config, **kwargs)

        monkeypatch.setattr(runner_module, "run_reduced_trials", counting_run_reduced_trials)

        def stop(outcome):
            raise _StopRun

        with ResultStore(":memory:") as store:
            with pytest.raises(_StopRun):
                StrategySearch(tiny_spec(), store).run(on_candidate=stop)
            assert store.cell_count() == 1
        assert len(batches) == 1

    def test_a_capped_search_claims_its_generations_stored_candidates(self):
        """A shared store's candidates are claimed a generation at a time,
        including stored ones past the point where the budget stops the run."""
        first = tiny_spec(name="first", generations=0)
        second = tiny_spec(name="second", generations=0)
        genomes = StrategySpace(params=TINY_OBJECTIVE.params).warm_start()
        with ResultStore(":memory:") as store:
            checkpoint = SearchCheckpoint(store, first)
            checkpoint.register()
            # "first" evaluated the warm start's candidates 1 and 3 only.
            for index in (1, 3):
                records = run_reduced_trials(
                    TINY_OBJECTIVE.config_for(genomes[index]), seeds=TINY_OBJECTIVE.seeds
                )
                checkpoint.record(genomes[index], 0, checkpoint.key_for(genomes[index]), records)
            result = StrategySearch(second, store).run(max_evaluations=1)
            # Candidate 0 runs, candidate 1 is reused, candidate 2 is past the
            # budget — and candidate 3, stored, was claimed up front anyway.
            assert (result.executed, result.reused, result.complete) == (1, 1, False)
            assert store.completed_keys("second") == {
                checkpoint.key_for(genomes[index]) for index in (0, 1, 3)
            }

    def test_pooled_search_survives_a_worker_crash(self, tmp_path):
        sentinel = str(tmp_path / "crashed-once")
        spec = activation_spec(
            "search_test_crash_once",
            lambda node_count: CrashOnceActivation(count=node_count, sentinel=sentinel),
        )
        with ExecutionPool(workers=2, chunk_size=1) as pool:
            with ResultStore(tmp_path / "pooled.db") as pooled_store:
                result = StrategySearch(spec, pooled_store, pool=pool).run()
                # One crash, one restart, within the default retry budget.
                assert result.complete
                assert pool.starts == 2
                # The sentinel exists now, so a serial run takes the branch
                # the retried chunks took.
                with ResultStore(tmp_path / "serial.db") as serial_store:
                    StrategySearch(spec, serial_store).run()
                    assert list(pooled_store.iter_cells(spec.name)) == list(
                        serial_store.iter_cells(spec.name)
                    )
