"""Lifecycle, chunking, reduction, and crash-recovery tests for ExecutionPool.

The pool's contract has three legs:

* **bit-identity** — pooled / chunked / reduced execution produces exactly
  the results (and reduced rows) of a serial run, for any chunk size;
* **persistence** — one executor start serves arbitrarily many calls (and
  arbitrarily many ``CampaignRunner.run`` / search invocations);
* **crash safety** — a worker dying mid-batch (a hard ``os._exit``, not a
  Python exception) surfaces as :class:`WorkerCrashError` and the same pool
  object is usable again immediately, on fresh workers.
"""

from __future__ import annotations

import os
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from pathlib import Path

import pytest

from repro.adversary.activation import StaggeredActivation
from repro.adversary.base import AdversaryContext, InterferenceAdversary
from repro.adversary.jammers import RandomJammer
from repro.engine.observers import TraceLevel
from repro.engine.plan import ExecutionPlan
from repro.engine.pool import ExecutionPool, ReducedTrial, WorkerCrashError
from repro.engine.runner import run_reduced_trials, run_trials
from repro.engine.simulator import SimulationConfig
from repro.exceptions import ConfigurationError
from repro.protocols.trapdoor.protocol import TrapdoorProtocol


@pytest.fixture
def batch_config(params):
    return SimulationConfig(
        params=params,
        protocol_factory=TrapdoorProtocol.factory(),
        activation=StaggeredActivation(count=4, spacing=2),
        adversary=RandomJammer(),
        max_rounds=10_000,
        trace_level=TraceLevel.NONE,
    )


@pytest.fixture
def pool():
    with ExecutionPool(workers=2, chunk_size=2) as pool:
        yield pool


#: Both dispatch shapes: a same-template seed batch (``run_seeds``) and a
#: ``config_for_seed`` batch (``run_configs``).
both_dispatches = pytest.mark.parametrize(
    "hook", [None, lambda config, seed: config], ids=["seeds", "configs"]
)


class TestValidation:
    def test_rejects_zero_workers(self):
        with pytest.raises(ConfigurationError):
            ExecutionPool(workers=0)

    def test_rejects_non_positive_chunk(self):
        with pytest.raises(ConfigurationError):
            ExecutionPool(workers=2, chunk_size=0)

    def test_rejects_negative_crash_retries(self):
        with pytest.raises(ConfigurationError):
            ExecutionPool(workers=2, crash_retries=-1)

    def test_construction_is_lazy(self):
        pool = ExecutionPool(workers=2)
        assert not pool.running
        assert pool.starts == 0


class TestChunking:
    def test_explicit_chunk_size_partitions_in_order(self):
        pool = ExecutionPool(workers=2, chunk_size=3)
        assert pool.chunk(list(range(8))) == [(0, 1, 2), (3, 4, 5), (6, 7)]

    def test_automatic_chunking_targets_four_chunks_per_worker(self):
        pool = ExecutionPool(workers=2)
        chunks = pool.chunk(list(range(80)))
        assert len(chunks) == 8
        assert [item for chunk in chunks for item in chunk] == list(range(80))

    def test_small_batches_fall_back_to_single_item_chunks(self):
        pool = ExecutionPool(workers=4)
        assert pool.chunk([1, 2]) == [(1,), (2,)]


class TestBitIdentity:
    def test_pooled_matches_serial_for_every_chunk_size(self, batch_config):
        serial = run_trials(batch_config, seeds=5)
        for chunk_size in (1, 2, 5, None):
            with ExecutionPool(workers=2, chunk_size=chunk_size) as pool:
                pooled = run_trials(batch_config, seeds=5, pool=pool)
            assert pooled.seeds == serial.seeds
            assert pooled.latencies() == serial.latencies()
            for serial_result, pooled_result in zip(serial.results, pooled.results):
                assert pooled_result.metrics == serial_result.metrics
                assert pooled_result.report.violations == serial_result.report.violations

    def test_in_worker_reduction_matches_parent_reduction(self, batch_config, pool):
        summary = run_trials(batch_config, seeds=5)
        reduced = run_reduced_trials(batch_config, seeds=5, pool=pool)
        assert reduced == tuple(
            ReducedTrial.from_result(seed, result)
            for seed, result in zip(summary.seeds, summary.results)
        )

    def test_serial_reduction_matches_pooled_reduction(self, batch_config, pool):
        assert run_reduced_trials(batch_config, seeds=5) == run_reduced_trials(
            batch_config, seeds=5, pool=pool
        )

    def test_explicit_seed_order_is_preserved(self, batch_config, pool):
        reduced = run_reduced_trials(batch_config, seeds=(9, 2, 5), pool=pool)
        assert tuple(trial.seed for trial in reduced) == (9, 2, 5)

    def test_config_hook_routes_through_the_pool_generic_path(self, batch_config, pool):
        hook_seeds = []

        def hook(config, seed):
            hook_seeds.append(seed)
            return config

        serial = run_trials(batch_config, seeds=3, config_for_seed=hook)
        pooled = run_trials(batch_config, seeds=3, config_for_seed=hook, pool=pool)
        assert hook_seeds == [0, 1, 2, 0, 1, 2]  # the hook always runs in the parent
        assert pooled.latencies() == serial.latencies()


class TestPersistence:
    def test_one_start_serves_many_calls(self, batch_config, pool):
        for _ in range(3):
            run_trials(batch_config, seeds=3, pool=pool)
        assert pool.starts == 1

    def test_shutdown_is_idempotent_and_pool_restarts_lazily(self, batch_config):
        pool = ExecutionPool(workers=2)
        run_trials(batch_config, seeds=2, pool=pool)
        pool.shutdown()
        pool.shutdown()
        assert not pool.running
        summary = run_trials(batch_config, seeds=2, pool=pool)
        assert summary.trials == 2
        assert pool.starts == 2
        pool.shutdown()


class TestUnpicklableFallback:
    def test_closure_template_degrades_to_serial_with_warning(self, params, pool):
        config = SimulationConfig(
            params=params,
            protocol_factory=lambda context: TrapdoorProtocol(context),
            activation=StaggeredActivation(count=3, spacing=2),
            adversary=RandomJammer(),
            max_rounds=10_000,
        )
        serial = run_trials(config, seeds=2)
        with pytest.warns(RuntimeWarning, match="not picklable"):
            fallback = run_trials(config, seeds=2, pool=pool)
        assert fallback.latencies() == serial.latencies()
        assert not pool.running  # nothing was ever dispatched


@dataclass(frozen=True)
class PoisonAdversary(InterferenceAdversary):
    """Kills the worker process outright on its first round.

    ``os._exit`` bypasses every Python-level handler — what an OOM kill or a
    segfault looks like from the parent's side — so it exercises the
    BrokenProcessPool path rather than ordinary exception propagation.  The
    adversary is a picklable dataclass on purpose: the batch must *reach* the
    workers (an unpicklable poison would just take the serial fallback, and
    running it in-process would kill the test itself).
    """

    def choose_disruption(self, context: AdversaryContext) -> frozenset:
        os._exit(1)


@dataclass(frozen=True)
class CrashOnceAdversary(InterferenceAdversary):
    """Kills the first worker to run it, then behaves like no interference.

    The sentinel file is created *before* ``os._exit``, so every later
    attempt — the pool's automatic retry, or a serial comparison run — sees
    it and chooses no disruption: one deterministic crash, then a clean
    deterministic execution, which is exactly what the retry budget exists
    to absorb.
    """

    sentinel: str

    def choose_disruption(self, context: AdversaryContext) -> frozenset:
        if not os.path.exists(self.sentinel):
            Path(self.sentinel).touch()
            os._exit(1)
        return frozenset()


class TestCrashRecovery:
    def _poison_config(self, params):
        return SimulationConfig(
            params=params,
            protocol_factory=TrapdoorProtocol.factory(),
            activation=StaggeredActivation(count=3, spacing=2),
            adversary=PoisonAdversary(),
            max_rounds=5_000,
            trace_level=TraceLevel.NONE,
        )

    def test_worker_crash_raises_and_pool_recovers(self, params, batch_config):
        with ExecutionPool(workers=2, chunk_size=1) as pool:
            healthy = run_trials(batch_config, seeds=3, pool=pool)
            assert pool.starts == 1
            with pytest.raises(WorkerCrashError, match="crashed mid-batch"):
                run_trials(self._poison_config(params), seeds=3, pool=pool)
            # An always-crashing batch burns the full default retry budget:
            # one executor restart per retry round (starts 2 and 3), then the
            # third crash exhausts the budget and raises.  The broken
            # executor was discarded either way; the same pool object works
            # again on fresh workers, bit-identically.
            assert not pool.running
            again = run_trials(batch_config, seeds=3, pool=pool)
            assert pool.starts == 4
            assert again.latencies() == healthy.latencies()

    def test_crash_during_reduction_recovers_too(self, params, batch_config):
        with ExecutionPool(workers=2, chunk_size=1, crash_retries=0) as pool:
            with pytest.raises(WorkerCrashError):
                run_reduced_trials(self._poison_config(params), seeds=2, pool=pool)
            reduced = run_reduced_trials(batch_config, seeds=2, pool=pool)
            assert reduced == run_reduced_trials(batch_config, seeds=2)


class TestCrashRetry:
    def _crash_once_config(self, params, tmp_path):
        return SimulationConfig(
            params=params,
            protocol_factory=TrapdoorProtocol.factory(),
            activation=StaggeredActivation(count=3, spacing=2),
            adversary=CrashOnceAdversary(sentinel=str(tmp_path / "crashed-once")),
            max_rounds=5_000,
            trace_level=TraceLevel.NONE,
        )

    def test_retry_completes_the_batch_after_a_single_crash(self, params, tmp_path):
        config = self._crash_once_config(params, tmp_path)
        with ExecutionPool(workers=2, chunk_size=1) as pool:
            summary = run_trials(config, seeds=3, pool=pool)
            # One crash, one retry round, no error surfaced to the caller.
            assert pool.starts == 2
        assert summary.trials == 3
        # The sentinel exists now, so a serial run takes the quiet branch —
        # the retried batch must match it bit-for-bit.
        serial = run_trials(config, seeds=3)
        assert summary.latencies() == serial.latencies()
        for pooled_result, serial_result in zip(summary.results, serial.results):
            assert pooled_result.metrics == serial_result.metrics

    def test_zero_retries_restores_fail_fast(self, params, tmp_path):
        config = self._crash_once_config(params, tmp_path)
        with ExecutionPool(workers=2, chunk_size=1, crash_retries=0) as pool:
            with pytest.raises(WorkerCrashError):
                run_trials(config, seeds=3, pool=pool)
            assert pool.starts == 1

    def test_retry_counts_land_in_telemetry(self, params, tmp_path):
        from repro.telemetry import Telemetry

        telemetry = Telemetry()
        config = self._crash_once_config(params, tmp_path)
        with ExecutionPool(workers=2, chunk_size=1, telemetry=telemetry) as pool:
            run_trials(config, seeds=3, pool=pool)
        snapshot = telemetry.snapshot()
        assert snapshot["counters"]["pool.worker_restarts"] == 1
        # The crash broke the whole executor, so every not-yet-consumed chunk
        # of the batch was re-dispatched together.
        assert snapshot["counters"]["pool.chunk_retries"] >= 1
        assert snapshot["counters"]["events.chunk-retried"] >= 1

    def test_reduced_rows_survive_a_retry(self, params, tmp_path):
        config = self._crash_once_config(params, tmp_path)
        with ExecutionPool(workers=2, chunk_size=1) as pool:
            reduced = run_reduced_trials(config, seeds=2, pool=pool)
        assert reduced == run_reduced_trials(config, seeds=2)

    @both_dispatches
    def test_parallel_plan_without_a_pool_retries_too(self, params, tmp_path, hook):
        # The temporary pool a parallel plan opens has the same retry budget
        # as a caller's pool — for template batches and config_for_seed ones.
        config = self._crash_once_config(params, tmp_path)
        summary = run_trials(
            config, seeds=3, config_for_seed=hook, plan=ExecutionPlan(workers=2)
        )
        serial = run_trials(config, seeds=3, config_for_seed=hook)
        assert summary.latencies() == serial.latencies()
        for parallel_result, serial_result in zip(summary.results, serial.results):
            assert parallel_result.metrics == serial_result.metrics


def script_executors(monkeypatch, behaviours):
    """Replace the pool's executor with in-process stubs, one per start.

    ``behaviours[i]`` scripts the i-th executor: ``"crash"`` fails every
    submitted future with ``BrokenProcessPool`` (a worker died mid-batch),
    an int ``k`` makes its k-th ``submit`` raise ``BrokenProcessPool`` (the
    executor broke while chunks were being submitted), and ``"run"`` runs
    each chunk in-process.  No worker process is involved, so the crash
    sequence is exact.
    """
    script = iter(behaviours)

    class ScriptedExecutor:
        def __init__(self, max_workers):
            self.behaviour = next(script)
            self.submits = 0

        def submit(self, fn, *args):
            self.submits += 1
            if self.behaviour == self.submits:
                raise BrokenProcessPool("executor broke mid-submit")
            future = Future()
            if self.behaviour == "crash":
                future.set_exception(BrokenProcessPool("a worker crashed"))
            else:
                future.set_result(fn(*args))
            return future

        def shutdown(self, wait=True, cancel_futures=False):
            pass

    monkeypatch.setattr("repro.engine.pool.ProcessPoolExecutor", ScriptedExecutor)


class TestBrokenResubmission:
    def test_counts_as_one_failed_attempt_not_a_raise(self, monkeypatch, batch_config):
        # Start 1: the batch crashes.  Start 2: the executor breaks on the
        # second chunk of the resubmission.  Start 3: the retry completes.
        script_executors(monkeypatch, ["crash", 2, "run"])
        with ExecutionPool(workers=2, chunk_size=1) as pool:
            summary = run_trials(batch_config, seeds=3, pool=pool)
            assert pool.starts == 3
        serial = run_trials(batch_config, seeds=3)
        assert [r.metrics for r in summary.results] == [r.metrics for r in serial.results]

    def test_spends_the_budget(self, monkeypatch, batch_config):
        script_executors(monkeypatch, ["crash", 2, "run"])
        with ExecutionPool(workers=2, chunk_size=1, crash_retries=1) as pool:
            with pytest.raises(WorkerCrashError, match="executor broke mid-submit"):
                run_trials(batch_config, seeds=3, pool=pool)
            assert pool.starts == 2
            assert not pool.running

    @both_dispatches
    def test_broken_first_submit_is_a_retry(self, monkeypatch, batch_config, hook):
        # Start 1 is already broken when the batch's first chunk is submitted
        # (a worker died since the last call).  Start 2 runs the batch.
        from repro.telemetry import Telemetry

        script_executors(monkeypatch, [1, "run"])
        telemetry = Telemetry()
        with ExecutionPool(workers=2, chunk_size=1, telemetry=telemetry) as pool:
            summary = run_trials(batch_config, seeds=3, config_for_seed=hook, pool=pool)
            assert pool.starts == 2
        counters = telemetry.snapshot()["counters"]
        assert counters["pool.chunk_retries"] == 3
        assert counters["events.chunk-retried"] == 1
        serial = run_trials(batch_config, seeds=3, config_for_seed=hook)
        assert [r.metrics for r in summary.results] == [r.metrics for r in serial.results]

    @both_dispatches
    def test_broken_first_submit_without_budget_raises(self, monkeypatch, batch_config, hook):
        script_executors(monkeypatch, [1, "run"])
        with ExecutionPool(workers=2, chunk_size=1, crash_retries=0) as pool:
            with pytest.raises(WorkerCrashError, match="executor broke mid-submit"):
                run_trials(batch_config, seeds=3, config_for_seed=hook, pool=pool)
            assert pool.starts == 1
            assert not pool.running

    def test_crash_in_a_multi_batch_drain_keeps_finished_chunks(self, monkeypatch, batch_config):
        # The second batch is unpicklable, so it ran in-process behind
        # finished futures; the crash re-dispatches only the first batch's
        # chunks, and both batches still come back in order.
        script_executors(monkeypatch, ["crash", "run"])
        closure = replace(batch_config, protocol_factory=lambda context: TrapdoorProtocol(context))
        with ExecutionPool(workers=2, chunk_size=1) as pool:
            with pytest.warns(RuntimeWarning, match="not picklable"):
                rows = list(pool.iter_reduced([(batch_config, (0, 1)), (closure, (2,))]))
            assert pool.starts == 2
        assert rows == [
            list(run_reduced_trials(batch_config, seeds=(0, 1))),
            list(run_reduced_trials(closure, seeds=(2,))),
        ]
