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
import subprocess
import sys
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

    @pytest.mark.parametrize(
        "kwargs,named",
        [
            ({"workers": 2.0}, "workers"),
            ({"workers": True}, "workers"),
            ({"workers": 2, "chunk_size": 2.5}, "chunk_size"),
            ({"workers": 2, "chunk_size": True}, "chunk_size"),
            ({"workers": 2, "crash_retries": 1.5}, "crash_retries"),
            ({"workers": 2, "crash_retries": False}, "crash_retries"),
        ],
    )
    def test_rejects_non_integer_settings_at_construction(self, kwargs, named):
        with pytest.raises(ConfigurationError, match=named):
            ExecutionPool(**kwargs)

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

    def test_a_small_group_merges_across_batches(self, monkeypatch, batch_config):
        # A service campaign job: 4 cells x 2 seeds on 2 workers go out as
        # 2 chunks of 4 seeds, each spanning two cells.
        from repro.telemetry import Telemetry

        script_executors(monkeypatch, ["run"])
        telemetry = Telemetry()
        events = []
        telemetry.add_event_tap(events.append)
        cells = [replace(batch_config, max_rounds=rounds) for rounds in (900, 1_000, 1_100, 1_200)]
        group = [(cell, (2 * index, 2 * index + 1)) for index, cell in enumerate(cells)]
        with ExecutionPool(workers=2, telemetry=telemetry) as pool:
            rows = list(pool.iter_reduced(group))
        counters = telemetry.snapshot()["counters"]
        assert (counters["pool.chunks_dispatched"], counters["pool.trials_dispatched"]) == (2, 8)
        dispatched = [event for event in events if event.kind == "chunk-dispatched"]
        assert [(event.chunk_index, event.size) for event in dispatched] == [(0, 4), (1, 4)]
        assert rows == [list(run_reduced_trials(cell, seeds=seeds)) for cell, seeds in group]

    def test_small_batches_split_evenly_over_the_workers(self):
        pool = ExecutionPool(workers=2)

        def held(sizes):
            return [sum(stop - start for _, start, stop in chunk) for chunk in pool._cut(sizes)]

        # A one-candidate search group of 4 seeds still reaches both workers.
        assert pool._cut([4]) == [[(0, 0, 2)], [(0, 2, 4)]]
        assert pool.chunk([0, 1, 2, 3]) == [(0, 1), (2, 3)]
        # 4 cells x 2 seeds: two chunks of two whole cells each.
        assert pool._cut([2, 2, 2, 2]) == [
            [(0, 0, 2), (1, 0, 2)],
            [(2, 0, 2), (3, 0, 2)],
        ]
        # 12 or 18 seeds as cells, candidates or one batch: a chunk count
        # the two workers share evenly, so equal trials take 6 and 9
        # trial-times, as they do with one seed per chunk.
        for sizes in ([2] * 6, [4] * 3, [12]):
            assert held(sizes) == [3, 3, 3, 3]
        assert pool._cut([4, 4, 4])[1] == [(0, 3, 4), (1, 0, 2)]
        assert held([2] * 9) == held([18]) == [3] * 6
        # 20 seeds: the larger chunks first, 10 trial-times.
        assert held([2] * 10) == held([20]) == [4, 4, 3, 3, 3, 3]
        # 1,000 cells x 2 seeds: 4-seed chunks, so a commit every 2 cells.
        chunks = pool._cut([2] * 1_000)
        assert len(chunks) == 500
        assert all(sum(stop - start for _, start, stop in chunk) == 4 for chunk in chunks)
        # A batch cut into 4-seed pieces anyway splits the runs around it.
        assert held([2, 2, 32, 2]) == [2, 2] + [4] * 8 + [1, 1]

    def test_one_large_batch_is_not_merged(self):
        chunks = ExecutionPool(workers=2).chunk(list(range(128)))
        assert [len(chunk) for chunk in chunks] == [16] * 8
        assert [seed for chunk in chunks for seed in chunk] == list(range(128))

    def test_an_explicit_chunk_size_is_never_merged(self):
        pool = ExecutionPool(workers=2, chunk_size=1)
        assert pool._cut([2, 2]) == [[(0, 0, 1)], [(0, 1, 2)], [(1, 0, 1)], [(1, 1, 2)]]
        assert ExecutionPool(workers=2, chunk_size=3)._cut([2, 4]) == [
            [(0, 0, 2)],
            [(1, 0, 3)],
            [(1, 3, 4)],
        ]

    def test_an_unpicklable_batch_joins_no_chunk(self):
        pool = ExecutionPool(workers=1)
        assert pool._cut([1, 1, 1, 1], alone={1}) == [
            [(0, 0, 1)],
            [(1, 0, 1)],
            [(2, 0, 1), (3, 0, 1)],
        ]


class TestEngineChoice:
    def test_the_kernel_loads_only_for_a_segment_at_the_floor(self):
        """Below ``_KERNEL_FLOOR`` seeds no path imports the kernel module.

        Serial, pooled and grouped dispatches of a batchable template one
        seed short of the floor run on the scalar loop; the first segment
        at the floor loads the kernel.  A fresh interpreter, because this
        test session has loaded it long ago.
        """
        script = """
import sys
from repro.engine.observers import TraceLevel
from repro.engine.pool import _KERNEL_FLOOR, ExecutionPool, seed_rows
from repro.engine.simulator import SimulationConfig
from repro.experiments.workloads import quiet_start
from repro.params import ModelParameters
from repro.protocols.registry import protocol_factory

workload = quiet_start(3)
config = SimulationConfig(
    params=ModelParameters(frequencies=4, disruption_budget=1, participant_bound=8),
    protocol_factory=protocol_factory("trapdoor"),
    activation=workload.activation,
    adversary=workload.adversary,
    max_rounds=2_000,
    trace_level=TraceLevel.NONE,
)
below = tuple(range(_KERNEL_FLOOR - 1))
seed_rows(config, below, True)
with ExecutionPool(workers=1) as pool:
    pool.run_seeds(config, below, reduce=True)
    list(pool.iter_reduced([(config, below)] * 3))
assert "repro.engine.batch" not in sys.modules, "loaded below the floor"
seed_rows(config, range(_KERNEL_FLOOR), True)
assert "repro.engine.batch" in sys.modules
"""
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[2] / "src")}
        subprocess.run([sys.executable, "-c", script], check=True, env=env, timeout=120)


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

    def test_parallel_plan_without_a_pool_retries_too(self, params, tmp_path):
        # The temporary pool a parallel plan opens has the same retry budget
        # as a caller's pool.
        config = self._crash_once_config(params, tmp_path)
        summary = run_trials(config, seeds=3, plan=ExecutionPlan(workers=2))
        serial = run_trials(config, seeds=3)
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

    def test_broken_first_submit_is_a_retry(self, monkeypatch, batch_config):
        # Start 1 is already broken when the batch's first chunk is submitted
        # (a worker died since the last call).  Start 2 runs the batch.
        from repro.telemetry import Telemetry

        script_executors(monkeypatch, [1, "run"])
        telemetry = Telemetry()
        with ExecutionPool(workers=2, chunk_size=1, telemetry=telemetry) as pool:
            summary = run_trials(batch_config, seeds=3, pool=pool)
            assert pool.starts == 2
        counters = telemetry.snapshot()["counters"]
        assert counters["pool.chunk_retries"] == 3
        assert counters["events.chunk-retried"] == 1
        serial = run_trials(batch_config, seeds=3)
        assert [r.metrics for r in summary.results] == [r.metrics for r in serial.results]

    def test_broken_first_submit_without_budget_raises(self, monkeypatch, batch_config):
        script_executors(monkeypatch, [1, "run"])
        with ExecutionPool(workers=2, chunk_size=1, crash_retries=0) as pool:
            with pytest.raises(WorkerCrashError, match="executor broke mid-submit"):
                run_trials(batch_config, seeds=3, pool=pool)
            assert pool.starts == 1
            assert not pool.running

    def test_a_crash_inside_a_multi_cell_chunk_redispatches_it(self, params, batch_config, tmp_path):
        # Automatic chunking puts the crashing cell's seeds in one chunk with
        # a healthy cell's: the worker dies mid-chunk, the chunk goes out
        # again on fresh workers, and every cell's rows come back in order.
        from repro.telemetry import Telemetry

        crashing = replace(
            batch_config, adversary=CrashOnceAdversary(sentinel=str(tmp_path / "crashed-once"))
        )
        group = [
            (batch_config, (0, 1)),
            (crashing, (2, 3)),
            (batch_config, (4, 5)),
            (batch_config, (6, 7)),
        ]
        telemetry = Telemetry()
        with ExecutionPool(workers=2, telemetry=telemetry) as pool:
            assert pool._cut([2, 2, 2, 2]) == [
                [(0, 0, 2), (1, 0, 2)],
                [(2, 0, 2), (3, 0, 2)],
            ]
            rows = list(pool.iter_reduced(group))
            assert pool.starts == 2
        assert telemetry.snapshot()["counters"]["pool.chunk_retries"] >= 1
        assert rows == [list(run_reduced_trials(cell, seeds=seeds)) for cell, seeds in group]

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
