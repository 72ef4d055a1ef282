"""Unit tests for cross-process worker telemetry and the live run monitor.

Two properties carry this layer and get the most scrutiny here:

* **merged is deterministic** — :class:`WorkerStatsDelta` merging is purely
  additive, so the parent's ``worker.*`` counters equal the serial ground
  truth for any worker count and any chunk completion order (timing metrics
  excluded — wall time is the one thing that legitimately differs);
* **the monitor observes, never participates** — snapshots are atomic (a
  concurrent reader never sees a torn document), endpoints are read-only, and
  the persisted store is byte-identical with the monitor on or off.
"""

from __future__ import annotations

import json
import os
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass

import pytest

from repro.adversary.activation import StaggeredActivation
from repro.adversary.base import AdversaryContext, InterferenceAdversary
from repro.adversary.registry import ADVERSARY_FACTORIES
from repro.campaigns.runner import CampaignRunner
from repro.campaigns.spec import CampaignSpec
from repro.campaigns.store import ResultStore
from repro.cli import main
from repro.engine.observers import TraceLevel
from repro.engine.plan import ExecutionPlan
from repro.engine.pool import (
    ChunkResult,
    ExecutionPool,
    WorkerCrashError,
    _run_seed_chunk,
    simulate_one,
)
from repro.engine.simulator import SimulationConfig
from repro.exceptions import ConfigurationError
from repro.params import ModelParameters
from repro.protocols.registry import protocol_factory
from repro.telemetry import TELEMETRY_OFF, Telemetry
from repro.telemetry.events import JsonlSink
from repro.telemetry.export import registry_snapshot
from repro.telemetry.metrics import (
    WORKER_SECONDS_BUCKETS,
    MetricsRegistry,
    WorkerStatsDelta,
)
from repro.telemetry.monitor import (
    STATUS_SCHEMA,
    RunMonitor,
    read_status,
    render_status_line,
    validate_status,
)

#: The worker.* counters the determinism tests compare (the chunk-seconds
#: histogram is timing and legitimately varies run to run).
WORKER_COUNTERS = (
    "worker.chunks_completed",
    "worker.trials_executed",
    "worker.rounds_simulated",
    "worker.scalar_trials",
    "worker.batch_trials",
)


def tiny_config() -> SimulationConfig:
    """A small, picklable, trace-free template for pool dispatch."""
    return SimulationConfig(
        params=ModelParameters(frequencies=4, disruption_budget=1, participant_bound=8),
        protocol_factory=protocol_factory("trapdoor"),
        activation=StaggeredActivation(count=3, spacing=2),
        adversary=ADVERSARY_FACTORIES["none"](),
        max_rounds=1_500,
        trace_level=TraceLevel.NONE,
    )


def tiny_campaign(name: str = "mon-campaign") -> CampaignSpec:
    return CampaignSpec(
        name=name,
        protocols=("trapdoor",),
        workloads=("quiet_start",),
        frequencies=(4,),
        budgets=(1,),
        participants=(8,),
        node_counts=(2, 3),
        seeds=2,
        max_rounds=4_000,
    )


def worker_counter_values(registry: MetricsRegistry) -> dict[str, float]:
    snapshot = registry_snapshot(registry)["counters"]
    return {name: snapshot.get(name, 0.0) for name in WORKER_COUNTERS}


def sample_delta(pid: int = 1234, trials: int = 2, rounds: int = 50) -> WorkerStatsDelta:
    return WorkerStatsDelta.for_chunk(
        pid=pid, uptime_s=0.5, trials=trials, rounds=rounds, batched=False, seconds=0.02
    )


class TestWorkerStatsDelta:
    def test_for_chunk_buckets_one_observation(self):
        delta = WorkerStatsDelta.for_chunk(
            pid=1, uptime_s=0.0, trials=3, rounds=30, batched=True, seconds=0.003
        )
        assert len(delta.simulate_seconds_buckets) == len(WORKER_SECONDS_BUCKETS) + 1
        assert sum(delta.simulate_seconds_buckets) == 1
        # 0.001 < 0.003 <= 0.005 lands the observation in the second bucket.
        assert delta.simulate_seconds_buckets[1] == 1
        assert delta.batch_trials == 3 and delta.scalar_trials == 0

    def test_for_chunk_overflows_to_inf_bucket(self):
        delta = WorkerStatsDelta.for_chunk(
            pid=1, uptime_s=0.0, trials=1, rounds=5, batched=False, seconds=1e6
        )
        assert delta.simulate_seconds_buckets[-1] == 1
        assert delta.scalar_trials == 1 and delta.batch_trials == 0

    def test_merge_delta_accumulates(self):
        registry = MetricsRegistry()
        registry.merge_delta(sample_delta(trials=2, rounds=40))
        registry.merge_delta(sample_delta(trials=3, rounds=60))
        values = worker_counter_values(registry)
        assert values["worker.chunks_completed"] == 2
        assert values["worker.trials_executed"] == 5
        assert values["worker.rounds_simulated"] == 100
        histogram = registry.histogram(
            "worker.chunk_simulate_seconds", buckets=WORKER_SECONDS_BUCKETS
        )
        assert histogram.count == 2
        assert histogram.sum == pytest.approx(0.04)

    def test_merge_order_is_irrelevant(self):
        deltas = [
            WorkerStatsDelta.for_chunk(
                pid=100 + index,
                uptime_s=float(index),
                trials=index + 1,
                rounds=10 * index,
                batched=index % 2 == 0,
                seconds=0.001 * (index + 1),
            )
            for index in range(6)
        ]
        forward, backward = MetricsRegistry(), MetricsRegistry()
        for delta in deltas:
            forward.merge_delta(delta)
        for delta in reversed(deltas):
            backward.merge_delta(delta)
        assert registry_snapshot(forward) == registry_snapshot(backward)

    def test_merge_into_conflicting_kind_raises(self):
        registry = MetricsRegistry()
        registry.gauge("worker.trials_executed")
        with pytest.raises(ConfigurationError, match="already registered"):
            registry.merge_delta(sample_delta())

    def test_merge_rejects_foreign_bucket_layout(self):
        registry = MetricsRegistry()
        bad = WorkerStatsDelta(
            pid=1,
            uptime_s=0.0,
            chunks=1,
            trials=1,
            rounds=1,
            scalar_trials=1,
            batch_trials=0,
            simulate_seconds_sum=0.1,
            simulate_seconds_count=1,
            simulate_seconds_buckets=(1,),
        )
        with pytest.raises(ConfigurationError, match="bucket slots"):
            registry.merge_delta(bad)


class TestWorkerDeltaPipeline:
    def test_chunk_result_carries_plain_picklable_stats(self):
        outcome = _run_seed_chunk(tiny_config(), (0, 1), reduce=True)
        assert isinstance(outcome, ChunkResult)
        stats = outcome.stats
        assert stats.pid == os.getpid()
        assert stats.trials == 2
        assert stats.rounds == sum(row.rounds_simulated for row in outcome.rows)
        import pickle

        assert pickle.loads(pickle.dumps(stats)) == stats

    def test_pooled_counters_match_serial_ground_truth_across_worker_counts(self):
        template = tiny_config()
        seeds = list(range(8))
        serial_rounds = sum(
            simulate_one(template, seed).metrics.rounds_simulated for seed in seeds
        )
        observed = []
        for workers in (1, 2):
            telemetry = Telemetry()
            with ExecutionPool(workers=workers, chunk_size=2, telemetry=telemetry) as pool:
                rows = pool.run_seeds(template, seeds, reduce=True)
            assert len(rows) == len(seeds)
            values = worker_counter_values(telemetry.registry)
            assert values["worker.trials_executed"] == len(seeds)
            assert values["worker.rounds_simulated"] == serial_rounds
            assert values["worker.chunks_completed"] == 4
            assert values["worker.scalar_trials"] + values["worker.batch_trials"] == len(seeds)
            observed.append(values)
        # Same multiset of chunks at a pinned chunk size — the merged registry
        # state is identical no matter how many workers raced over it.
        assert observed[0] == observed[1]

    def test_serial_fallback_reports_parent_process_stats(self):
        template = tiny_config()
        # A closure makes the template unpicklable, forcing in-process
        # execution — the stats path must still work and name this process.
        from dataclasses import replace

        unpicklable = replace(
            template, protocol_factory=lambda context: protocol_factory("trapdoor")(context)
        )
        telemetry = Telemetry()
        with ExecutionPool(workers=2, chunk_size=2, telemetry=telemetry) as pool:
            with pytest.warns(RuntimeWarning, match="not picklable"):
                rows = pool.run_seeds(unpicklable, range(4), reduce=True)
        assert len(rows) == 4
        values = worker_counter_values(telemetry.registry)
        assert values["worker.trials_executed"] == 4
        assert pool.worker_stats_for(os.getpid()) is not None

    def test_workers_seen_gauge_counts_distinct_pids(self):
        telemetry = Telemetry()
        with ExecutionPool(workers=2, chunk_size=1, telemetry=telemetry) as pool:
            pool.run_seeds(tiny_config(), range(6), reduce=True)
        seen = registry_snapshot(telemetry.registry)["gauges"]["pool.worker_processes_seen"]
        assert 1 <= seen <= 2


@dataclass(frozen=True)
class PoisonAdversary(InterferenceAdversary):
    """Kills the worker process outright on its first round (see test_pool)."""

    def choose_disruption(self, context: AdversaryContext) -> frozenset:
        os._exit(1)


class TestCrashAttribution:
    def test_crash_event_names_the_dead_worker(self):
        template = SimulationConfig(
            params=ModelParameters(frequencies=4, disruption_budget=1, participant_bound=8),
            protocol_factory=protocol_factory("trapdoor"),
            activation=StaggeredActivation(count=3, spacing=2),
            adversary=PoisonAdversary(),
            max_rounds=5_000,
            trace_level=TraceLevel.NONE,
        )
        telemetry = Telemetry()
        events = []
        telemetry.add_event_tap(events.append)
        # crash_retries=0 keeps this a single-crash scenario: the subject
        # here is attribution, not the retry budget (test_pool covers that).
        with ExecutionPool(
            workers=2, chunk_size=1, crash_retries=0, telemetry=telemetry
        ) as pool:
            with pytest.raises(WorkerCrashError) as excinfo:
                pool.run_seeds(template, range(2), reduce=True)
        crashes = [event for event in events if event.kind == "worker-crash-recovered"]
        assert crashes, "a crash recovery must emit at least one event"
        for crash in crashes:
            assert crash.restarts == 1
            # Best-effort attribution: when the executor's bookkeeping was
            # still inspectable the event names a real pid; either way the
            # uptime is absent or non-negative.
            assert crash.pid is None or isinstance(crash.pid, int)
            assert crash.uptime_s is None or crash.uptime_s >= 0
        if any(crash.pid is not None for crash in crashes):
            assert str(next(c.pid for c in crashes if c.pid is not None)) in str(excinfo.value)

    def test_recover_without_executor_still_emits_generic_event(self):
        telemetry = Telemetry()
        events = []
        telemetry.add_event_tap(events.append)
        pool = ExecutionPool(workers=2, telemetry=telemetry)
        error = pool.recover(RuntimeError("synthetic"))
        assert isinstance(error, WorkerCrashError)
        (crash,) = [event for event in events if event.kind == "worker-crash-recovered"]
        assert crash.pid is None and crash.uptime_s is None


class TestRunMonitor:
    def _live_telemetry(self) -> Telemetry:
        telemetry = Telemetry()
        telemetry.counter("campaign.cells_committed").inc(3)
        telemetry.counter("campaign.cells_reused").inc(1)
        return telemetry

    def test_refuses_disabled_telemetry(self, tmp_path):
        with pytest.raises(ConfigurationError, match="live telemetry"):
            RunMonitor(TELEMETRY_OFF, status_path=tmp_path / "status.json")

    def test_refuses_having_nowhere_to_publish(self):
        with pytest.raises(ConfigurationError, match="status file"):
            RunMonitor(Telemetry())

    def test_rejects_bad_intervals_and_totals(self, tmp_path):
        telemetry = Telemetry()
        path = tmp_path / "status.json"
        with pytest.raises(ConfigurationError, match="interval"):
            RunMonitor(telemetry, status_path=path, interval=0)
        with pytest.raises(ConfigurationError, match="total"):
            RunMonitor(telemetry, status_path=path, total=-1)

    def test_status_document_shape_and_progress(self, tmp_path):
        telemetry = self._live_telemetry()
        path = tmp_path / "status.json"
        with RunMonitor(telemetry, status_path=path, interval=0.02, total=8) as monitor:
            deadline = time.monotonic() + 5.0
            while not path.exists() and time.monotonic() < deadline:
                time.sleep(0.01)
            document = validate_status(json.loads(path.read_text()))
        assert document["schema"] == STATUS_SCHEMA
        assert document["progress"]["done"] == 4.0
        assert document["progress"]["fraction"] == pytest.approx(0.5)
        assert document["final"] is False
        final = validate_status(json.loads(path.read_text()))
        assert final["final"] is True
        assert monitor.running is False
        # stop() detached the monitor's event tap (identity-pinned — a fresh
        # bound method per access would leak the tap forever).
        assert telemetry._taps == ()

    def test_status_surfaces_merged_worker_counters(self, tmp_path):
        telemetry = Telemetry()
        telemetry.registry.merge_delta(sample_delta(trials=4, rounds=90))
        with RunMonitor(telemetry, status_path=tmp_path / "s.json", interval=5.0) as monitor:
            workers = monitor.status()["workers"]
        assert workers["trials_executed"] == 4
        assert workers["rounds_simulated"] == 90
        assert workers["chunks_completed"] == 1

    def test_snapshot_is_never_torn(self, tmp_path):
        telemetry = self._live_telemetry()
        path = tmp_path / "status.json"
        stop = threading.Event()

        def churn():
            counter = telemetry.counter("campaign.cells_committed")
            while not stop.is_set():
                counter.inc()

        writer = threading.Thread(target=churn, daemon=True)
        writer.start()
        try:
            with RunMonitor(telemetry, status_path=path, interval=0.005, total=10**9):
                deadline = time.monotonic() + 2.0
                reads = 0
                while time.monotonic() < deadline:
                    if path.exists():
                        # Atomic replace: every read parses and validates.
                        validate_status(json.loads(path.read_text()))
                        reads += 1
                assert reads > 0
        finally:
            stop.set()
            writer.join()

    def test_http_endpoints(self, tmp_path):
        telemetry = Telemetry(sink=JsonlSink(tmp_path / "events.jsonl"))
        telemetry.counter("campaign.cells_committed").inc(2)
        from repro.telemetry.events import SerialFallback

        telemetry.emit(SerialFallback(detail="test"))
        with RunMonitor(telemetry, port=0, interval=5.0, total=4) as monitor:
            base = f"http://127.0.0.1:{monitor.port}"
            with urllib.request.urlopen(f"{base}/status", timeout=5) as response:
                document = validate_status(json.loads(response.read().decode()))
            assert document["progress"]["done"] == 2.0

            with urllib.request.urlopen(f"{base}/metrics", timeout=5) as response:
                assert response.headers["Content-Type"].startswith("text/plain")
                exposition = response.read().decode()
            assert "repro_campaign_cells_committed_total 2" in exposition
            for line in exposition.splitlines():
                if not line or line.startswith("#"):
                    continue
                name, _, value = line.rpartition(" ")
                assert name
                float(value)  # every sample line ends in a parseable number

            with urllib.request.urlopen(f"{base}/events?n=10", timeout=5) as response:
                lines = response.read().decode().strip().splitlines()
            kinds = [json.loads(line)["kind"] for line in lines]
            assert "serial-fallback" in kinds

            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(f"{base}/nope", timeout=5)
            assert excinfo.value.code == 404
        telemetry.close()

    def test_events_endpoint_404_without_sink(self):
        telemetry = Telemetry()  # no sink attached
        with RunMonitor(telemetry, port=0, interval=5.0) as monitor:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(
                    f"http://127.0.0.1:{monitor.port}/events", timeout=5
                )
            assert excinfo.value.code == 404

    def test_best_candidate_rides_from_events(self, tmp_path):
        from repro.telemetry.events import BestCandidateImproved

        telemetry = Telemetry()
        telemetry.gauge("search.best_score").set(41.5)
        with RunMonitor(
            telemetry,
            status_path=tmp_path / "s.json",
            interval=5.0,
            unit="evaluations",
            best_metric="search.best_score",
        ) as monitor:
            telemetry.emit(
                BestCandidateImproved(
                    search="s", generation=1, index=2, score=41.5,
                    strategy="burst(3)", key="k1",
                )
            )
            best = monitor.status()["best"]
        assert best == {"score": 41.5, "strategy": "burst(3)"}

    def test_monitored_campaign_store_is_byte_identical(self, tmp_path):
        spec = tiny_campaign()
        with ResultStore(tmp_path / "plain.db") as store:
            with CampaignRunner(spec, store) as runner:
                runner.run()
            plain = list(store.iter_cells(spec.name))
        telemetry = Telemetry(sink=JsonlSink(tmp_path / "events.jsonl"))
        with ResultStore(tmp_path / "monitored.db") as store:
            with CampaignRunner(
                spec, store, plan=ExecutionPlan(workers=2, pool_chunk=1), telemetry=telemetry
            ) as runner:
                with RunMonitor(
                    telemetry,
                    status_path=tmp_path / "status.json",
                    port=0,
                    interval=0.01,
                    total=len(spec.cells()),
                ):
                    runner.run()
            monitored = list(store.iter_cells(spec.name))
        telemetry.close()
        assert monitored == plain
        final = validate_status(json.loads((tmp_path / "status.json").read_text()))
        assert final["final"] is True
        assert final["progress"]["done"] == len(spec.cells())
        assert final["workers"]["trials_executed"] > 0


class TestStatusHelpers:
    def _document(self, **overrides):
        document = {
            "schema": STATUS_SCHEMA,
            "final": False,
            "unit": "cells",
            "elapsed_s": 12.0,
            "progress": {"done": 3.0, "total": 10, "fraction": 0.3},
            "throughput": {"ewma_per_s": 1.5, "eta_s": 4.7},
            "best": None,
            "workers": {"restarts": 0},
            "recent_events": [],
        }
        document.update(overrides)
        return document

    def test_validate_rejects_wrong_schema_and_missing_fields(self):
        with pytest.raises(ConfigurationError, match="JSON object"):
            validate_status([1, 2])
        with pytest.raises(ConfigurationError, match="unsupported status schema"):
            validate_status({"schema": "something-else/v9"})
        with pytest.raises(ConfigurationError, match="missing fields"):
            validate_status({"schema": STATUS_SCHEMA})

    def test_read_status_from_file(self, tmp_path):
        path = tmp_path / "status.json"
        path.write_text(json.dumps(self._document()))
        assert read_status(path)["progress"]["done"] == 3.0

    def test_render_line_mentions_the_essentials(self):
        line = render_status_line(
            self._document(
                final=True,
                best={"score": 99.5, "strategy": "burst(2)"},
                workers={"restarts": 2},
            )
        )
        assert "3/10 cells (30.0%)" in line
        assert "1.50 cells/s" in line
        assert "ETA 5s" in line
        assert "2 worker restart(s)" in line
        assert "best 99.5 (burst(2))" in line
        assert "final" in line

    def test_render_line_handles_open_ended_runs(self):
        line = render_status_line(
            self._document(
                progress={"done": 7.0, "total": None, "fraction": None},
                throughput={"ewma_per_s": None, "eta_s": None},
            )
        )
        assert "7 cells" in line
        assert "rate n/a" in line


class TestWatchCli:
    def _final_document(self):
        return {
            "schema": STATUS_SCHEMA,
            "final": True,
            "unit": "cells",
            "progress": {"done": 2.0, "total": 2, "fraction": 1.0},
            "throughput": {"ewma_per_s": 4.0, "eta_s": 0.0},
            "workers": {"restarts": 0},
            "recent_events": [],
        }

    def test_watch_final_file_exits_zero(self, tmp_path, capsys):
        path = tmp_path / "status.json"
        path.write_text(json.dumps(self._final_document()))
        assert main(["monitor", "watch", str(path)]) == 0
        output = capsys.readouterr().out
        assert "2/2 cells" in output and "final" in output

    def test_watch_gives_up_after_max_polls(self, tmp_path, capsys):
        document = self._final_document()
        document["final"] = False
        path = tmp_path / "status.json"
        path.write_text(json.dumps(document))
        assert main(["monitor", "watch", str(path), "--max-polls", "2",
                     "--interval", "0.01"]) == 1
        captured = capsys.readouterr()
        assert captured.out.count("2/2 cells") == 2
        assert "gave up" in captured.err

    def test_watch_missing_target_exits_two(self, tmp_path, capsys):
        assert main(["monitor", "watch", str(tmp_path / "absent.json")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_watch_rejects_wrong_schema(self, tmp_path, capsys):
        path = tmp_path / "status.json"
        path.write_text(json.dumps({"schema": "other/v1"}))
        assert main(["monitor", "watch", str(path)]) == 2
        assert "unsupported status schema" in capsys.readouterr().err

    def test_watch_live_url(self, capsys):
        telemetry = Telemetry()
        telemetry.counter("campaign.cells_committed").inc(1)
        with RunMonitor(telemetry, port=0, interval=5.0, total=4) as monitor:
            code = main(["monitor", "watch", f"http://127.0.0.1:{monitor.port}",
                         "--max-polls", "1", "--interval", "0.01"])
        assert code == 1  # the run never went final within the poll budget
        assert "1/4 cells" in capsys.readouterr().out
