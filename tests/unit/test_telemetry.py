"""Unit tests for the telemetry subsystem and its instrumentation points.

Two properties carry the whole design and get the most scrutiny here:

* **off is free** — every disabled lookup returns a *shared* no-op singleton
  (identity-pinned below), emits nothing, and allocates nothing per call;
* **on is inert** — a live handle observes orchestration without changing it:
  stores, checkpoints, and scores are byte-identical with telemetry on or off
  (the full golden-digest matrix is pinned in ``test_engine_equivalence.py``;
  the store-level comparisons live here).
"""

from __future__ import annotations

import json
import logging

import pytest

from repro.campaigns.runner import CampaignRunner
from repro.campaigns.spec import CampaignSpec
from repro.campaigns.store import ResultStore
from repro.engine.plan import ExecutionPlan
from repro.exceptions import ConfigurationError
from repro.search.checkpoint import SearchSpec
from repro.search.objective import SearchObjective
from repro.search.runner import StrategySearch
from repro.telemetry import TELEMETRY_OFF, DisabledTelemetry, Telemetry, as_telemetry
from repro.telemetry.events import (
    EVENT_TYPES,
    JsonlSink,
    SerialFallback,
    TelemetryEvent,
    read_jsonl_events,
)
from repro.telemetry.export import (
    registry_snapshot,
    render_prometheus,
    write_metrics_json,
)
from repro.telemetry.metrics import (
    NULL_COUNTER,
    NULL_GAUGE,
    NULL_HISTOGRAM,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.telemetry.spans import NULL_SPAN, NullSpan


def tiny_config(trace_level=None):
    """A small, picklable simulation template for pool dispatch tests."""
    from repro.adversary.activation import StaggeredActivation
    from repro.adversary.registry import ADVERSARY_FACTORIES
    from repro.engine.observers import TraceLevel
    from repro.engine.simulator import SimulationConfig
    from repro.params import ModelParameters
    from repro.protocols.registry import protocol_factory

    return SimulationConfig(
        params=ModelParameters(frequencies=4, disruption_budget=1, participant_bound=8),
        protocol_factory=protocol_factory("trapdoor"),
        activation=StaggeredActivation(count=4, spacing=3),
        adversary=ADVERSARY_FACTORIES["none"](),
        max_rounds=1_500,
        seed=11,
        trace_level=trace_level if trace_level is not None else TraceLevel.FULL,
    )


def tiny_campaign(name: str = "tel-campaign") -> CampaignSpec:
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


def tiny_search(name: str = "tel-search") -> SearchSpec:
    return SearchSpec(
        name=name,
        objective=SearchObjective(
            protocol="trapdoor",
            workload="quiet_start",
            frequencies=4,
            budget=1,
            participants=8,
            node_count=2,
            seeds=(0, 1),
            max_rounds=4_000,
        ),
        optimizer="hill-climb",
        population=2,
        generations=1,
        master_seed=7,
    )


def store_contents(store: ResultStore, name: str) -> list:
    """Everything a campaign/search persisted, in deterministic order."""
    return list(store.iter_cells(name))


class TestMetrics:
    def test_counter_accumulates_and_rejects_decrease(self):
        counter = Counter("c", help="test")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        with pytest.raises(ConfigurationError, match="cannot decrease"):
            counter.inc(-1)

    def test_gauge_moves_both_ways(self):
        gauge = Gauge("g")
        gauge.set(5)
        gauge.inc(2)
        gauge.dec(4)
        assert gauge.value == 3.0

    def test_histogram_buckets_observations(self):
        histogram = Histogram("h", buckets=(1.0, 10.0))
        for value in (0.5, 1.0, 5.0, 100.0):
            histogram.observe(value)
        # <=1.0 twice (0.5 and the boundary 1.0), <=10 once, +Inf once.
        assert histogram.bucket_counts() == (2, 1, 1)
        assert histogram.sum == 106.5
        assert histogram.count == 4

    def test_histogram_rejects_bad_buckets(self):
        with pytest.raises(ConfigurationError, match="at least one bucket"):
            Histogram("h", buckets=())
        with pytest.raises(ConfigurationError, match="strictly increasing"):
            Histogram("h", buckets=(1.0, 1.0))

    def test_registry_lookups_are_idempotent(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.gauge("b") is registry.gauge("b")
        assert registry.histogram("c") is registry.histogram("c")
        assert len(registry) == 3
        assert "a" in registry

    def test_registry_rejects_kind_and_bucket_conflicts(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ConfigurationError, match="already registered as counter"):
            registry.gauge("x")
        with pytest.raises(ConfigurationError, match="not histogram"):
            registry.histogram("x")
        registry.histogram("h", buckets=(1.0, 2.0))
        with pytest.raises(ConfigurationError, match="buckets"):
            registry.histogram("h", buckets=(1.0, 3.0))

    def test_instruments_iterate_in_name_order(self):
        registry = MetricsRegistry()
        registry.counter("zeta")
        registry.gauge("alpha")
        assert [instrument.name for instrument in registry.instruments()] == ["alpha", "zeta"]


class TestDisabledPath:
    """The no-op fast path: shared singletons, zero emission."""

    def test_none_resolves_to_the_shared_disabled_handle(self):
        assert as_telemetry(None) is TELEMETRY_OFF
        live = Telemetry()
        assert as_telemetry(live) is live
        assert TELEMETRY_OFF.enabled is False
        assert live.enabled is True

    def test_disabled_instruments_are_shared_singletons(self):
        # Identity, not equality: every name, every call, one object each.
        assert TELEMETRY_OFF.counter("pool.chunks") is NULL_COUNTER
        assert TELEMETRY_OFF.counter("anything.else") is NULL_COUNTER
        assert TELEMETRY_OFF.gauge("g") is NULL_GAUGE
        assert TELEMETRY_OFF.histogram("h") is NULL_HISTOGRAM
        assert TELEMETRY_OFF.span("s") is NULL_SPAN
        assert TELEMETRY_OFF.span("other", attr=1) is NULL_SPAN

    def test_null_instruments_discard_everything(self):
        NULL_COUNTER.inc(5)
        NULL_GAUGE.set(3)
        NULL_GAUGE.inc()
        NULL_GAUGE.dec()
        NULL_HISTOGRAM.observe(1.0)
        assert NULL_COUNTER.value == 0.0
        assert NULL_GAUGE.value == 0.0
        assert NULL_HISTOGRAM.count == 0
        with NULL_SPAN as span:
            span.annotate(ignored=True)
        assert isinstance(span, NullSpan)
        assert span.seconds is None

    def test_disabled_handle_emits_and_exports_nothing(self):
        TELEMETRY_OFF.emit(SerialFallback(detail="ignored"))
        assert TELEMETRY_OFF.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}
        assert TELEMETRY_OFF.prometheus() == ""
        assert TELEMETRY_OFF.sink is None
        with pytest.raises(AttributeError):
            TELEMETRY_OFF.registry
        TELEMETRY_OFF.flush()
        TELEMETRY_OFF.close()

    def test_disabled_handle_is_a_telemetry(self):
        # Call sites type against Telemetry; the disabled handle must satisfy it.
        assert isinstance(TELEMETRY_OFF, Telemetry)
        assert isinstance(TELEMETRY_OFF, DisabledTelemetry)


class TestEventsAndSink:
    def test_every_event_kind_is_unique_and_registered(self):
        kinds = [event_type.kind for event_type in EVENT_TYPES.values()]
        assert len(kinds) == len(set(kinds))
        assert all(issubclass(t, TelemetryEvent) for t in EVENT_TYPES.values())

    def test_events_carry_monotonic_timestamps(self):
        first = SerialFallback(detail=None)
        second = SerialFallback(detail=None)
        assert second.monotonic_s >= first.monotonic_s
        record = first.to_dict()
        assert record["kind"] == "serial-fallback"
        assert record["detail"] is None

    #: A sample value per field annotation of the event classes; a span's
    #: attributes nest dicts, lists and tuples.
    SAMPLE_VALUES = {
        "str": "text",
        "int": 3,
        "float": 0.25,
        "bool": True,
        "Optional[str]": None,
        "Optional[int]": 7,
        "Optional[float]": 1.5,
        "Mapping[str, Any]": {"cell": "k", "seeds": [1, 2, {"nested": [3, (4, 5)]}], "rows": 2},
    }

    @pytest.mark.parametrize("event_type", list(EVENT_TYPES.values()), ids=list(EVENT_TYPES))
    def test_to_dict_equals_asdict_and_copies_containers(self, event_type):
        import copy
        from dataclasses import asdict, fields

        values = {
            item.name: copy.deepcopy(self.SAMPLE_VALUES[item.type])
            for item in fields(event_type)
            if item.name != "monotonic_s"
        }
        event = event_type(**values)
        record = event.to_dict()
        reference = {"kind": event_type.kind, **asdict(event)}
        assert record == reference
        assert list(record) == list(reference)
        # Mutating every container of the record leaves the event as it was.
        for value in record.values():
            if isinstance(value, dict):
                value["seeds"][2]["nested"].append(6)
                value["added"] = True
        assert event.to_dict() == reference

    def test_sink_buffers_until_threshold(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with JsonlSink(path, buffer_size=3) as sink:
            sink.emit(SerialFallback(detail="a"))
            sink.emit(SerialFallback(detail="b"))
            assert sink.buffered == 2
            assert path.read_text(encoding="utf-8") == ""
            sink.emit(SerialFallback(detail="c"))  # hits the threshold
            assert sink.buffered == 0
            assert len(path.read_text(encoding="utf-8").splitlines()) == 3
        records = read_jsonl_events(path)
        assert [record["seq"] for record in records] == [0, 1, 2]
        assert [record["detail"] for record in records] == ["a", "b", "c"]

    def test_sink_rejects_use_after_close_and_bad_buffer(self, tmp_path):
        sink = JsonlSink(tmp_path / "s.jsonl")
        sink.close()
        sink.close()  # idempotent
        assert sink.closed
        with pytest.raises(ConfigurationError, match="closed"):
            sink.emit(SerialFallback(detail=None))
        with pytest.raises(ConfigurationError, match="buffer_size"):
            JsonlSink(tmp_path / "t.jsonl", buffer_size=0)

    def test_read_back_detects_gaps(self, tmp_path):
        path = tmp_path / "gappy.jsonl"
        path.write_text('{"seq": 0}\n{"seq": 2}\n', encoding="utf-8")
        with pytest.raises(ConfigurationError, match="gapless"):
            read_jsonl_events(path)

    def test_emit_counts_per_kind_even_without_a_sink(self):
        telemetry = Telemetry()
        telemetry.emit(SerialFallback(detail=None))
        telemetry.emit(SerialFallback(detail=None))
        assert telemetry.snapshot()["counters"]["events.serial-fallback"] == 2

    def test_sink_rotates_at_max_bytes_and_read_back_stitches(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with JsonlSink(path, buffer_size=1, max_bytes=200) as sink:
            emitted = 12
            for index in range(emitted):
                sink.emit(SerialFallback(detail=f"event-{index:02d}"))
            assert sink.rotations >= 1
            assert sink.rotated_path.exists()
        # Stitched read-back: the .1 predecessor plus the live file come back
        # as one gapless stream in emission order.  Only one predecessor is
        # kept, so after several rotations the stream is the newest gapless
        # suffix of the run, always ending at the last emitted event.
        records = read_jsonl_events(path)
        sequence = [record["seq"] for record in records]
        assert sequence == list(range(sequence[0], emitted))
        assert [record["detail"] for record in records] == [
            f"event-{index:02d}" for index in sequence
        ]
        # Only one predecessor is kept, so the pair stays near the byte bound.
        assert len(path.read_bytes()) <= 200
        assert len(sink.rotated_path.read_bytes()) <= 200

    def test_sink_rejects_bad_max_bytes(self, tmp_path):
        with pytest.raises(ConfigurationError, match="max_bytes"):
            JsonlSink(tmp_path / "r.jsonl", max_bytes=0)

    def test_rotated_stream_with_dropped_predecessor_still_reads(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with JsonlSink(path, buffer_size=1, max_bytes=200) as sink:
            for index in range(12):
                sink.emit(SerialFallback(detail=str(index)))
            assert sink.rotations >= 2  # at least one rotation overwrote .1
        sink.rotated_path.unlink()
        # Without the predecessor the live file alone is no longer seq-0-based,
        # which read_jsonl_events must flag rather than silently truncate.
        with pytest.raises(ConfigurationError, match="gapless"):
            read_jsonl_events(path)

    def test_worker_crash_event_carries_pid_and_uptime(self):
        from repro.telemetry.events import WorkerCrashRecovered

        record = WorkerCrashRecovered(
            detail="boom", restarts=2, pid=4242, uptime_s=1.25
        ).to_dict()
        assert record["pid"] == 4242
        assert record["uptime_s"] == 1.25
        # Both fields default to None: attribution is best-effort.
        bare = WorkerCrashRecovered(detail="boom", restarts=1)
        assert bare.pid is None and bare.uptime_s is None

    def test_event_taps_fan_out_and_detach(self):
        telemetry = Telemetry()
        seen: list[TelemetryEvent] = []
        # Taps detach by identity, so hold one reference (a fresh bound
        # method each access would never match).
        tap = seen.append
        telemetry.add_event_tap(tap)
        first = SerialFallback(detail="a")
        telemetry.emit(first)
        telemetry.remove_event_tap(tap)
        telemetry.emit(SerialFallback(detail="b"))
        assert seen == [first]
        telemetry.remove_event_tap(tap)  # removing again is a no-op

    def test_disabled_handle_refuses_event_taps(self):
        with pytest.raises(ConfigurationError, match="disabled telemetry"):
            TELEMETRY_OFF.add_event_tap(lambda event: None)
        TELEMETRY_OFF.remove_event_tap(lambda event: None)  # no-op, no raise


class TestSpans:
    def test_spans_nest_with_depth_and_parent(self, tmp_path):
        telemetry = Telemetry.to_jsonl(tmp_path / "spans.jsonl")
        with telemetry.span("outer"):
            with telemetry.span("inner", detail=1) as inner:
                inner.annotate(extra="late")
        telemetry.close()
        records = read_jsonl_events(tmp_path / "spans.jsonl")
        inner_record, outer_record = records  # inner closes first
        assert inner_record["name"] == "inner"
        assert inner_record["depth"] == 1
        assert inner_record["parent"] == "outer"
        assert inner_record["attributes"] == {"detail": 1, "extra": "late"}
        assert outer_record["name"] == "outer"
        assert outer_record["depth"] == 0
        assert outer_record["parent"] is None
        # Inner time is contained in outer time.
        assert 0 <= inner_record["seconds"] <= outer_record["seconds"]

    def test_span_durations_land_in_histograms(self):
        telemetry = Telemetry()
        with telemetry.span("phase"):
            pass
        snapshot = telemetry.snapshot()
        assert snapshot["histograms"]["span.phase.seconds"]["count"] == 1


class TestExport:
    def test_snapshot_partitions_by_instrument_kind(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(2)
        registry.gauge("g").set(1.5)
        registry.histogram("h", buckets=(1.0,)).observe(0.5)
        snapshot = registry_snapshot(registry)
        assert snapshot["counters"] == {"c": 2.0}
        assert snapshot["gauges"] == {"g": 1.5}
        assert snapshot["histograms"]["h"] == {
            "buckets": [1.0],
            "counts": [1, 0],
            "sum": 0.5,
            "count": 1,
        }

    def test_write_metrics_json_round_trips(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("pool.chunks_dispatched").inc(7)
        path = write_metrics_json(registry, tmp_path / "sub" / "metrics.json")
        loaded = json.loads(path.read_text(encoding="utf-8"))
        assert loaded == registry_snapshot(registry)

    def test_prometheus_exposition_format(self):
        registry = MetricsRegistry()
        registry.counter("pool.chunks_dispatched", help="chunks sent").inc(3)
        registry.gauge("pool.inflight_chunks").set(2)
        registry.histogram("span.commit.seconds", buckets=(0.1, 1.0)).observe(0.05)
        text = render_prometheus(registry)
        lines = text.splitlines()
        assert "# HELP repro_pool_chunks_dispatched_total chunks sent" in lines
        assert "# TYPE repro_pool_chunks_dispatched_total counter" in lines
        assert "repro_pool_chunks_dispatched_total 3" in lines
        assert "repro_pool_inflight_chunks 2" in lines
        # Cumulative buckets: one observation at 0.05 lands in every bound.
        assert 'repro_span_commit_seconds_bucket{le="0.1"} 1' in lines
        assert 'repro_span_commit_seconds_bucket{le="1"} 1' in lines
        assert 'repro_span_commit_seconds_bucket{le="+Inf"} 1' in lines
        assert "repro_span_commit_seconds_count 1" in lines
        assert text.endswith("\n")

    def test_empty_registry_renders_empty(self):
        assert render_prometheus(MetricsRegistry()) == ""


class TestPoolInstrumentation:
    def test_dispatch_counters_and_events(self, tmp_path):
        from repro.engine.pool import ExecutionPool

        telemetry = Telemetry.to_jsonl(tmp_path / "pool.jsonl")
        config = tiny_config()
        with ExecutionPool(workers=2, chunk_size=2, telemetry=telemetry) as pool:
            results = pool.run_seeds(config, [11, 12, 13])
        telemetry.close()
        assert len(results) == 3
        snapshot = telemetry.snapshot()
        assert snapshot["counters"]["pool.trials_dispatched"] == 3
        assert snapshot["counters"]["pool.chunks_dispatched"] == 2
        assert snapshot["counters"]["pool.scalar_chunks"] == 2
        assert "pool.batch_chunks" not in {
            k for k, v in snapshot["counters"].items() if v > 0
        }
        # Every dispatched chunk completed, so the queue-depth gauge drained.
        assert snapshot["gauges"]["pool.inflight_chunks"] == 0
        records = read_jsonl_events(tmp_path / "pool.jsonl")
        dispatched = [r for r in records if r["kind"] == "chunk-dispatched"]
        assert [r["chunk_index"] for r in dispatched] == [0, 1]
        assert [r["size"] for r in dispatched] == [2, 1]
        assert all(r["batch"] is False and r["reduce"] is False for r in dispatched)

    def test_batch_path_counts_batch_chunks(self, tmp_path):
        from repro.engine.observers import TraceLevel
        from repro.engine.pool import ExecutionPool

        telemetry = Telemetry()
        # The batch kernel needs a trace-free template.
        config = tiny_config(trace_level=TraceLevel.NONE)
        with ExecutionPool(workers=2, chunk_size=4, telemetry=telemetry) as pool:
            pool.run_seeds(config, [0, 1, 2, 3], reduce=True, batch=True)
        counters = telemetry.snapshot()["counters"]
        assert counters["pool.batch_chunks"] == 1
        assert "pool.batch_fallbacks" not in counters

    def test_batch_fallback_is_reported(self, tmp_path, caplog):
        from repro.engine.pool import ExecutionPool

        telemetry = Telemetry.to_jsonl(tmp_path / "fallback.jsonl")
        # FULL trace level makes the template non-batchable.
        config = tiny_config()
        with caplog.at_level(logging.INFO, logger="repro.engine.pool"):
            with ExecutionPool(workers=2, telemetry=telemetry) as pool:
                pool.run_seeds(config, [11], batch=True)
        telemetry.close()
        assert telemetry.snapshot()["counters"]["pool.batch_fallbacks"] == 1
        records = read_jsonl_events(tmp_path / "fallback.jsonl")
        fallbacks = [r for r in records if r["kind"] == "batch-fallback"]
        assert len(fallbacks) == 1
        assert "not batchable" in fallbacks[0]["reason"]
        assert any("batch fallback" in message for message in caplog.messages)

    def test_serial_fallback_logs_and_emits(self, tmp_path, caplog):
        from repro.engine.pool import warn_serial_fallback

        telemetry = Telemetry.to_jsonl(tmp_path / "serial.jsonl")
        with caplog.at_level(logging.WARNING, logger="repro.engine.pool"):
            with pytest.warns(RuntimeWarning, match="not picklable"):
                warn_serial_fallback(detail="closure adversary", telemetry=telemetry)
        telemetry.close()
        assert telemetry.snapshot()["counters"]["pool.serial_fallbacks"] == 1
        [record] = read_jsonl_events(tmp_path / "serial.jsonl")
        assert record["kind"] == "serial-fallback"
        assert record["detail"] == "closure adversary"
        assert any("not picklable" in message for message in caplog.messages)

    def test_worker_crash_recovery_is_counted(self, caplog):
        from repro.engine.pool import ExecutionPool, WorkerCrashError

        telemetry = Telemetry()
        pool = ExecutionPool(workers=1, telemetry=telemetry)
        with caplog.at_level(logging.WARNING, logger="repro.engine.pool"):
            error = pool.recover(RuntimeError("worker died"))
        assert isinstance(error, WorkerCrashError)
        assert telemetry.snapshot()["counters"]["pool.worker_restarts"] == 1
        assert telemetry.snapshot()["counters"]["events.worker-crash-recovered"] == 1
        assert any("crashed" in message for message in caplog.messages)


class TestCampaignInstrumentation:
    @pytest.mark.parametrize("workers,batch", [(1, False), (2, True)])
    def test_store_contents_identical_with_and_without_telemetry(
        self, tmp_path, workers, batch
    ):
        spec = tiny_campaign()
        plan = ExecutionPlan(workers=workers, batch=batch)
        with ResultStore(tmp_path / "plain.db") as plain_store:
            with CampaignRunner(spec, plain_store, plan=plan) as runner:
                runner.run()
            plain = store_contents(plain_store, spec.name)
        telemetry = Telemetry.to_jsonl(tmp_path / "campaign.jsonl")
        with ResultStore(tmp_path / "instrumented.db") as instrumented_store:
            with CampaignRunner(
                spec, instrumented_store, plan=plan, telemetry=telemetry
            ) as runner:
                runner.run()
            instrumented = store_contents(instrumented_store, spec.name)
        telemetry.close()
        # Telemetry observed real work...
        snapshot = telemetry.snapshot()
        assert snapshot["counters"]["campaign.cells_committed"] == 2
        assert snapshot["counters"]["campaign.trials_recorded"] == 4
        assert snapshot["histograms"]["campaign.cell_commit_seconds"]["count"] == 2
        # ...and the persisted results are exactly the uninstrumented ones.
        assert instrumented == plain

    def test_events_cover_the_campaign_lifecycle(self, tmp_path):
        spec = tiny_campaign("tel-events")
        telemetry = Telemetry.to_jsonl(tmp_path / "events.jsonl")
        with ResultStore(tmp_path / "store.db") as store:
            with CampaignRunner(spec, store, telemetry=telemetry) as runner:
                runner.run()
        telemetry.close()
        records = read_jsonl_events(tmp_path / "events.jsonl")
        kinds = [record["kind"] for record in records]
        assert kinds[0] == "campaign-started"
        assert kinds.count("cell-committed") == 2
        assert kinds[-1] == "campaign-completed"
        completed = records[-1]
        assert completed["executed"] == 2
        assert completed["remaining"] == 0
        assert completed["cells_per_second"] > 0

    def test_resume_counts_reused_cells(self, tmp_path):
        spec = tiny_campaign("tel-resume")
        with ResultStore(tmp_path / "store.db") as store:
            with CampaignRunner(spec, store) as runner:
                runner.run(max_cells=1)
            telemetry = Telemetry()
            with CampaignRunner(spec, store, telemetry=telemetry) as runner:
                runner.run()
        snapshot = telemetry.snapshot()
        assert snapshot["counters"]["campaign.cells_reused"] == 1
        assert snapshot["counters"]["campaign.cells_committed"] == 1


class TestSearchInstrumentation:
    def test_checkpoints_identical_with_and_without_telemetry(self, tmp_path):
        spec = tiny_search()
        with ResultStore(tmp_path / "plain.db") as plain_store:
            with StrategySearch(spec, plain_store) as search:
                plain_result = search.run()
            plain = store_contents(plain_store, spec.name)
        telemetry = Telemetry.to_jsonl(tmp_path / "search.jsonl")
        with ResultStore(tmp_path / "instrumented.db") as instrumented_store:
            with StrategySearch(spec, instrumented_store, telemetry=telemetry) as search:
                instrumented_result = search.run()
            instrumented = store_contents(instrumented_store, spec.name)
        telemetry.close()
        assert instrumented == plain
        assert instrumented_result.best.key == plain_result.best.key
        assert instrumented_result.best.score == plain_result.best.score

    def test_search_metrics_and_events(self, tmp_path):
        spec = tiny_search("tel-search-metrics")
        telemetry = Telemetry.to_jsonl(tmp_path / "search.jsonl")
        with ResultStore(tmp_path / "store.db") as store:
            with StrategySearch(spec, store, telemetry=telemetry) as search:
                result = search.run()
        telemetry.close()
        snapshot = telemetry.snapshot()
        assert snapshot["counters"]["search.evaluations_executed"] == result.executed
        assert snapshot["counters"]["search.generations_completed"] == 2
        assert snapshot["gauges"]["search.best_score"] == result.best.score
        assert snapshot["gauges"]["search.evaluations_per_second"] > 0
        assert (
            snapshot["histograms"]["span.search.evaluate.seconds"]["count"]
            == result.executed
        )
        records = read_jsonl_events(tmp_path / "search.jsonl")
        kinds = [record["kind"] for record in records]
        assert kinds[0] == "search-started"
        assert kinds.count("generation-completed") == 2
        assert kinds[-1] == "search-completed"
        assert records[-1]["best_score"] == result.best.score

    def test_cached_rerun_counts_reuse(self, tmp_path):
        spec = tiny_search("tel-search-reuse")
        with ResultStore(tmp_path / "store.db") as store:
            with StrategySearch(spec, store) as search:
                first = search.run()
            telemetry = Telemetry()
            with StrategySearch(spec, store, telemetry=telemetry) as search:
                second = search.run()
        assert second.executed == 0
        snapshot = telemetry.snapshot()
        assert snapshot["counters"]["search.evaluations_reused"] == first.executed
        assert snapshot["counters"]["search.evaluations_executed"] == 0


class TestCli:
    TRIALS_ARGS = [
        "trials",
        "--workload", "quiet_start",
        "-F", "4", "-t", "1", "-N", "8",
        "--nodes", "2",
        "--trials", "2",
        "--max-rounds", "4000",
    ]

    def test_trials_writes_events_and_metrics(self, tmp_path, capsys):
        from repro.cli import main

        events = tmp_path / "events.jsonl"
        metrics = tmp_path / "metrics.json"
        main(self.TRIALS_ARGS + ["--telemetry", str(events), "--metrics-out", str(metrics)])
        records = read_jsonl_events(events)
        kinds = [record["kind"] for record in records]
        assert kinds[0] == "run-started"
        assert kinds[-1] == "run-completed"
        assert records[0]["trials"] == 2
        snapshot = json.loads(metrics.read_text(encoding="utf-8"))
        assert snapshot["counters"]["events.run-started"] == 1
        out = capsys.readouterr().out
        assert "wrote telemetry events to" in out
        assert "wrote metrics snapshot to" in out

    def test_metrics_out_prom_writes_prometheus_text(self, tmp_path):
        from repro.cli import main

        target = tmp_path / "metrics.prom"
        main(self.TRIALS_ARGS + ["--metrics-out", str(target)])
        text = target.read_text(encoding="utf-8")
        assert "repro_events_run_started_total 1" in text

    def test_without_flags_no_telemetry_is_created(self, capsys):
        from repro.cli import main

        main(self.TRIALS_ARGS)
        out = capsys.readouterr().out
        assert "telemetry" not in out
        assert "metrics snapshot" not in out

    def test_campaign_run_quiet_suppresses_progress_lines(self, tmp_path, capsys):
        from repro.cli import main

        args = [
            "campaign", "run",
            "--store", str(tmp_path / "store.db"),
            "--name", "quiet-check",
            "--workloads", "quiet_start",
            "-F", "4", "-t", "1", "-N", "8",
            "--node-counts", "2,3",
            "--seeds", "2",
            "--max-rounds", "4000",
        ]
        main(args + ["--quiet", "--telemetry", str(tmp_path / "c.jsonl")])
        out = capsys.readouterr().out
        # No per-cell "  [1/2] ..." progress lines, but the summary stays.
        assert "  [1/" not in out
        assert "progress  :" in out
        records = read_jsonl_events(tmp_path / "c.jsonl")
        assert any(record["kind"] == "cell-committed" for record in records)

    def test_log_level_flag_configures_the_repro_logger(self):
        from repro.cli import main

        main(["--log-level", "debug"] + self.TRIALS_ARGS)
        logger = logging.getLogger("repro")
        assert logger.level == logging.DEBUG
        assert len(logger.handlers) == 1
        # Re-running must replace, not stack, the handler.
        main(["--log-level", "warning"] + self.TRIALS_ARGS)
        assert len(logger.handlers) == 1
        assert logger.level == logging.WARNING

    def test_search_run_accepts_telemetry_flags(self, tmp_path, capsys):
        from repro.cli import main

        metrics = tmp_path / "metrics.json"
        main([
            "search", "run",
            "--store", str(tmp_path / "store.db"),
            "--name", "cli-tel",
            "-F", "4", "-t", "1", "-N", "8",
            "--nodes", "2",
            "--seeds", "2",
            "--max-rounds", "4000",
            "--population", "2",
            "--generations", "1",
            "--metrics-out", str(metrics),
        ])
        snapshot = json.loads(metrics.read_text(encoding="utf-8"))
        assert snapshot["counters"]["search.evaluations_executed"] > 0
