"""Unit tests for result/trace serialization."""

from __future__ import annotations

import csv
import io
import json

from repro.adversary.activation import StaggeredActivation
from repro.adversary.jammers import RandomJammer
from repro.engine.observers import TraceLevel
from repro.engine.runner import run_trials
from repro.engine.serialization import (
    result_to_dict,
    trace_to_dict,
    trial_summary_to_dict,
    write_result_json,
    write_round_log_csv,
    write_trials_json,
)
from repro.engine.simulator import SimulationConfig, simulate
from repro.protocols.trapdoor.protocol import TrapdoorProtocol
from repro.telemetry.export import registry_snapshot, write_metrics_json
from repro.telemetry.metrics import MetricsRegistry


def streamed(document, **options) -> bytes:
    """The bytes ``json.dump`` streams into a file, token by token."""
    buffer = io.StringIO()
    json.dump(document, buffer, **options)
    return buffer.getvalue().encode("utf-8")


class TestTraceToDict:
    def test_summary_fields(self, trapdoor_result):
        data = trace_to_dict(trapdoor_result.trace, include_rounds=False)
        assert data["params"]["frequencies"] == 8
        assert data["rounds_simulated"] == trapdoor_result.rounds_simulated
        assert "rounds" not in data
        assert len(data["nodes"]) == len(trapdoor_result.trace.node_ids)
        for node in data["nodes"]:
            assert node["sync_round"] is not None
            assert node["sync_latency"] >= 1

    def test_round_log_included_on_request(self, trapdoor_result):
        data = trace_to_dict(trapdoor_result.trace, include_rounds=True)
        assert len(data["rounds"]) == trapdoor_result.rounds_simulated
        first = data["rounds"][0]
        assert first["global_round"] == 1
        assert isinstance(first["outputs"], dict)
        assert isinstance(first["disrupted"], list)

    def test_is_json_serializable(self, trapdoor_result):
        text = json.dumps(trace_to_dict(trapdoor_result.trace, include_rounds=True))
        assert "global_round" in text


class TestResultToDict:
    def test_properties_and_metrics_sections(self, trapdoor_result):
        data = result_to_dict(trapdoor_result)
        assert data["properties"]["liveness"] is True
        assert data["properties"]["agreement"] is True
        assert data["properties"]["violations"] == []
        assert data["metrics"]["leader_count"] == 1
        assert data["metrics"]["broadcasts"] > 0
        assert "leader" in data["metrics"]["role_rounds"]

    def test_round_trip_through_json_file(self, trapdoor_result, tmp_path):
        path = write_result_json(trapdoor_result, tmp_path / "result.json")
        loaded = json.loads(path.read_text(encoding="utf-8"))
        assert loaded == result_to_dict(trapdoor_result)

    def test_nested_directory_is_created(self, trapdoor_result, tmp_path):
        path = write_result_json(trapdoor_result, tmp_path / "deep" / "dir" / "result.json")
        assert path.exists()


class TestCsvLog:
    def test_round_log_rows(self, trapdoor_result, tmp_path):
        path = write_round_log_csv(trapdoor_result.trace, tmp_path / "rounds.csv")
        with path.open() as handle:
            rows = list(csv.DictReader(handle))
        expected = sum(len(record.outputs) for record in trapdoor_result.trace)
        assert len(rows) == expected
        assert rows[0]["global_round"] == "1"
        assert set(rows[0]) == {
            "global_round",
            "node_id",
            "output",
            "role",
            "disrupted_channels",
            "deliveries",
        }

    def test_bottom_outputs_serialized_as_empty(self, trapdoor_result, tmp_path):
        path = write_round_log_csv(trapdoor_result.trace, tmp_path / "rounds.csv")
        with path.open() as handle:
            rows = list(csv.DictReader(handle))
        assert any(row["output"] == "" for row in rows)
        assert any(row["output"] != "" for row in rows)


class TestIncompleteTraceSerialization:
    def test_sampled_trace_omits_round_derived_fields(self, params):
        config = SimulationConfig(
            params=params,
            protocol_factory=TrapdoorProtocol.factory(),
            activation=StaggeredActivation(count=4, spacing=2),
            adversary=RandomJammer(),
            max_rounds=10_000,
            seed=42,
            trace_level=TraceLevel.SAMPLED,
            trace_sample_interval=10,
        )
        result = simulate(config)
        data = result_to_dict(result)
        trace_section = data["trace"]
        assert trace_section["complete"] is False
        assert trace_section["rounds_simulated"] is None
        assert trace_section["rounds_retained"] == len(result.trace.records)
        for node in trace_section["nodes"]:
            assert "sync_round" not in node and "sync_latency" not in node
        # The exact numbers are available from the streamed metrics section.
        assert data["metrics"]["rounds_simulated"] == result.rounds_simulated
        assert data["metrics"]["sync_latencies"] == {
            str(node): latency for node, latency in result.metrics.sync_latencies.items()
        }


class TestJsonExportBytes:
    """Each JSON export is encoded once and written once, in the bytes the
    streaming ``json.dump`` wrote before."""

    def test_result_json(self, trapdoor_result, tmp_path):
        for include_rounds in (False, True):
            path = write_result_json(trapdoor_result, tmp_path / "r.json", include_rounds)
            document = result_to_dict(trapdoor_result, include_rounds=include_rounds)
            assert path.read_bytes() == streamed(document, indent=2)

    def test_trials_json(self, params, tmp_path):
        template = SimulationConfig(
            params=params,
            protocol_factory=TrapdoorProtocol.factory(),
            activation=StaggeredActivation(count=4, spacing=2),
            adversary=RandomJammer(),
            max_rounds=10_000,
            trace_level=TraceLevel.NONE,
        )
        summary = run_trials(template, seeds=3)
        path = write_trials_json(summary, tmp_path / "t.json")
        assert path.read_bytes() == streamed(trial_summary_to_dict(summary), indent=2)

    def test_metrics_json(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("pool.chunks_dispatched").inc(7)
        registry.histogram("h", buckets=(1.0,)).observe(0.5)
        path = write_metrics_json(registry, tmp_path / "m.json")
        expected = streamed(registry_snapshot(registry), indent=2, sort_keys=True) + b"\n"
        assert path.read_bytes() == expected
