"""Unit tests for the experiment tables, figures, workloads, and registry."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.adversary.jammers import NoInterference
from repro.exceptions import ExperimentError
from repro.experiments.figures import render_bars, render_multi_series
from repro.experiments.registry import EXPERIMENTS, experiment_ids, get_experiment
from repro.experiments.tables import format_value, render_comparison, render_table
from repro.experiments.workloads import (
    SIMPLE_WORKLOADS,
    crowded_cafe,
    lower_bound_worst_case,
    quiet_start,
    straggler,
    synchronized_start_low_jam,
)

REPO_ROOT = Path(__file__).resolve().parents[2]


class TestTables:
    def test_format_value_handles_types(self):
        assert format_value(True) == "yes"
        assert format_value(None) == "-"
        assert format_value(1.23456, float_digits=2) == "1.23"
        assert format_value("x") == "x"

    def test_render_table_aligns_columns(self):
        rows = [{"name": "a", "value": 1.5}, {"name": "bbbb", "value": 22.25}]
        table = render_table(rows, title="demo", float_digits=1)
        lines = table.splitlines()
        assert lines[0] == "demo"
        assert "name" in lines[2] and "value" in lines[2]
        assert len({len(line) for line in lines[2:]}) <= 2  # header/sep/rows aligned

    def test_render_table_rejects_empty(self):
        with pytest.raises(ExperimentError):
            render_table([])

    def test_render_comparison_checks_lengths(self):
        with pytest.raises(ExperimentError):
            render_comparison("x", {"a": [1, 2]}, labels=[1])
        output = render_comparison("t", {"trapdoor": [1, 2], "gs": [3, 4]}, labels=[1, 2])
        assert "trapdoor" in output and "gs" in output


class TestFigures:
    def test_render_bars_scales_to_peak(self):
        output = render_bars(["a", "b"], [1.0, 10.0], title="demo", width=10)
        lines = output.splitlines()
        assert lines[0] == "demo"
        assert lines[-1].count("#") == 10
        assert lines[-2].count("#") == 1

    def test_render_bars_validation(self):
        with pytest.raises(ExperimentError):
            render_bars(["a"], [1.0, 2.0])
        with pytest.raises(ExperimentError):
            render_bars([], [])
        with pytest.raises(ExperimentError):
            render_bars(["a"], [-1.0])

    def test_render_multi_series(self):
        output = render_multi_series([1, 2], {"x": [1.0, 2.0], "y": [2.0, 4.0]})
        assert "x" in output and "y" in output
        with pytest.raises(ExperimentError):
            render_multi_series([1], {})


class TestWorkloads:
    def test_simple_workloads_construct(self):
        for name, build in SIMPLE_WORKLOADS.items():
            workload = build(4)
            assert workload.activation.node_count == 4
            assert workload.description
            assert workload.name == name or workload.name.startswith(name)

    def test_quiet_start_has_no_interference(self):
        workload = quiet_start(3)
        assert isinstance(workload.adversary, NoInterference)

    def test_good_execution_respects_budget(self, params):
        workload = synchronized_start_low_jam(4, params, actual_disruption=2, horizon=100)
        assert workload.adversary.oblivious
        with pytest.raises(ExperimentError):
            synchronized_start_low_jam(4, params, actual_disruption=params.disruption_budget + 1)

    def test_straggler_and_cafe_shapes(self):
        assert straggler(5, delay=20).activation.last_activation_round() == 21
        assert crowded_cafe(4, spacing=3).activation.last_activation_round() == 10
        assert lower_bound_worst_case(4).adversary.describe() == "fixed band [1..t]"


class TestRegistry:
    def test_ids_are_unique(self):
        ids = experiment_ids()
        assert len(ids) == len(set(ids))
        assert "fig1" in ids and "thm10" in ids

    def test_lookup_and_unknown(self):
        spec = get_experiment("thm18")
        assert "Good Samaritan" in spec.claim or "good" in spec.claim.lower()
        with pytest.raises(KeyError):
            get_experiment("nope")

    def test_every_registered_benchmark_file_exists(self):
        for spec in EXPERIMENTS:
            assert (REPO_ROOT / spec.benchmark_module).exists(), spec.benchmark_module

    def test_every_registered_module_imports(self):
        import importlib

        for spec in EXPERIMENTS:
            for module in spec.modules:
                importlib.import_module(module)
