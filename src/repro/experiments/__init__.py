"""Workloads, tables, figures, and the paper-artefact registry."""

from repro.experiments.figures import render_bars, render_multi_series
from repro.experiments.registry import EXPERIMENTS, ExperimentSpec, experiment_ids, get_experiment
from repro.experiments.tables import render_comparison, render_table
from repro.experiments.workloads import (
    SIMPLE_WORKLOADS,
    Workload,
    adversarial_sweep,
    crowded_cafe,
    low_band_attack,
    lower_bound_worst_case,
    microwave_oven,
    quiet_start,
    reactive_attack,
    straggler,
    synchronized_start_low_jam,
)

__all__ = [
    "render_bars",
    "render_multi_series",
    "EXPERIMENTS",
    "ExperimentSpec",
    "experiment_ids",
    "get_experiment",
    "render_comparison",
    "render_table",
    "SIMPLE_WORKLOADS",
    "Workload",
    "adversarial_sweep",
    "crowded_cafe",
    "low_band_attack",
    "lower_bound_worst_case",
    "microwave_oven",
    "quiet_start",
    "reactive_attack",
    "straggler",
    "synchronized_start_low_jam",
]
