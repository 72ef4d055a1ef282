"""Picklability audit for workloads, adversaries, and activation schedules.

The parallel trial runner and the campaign runner ship whole simulation
configurations to worker processes, so everything a workload bundles must
survive pickling; these tests keep the whole named-workload surface honest:

* every named workload round-trips through ``pickle``;
* every CLI jammer and every activation schedule round-trips;
* every named workload actually runs on a 2-worker pool **without** the
  serial-fallback warning, and produces results identical to a serial run.
"""

from __future__ import annotations

import pickle
import warnings

import pytest

from repro.adversary.activation import (
    ExplicitActivation,
    RandomActivation,
    SimultaneousActivation,
    StaggeredActivation,
    TrickleActivation,
)
from repro.cli import JAMMERS
from repro.engine.plan import ExecutionPlan
from repro.engine.runner import run_trials
from repro.engine.simulator import SimulationConfig
from repro.experiments.workloads import SIMPLE_WORKLOADS, synchronized_start_low_jam
from repro.params import ModelParameters
from repro.protocols.registry import PROTOCOL_FACTORIES

PARAMS = ModelParameters(frequencies=4, disruption_budget=1, participant_bound=8)


def behaviour(adversary):
    """An adversary's class and state: equal pairs disrupt identically."""
    return type(adversary), vars(adversary)


class TestPickleRoundTrips:
    @pytest.mark.parametrize("name", sorted(SIMPLE_WORKLOADS))
    def test_named_workload_round_trips(self, name):
        workload = SIMPLE_WORKLOADS[name](3)
        clone = pickle.loads(pickle.dumps(workload))
        assert clone.name == workload.name
        assert clone.activation.node_count == workload.activation.node_count
        assert clone.adversary.describe() == workload.adversary.describe()
        assert behaviour(clone.adversary) == behaviour(workload.adversary)

    def test_oblivious_workload_round_trips_with_identical_schedule(self):
        workload = synchronized_start_low_jam(3, PARAMS, actual_disruption=1)
        clone = pickle.loads(pickle.dumps(workload))
        # The jammer's parameters (its strength t', not just its type) must survive.
        assert clone.adversary == workload.adversary

    @pytest.mark.parametrize("name", sorted(JAMMERS))
    def test_cli_jammer_round_trips(self, name):
        jammer = JAMMERS[name]()
        clone = pickle.loads(pickle.dumps(jammer))
        assert behaviour(clone) == behaviour(jammer)

    @pytest.mark.parametrize(
        "schedule",
        [
            SimultaneousActivation(count=3),
            StaggeredActivation(count=3, spacing=2),
            RandomActivation(count=3, window=8, seed=5),
            ExplicitActivation(rounds=(1, 4, 9)),
            TrickleActivation(count=3, delay=7),
        ],
        ids=lambda schedule: type(schedule).__name__,
    )
    def test_activation_schedule_round_trips(self, schedule):
        clone = pickle.loads(pickle.dumps(schedule))
        assert clone == schedule
        assert clone.node_count == schedule.node_count
        assert clone.last_activation_round() == schedule.last_activation_round()

    @pytest.mark.parametrize("name", sorted(PROTOCOL_FACTORIES))
    def test_protocol_factory_round_trips(self, name):
        factory = PROTOCOL_FACTORIES[name]()
        clone = pickle.loads(pickle.dumps(factory))
        assert clone == factory


class TestWorkloadsRunOnWorkers:
    @pytest.mark.parametrize("name", sorted(SIMPLE_WORKLOADS))
    def test_two_worker_batch_matches_serial_without_fallback(self, name):
        workload = SIMPLE_WORKLOADS[name](2)
        config = SimulationConfig(
            params=PARAMS,
            protocol_factory=PROTOCOL_FACTORIES["trapdoor"](),
            activation=workload.activation,
            adversary=workload.adversary,
            max_rounds=2_000,
        )
        serial = run_trials(config, seeds=2)
        with warnings.catch_warnings():
            # The unpicklable-config fallback emits a RuntimeWarning; a truly
            # picklable workload must cross the process boundary silently.
            warnings.simplefilter("error")
            parallel = run_trials(config, seeds=2, plan=ExecutionPlan(workers=2))
        assert parallel.latencies() == serial.latencies()
        assert parallel.liveness_rate == serial.liveness_rate
        for serial_result, parallel_result in zip(serial.results, parallel.results):
            assert parallel_result.metrics == serial_result.metrics

