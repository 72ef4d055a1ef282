"""Fault-injection suite: plans, injection determinism, and stabilization.

Three legs, mirroring the engine's own golden-equivalence contract:

* **plan identity** — :class:`~repro.faults.plan.FaultPlan` is declarative,
  JSON-round-trippable, and content-hashed; the hash is pinned here so a
  schema drift cannot slip through silently;
* **golden digests** — fault-injected executions (churn × Byzantine ×
  corruption on trapdoor + good-samaritan, named edge cases of the
  injection loop, and a seeded draw of random configurations) are pinned as
  full execution digests and must be byte-identical across serial, pooled,
  and interrupt-resumed campaign execution;
* **refusal** — the vectorized kernel refuses fault-injected templates with
  exactly one warning per batch and degrades to the scalar loop.

Regenerate the goldens after an intentional behaviour change::

    PYTHONPATH=src python tests/unit/test_faults.py --regen
"""

from __future__ import annotations

import functools
import json
import random
import sys
from dataclasses import replace
from pathlib import Path
from typing import Callable

import pytest

from repro.adversary.activation import (
    ActivationSchedule,
    RandomActivation,
    SimultaneousActivation,
    StaggeredActivation,
)
from repro.adversary.jammers import NoInterference, ReactiveJammer
from repro.adversary.registry import ADVERSARY_FACTORIES
from repro.engine.observers import TraceLevel
from repro.engine.plan import ExecutionPlan
from repro.engine.pool import ExecutionPool
from repro.engine.runner import run_reduced_trials, run_trials
from repro.engine.serialization import execution_digest
from repro.engine.simulator import SimulationConfig, simulate
from repro.exceptions import ConfigurationError
from repro.faults import (
    ChurnEvent,
    CorruptionEvent,
    FaultPlan,
    StabilizationReport,
    StabilizationTracker,
    load_fault_plan,
)
from repro.params import ModelParameters
from repro.protocols.base import SynchronizationProtocol
from repro.protocols.registry import PROTOCOL_FACTORIES, protocol_factory
from repro.radio.actions import RadioAction, broadcast
from repro.radio.messages import DataMessage, Message
from repro.types import SyncOutput

GOLDEN_PATH = Path(__file__).resolve().parents[1] / "golden" / "fault_equivalence.json"

PARAMS = ModelParameters(frequencies=4, disruption_budget=1, participant_bound=8)
MAX_ROUNDS = 1_500
SEED = 11
NODES = 6

#: The fault scenarios crossed with every pinned protocol.
FAULT_PLANS: dict[str, FaultPlan] = {
    "churn": FaultPlan(
        churn=(
            ChurnEvent(node_id=1, leave_round=40, rejoin_round=80),
            ChurnEvent(node_id=2, leave_round=100, rejoin_round=None),
        ),
    ),
    "byzantine": FaultPlan(byzantine_count=1, byzantine_start_round=30),
    "corruption": FaultPlan(
        corruption=(
            CorruptionEvent(round_index=60, node_ids=(0, 3)),
            CorruptionEvent(round_index=120, node_ids=(2,)),
        ),
    ),
    "combined": FaultPlan(
        churn=(ChurnEvent(node_id=1, leave_round=40, rejoin_round=80),),
        byzantine_count=1,
        byzantine_start_round=30,
        corruption=(CorruptionEvent(round_index=60, node_ids=(3,)),),
    ),
}

PROTOCOLS = ("trapdoor", "good-samaritan", "fault-tolerant-trapdoor")


def edge_config(
    plan: FaultPlan,
    activation: ActivationSchedule,
    adversary=None,
    protocol: str = "trapdoor",
) -> SimulationConfig:
    return SimulationConfig(
        params=PARAMS,
        protocol_factory=protocol_factory(protocol),
        activation=activation,
        adversary=adversary if adversary is not None else NoInterference(),
        max_rounds=800,
        seed=SEED,
        faults=plan,
    )


#: Edge cases of the injection loop.  Which nodes turn Byzantine is drawn
#: per trial, so the cases that must hit a Byzantine node churn, corrupt or
#: delay every node.
EDGE_CASES: dict[str, Callable[[], SimulationConfig]] = {
    # Every node is away at the start round, so the Byzantine ones rejoin
    # already forging; the others rejoin honest.
    "byzantine-churned-across-start": lambda: edge_config(
        FaultPlan(
            churn=tuple(ChurnEvent(node, 40 + node, 60 + node) for node in range(4)),
            byzantine_count=2,
            byzantine_start_round=50,
        ),
        SimultaneousActivation(count=4),
    ),
    # Only node 0 is awake at the start round: the Byzantine nodes wake up
    # forging, under a jammer that reacts to their forgeries.
    "byzantine-activated-after-start": lambda: edge_config(
        FaultPlan(byzantine_count=3, byzantine_start_round=5),
        StaggeredActivation(count=5, spacing=10),
        adversary=ReactiveJammer(),
    ),
    # Corruption skips Byzantine nodes, both before and after they turn.
    "corruption-names-byzantine": lambda: edge_config(
        FaultPlan(
            byzantine_count=2,
            byzantine_start_round=20,
            corruption=(
                CorruptionEvent(round_index=10, node_ids=(0, 1, 2, 3)),
                CorruptionEvent(round_index=40, node_ids=(0, 1, 2, 3)),
            ),
        ),
        SimultaneousActivation(count=4),
    ),
    # Leaves, rejoins and corruption of nodes that are not awake yet (or
    # not in the population at all) are skipped.
    "events-name-inactive-nodes": lambda: edge_config(
        FaultPlan(
            churn=(
                ChurnEvent(node_id=3, leave_round=20, rejoin_round=50),
                ChurnEvent(node_id=2, leave_round=40),
                ChurnEvent(node_id=7, leave_round=5, rejoin_round=9),
            ),
            corruption=(CorruptionEvent(round_index=10, node_ids=(2, 3, 9)),),
        ),
        StaggeredActivation(count=4, spacing=30),
    ),
    # Every node is Byzantine but honest until round 300: the churn epoch
    # at round 10 recovers; the forging epoch, with no honest node left,
    # never does.  Excluding Byzantine nodes from round 1 changes this.
    "all-byzantine-churn-before-forging": lambda: edge_config(
        FaultPlan(
            churn=(ChurnEvent(node_id=1, leave_round=10),),
            byzantine_count=4,
            byzantine_start_round=300,
        ),
        SimultaneousActivation(count=4),
    ),
    # The start round comes before anyone is awake: an epoch with no
    # present node, then forgers from their first round.
    "byzantine-start-before-activation": lambda: edge_config(
        FaultPlan(byzantine_count=2, byzantine_start_round=1),
        SimultaneousActivation(count=4, round_index=20),
        protocol="fault-tolerant-trapdoor",
    ),
    # A rejoin, a corruption and the Byzantine start in one round.
    "events-coincide-with-start": lambda: edge_config(
        FaultPlan(
            churn=(ChurnEvent(node_id=0, leave_round=15, rejoin_round=30),),
            byzantine_count=1,
            byzantine_start_round=30,
            corruption=(CorruptionEvent(round_index=30, node_ids=(1, 2)),),
        ),
        SimultaneousActivation(count=4),
        protocol="good-samaritan",
    ),
}

#: How many seeded random configurations the golden file pins.
GENERATED_COUNT = 60

#: The (F, t, N) points the generated configurations draw from.
GENERATED_PARAMS = (
    ModelParameters(frequencies=4, disruption_budget=1, participant_bound=8),
    ModelParameters(frequencies=8, disruption_budget=3, participant_bound=16),
    ModelParameters(frequencies=2, disruption_budget=0, participant_bound=4),
    ModelParameters(frequencies=6, disruption_budget=2, participant_bound=8),
)


def random_plan(rng: random.Random, nodes: int, horizon: int) -> FaultPlan:
    """A non-empty plan whose events may name absent or out-of-range nodes."""
    while True:
        churn = []
        for node_id in rng.sample(range(nodes + 2), rng.randint(0, 2)):
            leave = rng.randint(1, horizon)
            rejoin = leave + rng.randint(1, horizon) if rng.random() < 0.7 else None
            churn.append(ChurnEvent(node_id, leave, rejoin))
        corruption = [
            CorruptionEvent(rng.randint(1, horizon), tuple(rng.sample(range(nodes + 1), 2)))
            for _ in range(rng.randint(0, 2))
        ]
        plan = FaultPlan(
            churn=tuple(churn),
            byzantine_count=rng.choice((0, 0, 1, 2, nodes)),
            byzantine_start_round=rng.randint(1, horizon),
            corruption=tuple(corruption),
        )
        if not plan.empty:
            return plan


def random_activation(rng: random.Random, nodes: int) -> ActivationSchedule:
    kind = rng.choice(("simultaneous", "staggered", "random"))
    if kind == "simultaneous":
        return SimultaneousActivation(count=nodes, round_index=rng.randint(1, 5))
    if kind == "staggered":
        return StaggeredActivation(count=nodes, spacing=rng.randint(1, 12))
    return RandomActivation(count=nodes, window=rng.randint(5, 60), seed=rng.randrange(1000))


@functools.cache
def generated_configs() -> tuple[SimulationConfig, ...]:
    """Protocol × jammer × activation × (F, t, N) × plan × trace level ×
    grace period × stop rule, drawn from one fixed seed."""
    rng = random.Random("fault-golden")
    configs = []
    for _ in range(GENERATED_COUNT):
        params = rng.choice(GENERATED_PARAMS)
        nodes = rng.randint(2, min(6, params.participant_bound))
        max_rounds = rng.choice((300, 600, 1_000))
        configs.append(
            SimulationConfig(
                params=params,
                protocol_factory=protocol_factory(rng.choice(sorted(PROTOCOL_FACTORIES))),
                activation=random_activation(rng, nodes),
                adversary=ADVERSARY_FACTORIES[rng.choice(sorted(ADVERSARY_FACTORIES))](),
                max_rounds=max_rounds,
                seed=rng.randrange(1_000),
                stop_when_synchronized=rng.random() < 0.8,
                extra_rounds_after_sync=rng.choice((0, 0, 3, 25)),
                trace_level=rng.choice(tuple(TraceLevel)),
                trace_sample_interval=rng.choice((1, 7, 50)),
                faults=random_plan(rng, nodes, max_rounds // 2),
            )
        )
    return tuple(configs)


def scenario_keys() -> list[str]:
    """The protocol × named-plan matrix."""
    return [
        f"{protocol}|{scenario}"
        for protocol in sorted(PROTOCOLS)
        for scenario in sorted(FAULT_PLANS)
    ]


def matrix_keys() -> list[str]:
    """Every pinned key: the scenario matrix, the edge cases, the generated draw."""
    return sorted(
        scenario_keys()
        + [f"edge|{name}" for name in EDGE_CASES]
        + [f"generated|{index:02d}" for index in range(GENERATED_COUNT)]
    )


def config_for(key: str, trace_level: TraceLevel = TraceLevel.FULL) -> SimulationConfig:
    protocol, scenario = key.split("|")
    return SimulationConfig(
        params=PARAMS,
        protocol_factory=protocol_factory(protocol),
        activation=SimultaneousActivation(count=NODES),
        adversary=NoInterference(),
        max_rounds=MAX_ROUNDS,
        seed=SEED,
        trace_level=trace_level,
        faults=FAULT_PLANS[scenario],
    )


def golden_config(key: str) -> SimulationConfig:
    """The configuration one pinned key names."""
    family, name = key.split("|")
    if family == "edge":
        return EDGE_CASES[name]()
    if family == "generated":
        return generated_configs()[int(name)]
    return config_for(key)


def compute_digest(key: str) -> str:
    return execution_digest(simulate(golden_config(key)))


@pytest.fixture(scope="module")
def goldens() -> dict[str, str]:
    assert GOLDEN_PATH.exists(), (
        f"golden file {GOLDEN_PATH} is missing; regenerate with "
        "`PYTHONPATH=src python tests/unit/test_faults.py --regen`"
    )
    with GOLDEN_PATH.open("r", encoding="utf-8") as handle:
        return json.load(handle)


class TestFaultPlanIdentity:
    def test_round_trips_through_json(self):
        for plan in FAULT_PLANS.values():
            assert FaultPlan.from_json(plan.to_json()) == plan
            assert FaultPlan.from_dict(plan.to_dict()).key() == plan.key()

    def test_content_hashes_are_pinned(self):
        """The hash covers the canonical dict — schema drift changes it."""
        assert {name: plan.key() for name, plan in FAULT_PLANS.items()} == {
            "churn": "8e0aee652f092e8d",
            "byzantine": "9cb290a3c6bb421c",
            "corruption": "158dda31ea03c5b0",
            "combined": "65838d4a4d3160ab",
        }

    def test_describe_names_the_active_families(self):
        assert FAULT_PLANS["combined"].describe() == "faults(churn=1, byz=1@r30, corrupt=1)"
        assert FaultPlan().describe() == "faults(none)"

    def test_rejects_unknown_document_keys(self):
        with pytest.raises(ConfigurationError, match="unknown fault plan keys"):
            FaultPlan.from_dict({"kind": "fault-plan", "byzantine_count": 1})

    def test_rejects_overlapping_churn_windows_for_one_node(self):
        with pytest.raises(ConfigurationError, match="overlap"):
            FaultPlan(
                churn=(
                    ChurnEvent(node_id=1, leave_round=10, rejoin_round=50),
                    ChurnEvent(node_id=1, leave_round=30, rejoin_round=70),
                )
            )

    def test_load_fault_plan_reads_a_file(self, tmp_path):
        target = tmp_path / "plan.json"
        target.write_text(FAULT_PLANS["combined"].to_json())
        assert load_fault_plan(target) == FAULT_PLANS["combined"]

    def test_empty_plan_normalizes_to_fault_free(self):
        config = SimulationConfig(
            params=PARAMS,
            protocol_factory=protocol_factory("trapdoor"),
            activation=SimultaneousActivation(count=NODES),
            adversary=NoInterference(),
            max_rounds=MAX_ROUNDS,
            seed=SEED,
            faults=FaultPlan(),
        )
        assert config.faults is None
        result = simulate(config)
        assert result.stabilization is None
        assert result.stabilization_rounds is None


class TestGoldenDigests:
    def test_golden_matrix_covers_every_pinned_combination(self, goldens):
        assert sorted(goldens) == matrix_keys()

    @pytest.mark.parametrize("key", matrix_keys())
    def test_serial_execution_matches_golden(self, key, goldens):
        assert compute_digest(key) == goldens[key], (
            f"fault-injected execution digest changed for {key}: injection "
            "order, fault randomness, or the stabilization metric drifted"
        )

    def test_pooled_execution_matches_goldens(self, goldens):
        with ExecutionPool(workers=2, chunk_size=1) as pool:
            for key in matrix_keys():
                config = golden_config(key)
                [result] = pool.run_seeds(config, [config.seed])
                assert execution_digest(result) == goldens[key], (
                    f"pooled fault-injected digest changed for {key}"
                )

    def test_reduced_rows_match_serial_reduction(self):
        for key in scenario_keys():
            config = config_for(key, trace_level=TraceLevel.NONE)
            with ExecutionPool(workers=2, chunk_size=1) as pool:
                pooled = run_reduced_trials(config, seeds=(SEED, SEED + 1), pool=pool)
            assert pooled == run_reduced_trials(config, seeds=(SEED, SEED + 1))

    def test_stabilization_metric_is_reported(self):
        """Every fault-injected execution carries a stabilization report."""
        for key in scenario_keys():
            result = simulate(config_for(key, trace_level=TraceLevel.NONE))
            report = result.stabilization
            assert isinstance(report, StabilizationReport)
            assert len(report.epochs) == len(report.recovery_rounds) > 0
            assert result.stabilization_rounds == report.max_recovery_rounds
            assert StabilizationReport.from_dict(report.to_dict()) == report

    def test_summary_carries_stabilization_statistics(self):
        config = config_for("trapdoor|churn", trace_level=TraceLevel.NONE)
        summary = run_trials(config, seeds=3)
        rounds = summary.stabilization_rounds()
        assert len(rounds) == 3
        assert summary.max_stabilization_rounds == max(rounds)
        assert "stabilization" in summary.describe()


class TestStabilizationTracker:
    @staticmethod
    def feed(tracker: StabilizationTracker, outputs_by_round: list[dict]) -> None:
        for global_round, outputs in enumerate(outputs_by_round, start=1):
            for node_id, output in outputs.items():
                tracker.on_output(global_round, node_id, output)
            tracker.observe_round(global_round)

    def test_byzantine_node_counts_as_honest_until_its_start_round(self):
        # Node 1 turns Byzantine at round 3 and outputs ⊥ throughout: it
        # holds convergence back in rounds 1-2 and is ignored from round 3.
        tracker = StabilizationTracker(frozenset({1}), byzantine_start_round=3)
        tracker.record_epoch(1)
        self.feed(tracker, [{0: 5, 1: None}] * 4)
        assert tracker.finalize(4) == StabilizationReport((1,), (2,), reconverged=True)

    def test_round_without_a_present_honest_node_is_not_converged(self):
        tracker = StabilizationTracker(frozenset({0}), byzantine_start_round=1)
        tracker.record_epoch(1)
        self.feed(tracker, [{0: None}, {}])
        assert tracker.finalize(2) == StabilizationReport((1,), (2,), reconverged=False)


class AgeProtocol(SynchronizationProtocol):
    """Broadcasts and outputs its local round every round."""

    def choose_action(self) -> RadioAction:
        context = self.context
        return broadcast(1, DataMessage(sender_uid=context.uid, payload=context.local_round))

    def on_reception(self, message: Message) -> None:
        pass

    def current_output(self) -> SyncOutput:
        return self.context.local_round


def crash_config(activation: ActivationSchedule, *churn: ChurnEvent) -> SimulationConfig:
    return SimulationConfig(
        params=PARAMS,
        protocol_factory=AgeProtocol,
        activation=activation,
        max_rounds=40,
        faults=FaultPlan(churn=churn),
    )


def present_rounds(result, node_id: int) -> list[int]:
    """The global rounds in which ``node_id`` output a value."""
    return [r.global_round for r in result.trace.records if node_id in r.outputs]


class TestCrash:
    """A crash is a churn event with no rejoin: from its leave round on the
    node neither acts nor outputs, and the run goes on with the survivors."""

    def test_crashed_node_neither_broadcasts_nor_outputs_from_its_leave_round(self):
        result = simulate(crash_config(SimultaneousActivation(count=3), ChurnEvent(0, 10)))
        for record in result.trace.records:
            before = record.global_round < 10
            assert (0 in record.outputs) is before
            assert (0 in record.activity.broadcasters[1]) is before
            assert {1, 2} <= set(record.outputs)

    def test_crash_holds_the_run_open_until_it_fires(self):
        # Every node agrees from round 1; the run still reaches the crash,
        # and the survivors agree at once.
        result = simulate(crash_config(SimultaneousActivation(count=3), ChurnEvent(0, 25)))
        assert result.rounds_simulated == 25
        assert result.stabilization == StabilizationReport((25,), (0,), reconverged=True)

    @pytest.mark.parametrize("node_id", [0, 2])
    @pytest.mark.parametrize("local_round", [1, 7])
    def test_leave_round_is_activation_round_plus_last_local_round(self, node_id, local_round):
        # Node i of this schedule wakes in global round a = 1 + 4i; a crash
        # after its local round k is a departure at global round a + k.
        woke = 1 + 4 * node_id
        crash = ChurnEvent(node_id, woke + local_round)
        result = simulate(crash_config(StaggeredActivation(count=3, spacing=4), crash))
        outputs = [r.outputs[node_id] for r in result.trace.records if node_id in r.outputs]
        assert outputs == list(range(1, local_round + 1))
        assert present_rounds(result, node_id) == list(range(woke, woke + local_round))

    def test_survivors_are_checked_only_against_each_other(self):
        # Node 1 wakes four rounds after node 0, so their local rounds never
        # agree; once node 0 has crashed, node 1's numbering is the only one.
        config = crash_config(StaggeredActivation(count=2, spacing=4), ChurnEvent(0, 5))
        assert simulate(config).report.agreement_holds
        assert not simulate(replace(config, faults=None, max_rounds=6)).report.agreement_holds

    def test_crash_before_activation_is_skipped(self):
        result = simulate(crash_config(StaggeredActivation(count=2, spacing=10), ChurnEvent(1, 3)))
        assert present_rounds(result, 1) == list(range(11, result.rounds_simulated + 1))
        assert result.stabilization == StabilizationReport()

    def test_crash_of_every_node_never_reconverges(self):
        result = simulate(
            crash_config(SimultaneousActivation(count=2), ChurnEvent(0, 5), ChurnEvent(1, 5))
        )
        assert result.rounds_simulated == 40
        assert present_rounds(result, 0) == present_rounds(result, 1) == [1, 2, 3, 4]
        assert result.stabilization == StabilizationReport((5,), (36,), reconverged=False)


class TestCampaignResume:
    def _spec(self, store_name):
        from repro.campaigns.spec import CampaignSpec

        return CampaignSpec(
            name=store_name,
            protocols=("trapdoor", "fault-tolerant-trapdoor"),
            workloads=("quiet_start",),
            frequencies=(4,),
            budgets=(1,),
            participants=(8,),
            node_counts=(NODES,),
            seeds=(0, 1),
            max_rounds=MAX_ROUNDS,
            fault_plans=(FAULT_PLANS["combined"],),
        )

    def test_interrupted_resume_matches_one_shot_rows(self, tmp_path):
        """Stop a fault campaign mid-grid, resume it, compare every store row."""
        from repro.campaigns.runner import CampaignRunner
        from repro.campaigns.store import ResultStore

        spec = self._spec("faults")
        with ResultStore(tmp_path / "interrupted.db") as store:
            with CampaignRunner(spec, store) as runner:
                progress = runner.run(max_cells=1)
                assert not progress.complete
                runner.run()
            resumed = {
                key: store.trial_records(key) for key, _, _ in store.iter_cells("faults")
            }
        with ResultStore(tmp_path / "oneshot.db") as store:
            with CampaignRunner(spec, store) as runner:
                assert runner.run().complete
            oneshot = {
                key: store.trial_records(key) for key, _, _ in store.iter_cells("faults")
            }
        assert resumed == oneshot
        assert all(
            record.stabilization_rounds is not None
            for records in oneshot.values()
            for record in records
        )

    def test_fault_plan_is_part_of_the_cell_identity(self):
        spec = self._spec("faults")
        fault_free = self._spec("faults")
        fault_free = type(spec)(
            **{
                **{k: getattr(spec, k) for k in (
                    "name", "protocols", "workloads", "frequencies", "budgets",
                    "participants", "node_counts", "seeds", "max_rounds",
                )},
            }
        )
        keys = {cell.key for cell in spec.cells()}
        free_keys = {cell.key for cell in fault_free.cells()}
        assert keys.isdisjoint(free_keys)


class TestBatchRefusal:
    def test_batchable_refuses_fault_configs(self):
        from repro.engine.batch import batchable

        config = config_for("trapdoor|churn", trace_level=TraceLevel.NONE)
        assert not batchable(config)

    def test_batch_plan_degrades_with_exactly_one_warning(self):
        config = config_for("trapdoor|churn", trace_level=TraceLevel.NONE)
        serial = run_trials(config, seeds=3)
        with pytest.warns(RuntimeWarning, match="lockstep") as record:
            batched = run_trials(config, seeds=3, plan=ExecutionPlan(batch=True))
        fallback_warnings = [
            w for w in record
            if issubclass(w.category, RuntimeWarning) and "lockstep" in str(w.message)
        ]
        assert len(fallback_warnings) == 1
        assert batched.latencies() == serial.latencies()
        assert batched.stabilization_rounds() == serial.stabilization_rounds()

    def test_pooled_batch_plan_also_warns_once(self):
        config = config_for("trapdoor|churn", trace_level=TraceLevel.NONE)
        with ExecutionPool(workers=2, chunk_size=1) as pool:
            with pytest.warns(RuntimeWarning, match="lockstep") as record:
                pooled = run_trials(
                    config, seeds=3, pool=pool, plan=ExecutionPlan(batch=True)
                )
        fallback_warnings = [
            w for w in record
            if issubclass(w.category, RuntimeWarning) and "lockstep" in str(w.message)
        ]
        assert len(fallback_warnings) == 1
        assert pooled.latencies() == run_trials(config, seeds=3).latencies()


def regenerate() -> None:
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    goldens = {key: compute_digest(key) for key in matrix_keys()}
    with GOLDEN_PATH.open("w", encoding="utf-8") as handle:
        json.dump(goldens, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(goldens)} fault golden digests to {GOLDEN_PATH}")


if __name__ == "__main__":
    if "--regen" in sys.argv:
        regenerate()
    else:
        print(__doc__)
        sys.exit(2)
