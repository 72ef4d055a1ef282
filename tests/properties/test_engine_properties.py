"""Generated configurations: the trace level never changes a scalar result.

The scalar engine streams its property report and metrics, so a run that
keeps every round (``FULL``), a sample of them (``SAMPLED``) or none
(``NONE``) must report the very same thing.  This test draws configurations
across every registered protocol and jammer, three activation shapes, small
fault plans and seeds, and runs each at all three levels.  For a ``FULL`` run
without a fault plan it also replays the kept trace through the post-hoc
:class:`~repro.engine.checker.PropertyChecker` and
:func:`~repro.engine.metrics.collect_metrics`, which must agree with what was
streamed.  For a run with a fault plan it recomputes every epoch's recovery
from the kept records with the reconvergence rule written out below, which
must agree with the stabilization tracker the loop fed node by node.

Round records are mutable slotted dataclasses: observers read them and never
write them.  The test copies each record's content when the trace recorder
is handed it and requires every record to hold that content at the end of
the run, so a record changed after the recorder kept it fails here.

It runs derandomized, so tier-1 sees the same examples on every run.
"""

from __future__ import annotations

from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.adversary.activation import (
    SimultaneousActivation,
    StaggeredActivation,
    TrickleActivation,
)
from repro.adversary.registry import ADVERSARY_FACTORIES
from repro.engine.checker import PropertyChecker
from repro.engine.metrics import collect_metrics
from repro.engine.observers import TraceLevel, TraceRecorder
from repro.engine.results import SimulationResult
from repro.engine.rng import RandomStreams
from repro.engine.simulator import SimulationConfig, simulate
from repro.engine.trace import RoundRecord
from repro.exceptions import ConfigurationError
from repro.faults.injector import FaultInjector
from repro.faults.plan import ChurnEvent, CorruptionEvent, FaultPlan
from repro.faults.stabilization import StabilizationReport
from repro.params import ModelParameters
from repro.protocols.registry import PROTOCOL_FACTORIES, protocol_factory


@st.composite
def fault_plans(draw, nodes: int, max_rounds: int) -> FaultPlan | None:
    """No plan, or a small plan of churn, corruption and Byzantine nodes."""
    if not draw(st.booleans()):
        return None
    node = st.integers(min_value=0, max_value=nodes - 1)
    fault_round = st.integers(min_value=1, max_value=max_rounds // 2)
    churn = ()
    if draw(st.booleans()):
        leave = draw(fault_round)
        rejoin = draw(st.none() | st.integers(min_value=leave + 1, max_value=max_rounds))
        churn = (ChurnEvent(node_id=draw(node), leave_round=leave, rejoin_round=rejoin),)
    corruption = ()
    if draw(st.booleans()):
        corruption = (CorruptionEvent(round_index=draw(fault_round), node_ids=(draw(node),)),)
    return FaultPlan(
        churn=churn,
        corruption=corruption,
        byzantine_count=draw(st.integers(min_value=0, max_value=1)),
        byzantine_start_round=draw(fault_round),
    )


@st.composite
def engine_cases(draw, protocol: str) -> SimulationConfig:
    """A scalar configuration of ``protocol`` at trace level ``FULL``."""
    frequencies = draw(st.integers(min_value=2, max_value=12))
    # Good Samaritan assumes t <= F/2.
    highest_budget = frequencies // 2 if protocol == "good-samaritan" else frequencies - 1
    budget = draw(st.integers(min_value=0, max_value=highest_budget))
    participants = draw(st.sampled_from((4, 8, 16, 64)))
    nodes = draw(st.integers(min_value=1, max_value=min(6, participants)))
    kind = draw(st.sampled_from(("simultaneous", "staggered", "trickle")))
    gap = draw(st.integers(min_value=0, max_value=40))
    max_rounds = draw(st.integers(min_value=50, max_value=1_500))
    try:
        if kind == "simultaneous":
            activation = SimultaneousActivation(count=nodes)
        elif kind == "staggered":
            activation = StaggeredActivation(count=nodes, spacing=gap)
        else:
            activation = TrickleActivation(count=nodes, delay=gap)
        config = SimulationConfig(
            params=ModelParameters(frequencies, budget, participants),
            protocol_factory=protocol_factory(protocol),
            activation=activation,
            adversary=ADVERSARY_FACTORIES[draw(st.sampled_from(sorted(ADVERSARY_FACTORIES)))](),
            max_rounds=max_rounds,
            seed=draw(st.integers(min_value=0, max_value=2**31)),
            trace_level=TraceLevel.FULL,
            trace_sample_interval=draw(st.integers(min_value=1, max_value=50)),
            faults=draw(fault_plans(nodes, max_rounds)),
        )
    except ConfigurationError:
        assume(False)
    return config


def content(record: RoundRecord) -> tuple:
    """Everything a round record holds, copied."""
    activity = record.activity
    return (
        record.global_round,
        tuple(record.outputs.items()),
        tuple(record.roles.items()),
        activity.global_round,
        tuple((frequency, tuple(ids)) for frequency, ids in activity.broadcasters.items()),
        tuple((frequency, tuple(ids)) for frequency, ids in activity.listeners.items()),
        activity.disrupted,
        activity.delivered,
        activity.activations,
    )


def run_copying_records(config: SimulationConfig):
    """Run ``config``; return its result and each recorded round with its content then."""
    handed: list[tuple[RoundRecord, tuple]] = []
    on_round = TraceRecorder.on_round

    def keep(recorder: TraceRecorder, record: RoundRecord) -> None:
        handed.append((record, content(record)))
        on_round(recorder, record)

    with mock.patch.object(TraceRecorder, "on_round", keep):
        result = simulate(config)
    return result, handed


def reference_stabilization(
    config: SimulationConfig, full: SimulationResult
) -> StabilizationReport:
    """Every epoch's recovery, recomputed from ``full``'s kept round records.

    A round is converged when some present honest node exists and every
    present honest node output the same non-⊥ value; a Byzantine node counts
    as honest before ``byzantine_start_round``.  An epoch recovers at the
    first converged round from its own round on; one that never does is
    charged the rounds from the epoch to one past the end of the run.
    """
    assert config.faults is not None and full.stabilization is not None
    injector = FaultInjector(
        config.faults, RandomStreams(config.seed), config.activation.node_count, config.params
    )
    byzantine, start = injector.byzantine_nodes, injector.byzantine_start_round

    def converged(record: RoundRecord) -> bool:
        honest = [
            output
            for node_id, output in record.outputs.items()
            if node_id not in byzantine or record.global_round < start
        ]
        return bool(honest) and all(output is not None and output == honest[0] for output in honest)

    converged_rounds = [record.global_round for record in full.trace if converged(record)]
    epochs = full.stabilization.epochs
    hits = [next((r for r in converged_rounds if r >= epoch), None) for epoch in epochs]
    rounds = full.trace.rounds_simulated
    return StabilizationReport(
        epochs=epochs,
        recovery_rounds=tuple(
            hit - epoch if hit is not None else rounds - epoch + 1
            for epoch, hit in zip(epochs, hits)
        ),
        reconverged=None not in hits,
    )


def assert_unchanged(handed: list[tuple[RoundRecord, tuple]]) -> None:
    for record, copied in handed:
        assert content(record) == copied, f"round {record.global_round} changed after it was kept"


@pytest.mark.parametrize("protocol", sorted(PROTOCOL_FACTORIES))
@given(data=st.data())
@settings(max_examples=20, deadline=None, derandomize=True, database=None)
def test_trace_levels_agree(protocol, data):
    config = data.draw(engine_cases(protocol))
    full, handed = run_copying_records(config)
    trace = full.trace
    assert len(handed) == full.metrics.rounds_simulated
    assert all(kept is record for kept, (record, _) in zip(trace.records, handed, strict=True))
    assert_unchanged(handed)

    for level in (TraceLevel.SAMPLED, TraceLevel.NONE):
        other, other_handed = run_copying_records(replace(config, trace_level=level))
        assert other.report == full.report, level
        assert other.metrics == full.metrics, level
        assert other.stabilization == full.stabilization, level
        if level is TraceLevel.NONE:
            assert other.trace is None and not other_handed
        assert_unchanged(other_handed)

    if config.faults is not None:
        assert full.stabilization == reference_stabilization(config, full)
    else:
        assert PropertyChecker().check(trace) == full.report
        post_hoc = collect_metrics(trace)
        # The streamed leader count counts distinct leader uids; the
        # post-hoc one cannot see them.  Everything else must agree.
        assert replace(post_hoc, leader_count=full.metrics.leader_count) == full.metrics
