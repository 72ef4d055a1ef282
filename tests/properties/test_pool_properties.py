"""Generated dispatch groups: pooled rows equal serial rows, batch by batch.

A campaign or a search generation hands the pool one group of
``(template, seeds)`` batches, and :meth:`ExecutionPool.iter_reduced` may cut
that group into chunks that span several batches.  The first test draws
groups of 1–6 templates with 1 to ``2 * _KERNEL_FLOOR`` seeds each, so
kernel and scalar segments mix, pools of 1–3 workers with automatic and
explicit chunk sizes, and in some groups one unpicklable batch (a closure
factory, which runs in-process between worker chunks).  Every batch's rows
must equal a serial :func:`run_reduced_trials` of the same template and
seeds, in seed order, whatever chunks carried them.

The engine is chosen per segment: the lockstep kernel for a batchable
template with ``_KERNEL_FLOOR`` or more seeds, the scalar loop otherwise.
The last test checks that rule across paths, on templates the kernel runs
and templates it refuses (Good Samaritan, the fault-tolerant Trapdoor, a
fault plan), against the scalar engine seed by seed.
"""

from __future__ import annotations

import warnings
from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adversary.activation import StaggeredActivation
from repro.adversary.jammers import NoInterference, RandomJammer
from repro.engine.batch import batchable
from repro.engine.observers import TraceLevel
from repro.engine.pool import (
    _KERNEL_FLOOR,
    _MERGE_FLOOR,
    ExecutionPool,
    ReducedTrial,
    simulate_one,
)
from repro.engine.runner import run_reduced_trials
from repro.engine.simulator import SimulationConfig
from repro.faults import ChurnEvent, FaultPlan
from repro.params import ModelParameters
from repro.protocols.registry import protocol_factory
from repro.telemetry import Telemetry

PROTOCOLS = ("trapdoor", "uniform-wakeup", "round-robin")
BATCHABLE = PROTOCOLS + ("decay-wakeup", "single-channel")
#: Protocols the kernel never runs, whatever the seed count.
SCALAR_ONLY = ("good-samaritan", "fault-tolerant-trapdoor")
CHURN = FaultPlan(churn=(ChurnEvent(node_id=1, leave_round=20, rejoin_round=40),))


def template(
    protocol: str, nodes: int, jammed: bool, max_rounds: int = 2_000
) -> SimulationConfig:
    return SimulationConfig(
        params=ModelParameters(frequencies=4, disruption_budget=1, participant_bound=8),
        protocol_factory=protocol_factory(protocol),
        activation=StaggeredActivation(count=nodes, spacing=2),
        adversary=RandomJammer() if jammed else NoInterference(),
        max_rounds=max_rounds,
        trace_level=TraceLevel.NONE,
    )


def unpicklable(config: SimulationConfig, protocol: str) -> SimulationConfig:
    factory = protocol_factory(protocol)
    return replace(config, protocol_factory=lambda context: factory(context))


@st.composite
def groups(draw):
    """A dispatch group and the pool that runs it."""
    batches = []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        protocol = draw(st.sampled_from(PROTOCOLS))
        config = template(protocol, draw(st.integers(min_value=2, max_value=4)), draw(st.booleans()))
        seeds = draw(
            st.lists(
                st.integers(min_value=0, max_value=10_000),
                min_size=1,
                max_size=2 * _KERNEL_FLOOR,
            )
        )
        batches.append((config, protocol, tuple(seeds)))
    local = draw(st.one_of(st.none(), st.integers(min_value=0, max_value=len(batches) - 1)))
    group = [
        (unpicklable(config, protocol) if index == local else config, seeds)
        for index, (config, protocol, seeds) in enumerate(batches)
    ]
    workers = draw(st.integers(min_value=1, max_value=3))
    # Half the draws are automatic: the only chunking that merges batches.
    chunk_size = draw(st.sampled_from((None, None, None, 1, 2, 4)))
    return group, local is not None, workers, chunk_size


@settings(max_examples=30, deadline=None, database=None, derandomize=True)
@given(groups())
def test_every_batch_of_a_group_gets_its_serial_rows(case):
    group, has_local, workers, chunk_size = case
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with ExecutionPool(workers=workers, chunk_size=chunk_size) as pool:
            pooled = list(pool.iter_reduced(group))
    assert len(pooled) == len(group)
    for (config, seeds), rows in zip(group, pooled):
        assert rows == list(run_reduced_trials(config, seeds=seeds))
    fallbacks = [w for w in caught if "not picklable" in str(w.message)]
    assert len(fallbacks) == int(has_local)


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(
    sizes=st.lists(st.integers(min_value=0, max_value=100), min_size=1, max_size=8),
    workers=st.integers(min_value=1, max_value=3),
    chunk_size=st.sampled_from((None, None, None, 1, 2, 4)),
    alone=st.sets(st.integers(min_value=0, max_value=7), max_size=2),
    kernel=st.sets(st.integers(min_value=0, max_value=7), max_size=3),
)
def test_the_chunker_covers_every_seed_once_in_order(sizes, workers, chunk_size, alone, kernel):
    # The kernel-eligible set holds batches the kernel would run: batchable
    # templates with at least _KERNEL_FLOOR seeds.
    eligible = {batch for batch in kernel if batch < len(sizes) and sizes[batch] >= _KERNEL_FLOOR}
    pool = ExecutionPool(workers=workers, chunk_size=chunk_size)
    chunks = pool._cut(sizes, alone=alone, kernel=eligible)
    covered = [
        (batch, position)
        for chunk in chunks
        for batch, start, stop in chunk
        for position in range(start, stop)
    ]
    assert covered == [(batch, position) for batch, size in enumerate(sizes) for position in range(size)]
    for chunk in chunks:
        batches = [batch for batch, _start, _stop in chunk]
        assert len(set(batches)) == len(batches), "one batch's seeds form one segment per chunk"
        if chunk_size is not None or any(batch in alone for batch in batches):
            assert len(chunk) == 1, "explicit sizes and unpicklable batches are never merged"
        if chunk_size is not None:
            assert chunk[0][2] - chunk[0][1] <= chunk_size
        elif any(batch in eligible for batch in batches):
            assert len(chunk) == 1, "a kernel batch is cut on its own"
            assert chunk[0][2] - chunk[0][1] >= _KERNEL_FLOOR, "every piece reaches the kernel"
    if chunk_size is None:
        for batch in eligible:
            pieces = sum(1 for chunk in chunks if chunk[0][0] == batch)
            assert pieces <= 4 * workers
            assert pieces <= workers or pieces % workers == 0


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(
    sizes=st.lists(st.integers(min_value=0, max_value=12), min_size=1, max_size=8),
    workers=st.integers(min_value=1, max_value=3),
)
def test_a_group_of_small_batches_splits_evenly_over_the_workers(sizes, workers):
    # Every batch here is small (its automatic pieces would hold fewer than
    # four seeds), so the group is one run: even chunks, the larger first,
    # none above the floor, and a chunk count the workers share evenly
    # unless every seed has a chunk of its own.
    held = [
        sum(stop - start for _batch, start, stop in chunk)
        for chunk in ExecutionPool(workers=workers)._cut(sizes)
    ]
    assert sum(held) == sum(sizes)
    if held:
        assert max(held) <= _MERGE_FLOOR and max(held) - min(held) <= 1
        assert held == sorted(held, reverse=True)
        assert len(held) % workers == 0 or len(held) == sum(sizes)


def kernel_trials(config: SimulationConfig, count: int, chunk_size) -> int:
    """Seeds of one batch that run on the kernel: its segments of ``_KERNEL_FLOOR`` or more."""
    if not batchable(config):
        return 0
    if chunk_size is None:  # automatic chunks of a kernel batch never drop below the floor
        return count if count >= _KERNEL_FLOOR else 0
    pieces = [min(chunk_size, count - start) for start in range(0, count, chunk_size)]
    return sum(piece for piece in pieces if piece >= _KERNEL_FLOOR)


@st.composite
def engine_cases(draw):
    """Batches on both sides of the floor, with the path that runs them."""
    group = []
    for _ in range(draw(st.integers(min_value=2, max_value=3))):
        protocol = draw(st.sampled_from(BATCHABLE + SCALAR_ONLY))
        config = template(
            protocol, draw(st.integers(min_value=2, max_value=3)), draw(st.booleans()), 400
        )
        if draw(st.integers(min_value=0, max_value=3)) == 0:
            config = replace(config, faults=CHURN)
        floor = _KERNEL_FLOOR
        count = draw(st.sampled_from((1, floor - 1, floor, floor + 1, 2 * floor)))
        first = draw(st.integers(min_value=0, max_value=10_000))
        group.append((config, tuple(range(first, first + count))))
    workers = draw(st.sampled_from((None, 1, 2)))  # None: serial, in this process
    chunk_size = draw(st.sampled_from((None, None, _KERNEL_FLOOR - 1, _KERNEL_FLOOR)))
    return group, workers, chunk_size


@settings(max_examples=30, deadline=None, database=None, derandomize=True)
@given(engine_cases())
def test_each_segment_runs_on_the_engine_the_rule_picks_with_the_scalar_rows(case):
    group, workers, chunk_size = case
    if workers is None:
        rows = [list(run_reduced_trials(config, seeds=seeds)) for config, seeds in group]
    else:
        telemetry = Telemetry()
        with ExecutionPool(workers=workers, chunk_size=chunk_size, telemetry=telemetry) as pool:
            rows = list(pool.iter_reduced(group))
        counters = telemetry.snapshot()["counters"]
        assert counters["worker.batch_trials"] == sum(
            kernel_trials(config, len(seeds), chunk_size) for config, seeds in group
        )
        assert counters["worker.trials_executed"] == sum(len(seeds) for _config, seeds in group)
    for (config, seeds), batch_rows in zip(group, rows):
        assert batch_rows == [ReducedTrial.from_result(s, simulate_one(config, s)) for s in seeds]
