"""Generated dispatch groups: pooled rows equal serial rows, batch by batch.

A campaign or a search generation hands the pool one group of
``(template, seeds)`` batches, and :meth:`ExecutionPool.iter_reduced` may cut
that group into chunks that span several batches.  This test draws groups of
1–6 templates with 1–9 seeds each, pools of 1–3 workers with automatic and
explicit chunk sizes, both engines, and in some groups one unpicklable batch
(a closure factory, which runs in-process between worker chunks).  Every
batch's rows must equal a serial :func:`run_reduced_trials` of the same
template and seeds, in seed order, whatever chunks carried them.
"""

from __future__ import annotations

import warnings
from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adversary.activation import StaggeredActivation
from repro.adversary.jammers import NoInterference, RandomJammer
from repro.engine.observers import TraceLevel
from repro.engine.pool import _MERGE_FLOOR, ExecutionPool
from repro.engine.runner import run_reduced_trials
from repro.engine.simulator import SimulationConfig
from repro.params import ModelParameters
from repro.protocols.registry import protocol_factory

PROTOCOLS = ("trapdoor", "uniform-wakeup", "round-robin")


def template(protocol: str, nodes: int, jammed: bool) -> SimulationConfig:
    return SimulationConfig(
        params=ModelParameters(frequencies=4, disruption_budget=1, participant_bound=8),
        protocol_factory=protocol_factory(protocol),
        activation=StaggeredActivation(count=nodes, spacing=2),
        adversary=RandomJammer() if jammed else NoInterference(),
        max_rounds=2_000,
        trace_level=TraceLevel.NONE,
    )


def unpicklable(config: SimulationConfig, protocol: str) -> SimulationConfig:
    factory = protocol_factory(protocol)
    return replace(config, protocol_factory=lambda context: factory(context))


@st.composite
def groups(draw):
    """A dispatch group, the pool that runs it, and the engine flag."""
    batches = []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        protocol = draw(st.sampled_from(PROTOCOLS))
        config = template(protocol, draw(st.integers(min_value=2, max_value=4)), draw(st.booleans()))
        seeds = draw(
            st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=9)
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
    return group, local is not None, workers, chunk_size, draw(st.booleans())


@settings(max_examples=30, deadline=None, database=None, derandomize=True)
@given(groups())
def test_every_batch_of_a_group_gets_its_serial_rows(case):
    group, has_local, workers, chunk_size, batch = case
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with ExecutionPool(workers=workers, chunk_size=chunk_size) as pool:
            pooled = list(pool.iter_reduced(group, batch=batch))
    assert len(pooled) == len(group)
    for (config, seeds), rows in zip(group, pooled):
        assert rows == list(run_reduced_trials(config, seeds=seeds))
    fallbacks = [w for w in caught if "not picklable" in str(w.message)]
    assert len(fallbacks) == int(has_local)


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(
    sizes=st.lists(st.integers(min_value=0, max_value=40), min_size=1, max_size=8),
    workers=st.integers(min_value=1, max_value=3),
    chunk_size=st.sampled_from((None, None, None, 1, 2, 4)),
    alone=st.sets(st.integers(min_value=0, max_value=7), max_size=2),
)
def test_the_chunker_covers_every_seed_once_in_order(sizes, workers, chunk_size, alone):
    pool = ExecutionPool(workers=workers, chunk_size=chunk_size)
    chunks = pool._cut(sizes, alone=alone)
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
