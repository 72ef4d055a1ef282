"""Generated configurations: the batch kernel equals the scalar engine.

The golden suites pin the lockstep kernel at fixed points — (4, 1, 8), four
nodes, 1,500 rounds — where no node's word stream ever outlives its first
block of random words.  This test draws batchable configurations across the
kernel's whole scope instead, many of them long enough to refill every
stream several times, and requires each seed's ``execution_digest`` from
:func:`run_batch` to equal the scalar engine's (:func:`simulate_one`).

Every batchable protocol × registered jammer pair gets its own examples, so
no pair is left to chance.  Hypothesis tries the simplest case first, so
each pair also runs a zero disruption budget, where Trapdoor's band narrows
to one frequency and every jammer plans an empty set.  Each pair runs with
its own fixed seed, so tier-1 sees the same examples on every run and
different pairs see different parameters.
"""

from __future__ import annotations

import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

from repro.adversary.activation import (
    SimultaneousActivation,
    StaggeredActivation,
    TrickleActivation,
)
from repro.adversary.registry import ADVERSARY_FACTORIES
from repro.engine.batch import batchable, run_batch
from repro.engine.observers import TraceLevel
from repro.engine.pool import simulate_one
from repro.engine.serialization import execution_digest
from repro.engine.simulator import SimulationConfig
from repro.exceptions import ConfigurationError
from repro.params import ModelParameters
from repro.protocols.registry import protocol_factory

BATCHABLE_PROTOCOLS = (
    "trapdoor",
    "uniform-wakeup",
    "decay-wakeup",
    "single-channel",
    "round-robin",
)
PAIRS = tuple(
    (protocol, jammer) for protocol in BATCHABLE_PROTOCOLS for jammer in sorted(ADVERSARY_FACTORIES)
)
EXAMPLES_PER_PAIR = 3


@st.composite
def batch_cases(draw, protocol: str, jammer: str) -> tuple[SimulationConfig, list[int]]:
    """A batchable configuration of one protocol and jammer, and its seeds."""
    frequencies = draw(st.integers(min_value=2, max_value=12))
    budget = draw(st.integers(min_value=0, max_value=frequencies - 1))
    participants = draw(st.sampled_from((4, 8, 16, 64)))
    nodes = draw(st.integers(min_value=1, max_value=6))
    kind = draw(st.sampled_from(("simultaneous", "staggered", "trickle")))
    gap = draw(st.integers(min_value=0, max_value=40))
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
            adversary=ADVERSARY_FACTORIES[jammer](),
            max_rounds=draw(st.integers(min_value=50, max_value=1_500)),
            trace_level=TraceLevel.NONE,
        )
    except ConfigurationError:
        assume(False)
    assume(batchable(config))
    seeds = draw(st.lists(st.integers(min_value=0, max_value=2**31), min_size=1, max_size=6))
    return config, seeds


@pytest.mark.parametrize("protocol, jammer", PAIRS)
def test_batch_digests_equal_the_scalar_engine(protocol, jammer):
    @seed(PAIRS.index((protocol, jammer)))
    @settings(max_examples=EXAMPLES_PER_PAIR, deadline=None, database=None)
    @given(batch_cases(protocol, jammer))
    def check(case):
        config, seeds = case
        for trial_seed, batched in zip(seeds, run_batch(config, seeds)):
            assert execution_digest(batched) == execution_digest(
                simulate_one(config, trial_seed)
            ), f"seed {trial_seed}: the lockstep kernel diverged from the scalar engine"

    check()
