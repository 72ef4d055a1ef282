"""Shared fixtures for the test suite.

The fixtures keep the model parameters small enough that full protocol
executions finish in milliseconds, while still exercising every code path
(multiple epochs, multiple super-epochs, a non-trivial disruption budget).
"""

from __future__ import annotations

import random

import pytest
from hypothesis import settings

# Thousands of examples for the property tests that leave their example count
# to the profile (tests/properties/test_fast_path_twins.py); select it with
# ``python -m pytest <files> --hypothesis-profile thorough``.
settings.register_profile("thorough", max_examples=3_000, deadline=None, database=None)

from repro.adversary.activation import SimultaneousActivation, StaggeredActivation
from repro.adversary.jammers import NoInterference, RandomJammer
from repro.engine.simulator import SimulationConfig, simulate
from repro.params import ModelParameters
from repro.protocols.base import ProtocolContext
from repro.protocols.trapdoor.protocol import TrapdoorProtocol


@pytest.fixture
def params() -> ModelParameters:
    """Small but non-degenerate model parameters: F=8, t=3, N=16."""
    return ModelParameters(frequencies=8, disruption_budget=3, participant_bound=16)


@pytest.fixture
def large_params() -> ModelParameters:
    """A larger parameter point used by schedule/bound tests: F=16, t=6, N=256."""
    return ModelParameters(frequencies=16, disruption_budget=6, participant_bound=256)


@pytest.fixture
def quiet_params() -> ModelParameters:
    """Parameters with no disruption budget (t=0)."""
    return ModelParameters(frequencies=4, disruption_budget=0, participant_bound=16)


@pytest.fixture
def rng() -> random.Random:
    """A deterministic random stream for tests."""
    return random.Random(12345)


@pytest.fixture
def make_context(params, rng):
    """Factory for protocol contexts with controllable uid / local round."""

    def build(uid: int = 7, local_round: int = 1, model: ModelParameters | None = None) -> ProtocolContext:
        return ProtocolContext(
            params=model or params, rng=random.Random(uid * 1000 + 17), uid=uid, local_round=local_round
        )

    return build


@pytest.fixture
def trapdoor_result(params):
    """A finished Trapdoor execution with staggered arrivals and a random jammer."""
    config = SimulationConfig(
        params=params,
        protocol_factory=TrapdoorProtocol.factory(),
        activation=StaggeredActivation(count=6, spacing=2),
        adversary=RandomJammer(),
        max_rounds=10_000,
        seed=42,
    )
    return simulate(config)


@pytest.fixture
def quiet_trapdoor_result(params):
    """A finished Trapdoor execution with simultaneous arrivals and no interference."""
    config = SimulationConfig(
        params=params,
        protocol_factory=TrapdoorProtocol.factory(),
        activation=SimultaneousActivation(count=4),
        adversary=NoInterference(),
        max_rounds=10_000,
        seed=7,
        extra_rounds_after_sync=20,
        stop_when_synchronized=True,
    )
    return simulate(config)
