"""Unit tests for the shared adversary registry and adversary state.

The registry binds jammer names to constructors for the CLI, campaigns, and
the strategy search.  The state tests check that an adversary's class and
state pin down its behaviour: a name builds the same adversary every time,
pickling keeps it, and constructor parameters that change behaviour change
the state.
"""

from __future__ import annotations

import pickle

import pytest

from repro.adversary.base import InterferenceAdversary
from repro.adversary.jammers import (
    BurstyJammer,
    LowBandJammer,
    RandomJammer,
    SweepJammer,
)
from repro.adversary.oblivious import CyclicObliviousSchedule, ObliviousSchedule
from repro.adversary.policy import HEAT_BUCKETS, PolicyJammer
from repro.adversary.registry import ADVERSARY_FACTORIES, names, register, resolve
from repro.exceptions import ConfigurationError


class TestRegistry:
    def test_names_are_sorted_and_complete(self):
        assert names() == tuple(sorted(ADVERSARY_FACTORIES))
        for expected in ("none", "random", "sweep", "reactive", "low-band"):
            assert expected in names()

    @pytest.mark.parametrize("name", sorted(ADVERSARY_FACTORIES))
    def test_resolve_builds_a_fresh_adversary(self, name):
        first = resolve(name)
        second = resolve(name)
        assert isinstance(first, InterferenceAdversary)
        assert first is not second

    def test_resolve_accepts_constructor_overrides(self):
        jammer = resolve("sweep", step=3)
        assert jammer.step == 3

    def test_resolve_unknown_name_raises_with_known_list(self):
        with pytest.raises(ConfigurationError, match="unknown adversary.*sweep"):
            resolve("jammer-from-mars")

    def test_cli_shares_the_registry(self):
        from repro.cli import JAMMERS

        assert JAMMERS is ADVERSARY_FACTORIES

    def test_register_binds_a_new_name(self):
        register("test-only-alias", RandomJammer)
        try:
            assert isinstance(resolve("test-only-alias"), RandomJammer)
        finally:
            del ADVERSARY_FACTORIES["test-only-alias"]


def _policy_table(action: str) -> tuple[str, ...]:
    return (action,) * (2 * HEAT_BUCKETS)


def behaviour(adversary):
    """An adversary's class and state: equal pairs disrupt identically."""
    return type(adversary), vars(adversary)


class TestStateStability:
    """An adversary's class and state pin down its behaviour exactly."""

    @pytest.mark.parametrize("name", sorted(ADVERSARY_FACTORIES))
    def test_state_is_stable_across_instances(self, name):
        assert behaviour(resolve(name)) == behaviour(resolve(name))

    @pytest.mark.parametrize("name", sorted(ADVERSARY_FACTORIES))
    def test_state_survives_pickling(self, name):
        adversary = resolve(name)
        clone = pickle.loads(pickle.dumps(adversary))
        assert behaviour(clone) == behaviour(adversary)

    @pytest.mark.parametrize(
        "first, second",
        [
            (RandomJammer(strength=1), RandomJammer(strength=2)),
            (RandomJammer(strength=None), RandomJammer(strength=1)),
            (SweepJammer(step=1), SweepJammer(step=2)),
            (BurstyJammer(on_rounds=4, off_rounds=4), BurstyJammer(on_rounds=4, off_rounds=8)),
            (LowBandJammer(prefix_width=1), LowBandJammer(prefix_width=2)),
            (ObliviousSchedule([{1}]), ObliviousSchedule([{2}])),
            (CyclicObliviousSchedule([{1}, {2}]), CyclicObliviousSchedule([{2}, {1}])),
            (
                PolicyJammer(table=_policy_table("busiest"), phase_period=2),
                PolicyJammer(table=_policy_table("idle"), phase_period=2),
            ),
        ],
    )
    def test_state_changes_with_parameters(self, first, second):
        assert behaviour(first) != behaviour(second)
        # ... while staying stable for behaviourally identical twins.
        twin = pickle.loads(pickle.dumps(first))
        assert behaviour(twin) == behaviour(first)

    def test_cyclic_and_truncating_schedules_differ_even_with_equal_content(self):
        truncating = ObliviousSchedule([{1}, {2, 3}])
        cyclic = CyclicObliviousSchedule([{1}, {2, 3}])
        assert cyclic.schedule == truncating.schedule
        assert behaviour(cyclic) != behaviour(truncating)


class TestPolicyJammer:
    def test_table_shape_is_validated(self):
        with pytest.raises(ConfigurationError, match="entries"):
            PolicyJammer(table=("idle",), phase_period=2)

    def test_unknown_actions_are_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown policy action"):
            PolicyJammer(table=("warp-drive",) * (1 * HEAT_BUCKETS), phase_period=1)

    def test_actions_respect_the_budget(self):
        import random

        from repro.adversary.base import AdversaryContext
        from repro.adversary.policy import POLICY_ACTIONS
        from repro.radio.frequencies import FrequencyBand
        from repro.radio.spectrum_log import SpectrumLog

        band = FrequencyBand(8)
        for action in POLICY_ACTIONS:
            jammer = PolicyJammer(table=(action,) * (1 * HEAT_BUCKETS), phase_period=1)
            for global_round in (1, 2, 9):
                context = AdversaryContext(
                    global_round=global_round,
                    band=band,
                    budget=3,
                    history=SpectrumLog(),
                    rng=random.Random(0),
                )
                disruption = jammer.choose_disruption(context)
                assert len(disruption) <= 3
                assert all(frequency in band for frequency in disruption)
