"""Unit tests for the interference adversaries."""

from __future__ import annotations

import random

import pytest

from repro.adversary import registry as adversary_registry
from repro.adversary.activation import StaggeredActivation
from repro.adversary.base import AdversaryContext, validate_budget
from repro.adversary.jammers import (
    BurstyJammer,
    FixedBandJammer,
    LowBandJammer,
    NoInterference,
    RandomJammer,
    ReactiveJammer,
    SweepJammer,
    TwoNodeProductJammer,
)
from repro.adversary.oblivious import ObliviousSchedule
from repro.engine.observers import TraceLevel
from repro.engine.simulator import SimulationConfig, simulate
from repro.exceptions import ConfigurationError
from repro.params import ModelParameters
from repro.protocols.registry import protocol_factory
from repro.radio.events import RoundActivity
from repro.radio.frequencies import FrequencyBand
from repro.radio.spectrum_log import SpectrumLog


def make_context(global_round=1, size=8, budget=3, history=None, seed=0, active=4):
    return AdversaryContext(
        global_round=global_round,
        band=FrequencyBand(size),
        budget=budget,
        history=history or SpectrumLog(),
        rng=random.Random(seed),
        active_node_count=active,
    )


class TestBudgetValidation:
    def test_validate_budget_accepts_valid(self):
        assert validate_budget(FrequencyBand(8), 3) == 3
        assert validate_budget(FrequencyBand(8), 0) == 0

    def test_validate_budget_rejects_invalid(self):
        with pytest.raises(ConfigurationError):
            validate_budget(FrequencyBand(8), 8)
        with pytest.raises(ConfigurationError):
            validate_budget(FrequencyBand(8), -1)


class TestSimpleJammers:
    def test_no_interference_never_disrupts(self):
        assert NoInterference().choose_disruption(make_context()) == frozenset()

    def test_fixed_band_disrupts_low_prefix(self):
        disrupted = FixedBandJammer().choose_disruption(make_context(budget=3))
        assert disrupted == frozenset({1, 2, 3})

    def test_fixed_band_never_exceeds_band(self):
        disrupted = FixedBandJammer().choose_disruption(make_context(size=4, budget=3))
        assert disrupted == frozenset({1, 2, 3})

    def test_random_jammer_respects_budget_and_band(self):
        for seed in range(10):
            disrupted = RandomJammer().choose_disruption(make_context(seed=seed))
            assert len(disrupted) == 3
            assert all(1 <= f <= 8 for f in disrupted)

    def test_random_jammer_with_reduced_strength(self):
        disrupted = RandomJammer(strength=1).choose_disruption(make_context())
        assert len(disrupted) == 1

    def test_random_jammer_zero_budget(self):
        assert RandomJammer().choose_disruption(make_context(budget=0)) == frozenset()

    def test_sweep_jammer_moves_over_rounds(self):
        jammer = SweepJammer()
        first = jammer.choose_disruption(make_context(global_round=1))
        second = jammer.choose_disruption(make_context(global_round=2))
        assert first != second
        assert len(first) == len(second) == 3

    def test_sweep_jammer_wraps_around_band(self):
        disrupted = SweepJammer().choose_disruption(make_context(global_round=8, budget=2))
        assert disrupted == frozenset({8, 1})

    def test_sweep_jammer_rejects_bad_step(self):
        with pytest.raises(ConfigurationError):
            SweepJammer(step=0)

    def test_bursty_jammer_on_off_cycle(self):
        jammer = BurstyJammer(on_rounds=2, off_rounds=2)
        assert len(jammer.choose_disruption(make_context(global_round=1))) == 3
        assert len(jammer.choose_disruption(make_context(global_round=2))) == 3
        assert jammer.choose_disruption(make_context(global_round=3)) == frozenset()
        assert jammer.choose_disruption(make_context(global_round=4)) == frozenset()
        assert len(jammer.choose_disruption(make_context(global_round=5))) == 3

    def test_bursty_jammer_validates_configuration(self):
        with pytest.raises(ConfigurationError):
            BurstyJammer(on_rounds=0)

    def test_low_band_jammer_targets_prefix(self):
        disrupted = LowBandJammer().choose_disruption(make_context(budget=3))
        assert disrupted == frozenset({1, 2, 3})

    def test_low_band_jammer_with_narrow_prefix_spends_rest_randomly(self):
        disrupted = LowBandJammer(prefix_width=1).choose_disruption(make_context(budget=3))
        assert 1 in disrupted
        assert len(disrupted) == 3


class TestHistoryAwareJammers:
    @staticmethod
    def history_with_busy_channel(channel: int, broadcasts: int = 5) -> SpectrumLog:
        log = SpectrumLog()
        activity = RoundActivity(
            global_round=1,
            broadcasters={channel: list(range(broadcasts))},
            delivered=frozenset({channel}),
        )
        log.record(activity)
        return log

    def test_reactive_jammer_targets_busiest(self):
        history = self.history_with_busy_channel(5)
        disrupted = ReactiveJammer().choose_disruption(make_context(history=history, budget=1))
        assert disrupted == frozenset({5})

    def test_reactive_jammer_is_marked_adaptive(self):
        assert ReactiveJammer.oblivious is False
        assert RandomJammer.oblivious is True

    def test_product_jammer_targets_used_channels(self):
        history = self.history_with_busy_channel(6)
        disrupted = TwoNodeProductJammer().choose_disruption(
            make_context(history=history, budget=1)
        )
        assert disrupted == frozenset({6})

    def test_product_jammer_defaults_to_low_channels(self):
        disrupted = TwoNodeProductJammer().choose_disruption(make_context(budget=2))
        assert disrupted == frozenset({1, 2})


class TestObliviousSchedule:
    def test_replays_fixed_schedule(self):
        schedule = ObliviousSchedule([{1}, {2}, {3}])
        assert schedule.choose_disruption(make_context(global_round=1)) == frozenset({1})
        assert schedule.choose_disruption(make_context(global_round=3)) == frozenset({3})

    def test_repeats_final_entry_beyond_schedule(self):
        schedule = ObliviousSchedule([{1}, {2}])
        assert schedule.choose_disruption(make_context(global_round=10)) == frozenset({2})

    def test_empty_schedule_never_disrupts(self):
        assert ObliviousSchedule([]).choose_disruption(make_context()) == frozenset()

    def test_describe_strings(self):
        assert "oblivious" in ObliviousSchedule([]).describe()
        assert "random" in RandomJammer().describe()
        assert "fixed band" in FixedBandJammer().describe()


PROBE_PARAMS = ModelParameters(frequencies=8, disruption_budget=3, participant_bound=16)
PROBE_SEEDS = (0, 1, 2)
OBLIVIOUS = [
    name for name in adversary_registry.names() if adversary_registry.resolve(name).oblivious
]
ADAPTIVE = [name for name in adversary_registry.names() if name not in OBLIVIOUS]


def disruptions_met(adversary: str, protocol: str, seed: int) -> list[frozenset[int]]:
    """The disruption set of every round of one 400-round execution."""
    config = SimulationConfig(
        params=PROBE_PARAMS,
        protocol_factory=protocol_factory(protocol),
        activation=StaggeredActivation(count=4, spacing=2),
        adversary=adversary_registry.resolve(adversary),
        max_rounds=400,
        seed=seed,
        stop_when_synchronized=False,
        trace_level=TraceLevel.FULL,
    )
    return [record.activity.disrupted for record in simulate(config).trace]


class TestObliviousFlag:
    """A jammer flagged oblivious ignores the execution it jams.

    The same seed and activation under two protocols with different traffic
    must meet the same disruption sets, round by round.  The adaptive jammers
    show that the probe can see a reaction: for some seed, they differ.
    """

    @pytest.mark.parametrize("name", OBLIVIOUS)
    def test_oblivious_jammer_ignores_the_execution(self, name):
        for seed in PROBE_SEEDS:
            trapdoor = disruptions_met(name, "trapdoor", seed)
            assert trapdoor == disruptions_met(name, "good-samaritan", seed), seed

    @pytest.mark.parametrize("name", ADAPTIVE)
    def test_adaptive_jammer_reacts_to_the_execution(self, name):
        assert any(
            disruptions_met(name, "trapdoor", seed) != disruptions_met(name, "good-samaritan", seed)
            for seed in PROBE_SEEDS
        )
