"""Unit tests for the strategy genome space.

Genomes must round-trip through their dict form, carry stable content-hashed
keys, decode to picklable adversaries with stable state, and stay inside
the model's constraints (disruption sets ≤ t, frequencies within the band)
under sampling and mutation.
"""

from __future__ import annotations

import pickle
import random

import pytest

from repro.adversary.policy import HEAT_BUCKETS, POLICY_ACTIONS
from repro.adversary.registry import names as adversary_names
from repro.exceptions import ConfigurationError
from repro.params import ModelParameters
from repro.search.space import (
    ObliviousGenome,
    ParametricGenome,
    PolicyGenome,
    StrategySpace,
    genome_from_dict,
    genome_key,
)

PARAMS = ModelParameters(frequencies=8, disruption_budget=3, participant_bound=64)
SPACE = StrategySpace(params=PARAMS)


def behaviour(adversary):
    """An adversary's class and state: equal pairs disrupt identically."""
    return type(adversary), vars(adversary)


def sample_genomes(count: int = 30, seed: int = 0):
    rng = random.Random(seed)
    return [SPACE.sample(rng) for _ in range(count)]


class TestGenomes:
    def test_oblivious_normalizes_and_validates(self):
        genome = ObliviousGenome(period_sets=((3, 1, 1), (2,)))
        assert genome.period_sets == ((1, 3), (2,))
        with pytest.raises(ConfigurationError):
            ObliviousGenome(period_sets=())

    def test_parametric_rejects_unknown_names(self):
        with pytest.raises(ConfigurationError, match="unknown adversary"):
            ParametricGenome(name="jammer-from-mars")

    def test_policy_validates_eagerly(self):
        with pytest.raises(ConfigurationError):
            PolicyGenome(table=("idle",), phase_period=4)

    @pytest.mark.parametrize("genome", sample_genomes(), ids=lambda g: g.key)
    def test_round_trip_and_key_stability(self, genome):
        rebuilt = genome_from_dict(genome.to_dict())
        assert rebuilt == genome
        assert rebuilt.key == genome.key
        assert genome_key(rebuilt) == genome_key(genome)

    def test_keys_separate_distinct_genomes(self):
        genomes = sample_genomes()
        distinct = {genome.to_dict().__repr__() for genome in genomes}
        assert len({genome.key for genome in genomes}) == len(distinct)

    def test_from_dict_rejects_unknown_kind(self):
        with pytest.raises(ConfigurationError, match="unknown genome kind"):
            genome_from_dict({"kind": "quantum"})

    @pytest.mark.parametrize("genome", sample_genomes(12, seed=5), ids=lambda g: g.key)
    def test_decode_is_picklable_with_stable_state(self, genome):
        adversary = genome.decode(PARAMS)
        again = genome.decode(PARAMS)
        assert behaviour(adversary) == behaviour(again)
        clone = pickle.loads(pickle.dumps(adversary))
        assert behaviour(clone) == behaviour(adversary)

    def test_distinct_genomes_decode_to_distinct_schedules(self):
        first = ObliviousGenome(period_sets=((1, 2),)).decode(PARAMS)
        second = ObliviousGenome(period_sets=((1, 3),)).decode(PARAMS)
        assert type(first) is type(second)
        assert first.schedule != second.schedule


class TestSpace:
    def test_warm_start_enumerates_the_registry(self):
        warm = SPACE.warm_start()
        assert [genome.name for genome in warm] == list(adversary_names())
        assert all(genome.overrides == () for genome in warm)

    def test_sampling_is_deterministic_in_the_stream(self):
        first = [SPACE.sample(random.Random(42)) for _ in range(5)]
        second = [SPACE.sample(random.Random(42)) for _ in range(5)]
        assert first == second

    def test_sampled_oblivious_sets_respect_budget_and_band(self):
        rng = random.Random(1)
        for _ in range(50):
            genome = SPACE.sample_oblivious(rng)
            assert 1 <= len(genome.period_sets) <= SPACE.max_period
            for entry in genome.period_sets:
                assert len(entry) <= PARAMS.disruption_budget
                assert all(frequency in PARAMS.band for frequency in entry)

    def test_sampled_policies_use_known_actions(self):
        rng = random.Random(2)
        for _ in range(20):
            genome = SPACE.sample_policy(rng)
            assert len(genome.table) == SPACE.phase_period * HEAT_BUCKETS
            assert set(genome.table) <= set(POLICY_ACTIONS)

    def test_mutation_is_deterministic_and_stays_valid(self):
        for seed, genome in enumerate(sample_genomes(20, seed=9)):
            mutated_once = SPACE.mutate(genome, random.Random(seed))
            mutated_again = SPACE.mutate(genome, random.Random(seed))
            assert mutated_once == mutated_again
            if isinstance(mutated_once, ObliviousGenome):
                for entry in mutated_once.period_sets:
                    assert len(entry) <= PARAMS.disruption_budget

    def test_parametric_mutation_keeps_values_in_range(self):
        genome = ParametricGenome(name="sweep", overrides=(("step", 7),))
        for seed in range(20):
            mutated = SPACE.mutate(genome, random.Random(seed))
            assert isinstance(mutated, ParametricGenome)
            step = dict(mutated.overrides)["step"]
            assert 1 <= step <= PARAMS.frequencies - 1

    def test_parameterless_jammers_hop_to_a_fresh_sample(self):
        genome = ParametricGenome(name="reactive")
        mutated = SPACE.mutate(genome, random.Random(3))
        assert mutated != genome
