"""Unit tests for :mod:`repro.params`."""

from __future__ import annotations

import dataclasses
import math
import pickle

import pytest

from repro.exceptions import ConfigurationError
from repro.params import ModelParameters


class TestValidation:
    def test_accepts_valid_triple(self):
        params = ModelParameters(frequencies=8, disruption_budget=3, participant_bound=64)
        assert params.frequencies == 8
        assert params.disruption_budget == 3
        assert params.participant_bound == 64

    def test_rejects_zero_frequencies(self):
        with pytest.raises(ConfigurationError):
            ModelParameters(frequencies=0, disruption_budget=0, participant_bound=4)

    def test_rejects_budget_equal_to_frequencies(self):
        with pytest.raises(ConfigurationError):
            ModelParameters(frequencies=4, disruption_budget=4, participant_bound=4)

    def test_rejects_negative_budget(self):
        with pytest.raises(ConfigurationError):
            ModelParameters(frequencies=4, disruption_budget=-1, participant_bound=4)

    def test_rejects_tiny_participant_bound(self):
        with pytest.raises(ConfigurationError):
            ModelParameters(frequencies=4, disruption_budget=1, participant_bound=1)


class TestDerivedQuantities:
    def test_effective_frequencies_is_twice_budget_when_small(self):
        params = ModelParameters(frequencies=16, disruption_budget=3, participant_bound=64)
        assert params.effective_frequencies == 6

    def test_effective_frequencies_clamps_to_band(self):
        params = ModelParameters(frequencies=8, disruption_budget=7, participant_bound=64)
        assert params.effective_frequencies == 8

    def test_effective_frequencies_with_zero_budget_is_one(self):
        params = ModelParameters(frequencies=8, disruption_budget=0, participant_bound=64)
        assert params.effective_frequencies == 1

    def test_log_participants_is_ceiling(self):
        assert ModelParameters(4, 1, 64).log_participants == 6
        assert ModelParameters(4, 1, 65).log_participants == 7
        assert ModelParameters(4, 1, 2).log_participants == 1

    def test_log_frequencies_is_ceiling(self):
        assert ModelParameters(8, 1, 64).log_frequencies == 3
        assert ModelParameters(9, 1, 64).log_frequencies == 4
        assert ModelParameters(1, 0, 64).log_frequencies == 1

    def test_band_size_matches_frequencies(self):
        params = ModelParameters(frequencies=12, disruption_budget=2, participant_bound=64)
        assert len(params.band) == 12

    def test_with_budget_returns_new_instance(self):
        params = ModelParameters(frequencies=8, disruption_budget=3, participant_bound=64)
        changed = params.with_budget(1)
        assert changed.disruption_budget == 1
        assert changed.frequencies == params.frequencies
        assert params.disruption_budget == 3

    def test_with_budget_validates(self):
        params = ModelParameters(frequencies=8, disruption_budget=3, participant_bound=64)
        with pytest.raises(ConfigurationError):
            params.with_budget(8)

    def test_describe_mentions_all_three_parameters(self):
        params = ModelParameters(frequencies=8, disruption_budget=3, participant_bound=64)
        text = params.describe()
        assert "F=8" in text and "t=3" in text and "N=64" in text

    def test_parameters_are_hashable_and_frozen(self):
        params = ModelParameters(frequencies=8, disruption_budget=3, participant_bound=64)
        assert hash(params) == hash(ModelParameters(8, 3, 64))
        with pytest.raises(AttributeError):
            params.frequencies = 9  # type: ignore[misc]


class TestCachedLogarithms:
    def test_logs_are_ceiling_log2_over_a_range(self):
        for x in range(2, 1026):
            params = ModelParameters(frequencies=x, disruption_budget=1, participant_bound=x)
            expected = max(1, math.ceil(math.log2(x)))
            assert params.log_participants == expected, x
            assert params.log_frequencies == expected, x

    def test_read_instance_behaves_like_a_fresh_one(self):
        read = ModelParameters(frequencies=12, disruption_budget=3, participant_bound=100)
        assert (read.log_participants, read.log_frequencies) == (7, 4)
        fresh = ModelParameters(frequencies=12, disruption_budget=3, participant_bound=100)

        assert read == fresh and hash(read) == hash(fresh)
        assert len({read, fresh}) == 1

        clone = pickle.loads(pickle.dumps(read))
        assert clone == fresh and hash(clone) == hash(fresh)
        assert (clone.log_participants, clone.log_frequencies) == (7, 4)

        replaced = dataclasses.replace(read, frequencies=40, participant_bound=1000)
        assert replaced == dataclasses.replace(fresh, frequencies=40, participant_bound=1000)
        assert (replaced.log_participants, replaced.log_frequencies) == (10, 6)

        rebudgeted = read.with_budget(1)
        assert rebudgeted == fresh.with_budget(1)
        assert hash(rebudgeted) == hash(fresh.with_budget(1))
        assert (rebudgeted.log_participants, rebudgeted.log_frequencies) == (7, 4)

        with pytest.raises(AttributeError):
            read.participant_bound = 5  # type: ignore[misc]
