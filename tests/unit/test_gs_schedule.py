"""Unit tests for the Good Samaritan configuration and schedule (Figure 2)."""

from __future__ import annotations

import math
import random

import pytest

from repro.exceptions import ConfigurationError
from repro.params import ModelParameters
from repro.protocols.base import ProtocolContext
from repro.protocols.good_samaritan.config import GoodSamaritanConfig
from repro.protocols.good_samaritan.protocol import GoodSamaritanProtocol
from repro.protocols.good_samaritan.schedule import GoodSamaritanSchedule

#: (F, t, N) points for the per-round lookup tables: F = 2, a non-power-of-two
#: F, and N from 2 up to 1024.
TABLE_GRID = [
    (frequencies, budget, participants)
    for frequencies, budget in ((2, 1), (8, 3), (12, 5), (16, 0))
    for participants in (2, 64, 100, 1024)
]


class TestConfig:
    def test_defaults_validate(self):
        GoodSamaritanConfig()

    def test_rejects_bad_constants(self):
        with pytest.raises(ConfigurationError):
            GoodSamaritanConfig(epoch_constant=0)
        with pytest.raises(ConfigurationError):
            GoodSamaritanConfig(success_divisor=0)
        with pytest.raises(ConfigurationError):
            GoodSamaritanConfig(fallback_multiplier=0)
        with pytest.raises(ConfigurationError):
            GoodSamaritanConfig(special_round_probability=0)

    def test_standing_assumption_t_le_half_f(self):
        params = ModelParameters(frequencies=8, disruption_budget=5, participant_bound=16)
        with pytest.raises(ConfigurationError):
            GoodSamaritanConfig().validate_against(params)
        GoodSamaritanConfig().validate_against(
            ModelParameters(frequencies=8, disruption_budget=4, participant_bound=16)
        )


class TestStructure:
    def test_super_epoch_count_is_log_f(self, params):
        schedule = GoodSamaritanSchedule(params)
        assert schedule.super_epoch_count == 3  # lg 8

    def test_epochs_per_super_epoch_is_log_n_plus_two(self, params):
        schedule = GoodSamaritanSchedule(params)
        assert schedule.epochs_per_super_epoch == params.log_participants + 2
        assert schedule.critical_epoch == params.log_participants + 1
        assert schedule.report_epoch == params.log_participants + 2

    def test_epoch_lengths_double_per_super_epoch(self, params):
        schedule = GoodSamaritanSchedule(params)
        lengths = [schedule.epoch_length(k) for k in range(1, 4)]
        assert lengths[1] == 2 * lengths[0]
        assert lengths[2] == 2 * lengths[1]

    def test_prefix_width_doubles_and_clamps(self, params):
        schedule = GoodSamaritanSchedule(params)
        assert schedule.prefix_width(1) == 2
        assert schedule.prefix_width(2) == 4
        assert schedule.prefix_width(3) == 8

    def test_broadcast_probability_ladder(self, params):
        schedule = GoodSamaritanSchedule(params)
        log_n = params.log_participants
        assert schedule.broadcast_probability(1) == pytest.approx(2 / (2 * 16))
        assert schedule.broadcast_probability(log_n) == pytest.approx(0.5)
        assert schedule.broadcast_probability(log_n + 1) == pytest.approx(0.5)
        assert schedule.broadcast_probability(log_n + 2) == pytest.approx(0.5)

    def test_success_threshold_positive_and_scales_with_epoch_length(self, params):
        schedule = GoodSamaritanSchedule(params)
        thresholds = [schedule.success_threshold(k) for k in range(1, 4)]
        assert all(t >= 1 for t in thresholds)

    def test_fallback_epoch_is_at_least_four_times_longest_epoch(self, params):
        schedule = GoodSamaritanSchedule(params)
        longest = schedule.epoch_length(schedule.super_epoch_count)
        assert schedule.fallback_epoch_length >= 4 * longest

    def test_total_rounds_composition(self, params):
        schedule = GoodSamaritanSchedule(params)
        assert schedule.total_rounds == schedule.optimistic_rounds + schedule.fallback_rounds
        assert schedule.fallback_rounds == schedule.fallback_epoch_length * params.log_participants

    def test_invalid_super_epoch_rejected(self, params):
        schedule = GoodSamaritanSchedule(params)
        with pytest.raises(ConfigurationError):
            schedule.epoch_length(0)
        with pytest.raises(ConfigurationError):
            schedule.prefix_width(99)


class TestPositions:
    def test_span_of_first_round(self, params):
        schedule = GoodSamaritanSchedule(params)
        span = schedule.epoch_span(1)
        assert span.super_epoch == 1 and span.epoch == 1 and span.first == 1
        assert span.last == schedule.epoch_length(1)

    def test_span_walks_epoch_boundaries(self, params):
        schedule = GoodSamaritanSchedule(params)
        length = schedule.epoch_length(1)
        assert schedule.epoch_span(length).epoch == 1
        assert schedule.epoch_span(length + 1).epoch == 2

    def test_span_walks_super_epoch_boundaries(self, params):
        schedule = GoodSamaritanSchedule(params)
        first_super = schedule.epoch_length(1) * schedule.epochs_per_super_epoch
        assert schedule.epoch_span(first_super).super_epoch == 1
        assert schedule.epoch_span(first_super + 1).super_epoch == 2

    def test_span_beyond_optimistic_is_fallback(self, params):
        schedule = GoodSamaritanSchedule(params)
        beyond = schedule.optimistic_rounds + 1
        assert schedule.epoch_span(beyond) is None
        assert schedule.in_fallback(beyond)
        assert not schedule.in_fallback(schedule.optimistic_rounds)

    def test_fallback_position_structure(self, params):
        schedule = GoodSamaritanSchedule(params)
        first = schedule.fallback_position_of_round(schedule.optimistic_rounds + 1)
        assert first.epoch == 1 and first.round_in_epoch == 1 and not first.completed
        last = schedule.fallback_position_of_round(schedule.total_rounds)
        assert last.epoch == params.log_participants and not last.completed
        done = schedule.fallback_position_of_round(schedule.total_rounds + 1)
        assert done.completed

    def test_fallback_position_none_while_optimistic(self, params):
        schedule = GoodSamaritanSchedule(params)
        assert schedule.fallback_position_of_round(1) is None

    def test_rejects_non_positive_round(self, params):
        with pytest.raises(ConfigurationError):
            GoodSamaritanSchedule(params).epoch_span(0)


class TestAdaptiveBounds:
    def test_expected_super_epoch_grows_with_disruption(self, params):
        schedule = GoodSamaritanSchedule(params)
        assert schedule.expected_adaptive_super_epoch(0) == 1
        assert schedule.expected_adaptive_super_epoch(1) == 1
        assert schedule.expected_adaptive_super_epoch(2) == 2
        assert schedule.expected_adaptive_super_epoch(3) <= schedule.super_epoch_count

    def test_adaptive_round_bound_monotone_in_disruption(self, params):
        schedule = GoodSamaritanSchedule(params)
        assert schedule.adaptive_round_bound(1) <= schedule.adaptive_round_bound(2)
        assert schedule.adaptive_round_bound(2) <= schedule.optimistic_rounds

    def test_theoretical_bounds_positive(self, params):
        schedule = GoodSamaritanSchedule(params)
        assert schedule.theoretical_adaptive_bound(2) > 0
        assert schedule.theoretical_worst_case_bound() > schedule.theoretical_adaptive_bound(1)

    def test_negative_disruption_rejected(self, params):
        with pytest.raises(ConfigurationError):
            GoodSamaritanSchedule(params).expected_adaptive_super_epoch(-1)


class TestFigure2Artifacts:
    def test_describe_rows_one_per_super_epoch(self, params):
        schedule = GoodSamaritanSchedule(params)
        rows = schedule.describe_rows()
        assert len(rows) == schedule.super_epoch_count
        assert [row["super_epoch"] for row in rows] == [1, 2, 3]
        assert all(row["epoch_length"] >= 1 for row in rows)

    def test_special_frequency_distribution_sums_to_one(self, params):
        schedule = GoodSamaritanSchedule(params)
        for k in range(1, schedule.super_epoch_count + 1):
            distribution = schedule.special_frequency_distribution(k)
            assert sum(distribution.values()) == pytest.approx(1.0)
            assert all(p >= 0 for p in distribution.values())

    def test_special_distribution_favours_low_frequencies(self, params):
        schedule = GoodSamaritanSchedule(params)
        distribution = schedule.special_frequency_distribution(1)
        assert distribution[1] > distribution[params.frequencies]


@pytest.mark.parametrize("frequencies, budget, participants", TABLE_GRID)
class TestLookupTables:
    """The per-round lookups equal the closed forms they replace."""

    def test_prefix_width_per_super_epoch(self, frequencies, budget, participants):
        schedule = GoodSamaritanSchedule(ModelParameters(frequencies, budget, participants))
        for k in range(1, schedule.super_epoch_count + 1):
            assert schedule.prefix_width(k) == min(2**k, frequencies)
        with pytest.raises(ConfigurationError):
            schedule.prefix_width(0)
        with pytest.raises(ConfigurationError):
            schedule.prefix_width(schedule.super_epoch_count + 1)

    def test_broadcast_probability_per_epoch(self, frequencies, budget, participants):
        params = ModelParameters(frequencies, budget, participants)
        schedule = GoodSamaritanSchedule(params)
        log_n = params.log_participants
        for epoch in range(1, log_n + 4):
            expected = 0.5 if epoch > log_n else min(0.5, 2**epoch / (2 * participants))
            assert schedule.broadcast_probability(epoch) == expected
        with pytest.raises(ConfigurationError):
            schedule.broadcast_probability(0)

    def test_special_frequency_draws_match_the_two_step_formula(
        self, frequencies, budget, participants
    ):
        params = ModelParameters(frequencies, budget, participants)
        context = ProtocolContext(params=params, rng=random.Random(2009), uid=1, local_round=1)
        protocol = GoodSamaritanProtocol(context)
        reference = random.Random(2009)
        log_f = max(1, math.ceil(math.log2(frequencies)))
        for _ in range(10_000):
            d = reference.randint(1, log_f)
            expected = reference.randint(1, min(2**d, frequencies))
            assert protocol._special_frequency() == expected

    def test_epoch_span_at_every_epoch_boundary(self, frequencies, budget, participants):
        schedule = GoodSamaritanSchedule(ModelParameters(frequencies, budget, participants))
        # Walk the epochs from their lengths; check each epoch's first two and
        # last two rounds, so both sides of every boundary are covered.
        expected = {}
        first = 1
        for k in range(1, schedule.super_epoch_count + 1):
            length = schedule.epoch_length(k)
            for epoch in range(1, schedule.epochs_per_super_epoch + 1):
                last = first + length - 1
                for local_round in {first, first + 1, last - 1, last} & set(range(first, last + 1)):
                    expected[local_round] = (k, epoch, first, last)
                first = last + 1
        assert first == schedule.optimistic_rounds + 1
        for local_round, (k, epoch, first, last) in sorted(expected.items()):
            span = schedule.epoch_span(local_round)
            assert (span.super_epoch, span.epoch, span.first, span.last) == (k, epoch, first, last)
        for local_round in range(schedule.optimistic_rounds + 1, schedule.optimistic_rounds + 4):
            assert schedule.epoch_span(local_round) is None
