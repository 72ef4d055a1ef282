"""Unit tests for the single-hop radio network collision/disruption rules."""

from __future__ import annotations

import re

import pytest

from repro.exceptions import ConfigurationError, SimulationError
from repro.radio.actions import broadcast, listen
from repro.radio.events import FrequencyActivity, RoundActivity
from repro.radio.frequencies import FrequencyBand
from repro.radio.messages import LeaderMessage
from repro.radio.network import SingleHopRadioNetwork


@pytest.fixture
def network() -> SingleHopRadioNetwork:
    return SingleHopRadioNetwork(FrequencyBand(4))


MESSAGE = LeaderMessage(leader_uid=1, round_number=5)
OTHER = LeaderMessage(leader_uid=2, round_number=9)


class TestDelivery:
    def test_single_broadcaster_reaches_listener(self, network):
        received, activity = network.resolve_round(
            1, {0: broadcast(2, MESSAGE), 1: listen(2)}, disrupted=()
        )
        assert received == {1: MESSAGE}
        assert activity.delivered == frozenset({2})

    def test_every_listener_on_a_delivered_frequency_receives(self, network):
        received, activity = network.resolve_round(
            1, {0: listen(2), 1: broadcast(2, MESSAGE), 2: listen(2), 3: listen(1)}, disrupted=()
        )
        assert received == {0: MESSAGE, 2: MESSAGE}
        assert activity.delivered == frozenset({2})

    def test_listener_on_other_frequency_hears_nothing(self, network):
        received, activity = network.resolve_round(
            1, {0: broadcast(2, MESSAGE), 1: listen(3)}, disrupted=()
        )
        assert received == {}
        assert activity.delivered == frozenset({2})

    def test_broadcaster_never_receives(self, network):
        received, activity = network.resolve_round(
            1, {0: broadcast(2, MESSAGE), 1: broadcast(3, OTHER), 2: listen(3)}, disrupted=()
        )
        assert received == {2: OTHER}
        assert activity.delivered == frozenset({2, 3})

    def test_collision_destroys_both_messages(self, network):
        received, activity = network.resolve_round(
            1, {0: broadcast(2, MESSAGE), 1: broadcast(2, OTHER), 2: listen(2)}, disrupted=()
        )
        assert received == {}
        assert activity.delivered == frozenset()
        assert activity.per_frequency[2].collided

    def test_disruption_blocks_delivery(self, network):
        received, activity = network.resolve_round(
            1, {0: broadcast(2, MESSAGE), 1: listen(2)}, disrupted={2}
        )
        assert received == {}
        assert activity.delivered == frozenset()
        assert activity.disrupted == frozenset({2})

    def test_disruption_on_other_frequency_is_harmless(self, network):
        received, activity = network.resolve_round(
            1, {0: broadcast(2, MESSAGE), 1: listen(2)}, disrupted={3}
        )
        assert received == {1: MESSAGE}
        assert activity.delivered == frozenset({2})

    def test_silence_and_disruption_look_identical_to_listener(self, network):
        silent, _ = network.resolve_round(1, {0: listen(1)}, disrupted=())
        jammed, _ = network.resolve_round(1, {0: listen(1)}, disrupted={1})
        collided, _ = network.resolve_round(
            1, {0: listen(1), 1: broadcast(1, MESSAGE), 2: broadcast(1, OTHER)}, disrupted=()
        )
        assert silent == jammed == collided == {}

    def test_empty_round_resolves(self, network):
        received, activity = network.resolve_round(1, {}, disrupted={1})
        assert received == {}
        assert activity.disrupted == frozenset({1})

    def test_resolver_keeps_no_state_between_rounds(self, network):
        actions = {0: broadcast(2, MESSAGE), 1: listen(2), 2: listen(1)}
        first = network.resolve_round(1, actions, disrupted=())
        network.resolve_round(2, {0: broadcast(1, OTHER), 1: listen(1)}, disrupted={2})
        again = network.resolve_round(1, actions, disrupted=())
        assert again == first
        assert vars(network).keys() == {"_band", "_band_set"}


class TestActivityRecord:
    def test_activity_groups_by_frequency(self, network):
        _, activity = network.resolve_round(
            7,
            {0: broadcast(1, MESSAGE), 1: listen(1), 2: broadcast(3, OTHER), 3: broadcast(3, MESSAGE)},
            disrupted={2},
            activations=(5,),
        )
        assert activity.global_round == 7
        assert activity.activations == (5,)
        assert activity.per_frequency[1].delivered
        assert activity.per_frequency[3].collided
        assert not activity.per_frequency[3].delivered
        assert activity.successful_frequencies() == (1,)
        assert activity.broadcaster_count() == 3

    def test_per_frequency_view_sorts_frequencies_and_node_ids(self):
        activity = RoundActivity(
            global_round=3,
            broadcasters={5: [3, 1], 2: [4]},
            listeners={5: [2, 0], 7: [6]},
            disrupted=frozenset({7}),
            delivered=frozenset({2}),
        )
        view = activity.per_frequency
        assert list(view) == [2, 5, 7]
        assert view[2] == FrequencyActivity(frequency=2, broadcasters=(4,), delivered=True)
        assert view[5] == FrequencyActivity(frequency=5, broadcasters=(1, 3), listeners=(0, 2))
        assert view[7] == FrequencyActivity(frequency=7, listeners=(6,), disrupted=True)
        assert activity.successful_frequencies() == (2,)
        assert activity.broadcaster_count() == 3

    def test_per_frequency_is_a_read_only_view(self, network):
        _, activity = network.resolve_round(
            1, {0: broadcast(1, MESSAGE), 1: listen(1), 2: listen(3)}, disrupted=()
        )
        activity.per_frequency.clear()
        assert list(activity.per_frequency) == [1, 3]
        with pytest.raises(TypeError):
            RoundActivity(global_round=1, per_frequency={})

    def test_out_of_band_disruption_rejected(self, network):
        with pytest.raises(ConfigurationError):
            network.resolve_round(1, {}, disrupted={9})

    def test_out_of_band_action_rejected(self, network):
        with pytest.raises(SimulationError):
            network.resolve_round(1, {0: listen(9)}, disrupted=())


class TestBudgetValidation:
    def test_budget_accepts_within_limit(self, network):
        assert network.validate_disruption_budget({1, 2}, 3) == frozenset({1, 2})

    def test_budget_rejects_exceeding(self, network):
        with pytest.raises(ConfigurationError):
            network.validate_disruption_budget({1, 2, 3}, 2)

    def test_budget_rejects_out_of_band(self, network):
        with pytest.raises(ConfigurationError):
            network.validate_disruption_budget({99}, 3)

    @pytest.mark.parametrize(
        "make, expected",
        [
            (lambda: [1, 2], {1, 2}),
            (lambda: [True], {1}),
            (lambda: (f for f in (3, 8)), {3, 8}),
            (lambda: frozenset(), set()),
        ],
        ids=["list", "bool", "generator", "empty-frozenset"],
    )
    def test_band_of_eight_accepts(self, make, expected):
        network = SingleHopRadioNetwork(FrequencyBand(8))
        assert network.validate_disruption_budget(make(), 3) == frozenset(expected)

    # 2.0 == 2 and hash(2.0) == hash(2): a bare subset test against the band
    # would let the float through.
    @pytest.mark.parametrize("frequency", [0, 9, 2.0, "1"], ids=repr)
    def test_band_of_eight_rejects(self, frequency):
        network = SingleHopRadioNetwork(FrequencyBand(8))
        message = f"frequency {frequency!r} outside band [1..8]"
        with pytest.raises(ConfigurationError, match=re.escape(message)):
            network.validate_disruption_budget([frequency], 3)

    def test_band_of_eight_rejects_over_budget(self):
        network = SingleHopRadioNetwork(FrequencyBand(8))
        message = "adversary disrupted 4 frequencies, budget is 3"
        with pytest.raises(ConfigurationError, match=re.escape(message)):
            network.validate_disruption_budget([1, 2, 3, 4], 3)
