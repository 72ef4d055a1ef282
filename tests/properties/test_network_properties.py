"""Property-based tests for the radio network collision/disruption semantics."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.metrics import MetricsObserver
from repro.engine.trace import RoundRecord
from repro.radio.actions import broadcast, listen
from repro.radio.frequencies import FrequencyBand
from repro.radio.messages import DataMessage
from repro.radio.network import SingleHopRadioNetwork


@st.composite
def round_instances(draw):
    """A random band, per-node actions, and a disruption set."""
    size = draw(st.integers(min_value=1, max_value=12))
    node_count = draw(st.integers(min_value=0, max_value=14))
    actions = {}
    for node_id in range(node_count):
        frequency = draw(st.integers(min_value=1, max_value=size))
        if draw(st.booleans()):
            actions[node_id] = broadcast(frequency, DataMessage(sender_uid=node_id, payload=node_id))
        else:
            actions[node_id] = listen(frequency)
    disrupted = draw(st.sets(st.integers(min_value=1, max_value=size), max_size=size))
    return size, actions, disrupted


class TestNetworkInvariants:
    @given(round_instances())
    @settings(max_examples=200, deadline=None)
    def test_delivery_rule_is_exactly_the_paper_rule(self, instance):
        size, actions, disrupted = instance
        network = SingleHopRadioNetwork(FrequencyBand(size))
        received, _ = network.resolve_round(1, actions, disrupted)

        broadcasters_by_freq: dict[int, list[int]] = {}
        for node_id, action in actions.items():
            if action.is_broadcast:
                broadcasters_by_freq.setdefault(action.frequency, []).append(node_id)

        # Exactly the listeners on a frequency with one broadcaster and no
        # disruption receive, each the message that broadcaster sent.
        expected = {}
        for node_id, action in actions.items():
            senders = broadcasters_by_freq.get(action.frequency, [])
            if action.is_listen and len(senders) == 1 and action.frequency not in disrupted:
                expected[node_id] = actions[senders[0]].message
        assert received == expected
        # A broadcaster never receives anything.
        assert not received.keys() & {
            node_id for node_id, action in actions.items() if action.is_broadcast
        }

    @given(round_instances())
    @settings(max_examples=200, deadline=None)
    def test_activity_record_is_consistent_with_receptions(self, instance):
        size, actions, disrupted = instance
        network = SingleHopRadioNetwork(FrequencyBand(size))
        received, activity = network.resolve_round(1, actions, disrupted)
        assert activity.disrupted == frozenset(disrupted)
        total_broadcasters = sum(1 for action in actions.values() if action.is_broadcast)
        assert activity.broadcaster_count() == total_broadcasters

        # The view: one record per tuned frequency, ascending, with the
        # sorted ids of the nodes that broadcast or listened there.
        per_frequency = activity.per_frequency
        assert list(per_frequency) == sorted({action.frequency for action in actions.values()})
        for frequency, freq_activity in per_frequency.items():
            acting = sorted(node for node in actions if actions[node].frequency == frequency)
            assert freq_activity.frequency == frequency
            assert freq_activity.broadcasters == tuple(
                node for node in acting if actions[node].is_broadcast
            )
            assert freq_activity.listeners == tuple(
                node for node in acting if actions[node].is_listen
            )
            assert freq_activity.disrupted == (frequency in disrupted)
            assert freq_activity.delivered == (
                len(freq_activity.broadcasters) == 1 and frequency not in disrupted
            )
        assert activity.successful_frequencies() == tuple(
            frequency
            for frequency, freq_activity in per_frequency.items()
            if len(freq_activity.broadcasters) == 1 and frequency not in disrupted
        )

        # Metrics fed the round count what the view implies.
        observer = MetricsObserver()
        observer.on_round(RoundRecord(1, {}, {}, activity))
        metrics = observer.result()
        views = per_frequency.values()
        assert metrics.broadcasts == sum(len(view.broadcasters) for view in views)
        assert metrics.deliveries == sum(view.delivered for view in views)
        assert metrics.collisions == sum(view.collided for view in views)
        assert metrics.disrupted_deliveries_prevented == sum(
            len(view.broadcasters) == 1 and view.disrupted for view in views
        )
        assert metrics.disrupted_frequency_rounds == len(activity.disrupted)

        # Receivers are exactly the listeners on the delivered frequencies.
        listeners = activity.listeners
        assert set(received) == {
            node for frequency in activity.delivered for node in listeners.get(frequency, ())
        }

        # The order the nodes acted in changes neither receptions nor the view.
        reverse_received, reverse = network.resolve_round(
            1, dict(reversed(list(actions.items()))), disrupted
        )
        assert reverse_received == received
        assert reverse.per_frequency == per_frequency

    @given(round_instances(), st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=60, deadline=None)
    def test_resolution_is_deterministic(self, instance, _seed):
        size, actions, disrupted = instance
        network = SingleHopRadioNetwork(FrequencyBand(size))
        first = network.resolve_round(1, actions, disrupted)
        second = network.resolve_round(1, actions, disrupted)
        assert first == second
