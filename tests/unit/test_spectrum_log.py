"""Unit tests for :mod:`repro.radio.spectrum_log`."""

from __future__ import annotations

import weakref

from repro.radio.events import RoundActivity
from repro.radio.spectrum_log import SpectrumLog


def make_activity(global_round: int, broadcasters: dict[int, int], disrupted=(), delivered=()):
    return RoundActivity(
        global_round=global_round,
        broadcasters={frequency: list(range(count)) for frequency, count in broadcasters.items()},
        disrupted=frozenset(disrupted),
        delivered=frozenset(delivered),
    )


class TestSpectrumLog:
    def test_record_keeps_only_the_latest_round(self):
        log = SpectrumLog()
        first, second = make_activity(1, {1: 2}), make_activity(2, {1: 1})
        log.record(first)
        assert log.latest is first
        log.record(second)
        assert log.latest is second
        assert log.broadcast_count(1) == 3

    def test_drops_each_round_once_the_next_is_recorded(self):
        class TrackedActivity(RoundActivity):
            """A record that takes weak references (the slotted base does not)."""

        first = TrackedActivity(global_round=1, broadcasters={1: [0]})
        alive = weakref.ref(first)
        log = SpectrumLog()
        log.record(first)
        del first
        assert alive() is not None
        log.record(make_activity(2, {1: 1}))
        assert alive() is None
        assert log.broadcast_count(1) == 2

    def test_counts_the_deliveries_the_record_names(self):
        # A lone broadcaster on an undisrupted frequency counts as a delivery
        # only if the record says so: the log never re-derives the rule.
        log = SpectrumLog()
        log.record(make_activity(1, {1: 1, 2: 1}, delivered={2}))
        assert log.delivery_count(1) == 0
        assert log.delivery_count(2) == 1

    def test_counters_track_broadcasts_and_deliveries(self):
        log = SpectrumLog()
        log.record(make_activity(1, {1: 2, 3: 1}, disrupted={2}, delivered={3}))
        log.record(make_activity(2, {3: 1}, delivered={3}))
        assert log.broadcast_count(1) == 2
        assert log.broadcast_count(3) == 2
        assert log.delivery_count(3) == 2
        assert log.delivery_count(1) == 0
        assert log.broadcast_count(2) == log.delivery_count(2) == 0

    def test_busiest_frequencies_ranks_by_broadcasts(self):
        log = SpectrumLog()
        log.record(make_activity(1, {1: 1, 2: 5, 3: 3}))
        assert log.busiest_frequencies(2, universe=[1, 2, 3, 4]) == (2, 3)

    def test_busiest_frequencies_tie_breaks_by_index(self):
        log = SpectrumLog()
        assert log.busiest_frequencies(3, universe=[4, 2, 1, 3]) == (1, 2, 3)

    def test_latest_is_none_when_empty(self):
        assert SpectrumLog().latest is None
