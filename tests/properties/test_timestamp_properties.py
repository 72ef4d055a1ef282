"""Property-based tests for timestamps and the round-numbering arithmetic."""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.params import ModelParameters
from repro.protocols.base import ProtocolContext, SynchronizedOutputMixin
from repro.timestamps import Timestamp

timestamps = st.builds(
    Timestamp,
    rounds_active=st.integers(min_value=0, max_value=10_000),
    uid=st.integers(min_value=1, max_value=10**9),
)


class Adopter(SynchronizedOutputMixin):
    """The output numbering every protocol uses, on a bare context."""

    def __init__(self, local_round: int) -> None:
        self.context = ProtocolContext(
            params=ModelParameters(frequencies=4, disruption_budget=1, participant_bound=8),
            rng=random.Random(0),
            uid=1,
            local_round=local_round,
        )

    def output_at(self, local_round: int):
        self.context.local_round = local_round
        return self.current_output()


def adopted(local_round: int, round_number: int) -> Adopter:
    """A node that adopts ``round_number`` in its local round ``local_round``."""
    adopter = Adopter(local_round)
    adopter.adopt_round_number(round_number)
    return adopter


class TestTimestampProperties:
    @given(timestamps, timestamps)
    @settings(max_examples=300, deadline=None)
    def test_ordering_is_total_and_antisymmetric(self, a, b):
        assert (a < b) or (b < a) or (a == b)
        if a < b:
            assert not (b < a)
        if a == b:
            assert not (a < b) and not (b < a)

    @given(timestamps, timestamps, timestamps)
    @settings(max_examples=300, deadline=None)
    def test_ordering_is_transitive(self, a, b, c):
        if a <= b and b <= c:
            assert a <= c

    @given(timestamps, timestamps)
    @settings(max_examples=300, deadline=None)
    def test_ordering_matches_lexicographic_tuple_order(self, a, b):
        assert (a < b) == ((a.rounds_active, a.uid) < (b.rounds_active, b.uid))

    @given(timestamps, st.integers(min_value=0, max_value=1000))
    @settings(max_examples=200, deadline=None)
    def test_aging_preserves_uid_and_adds_rounds(self, stamp, extra):
        aged = stamp.aged(extra)
        assert aged.uid == stamp.uid
        assert aged.rounds_active == stamp.rounds_active + extra
        assert aged >= stamp

    @given(timestamps, timestamps, st.integers(min_value=0, max_value=1000))
    @settings(max_examples=200, deadline=None)
    def test_aging_both_preserves_order(self, a, b, extra):
        if a < b:
            assert a.aged(extra) < b.aged(extra)


class TestNumberingProperties:
    @given(
        st.integers(min_value=1, max_value=10_000),
        st.integers(min_value=0, max_value=10**6),
        st.integers(min_value=0, max_value=5_000),
    )
    @settings(max_examples=300, deadline=None)
    def test_numbering_is_affine_with_unit_slope(self, local_round, announced, offset):
        numbering = adopted(local_round, announced)
        assert numbering.output_at(local_round) == announced
        assert numbering.output_at(local_round + offset) == announced + offset

    @given(st.integers(min_value=1, max_value=10_000), st.integers(min_value=0, max_value=5_000))
    @settings(max_examples=200, deadline=None)
    def test_leader_declaration_equals_activation_age(self, leader_round, offset):
        numbering = adopted(leader_round, leader_round)
        assert numbering.output_at(leader_round + offset) == leader_round + offset

    @given(
        st.integers(min_value=0, max_value=10**6),
        st.integers(min_value=1, max_value=10_000),
    )
    @settings(max_examples=200, deadline=None)
    def test_two_adopters_of_same_message_always_agree(self, announced, receiver_round):
        # Two nodes adopting the same announcement in the same (global) round
        # produce identical outputs forever, regardless of their local ages.
        a = adopted(receiver_round, announced)
        b = adopted(receiver_round + 3, announced)
        for step in range(5):
            assert a.output_at(receiver_round + step) == b.output_at(receiver_round + 3 + step)
