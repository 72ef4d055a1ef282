"""Property-based tests for the streaming metrics' role tally.

:class:`~repro.engine.metrics.MetricsObserver` adds a node's role-rounds to
``role_rounds`` once per spell (a run of rounds in one role) instead of once
per round.  Random role streams — nodes joining late, changing roles, and
vanishing for a while before coming back, as under churn — must give exactly
what the per-round count gives: the same values and the same key order.
"""

from __future__ import annotations

import copy
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.metrics import MetricsObserver
from repro.engine.trace import RoundRecord
from repro.radio.events import RoundActivity
from repro.types import Role


@st.composite
def role_streams(draw):
    """Per-round ``node id -> role`` mappings; an absent node sits the round out."""
    node_count = draw(st.integers(min_value=1, max_value=6))
    round_count = draw(st.integers(min_value=1, max_value=50))
    # A node's timeline is a run of segments: a role held for a while, or
    # absence (before it joins, or while it has left).
    segment = st.tuples(
        st.integers(min_value=1, max_value=12), st.one_of(st.none(), st.sampled_from(list(Role)))
    )
    timelines = []
    for _ in range(node_count):
        timeline: list[Role | None] = []
        for length, role in draw(st.lists(segment, min_size=1, max_size=8)):
            timeline.extend([role] * length)
        timelines.append((timeline + [None] * round_count)[:round_count])
    # Rows reorder when nodes leave and rejoin: draw each round's order.
    orders = draw(
        st.lists(
            st.permutations(range(node_count)), min_size=round_count, max_size=round_count
        )
    )
    return [
        {node: timelines[node][index] for node in orders[index] if timelines[node][index] is not None}
        for index in range(round_count)
    ]


def per_round_count(stream) -> tuple[Counter, set[int]]:
    """The reference tally: one ``Counter`` increment per node-round."""
    role_rounds: Counter = Counter()
    leaders: set[int] = set()
    for roles in stream:
        for node, role in roles.items():
            role_rounds[role] += 1
            if role is Role.LEADER:
                leaders.add(node)
    return role_rounds, leaders


def feed(observer: MetricsObserver, stream, start: int = 1) -> None:
    for global_round, roles in enumerate(stream, start=start):
        observer.on_round(
            RoundRecord(
                global_round=global_round,
                outputs=dict.fromkeys(roles),
                roles=roles,
                activity=RoundActivity(global_round=global_round),
            )
        )


class TestSpellTally:
    @given(role_streams())
    @settings(max_examples=300, deadline=None)
    def test_equals_the_per_round_count(self, stream):
        observer = MetricsObserver()
        feed(observer, stream)
        expected, leaders = per_round_count(stream)
        metrics = observer.result()
        assert list(metrics.role_rounds.items()) == list(expected.items())
        assert metrics.leader_count == len(leaders)
        first = copy.deepcopy(metrics)
        again = observer.result()
        assert again == first
        assert list(again.role_rounds) == list(first.role_rounds)

    @given(role_streams(), st.integers(min_value=0, max_value=50))
    @settings(max_examples=200, deadline=None)
    def test_a_result_mid_stream_changes_nothing(self, stream, split):
        split = min(split, len(stream))
        observer = MetricsObserver()
        feed(observer, stream[:split])
        observer.result()
        feed(observer, stream[split:], start=split + 1)
        expected, leaders = per_round_count(stream)
        metrics = observer.result()
        assert list(metrics.role_rounds.items()) == list(expected.items())
        assert metrics.leader_count == len(leaders)
