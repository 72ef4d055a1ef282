"""Generated walks: the inlined hot paths draw exactly what their slow twins draw.

Each per-round fast path below replays a slower, plainer version without
changing a single random draw:

* :class:`GoodSamaritanProtocol` keeps each epoch's constants in its own
  fields and runs its draws inline.  :class:`ReferenceGoodSamaritan` below
  keeps the version it replaced: it asks the schedule for its fallback
  position every round and draws through :func:`draw_one_to`.  A node and
  its twin walk the same local rounds, forwards and backwards, across epoch,
  critical-epoch, report-epoch, fallback-epoch and optimistic-to-fallback
  boundaries, and hear the same messages, which force their roles.  After
  every call their actions and their generators' states must be equal.
* ``repro.adversary.jammers._sample`` runs the pool branch of
  ``random.Random.sample`` inline and hands every other input to it.
* ``SpectrumLog.busiest_frequencies`` ranks with a stable reverse sort
  keyed on the broadcast counter, where it sorted on ``(-count, frequency)``.
* :class:`PolicyJammer` draws its ``random`` action through ``_sample`` and
  ranks ``quietest`` with one stable sort keyed on the broadcast counter
  (``SpectrumLog.quietest_frequencies``), and :class:`TwoNodeProductJammer`
  ranks with one stable reverse sort of broadcast plus delivery counts
  (``SpectrumLog.most_used_frequencies``); each ranking also matches its
  sort key on shuffled universes.  :class:`ReferencePolicyJammer` and
  :func:`reference_product_disruption` keep the code they replaced; over a
  walk of recorded rounds each jammer and its twin choose the same sets
  and leave their generators in the same state.

Tier-1 runs them derandomized with a few examples each; the ``thorough``
profile (``tests/conftest.py``, selected with ``--hypothesis-profile
thorough``) runs thousands.
"""

from __future__ import annotations

import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.adversary.base import AdversaryContext
from repro.adversary.jammers import TwoNodeProductJammer, _sample
from repro.adversary.policy import HEAT_BUCKETS, POLICY_ACTIONS, PolicyJammer
from repro.params import ModelParameters
from repro.protocols.base import ProtocolContext, draw_one_to
from repro.protocols.good_samaritan.protocol import GoodSamaritanProtocol
from repro.radio.actions import RadioAction, broadcast, listen
from repro.radio.events import RoundActivity
from repro.radio.frequencies import FrequencyBand
from repro.radio.messages import ContenderMessage, LeaderMessage, SamaritanMessage
from repro.radio.spectrum_log import SpectrumLog
from repro.timestamps import Timestamp
from repro.types import Role

#: The (F, t, N) points of ``tests/unit/test_gs_schedule.py``'s TABLE_GRID:
#: F = 2, a non-power-of-two F, and N from 2 up to 1024.
TABLE_GRID = [
    (frequencies, budget, participants)
    for frequencies, budget in ((2, 1), (8, 3), (12, 5), (16, 0))
    for participants in (2, 64, 100, 1024)
]


def twin_settings(examples: int) -> settings:
    """``examples`` derandomized examples, unless a profile was selected."""
    if settings.get_current_profile_name() == "default":
        return settings(max_examples=examples, derandomize=True, deadline=None, database=None)
    return settings(deadline=None, database=None)


class ReferenceGoodSamaritan(GoodSamaritanProtocol):
    """The Good Samaritan node as it drew before its epoch constants were cached.

    ``choose_action`` asks for the epoch span every round and for the
    fallback position in every fallback round, and every bounded draw goes
    through :func:`draw_one_to`.  Reception is inherited unchanged.
    """

    def choose_action(self) -> RadioAction:
        self._this_round_special = False

        if self._state is Role.LEADER:
            return self._leader_action()
        if self._state in (Role.PASSIVE, Role.SYNCHRONIZED):
            return listen(self._monitoring_frequency())

        span = self._epoch_span()
        if span is not None:
            return self._optimistic_action(span)
        return self._fallback_action(self.context.local_round)

    def _optimistic_action(self, span) -> RadioAction:
        rng = self.context.rng
        prefix = self._prefix_widths[span.super_epoch - 1]

        if span.epoch <= self.context.params.log_participants:
            if rng.random() < self.config.local_band_probability:
                frequency = draw_one_to(rng, prefix)
            else:
                frequency = draw_one_to(rng, self._band)
            probability = self.schedule.broadcast_probability(span.epoch)
            if rng.random() < probability:
                return broadcast(frequency, self._identity_message(special=False))
            return listen(frequency)

        if rng.random() < self.config.special_round_probability:
            self._this_round_special = True
            frequency = self._special_frequency()
            if rng.random() < 0.5:
                return broadcast(frequency, self._identity_message(special=True))
            return listen(frequency)

        frequency = draw_one_to(rng, prefix)
        probability = self.schedule.broadcast_probability(span.epoch)
        if rng.random() < probability:
            return broadcast(frequency, self._identity_message(special=False))
        return listen(frequency)

    def _fallback_action(self, local_round: int) -> RadioAction:
        rng = self.context.rng
        fallback = self.schedule.fallback_position_of_round(local_round)
        assert fallback is not None

        if self._state is Role.CONTENDER and fallback.completed:
            self._become_leader(via_fallback=True)
            return self._leader_action()

        if rng.random() < 0.5:
            self._this_round_special = True
            frequency = self._special_frequency()
            if self._state is Role.CONTENDER and rng.random() < 0.5:
                return broadcast(frequency, self._identity_message(special=True))
            if self._state is Role.SAMARITAN and rng.random() < 0.5:
                return broadcast(frequency, self._identity_message(special=True))
            return listen(frequency)

        frequency = draw_one_to(rng, self._band)
        if self._state is Role.CONTENDER:
            probability = self.schedule.fallback_broadcast_probability(fallback.epoch)
            if rng.random() < probability:
                return broadcast(frequency, self._identity_message(special=False))
        return listen(frequency)

    def _leader_action(self) -> RadioAction:
        rng = self.context.rng
        frequency = self._special_frequency()
        if rng.random() < self.config.leader_broadcast_probability:
            output = self.current_output()
            assert output is not None
            return broadcast(frequency, LeaderMessage(leader_uid=self.context.uid, round_number=output))
        return listen(frequency)

    def _monitoring_frequency(self) -> int:
        rng = self.context.rng
        if rng.random() < 0.5:
            return self._special_frequency()
        return draw_one_to(rng, self._band)

    def _identity_message(self, special: bool):
        span = self._epoch_span()
        epoch = span.epoch if span is not None else 0
        if self._state is Role.SAMARITAN:
            return SamaritanMessage(
                timestamp=self._my_timestamp(), reports=self._ledger.report(), special=special
            )
        return ContenderMessage(timestamp=self._my_timestamp(), special=special, epoch=epoch)

    def _special_frequency(self) -> int:
        rng = self.context.rng
        d = draw_one_to(rng, self._log_f)
        return draw_one_to(rng, self._prefix_widths[d - 1])


def landmarks(protocol: GoodSamaritanProtocol) -> list[int]:
    """The first and last round of every epoch, optimistic and fallback."""
    schedule = protocol.schedule
    rounds = [1]
    first = 1
    for k in range(1, schedule.super_epoch_count + 1):
        for _ in range(schedule.epochs_per_super_epoch):
            first += schedule.epoch_length(k)
            rounds += [first - 1, first]
    for _ in range(schedule.params.log_participants):
        first += schedule.fallback_epoch_length
        rounds += [first - 1, first]
    return rounds


@st.composite
def messages(draw, local_round: int, uid: int):
    """A message that can move a node's role: every kind, aimed at ``uid``."""
    kind = draw(st.sampled_from(["contender", "samaritan", "leader"]))
    other = draw(st.integers(min_value=1, max_value=50))
    if kind == "leader":
        return LeaderMessage(leader_uid=other, round_number=draw(st.integers(1, 10_000)))
    age = draw(st.sampled_from([local_round, local_round + 1_000, 1]))
    timestamp = Timestamp(rounds_active=age, uid=other)
    if kind == "contender":
        return ContenderMessage(timestamp=timestamp, special=draw(st.booleans()))
    reports = {uid: draw(st.sampled_from([0, 1, 10**6]))} if draw(st.booleans()) else {}
    return SamaritanMessage(timestamp=timestamp, reports=reports, special=draw(st.booleans()))


@given(data=st.data())
@twin_settings(examples=60)
def test_good_samaritan_draws_what_its_reference_draws(data):
    frequencies, budget, participants = data.draw(st.sampled_from(TABLE_GRID), label="(F, t, N)")
    params = ModelParameters(frequencies, budget, participants)
    seed = data.draw(st.integers(min_value=0, max_value=2**32 - 1), label="seed")
    uid = data.draw(st.integers(min_value=1, max_value=64), label="uid")
    node = GoodSamaritanProtocol(ProtocolContext(params, random.Random(seed), uid, 1))
    twin = ReferenceGoodSamaritan(ProtocolContext(params, random.Random(seed), uid, 1))
    marks = landmarks(node)

    def assert_same(action, twin_action):
        assert action == twin_action
        assert node.context.rng.getstate() == twin.context.rng.getstate()
        assert node.role is twin.role
        assert node.current_output() == twin.current_output()

    for _ in range(data.draw(st.integers(min_value=1, max_value=12), label="jumps")):
        # Jump near an epoch boundary, forwards or backwards, then walk on.
        mark = data.draw(st.sampled_from(marks), label="boundary")
        local_round = max(1, mark + data.draw(st.integers(-2, 2), label="offset"))
        for _ in range(data.draw(st.integers(min_value=1, max_value=6), label="rounds")):
            node.context.local_round = twin.context.local_round = local_round
            assert_same(node.choose_action(), twin.choose_action())
            if data.draw(st.integers(0, 3), label="hear") == 0:
                message = data.draw(messages(local_round, uid), label="message")
                node.on_reception(message)
                twin.on_reception(message)
                assert_same(None, None)
            local_round += 1


#: Inputs on either side of every branch of ``_sample``: k = 0, k = n, the
#: ``rng.sample`` hand-off past 21 elements and past k = 5, and k out of range.
SAMPLE_EDGES = [(0, 0), (8, 0), (8, 8), (5, 5), (30, 1), (12, 6), (6, 6), (4, 5), (8, -1),
                (30, 31)] + [(n, k) for n in (21, 22) for k in range(7)] * 2


@given(
    sizes=st.lists(
        st.integers(min_value=0, max_value=30).flatmap(
            lambda n: st.tuples(st.just(n), st.integers(min_value=-1, max_value=n + 1))
        ),
        min_size=1,
        max_size=8,
    ),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    shuffled=st.booleans(),
)
@example(sizes=SAMPLE_EDGES, seed=2009, shuffled=False)
@example(sizes=SAMPLE_EDGES, seed=7, shuffled=True)
@twin_settings(examples=150)
def test_sample_matches_random_sample(sizes, seed, shuffled):
    fast, reference = random.Random(seed), random.Random(seed)
    order = random.Random(seed + 1)
    for n, k in sizes:
        population = list(range(1, n + 1))
        if shuffled:
            order.shuffle(population)
        else:
            population = tuple(population)
        try:
            expected = reference.sample(population, k)
        except ValueError as error:
            try:
                _sample(fast, population, k)
            except ValueError as raised:
                assert str(raised) == str(error)
            else:
                raise AssertionError(f"_sample accepted k={k} of {n}")
        else:
            assert _sample(fast, population, k) == expected
        assert fast.getstate() == reference.getstate()


@given(
    counts=st.dictionaries(
        st.integers(min_value=1, max_value=24), st.integers(min_value=0, max_value=2), max_size=24
    ),
    universe=st.lists(st.integers(min_value=1, max_value=30), max_size=30).flatmap(st.permutations),
    count=st.integers(min_value=0, max_value=32),
)
@twin_settings(examples=150)
def test_busiest_frequencies_rank_as_the_count_then_frequency_key(counts, universe, count):
    log = SpectrumLog()
    log.record(
        RoundActivity(
            global_round=1,
            broadcasters={frequency: list(range(n)) for frequency, n in counts.items() if n},
        )
    )
    expected = tuple(
        sorted(universe, key=lambda frequency: (-log.broadcast_count(frequency), frequency))[:count]
    )
    assert log.busiest_frequencies(count, universe) == expected
    assert log.busiest_frequencies(count, tuple(universe)) == expected


@given(
    counts=st.dictionaries(
        st.integers(min_value=1, max_value=24), st.integers(min_value=0, max_value=2), max_size=24
    ),
    delivered=st.frozensets(st.integers(min_value=1, max_value=24)),
    universe=st.sets(st.integers(min_value=1, max_value=30)).map(sorted).flatmap(st.permutations),
    count=st.integers(min_value=0, max_value=32),
)
@twin_settings(examples=150)
def test_quietest_and_most_used_rank_as_their_keys(counts, delivered, universe, count):
    log = SpectrumLog()
    log.record(
        RoundActivity(
            global_round=1,
            broadcasters={frequency: list(range(n)) for frequency, n in counts.items() if n},
            delivered=delivered,
        )
    )

    def usage(frequency):
        return log.broadcast_count(frequency) + log.delivery_count(frequency)

    quietest = sorted(universe, key=lambda frequency: (log.broadcast_count(frequency), frequency))
    most_used = sorted(universe, key=lambda frequency: (-usage(frequency), frequency))
    assert log.quietest_frequencies(count, universe) == tuple(quietest[:count])
    assert log.most_used_frequencies(count, universe) == tuple(most_used[:count])


class ReferencePolicyJammer(PolicyJammer):
    """The policy jammer as it drew before: ``random`` through ``rng.sample``
    and ``quietest`` sorted on ``(count, frequency)``."""

    def _apply(self, action, context):
        band, budget, history = context.band, context.budget, context.history
        if action == "quietest":
            ranked = sorted(
                band.all_frequencies(),
                key=lambda frequency: (history.broadcast_count(frequency), frequency),
            )
            return frozenset(ranked[:budget])
        if action == "random":
            return frozenset(context.rng.sample(band.all_frequencies(), budget))
        return super()._apply(action, context)


def reference_product_disruption(context: AdversaryContext) -> frozenset:
    """``TwoNodeProductJammer.choose_disruption`` as it ranked with a
    per-frequency ``(-usage, frequency, frequency)`` key."""
    if context.budget <= 0:
        return frozenset()
    history = context.history

    def score(frequency):
        usage = history.broadcast_count(frequency) + history.delivery_count(frequency)
        return (-usage, frequency, frequency)

    ranked = sorted(context.band.all_frequencies(), key=score)
    return frozenset(ranked[: context.budget])


@given(data=st.data())
@twin_settings(examples=60)
def test_adaptive_jammers_choose_what_their_references_choose(data):
    """F up to 24 and t up to 7 cover ``_sample``'s pool branch and both of
    its hand-offs to ``rng.sample``; the rounds leave some frequencies
    unused, so unused and tied counts rank too."""
    frequencies = data.draw(st.integers(min_value=1, max_value=24), label="F")
    budget = data.draw(st.integers(min_value=0, max_value=min(frequencies, 7)), label="t")
    period = data.draw(st.integers(min_value=1, max_value=3), label="phase period")
    table = data.draw(
        st.lists(
            st.sampled_from(POLICY_ACTIONS),
            min_size=period * HEAT_BUCKETS,
            max_size=period * HEAT_BUCKETS,
        ),
        label="table",
    )
    seed = data.draw(st.integers(min_value=0, max_value=2**32 - 1), label="seed")
    band, log = FrequencyBand(frequencies), SpectrumLog()
    policy, policy_twin = PolicyJammer(table, period), ReferencePolicyJammer(table, period)
    product = TwoNodeProductJammer()
    contexts = [
        AdversaryContext(global_round=1, band=band, budget=budget, history=log, rng=random.Random(seed))
        for _ in range(4)
    ]
    tuned = st.integers(min_value=1, max_value=frequencies)
    for global_round in range(1, data.draw(st.integers(1, 12), label="rounds") + 1):
        for context in contexts:
            context.global_round = global_round
        assert policy.choose_disruption(contexts[0]) == policy_twin.choose_disruption(contexts[1])
        assert contexts[0].rng.getstate() == contexts[1].rng.getstate()
        assert product.choose_disruption(contexts[2]) == reference_product_disruption(contexts[3])
        assert contexts[2].rng.getstate() == contexts[3].rng.getstate()
        broadcasters = data.draw(
            st.dictionaries(tuned, st.lists(st.integers(0, 9), min_size=1, max_size=3)),
            label="broadcasters",
        )
        delivered = data.draw(st.frozensets(tuned), label="delivered")
        log.record(
            RoundActivity(
                global_round=global_round, broadcasters=broadcasters, delivered=delivered
            )
        )
