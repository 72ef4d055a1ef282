"""Unit tests for the simulator loop and its configuration."""

from __future__ import annotations

import re

import pytest

from repro.adversary.activation import SimultaneousActivation, StaggeredActivation
from repro.adversary.base import AdversaryContext, InterferenceAdversary
from repro.adversary.jammers import NoInterference, RandomJammer
from repro.engine.simulator import SimulationConfig, Simulator, simulate
from repro.exceptions import ConfigurationError, SimulationError
from repro.faults.plan import ChurnEvent, FaultPlan
from repro.params import ModelParameters
from repro.protocols.base import ProtocolContext, SynchronizationProtocol
from repro.protocols.trapdoor.protocol import TrapdoorProtocol
from repro.radio.actions import RadioAction, broadcast, listen
from repro.radio.messages import DataMessage, Message
from repro.types import SyncOutput


class ListenerProtocol(SynchronizationProtocol):
    """A protocol that only listens and synchronizes immediately."""

    def choose_action(self) -> RadioAction:
        return listen(1)

    def on_reception(self, message: Message) -> None:
        pass

    def current_output(self) -> SyncOutput:
        return self.context.local_round


class OutOfBandListener(ListenerProtocol):
    """A protocol that listens on a frequency outside every band used here."""

    def choose_action(self) -> RadioAction:
        return listen(99)


class NeverSyncProtocol(ListenerProtocol):
    """A protocol that never outputs a round number."""

    def current_output(self) -> SyncOutput:
        return None


class ChatterProtocol(SynchronizationProtocol):
    """Broadcasts or listens on frequency 1 or 2 at random, and logs it all.

    A ``listener`` always listens on frequency 1.  Each node logs the message
    it sent and every reception it is handed, by local round; it never
    synchronizes.
    """

    def __init__(self, context: ProtocolContext, listener: bool = False) -> None:
        super().__init__(context)
        self.listener = listener
        self.sent: dict[int, Message] = {}
        self.heard: list[tuple[int, Message]] = []

    def choose_action(self) -> RadioAction:
        if self.listener:
            return listen(1)
        draw = self.context.rng.random()
        if draw >= 0.5:
            return listen(1 if draw < 0.75 else 2)
        message = DataMessage(sender_uid=self.context.uid, payload=self.context.local_round)
        self.sent[self.context.local_round] = message
        return broadcast(1 if draw < 0.3 else 2, message)

    def on_reception(self, message: Message) -> None:
        self.heard.append((self.context.local_round, message))

    def current_output(self) -> SyncOutput:
        return None


class GreedyJammer(InterferenceAdversary):
    """A cheating adversary that tries to exceed its budget."""

    def choose_disruption(self, context: AdversaryContext):
        return frozenset(context.band.all_frequencies())


class TestConfiguration:
    def test_rejects_non_positive_max_rounds(self, params):
        with pytest.raises(ConfigurationError):
            SimulationConfig(
                params=params,
                protocol_factory=ListenerProtocol,
                activation=SimultaneousActivation(count=2),
                max_rounds=0,
            )

    def test_rejects_negative_grace_period(self, params):
        with pytest.raises(ConfigurationError):
            SimulationConfig(
                params=params,
                protocol_factory=ListenerProtocol,
                activation=SimultaneousActivation(count=2),
                extra_rounds_after_sync=-1,
            )

    def test_rejects_more_nodes_than_participant_bound(self, params):
        with pytest.raises(ConfigurationError):
            SimulationConfig(
                params=params,
                protocol_factory=ListenerProtocol,
                activation=SimultaneousActivation(count=params.participant_bound + 1),
            )


class TestRunLoop:
    def test_stops_when_everyone_synchronized(self, params):
        config = SimulationConfig(
            params=params,
            protocol_factory=ListenerProtocol,
            activation=StaggeredActivation(count=3, spacing=4),
            adversary=NoInterference(),
        )
        result = simulate(config)
        # The last node wakes in round 9 and synchronizes immediately.
        assert result.rounds_simulated == 9
        assert result.synchronized

    def test_grace_period_extends_run(self, params):
        config = SimulationConfig(
            params=params,
            protocol_factory=ListenerProtocol,
            activation=SimultaneousActivation(count=2),
            extra_rounds_after_sync=10,
        )
        result = simulate(config)
        assert result.rounds_simulated == 11

    def test_max_rounds_caps_unsynchronized_run(self, params):
        config = SimulationConfig(
            params=params,
            protocol_factory=NeverSyncProtocol,
            activation=SimultaneousActivation(count=2),
            max_rounds=25,
        )
        result = simulate(config)
        assert result.rounds_simulated == 25
        assert not result.synchronized

    def test_run_to_max_rounds_when_not_stopping(self, params):
        config = SimulationConfig(
            params=params,
            protocol_factory=ListenerProtocol,
            activation=SimultaneousActivation(count=2),
            stop_when_synchronized=False,
            max_rounds=40,
        )
        assert simulate(config).rounds_simulated == 40

    def test_budget_enforcement_rejects_cheating_adversary(self, params):
        config = SimulationConfig(
            params=params,
            protocol_factory=ListenerProtocol,
            activation=SimultaneousActivation(count=2),
            adversary=GreedyJammer(),
            max_rounds=5,
        )
        with pytest.raises(ConfigurationError):
            simulate(config)

    def test_activation_rounds_recorded_in_trace(self, params):
        config = SimulationConfig(
            params=params,
            protocol_factory=ListenerProtocol,
            activation=StaggeredActivation(count=3, spacing=2),
        )
        result = simulate(config)
        assert result.trace.activation_rounds == {0: 1, 1: 3, 2: 5}


class TestDeterminism:
    def test_same_seed_same_trace(self, params):
        def run(seed):
            config = SimulationConfig(
                params=params,
                protocol_factory=TrapdoorProtocol.factory(),
                activation=StaggeredActivation(count=4, spacing=2),
                adversary=RandomJammer(),
                seed=seed,
            )
            return simulate(config)

        first, second = run(11), run(11)
        assert first.rounds_simulated == second.rounds_simulated
        assert first.max_sync_latency == second.max_sync_latency
        assert first.metrics.broadcasts == second.metrics.broadcasts

    def test_different_seed_usually_differs(self, params):
        def run(seed):
            config = SimulationConfig(
                params=params,
                protocol_factory=TrapdoorProtocol.factory(),
                activation=StaggeredActivation(count=4, spacing=2),
                adversary=RandomJammer(),
                seed=seed,
            )
            return simulate(config)

        results = {run(seed).metrics.broadcasts for seed in range(4)}
        assert len(results) > 1

    def test_simulator_exposes_config(self, params):
        config = SimulationConfig(
            params=params,
            protocol_factory=ListenerProtocol,
            activation=SimultaneousActivation(count=1),
        )
        assert Simulator(config).config is config


class TestReceptions:
    """``on_reception`` runs once per round for exactly the nodes that received.

    Five nodes wake in round 1 (so local and global rounds coincide): node 0
    always listens on frequency 1, the others pick a frequency and whether to
    broadcast at random, and a random jammer disrupts one of the three
    frequencies each round.  A FULL trace says who listened where and which
    frequencies delivered, and the lone broadcaster's log says what it sent.
    """

    ROUNDS = 300

    def run(self, seed: int):
        protocols: list[ChatterProtocol] = []

        def factory(context: ProtocolContext) -> ChatterProtocol:
            # Node ids are activation ranks: node 0 is built first.
            protocols.append(ChatterProtocol(context, listener=not protocols))
            return protocols[-1]

        result = simulate(
            SimulationConfig(
                params=ModelParameters(frequencies=3, disruption_budget=1, participant_bound=8),
                protocol_factory=factory,
                activation=SimultaneousActivation(count=5),
                adversary=RandomJammer(),
                max_rounds=self.ROUNDS,
                stop_when_synchronized=False,
                seed=seed,
            )
        )
        assert len(result.trace.records) == self.ROUNDS
        return result.trace.records, protocols

    @staticmethod
    def delivered_to(records, protocols, node_id):
        """(round, message) for every round the trace delivered to ``node_id``."""
        expected = []
        for record in records:
            activity = record.activity
            for frequency, listeners in activity.listeners.items():
                if node_id in listeners and frequency in activity.delivered:
                    [sender] = activity.broadcasters[frequency]
                    round_ = record.global_round
                    expected.append((round_, protocols[sender].sent[round_]))
        return expected

    def test_each_node_hears_exactly_what_the_trace_delivered_to_it(self):
        records, protocols = self.run(seed=5)
        for node_id, protocol in enumerate(protocols):
            assert protocol.heard == self.delivered_to(records, protocols, node_id)
        listener = protocols[0]
        assert len(listener.heard) >= 20
        # A broadcaster is never handed a reception, not even of its own message.
        for node_id, protocol in enumerate(protocols[1:], start=1):
            assert protocol.sent
            assert not protocol.sent.keys() & {round_ for round_, _ in protocol.heard}

    def test_silent_collided_and_jammed_rounds_record_nothing(self):
        records, protocols = self.run(seed=6)
        heard_rounds = {round_ for round_, _ in protocols[0].heard}
        silent, collided, jammed = set(), set(), set()
        for record in records:
            senders = record.activity.broadcasters.get(1, ())
            if not senders:
                silent.add(record.global_round)
            elif len(senders) >= 2:
                collided.add(record.global_round)
            elif 1 in record.activity.disrupted:
                jammed.add(record.global_round)
        assert silent and collided and jammed
        assert not heard_rounds & (silent | collided | jammed)
        assert len(heard_rounds) == self.ROUNDS - len(silent | collided | jammed)


class RecordingAdversary(InterferenceAdversary):
    """Notes what its context says each round, and never disrupts.

    It keeps the context objects only to count them: the contract is one
    context per run, updated in place.
    """

    def __init__(self) -> None:
        self.contexts: list[AdversaryContext] = []
        self.seen: list[tuple[int, object, int]] = []

    def choose_disruption(self, context: AdversaryContext):
        self.contexts.append(context)
        self.seen.append((context.global_round, context.history.latest, context.active_node_count))
        return frozenset()


class ScriptedAdversary(InterferenceAdversary):
    """Returns ``make()`` every round: a disruption set of any type."""

    def __init__(self, make) -> None:
        self.make = make

    def choose_disruption(self, context: AdversaryContext):
        return self.make()


class TestAdversaryContext:
    """Every round the adversary sees its round, the previous round and the node count."""

    ROUNDS = 30

    def run(self, activation, faults=None):
        adversary = RecordingAdversary()
        result = simulate(
            SimulationConfig(
                params=ModelParameters(frequencies=3, disruption_budget=1, participant_bound=8),
                protocol_factory=ChatterProtocol,
                activation=activation,
                adversary=adversary,
                max_rounds=self.ROUNDS,
                stop_when_synchronized=False,
                faults=faults,
                seed=4,
            )
        )
        records = result.trace.records
        assert len(records) == self.ROUNDS
        assert [seen[0] for seen in adversary.seen] == list(range(1, self.ROUNDS + 1))
        assert len({id(context) for context in adversary.contexts}) == 1
        return adversary.seen, records, result.trace.activation_rounds

    def test_history_is_the_previous_round(self):
        seen, records, _ = self.run(SimultaneousActivation(count=4))
        latest = [history for _, history, _ in seen]
        assert latest[0] is None
        for index in range(1, self.ROUNDS):
            assert latest[index] is records[index - 1].activity
        assert any(latest[index].broadcasters for index in range(1, self.ROUNDS))

    def test_node_count_follows_staggered_activation(self):
        seen, records, activated = self.run(StaggeredActivation(count=4, spacing=3))
        assert sorted(activated.values()) == [1, 4, 7, 10]
        for (global_round, _, count), record in zip(seen, records):
            assert count == sum(1 for first in activated.values() if first <= global_round)
            assert count == len(record.outputs)

    def test_node_count_follows_churn(self):
        plan = FaultPlan(churn=(ChurnEvent(node_id=1, leave_round=8, rejoin_round=15),))
        seen, records, _ = self.run(SimultaneousActivation(count=4), faults=plan)
        for (global_round, _, count), record in zip(seen, records):
            assert count == 4 - (8 <= global_round < 15)
            assert count == len(record.outputs)
            assert (1 in record.outputs) == (count == 4)


def exactly(message: str) -> str:
    """A ``pytest.raises`` pattern matching ``message`` and nothing more."""
    return f"^{re.escape(message)}$"


#: The disruption checks run on a fault-free execution and on one whose
#: second node crashes at the start of round 1, so the round loop takes its
#: fault-plan path (injection, then the stabilization tracker) every round.
CRASH_AT_ONCE = FaultPlan(churn=(ChurnEvent(node_id=1, leave_round=1),))


@pytest.mark.parametrize("faults", [None, CRASH_AT_ONCE], ids=["fault-free", "crash"])
class TestDisruptionChecks:
    """The band and the budget are checked once per round, in the round's order.

    The cases of ``test_network.py::TestBudgetValidation``, driven through the
    simulator, with and without a crashed node: out-of-band sets fail on the
    band first and on the first bad frequency in the order given; an
    over-budget set fails only after the round's actions and disruption set
    have been checked.
    """

    @staticmethod
    def run(make, faults, protocol_factory=ListenerProtocol):
        return simulate(
            SimulationConfig(
                params=ModelParameters(frequencies=8, disruption_budget=3, participant_bound=16),
                protocol_factory=protocol_factory,
                activation=SimultaneousActivation(count=2),
                adversary=ScriptedAdversary(make),
                max_rounds=5,
                faults=faults,
            )
        )

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
    def test_accepts(self, make, expected, faults):
        # ListenerProtocol synchronizes at once, and the crash has fired by
        # the end of round 1: the run is one round long.
        [record] = self.run(make, faults).trace.records
        assert record.activity.disrupted == frozenset(expected)
        assert set(record.outputs) == ({0} if faults else {0, 1})

    @pytest.mark.parametrize("container", [list, frozenset])
    @pytest.mark.parametrize("frequency", [0, 9, 2.0, "1"], ids=repr)
    def test_rejects_out_of_band(self, frequency, container, faults):
        message = f"frequency {frequency!r} outside band [1..8]"
        with pytest.raises(ConfigurationError, match=exactly(message)):
            self.run(lambda: container([frequency]), faults)

    def test_rejects_over_budget(self, faults):
        message = "adversary disrupted 4 frequencies, budget is 3"
        with pytest.raises(ConfigurationError, match=exactly(message)):
            self.run(lambda: [1, 2, 3, 4], faults)

    @pytest.mark.parametrize("container", [list, frozenset])
    def test_out_of_band_fails_before_over_budget(self, container, faults):
        message = "frequency 9 outside band [1..8]"
        with pytest.raises(ConfigurationError, match=exactly(message)):
            self.run(lambda: container([1, 2, 3, 9]), faults)

    @pytest.mark.parametrize("first, second", [(9, 0), (0, 9)])
    def test_first_out_of_band_frequency_in_order_given_is_named(self, first, second, faults):
        message = f"frequency {first} outside band [1..8]"
        with pytest.raises(ConfigurationError, match=exactly(message)):
            self.run(lambda: [first, second], faults)

    def test_out_of_band_action_fails_before_over_budget(self, faults):
        message = "node 0 tuned to frequency 99 outside band [1..8]"
        with pytest.raises(SimulationError, match=exactly(message)):
            self.run(lambda: [1, 2, 3, 4], faults, OutOfBandListener)
