"""The round-driven simulator.

The simulator realizes the model of §2 as one synchronous loop for every
execution, fault-injected or not.  In every global round it:

1. activates the nodes the activation schedule designates for the round;
2. on rounds the fault plan names, applies its churn, corruption and
   Byzantine start;
3. asks every active node's protocol for its radio action;
4. asks the interference adversary for its disruption set (the adversary sees
   the execution only through the *previous* round, in the one
   :class:`~repro.adversary.base.AdversaryContext` the run updates in place);
5. resolves the round on the :class:`~repro.radio.network.SingleHopRadioNetwork`
   (collision rule + disruption; the network rejects out-of-band
   frequencies), then checks the disruption set against the budget ``t``;
6. hands each node that received a message to its protocol
   (``on_reception``; a node that received nothing gets no call), reads
   every node's output and role, and streams the resolved round to the
   observer pipeline (trace recorder, property checker, metrics collector,
   spectrum log, plus any caller-supplied observers).

Faults enter the loop as data: the fault injector lists the rounds that
carry events (a fault-free run pays one set-membership test per round), a
Byzantine node's dispatch row holds a forging protocol from its start round
on, and a stabilization-tracker observer measures recovery.

Properties and metrics are computed *incrementally* as the execution streams
by, so a run with :attr:`~repro.engine.observers.TraceLevel.NONE` buffers no
per-round history at all and still produces the same report and metrics as a
full-trace run.  Its memory does not grow with the run length: the spectrum
log keeps only the previous round's record and per-frequency counters, and
the checker and metrics keep per-node and aggregate state.

The loop ends when every node that will ever be activated has synchronized
— under a fault plan: every fault has fired and the present honest nodes
agree again — plus an optional grace period, or at ``max_rounds``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.adversary.activation import ActivationSchedule
from repro.adversary.base import AdversaryContext, InterferenceAdversary
from repro.adversary.jammers import NoInterference
from repro.engine.checker import StreamingPropertyChecker
from repro.engine.metrics import MetricsObserver
from repro.engine.node import NodeRuntime
from repro.engine.observers import RoundObserver, TraceLevel, TraceRecorder
from repro.engine.results import SimulationResult
from repro.engine.rng import RandomStreams
from repro.engine.trace import RoundRecord
from repro.exceptions import ConfigurationError, SimulationError
from repro.faults.injector import FaultInjector, ForgingProtocol
from repro.faults.plan import FaultPlan
from repro.faults.stabilization import StabilizationTracker
from repro.params import ModelParameters
from repro.protocols.base import ProtocolContext, ProtocolFactory, SynchronizationProtocol
from repro.radio.actions import RadioAction
from repro.radio.network import SingleHopRadioNetwork
from repro.radio.spectrum_log import SpectrumLog
from repro.types import NodeId, Role, SyncOutput

#: One node's dispatch row in the round loop (see `Simulator._row`).
_Row = tuple[NodeId, NodeRuntime, SynchronizationProtocol, ProtocolContext]


@dataclass
class SimulationConfig:
    """Everything needed to run one execution.

    Attributes
    ----------
    params:
        The model parameters ``(F, t, N)``.
    protocol_factory:
        Builds one protocol instance per activated node.
    activation:
        When each node wakes up.
    adversary:
        The interference adversary (default: no interference).
    max_rounds:
        Hard cap on the number of simulated rounds.
    seed:
        Master seed; all randomness in the execution derives from it.
    stop_when_synchronized:
        Stop as soon as every activated node has synchronized and no further
        activations are pending (default) — otherwise run to ``max_rounds``.
    extra_rounds_after_sync:
        Grace period simulated after global synchronization, useful when a
        test wants to observe post-synchronization behaviour (e.g. that the
        round numbers keep incrementing).
    enforce_budget:
        Check every round that the adversary respects its budget ``t``.
    trace_level:
        How much per-round history to retain (default:
        :attr:`~repro.engine.observers.TraceLevel.FULL`, the seed behaviour).
        It is the only per-round history the simulator keeps.  With
        ``NONE``, :attr:`SimulationResult.trace` is ``None``; the property
        report, the metrics and the execution itself are unaffected.
    trace_sample_interval:
        With :attr:`~repro.engine.observers.TraceLevel.SAMPLED`, keep one
        round record in every ``trace_sample_interval``.
    faults:
        Optional :class:`~repro.faults.plan.FaultPlan` injected into the
        round loop (churn, Byzantine nodes, transient corruption).  An empty
        plan is normalized to ``None``, so fault-free executions — and their
        golden digests — are bit-identical whether the field was omitted or
        set to an empty plan.
    """

    params: ModelParameters
    protocol_factory: ProtocolFactory
    activation: ActivationSchedule
    adversary: InterferenceAdversary = field(default_factory=NoInterference)
    max_rounds: int = 20_000
    seed: int = 0
    stop_when_synchronized: bool = True
    extra_rounds_after_sync: int = 0
    enforce_budget: bool = True
    trace_level: TraceLevel = TraceLevel.FULL
    trace_sample_interval: int = 100
    faults: Optional[FaultPlan] = None

    def __post_init__(self) -> None:
        if self.faults is not None and self.faults.empty:
            self.faults = None
        if self.max_rounds < 1:
            raise ConfigurationError(f"max_rounds must be positive, got {self.max_rounds}")
        if self.extra_rounds_after_sync < 0:
            raise ConfigurationError(
                f"extra_rounds_after_sync must be non-negative, got {self.extra_rounds_after_sync}"
            )
        if self.trace_sample_interval < 1:
            raise ConfigurationError(
                f"trace_sample_interval must be positive, got {self.trace_sample_interval}"
            )
        if self.activation.node_count > self.params.participant_bound:
            raise ConfigurationError(
                f"activation schedule wakes up {self.activation.node_count} nodes, "
                f"but the participant bound is N={self.params.participant_bound}"
            )


class Simulator:
    """Drives one execution of a protocol against an adversary.

    Parameters
    ----------
    config:
        The simulation configuration.
    observers:
        Additional streaming :class:`~repro.engine.observers.RoundObserver`
        instances notified after the built-in pipeline (spectrum log, trace
        recorder, checker, metrics, stabilization tracker).
    """

    def __init__(
        self,
        config: SimulationConfig,
        observers: Sequence[RoundObserver] = (),
    ) -> None:
        self._config = config
        self._streams = RandomStreams(config.seed)
        self._network = SingleHopRadioNetwork(config.params.band)
        # Factories with per-execution state (e.g. crash injection counting
        # activations) expose fresh(); take a reset copy so reusing one config
        # across seeds — serially or in workers — cannot leak state between runs.
        factory = config.protocol_factory
        fresh = getattr(factory, "fresh", None)
        self._protocol_factory: ProtocolFactory = fresh() if callable(fresh) else factory
        self._spectrum = SpectrumLog()
        self._extra_observers = tuple(observers)
        # Nodes never deactivate, so this insertion-ordered mapping *is* the
        # active set: `_activate` appends and the round loop iterates it
        # directly instead of rebuilding a filtered copy every round.
        self._nodes: dict[NodeId, NodeRuntime] = {}
        # Per-node hot-path dispatch rows (built by `_row`), appended at
        # activation, so the round loop drives each protocol directly.
        self._active_rows: list[_Row] = []
        self._synced_nodes: set[NodeId] = set()
        self._leader_uids: set[int] = set()
        self._pending_activations = config.activation.node_count
        # Set by `run` for fault-injected executions only.
        self._injector: FaultInjector | None = None
        self._tracker: StabilizationTracker | None = None

    @property
    def config(self) -> SimulationConfig:
        """The configuration this simulator was built with."""
        return self._config

    def run(self) -> SimulationResult:
        """Run the execution to completion and return its result."""
        config = self._config
        activation_rng = self._streams.activation_stream()
        adversary_rng = self._streams.adversary_stream()

        recorder: TraceRecorder | None = None
        if config.trace_level is not TraceLevel.NONE:
            recorder = TraceRecorder(
                level=config.trace_level, sample_interval=config.trace_sample_interval
            )
        injector: FaultInjector | None = None
        tracker: StabilizationTracker | None = None
        event_rounds: frozenset[int] = frozenset()
        if config.faults is not None:
            injector = FaultInjector(
                config.faults, self._streams, config.activation.node_count, config.params
            )
            tracker = StabilizationTracker(injector.byzantine_nodes, injector.byzantine_start_round)
            event_rounds = injector.event_rounds
        self._injector, self._tracker = injector, tracker
        checker = StreamingPropertyChecker(
            exclude=injector.byzantine_nodes if injector is not None else frozenset()
        )
        metrics = MetricsObserver()
        observers: tuple[RoundObserver, ...] = tuple(
            observer
            for observer in (self._spectrum, recorder, checker, metrics, tracker)
            if observer is not None
        ) + self._extra_observers

        for observer in observers:
            observer.on_simulation_start(config.params, config.seed)

        # Hot-path dispatch: the observer pipeline is fixed for the whole
        # execution, so bind every `on_round` once and notify through the
        # resulting tuple — one fast batched call site per round instead of a
        # per-observer attribute lookup.  With TraceLevel.NONE the tuple holds
        # no recorder at all: streaming observers only, nothing buffered.
        notify_round = tuple(observer.on_round for observer in observers)
        departed: dict[NodeId, NodeRuntime] = {}
        rows = self._active_rows
        activations_for_round = config.activation.activations_for_round
        resolve_round = self._network.resolve_round
        choose_disruption = config.adversary.choose_disruption
        budget = config.params.disruption_budget
        enforce_budget = config.enforce_budget
        # One context for the whole run: each round sets its round and node
        # count in place before the adversary reads it.
        adversary_context = AdversaryContext(
            global_round=0,
            band=config.params.band,
            budget=budget,
            history=self._spectrum,
            rng=adversary_rng,
        )
        synced_nodes = self._synced_nodes
        leader_uids = self._leader_uids
        leader_role = Role.LEADER

        rounds_simulated = 0
        grace_remaining: int | None = None
        for global_round in range(1, config.max_rounds + 1):
            activations = activations_for_round(global_round, activation_rng)
            if activations:
                self._activate(activations, global_round, observers)
            if global_round in event_rounds:
                self._apply_faults(global_round, checker, departed)

            # Activation (or reincarnation) sets local round 1 for the node's
            # first round; every later round starts by advancing it.
            actions: dict[NodeId, RadioAction] = {}
            for node_id, node, protocol, context in rows:
                if node.outputs_recorded:
                    context.local_round += 1
                actions[node_id] = protocol.choose_action()

            adversary_context.global_round = global_round
            adversary_context.active_node_count = len(rows)
            received, activity = resolve_round(
                global_round, actions, choose_disruption(adversary_context), activations
            )
            # resolve_round has validated every frequency, so only the budget
            # is left to check.
            if enforce_budget and len(activity.disrupted) > budget:
                raise ConfigurationError(
                    f"adversary disrupted {len(activity.disrupted)} frequencies, budget is {budget}"
                )

            outputs: dict[NodeId, SyncOutput] = {}
            roles: dict[NodeId, Role] = {}
            for node_id, node, protocol, context in rows:
                if node_id in received:
                    protocol.on_reception(received[node_id])
                output = protocol.current_output()
                if output is not None:
                    synced_nodes.add(node_id)
                node.outputs_recorded += 1
                outputs[node_id] = output
                role = protocol.role
                roles[node_id] = role
                if role is leader_role:
                    leader_uids.add(context.uid)

            record = RoundRecord(
                global_round=global_round,
                outputs=outputs,
                roles=roles,
                activity=activity,
            )
            for notify in notify_round:
                notify(record)
            rounds_simulated = global_round

            if self._should_stop(global_round):
                if grace_remaining is None:
                    grace_remaining = config.extra_rounds_after_sync
                if grace_remaining <= 0:
                    break
                grace_remaining -= 1
            else:
                grace_remaining = None

        for observer in observers:
            observer.on_simulation_end(rounds_simulated)

        return SimulationResult(
            trace=recorder.trace if recorder is not None else None,
            report=checker.report(),
            metrics=metrics.result(leader_uids=frozenset(self._leader_uids)),
            stabilization=tracker.finalize(rounds_simulated) if tracker is not None else None,
        )

    # -- internals --------------------------------------------------------

    def _row(self, runtime: NodeRuntime, global_round: int) -> _Row:
        """A node's dispatch row; a Byzantine node's drives a forger once it turns."""
        protocol = runtime.protocol
        injector = self._injector
        if (
            injector is not None
            and runtime.node_id in injector.byzantine_nodes
            and injector.byzantine_active(global_round)
        ):
            protocol = ForgingProtocol(runtime.context, injector, runtime.node_id)
        return (runtime.node_id, runtime, protocol, runtime.context)

    def _apply_faults(
        self,
        global_round: int,
        checker: StreamingPropertyChecker,
        departed: dict[NodeId, NodeRuntime],
    ) -> None:
        """Apply the round's scheduled churn, corruption and Byzantine start.

        Events naming nodes that are not currently present (not yet
        activated, already departed, or — for corruption — Byzantine) are
        skipped, so one plan sweeps cleanly across node-count axes.  A round
        on which anything fired opens a stabilization epoch.
        """
        injector, tracker = self._injector, self._tracker
        assert injector is not None and tracker is not None
        injected = False
        rows = self._active_rows
        for node_id in injector.leaves_at(global_round):
            for index, row in enumerate(rows):
                if row[0] == node_id:
                    departed[node_id] = row[1]
                    del rows[index]
                    injected = True
                    break
        for node_id in injector.rejoins_at(global_round):
            runtime = departed.pop(node_id, None)
            if runtime is None:
                continue
            runtime.reincarnate(
                injector.rejoin_stream(node_id, global_round), self._protocol_factory
            )
            rows.append(self._row(runtime, global_round))
            checker.reset_node(node_id)
            injected = True
        byzantine = injector.byzantine_nodes
        for node_id in injector.corruptions_at(global_round):
            if node_id in byzantine:
                continue
            for index, row in enumerate(rows):
                if row[0] == node_id:
                    runtime = row[1]
                    runtime.reincarnate(
                        injector.corruption_stream(node_id, global_round),
                        self._protocol_factory,
                    )
                    rows[index] = self._row(runtime, global_round)
                    checker.reset_node(node_id)
                    injected = True
                    break
        if injector.byzantine_starts_at(global_round):
            rows[:] = [self._row(row[1], global_round) for row in rows]
            injected = True
        if injected:
            tracker.record_epoch(global_round)

    def _activate(
        self,
        activations: tuple[NodeId, ...],
        global_round: int,
        observers: tuple[RoundObserver, ...],
    ) -> None:
        for node_id in activations:
            if node_id in self._nodes:
                raise SimulationError(f"activation schedule activated node {node_id} twice")
            runtime = NodeRuntime(
                node_id=node_id,
                params=self._config.params,
                rng=self._streams.node_stream(node_id),
            )
            runtime.activate(global_round, self._protocol_factory)
            self._nodes[node_id] = runtime
            self._active_rows.append(self._row(runtime, global_round))
            for observer in observers:
                observer.on_activation(node_id, global_round)
            self._pending_activations -= 1

    def _should_stop(self, global_round: int) -> bool:
        if not self._config.stop_when_synchronized:
            return False
        if self._pending_activations > 0:
            return False
        if global_round < self._config.activation.last_activation_round():
            return False
        if self._injector is not None and self._tracker is not None:
            # All faults fired, and the present honest nodes agree again.
            return global_round >= self._injector.last_fault_round and self._tracker.converged
        if not self._nodes:
            return False
        # The synced-node set only grows (outputs latch), so this membership
        # count replaces the per-round scan over every node runtime.
        return len(self._synced_nodes) == len(self._nodes)


def simulate(config: SimulationConfig) -> SimulationResult:
    """Run one execution for ``config`` and return its result."""
    return Simulator(config).run()
