"""Checking the five wireless-synchronization properties.

The problem definition (§3) lists validity, synch commit, correctness,
agreement, and liveness.  :class:`StreamingPropertyChecker` evaluates all of
them *incrementally*: the simulator's pass over a round's nodes hands it each
node's output (:meth:`~StreamingPropertyChecker.on_output`) and then closes
the round (:meth:`~StreamingPropertyChecker.end_round`), so no buffered trace
or round record is needed.  Its ``on_round(record)`` replays a record through
the same two entry points, and :class:`PropertyChecker` keeps the historical
post-hoc API (`check(trace)`) by replaying a buffered trace; every path runs
the same rules and produces identical reports.  The batch kernel
(:mod:`repro.engine.batch`) detects disagreement and synchronization with
array operations, but builds its violations and its liveness verdict with
this module's :func:`agreement_violation` and :func:`property_report`.
Agreement and liveness are probabilistic in the paper ("with high
probability" / "with probability 1"), so the checker reports them as booleans
per execution; multi-seed statistics live in :mod:`repro.engine.runner`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

from repro.engine.observers import replay_trace
from repro.engine.trace import ExecutionTrace, RoundRecord
from repro.exceptions import ProtocolViolationError
from repro.types import GlobalRound, NodeId, SyncOutput


@dataclass(frozen=True)
class PropertyViolation:
    """One observed violation of a problem property.

    Attributes
    ----------
    property_name:
        Which property was violated (``validity``, ``synch_commit``,
        ``correctness``, ``agreement``, ``liveness``).
    global_round:
        The round the violation was observed in (0 for liveness, which is a
        whole-execution property).
    node_id:
        The offending node, if the violation is attributable to one.
    detail:
        Human-readable description.
    """

    property_name: str
    global_round: int
    node_id: int | None
    detail: str


@dataclass
class PropertyReport:
    """The outcome of checking all five properties over one trace."""

    violations: list[PropertyViolation] = field(default_factory=list)
    liveness_achieved: bool = False
    synchronization_round: int | None = None

    @property
    def validity_holds(self) -> bool:
        """No validity violations were observed."""
        return not self._has("validity")

    @property
    def synch_commit_holds(self) -> bool:
        """No synch-commit violations were observed."""
        return not self._has("synch_commit")

    @property
    def correctness_holds(self) -> bool:
        """No correctness violations were observed."""
        return not self._has("correctness")

    @property
    def agreement_holds(self) -> bool:
        """No agreement violations were observed."""
        return not self._has("agreement")

    @property
    def all_safety_holds(self) -> bool:
        """Validity, synch commit, correctness, and agreement all hold."""
        return (
            self.validity_holds
            and self.synch_commit_holds
            and self.correctness_holds
            and self.agreement_holds
        )

    @property
    def all_hold(self) -> bool:
        """All five properties hold (safety plus liveness)."""
        return self.all_safety_holds and self.liveness_achieved

    def _has(self, property_name: str) -> bool:
        return any(v.property_name == property_name for v in self.violations)

    def raise_on_safety_violation(self) -> None:
        """Raise :class:`ProtocolViolationError` if any safety property failed."""
        if not self.all_safety_holds:
            first = next(v for v in self.violations if v.property_name != "liveness")
            raise ProtocolViolationError(
                f"{first.property_name} violated in round {first.global_round}: {first.detail}"
            )


def agreement_violation(global_round: GlobalRound, outputs: Iterable[int]) -> PropertyViolation:
    """The agreement violation of a round whose non-⊥ ``outputs`` differ."""
    return PropertyViolation(
        property_name="agreement",
        global_round=global_round,
        node_id=None,
        detail=f"distinct non-⊥ outputs {sorted(set(outputs))} in the same round",
    )


def property_report(
    violations: list[PropertyViolation],
    first_sync_rounds: Mapping[NodeId, GlobalRound | None],
    rounds: int,
) -> PropertyReport:
    """The final report: ``violations``, then the liveness verdict.

    Liveness holds when at least one node is checked and every checked node
    has a first synchronization round; the synchronization round is then the
    latest of them.  Otherwise a liveness violation names the lowest
    unsynchronized node.
    """
    report = PropertyReport(violations=violations)
    unsynced = sorted(
        node_id for node_id, sync_round in first_sync_rounds.items() if sync_round is None
    )
    report.liveness_achieved = bool(first_sync_rounds) and not unsynced
    if report.liveness_achieved:
        report.synchronization_round = max(first_sync_rounds.values())  # type: ignore[type-var]
    else:
        report.violations.append(
            PropertyViolation(
                property_name="liveness",
                global_round=0,
                node_id=unsynced[0] if unsynced else None,
                detail=f"{len(unsynced)} node(s) never synchronized within {rounds} rounds",
            )
        )
    return report


@dataclass
class _NodeCheckState:
    """Incremental per-node state for the sequence properties."""

    previous: int | None = None
    first_sync_round: GlobalRound | None = None
    violations: list[PropertyViolation] = field(default_factory=list)


class StreamingPropertyChecker:
    """Evaluates the five properties incrementally, one node-round at a time.

    The simulator calls :meth:`on_output` for each node of a round, in node
    order, then :meth:`end_round`; :meth:`on_round` does the same for a round
    record.  Call :meth:`report` at the end.  The report — including the order
    of recorded violations — is identical to what the historical post-hoc
    checker produced from a full trace.

    Parameters
    ----------
    exclude:
        Node ids exempt from the per-node properties (the fault subsystem
        passes the Byzantine set here — forging nodes are adversarial
        hardware, not protocol instances, so their behaviour proves nothing
        about the protocol).  Excluded nodes get no per-node state and do not
        count toward liveness; their outputs still face validity and
        agreement.
    """

    def __init__(self, exclude: frozenset[NodeId] = frozenset()) -> None:
        self._nodes: dict[NodeId, _NodeCheckState] = {}
        self._round_violations: list[PropertyViolation] = []
        self._rounds_seen = 0
        self._exclude = exclude
        self._distinct: set[int] = set()
        #: Nodes with checker state that output a non-⊥ value since their
        #: last reset.  A ⊥ output can fire a rule (synch commit) only for
        #: these: any other node's previous output is ⊥ already, so the
        #: simulator skips :meth:`on_output` for its ⊥.
        self.committed: set[NodeId] = set()

    def on_activation(self, node_id: NodeId, global_round: GlobalRound) -> None:
        if node_id in self._exclude:
            return
        self._nodes[node_id] = _NodeCheckState()

    def reset_node(self, node_id: NodeId) -> None:
        """Forget a node's sequence state (fault injection only).

        Called when churn rejoin or transient corruption rebuilds a node's
        protocol from scratch: the fresh instance legitimately restarts at ⊥,
        so the synch-commit and correctness chains must restart with it.  The
        first-synchronization latch is kept — liveness asks whether the node
        *ever* synchronized.
        """
        state = self._nodes.get(node_id)
        if state is not None:
            state.previous = None
            self.committed.discard(node_id)

    def on_output(self, global_round: GlobalRound, node_id: NodeId, output: SyncOutput) -> None:
        """Fold one node's output in ``global_round`` into the property state.

        Validity and the round's distinct outputs (for :meth:`end_round`'s
        agreement check) take every node; the sequence properties only nodes
        with state, and their violations accumulate on that node.  Hot path:
        one call per node-round, minus the ⊥ outputs of nodes outside
        :attr:`committed`, which fire nothing.
        """
        if output is not None:
            if not isinstance(output, int) or output < 0:
                self._round_violations.append(
                    PropertyViolation(
                        property_name="validity",
                        global_round=global_round,
                        node_id=node_id,
                        detail=f"output {output!r} is neither ⊥ nor a natural number",
                    )
                )
            self._distinct.add(output)
        state = self._nodes.get(node_id)
        if state is None:
            return
        previous = state.previous
        if output is None:
            if node_id in self.committed:
                state.violations.append(
                    PropertyViolation(
                        property_name="synch_commit",
                        global_round=global_round,
                        node_id=node_id,
                        detail="output returned to ⊥ after committing to a round number",
                    )
                )
        elif previous is None:
            # First non-⊥ output since activation, a reset or a return to ⊥.
            self.committed.add(node_id)
            if state.first_sync_round is None:
                state.first_sync_round = global_round
        elif output != previous + 1:
            state.violations.append(
                PropertyViolation(
                    property_name="correctness",
                    global_round=global_round,
                    node_id=node_id,
                    detail=(
                        f"output jumped from {previous} to {output} "
                        f"(expected {previous + 1})"
                    ),
                )
            )
        state.previous = output

    def end_round(self, global_round: GlobalRound) -> None:
        """Close ``global_round`` once every node's output is in: agreement.

        The round's agreement violation, if any, lands right after its
        validity violations.
        """
        self._rounds_seen += 1
        distinct = self._distinct
        if len(distinct) > 1:
            self._round_violations.append(agreement_violation(global_round, distinct))
        distinct.clear()

    def on_round(self, record: RoundRecord) -> None:
        """Replay one round record through :meth:`on_output` and :meth:`end_round`."""
        for node_id, output in record.outputs.items():
            self.on_output(record.global_round, node_id, output)
        self.end_round(record.global_round)

    def report(self) -> PropertyReport:
        """Assemble the final :class:`PropertyReport`."""
        violations = list(self._round_violations)
        for node_id in sorted(self._nodes):
            violations.extend(self._nodes[node_id].violations)
        return property_report(
            violations,
            {node_id: state.first_sync_round for node_id, state in self._nodes.items()},
            self._rounds_seen,
        )


class PropertyChecker:
    """Post-hoc property checking over a buffered trace.

    This is the historical API: it replays the trace through a
    :class:`StreamingPropertyChecker`, so the two produce identical reports.
    It requires a :data:`~repro.engine.observers.TraceLevel.FULL` trace.
    """

    def check(self, trace: ExecutionTrace) -> PropertyReport:
        """Evaluate every property and return a :class:`PropertyReport`."""
        trace.require_complete("PropertyChecker.check")
        checker = StreamingPropertyChecker()
        replay_trace(trace, checker)
        return checker.report()
