"""Per-execution metrics.

The metrics collector aggregates spectrum- and protocol-level counters as the
simulation runs: broadcasts, collisions, disrupted rounds, successful
deliveries, leader counts, and synchronization latencies.  It is deliberately
decoupled from the property checker — metrics describe *how* an execution
went; the checker decides whether it was *correct*.

:class:`MetricsObserver` is the streaming implementation: the simulator feeds
it one resolved round at a time, so metrics are available even when no trace
is retained.  :func:`collect_metrics` keeps the historical post-hoc API by
replaying a buffered trace through the observer.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Mapping

from repro.engine.observers import BaseRoundObserver, replay_trace
from repro.engine.trace import ExecutionTrace, RoundRecord
from repro.types import GlobalRound, NodeId, Role


@dataclass
class ExecutionMetrics:
    """Aggregate counters for one execution.

    Attributes
    ----------
    rounds_simulated:
        Total number of rounds driven by the simulator.
    broadcasts:
        Total number of broadcast actions across all nodes and rounds.
    deliveries:
        Number of (frequency, round) pairs on which a message was delivered.
    collisions:
        Number of (frequency, round) pairs with two or more broadcasters.
    disrupted_frequency_rounds:
        Number of (frequency, round) pairs disrupted by the adversary.
    disrupted_deliveries_prevented:
        Number of (frequency, round) pairs where a single broadcaster was
        present but the adversary disrupted the frequency (lost opportunities).
    leader_count:
        Number of distinct nodes that ever reported the LEADER role.
    sync_latencies:
        Mapping node id → rounds from activation to first non-⊥ output
        (absent for nodes that never synchronized).
    role_rounds:
        Mapping role → total node-rounds spent in that role.
    activation_rounds:
        Mapping node id → the global round the node was activated in (every
        activated node appears, synchronized or not — this is what lets
        trace-free runs still report per-node outcomes).
    """

    rounds_simulated: int = 0
    broadcasts: int = 0
    deliveries: int = 0
    collisions: int = 0
    disrupted_frequency_rounds: int = 0
    disrupted_deliveries_prevented: int = 0
    leader_count: int = 0
    sync_latencies: dict[NodeId, int] = field(default_factory=dict)
    role_rounds: Counter = field(default_factory=Counter)
    activation_rounds: dict[NodeId, int] = field(default_factory=dict)

    @property
    def max_sync_latency(self) -> int | None:
        """The worst activation-to-synchronization latency, or ``None``."""
        return max(self.sync_latencies.values()) if self.sync_latencies else None

    @property
    def mean_sync_latency(self) -> float | None:
        """The mean activation-to-synchronization latency, or ``None``."""
        if not self.sync_latencies:
            return None
        return sum(self.sync_latencies.values()) / len(self.sync_latencies)

    @property
    def delivery_rate(self) -> float:
        """Deliveries per simulated round."""
        return self.deliveries / self.rounds_simulated if self.rounds_simulated else 0.0

    @property
    def collision_rate(self) -> float:
        """Collisions per simulated round."""
        return self.collisions / self.rounds_simulated if self.rounds_simulated else 0.0


class MetricsObserver(BaseRoundObserver):
    """Accumulates :class:`ExecutionMetrics` incrementally, round by round.

    The simulator attaches one per execution; tests can also feed it manually
    or replay a buffered trace through it (see :func:`collect_metrics`).
    Call :meth:`result` once the execution is over.

    Role-rounds are tallied per *spell*: each node keeps ``[role, rounds]``
    for the role it has held since it last changed, and the spell is added to
    ``role_rounds`` only when the role changes and in :meth:`result`.  A role
    enters ``role_rounds`` at its first (round, node), so the mapping's
    values and key order are those of a per-round count.
    """

    def __init__(self) -> None:
        self._metrics = ExecutionMetrics()
        self._leader_nodes: set[NodeId] = set()
        self._spells: dict[NodeId, list] = {}

    def on_activation(self, node_id: NodeId, global_round: GlobalRound) -> None:
        self._metrics.activation_rounds[node_id] = global_round

    def on_round(self, record: RoundRecord) -> None:
        # Hot path: one call per simulated round at every trace level.  The
        # aggregate counters accumulate in locals and the per-node loops bind
        # their targets once, so the per-round cost is a handful of dict
        # operations rather than repeated attribute traversals.  A node whose
        # role did not change only bumps its spell: no enum is hashed.
        metrics = self._metrics
        metrics.rounds_simulated += 1
        activity = record.activity
        disrupted = activity.disrupted
        broadcasts = 0
        collisions = 0
        prevented = 0
        for frequency, senders in activity.broadcasters.items():
            broadcaster_count = len(senders)
            broadcasts += broadcaster_count
            if broadcaster_count >= 2:
                collisions += 1
            elif broadcaster_count == 1 and frequency in disrupted:
                prevented += 1
        metrics.broadcasts += broadcasts
        metrics.deliveries += len(activity.delivered)
        metrics.collisions += collisions
        metrics.disrupted_deliveries_prevented += prevented
        metrics.disrupted_frequency_rounds += len(disrupted)
        spells = self._spells
        for node_id, role in record.roles.items():
            spell = spells.get(node_id)
            if spell is not None and spell[0] is role:
                spell[1] += 1
            else:
                self._start_spell(node_id, role, spell)
        sync_latencies = metrics.sync_latencies
        activation_rounds = metrics.activation_rounds
        global_round = record.global_round
        for node_id, output in record.outputs.items():
            if output is None or node_id in sync_latencies:
                continue
            activation_round = activation_rounds.get(node_id)
            if activation_round is not None:
                sync_latencies[node_id] = global_round - activation_round + 1

    def _start_spell(self, node_id: NodeId, role: Role, spell: list | None) -> None:
        """Close ``node_id``'s current spell, if any, and open one in ``role``.

        Also the only place a node is recorded as having led.
        """
        role_rounds = self._metrics.role_rounds
        if spell is None:
            self._spells[node_id] = [role, 1]
        else:
            role_rounds[spell[0]] += spell[1]
            spell[0], spell[1] = role, 1
        if role not in role_rounds:
            role_rounds[role] = 0  # first seen: take its place in the key order
        if role is Role.LEADER:
            self._leader_nodes.add(node_id)

    def result(self, leader_uids: frozenset[int] | None = None) -> ExecutionMetrics:
        """The accumulated metrics.

        Adds every open spell's rounds to ``role_rounds`` and restarts the
        spells' counts, so a second call returns the same metrics.

        Parameters
        ----------
        leader_uids:
            Optional set of distinct leader uids observed by the simulator
            (more precise than counting LEADER roles per round, because
            leaders may stop being tracked once everything is synchronized).
        """
        role_rounds = self._metrics.role_rounds
        for spell in self._spells.values():
            if spell[1]:
                role_rounds[spell[0]] += spell[1]
                spell[1] = 0
        if leader_uids is not None:
            self._metrics.leader_count = len(leader_uids)
        else:
            self._metrics.leader_count = len(self._leader_nodes)
        return self._metrics


def collect_metrics(trace: ExecutionTrace, leader_uids: frozenset[int] | None = None) -> ExecutionMetrics:
    """Compute :class:`ExecutionMetrics` from a finished trace.

    This is the historical post-hoc API; it replays the trace through a
    :class:`MetricsObserver` and requires a
    :data:`~repro.engine.observers.TraceLevel.FULL` trace.

    Parameters
    ----------
    trace:
        The execution trace.
    leader_uids:
        Optional set of distinct leader uids observed by the simulator (more
        precise than counting LEADER roles in the final round, because leaders
        may stop being tracked once everything is synchronized).
    """
    trace.require_complete("collect_metrics")
    observer = MetricsObserver()
    replay_trace(trace, observer)
    return observer.result(leader_uids=leader_uids)


def summarize_roles(role_rounds: Mapping[Role, int]) -> str:
    """A compact one-line summary of how node-rounds were spent per role."""
    parts = [f"{role.value}={count}" for role, count in sorted(role_rounds.items(), key=lambda kv: kv[0].value)]
    return ", ".join(parts) if parts else "(no active rounds)"
