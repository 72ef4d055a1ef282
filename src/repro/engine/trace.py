"""Execution traces.

A trace records, for every global round, what every active node output and
what happened on the spectrum.  Traces are what the property checker, the
metrics collector, and the tests inspect; protocols never see them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Mapping, Optional

from repro.params import ModelParameters
from repro.radio.events import RoundActivity
from repro.types import GlobalRound, NodeId, Role, SyncOutput


@dataclass(slots=True)
class RoundRecord:
    """Everything recorded about one global round.

    Observers read the record and never write it: the trace recorder keeps
    the very object every other observer saw.

    Attributes
    ----------
    global_round:
        The 1-based round index.
    outputs:
        Mapping from node id to the value that node output this round
        (only nodes active during the round appear).
    roles:
        Mapping from node id to the node's role at the end of the round.
    activity:
        The spectrum activity record for the round.
    """

    global_round: GlobalRound
    outputs: Mapping[NodeId, SyncOutput]
    roles: Mapping[NodeId, Role]
    activity: RoundActivity

    def synchronized_nodes(self) -> tuple[NodeId, ...]:
        """Nodes with a non-⊥ output this round."""
        return tuple(sorted(n for n, v in self.outputs.items() if v is not None))

    def distinct_outputs(self) -> frozenset[int]:
        """The set of distinct non-⊥ outputs this round (agreement wants ≤ 1)."""
        return frozenset(v for v in self.outputs.values() if v is not None)

    def leader_nodes(self) -> tuple[NodeId, ...]:
        """Nodes whose role is LEADER at the end of the round."""
        return tuple(sorted(n for n, r in self.roles.items() if r is Role.LEADER))


@dataclass
class ExecutionTrace:
    """A full execution: parameters, per-round records, and activation times.

    Attributes
    ----------
    params:
        The model parameters the execution was run with.
    seed:
        The master seed.
    records:
        One :class:`RoundRecord` per simulated round, in order.
    activation_rounds:
        Mapping from node id to the global round it was activated in.
    complete:
        True when ``records`` holds *every* simulated round.  A sampled
        recording (:attr:`~repro.engine.observers.TraceLevel.SAMPLED`) sets
        this to False; post-hoc consumers that walk the round sequence
        (checker, metrics, app extractors) refuse incomplete traces instead
        of silently computing wrong answers.
    """

    params: ModelParameters
    seed: int
    records: list[RoundRecord] = field(default_factory=list)
    activation_rounds: dict[NodeId, GlobalRound] = field(default_factory=dict)
    complete: bool = True

    def require_complete(self, consumer: str) -> None:
        """Raise ``ValueError`` if this trace retains only a sample of rounds."""
        if not self.complete:
            raise ValueError(
                f"{consumer} requires a complete trace (TraceLevel.FULL); "
                "this trace retains only a sampled subset of rounds"
            )

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[RoundRecord]:
        return iter(self.records)

    @property
    def rounds_simulated(self) -> int:
        """Number of rounds the execution ran (complete traces only)."""
        self.require_complete("rounds_simulated")
        return len(self.records)

    @property
    def rounds_retained(self) -> int:
        """Number of round records this trace holds (honest at any trace level)."""
        return len(self.records)

    @property
    def node_ids(self) -> tuple[NodeId, ...]:
        """All node ids that were activated during the execution."""
        return tuple(sorted(self.activation_rounds))

    def append(self, record: RoundRecord) -> None:
        """Append one round record (rounds must be appended in order)."""
        self.records.append(record)

    def outputs_of(self, node_id: NodeId) -> list[SyncOutput]:
        """The per-round output sequence of one node (from its activation on)."""
        self.require_complete("outputs_of")
        return [
            record.outputs[node_id]
            for record in self.records
            if node_id in record.outputs
        ]

    def sync_round_of(self, node_id: NodeId) -> Optional[GlobalRound]:
        """The first global round in which ``node_id`` output a non-⊥ value."""
        self.require_complete("sync_round_of")
        for record in self.records:
            if record.outputs.get(node_id) is not None:
                return record.global_round
        return None

    def sync_latency_of(self, node_id: NodeId) -> Optional[int]:
        """Rounds from activation to first non-⊥ output (1 = synced on arrival)."""
        sync_round = self.sync_round_of(node_id)
        if sync_round is None:
            return None
        return sync_round - self.activation_rounds[node_id] + 1

    def all_synchronized(self) -> bool:
        """True if every activated node synchronized before the trace ended."""
        self.require_complete("all_synchronized")
        return all(self.sync_round_of(node_id) is not None for node_id in self.node_ids)

    def last_sync_round(self) -> Optional[GlobalRound]:
        """The global round by which the last node synchronized, or ``None``."""
        sync_rounds = [self.sync_round_of(node_id) for node_id in self.node_ids]
        if any(r is None for r in sync_rounds) or not sync_rounds:
            return None
        return max(sync_rounds)  # type: ignore[arg-type]

    def max_sync_latency(self) -> Optional[int]:
        """The worst per-node activation-to-synchronization latency, or ``None``."""
        latencies = [self.sync_latency_of(node_id) for node_id in self.node_ids]
        if any(latency is None for latency in latencies) or not latencies:
            return None
        return max(latencies)  # type: ignore[arg-type]
