"""Declarative fault plans.

A :class:`FaultPlan` names every fault the engine will inject into one
execution, in the same declarative/JSON-round-trippable style as campaign
specs and search genomes: schema-versioned, strictly validated, and
content-hashed so fault-injected sweep points get stable store keys.

Three fault families are supported:

* **churn** — scheduled node departures and (optional) rejoins.  A node that
  leaves simply vanishes from the round loop; a node that rejoins comes back
  with a *fresh* protocol instance and a fresh uid, exactly like a newly
  activated device (the paper's protocols already handle late arrivals, so a
  rejoin is modelled as one).
* **Byzantine nodes** — a configurable number of participants that, from a
  scheduled round on, stop running their protocol and instead broadcast
  forged :class:`~repro.radio.messages.LeaderMessage` sync values on random
  frequencies.  Which nodes turn Byzantine is drawn deterministically from
  the per-trial ``("fault", "byzantine")`` stream.
* **transient corruption** — at scheduled rounds, selected nodes are reset:
  the protocol restarts fresh at local round 1 with a new uid, on a
  per-``(trial, node, round)`` ``derive_seed`` stream.  This is a reset, not
  the arbitrary state of the snap-stabilization literature.

Every fault source is a deterministic function of the plan and the trial's
master seed, so serial, pooled, and resumed executions of a fault-injected
configuration stay byte-identical.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping, Optional

from repro.exceptions import ConfigurationError

#: Version of the fault-plan JSON schema (bump on incompatible change).
FAULT_SCHEMA_VERSION = 1

#: The ``kind`` discriminator in serialized plans.
FAULT_PLAN_KIND = "fault-plan"


@dataclass(frozen=True, slots=True)
class ChurnEvent:
    """One scheduled departure (and optional rejoin) of a node.

    Attributes
    ----------
    node_id:
        The engine node id the event targets.
    leave_round:
        The global round at whose start the node departs.
    rejoin_round:
        The global round at whose start the node comes back (with a fresh
        protocol instance and uid), or ``None`` if it never rejoins.
    """

    node_id: int
    leave_round: int
    rejoin_round: Optional[int] = None

    def __post_init__(self) -> None:
        if self.node_id < 0:
            raise ConfigurationError(f"churn node id must be >= 0, got {self.node_id}")
        if self.leave_round < 1:
            raise ConfigurationError(f"churn leave round must be >= 1, got {self.leave_round}")
        if self.rejoin_round is not None and self.rejoin_round <= self.leave_round:
            raise ConfigurationError(
                f"churn rejoin round must come after the leave round, got "
                f"leave={self.leave_round} rejoin={self.rejoin_round}"
            )

    def to_dict(self) -> dict[str, Any]:
        return {"node": self.node_id, "leave": self.leave_round, "rejoin": self.rejoin_round}

    @classmethod
    def from_dict(cls, doc: Mapping[str, Any]) -> "ChurnEvent":
        unknown = set(doc) - {"node", "leave", "rejoin"}
        if unknown:
            raise ConfigurationError(f"unknown churn event keys: {sorted(unknown)}")
        try:
            return cls(
                node_id=int(doc["node"]),
                leave_round=int(doc["leave"]),
                rejoin_round=int(doc["rejoin"]) if doc.get("rejoin") is not None else None,
            )
        except KeyError as error:
            raise ConfigurationError(f"churn event missing key: {error}") from error


@dataclass(frozen=True, slots=True)
class CorruptionEvent:
    """One scheduled transient-corruption injection.

    At the start of ``round_index``, every targeted node that is present (and
    not Byzantine) is reset: its protocol instance is rebuilt as if freshly
    activated — local round 1, a new uid — on a per-``(trial, node, round)``
    random stream.  The node loses its state rather than holding an
    arbitrary one; the protocol must recover from the reset.
    """

    round_index: int
    node_ids: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "node_ids", tuple(self.node_ids))
        if self.round_index < 1:
            raise ConfigurationError(
                f"corruption round must be >= 1, got {self.round_index}"
            )
        if not self.node_ids:
            raise ConfigurationError("a corruption event needs at least one target node")
        if any(node_id < 0 for node_id in self.node_ids):
            raise ConfigurationError(
                f"corruption node ids must be >= 0, got {self.node_ids}"
            )
        if len(set(self.node_ids)) != len(self.node_ids):
            raise ConfigurationError(f"duplicate corruption targets: {self.node_ids}")

    def to_dict(self) -> dict[str, Any]:
        return {"round": self.round_index, "nodes": list(self.node_ids)}

    @classmethod
    def from_dict(cls, doc: Mapping[str, Any]) -> "CorruptionEvent":
        unknown = set(doc) - {"round", "nodes"}
        if unknown:
            raise ConfigurationError(f"unknown corruption event keys: {sorted(unknown)}")
        try:
            return cls(
                round_index=int(doc["round"]),
                node_ids=tuple(int(n) for n in doc["nodes"]),
            )
        except KeyError as error:
            raise ConfigurationError(f"corruption event missing key: {error}") from error


@dataclass(frozen=True)
class FaultPlan:
    """A declarative, content-hashed schedule of faults for one execution.

    Attributes
    ----------
    churn:
        Scheduled departures/rejoins, any order (normalized on construction).
    byzantine_count:
        How many nodes turn Byzantine (0 = none).  The concrete set is drawn
        deterministically per trial; a count larger than the node population
        is clipped to "all nodes".
    byzantine_start_round:
        The global round from which Byzantine nodes forge messages.
    corruption:
        Scheduled transient-corruption injections.
    """

    churn: tuple[ChurnEvent, ...] = ()
    byzantine_count: int = 0
    byzantine_start_round: int = 1
    corruption: tuple[CorruptionEvent, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "churn", tuple(sorted(self.churn, key=lambda e: (e.leave_round, e.node_id)))
        )
        object.__setattr__(
            self, "corruption", tuple(sorted(self.corruption, key=lambda e: e.round_index))
        )
        if self.byzantine_count < 0:
            raise ConfigurationError(
                f"byzantine count must be >= 0, got {self.byzantine_count}"
            )
        if self.byzantine_start_round < 1:
            raise ConfigurationError(
                f"byzantine start round must be >= 1, got {self.byzantine_start_round}"
            )
        windows: dict[int, ChurnEvent] = {}
        for event in self.churn:
            previous = windows.get(event.node_id)
            if previous is not None:
                if previous.rejoin_round is None or event.leave_round <= previous.rejoin_round:
                    raise ConfigurationError(
                        f"overlapping churn windows for node {event.node_id}: "
                        f"{previous} then {event}"
                    )
            windows[event.node_id] = event

    # -- structure -------------------------------------------------------

    @property
    def empty(self) -> bool:
        """True when the plan injects nothing at all."""
        return not self.churn and not self.corruption and self.byzantine_count == 0

    def last_fault_round(self) -> int:
        """The last global round at which this plan injects anything (0 if empty)."""
        rounds = [0]
        for event in self.churn:
            rounds.append(event.leave_round)
            if event.rejoin_round is not None:
                rounds.append(event.rejoin_round)
        rounds.extend(event.round_index for event in self.corruption)
        if self.byzantine_count:
            rounds.append(self.byzantine_start_round)
        return max(rounds)

    def max_target_node_id(self) -> int:
        """The largest node id named by churn/corruption events (-1 if none)."""
        ids = [-1]
        ids.extend(event.node_id for event in self.churn)
        for event in self.corruption:
            ids.extend(event.node_ids)
        return max(ids)

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """The canonical JSON-compatible form (stable across processes)."""
        return {
            "schema": FAULT_SCHEMA_VERSION,
            "kind": FAULT_PLAN_KIND,
            "churn": [event.to_dict() for event in self.churn],
            "byzantine": {
                "count": self.byzantine_count,
                "start_round": self.byzantine_start_round,
            },
            "corruption": [event.to_dict() for event in self.corruption],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, doc: Mapping[str, Any]) -> "FaultPlan":
        unknown = set(doc) - {"schema", "kind", "churn", "byzantine", "corruption"}
        if unknown:
            raise ConfigurationError(f"unknown fault plan keys: {sorted(unknown)}")
        schema = doc.get("schema", FAULT_SCHEMA_VERSION)
        if schema != FAULT_SCHEMA_VERSION:
            raise ConfigurationError(
                f"unsupported fault plan schema {schema!r} "
                f"(this build reads version {FAULT_SCHEMA_VERSION})"
            )
        kind = doc.get("kind", FAULT_PLAN_KIND)
        if kind != FAULT_PLAN_KIND:
            raise ConfigurationError(f"not a fault plan document: kind={kind!r}")
        byzantine = doc.get("byzantine", {})
        unknown_byz = set(byzantine) - {"count", "start_round"}
        if unknown_byz:
            raise ConfigurationError(f"unknown byzantine keys: {sorted(unknown_byz)}")
        return cls(
            churn=tuple(ChurnEvent.from_dict(entry) for entry in doc.get("churn", ())),
            byzantine_count=int(byzantine.get("count", 0)),
            byzantine_start_round=int(byzantine.get("start_round", 1)),
            corruption=tuple(
                CorruptionEvent.from_dict(entry) for entry in doc.get("corruption", ())
            ),
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_dict(json.loads(text))

    # -- identity --------------------------------------------------------

    def key(self) -> str:
        """A short stable content hash (like campaign cell keys / genome keys)."""
        canonical = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]

    def describe(self) -> str:
        """Short human-readable label used in banners and tables."""
        parts = []
        if self.churn:
            parts.append(f"churn={len(self.churn)}")
        if self.byzantine_count:
            parts.append(f"byz={self.byzantine_count}@r{self.byzantine_start_round}")
        if self.corruption:
            parts.append(f"corrupt={len(self.corruption)}")
        return f"faults({', '.join(parts)})" if parts else "faults(none)"


def load_fault_plan(path: str | Path) -> FaultPlan:
    """Read a :class:`FaultPlan` from a JSON file (the CLI ``--faults`` loader)."""
    try:
        text = Path(path).read_text()
    except OSError as error:
        raise ConfigurationError(f"cannot read fault plan {path}: {error}") from error
    try:
        return FaultPlan.from_json(text)
    except (json.JSONDecodeError, TypeError) as error:
        raise ConfigurationError(f"invalid fault plan JSON in {path}: {error}") from error
