"""Searchable strategy genomes and the space that samples and mutates them.

A *genome* is a small, JSON-serializable description of a disruption
strategy.  Three families cover the adversary classes the paper reasons
about:

* :class:`ObliviousGenome` — a bounded periodic disruption schedule (one
  explicit set of ≤ ``t`` frequencies per slot), decoding to a
  :class:`~repro.adversary.oblivious.CyclicObliviousSchedule`.  This is the
  fully oblivious corner of the space, and the representation the
  cross-entropy optimizer works on.
* :class:`ParametricGenome` — a named jammer from the shared
  :mod:`adversary registry <repro.adversary.registry>` with optional
  constructor overrides (sweep step, burst duty cycle, ...).  The space's
  :meth:`~StrategySpace.warm_start` enumerates every registered jammer with
  default parameters, so a search always starts from — and can only improve
  on — the hand-written baselines.
* :class:`PolicyGenome` — a reactive policy table keyed on discretized
  :class:`~repro.adversary.base.AdversaryContext` features, decoding to a
  :class:`~repro.adversary.policy.PolicyJammer` (the adaptive corner).

Every genome round-trips through ``to_dict``/:func:`genome_from_dict` and has
a stable content-hashed :func:`genome_key`, which is what the checkpoint
layer dedups evaluations by.  Decoded adversaries are picklable (the parallel
runner ships them to worker processes).
"""

from __future__ import annotations

import abc
import hashlib
import json
import random
from dataclasses import dataclass
from typing import Any, ClassVar, Mapping

from repro.adversary.base import InterferenceAdversary
from repro.adversary.oblivious import CyclicObliviousSchedule
from repro.adversary.policy import HEAT_BUCKETS, POLICY_ACTIONS, PolicyJammer
from repro.adversary.registry import ADVERSARY_FACTORIES
from repro.adversary.registry import names as adversary_names
from repro.adversary.registry import resolve as resolve_adversary
from repro.exceptions import ConfigurationError
from repro.faults.plan import ChurnEvent, CorruptionEvent, FaultPlan
from repro.params import ModelParameters


def genome_key(genome: "StrategyGenome") -> str:
    """The stable content hash of a genome (16 hex digits of the SHA-256).

    Computed from the canonical JSON of :meth:`StrategyGenome.to_dict`, so it
    is identical across processes and machines — the property the store's
    dedup relies on.
    """
    canonical = json.dumps(genome.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


class StrategyGenome(abc.ABC):
    """A searchable, serializable description of a disruption strategy."""

    #: Family tag used by the ``to_dict`` / :func:`genome_from_dict` round trip.
    kind: ClassVar[str]

    @abc.abstractmethod
    def decode(self, params: ModelParameters) -> InterferenceAdversary:
        """Build the picklable adversary this genome describes."""

    @abc.abstractmethod
    def to_dict(self) -> dict[str, Any]:
        """A canonical JSON-serializable description (includes ``kind``)."""

    @abc.abstractmethod
    def describe(self) -> str:
        """Short human-readable label for status lines and tables."""

    @property
    def key(self) -> str:
        """The stable content-hashed identity of this genome."""
        return genome_key(self)


@dataclass(frozen=True)
class ObliviousGenome(StrategyGenome):
    """A bounded periodic oblivious schedule: one disruption set per slot.

    Attributes
    ----------
    period_sets:
        One tuple of frequencies per slot of the period; each is normalized
        to sorted order at construction.  Slot ``s`` is played in every round
        ``r`` with ``(r − 1) mod period == s``.
    """

    kind: ClassVar[str] = "oblivious"

    period_sets: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        normalized = tuple(tuple(sorted(set(entry))) for entry in self.period_sets)
        object.__setattr__(self, "period_sets", normalized)
        if not normalized:
            raise ConfigurationError("an oblivious genome needs at least one period slot")

    def decode(self, params: ModelParameters) -> InterferenceAdversary:
        return CyclicObliviousSchedule([frozenset(entry) for entry in self.period_sets])

    def to_dict(self) -> dict[str, Any]:
        return {"kind": self.kind, "period_sets": [list(entry) for entry in self.period_sets]}

    def describe(self) -> str:
        return f"oblivious period-{len(self.period_sets)} schedule"


@dataclass(frozen=True)
class ParametricGenome(StrategyGenome):
    """A registered jammer name plus optional constructor overrides.

    Attributes
    ----------
    name:
        An :mod:`adversary registry <repro.adversary.registry>` name.
    overrides:
        Sorted ``(field, value)`` pairs passed to the constructor; empty
        means the hand-written default configuration.
    """

    kind: ClassVar[str] = "parametric"

    name: str
    overrides: tuple[tuple[str, int], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "overrides", tuple(sorted((str(k), int(v)) for k, v in self.overrides))
        )
        if self.name not in ADVERSARY_FACTORIES:
            known = ", ".join(adversary_names())
            raise ConfigurationError(f"unknown adversary {self.name!r}; known: {known}")

    def decode(self, params: ModelParameters) -> InterferenceAdversary:
        return resolve_adversary(self.name, **dict(self.overrides))

    def to_dict(self) -> dict[str, Any]:
        return {"kind": self.kind, "name": self.name, "overrides": [list(p) for p in self.overrides]}

    def describe(self) -> str:
        if not self.overrides:
            return f"{self.name} jammer (defaults)"
        rendered = ", ".join(f"{field}={value}" for field, value in self.overrides)
        return f"{self.name} jammer ({rendered})"


@dataclass(frozen=True)
class PolicyGenome(StrategyGenome):
    """A reactive (phase × heat) → action policy table.

    Attributes
    ----------
    table:
        ``phase_period × HEAT_BUCKETS`` action names from
        :data:`~repro.adversary.policy.POLICY_ACTIONS`.
    phase_period:
        The period of the phase feature.
    """

    kind: ClassVar[str] = "policy"

    table: tuple[str, ...]
    phase_period: int = 4

    def __post_init__(self) -> None:
        object.__setattr__(self, "table", tuple(self.table))
        # Validation (lengths, action names) lives in PolicyJammer; decoding
        # eagerly here surfaces a malformed genome at construction time.
        PolicyJammer(table=self.table, phase_period=self.phase_period)

    def decode(self, params: ModelParameters) -> InterferenceAdversary:
        return PolicyJammer(table=self.table, phase_period=self.phase_period)

    def to_dict(self) -> dict[str, Any]:
        return {"kind": self.kind, "table": list(self.table), "phase_period": self.phase_period}

    def describe(self) -> str:
        return f"reactive policy ({self.phase_period} phases)"


@dataclass(frozen=True)
class FaultGenome(StrategyGenome):
    """A fault-injection plan as a searchable strategy.

    The fourth family attacks *node state* instead of the spectrum: its plan
    (churn, Byzantine forgers, transient corruption — see
    :class:`~repro.faults.plan.FaultPlan`) is injected through
    ``SimulationConfig.faults`` by
    :meth:`~repro.search.objective.SearchObjective.config_for`, and
    :meth:`decode` yields the quiet ``none`` adversary so the radio layer is
    undisturbed.  Not part of the default :meth:`StrategySpace.sample` mix —
    fault search is opt-in via :attr:`StrategySpace.include_faults` because a
    fault plan sidesteps the disruption budget the paper's adversary model
    bounds.
    """

    kind: ClassVar[str] = "faults"

    plan: FaultPlan

    def __post_init__(self) -> None:
        if not isinstance(self.plan, FaultPlan):
            raise ConfigurationError(
                f"a fault genome wraps a FaultPlan, got {type(self.plan).__name__}"
            )
        if self.plan.empty:
            raise ConfigurationError("a fault genome needs a non-empty fault plan")

    def decode(self, params: ModelParameters) -> InterferenceAdversary:
        return resolve_adversary("none")

    def to_dict(self) -> dict[str, Any]:
        return {"kind": self.kind, "plan": self.plan.to_dict()}

    def describe(self) -> str:
        return self.plan.describe()


_GENOME_CLASSES: dict[str, type[StrategyGenome]] = {
    ObliviousGenome.kind: ObliviousGenome,
    ParametricGenome.kind: ParametricGenome,
    PolicyGenome.kind: PolicyGenome,
    FaultGenome.kind: FaultGenome,
}


def genome_from_dict(data: Mapping[str, Any]) -> StrategyGenome:
    """Rebuild a genome from its ``to_dict`` form (checkpoint read-back)."""
    kind = data.get("kind")
    if kind not in _GENOME_CLASSES:
        known = ", ".join(sorted(_GENOME_CLASSES))
        raise ConfigurationError(f"unknown genome kind {kind!r}; known: {known}")
    if kind == ObliviousGenome.kind:
        return ObliviousGenome(period_sets=tuple(tuple(entry) for entry in data["period_sets"]))
    if kind == ParametricGenome.kind:
        return ParametricGenome(
            name=data["name"], overrides=tuple(tuple(pair) for pair in data["overrides"])
        )
    if kind == FaultGenome.kind:
        return FaultGenome(plan=FaultPlan.from_dict(data["plan"]))
    return PolicyGenome(table=tuple(data["table"]), phase_period=data["phase_period"])


@dataclass(frozen=True)
class StrategySpace:
    """The searchable space of genomes for one ``(F, t)`` configuration.

    All sampling and mutation is a deterministic function of the provided
    ``random.Random`` streams, so optimizers derived from one master seed
    explore the space reproducibly.

    Attributes
    ----------
    params:
        The model parameters the strategies are built for (``F`` bounds the
        frequencies, ``t`` bounds every disruption set).
    max_period:
        Largest period an oblivious genome may be sampled with.
    cem_period:
        The fixed period the cross-entropy optimizer's oblivious genomes use.
    phase_period:
        The phase period of sampled policy genomes.
    include_faults:
        When True, :meth:`sample` draws :class:`FaultGenome` candidates
        alongside the three adversary families.  Off by default: the default
        mix — and therefore every existing master-seeded search trajectory —
        is unchanged, and fault plans sidestep the paper's disruption budget,
        so mixing them into an adversary search must be a deliberate choice.
    fault_nodes:
        Node-id range sampled fault events target (ids at or above the
        evaluated workload's node count are silently inert, so one space can
        serve several node counts).
    fault_horizon:
        Latest round a sampled fault event may fire in.
    """

    params: ModelParameters
    max_period: int = 12
    cem_period: int = 8
    phase_period: int = 4
    include_faults: bool = False
    fault_nodes: int = 8
    fault_horizon: int = 80

    def __post_init__(self) -> None:
        if self.max_period < 1 or self.cem_period < 1 or self.phase_period < 1:
            raise ConfigurationError("space periods must all be positive")
        if self.fault_nodes < 1 or self.fault_horizon < 2:
            raise ConfigurationError("fault_nodes must be >= 1 and fault_horizon >= 2")

    # -- sampling ---------------------------------------------------------

    def warm_start(self) -> list[StrategyGenome]:
        """Every registered hand-written jammer with default parameters.

        Evaluating these first guarantees the search's best-found strategy is
        at least as disruptive as the best hand-written baseline.
        """
        return [ParametricGenome(name=name) for name in adversary_names()]

    def sample(self, rng: random.Random) -> StrategyGenome:
        """Draw one genome uniformly across the enabled families."""
        families = ("oblivious", "parametric", "policy")
        if self.include_faults:
            families = families + ("faults",)
        family = rng.choice(families)
        if family == "oblivious":
            return self.sample_oblivious(rng)
        if family == "parametric":
            return self.sample_parametric(rng)
        if family == "faults":
            return self.sample_faults(rng)
        return self.sample_policy(rng)

    def sample_oblivious(self, rng: random.Random, period: int | None = None) -> ObliviousGenome:
        """A random periodic schedule (full-budget sets, occasionally smaller)."""
        length = rng.randint(1, self.max_period) if period is None else period
        budget = self.params.disruption_budget
        frequencies = list(self.params.band.all_frequencies())
        sets = []
        for _slot in range(length):
            size = budget if rng.random() < 0.8 else rng.randint(0, budget)
            sets.append(tuple(sorted(rng.sample(frequencies, size))))
        return ObliviousGenome(period_sets=tuple(sets))

    def sample_parametric(self, rng: random.Random) -> ParametricGenome:
        """A random registered jammer, with each tunable field perturbed half the time."""
        name = rng.choice(adversary_names())
        overrides = []
        for field, (low, high, _default) in sorted(self._parameter_ranges(name).items()):
            if rng.random() < 0.5:
                overrides.append((field, rng.randint(low, high)))
        return ParametricGenome(name=name, overrides=tuple(overrides))

    def sample_policy(self, rng: random.Random) -> PolicyGenome:
        """A random (phase × heat) → action table."""
        table = tuple(
            rng.choice(POLICY_ACTIONS) for _ in range(self.phase_period * HEAT_BUCKETS)
        )
        return PolicyGenome(table=table, phase_period=self.phase_period)

    def sample_faults(self, rng: random.Random) -> FaultGenome:
        """A random non-empty fault plan over the space's node-id range.

        Every draw enables at least one fault family; churn events get
        distinct node ids (plans reject overlapping per-node windows).
        """
        horizon = self.fault_horizon
        while True:
            churn: list[ChurnEvent] = []
            churn_count = rng.randint(0, min(2, self.fault_nodes))
            for node_id in rng.sample(range(self.fault_nodes), churn_count):
                leave = rng.randint(2, horizon)
                rejoin = leave + rng.randint(2, horizon // 2) if rng.random() < 0.7 else None
                churn.append(ChurnEvent(node_id=node_id, leave_round=leave, rejoin_round=rejoin))
            byzantine_count = rng.choice((0, 0, 1))
            # Pinned to 1 for count 0, so an inactive Byzantine setting never
            # perturbs the plan's content hash.
            byzantine_start = rng.randint(1, horizon) if byzantine_count else 1
            corruption: list[CorruptionEvent] = []
            if rng.random() < 0.5:
                nodes = tuple(
                    sorted(rng.sample(range(self.fault_nodes), rng.randint(1, 2)))
                )
                corruption.append(
                    CorruptionEvent(round_index=rng.randint(2, horizon), node_ids=nodes)
                )
            plan = FaultPlan(
                churn=tuple(churn),
                byzantine_count=byzantine_count,
                byzantine_start_round=byzantine_start,
                corruption=tuple(corruption),
            )
            if not plan.empty:
                return FaultGenome(plan=plan)

    def _parameter_ranges(self, name: str) -> dict[str, tuple[int, int, int]]:
        """``field -> (low, high, default)`` for each tunable field of a jammer.

        ``default`` is the value the registered constructor effectively uses
        (``None`` sentinels resolve to the full budget), so mutation of a
        default-configured genome nudges from where the jammer actually is.
        """
        frequencies = self.params.frequencies
        budget = self.params.disruption_budget
        ranges: dict[str, dict[str, tuple[int, int, int]]] = {
            "random": {"strength": (min(1, budget), max(1, budget), max(1, budget))},
            "sweep": {"step": (1, max(1, frequencies - 1), 1)},
            "bursty": {"on_rounds": (1, 32, 8), "off_rounds": (0, 32, 8)},
            "low-band": {"prefix_width": (1, frequencies, max(1, budget))},
        }
        return ranges.get(name, {})

    # -- mutation ---------------------------------------------------------

    def mutate(self, genome: StrategyGenome, rng: random.Random) -> StrategyGenome:
        """One local edit of a genome (the hill-climber's neighbourhood)."""
        if isinstance(genome, ObliviousGenome):
            return self._mutate_oblivious(genome, rng)
        if isinstance(genome, ParametricGenome):
            return self._mutate_parametric(genome, rng)
        if isinstance(genome, PolicyGenome):
            return self._mutate_policy(genome, rng)
        if isinstance(genome, FaultGenome):
            return self._mutate_faults(genome, rng)
        raise ConfigurationError(f"cannot mutate genome of type {type(genome).__name__}")

    def _mutate_oblivious(self, genome: ObliviousGenome, rng: random.Random) -> ObliviousGenome:
        """Resample one slot of the period."""
        sets = list(genome.period_sets)
        slot = rng.randrange(len(sets))
        budget = self.params.disruption_budget
        frequencies = list(self.params.band.all_frequencies())
        size = budget if rng.random() < 0.8 else rng.randint(0, budget)
        sets[slot] = tuple(sorted(rng.sample(frequencies, size)))
        return ObliviousGenome(period_sets=tuple(sets))

    def _mutate_parametric(self, genome: ParametricGenome, rng: random.Random) -> StrategyGenome:
        """Nudge one tunable field; parameterless jammers hop to a fresh sample."""
        ranges = self._parameter_ranges(genome.name)
        if not ranges:
            return self.sample(rng)
        field = rng.choice(sorted(ranges))
        low, high, default = ranges[field]
        current = dict(genome.overrides)
        value = current.get(field, default)
        step = rng.choice((-2, -1, 1, 2))
        current[field] = min(high, max(low, value + step))
        return ParametricGenome(name=genome.name, overrides=tuple(sorted(current.items())))

    def _mutate_policy(self, genome: PolicyGenome, rng: random.Random) -> PolicyGenome:
        """Rewrite one table entry."""
        table = list(genome.table)
        index = rng.randrange(len(table))
        alternatives = [action for action in POLICY_ACTIONS if action != table[index]]
        table[index] = rng.choice(alternatives)
        return PolicyGenome(table=tuple(table), phase_period=genome.phase_period)

    def _mutate_faults(self, genome: FaultGenome, rng: random.Random) -> StrategyGenome:
        """Nudge one timing field of the plan; resample if the nudge is invalid."""
        plan = genome.plan
        choices = []
        if plan.churn:
            choices.append("churn")
        if plan.byzantine_count:
            choices.append("byzantine")
        if plan.corruption:
            choices.append("corruption")
        what = rng.choice(choices)
        step = rng.choice((-4, -1, 1, 4))
        try:
            if what == "byzantine":
                start = min(self.fault_horizon, max(1, plan.byzantine_start_round + step))
                mutated = FaultPlan(
                    churn=plan.churn,
                    byzantine_count=plan.byzantine_count,
                    byzantine_start_round=start,
                    corruption=plan.corruption,
                )
            elif what == "churn":
                events = list(plan.churn)
                index = rng.randrange(len(events))
                event = events[index]
                leave = max(1, event.leave_round + step)
                rejoin = event.rejoin_round
                if rejoin is not None:
                    rejoin = max(leave + 1, rejoin + step)
                events[index] = ChurnEvent(
                    node_id=event.node_id, leave_round=leave, rejoin_round=rejoin
                )
                mutated = FaultPlan(
                    churn=tuple(events),
                    byzantine_count=plan.byzantine_count,
                    byzantine_start_round=plan.byzantine_start_round,
                    corruption=plan.corruption,
                )
            else:
                events2 = list(plan.corruption)
                index = rng.randrange(len(events2))
                event2 = events2[index]
                events2[index] = CorruptionEvent(
                    round_index=max(1, event2.round_index + step), node_ids=event2.node_ids
                )
                mutated = FaultPlan(
                    churn=plan.churn,
                    byzantine_count=plan.byzantine_count,
                    byzantine_start_round=plan.byzantine_start_round,
                    corruption=tuple(events2),
                )
        except ConfigurationError:
            # The nudge produced an invalid plan (e.g. overlapping churn
            # windows) — hop to a fresh sample instead.
            return self.sample_faults(rng)
        return FaultGenome(plan=mutated)
