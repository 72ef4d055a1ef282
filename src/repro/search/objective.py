"""Search objectives: how a candidate strategy is scored.

A :class:`SearchObjective` pins down everything about an evaluation *except*
the adversary: the protocol under test, the named workload providing the
activation pattern, the model parameters, the seed list, and the round cap.
Evaluating a genome decodes it (:meth:`SearchObjective.config_for`),
overrides the workload's adversary, runs the configuration across all seeds
(optionally on a worker pool — parallel batches are bit-identical to serial
ones), and reduces the per-trial outcomes to one scalar score that the
optimizers *maximize*.

Scores are computed from the same rows the campaign store persists
(:class:`~repro.engine.pool.ReducedTrial`), so a score recomputed from a
checkpoint is bit-identical to the score of the live evaluation — the
property that makes search resume exact.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from repro.campaigns.spec import resolve_workload
from repro.engine.plan import ExecutionPlan
from repro.engine.pool import ExecutionPool, ReducedTrial
from repro.engine.runner import interpolated_percentile, run_reduced_trials
from repro.engine.simulator import SimulationConfig
from repro.exceptions import ConfigurationError
from repro.faults.plan import FaultPlan
from repro.params import ModelParameters
from repro.protocols.registry import PROTOCOL_FACTORIES, protocol_factory
from repro.search.space import FaultGenome, StrategyGenome

#: Version of the objective-description layout (part of every candidate key).
OBJECTIVE_SCHEMA_VERSION = 1

#: The scores an objective can maximize.  All treat an execution that never
#: synchronized as maximally disrupted (its latency counts as ``max_rounds``).
OBJECTIVE_METRICS = (
    "median_latency",   # median effective synchronization latency
    "mean_latency",     # mean effective synchronization latency
    "failure_rate",     # fraction of seeds that never synchronized
    "mean_rounds",      # mean number of simulated rounds
)


@dataclass(frozen=True)
class Evaluation:
    """The outcome of evaluating one genome against an objective.

    Attributes
    ----------
    genome:
        The evaluated strategy.
    records:
        One :class:`~repro.engine.pool.ReducedTrial` row per seed, in seed
        order — the rows the store persists.
    score:
        The objective's scalar (recomputable from ``records``).
    """

    genome: StrategyGenome
    records: tuple[ReducedTrial, ...]
    score: float


@dataclass(frozen=True)
class SearchObjective:
    """A pinned evaluation configuration for adversary search.

    Attributes
    ----------
    protocol:
        Registered protocol name (see :data:`~repro.protocols.registry.PROTOCOL_FACTORIES`).
    workload:
        Registered workload name; only its *activation* is used — the
        adversary slot is overridden by the candidate strategy.
    frequencies, budget, participants:
        The model parameters ``(F, t, N)``.
    node_count:
        Devices the workload activates.
    seeds:
        Explicit seed tuple (an ``int`` count ``k`` normalizes to ``0 .. k−1``).
    max_rounds:
        Per-execution round cap (also the effective latency charged to an
        execution that never synchronized).
    metric:
        One of :data:`OBJECTIVE_METRICS`.
    faults:
        Optional :class:`~repro.faults.plan.FaultPlan` injected into every
        evaluation (the environment the candidates are scored in).  Part of
        the evaluation identity when set; a :class:`FaultGenome` candidate's
        own plan takes precedence over it.
    """

    protocol: str = "trapdoor"
    workload: str = "quiet_start"
    frequencies: int = 8
    budget: int = 3
    participants: int = 64
    node_count: int = 8
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)
    max_rounds: int = 20_000
    metric: str = "median_latency"
    faults: FaultPlan | None = None

    def __post_init__(self) -> None:
        seeds = self.seeds
        object.__setattr__(
            self, "seeds", tuple(range(seeds)) if isinstance(seeds, int) else tuple(seeds)
        )
        if not self.seeds:
            raise ConfigurationError("a search objective needs at least one seed")
        if self.protocol not in PROTOCOL_FACTORIES:
            known = ", ".join(sorted(PROTOCOL_FACTORIES))
            raise ConfigurationError(f"unknown protocol {self.protocol!r}; known: {known}")
        if self.metric not in OBJECTIVE_METRICS:
            raise ConfigurationError(
                f"unknown objective metric {self.metric!r}; known: {', '.join(OBJECTIVE_METRICS)}"
            )
        if self.max_rounds < 1:
            raise ConfigurationError(f"max_rounds must be positive, got {self.max_rounds}")
        # Validates F/t/N eagerly, so a bad objective fails at construction.
        self.params

    @property
    def params(self) -> ModelParameters:
        """The ``(F, t, N)`` triple as validated model parameters."""
        return ModelParameters(
            frequencies=self.frequencies,
            disruption_budget=self.budget,
            participant_bound=self.participants,
        )

    # -- identity ---------------------------------------------------------

    def describe_dict(self) -> dict[str, Any]:
        """The full canonical description (spec persistence / round-tripping)."""
        return {**self.evaluation_dict(), "metric": self.metric}

    def evaluation_dict(self) -> dict[str, Any]:
        """The part of the description that determines *simulated outcomes*.

        Deliberately excludes ``metric``: it only changes how stored trial
        records are reduced to a score, never the records themselves.
        Candidate store keys hash this dict, so searches that differ only in
        their metric share every evaluation.  The ``faults`` key appears only
        when a plan is set, keeping every fault-free objective's identity —
        and its warm-started checkpoints — unchanged.
        """
        data: dict[str, Any] = {
            "schema": OBJECTIVE_SCHEMA_VERSION,
            "kind": "adversary-search-objective",
            "protocol": self.protocol,
            "workload": self.workload,
            "frequencies": self.frequencies,
            "budget": self.budget,
            "participants": self.participants,
            "node_count": self.node_count,
            "seeds": list(self.seeds),
            "max_rounds": self.max_rounds,
        }
        if self.faults is not None:
            data["faults"] = self.faults.to_dict()
        return data

    def describe(self) -> str:
        """Short label for banners and tables."""
        label = (
            f"{self.protocol} × {self.workload} × F={self.frequencies}, t={self.budget}, "
            f"N={self.participants}, n={self.node_count}, {len(self.seeds)} seeds, "
            f"maximize {self.metric}"
        )
        if self.faults is not None:
            label += f", {self.faults.describe()}"
        return label

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SearchObjective":
        """Rebuild an objective from :meth:`describe_dict` output."""
        schema = data.get("schema", OBJECTIVE_SCHEMA_VERSION)
        if schema != OBJECTIVE_SCHEMA_VERSION:
            raise ConfigurationError(
                f"search objective schema {schema} is not supported "
                f"(this build writes schema {OBJECTIVE_SCHEMA_VERSION})"
            )
        faults = data.get("faults")
        return cls(
            protocol=data["protocol"],
            workload=data["workload"],
            frequencies=data["frequencies"],
            budget=data["budget"],
            participants=data["participants"],
            node_count=data["node_count"],
            seeds=tuple(data["seeds"]),
            max_rounds=data["max_rounds"],
            metric=data["metric"],
            faults=FaultPlan.from_dict(faults) if faults is not None else None,
        )

    # -- evaluation -------------------------------------------------------

    def config_for(self, genome: StrategyGenome) -> SimulationConfig:
        """The runnable configuration for one candidate strategy.

        A :class:`~repro.search.space.FaultGenome` carries its strategy in
        the fault plan rather than the adversary slot (its ``decode`` yields
        the quiet adversary), so its plan replaces the objective's own
        ``faults`` environment for that evaluation.
        """
        workload = resolve_workload(self.workload, self.node_count)
        faults = genome.plan if isinstance(genome, FaultGenome) else self.faults
        return SimulationConfig(
            params=self.params,
            protocol_factory=protocol_factory(self.protocol),
            activation=workload.activation,
            adversary=genome.decode(self.params),
            max_rounds=self.max_rounds,
            faults=faults,
        )

    def evaluate(
        self,
        genome: StrategyGenome,
        *,
        pool: ExecutionPool | None = None,
        plan: ExecutionPlan | None = None,
    ) -> Evaluation:
        """Run one genome across every seed and score the outcome.

        The one-off entry point, through
        :func:`~repro.engine.runner.run_reduced_trials`.
        :class:`~repro.search.runner.StrategySearch` does not call it: it
        runs each generation's missing candidates as one group, through
        :meth:`config_for` and the campaign runner's store-backed cycle, and
        gets the same rows.  Neither ``plan`` (how the seed batch executes —
        worker count, pool chunking, the vectorized lockstep kernel with
        scalar fallback) nor ``pool`` (a persistent
        :class:`~repro.engine.pool.ExecutionPool` the caller reuses across
        calls) ever changes results, so neither is part of any candidate
        identity.
        """
        records = run_reduced_trials(
            self.config_for(genome), seeds=self.seeds, pool=pool, plan=plan
        )
        return Evaluation(genome=genome, records=records, score=self.score_records(records))

    def effective_latencies(self, records: Sequence[ReducedTrial]) -> list[int]:
        """Per-trial worst-case latency, charging ``max_rounds`` to failures.

        The one place the "an execution that never synchronized counts as
        maximally disrupted" convention lives — scoring and the export/status
        read-backs both go through it.
        """
        return [
            record.max_sync_latency
            if record.synchronized and record.max_sync_latency is not None
            else self.max_rounds
            for record in records
        ]

    def score_records(self, records: Sequence[ReducedTrial]) -> float:
        """The objective scalar, computed from persisted trial scalars only."""
        if not records:
            raise ConfigurationError("cannot score an empty record batch")
        effective = self.effective_latencies(records)
        if self.metric == "median_latency":
            value = interpolated_percentile(effective, 0.5)
            assert value is not None  # records is non-empty
            return value
        if self.metric == "mean_latency":
            return statistics.fmean(effective)
        if self.metric == "failure_rate":
            return sum(1 for record in records if not record.synchronized) / len(records)
        return statistics.fmean(record.rounds_simulated for record in records)
