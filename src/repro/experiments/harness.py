"""The experiment harness: sweeps of (protocol × workload × parameters × seeds).

:class:`ExperimentHarness` is the layer every benchmark builds on.  It takes a
list of :class:`SweepPoint`s, runs each across a set of seeds through the
simulation engine, and returns :class:`SweepResult`s carrying both the raw
trial summaries and the derived statistics the tables print.

:meth:`ExperimentHarness.run_sweep` can optionally be backed by a campaign
:class:`~repro.campaigns.store.ResultStore`: points already recorded in the
store are *not* re-executed — their statistics are read back (bit-identical,
see :class:`~repro.campaigns.query.StoredSummary`), and newly executed points
are checkpointed, making large sweeps accumulable and interruptible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

from repro.adversary.activation import ActivationSchedule
from repro.adversary.base import InterferenceAdversary
from repro.engine.observers import TraceLevel
from repro.engine.plan import ExecutionPlan
from repro.engine.runner import TrialStatistics, run_trials
from repro.engine.simulator import SimulationConfig
from repro.exceptions import ExperimentError
from repro.experiments.tables import render_table
from repro.params import ModelParameters
from repro.protocols.base import BoundProtocolFactory, ProtocolFactory

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.campaigns.store import ResultStore
    from repro.engine.pool import ExecutionPool


@dataclass(frozen=True)
class SweepPoint:
    """One configuration in a sweep.

    Attributes
    ----------
    label:
        A short name for the point ("N=256", "t'=2", ...).
    params:
        Model parameters for the point.
    protocol_factory:
        The protocol under test.
    activation:
        The activation schedule.
    adversary:
        The interference adversary.
    max_rounds:
        Per-execution round cap.
    metadata:
        Extra key/value pairs copied into the result row (swept parameter
        values, protocol names, ...).
    """

    label: str
    params: ModelParameters
    protocol_factory: ProtocolFactory
    activation: ActivationSchedule
    adversary: InterferenceAdversary
    max_rounds: int = 50_000
    metadata: Mapping[str, object] = field(default_factory=dict)


@dataclass(frozen=True)
class SweepResult:
    """The measured outcome of one sweep point.

    Attributes
    ----------
    point:
        The configuration that was run.
    summary:
        The multi-seed trial summary: a live
        :class:`~repro.engine.runner.TrialSummary`, or a
        :class:`~repro.campaigns.query.StoredSummary` when the point was
        read back from a result store (both compute their statistics with
        :class:`~repro.engine.runner.TrialStatistics`).
    """

    point: SweepPoint
    summary: TrialStatistics

    def row(self) -> dict[str, object]:
        """The table row for this point (metadata plus headline statistics)."""
        summary = self.summary
        row: dict[str, object] = {"point": self.point.label}
        row.update(self.point.metadata)
        row.update(
            {
                "trials": summary.trials,
                "mean_latency": summary.mean_latency,
                "median_latency": summary.median_latency,
                "max_latency": summary.max_latency,
                "liveness": summary.liveness_rate,
                "agreement": summary.agreement_rate,
                "unique_leader": summary.unique_leader_rate,
            }
        )
        return row


class ExperimentHarness:
    """Runs sweeps and renders their results.

    Parameters
    ----------
    seeds:
        Either a seed count or an explicit seed list applied to every point.
    config_hook:
        Optional per-trial configuration hook forwarded to
        :func:`repro.engine.runner.run_trials` (used e.g. to pre-draw a fresh
        oblivious jammer per seed).
    trace_level:
        Optional :class:`~repro.engine.observers.TraceLevel` applied to every
        trial.  Sweeps that only consume summary statistics should pass
        :attr:`TraceLevel.NONE` to keep memory flat.
    pool:
        Optional persistent :class:`~repro.engine.pool.ExecutionPool` shared
        across every point of every sweep this harness runs (and with any
        other subsystem holding the same pool).  Overrides the plan's worker
        count for dispatch; never changes results.
    plan:
        The :class:`~repro.engine.plan.ExecutionPlan` applied to every
        point's trial batch (forwarded to
        :func:`repro.engine.runner.run_trials`; results are identical to a
        serial run under every plan).
    """

    def __init__(
        self,
        seeds: Sequence[int] | int = 5,
        config_hook: Callable[[SimulationConfig, int], SimulationConfig] | None = None,
        *,
        trace_level: TraceLevel | None = None,
        pool: "ExecutionPool | None" = None,
        plan: ExecutionPlan | None = None,
    ) -> None:
        self._seeds = seeds
        self._config_hook = config_hook
        self._plan = plan
        self._trace_level = trace_level
        self._pool = pool

    def run_point(self, point: SweepPoint) -> SweepResult:
        """Run one sweep point across the harness seeds."""
        config = SimulationConfig(
            params=point.params,
            protocol_factory=point.protocol_factory,
            activation=point.activation,
            adversary=point.adversary,
            max_rounds=point.max_rounds,
        )
        summary = run_trials(
            config,
            seeds=self._seeds,
            config_for_seed=self._config_hook,
            trace_level=self._trace_level,
            pool=self._pool,
            plan=self._plan,
        )
        return SweepResult(point=point, summary=summary)

    def run_sweep(
        self,
        points: Sequence[SweepPoint],
        store: "ResultStore | None" = None,
        campaign: str = "harness-sweep",
    ) -> list[SweepResult]:
        """Run every point of a sweep, in order.

        Parameters
        ----------
        points:
            The sweep points.
        store:
            Optional campaign :class:`~repro.campaigns.store.ResultStore`.
            Points whose content-hashed key the store already holds are read
            back instead of re-executed (their
            :class:`~repro.campaigns.query.StoredSummary` is statistically
            identical to the live summary); newly executed points are
            checkpointed one by one, so an interrupted sweep resumes where it
            stopped.
        campaign:
            The campaign name the points are recorded under in the store.
        """
        if not points:
            raise ExperimentError("a sweep needs at least one point")
        if store is None:
            return [self.run_point(point) for point in points]

        from repro.campaigns.query import summary_for_cell

        store.register_campaign(campaign)
        results = []
        for point in points:
            key = self.point_key(point)
            if store.has_cell(key):
                store.add_cells_to_campaign(campaign, [key])
                results.append(SweepResult(point=point, summary=summary_for_cell(store, key)))
                continue
            result = self.run_point(point)
            store.record_cell(campaign, key, self._point_description(point), result.summary.rows)
            results.append(result)
        return results

    def point_key(self, point: SweepPoint) -> str:
        """The stable content-hashed store key of one sweep point.

        The key covers everything that determines the point's statistics:
        the configuration, the harness seeds, and the point's identity
        fields.  It deliberately excludes the execution plan and
        ``trace_level`` (they never change results).
        """
        from repro.campaigns.spec import cell_key

        return cell_key(self._point_description(point))

    def _point_description(self, point: SweepPoint) -> dict[str, object]:
        """A canonical JSON-serializable description of a sweep point.

        Live objects are reduced to stable text: the protocol factory must be
        a :class:`~repro.protocols.base.BoundProtocolFactory` (closures have
        no stable identity to hash), and activation schedules / adversaries
        contribute their class and ``describe()`` string.  A per-seed
        ``config_hook`` changes executions in ways no description can see, so
        it is incompatible with the store-backed path.
        """
        if self._config_hook is not None:
            raise ExperimentError(
                "a config_hook customizes trials per seed, which a store key cannot "
                "capture; run this sweep without a store (or fold the hook into the "
                "point's adversary/activation)"
            )
        factory = point.protocol_factory
        if not isinstance(factory, BoundProtocolFactory):
            raise ExperimentError(
                f"sweep point {point.label!r} uses a protocol factory of type "
                f"{type(factory).__name__}, which has no stable identity to hash; "
                "store-backed sweeps need a BoundProtocolFactory "
                "(use Protocol.factory(...))"
            )
        seeds = self._seeds
        seed_list = list(range(seeds)) if isinstance(seeds, int) else list(seeds)
        protocol_class = factory.protocol_class
        return {
            "kind": "harness-point",
            "label": point.label,
            "protocol": f"{protocol_class.__module__}.{protocol_class.__qualname__}",
            "protocol_args": repr(factory.args),
            "activation": point.activation.identity(),
            "adversary": point.adversary.identity(),
            "frequencies": point.params.frequencies,
            "budget": point.params.disruption_budget,
            "participants": point.params.participant_bound,
            "node_count": point.activation.node_count,
            "max_rounds": point.max_rounds,
            "seeds": seed_list,
            "metadata": {str(k): repr(v) for k, v in sorted(point.metadata.items())},
        }

    def render(self, results: Sequence[SweepResult], title: str | None = None) -> str:
        """Render sweep results as an ASCII table."""
        if not results:
            raise ExperimentError("cannot render an empty sweep")
        return render_table([result.row() for result in results], title=title, float_digits=1)

    def latencies(self, results: Sequence[SweepResult]) -> list[float]:
        """The mean latencies of a sweep, in point order (None → raises)."""
        latencies = []
        for result in results:
            mean = result.summary.mean_latency
            if mean is None:
                raise ExperimentError(
                    f"sweep point {result.point.label!r} never synchronized; no latency available"
                )
            latencies.append(mean)
        return latencies
