"""Multi-seed execution runners.

The paper's guarantees are probabilistic ("with high probability"), so
meaningful measurements run the same configuration across many seeds and
report distributional statistics.  :func:`run_trials` does exactly that and
returns a :class:`TrialSummary` with the latency distribution, the liveness /
agreement success rates, and the leader-count distribution;
:func:`run_reduced_trials` returns only the per-trial
:class:`~repro.engine.pool.ReducedTrial` rows.  Every statistic is computed
from those rows by :class:`TrialStatistics`, live or read back from a store.
"""

from __future__ import annotations

import functools
import math
import statistics
from dataclasses import dataclass, replace
from typing import Optional, Sequence

from repro.engine.observers import TraceLevel
from repro.engine.plan import ExecutionPlan
from repro.engine.pool import ExecutionPool, ReducedTrial, seed_rows
from repro.engine.results import SimulationResult
from repro.engine.simulator import SimulationConfig
from repro.faults.plan import FaultPlan


def interpolated_percentile(
    values: Sequence[float], fraction: float, *, assume_sorted: bool = False
) -> float | None:
    """The empirical percentile of ``values`` at ``fraction`` (in ``[0, 1]``).

    Linearly interpolates between the order statistics (the convention of
    ``numpy.percentile``'s default mode); returns ``None`` for an empty
    sample.  Used by :class:`TrialStatistics` and by search scores.

    Parameters
    ----------
    values:
        The sample.
    fraction:
        The percentile, as a fraction in ``[0, 1]``.
    assume_sorted:
        When True, ``values`` must already be in ascending order and is used
        as-is — callers that compute several percentiles over one sample sort
        once and reuse the ordering instead of re-sorting per call.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")
    ordered = values if assume_sorted else sorted(values)
    if not ordered:
        return None
    position = fraction * (len(ordered) - 1)
    lower = math.floor(position)
    upper = math.ceil(position)
    if lower == upper:
        return float(ordered[lower])
    weight = position - lower
    return ordered[lower] * (1.0 - weight) + ordered[upper] * weight


class TrialStatistics:
    """Summary statistics over a batch of same-configuration executions.

    The one implementation behind the live :class:`TrialSummary` and the
    campaign store's :class:`~repro.campaigns.query.StoredSummary`.  Each
    statistic reads only :attr:`rows`, the batch's
    :class:`~repro.engine.pool.ReducedTrial` rows, so a summary read back
    from a store reports bit-identical numbers to the live one.
    """

    @property
    def rows(self) -> tuple[ReducedTrial, ...]:
        """One row per execution, in seed order (provided by subclasses)."""
        raise NotImplementedError

    @property
    def trials(self) -> int:
        """Number of executions in the batch."""
        return len(self.rows)

    @property
    def liveness_rate(self) -> float:
        """Fraction of executions in which every node synchronized."""
        if not self.rows:
            return 0.0
        return sum(1 for r in self.rows if r.synchronized) / len(self.rows)

    @property
    def agreement_rate(self) -> float:
        """Fraction of executions with no agreement violation."""
        if not self.rows:
            return 0.0
        return sum(1 for r in self.rows if r.agreement) / len(self.rows)

    @property
    def safety_rate(self) -> float:
        """Fraction of executions with no safety violation of any kind."""
        if not self.rows:
            return 0.0
        return sum(1 for r in self.rows if r.safety) / len(self.rows)

    @property
    def unique_leader_rate(self) -> float:
        """Fraction of executions that elected at most one leader."""
        if not self.rows:
            return 0.0
        return sum(1 for r in self.rows if r.leader_count <= 1) / len(self.rows)

    def latencies(self) -> list[int]:
        """Max activation-to-sync latencies of the executions that synchronized.

        In seed order (callers compare parallel vs. serial batches with it).
        """
        return [r.max_sync_latency for r in self.rows if r.max_sync_latency is not None]

    @functools.cached_property
    def sorted_latencies(self) -> tuple[int, ...]:
        """The latency sample in ascending order, computed once per summary.

        Every latency statistic below reads this cache, so reporting a whole
        percentile table sorts the sample exactly once.
        """
        return tuple(sorted(self.latencies()))

    @property
    def mean_latency(self) -> float | None:
        """Mean of the per-execution worst-case latencies (synchronized runs only)."""
        latencies = self.sorted_latencies
        return statistics.fmean(latencies) if latencies else None

    @property
    def median_latency(self) -> float | None:
        """Median of the per-execution worst-case latencies."""
        latencies = self.sorted_latencies
        return float(statistics.median(latencies)) if latencies else None

    @property
    def max_latency(self) -> int | None:
        """Worst latency observed across the whole batch."""
        latencies = self.sorted_latencies
        return latencies[-1] if latencies else None

    @property
    def mean_rounds(self) -> float | None:
        """Mean number of simulated rounds per execution."""
        if not self.rows:
            return None
        return statistics.fmean(r.rounds_simulated for r in self.rows)

    def percentile_latency(self, fraction: float) -> float | None:
        """An empirical latency percentile (``fraction`` in ``[0, 1]``).

        Uses linear interpolation between the order statistics (the same
        convention as ``numpy.percentile``'s default), so e.g. the median of
        ``[1, 2, 3, 4]`` is ``2.5`` rather than a nearest-rank rounding.
        """
        return interpolated_percentile(self.sorted_latencies, fraction, assume_sorted=True)

    def stabilization_rounds(self) -> list[int]:
        """Per-trial worst rounds-to-reconverge, fault-injected trials only.

        In seed order; empty for fault-free batches (every row's
        ``stabilization_rounds`` is ``None`` there).
        """
        return [r.stabilization_rounds for r in self.rows if r.stabilization_rounds is not None]

    @property
    def max_stabilization_rounds(self) -> int | None:
        """Worst rounds-to-reconverge across the batch (``None`` fault-free)."""
        rounds = self.stabilization_rounds()
        return max(rounds) if rounds else None

    @property
    def mean_stabilization_rounds(self) -> float | None:
        """Mean per-trial worst rounds-to-reconverge (``None`` fault-free)."""
        rounds = self.stabilization_rounds()
        return statistics.fmean(rounds) if rounds else None

    def describe(self) -> str:
        """One-line summary used by experiment tables."""
        mean = f"{self.mean_latency:.1f}" if self.mean_latency is not None else "-"
        worst = self.max_latency if self.max_latency is not None else "-"
        line = (
            f"{self.trials} trials: liveness {self.liveness_rate:.0%}, "
            f"agreement {self.agreement_rate:.0%}, mean latency {mean}, worst {worst}"
        )
        stabilization = self.max_stabilization_rounds
        if stabilization is not None:
            line += f", stabilization {stabilization}"
        return line


@dataclass(frozen=True)
class TrialSummary(TrialStatistics):
    """The statistics of a live batch, plus its full results.

    Attributes
    ----------
    results:
        The individual :class:`SimulationResult` objects, in seed order.
    seeds:
        The seeds that were run.
    """

    results: tuple[SimulationResult, ...]
    seeds: tuple[int, ...]

    @functools.cached_property
    def rows(self) -> tuple[ReducedTrial, ...]:
        """The results reduced to rows, once per summary."""
        return tuple(
            ReducedTrial.from_result(seed, result) for seed, result in zip(self.seeds, self.results)
        )


def _normalize_seeds(seeds: Sequence[int] | int) -> tuple[int, ...]:
    return tuple(range(seeds)) if isinstance(seeds, int) else tuple(seeds)


def _template_for(
    config: SimulationConfig, trace_level: Optional[TraceLevel], faults: Optional[FaultPlan]
) -> SimulationConfig:
    """``config`` with the batch-wide fault plan and trace level applied."""
    if faults is not None:
        config = replace(config, faults=faults)
    return config if trace_level is None else replace(config, trace_level=trace_level)


def _dispatch(
    template: SimulationConfig,
    seeds: tuple[int, ...],
    plan: ExecutionPlan,
    pool: Optional[ExecutionPool],
    reduce: bool,
) -> list:
    """Run one batch on the first path that applies; rows come back in seed order.

    1. The caller's live ``pool``.
    2. A parallel ``plan``: a temporary pool from :meth:`ExecutionPlan.pool`,
       shut down before returning.
    3. Otherwise in-process, through :func:`~repro.engine.pool.seed_rows` —
       the row code every worker runs on its chunk.
    """
    if pool is None:
        pool = plan.pool()
        if pool is not None:
            with pool:
                return _dispatch(template, seeds, plan, pool, reduce)
        return seed_rows(template, seeds, reduce, plan.batch)
    return pool.run_seeds(template, seeds, reduce=reduce, batch=plan.batch)


def run_trials(
    config: SimulationConfig,
    seeds: Sequence[int] | int = 10,
    *,
    trace_level: Optional[TraceLevel] = None,
    pool: Optional[ExecutionPool] = None,
    plan: Optional[ExecutionPlan] = None,
    faults: Optional[FaultPlan] = None,
) -> TrialSummary:
    """Run the same configuration across many seeds.

    A batch is one template and its seeds: every trial runs ``config`` with
    only its ``seed`` field replaced.  What differs between trials comes
    from the streams each trial derives from its own seed
    (:class:`~repro.engine.rng.RandomStreams`) — a jammer such as
    :class:`~repro.adversary.jammers.RandomJammer` draws from the trial's
    ``adversary`` stream, so it goes into the config as it is.

    Parameters
    ----------
    config:
        The base configuration (its ``seed`` field is replaced per trial).
    seeds:
        Either an explicit sequence of seeds or a count ``k`` meaning
        ``0 .. k−1``.
    trace_level:
        Optional override of the configuration's
        :class:`~repro.engine.observers.TraceLevel` for the whole batch
        (heavy sweeps typically want :attr:`TraceLevel.NONE`).
    pool:
        Optional persistent :class:`~repro.engine.pool.ExecutionPool`.  The
        batch is dispatched in chunks onto the pool's long-lived workers
        (shipping the shared template once per chunk), which callers with
        many batches — campaigns, search — reuse across calls.  A live pool
        is not serializable, so it stays a separate argument from the plan
        and wins dispatch when both are given.  Neither ``pool`` nor the
        plan ever changes results.
    plan:
        The :class:`~repro.engine.plan.ExecutionPlan` for the batch: worker
        count (``1`` = serial, ``>1`` = a temporary pool opened and shut
        down inside this call), optional pool chunk size, and whether
        the batch routes through the vectorized lockstep kernel
        (:mod:`repro.engine.batch`, transparent scalar fallback).  Every
        execution derives all randomness from its own seed and results come
        back in seed order, so no plan ever changes results.
    faults:
        Optional :class:`~repro.faults.plan.FaultPlan` applied to every trial
        (sugar for ``replace(config, faults=...)``); fault randomness derives
        from each trial's own seed, so the plan never breaks determinism.
    """
    seed_list = _normalize_seeds(seeds)
    template = _template_for(config, trace_level, faults)
    results = _dispatch(template, seed_list, plan or ExecutionPlan(), pool, reduce=False)
    return TrialSummary(results=tuple(results), seeds=seed_list)


def run_reduced_trials(
    config: SimulationConfig,
    seeds: Sequence[int] | int = 10,
    trace_level: Optional[TraceLevel] = TraceLevel.NONE,
    pool: Optional[ExecutionPool] = None,
    *,
    plan: Optional[ExecutionPlan] = None,
    faults: Optional[FaultPlan] = None,
) -> tuple[ReducedTrial, ...]:
    """Run a multi-seed batch, keeping only the persisted summary scalars.

    The summary-only sibling of :func:`run_trials` for callers that never
    touch full results — campaign cells persist these rows and search scores
    are computed from them, so shipping whole
    :class:`~repro.engine.results.SimulationResult` objects (metrics maps,
    property reports, traces) back from workers is pure overhead.  With a
    ``pool``, the reduction happens *inside the workers* and only
    :class:`~repro.engine.pool.ReducedTrial` rows cross the process boundary;
    serially, the same reduction runs in-process per trial, so memory stays
    flat either way and both paths produce identical rows.

    ``trace_level`` defaults to :attr:`TraceLevel.NONE` (summary consumers
    never read traces); pass ``None`` to keep the config's own level.
    ``pool`` and ``plan`` route execution exactly as in :func:`run_trials`
    — a parallel plan without a live ``pool`` runs on a temporary pool;
    ``plan.batch`` routes batchable templates through the vectorized
    lockstep kernel (scalar fallback otherwise) — identical rows on every
    path.  ``faults=`` applies a :class:`~repro.faults.plan.FaultPlan` to
    every trial, exactly as in :func:`run_trials`; the rows then carry
    ``stabilization_rounds``.
    """
    seed_list = _normalize_seeds(seeds)
    template = _template_for(config, trace_level, faults)
    return tuple(_dispatch(template, seed_list, plan or ExecutionPlan(), pool, reduce=True))
