"""The resumable campaign runner.

:class:`CampaignRunner` diffs a :class:`~repro.campaigns.spec.CampaignSpec`
against a :class:`~repro.campaigns.store.ResultStore` and executes only the
cells whose content-hashed keys are missing, checkpointing each completed
cell atomically.  Kill the process at any point and re-run: the campaign
resumes exactly where it stopped, and — because every execution derives all
randomness from its own seed — the resumed results are bit-identical to an
uninterrupted run.

:func:`run_missing` is that diff-and-execute step, and the strategy search
runs each generation through it too.  Serially each missing item runs
in-process when its rows are requested.  With a parallel plan (or an
explicit ``pool=``) *every missing item's* trials are submitted up front to
one persistent :class:`~repro.engine.pool.ExecutionPool`: work is dispatched
in chunks (template-and-delta pickling), workers reduce each trial to the
scalars the store persists before anything crosses the process boundary, and
the caller commits each item — atomically, exactly as in the serial path — as
soon as its rows are in.  The rows come through the pool's own retrying drain, so a
worker crash re-dispatches the outstanding chunks within the pool's
``crash_retries`` instead of failing the run, and a run stopped early
cancels the chunks no worker has started.  One pool serves the whole run, and
survives across ``run`` invocations, so a grid of ten thousand small cells
pays pool spin-up once instead of ten thousand times.  Every cell's seeds run
on the engine :func:`~repro.engine.pool.seed_rows` picks, serially or in
each worker chunk: the lockstep kernel for a batchable cell with enough
seeds, the scalar loop otherwise.  None of this changes results: the stored
rows are bit-identical to a serial campaign's.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, replace
from typing import Callable, Generator, Optional, Sequence

from repro.campaigns.spec import CampaignCell, CampaignSpec
from repro.campaigns.store import ResultStore
from repro.engine.observers import TraceLevel
from repro.engine.plan import ExecutionPlan
from repro.engine.pool import (
    ExecutionPool,
    ReducedTrial,
    payload_is_picklable,
    warn_serial_fallback,
)
from repro.engine.runner import run_reduced_trials
from repro.engine.simulator import SimulationConfig
from repro.exceptions import ConfigurationError
from repro.telemetry import Telemetry, as_telemetry
from repro.telemetry.events import (
    CampaignCompleted,
    CampaignStarted,
    CellCommitted,
    FaultInjected,
)

logger = logging.getLogger("repro.campaigns.runner")


def check_run_cap(cap: Optional[int], name: str) -> None:
    """Refuse a per-invocation work cap below 1 (``None`` means no cap).

    Shared by both runners' ``run`` (before they write anything) and the CLI.
    """
    if cap is not None and cap < 1:
        raise ConfigurationError(f"{name} must be at least 1, got {cap}")


def run_missing(
    store: ResultStore,
    campaign: str,
    keys: Sequence[str],
    job: Callable[[int], tuple[SimulationConfig, Sequence[int]]],
    *,
    limit: Optional[int],
    pool: Optional[ExecutionPool],
    plan: ExecutionPlan,
    telemetry: Telemetry,
) -> tuple[set[str], list[int], Generator[Sequence[ReducedTrial], None, None]]:
    """One batch of the store-backed cycle: look up, claim, start what is missing.

    Claims for ``campaign``, in one call, every key the store already holds
    (one indexed lookup per distinct key), so reused work shows in its
    status and exports.  Runs the first occurrence of each missing key, at
    most ``limit`` of them, as ``job(index)``'s ``(template, seeds)`` at
    :attr:`TraceLevel.NONE`.  Returns the stored keys, the input indices
    that run, and a generator of their rows in that order.  The caller
    records each item as its rows arrive and closes the generator when
    done; closing it early cancels the chunks no worker has started.
    """
    stored = [key for key in dict.fromkeys(keys) if store.has_cell(key)]
    if stored:
        store.add_cells_to_campaign(campaign, stored)
    held = set(stored)
    first: dict[str, int] = {}
    for index, key in enumerate(keys):
        if key not in held:
            first.setdefault(key, index)
    to_run = list(first.values())[:limit]
    jobs = [
        (replace(template, trace_level=TraceLevel.NONE), seeds)
        for template, seeds in map(job, to_run)
    ]
    if pool is not None and jobs and not payload_is_picklable(jobs[0][0]):
        # Closure-built workload parts cannot reach the workers.  Run them
        # in-process, so each item still commits before the next runs,
        # instead of letting the pool's submission run them all up front.
        warn_serial_fallback(stacklevel=3, telemetry=telemetry)
        pool = None
    rows: Generator[Sequence[ReducedTrial], None, None]
    if pool is not None:
        rows = pool.iter_reduced(jobs)
    else:
        rows = (
            run_reduced_trials(template, seeds=seeds, trace_level=None, plan=plan.serial())
            for template, seeds in jobs
        )
    return held, to_run, rows


@dataclass(frozen=True)
class CampaignProgress:
    """The outcome of one :meth:`CampaignRunner.run` invocation.

    Attributes
    ----------
    total:
        Number of cells in the spec's grid.
    already_complete:
        Cells the store already held when the run started (skipped).
    executed:
        Cells this invocation ran and recorded.
    remaining:
        Cells still missing after this invocation (non-zero only when the run
        was capped with ``max_cells``).
    """

    total: int
    already_complete: int
    executed: int
    remaining: int

    @property
    def complete(self) -> bool:
        """True once the store holds every cell of the spec."""
        return self.remaining == 0

    def describe(self) -> str:
        """One-line progress summary for logs and the CLI."""
        done = self.already_complete + self.executed
        return (
            f"{done}/{self.total} cells complete "
            f"({self.executed} executed now, {self.already_complete} reused, "
            f"{self.remaining} remaining)"
        )


class CampaignRunner:
    """Executes the missing cells of a campaign spec against a store.

    Parameters
    ----------
    spec:
        The declarative grid to complete.
    store:
        The persistent store holding completed cells.
    pool:
        Optional externally owned :class:`~repro.engine.pool.ExecutionPool`
        to share with other subsystems (e.g. one pool across several
        campaigns and a search); overrides the plan's worker count for
        dispatch.  The runner never shuts down a pool it was handed.
    plan:
        The :class:`~repro.engine.plan.ExecutionPlan` for the campaign.  A
        parallel plan makes the runner hold one persistent
        :class:`~repro.engine.pool.ExecutionPool` for its whole lifetime
        (all ``run`` invocations included) and batch every pending cell onto
        it with the plan's chunk size; a serial plan executes in-process.
        No plan ever changes the stored rows — they are bit-identical on
        every path.
    telemetry:
        Optional :class:`~repro.telemetry.Telemetry` handle.  A live handle
        gets campaign lifecycle events, per-cell
        :class:`~repro.telemetry.events.CellCommitted` events, cell-commit
        latency histograms, resume-skip counters, an end-of-run cells/second
        gauge, and — when the runner owns its pool — the pool's dispatch
        instrumentation too.  Telemetry never changes the stored rows:
        campaign stores are byte-identical with it on or off.

    Use as a context manager (or call :meth:`close`) to reclaim the runner's
    own workers deterministically.
    """

    def __init__(
        self,
        spec: CampaignSpec,
        store: ResultStore,
        *,
        pool: Optional[ExecutionPool] = None,
        telemetry: Optional[Telemetry] = None,
        plan: Optional[ExecutionPlan] = None,
    ) -> None:
        self._spec = spec
        self._store = store
        self._plan = plan or ExecutionPlan()
        self._telemetry = as_telemetry(telemetry)
        self._owns_pool = pool is None and self._plan.parallel
        self._pool = self._plan.pool(telemetry=self._telemetry) if self._owns_pool else pool
        self._metric_cells = self._telemetry.counter(
            "campaign.cells_committed", help="cells executed and committed to the store"
        )
        self._metric_trials = self._telemetry.counter(
            "campaign.trials_recorded", help="trial rows committed across all cells"
        )
        self._metric_reused = self._telemetry.counter(
            "campaign.cells_reused", help="cells skipped on resume (already stored)"
        )
        self._metric_commit_latency = self._telemetry.histogram(
            "campaign.cell_commit_seconds",
            help="per-cell latency from the loop reaching the cell to its commit",
        )
        self._metric_rate = self._telemetry.gauge(
            "campaign.cells_per_second", help="executed cells per second, last run() invocation"
        )
        self._metric_total = self._telemetry.gauge(
            "campaign.cells_total",
            help="cells in the campaign grid (the live monitor's progress denominator)",
        )

    @property
    def spec(self) -> CampaignSpec:
        """The spec this runner completes."""
        return self._spec

    @property
    def plan(self) -> ExecutionPlan:
        """The execution plan this runner follows."""
        return self._plan

    @property
    def pool(self) -> Optional[ExecutionPool]:
        """The execution pool batched runs dispatch on (None = serial)."""
        return self._pool

    def close(self) -> None:
        """Shut down the runner's own pool (a shared ``pool=`` is left alone)."""
        if self._owns_pool and self._pool is not None:
            self._pool.shutdown()

    def __enter__(self) -> "CampaignRunner":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def status(self) -> CampaignProgress:
        """Current completion state without executing anything."""
        cells = self._spec.cells()
        completed = self._store.completed_keys()
        done = sum(1 for cell in cells if cell.key in completed)
        return CampaignProgress(
            total=len(cells),
            already_complete=done,
            executed=0,
            remaining=len(cells) - done,
        )

    def run(
        self,
        max_cells: Optional[int] = None,
        on_cell: Optional[Callable[[CampaignCell, CampaignProgress], None]] = None,
    ) -> CampaignProgress:
        """Execute the missing cells (up to ``max_cells``), checkpointing each.

        Parameters
        ----------
        max_cells:
            Optional cap, at least 1, on how many cells to execute in this
            invocation — the campaign can be completed incrementally across
            invocations.  Cells the store already holds are free.
        on_cell:
            Optional callback invoked after each cell commits, with the cell
            and the progress so far (used by the CLI for live status lines).
            Cells commit and callbacks fire in grid order on every path.  A
            callback that raises stops the run after that cell's commit; on
            a pool, the later cells' chunks that no worker has started are
            cancelled.

        Returns
        -------
        CampaignProgress
            What happened: reused vs executed vs still remaining.
        """
        check_run_cap(max_cells, "max_cells")
        self._spec.validate_workloads()
        self._store.register_campaign(self._spec.name, self._spec.to_json())
        cells = self._spec.cells()
        stored, to_run, rows = run_missing(
            self._store, self._spec.name, [cell.key for cell in cells],
            lambda index: (cells[index].config(), cells[index].seeds),
            limit=max_cells, pool=self._pool, plan=self._plan, telemetry=self._telemetry,
        )
        pending = sum(1 for cell in cells if cell.key not in stored)
        reused = len(cells) - pending
        self._metric_total.set(len(cells))
        self._metric_reused.inc(reused)
        started = time.perf_counter()
        if self._telemetry.enabled:
            logger.info(
                "campaign %s: %d cells total, %d pending, %d reused",
                self._spec.name, len(cells), pending, reused,
            )
            self._telemetry.emit(
                CampaignStarted(
                    campaign=self._spec.name,
                    total_cells=len(cells),
                    pending_cells=pending,
                    reused_cells=reused,
                    workers=self._pool.workers if self._pool is not None else 1,
                )
            )

        def progress_after(executed: int) -> CampaignProgress:
            return CampaignProgress(
                total=len(cells),
                already_complete=reused,
                executed=executed,
                remaining=pending - executed,
            )

        executed = 0
        try:
            with self._telemetry.span("campaign.run", campaign=self._spec.name):
                for index in to_run:
                    cell = cells[index]
                    cell_started = time.perf_counter()
                    with self._telemetry.span("campaign.cell", cell=cell.key):
                        with self._telemetry.span("campaign.execute"):
                            reduced = next(rows)
                        with self._telemetry.span("campaign.commit"):
                            self._commit_cell(cell, reduced)
                    self._observe_commit(cell, reduced, time.perf_counter() - cell_started)
                    executed += 1
                    if on_cell is not None:
                        on_cell(cell, progress_after(executed))
        finally:
            # A run stopped early (an on_cell that raises) cancels the
            # chunks of later cells no worker has started.
            rows.close()

        seconds = time.perf_counter() - started
        rate = executed / seconds if seconds > 0 else 0.0
        self._metric_rate.set(rate)
        progress = progress_after(executed)
        if self._telemetry.enabled:
            self._telemetry.emit(
                CampaignCompleted(
                    campaign=self._spec.name,
                    executed=executed,
                    reused=reused,
                    remaining=progress.remaining,
                    seconds=seconds,
                    cells_per_second=rate,
                )
            )
        return progress

    # -- recording --------------------------------------------------------

    def _commit_cell(self, cell: CampaignCell, reduced: Sequence[ReducedTrial]) -> None:
        self._store.record_cell(self._spec.name, cell.key, cell.describe_dict(), reduced)
        if self._telemetry.enabled and cell.faults is not None:
            # Reduced rows carry only the per-trial worst recovery, so the
            # event stream gets one FaultInjected per fault-injected trial
            # (round_index None) on both the serial and pooled paths.
            for trial in reduced:
                self._telemetry.emit(
                    FaultInjected(seed=trial.seed, recovery_rounds=trial.stabilization_rounds)
                )

    def _observe_commit(
        self, cell: CampaignCell, reduced: Sequence[ReducedTrial], seconds: float
    ) -> None:
        """Record one committed cell: counters, commit-latency histogram, event."""
        self._metric_cells.inc()
        self._metric_trials.inc(len(reduced))
        self._metric_commit_latency.observe(seconds)
        if self._telemetry.enabled:
            self._telemetry.emit(
                CellCommitted(
                    campaign=self._spec.name,
                    cell_key=cell.key,
                    trials=len(reduced),
                    seconds=seconds,
                )
            )
