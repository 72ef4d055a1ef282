"""The resumable campaign runner.

:class:`CampaignRunner` diffs a :class:`~repro.campaigns.spec.CampaignSpec`
against a :class:`~repro.campaigns.store.ResultStore` and executes only the
cells whose content-hashed keys are missing, checkpointing each completed
cell atomically.  Kill the process at any point and re-run: the campaign
resumes exactly where it stopped, and — because every execution derives all
randomness from its own seed — the resumed results are bit-identical to an
uninterrupted run.

One loop executes every run, cell by cell in grid order.  Serially each cell
runs in-process when the loop reaches it.  With a parallel plan (or an
explicit ``pool=``) *every pending cell's* trials are submitted up front to
one persistent :class:`~repro.engine.pool.ExecutionPool`: work is dispatched
in chunks (template-and-delta pickling), workers reduce each trial to the
scalars the store persists before anything crosses the process boundary, and
the loop commits each cell — atomically, exactly as in the serial path — as
soon as its rows are in.  The rows come through the pool's own retrying
drain, so a worker crash re-dispatches the outstanding chunks within the
pool's ``crash_retries`` instead of failing the run, and a run stopped early
cancels the chunks no worker has started.  One pool serves the whole run, and
survives across ``run`` invocations, so a grid of ten thousand small cells
pays pool spin-up once instead of ten thousand times.  None of this changes
results: the stored rows are bit-identical to a serial campaign's.
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
from repro.telemetry import Telemetry, as_telemetry
from repro.telemetry.events import (
    CampaignCompleted,
    CampaignStarted,
    CellCommitted,
    FaultInjected,
)

logger = logging.getLogger("repro.campaigns.runner")


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
    trace_level:
        Per-trial trace retention.  Campaign cells persist only summary
        scalars, so the default is :attr:`TraceLevel.NONE` — memory stays
        flat no matter how large the grid is (workers reduce trials to those
        scalars before returning them).
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
        ``plan.batch`` routes batchable cells through the vectorized
        lockstep kernel with transparent scalar fallback.  No plan ever
        changes the stored rows — they are bit-identical on every path.
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
        trace_level: TraceLevel = TraceLevel.NONE,
        pool: Optional[ExecutionPool] = None,
        telemetry: Optional[Telemetry] = None,
        plan: Optional[ExecutionPlan] = None,
    ) -> None:
        self._spec = spec
        self._store = store
        self._plan = plan or ExecutionPlan()
        self._trace_level = trace_level
        self._batch = self._plan.batch
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

    def pending_cells(self) -> list[CampaignCell]:
        """The spec's cells whose keys the store does not hold yet, in grid order."""
        completed = self._store.completed_keys()
        return [cell for cell in self._spec.cells() if cell.key not in completed]

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
            Optional cap on how many cells to execute in this invocation —
            the campaign can be completed incrementally across invocations.
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
        self._spec.validate_workloads()
        self._store.register_campaign(self._spec.name, self._spec.to_json())
        cells = self._spec.cells()
        pending = self.pending_cells()
        pending_keys = {cell.key for cell in pending}
        # Cells another campaign already completed are reused, but this
        # campaign must *claim* them so its own status/aggregates see them.
        self._store.add_cells_to_campaign(
            self._spec.name, [cell.key for cell in cells if cell.key not in pending_keys]
        )
        to_run = pending if max_cells is None else pending[:max_cells]
        reused = len(cells) - len(pending)
        self._metric_total.set(len(cells))
        self._metric_reused.inc(reused)
        started = time.perf_counter()
        if self._telemetry.enabled:
            logger.info(
                "campaign %s: %d cells total, %d pending, %d reused",
                self._spec.name, len(cells), len(pending), reused,
            )
            self._telemetry.emit(
                CampaignStarted(
                    campaign=self._spec.name,
                    total_cells=len(cells),
                    pending_cells=len(pending),
                    reused_cells=reused,
                    workers=self._pool.workers if self._pool is not None else 1,
                    batch=self._batch,
                )
            )

        def progress_after(executed: int) -> CampaignProgress:
            return CampaignProgress(
                total=len(cells),
                already_complete=len(cells) - len(pending),
                executed=executed,
                remaining=len(pending) - executed,
            )

        executed = 0
        rows = self._cell_rows(to_run)
        try:
            with self._telemetry.span("campaign.run", campaign=self._spec.name):
                for cell in to_run:
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

    # -- execution --------------------------------------------------------

    def _cell_template(self, cell: CampaignCell):
        return replace(cell.config(), trace_level=self._trace_level)

    def _cell_rows(
        self, to_run: Sequence[CampaignCell]
    ) -> Generator[Sequence[ReducedTrial], None, None]:
        """Each cell's reduced rows, in grid order.

        On a pool every cell's chunks are submitted up front and drained in
        grid order with the pool's crash retry
        (:meth:`~repro.engine.pool.ExecutionPool.iter_reduced`); otherwise
        each cell runs in-process when the loop reaches it.
        """
        pool = self._pool
        if pool is not None and to_run and not payload_is_picklable(
            self._cell_template(to_run[0])
        ):
            # An unpicklable grid (closure-built workload parts) cannot reach
            # the workers.  Run it in-process — one warning, and still one
            # atomic commit per cell as it finishes, so interrupt-resume keeps
            # working — instead of letting the pool's submission execute every
            # cell eagerly before the first commit.
            warn_serial_fallback(stacklevel=3, telemetry=self._telemetry)
            pool = None
        if pool is not None:
            return pool.iter_reduced(
                [(self._cell_template(cell), cell.seeds) for cell in to_run], batch=self._batch
            )
        return (
            run_reduced_trials(
                self._cell_template(cell),
                seeds=cell.seeds,
                trace_level=None,
                plan=self._plan.serial(),
            )
            for cell in to_run
        )

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
