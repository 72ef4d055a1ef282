"""The resumable campaign runner.

:class:`CampaignRunner` diffs a :class:`~repro.campaigns.spec.CampaignSpec`
against a :class:`~repro.campaigns.store.ResultStore` and executes only the
cells whose content-hashed keys are missing, checkpointing each completed
cell atomically.  Kill the process at any point and re-run: the campaign
resumes exactly where it stopped, and — because every execution derives all
randomness from its own seed — the resumed results are bit-identical to an
uninterrupted run.

With a parallel plan (or an explicit ``pool=``) the runner batches *every
pending cell's* trials onto one persistent
:class:`~repro.engine.pool.ExecutionPool`: work is dispatched in chunks
(template-and-delta pickling), workers reduce each trial to the scalars the
store persists before anything crosses the process boundary, and each cell is
committed — atomically, exactly as in the serial path — the moment its last
chunk completes.  One pool serves the whole run, and survives across ``run``
invocations, so a grid of ten thousand small cells pays pool spin-up once
instead of ten thousand times.  None of this changes results: the stored rows
are bit-identical to a serial campaign's.
"""

from __future__ import annotations

import logging
import time
from concurrent.futures import Future, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

from repro.campaigns.spec import CampaignCell, CampaignSpec
from repro.campaigns.store import ResultStore, TrialRecord
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
            help="per-cell latency from execution start (or pool submission) to commit",
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
            On the pooled path cells commit as their futures complete, so the
            callback order may differ from grid order; the stored content
            never does.

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

        with self._telemetry.span("campaign.run", campaign=self._spec.name):
            if self._pool is not None and len(to_run) > 1:
                if payload_is_picklable(self._cell_template(to_run[0])):
                    executed = self._run_batched(to_run, progress_after, on_cell)
                else:
                    # An unpicklable grid (closure-built workload parts) cannot
                    # reach the workers.  Degrade to the fully serial path — one
                    # warning, and crucially still one atomic commit per cell as
                    # it finishes, so interrupt-resume keeps working — instead of
                    # letting the batched submission loop execute everything
                    # eagerly in-process with every commit deferred to the end.
                    warn_serial_fallback(stacklevel=2, telemetry=self._telemetry)
                    executed = self._run_serial(to_run, progress_after, on_cell, pool=None)
            else:
                executed = self._run_serial(to_run, progress_after, on_cell, pool=self._pool)

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

    # -- execution paths --------------------------------------------------

    def _cell_template(self, cell: CampaignCell):
        return replace(cell.config(), trace_level=self._trace_level)

    def _commit_cell(self, cell: CampaignCell, reduced: Sequence[ReducedTrial]) -> None:
        records = [TrialRecord.from_reduced(trial) for trial in reduced]
        self._store.record_cell(self._spec.name, cell.key, cell.describe_dict(), records)
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

    def _run_serial(
        self,
        to_run: Sequence[CampaignCell],
        progress_after: Callable[[int], CampaignProgress],
        on_cell: Optional[Callable[[CampaignCell, CampaignProgress], None]],
        pool: Optional[ExecutionPool] = None,
    ) -> int:
        """One cell at a time, in grid order (also the single-cell pool path)."""
        executed = 0
        for cell in to_run:
            cell_started = time.perf_counter()
            with self._telemetry.span("campaign.cell", cell=cell.key):
                with self._telemetry.span("campaign.execute"):
                    reduced = run_reduced_trials(
                        self._cell_template(cell),
                        seeds=cell.seeds,
                        trace_level=None,
                        pool=pool,
                        plan=self._plan.serial(),
                    )
                with self._telemetry.span("campaign.commit"):
                    self._commit_cell(cell, reduced)
            self._observe_commit(cell, reduced, time.perf_counter() - cell_started)
            executed += 1
            if on_cell is not None:
                on_cell(cell, progress_after(executed))
        return executed

    def _run_batched(
        self,
        to_run: Sequence[CampaignCell],
        progress_after: Callable[[int], CampaignProgress],
        on_cell: Optional[Callable[[CampaignCell, CampaignProgress], None]],
    ) -> int:
        """Every cell's chunks on one pool; commit cells as they complete.

        All pending cells are submitted up front — with in-worker reduction a
        chunk's in-flight result is a handful of scalars, so the window costs
        O(cells) tiny futures, not O(trials) simulation results.  Chunks
        finish in whatever order the workers produce them, but cells *commit*
        in grid order (a cell commits the moment it and every cell before it
        are done): the store's atomic per-cell transactions, its documented
        insertion order, and the prefix an interrupt leaves behind are all
        exactly the serial path's, byte for byte.  A worker crash surfaces as
        :class:`~repro.engine.pool.WorkerCrashError` after the pool has reset
        itself, so re-running the campaign resumes cleanly on fresh workers.
        """
        assert self._pool is not None
        chunk_owner: dict[Future, tuple[int, int]] = {}
        outstanding: list[int] = []
        chunk_results: list[dict[int, list[ReducedTrial]]] = []
        submitted_at: list[float] = []
        with self._telemetry.span("campaign.dispatch", cells=len(to_run)):
            for cell_index, cell in enumerate(to_run):
                submitted_at.append(time.perf_counter())
                futures = self._pool.submit_seed_chunks(
                    self._cell_template(cell), cell.seeds, reduce=True, batch=self._batch
                )
                outstanding.append(len(futures))
                chunk_results.append({})
                for position, future in enumerate(futures):
                    chunk_owner[future] = (cell_index, position)

        executed = 0
        for future in as_completed(chunk_owner):
            cell_index, position = chunk_owner[future]
            try:
                # ingest() merges the chunk's worker stats delta into the
                # registry and hands back the plain reduced rows.
                chunk = self._pool.ingest(future.result())
            except BrokenProcessPool as error:
                raise self._pool.recover(error) from error
            chunk_results[cell_index][position] = chunk
            outstanding[cell_index] -= 1
            # Commit every ready cell at the head of the grid order.
            while executed < len(to_run) and outstanding[executed] == 0:
                by_position = chunk_results[executed]
                reduced = [
                    trial for pos in sorted(by_position) for trial in by_position[pos]
                ]
                cell = to_run[executed]
                with self._telemetry.span("campaign.commit", cell=cell.key):
                    self._commit_cell(cell, reduced)
                # Pooled cell latency: pool submission to atomic commit.
                self._observe_commit(
                    cell, reduced, time.perf_counter() - submitted_at[executed]
                )
                chunk_results[executed] = {}
                outstanding[executed] = -1  # committed
                executed += 1
                if on_cell is not None:
                    on_cell(cell, progress_after(executed))
        return executed
