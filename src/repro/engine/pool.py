"""Where a multi-seed batch executes, and the persistent execution pool.

A batch is one :class:`~repro.engine.simulator.SimulationConfig` template and
its seeds.  All randomness in an execution derives from its seed, so
executions are embarrassingly parallel and a parallel batch is bit-for-bit the
same batch as a serial one, just faster.
:func:`~repro.engine.runner.run_trials` and
:func:`~repro.engine.runner.run_reduced_trials` run every batch on the first
of three paths that applies:

* **pooled** (``pool=`` an :class:`ExecutionPool`) — the batch is dispatched
  in chunks onto a persistent worker pool the caller reuses across many
  batches.  Campaign runners and adversarial search hold one pool for their
  whole session, so a sweep of small cells pays spin-up once, not per cell.
  Both go through one store-backed cycle
  (:func:`~repro.campaigns.runner.run_missing`): a campaign submits all its
  missing cells, and a search each generation's missing candidates, at once
  through :meth:`ExecutionPool.iter_reduced`, and takes the rows back in
  order.
* **temporary pool** (a parallel :class:`~repro.engine.plan.ExecutionPlan`
  and no ``pool=``) — the same dispatch on a pool opened for this one batch
  and shut down before the call returns: nothing persists, nothing leaks.
* **in-process** (a serial plan) — :func:`seed_rows`, the very row code each
  worker runs on its chunk.

Every path picks the engine the same way, per segment (one template and
some of its seeds, as :func:`seed_rows` and each worker chunk see it): a
segment of ``_KERNEL_FLOOR`` or more seeds whose template is batchable
(:func:`repro.engine.batch.batchable`: trace-free, no fault plan, a
Trapdoor-family protocol) runs on the vectorized lockstep kernel
(:mod:`repro.engine.batch`), which advances all its seeds through the round
loop as numpy array ops; any other segment runs on the scalar loop.  Nothing
asks for an engine.  Results are bit-identical on every path (the
golden-equivalence suite pins this).

:class:`ExecutionPool` removes the orchestration tax three ways:

* **persistent workers** — the process pool is started lazily on first use and
  reused across every subsequent call (and across
  :meth:`~repro.campaigns.runner.CampaignRunner.run` invocations, search
  generations, …) until :meth:`ExecutionPool.shutdown`;
* **chunked template-and-delta dispatch** — a chunk ships each template it
  covers *once* plus that template's seeds, instead of one fully pickled
  config per trial.  A dispatch group (one batch for :meth:`run_seeds`, a
  campaign's missing cells or a search generation's missing candidates for
  :meth:`iter_reduced`) goes through one chunker: each batch is cut into
  about four chunks per worker (a batch bound for the kernel into chunks of
  at least ``_KERNEL_FLOOR`` seeds), and runs of small batches are split
  together, in order and across batch boundaries, into even chunks of up to
  four seeds whose count the workers share evenly, so a service job pays a
  few executor round trips, not one per seed.  A worker runs one entry
  point over a chunk's segments (one template and some of its seeds each);
* **in-worker reduction** — when the caller only persists summary scalars
  (campaign stores, search scores), workers reduce each trial to a compact
  :class:`ReducedTrial` row and the full :class:`SimulationResult` never
  crosses the process boundary, keeping parent memory flat.

Every dispatch drains its futures through one generator, in chunk order.  A
crashed worker (a hard ``os._exit``, an OOM kill) breaks the underlying
executor.  The pool discards it and re-dispatches every outstanding chunk of
the dispatch on fresh workers up to ``crash_retries`` times before surfacing
:class:`WorkerCrashError`; either way the *next* call starts fresh workers, so
a long campaign driver can catch, log, and resume without rebuilding its own
state.  A drain closed early cancels the chunks no worker has started.
Configurations must be picklable to cross the process boundary (every
built-in protocol factory, activation schedule, and adversary is); the batch
is probed before anything is submitted, and unpicklable work — typically a
closure factory in a test — runs in-process with a warning, so a genuine
worker exception is never misread as a pickling problem.

Telemetry sits at the orchestration boundaries of these paths, never inside
them: a live :class:`~repro.telemetry.Telemetry` handle on a pool counts each
chunk at dispatch (``chunk-dispatched`` events, the in-flight gauge,
chunk and trial counters), campaign runners open spans around the phases that
*surround* execution (``campaign.run`` > ``campaign.cell`` >
``campaign.execute`` / ``campaign.commit``; on a pool ``campaign.execute`` is
the wait for the cell's rows), and the search wraps the wait for each live
candidate's rows in ``search.evaluate``.  Workers send back only a plain
:class:`~repro.telemetry.metrics.WorkerStatsDelta` per chunk, and no span or
instrument call is ever made per simulated round — the round loops in
:mod:`repro.engine.simulator` / :mod:`repro.engine.batch` are untouched
(``benchmarks/test_telemetry_overhead.py`` pins that boundary statically).
"""

from __future__ import annotations

import itertools
import logging
import os
import pickle
import signal
import time
import warnings
import weakref
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Container, Generator, Optional, Sequence

from repro.engine.plan import is_strict_int
from repro.engine.results import SimulationResult
from repro.exceptions import ConfigurationError, SimulationError
from repro.telemetry import Telemetry, as_telemetry
from repro.telemetry.events import (
    ChunkDispatched,
    ChunkRetried,
    SerialFallback,
    WorkerCrashRecovered,
)
from repro.telemetry.metrics import WorkerStatsDelta

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.engine.simulator import SimulationConfig

logger = logging.getLogger("repro.engine.pool")

#: Seeds that make a chunk worth its dispatch (:meth:`ExecutionPool._cut`):
#: a batch whose automatic pieces would hold fewer is split together with
#: its small neighbours, into chunks of at most this many seeds.  Each
#: chunk pays a round trip through the executor's call queue, feeder and
#: result-manager threads and wakes a worker.  With one chunk per seed, a
#: 4-cell × 2-seed service campaign job spent ≈2.4 ms of parent CPU per job
#: in those two threads alone (≈0.3 ms a chunk) and preempted its two
#: workers 15–17 times, against 1–2 ms per trial (2-core host, Python
#: 3.11.7).  Four seeds per chunk make the round
#: trip a small share of the chunk's work, and a 1,000-cell × 2-seed
#: campaign still commits every 2 cells.
_MERGE_FLOOR = 4

#: Seeds from which a segment of a batchable template runs on the lockstep
#: kernel instead of the scalar loop (:func:`seed_rows`), and below which the
#: automatic chunker never cuts such a batch (:meth:`ExecutionPool._cut`).
#: The kernel pays fixed numpy costs per lockstep step that a few trials
#: cannot share.  Scalar time ÷ kernel time of one ``seed_rows(...,
#: reduce=True)`` call, per batchable protocol × simple workload at (8, 3,
#: 64) with 8 nodes (35 cells, median of 3 interleaved runs, two passes,
#: 2-core host, Python 3.11.7, numpy 2.4.6): at 8 seeds the kernel was
#: slower in 1 and 3 cells (0.83–3.64×); at 10 it was even at worst
#: (1.008–4.26×); at 12 it won every cell (1.04–5.30×), and at 16 by more
#: (1.25–5.71×).  ``batch_sweep``'s ``batch_equals_scalar`` check needs its
#: 8-seed call on the scalar loop and CI's 16-trial identity runs need the
#: kernel, so the floor must lie in 9..16.
_KERNEL_FLOOR = 12


class WorkerCrashError(SimulationError):
    """A worker process died mid-batch (not a Python exception — a crash).

    The pool that raised this has already discarded its broken executor; the
    next call on the same pool starts fresh workers.  Because executions are
    deterministic per seed, re-submitting the failed work is always safe.
    """


@dataclass(frozen=True, slots=True)
class ReducedTrial:
    """One execution reduced to the scalars the campaign store persists.

    The one per-trial row type: workers return these instead of full
    :class:`~repro.engine.results.SimulationResult` objects when the caller
    asked for summaries only (so a million-trial campaign ships back a few
    scalars per trial rather than metrics/report object graphs), the campaign
    store writes and reads them back (its ``TrialRecord`` is this class),
    search scores them, and :class:`~repro.engine.runner.TrialStatistics`
    computes every batch statistic from them.
    """

    seed: int
    synchronized: bool
    agreement: bool
    safety: bool
    leader_count: int
    max_sync_latency: Optional[int]
    rounds_simulated: int
    stabilization_rounds: Optional[int] = None

    @classmethod
    def from_result(cls, seed: int, result: SimulationResult) -> "ReducedTrial":
        """Extract the persisted scalars from a finished execution."""
        return cls(
            seed=seed,
            synchronized=result.synchronized,
            agreement=result.agreement_holds,
            safety=result.report.all_safety_holds,
            leader_count=result.leader_count,
            max_sync_latency=result.max_sync_latency,
            rounds_simulated=result.metrics.rounds_simulated,
            stabilization_rounds=result.stabilization_rounds,
        )

    @classmethod
    def from_reduced(cls, reduced: "ReducedTrial") -> "ReducedTrial":
        """Return ``reduced`` unchanged.

        A leftover of the time the store had its own row type that reduced
        rows were converted to: ``perfbench/workloads.py`` still calls
        ``TrialRecord.from_reduced(row)``.  Remove this together with that
        call.
        """
        return reduced


def simulate_one(template: "SimulationConfig", seed: int) -> SimulationResult:
    """Run one seed of a template in-process — the unit every path executes.

    :func:`seed_rows` and the scalar fallback of the batch kernel call exactly
    this, which is what keeps seed substitution identical no matter where a
    trial runs.
    """
    from repro.engine.simulator import simulate

    return simulate(replace(template, seed=seed))


def seed_rows(template: "SimulationConfig", seeds: Sequence[int], reduce: bool) -> list:
    """Run one template's seeds in this process and return the rows in seed order.

    The one row-producing code path: a worker runs it on each segment of its
    chunk, and the serial runners run it on the whole batch.  It picks the
    engine: ``_KERNEL_FLOOR`` or more seeds go to the vectorized lockstep
    kernel (:mod:`repro.engine.batch`), which runs a non-batchable template
    on the scalar loop itself; fewer run on the scalar loop here.  With
    ``reduce=True`` each trial is reduced to a :class:`ReducedTrial` as it
    finishes, so memory stays flat.
    """
    if len(seeds) >= _KERNEL_FLOOR:
        from repro.engine.batch import run_batch, run_reduced_batch

        return run_reduced_batch(template, seeds) if reduce else run_batch(template, seeds)
    if reduce:
        return [ReducedTrial.from_result(seed, simulate_one(template, seed)) for seed in seeds]
    return [simulate_one(template, seed) for seed in seeds]


@dataclass(frozen=True, slots=True)
class ChunkResult:
    """One chunk's rows plus the worker's plain-data stats delta.

    This is everything a worker sends back: the results themselves and a
    picklable :class:`~repro.telemetry.metrics.WorkerStatsDelta` — never a
    telemetry handle, lock, or file descriptor.  The parent unwraps it via
    :meth:`ExecutionPool.ingest`, which merges the delta into the live
    registry (if any) and returns the bare rows, so every downstream consumer
    still sees plain result lists.
    """

    rows: tuple
    stats: WorkerStatsDelta


#: First-work timestamp per process id.  Keyed by pid because forked workers
#: inherit the parent's copy of this dict: re-keying under ``os.getpid()``
#: makes each worker measure its *own* uptime (since its first executed
#: chunk), not the parent's.
_WORKER_EPOCH: dict[int, float] = {}


def _worker_identity() -> tuple[int, float]:
    """This process's pid and its uptime since it first executed work."""
    pid = os.getpid()
    now = time.monotonic()
    return pid, now - _WORKER_EPOCH.setdefault(pid, now)


def _chunk_stats(rows: Sequence, batch_trials: int, seconds: float) -> WorkerStatsDelta:
    """The stats delta one finished chunk contributes (runs in the worker)."""
    rounds = 0
    for row in rows:
        if isinstance(row, ReducedTrial):
            rounds += row.rounds_simulated
        else:
            rounds += row.metrics.rounds_simulated
    pid, uptime = _worker_identity()
    return WorkerStatsDelta.for_chunk(
        pid=pid,
        uptime_s=uptime,
        trials=len(rows),
        rounds=rounds,
        batch_trials=batch_trials,
        seconds=seconds,
    )


def _run_chunk(
    segments: Sequence[tuple["SimulationConfig", tuple[int, ...]]], reduce: bool
) -> ChunkResult:
    """Worker entry point: :func:`seed_rows` on each segment of one chunk, plus its stats.

    A segment is one template and some of its seeds; a chunk holds one
    segment or, when small batches were split together, several in group
    order.  The rows come back flat, segment after segment, and the stats
    count each segment's trials as batch or scalar by the engine
    :func:`seed_rows` ran it on.
    """
    started = time.perf_counter()
    rows: list = []
    for template, seeds in segments:
        rows += seed_rows(template, seeds, reduce)
    seconds = time.perf_counter() - started
    batch_trials = 0
    if any(len(seeds) >= _KERNEL_FLOOR for _template, seeds in segments):
        from repro.engine.batch import batchable

        batch_trials = sum(
            len(seeds)
            for template, seeds in segments
            if len(seeds) >= _KERNEL_FLOOR and batchable(template)
        )
    return ChunkResult(rows=tuple(rows), stats=_chunk_stats(rows, batch_trials, seconds))


def payload_is_picklable(payload: object) -> bool:
    """Whether a work payload can cross the process boundary at all."""
    try:
        pickle.dumps(payload)
    except Exception:  # noqa: BLE001 - any pickling failure means no IPC
        return False
    return True


def warn_serial_fallback(
    detail: Optional[str] = None,
    stacklevel: int = 3,
    telemetry: Optional[Telemetry] = None,
) -> None:
    """The one shared unpicklable-work degrade-to-serial notification.

    Every fallback site routes through here, which lands the degradation in
    three places at once: the ``repro.engine.pool`` stdlib logger (so
    long-running services see it in their logs, not just on a stderr that a
    ``warnings`` filter shows once per process), the classic
    :class:`RuntimeWarning` (so tests and interactive use keep their existing
    contract), and — when a live telemetry handle is passed — a
    :class:`~repro.telemetry.events.SerialFallback` event plus the
    ``pool.serial_fallbacks`` counter.
    """
    message = "simulation config is not picklable"
    if detail:
        message += f" ({detail})"
    message += "; running trials serially instead of with worker processes"
    logger.warning(message)
    warnings.warn(message, RuntimeWarning, stacklevel=stacklevel)
    if telemetry is not None and telemetry.enabled:
        telemetry.counter(
            "pool.serial_fallbacks", help="unpicklable batches degraded to serial"
        ).inc()
        telemetry.emit(SerialFallback(detail=detail))


def _completed_future(value: ChunkResult) -> "Future[ChunkResult]":
    future: "Future[ChunkResult]" = Future()
    future.set_result(value)
    return future


def _succeeded(future: "Future[ChunkResult]") -> bool:
    return future.done() and not future.cancelled() and future.exception() is None


@dataclass(slots=True)
class _ChunkPayload:
    """What the pool needs to re-dispatch one chunk after a worker crash."""

    args: tuple
    attempt: int = 0


class ExecutionPool:
    """A reusable worker pool for multi-trial simulation batches.

    Parameters
    ----------
    workers:
        Worker processes to keep alive (at least 1).
    chunk_size:
        Seeds per dispatched chunk, exactly: an explicit size cuts every
        batch on its own and never merges chunks.  ``None`` cuts each batch
        into roughly ``4 × workers`` chunks — large enough to amortize the
        template pickle, small enough to keep every worker busy — except
        that a batch bound for the lockstep kernel keeps at least
        ``_KERNEL_FLOOR`` seeds a chunk, and runs of small batches are split
        together, across batch boundaries, into even chunks of up to four
        seeds (see :meth:`_cut`).
    crash_retries:
        How many times a chunk is re-dispatched on fresh workers after its
        executor broke — at submission, or mid-batch in :meth:`run_seeds` or
        :meth:`iter_reduced` — before the :class:`WorkerCrashError`
        propagates (deterministic seeds make the re-run byte-identical).
        ``0`` restores fail-fast.
    telemetry:
        Optional :class:`~repro.telemetry.Telemetry` handle.  A live handle
        counts dispatched chunks and trials, tracks the in-flight chunk
        queue depth, records worker restarts and fallbacks, and emits
        :class:`~repro.telemetry.events.ChunkDispatched` events.  ``None``
        resolves to the shared disabled handle: every
        instrument is a no-op singleton and dispatch costs nothing extra.
        The handle lives in the submitting process only — a worker never
        receives a telemetry object; it ships back a plain
        :class:`~repro.telemetry.metrics.WorkerStatsDelta` on each chunk,
        which :meth:`ingest` merges into the live registry (``worker.*``
        counters and the per-chunk simulate-seconds histogram).

    The underlying executor starts lazily on first use, so constructing a pool
    costs nothing, and a pool whose work was all served from a cache never
    forks at all.  Use as a context manager (or call :meth:`shutdown`) to
    reclaim the workers deterministically.
    """

    def __init__(
        self,
        workers: int,
        chunk_size: Optional[int] = None,
        telemetry: Optional[Telemetry] = None,
        crash_retries: int = 2,
    ) -> None:
        if not is_strict_int(workers) or workers < 1:
            raise ConfigurationError(
                f"an execution pool needs an integer >= 1 of workers, got {workers!r}"
            )
        if chunk_size is not None and (not is_strict_int(chunk_size) or chunk_size < 1):
            raise ConfigurationError(f"chunk_size must be a positive integer, got {chunk_size!r}")
        if not is_strict_int(crash_retries) or crash_retries < 0:
            raise ConfigurationError(f"crash_retries must be an integer >= 0, got {crash_retries!r}")
        self._workers = workers
        self._chunk_size = chunk_size
        self._crash_retries = crash_retries
        self._executor: Optional[ProcessPoolExecutor] = None
        self._starts = 0
        # Instruments are bound once here, so the per-dispatch cost is one
        # attribute read plus (for disabled telemetry) an empty method call.
        self._telemetry = as_telemetry(telemetry)
        self._metric_chunks = self._telemetry.counter(
            "pool.chunks_dispatched", help="chunks submitted to worker processes"
        )
        self._metric_trials = self._telemetry.counter(
            "pool.trials_dispatched", help="seeds submitted across all chunks"
        )
        self._metric_restarts = self._telemetry.counter(
            "pool.worker_restarts", help="executor restarts after a worker crash"
        )
        self._metric_chunk_retries = self._telemetry.counter(
            "pool.chunk_retries", help="chunks re-dispatched after a worker crash"
        )
        self._inflight = self._telemetry.gauge(
            "pool.inflight_chunks", help="chunks submitted but not yet completed"
        )
        self._metric_workers_seen = self._telemetry.gauge(
            "pool.worker_processes_seen", help="distinct worker pids that returned results"
        )
        # Per-worker bookkeeping, fed by ingested chunk deltas and used to
        # attribute crashes (pid + uptime on WorkerCrashRecovered).  Tracked
        # regardless of telemetry: it also sharpens WorkerCrashError messages.
        self._worker_stats: dict[int, WorkerStatsDelta] = {}
        self._worker_first_seen: dict[int, float] = {}
        # Re-dispatch payloads keyed by in-flight future, so _gather can
        # resubmit a chunk whose worker crashed.  Weak keys: a future that is
        # cancelled or never drained takes its payload with it.
        self._chunk_payloads: "weakref.WeakKeyDictionary[Future[ChunkResult], _ChunkPayload]" = (
            weakref.WeakKeyDictionary()
        )

    # -- introspection ----------------------------------------------------

    @property
    def workers(self) -> int:
        """The configured worker-process count."""
        return self._workers

    @property
    def chunk_size(self) -> Optional[int]:
        """The configured chunk size (None = automatic)."""
        return self._chunk_size

    @property
    def crash_retries(self) -> int:
        """How many times a crashed chunk is re-dispatched before raising."""
        return self._crash_retries

    @property
    def starts(self) -> int:
        """How many times the underlying executor has been (re)started.

        Stays at 1 across arbitrarily many calls unless a worker crashed (or
        the pool was shut down and reused) — the lifecycle tests pin this.
        """
        return self._starts

    @property
    def running(self) -> bool:
        """True while an executor is alive."""
        return self._executor is not None

    @property
    def telemetry(self) -> Telemetry:
        """The telemetry handle dispatches report to (disabled by default)."""
        return self._telemetry

    # -- lifecycle --------------------------------------------------------

    def _ensure_executor(self) -> ProcessPoolExecutor:
        if self._executor is None:
            self._executor = ProcessPoolExecutor(max_workers=self._workers)
            self._starts += 1
        return self._executor

    def _discard_broken_executor(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None

    def shutdown(self) -> None:
        """Stop the workers (idempotent; the pool restarts lazily if reused)."""
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None

    def __enter__(self) -> "ExecutionPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()

    # -- chunking ---------------------------------------------------------

    def chunk(self, items: Sequence) -> list[tuple]:
        """Split one batch into the chunks a dispatch of it alone uses, in order."""
        return [tuple(items[start:stop]) for [(_batch, start, stop)] in self._cut([len(items)])]

    def _cut(
        self, sizes: Sequence[int], alone: Container[int] = (), kernel: Container[int] = ()
    ) -> list[list[tuple[int, int, int]]]:
        """The one chunker: split a dispatch group into chunks, in order.

        ``sizes`` holds each batch's seed count.  A chunk is a list of
        ``(batch, start, stop)`` segments, each one batch's seeds
        ``[start:stop]``.  A batch is cut on its own into pieces of
        ``chunk_size`` seeds or, automatically, of ⌈n / (4 · workers)⌉:
        about four chunks per worker balance the template pickle against
        tail latency (the last chunks land on whichever worker frees up).
        A batch in ``kernel`` (a batchable template with at least
        ``_KERNEL_FLOOR`` seeds) is cut automatically into even chunks, at
        most four per worker and none below ``_KERNEL_FLOOR`` seeds, so
        every chunk of it still runs on the kernel; more chunks than
        workers come in a multiple of the workers.  Any other batch whose
        automatic pieces would hold fewer than ``_MERGE_FLOOR`` seeds is
        small: each run of consecutive small batches is split as one,
        across batch boundaries, into a few even chunks
        (:meth:`_split_run`), so small batches share round trips and still
        keep every worker busy.  An explicit ``chunk_size`` is obeyed as it
        is and never merged.  A batch in ``alone`` merges with nothing.
        """
        chunks: list[list[tuple[int, int, int]]] = []
        run: list[int] = []  # consecutive small batches, split when the run ends
        for index, count in enumerate(sizes):
            if self._chunk_size is None and index in kernel:
                pieces = max(1, min(self._workers * 4, count // _KERNEL_FLOOR))
                if pieces > self._workers:
                    pieces -= pieces % self._workers
                chunks += self._split_run(run, sizes) + self._split_run([index], sizes, pieces)
                run = []
                continue
            step = self._chunk_size or max(1, -(-count // (self._workers * 4)))
            if self._chunk_size is None and step < _MERGE_FLOOR and index not in alone:
                run.append(index)
                continue
            chunks += self._split_run(run, sizes)
            run = []
            chunks += [[(index, start, min(start + step, count))] for start in range(0, count, step)]
        return chunks + self._split_run(run, sizes)

    def _split_run(
        self, run: Sequence[int], sizes: Sequence[int], count: Optional[int] = None
    ) -> list[list[tuple[int, int, int]]]:
        """Split a run of batches' M seeds, in order, into ``count`` even chunks.

        The first M mod ``count`` chunks hold one seed more.  By default (a
        run of small batches) ``count`` is k = workers · ⌈M / (workers ·
        ``_MERGE_FLOOR``)⌉, or M if fewer: no chunk holds more than
        ``_MERGE_FLOOR`` seeds, the workers share the chunks evenly, and
        equal trials finish in ⌈M / workers⌉ trial-times, as they would one
        seed per chunk.
        """
        total = sum(sizes[index] for index in run)
        if not total:
            return []
        if count is None:
            count = min(total, self._workers * -(-total // (self._workers * _MERGE_FLOOR)))
        base, larger = divmod(total, count)
        chunks: list[list[tuple[int, int, int]]] = []
        chunk: list[tuple[int, int, int]] = []
        wanted = base + (larger > 0)  # seeds the open chunk still takes
        for index in run:
            start = 0
            while start < sizes[index]:
                stop = min(sizes[index], start + wanted)
                chunk.append((index, start, stop))
                wanted -= stop - start
                start = stop
                if not wanted:
                    chunks.append(chunk)
                    chunk = []
                    wanted = base + (len(chunks) < larger)
        return chunks

    # -- dispatch ---------------------------------------------------------

    def submit_seed_chunks(
        self, template: "SimulationConfig", seeds: Sequence[int], reduce: bool = False
    ) -> list["Future[ChunkResult]"]:
        """Submit one template's seed batch as chunked futures, in chunk order.

        A dispatch group of one batch: each future resolves to a
        :class:`ChunkResult` whose rows are in seed order, so unwrapping the
        futures' values (via :meth:`ingest`) in submission order reproduces
        the serial batch exactly.  An unpicklable template degrades to
        serial in-process execution (with a warning) behind
        already-completed futures, so callers never special-case it.
        :meth:`run_seeds` drains these futures.
        """
        return self._submit_group([(template, tuple(seeds))], reduce)

    def _submit_group(
        self, batches: Sequence[tuple["SimulationConfig", tuple[int, ...]]], reduce: bool
    ) -> list["Future[ChunkResult]"]:
        """Submit a group of seed batches as chunk futures, in group order.

        The one dispatch behind :meth:`run_seeds` and :meth:`iter_reduced`.
        :meth:`_cut` splits the group, keeping a batchable batch of
        ``_KERNEL_FLOOR`` or more seeds in chunks the kernel runs; each chunk
        is one :func:`_run_chunk` call.  An unpicklable batch warns once and
        runs in-process at its turn, behind completed futures, after the
        worker chunks before it went out.
        """
        local = {
            index for index, (template, _seeds) in enumerate(batches)
            if not payload_is_picklable(template)
        }
        kernel: set[int] = set()
        if any(len(seeds) >= _KERNEL_FLOOR for _template, seeds in batches):
            from repro.engine.batch import batchable

            kernel = {
                index for index, (template, seeds) in enumerate(batches)
                if len(seeds) >= _KERNEL_FLOOR and batchable(template)
            }
        chunks = self._cut([len(seeds) for _template, seeds in batches], local, kernel)
        self._metric_trials.inc(sum(len(seeds) for _template, seeds in batches))
        self._metric_chunks.inc(len(chunks))
        for _index in local:
            warn_serial_fallback(telemetry=self._telemetry)
        futures: list["Future[ChunkResult]"] = []
        waiting: list[_ChunkPayload] = []
        for segments in chunks:
            work = tuple(
                (batches[index][0], batches[index][1][start:stop]) for index, start, stop in segments
            )
            if segments[0][0] not in local:
                waiting.append(_ChunkPayload((work, reduce)))
                continue
            if waiting:
                futures += self._submit(waiting)
                waiting = []
            futures.append(_completed_future(_run_chunk(work, reduce)))
        if waiting:
            futures += self._submit(waiting)
        if self._telemetry.enabled:
            self._observe_dispatch(
                [
                    (position, future, sum(stop - start for _batch, start, stop in segments))
                    for position, (future, segments) in enumerate(zip(futures, chunks))
                    if segments[0][0] not in local
                ],
                reduce=reduce,
            )
        return futures

    def _observe_dispatch(
        self, dispatched: Sequence[tuple[int, "Future[ChunkResult]", int]], reduce: bool
    ) -> None:
        """Track queue depth and emit one ChunkDispatched event per worker chunk.

        ``dispatched`` holds each worker chunk's position in the dispatch,
        its future and its seed count.  Only runs with a live telemetry
        handle, so the disabled path attaches no done-callbacks at all.
        Done-callbacks fire on executor threads — the gauge takes its own
        lock — and the events are emitted from the submitting thread in
        chunk order.
        """
        for index, future, size in dispatched:
            self._inflight.inc()
            future.add_done_callback(lambda _f: self._inflight.dec())
            self._telemetry.emit(
                ChunkDispatched(
                    chunk_index=index,
                    size=size,
                    reduce=reduce,
                    inflight=int(self._inflight.value),
                )
            )

    def run_seeds(
        self, template: "SimulationConfig", seeds: Sequence[int], reduce: bool = False
    ) -> list:
        """Run a multi-seed batch and return results in seed order.

        With ``reduce=True`` the returned list holds :class:`ReducedTrial`
        rows; otherwise full :class:`~repro.engine.results.SimulationResult`
        objects.  Either way the contents are bit-identical to a serial run
        of the same template and seeds.
        """
        futures = self.submit_seed_chunks(template, seeds, reduce=reduce)
        return [row for rows in self._gather(futures) for row in rows]

    def iter_reduced(
        self, batches: Sequence[tuple["SimulationConfig", Sequence[int]]]
    ) -> Generator[list[ReducedTrial], None, None]:
        """Run several seed batches reduced; yield each batch's rows, in order.

        The batches go out as one dispatch group, so small ones share chunks
        (see :meth:`_cut`) and workers never idle between batches.  The
        chunks are drained in submission order with the same crash retry
        as :meth:`run_seeds`: a crash re-dispatches every outstanding chunk
        of the group at once, so the executor restarts once per crash, not
        once per batch.  A batch's rows are yielded as soon as the chunk
        holding its last seed is back.  Closing the iterator early (a
        campaign or search stopped by its ``on_cell`` or ``on_candidate``
        callback) cancels the chunks no worker has picked up yet; a chunk
        already running may hold seeds of several batches.
        """
        group = [(template, tuple(seeds)) for template, seeds in batches]
        chunks = self._gather(self._submit_group(group, reduce=True))
        rows = itertools.chain.from_iterable(chunks)
        try:
            for _template, seeds in group:
                yield list(itertools.islice(rows, len(seeds)))
        finally:
            chunks.close()

    def ingest(self, outcome: ChunkResult) -> list:
        """Unwrap one chunk outcome: record its worker stats, return the rows.

        Every completed chunk passes through here, from :meth:`_gather`, so
        worker deltas reach the registry on every dispatch path.  With
        telemetry disabled the delta still updates the pool's per-worker
        crash-attribution bookkeeping (two dict writes per chunk), but
        nothing else.
        """
        stats = outcome.stats
        # CLOCK_MONOTONIC is system-wide on the platforms the pool targets,
        # so the worker's uptime anchors its epoch on the parent's clock too.
        self._worker_first_seen.setdefault(stats.pid, time.monotonic() - stats.uptime_s)
        self._worker_stats[stats.pid] = stats
        if self._telemetry.enabled:
            self._telemetry.registry.merge_delta(stats)
            self._metric_workers_seen.set(len(self._worker_stats))
        return list(outcome.rows)

    def worker_stats_for(self, pid: int) -> Optional[WorkerStatsDelta]:
        """The most recent stats delta a worker pid reported (None if unseen)."""
        return self._worker_stats.get(pid)

    def _gather(self, futures: Sequence["Future[ChunkResult]"]) -> Generator[list, None, None]:
        """Drain futures in chunk order, yielding each chunk's rows.

        The one drain every dispatch path uses.  A worker crash breaks the
        whole executor, so every unfinished future fails together; all of
        them are re-dispatched as one group on a fresh executor within
        ``crash_retries`` (rows still land in chunk order — each retry future
        replaces its predecessor in place), while chunks that finished before
        the crash keep their rows.  Closing the generator early cancels the
        futures no worker has started.
        """
        pending = list(futures)
        index = 0
        try:
            while index < len(pending):
                future = pending[index]
                try:
                    outcome = future.result()
                except BrokenProcessPool as error:
                    lost = [i for i in range(index, len(pending)) if not _succeeded(pending[i])]
                    payloads = [self._chunk_payloads.pop(pending[i]) for i in lost]
                    for i, retry in zip(lost, self._submit(payloads, error)):
                        pending[i] = retry
                    continue
                self._chunk_payloads.pop(future, None)
                index += 1
                yield self.ingest(outcome)
        finally:
            for future in pending[index:]:
                future.cancel()

    def _submit(
        self, payloads: Sequence[_ChunkPayload], error: Optional[BrokenProcessPool] = None
    ) -> list["Future[ChunkResult]"]:
        """Submit chunks in order, recovering broken executors within budget.

        ``error`` is the crash that lost an earlier dispatch of these chunks
        (``None`` on first dispatch).  Every broken executor — one that
        crashed mid-batch, or one that ``submit`` finds broken because a
        worker died since the last call or mid-submission — is recovered and
        spends one attempt of every chunk in the group.  Once a chunk has
        used up ``crash_retries`` attempts the wrapped
        :class:`WorkerCrashError` propagates; :meth:`recover` has run by
        then, so the pool is reusable after the raise.
        """
        while True:
            if error is not None:
                crash = self.recover(error)
                if any(payload.attempt >= self._crash_retries for payload in payloads):
                    raise crash from error
                for payload in payloads:
                    payload.attempt += 1
            executor = self._ensure_executor()
            futures: list["Future[ChunkResult]"] = []
            try:
                for payload in payloads:
                    future = executor.submit(_run_chunk, *payload.args)
                    self._chunk_payloads[future] = payload
                    futures.append(future)
                break
            except BrokenProcessPool as submit_error:
                error = submit_error
        if error is not None:
            attempt = max(payload.attempt for payload in payloads)
            self._metric_chunk_retries.inc(len(futures))
            logger.warning(
                "re-dispatching %d chunk(s) after worker crash (attempt %d of %d)",
                len(futures),
                attempt,
                self._crash_retries,
            )
            if self._telemetry.enabled:
                self._telemetry.emit(
                    ChunkRetried(detail=str(error), chunks=len(futures), attempt=attempt)
                )
        return futures

    def _crashed_workers(self) -> list[tuple[int, Optional[float]]]:
        """The current executor's abnormally dead workers, as (pid, uptime).

        Inspected *before* the broken executor is discarded.  Workers the
        executor's own teardown terminated (SIGTERM) are excluded, so one bad
        worker reads differently from the collateral shutdown of the rest of
        the pool.  Detection is best-effort: an executor that already reaped
        its children reports nothing, and a worker that never completed a
        chunk has no first-seen timestamp (uptime ``None``).
        """
        processes = getattr(self._executor, "_processes", None) or {}
        now = time.monotonic()
        crashed: list[tuple[int, Optional[float]]] = []
        for pid, process in sorted(processes.items()):
            exitcode = getattr(process, "exitcode", None)
            if exitcode is None or exitcode in (0, -signal.SIGTERM):
                continue
            first_seen = self._worker_first_seen.get(pid)
            crashed.append((pid, now - first_seen if first_seen is not None else None))
        return crashed

    def recover(self, error: BaseException) -> WorkerCrashError:
        """Discard the broken executor and wrap ``error`` for re-raising.

        After this returns, the pool is reusable (the next dispatch forks
        fresh workers), and the returned :class:`WorkerCrashError` explains
        what happened to whoever re-raises it.  Each identified dead worker
        gets its own :class:`~repro.telemetry.events.WorkerCrashRecovered`
        event carrying its pid and uptime at crash.
        """
        crashed = self._crashed_workers()
        self._discard_broken_executor()
        self._metric_restarts.inc()
        logger.warning("worker process crashed mid-batch (%s); pool reset for restart", error)
        if self._telemetry.enabled:
            restarts = int(self._metric_restarts.value)
            if crashed:
                for pid, uptime in crashed:
                    self._telemetry.emit(
                        WorkerCrashRecovered(
                            detail=str(error), restarts=restarts, pid=pid, uptime_s=uptime
                        )
                    )
            else:
                self._telemetry.emit(WorkerCrashRecovered(detail=str(error), restarts=restarts))
        pids = ", ".join(str(pid) for pid, _ in crashed) if crashed else "unknown pid"
        return WorkerCrashError(
            f"a worker process crashed mid-batch ({error}; {pids}); the pool "
            "has been reset and the next call will start fresh workers — "
            "deterministic seeds make it safe to re-submit the failed work"
        )
