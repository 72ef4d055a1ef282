"""The campaign service: an async job front end over the execution stack.

:class:`CampaignService` accepts :class:`~repro.service.protocol.JobRequest`
submissions from many concurrent clients over a newline-delimited-JSON TCP
protocol, queues them with admission control and per-job priorities, and
executes them **one at a time** on a single executor thread backed by one
shared :class:`~repro.engine.pool.ExecutionPool`.  Running jobs serially is
not a simplification — it is the byte-identity guarantee: every store a
service job produces is the store the direct CLI run would have produced,
because there is never a second writer interleaving cells.

Three threads, one loop::

    asyncio loop thread ── start_server(), one coroutine per client,
    │                      owns every Job.events buffer and subscriber set,
    │                      and the one reader ResultStore store-status uses
    executor thread ────── JobQueue.pop() → run campaign/search via the
    │                      ordinary runners on the one writer ResultStore;
    │                      appends progress records to the job's pending
    │                      list and wakes the loop only when that list was
    │                      empty (never touches buffers directly)
    HTTP facade thread ─── optional ThreadingHTTPServer serving /status and
                           /jobs/<id>/status in the RunMonitor snapshot
                           schema, so ``repro monitor watch`` works
                           unchanged against a service job

Each job's :class:`~repro.telemetry.monitor.RunMonitor` is ticked by the
process's one shared ``repro-monitor`` thread, so a job starts no thread.

Each SQLite connection lives as long as the thread that owns it, not one
request (sqlite3 connections stay on the thread that opened them).  The
executor keeps one writer store and the loop one reader: each is reused
while consecutive requests name the same file (the same path and the same
``(st_dev, st_ino)``) and reopened otherwise, so a store deleted or replaced
between two jobs is never written or read through a stale connection.  The
reader is dropped when a ``store-status`` names a path that no longer
exists, and each is closed when its thread exits.  The writer is flushed
(:meth:`~repro.campaigns.store.ResultStore.flush`: commit plus a WAL
checkpoint) at the end of every job, completed, failed or cancelled, before
the job's ``job-finished`` record is published, so a client that has that
record finds every row of the job in the main database file.  The reader
never checkpoints: a ``store-status`` runs one query on an open connection
and never writes, fsyncs or waits on the writer.  The service opens no
connection and starts no ticker until the first request that needs one.

Per job the service materializes a directory ``run_dir/jobs/<id>/`` holding
``request.json`` (the verbatim submission — resubmit it to resume a
cancelled job), ``events.jsonl`` (the job's full telemetry stream), and
``status.json`` (live :class:`~repro.telemetry.monitor.RunMonitor`
snapshots).  Progress streamed to ``watch`` subscribers is tapped straight
off the job's telemetry event bus — cells committed, generations completed,
best-candidate improvements — so the wire stream and the on-disk record are
the same events.  A client that only needs the outcome sends ``wait`` and
gets one reply, the final record a ``watch`` ends with.

Cancellation is cooperative and exact: the cancel flag is only checked in
the runners' ``on_cell`` / ``on_candidate`` callbacks, which fire *after*
each checkpoint commit.  A cancelled job therefore always leaves a clean
committed prefix, and resubmitting the identical request completes exactly
the missing suffix (the store's diff-and-checkpoint contract).
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from functools import partial
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Awaitable, Callable, Optional

from repro.campaigns.runner import CampaignRunner
from repro.campaigns.store import ResultStore
from repro.engine.plan import ExecutionPlan
from repro.engine.pool import ExecutionPool
from repro.exceptions import ConfigurationError, ReproError
from repro.search.runner import StrategySearch
from repro.service.jobs import AdmissionError, Job, JobCancelled, JobQueue, JobState
from repro.service.protocol import JobRequest
from repro.telemetry import Telemetry
from repro.telemetry.events import JsonlSink
from repro.telemetry.monitor import STATUS_SCHEMA, RunMonitor

#: Schema tag on every service-level status document.
SERVICE_SCHEMA = "repro.service.status/v1"

#: Ops that follow one job's records instead of answering at once
#: (:meth:`CampaignService._op_follow`).
_FOLLOW_OPS = ("wait", "watch")

#: Monitor configuration per job kind — identical to what the direct CLI
#: commands wire up, so a service job's status.json and a CLI run's are the
#: same document shape with the same metric names.
_MONITOR_WIRING = {
    "campaign": {
        "unit": "cells",
        "done_metrics": ("campaign.cells_committed", "campaign.cells_reused"),
        "best_metric": None,
    },
    "search": {
        "unit": "evaluations",
        "done_metrics": ("search.evaluations_executed", "search.evaluations_reused"),
        "best_metric": "search.best_score",
    },
}


def _empty_status(unit: str, state: str, job_id: str, kind: str) -> dict[str, Any]:
    """A schema-complete status document for a job with no monitor snapshot yet.

    Carries every field :func:`repro.telemetry.monitor.validate_status`
    requires, so queued jobs are watchable through the exact same tooling as
    running ones.
    """
    return {
        "schema": STATUS_SCHEMA,
        "final": False,
        "unit": unit,
        "job": job_id,
        "kind": kind,
        "state": state,
        "written_unix_s": time.time(),
        "elapsed_s": 0.0,
        "progress": {"done": 0, "total": None, "fraction": None},
        "throughput": {"ewma_per_s": None, "eta_s": None},
        "workers": {},
        "recent_events": [],
        "metrics": {},
    }


class _KeptStore:
    """One :class:`ResultStore` kept open across requests by the thread that owns it.

    :meth:`open` returns the kept store while requests name the same file
    (the same path and the same ``(st_dev, st_ino)``); otherwise it closes
    the kept store and opens (creating, if need be) the file now at the
    path.  Only the thread that opened the kept store may use or close it.
    """

    def __init__(self) -> None:
        self._store: Optional[ResultStore] = None
        self._identity: Optional[tuple[int, int]] = None

    def open(self, path: Path) -> ResultStore:
        identity = _file_identity(path)
        store = self._store
        if store is not None and (store.path, self._identity) == (str(path), identity):
            return store
        self.close()
        store = self._store = ResultStore(str(path))
        self._identity = _file_identity(path)
        return store

    def close(self) -> None:
        store, self._store = self._store, None
        if store is not None:
            store.close()


def _file_identity(path: Path) -> Optional[tuple[int, int]]:
    """``(st_dev, st_ino)`` of the file at ``path``, or None when there is none."""
    try:
        stat = path.stat()
    except (FileNotFoundError, NotADirectoryError):
        return None
    return stat.st_dev, stat.st_ino


class CampaignService:
    """The async campaign/search job service.

    Parameters
    ----------
    run_dir:
        Root directory for service state: per-job directories land under
        ``run_dir/jobs/``, and relative job store paths resolve against
        ``run_dir`` (clients need not know the server's filesystem).
    host, port:
        TCP bind address for the NDJSON protocol (``port=0`` picks an
        ephemeral port; read :attr:`port` after :meth:`start`).
    plan:
        The *service* :class:`~repro.engine.plan.ExecutionPlan`: when
        parallel, the service starts one shared
        :class:`~repro.engine.pool.ExecutionPool` reused by every job (worker
        processes stay warm across jobs).  When serial (the default), each
        job's own plan decides its execution — a parallel job plan then spins
        up a pool for just that job.
    max_queued:
        Admission bound on *waiting* jobs (the running job is free);
        submissions past the bound are refused immediately.
    monitor_interval:
        Snapshot cadence of each job's :class:`~repro.telemetry.monitor.RunMonitor`.
    http_port:
        When not ``None``, also serve the read-only HTTP facade
        (``/status``, ``/jobs``, ``/jobs/<id>/status``) on this port
        (``0`` = ephemeral; read :attr:`http_port` after :meth:`start`).
    telemetry:
        Optional *service-level* :class:`~repro.telemetry.Telemetry` handle:
        receives the shared pool's worker metrics and crash/fallback events
        (per-job telemetry is always separate, one stream per job).
    announce_path:
        When set, :meth:`start` writes ``{"host", "port", "http_port"}`` JSON
        here once bound — how scripts using ``port=0`` find the service.
    """

    def __init__(
        self,
        run_dir: str | Path,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        plan: Optional[ExecutionPlan] = None,
        max_queued: Optional[int] = 8,
        monitor_interval: float = 0.5,
        http_port: Optional[int] = None,
        telemetry: Optional[Telemetry] = None,
        announce_path: str | Path | None = None,
    ) -> None:
        self._run_dir = Path(run_dir)
        self._host = host
        self._requested_port = port
        self._plan = plan if plan is not None else ExecutionPlan()
        self._queue = JobQueue(max_queued=max_queued)
        self._monitor_interval = monitor_interval
        self._requested_http_port = http_port
        self._telemetry = telemetry
        self._announce_path = Path(announce_path) if announce_path is not None else None

        self._jobs: dict[str, Job] = {}
        self._jobs_lock = threading.Lock()
        self._pending_lock = threading.Lock()
        self._seq = 0
        self._started_unix_s: Optional[float] = None

        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._loop_thread: Optional[threading.Thread] = None
        self._executor_thread: Optional[threading.Thread] = None
        self._http_server: Optional[ThreadingHTTPServer] = None
        self._http_thread: Optional[threading.Thread] = None
        self._pool: Optional[ExecutionPool] = None
        self._writer = _KeptStore()  # the executor thread's
        self._reader = _KeptStore()  # the loop thread's
        self._stopping = threading.Event()
        self.port: Optional[int] = None
        self.http_port: Optional[int] = None

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "CampaignService":
        """Bind, spin up the loop/executor/facade threads, and return self."""
        if self._loop_thread is not None:
            raise ConfigurationError("this service has already been started")
        self._run_dir.mkdir(parents=True, exist_ok=True)
        (self._run_dir / "jobs").mkdir(exist_ok=True)
        self._pool = self._plan.pool(telemetry=self._telemetry)

        ready = threading.Event()
        failure: list[BaseException] = []
        self._loop_thread = threading.Thread(
            target=self._run_loop, args=(ready, failure), name="repro-service-loop", daemon=True
        )
        self._loop_thread.start()
        ready.wait(timeout=10.0)
        if failure:
            raise ConfigurationError(f"service failed to bind {self._host}:{self._requested_port}: {failure[0]}")
        if self.port is None:
            raise ConfigurationError("service loop thread never became ready")

        self._executor_thread = threading.Thread(
            target=self._run_executor, name="repro-service-executor", daemon=True
        )
        self._executor_thread.start()

        if self._requested_http_port is not None:
            handler = partial(_ServiceRequestHandler, self)
            self._http_server = ThreadingHTTPServer(
                (self._host, self._requested_http_port), handler
            )
            self._http_server.daemon_threads = True
            self.http_port = self._http_server.server_address[1]
            self._http_thread = threading.Thread(
                target=self._http_server.serve_forever, name="repro-service-http", daemon=True
            )
            self._http_thread.start()

        if self._announce_path is not None:
            doc = {"host": self._host, "port": self.port, "http_port": self.http_port}
            tmp = self._announce_path.with_suffix(self._announce_path.suffix + ".tmp")
            tmp.parent.mkdir(parents=True, exist_ok=True)
            tmp.write_text(json.dumps(doc))
            tmp.replace(self._announce_path)
        return self

    def stop(self) -> None:
        """Graceful shutdown: refuse new work, stop the running job at its
        next commit boundary (it stays exactly resumable), drain, tear down.
        """
        if self._stopping.is_set():
            return
        self._stopping.set()
        self._queue.close()
        with self._jobs_lock:
            jobs = list(self._jobs.values())
        for job in jobs:
            if job.state is JobState.RUNNING:
                job.cancel_event.set()
        if self._executor_thread is not None:
            self._executor_thread.join(timeout=60.0)
        if self._loop is not None and self._loop.is_running():
            future = asyncio.run_coroutine_threadsafe(self._shutdown_async(), self._loop)
            try:
                future.result(timeout=10.0)
            except Exception:
                pass
            self._loop.call_soon_threadsafe(self._loop.stop)
        if self._loop_thread is not None:
            self._loop_thread.join(timeout=10.0)
        if self._http_server is not None:
            self._http_server.shutdown()
            self._http_server.server_close()
            if self._http_thread is not None:
                self._http_thread.join(timeout=5.0)
        if self._pool is not None:
            self._pool.shutdown()

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the service begins shutting down (True once it has).

        What ``repro serve`` parks on: a client ``shutdown`` op (or
        :meth:`stop` from any thread) releases it.
        """
        return self._stopping.wait(timeout)

    def __enter__(self) -> "CampaignService":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # -- the asyncio front end --------------------------------------------

    def _run_loop(self, ready: threading.Event, failure: list[BaseException]) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop

        async def _bind() -> None:
            try:
                self._server = await asyncio.start_server(
                    self._handle_client, self._host, self._requested_port
                )
                self.port = self._server.sockets[0].getsockname()[1]
                self._started_unix_s = time.time()
            except OSError as error:
                failure.append(error)
            finally:
                ready.set()

        loop.run_until_complete(_bind())
        if not failure:
            try:
                loop.run_forever()
            finally:
                pending = asyncio.all_tasks(loop)
                for task in pending:
                    task.cancel()
                if pending:
                    loop.run_until_complete(
                        asyncio.gather(*pending, return_exceptions=True)
                    )
                self._reader.close()
        loop.close()

    async def _shutdown_async(self) -> None:
        """Stop accepting connections and release every watch subscriber."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        with self._jobs_lock:
            jobs = list(self._jobs.values())
        sentinel = {"kind": "service-stopping", "final": True}
        for job in jobs:
            for queue in list(job.subscribers):
                queue.put_nowait(sentinel)

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """One NDJSON request/response conversation per connection."""
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                try:
                    request = json.loads(line)
                except json.JSONDecodeError as error:
                    await self._send(writer, {"ok": False, "error": f"invalid JSON: {error}"})
                    continue
                op = request.get("op") if isinstance(request, dict) else None
                if op in _FOLLOW_OPS:
                    await self._op_follow(writer, op, request)
                    continue
                response = self._dispatch(op, request)
                await self._send(writer, response)
                if op == "shutdown" and response.get("ok"):
                    # stop() joins this loop's thread, so it must run elsewhere.
                    threading.Thread(target=self.stop, daemon=True).start()
                    break
        except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass

    async def _send(self, writer: asyncio.StreamWriter, doc: dict[str, Any]) -> None:
        writer.write(json.dumps(doc).encode("utf-8") + b"\n")
        await writer.drain()

    def _dispatch(self, op: Optional[str], request: dict[str, Any]) -> dict[str, Any]:
        """Route one non-streaming op; all errors become ``ok: false`` lines."""
        handlers = {
            "ping": self._op_ping,
            "submit": self._op_submit,
            "jobs": self._op_jobs,
            "status": self._op_status,
            "cancel": self._op_cancel,
            "store-status": self._op_store_status,
            "shutdown": lambda _request: {"ok": True, "stopping": True},
        }
        handler = handlers.get(op) if isinstance(op, str) else None
        if handler is None:
            known = ", ".join(sorted([*handlers, *_FOLLOW_OPS]))
            return {"ok": False, "error": f"unknown op {op!r}; known: {known}"}
        try:
            return handler(request)
        except AdmissionError as error:
            return {"ok": False, "error": str(error), "refused": "admission"}
        except ReproError as error:
            return {"ok": False, "error": str(error)}
        except Exception as error:  # a service must answer, not disconnect
            return {"ok": False, "error": f"{type(error).__name__}: {error}"}

    # -- ops ---------------------------------------------------------------

    def _op_ping(self, _request: dict[str, Any]) -> dict[str, Any]:
        return {
            "ok": True,
            "service": SERVICE_SCHEMA,
            "jobs": len(self._jobs),
            "queued": self._queue.depth,
        }

    def _op_submit(self, request: dict[str, Any]) -> dict[str, Any]:
        payload = request.get("request")
        if payload is None:
            raise ConfigurationError('submit needs a "request" field holding the job request')
        job = self.submit(JobRequest.from_dict(payload))
        return {"ok": True, "job": job.id, "state": job.state.value}

    def _op_jobs(self, _request: dict[str, Any]) -> dict[str, Any]:
        return {"ok": True, "jobs": self.jobs_summary()}

    def jobs_summary(self) -> list[dict[str, Any]]:
        """Every job as one JSON row, in submission order."""
        with self._jobs_lock:
            return [job.summary() for job in self._jobs.values()]

    def _op_status(self, request: dict[str, Any]) -> dict[str, Any]:
        job_id = request.get("job")
        if job_id is None:
            return {"ok": True, "status": self.service_status()}
        return {"ok": True, "status": self.job_status(job_id)}

    def _op_cancel(self, request: dict[str, Any]) -> dict[str, Any]:
        job_id = request.get("job")
        if job_id is None:
            raise ConfigurationError('cancel needs a "job" field')
        job = self._job(job_id)
        cancelled = self.cancel(job)
        return {"ok": True, "job": job.id, "state": job.state.value, "cancelled": cancelled}

    def _op_store_status(self, request: dict[str, Any]) -> dict[str, Any]:
        store_arg = request.get("store")
        if store_arg is None:
            raise ConfigurationError('store-status needs a "store" field')
        path = self.resolve_store(str(store_arg))
        if not path.exists():
            # Opening would *create* the database; a read-only query must
            # not conjure empty stores on the server.
            self._reader.close()
            raise ConfigurationError(f"no store at {path}")
        campaigns = [
            {"campaign": name, "completed": completed}
            for name, completed in self._reader.open(path).campaign_cell_counts().items()
        ]
        return {"ok": True, "store": str(path), "campaigns": campaigns}

    async def _op_follow(
        self, writer: asyncio.StreamWriter, op: str, request: dict[str, Any]
    ) -> None:
        """Serve ``watch`` (every record, one NDJSON line each) or ``wait``.

        ``wait`` answers once, when the job is terminal, with the final
        record a ``watch`` of the same job ends with (``job-finished``, or
        the ``service-stopping`` sentinel) under ``"finished"``.
        """
        job_id = request.get("job")
        job = self._jobs.get(job_id) if isinstance(job_id, str) else None
        if job is None:
            await self._send(writer, {"ok": False, "error": f"unknown job {job_id!r}"})
            return
        if op == "wait":
            final = await self._follow(job)
            await self._send(writer, {"ok": True, "job": job.id, "finished": final})
            return
        await self._send(writer, {"ok": True, "job": job.id, "watching": True})
        await self._follow(job, lambda record: self._send(writer, {"event": record}))

    async def _follow(
        self,
        job: Job,
        send: Optional[Callable[[dict[str, Any]], Awaitable[None]]] = None,
    ) -> dict[str, Any]:
        """Replay a job's records, then follow it live, to its final record.

        Returns that final record; ``send``, when given, gets every record
        on the way.  Runs on the loop thread, which owns every job's event
        buffer — the replay-then-subscribe handoff is therefore race-free:
        no record can land between the buffer snapshot and the
        subscription.  A record still on the executor's pending list
        reaches the subscription when the loop publishes it, so a job that
        is already terminal still ends on its own final record.
        """
        queue: asyncio.Queue[dict[str, Any]] = asyncio.Queue()
        backlog = list(job.events)
        job.subscribers.add(queue)
        try:
            for record in backlog:
                if send is not None:
                    await send(record)
                if record.get("final"):
                    return record
            while True:
                record = await queue.get()
                if send is not None:
                    await send(record)
                if record.get("final"):
                    return record
        finally:
            job.subscribers.discard(queue)

    # -- submission / querying (also the in-process API) -------------------

    def submit(self, request: JobRequest) -> Job:
        """Admit one request: persist it, queue it, return the job record."""
        if self._stopping.is_set():
            raise AdmissionError("the service is shutting down; submission refused")
        with self._jobs_lock:
            self._seq += 1
            job = Job(id=f"job-{self._seq:04d}", seq=self._seq, request=request)
            self._jobs[job.id] = job
        job_dir = self.job_dir(job.id)
        job_dir.mkdir(parents=True, exist_ok=True)
        (job_dir / "request.json").write_text(request.to_json())
        # Published before the executor can pop the job, so job-queued
        # always precedes job-started.
        self._publish_threadsafe(job, {"kind": "job-queued", "job": job.id, "priority": request.priority})
        try:
            self._queue.offer(job)
        except AdmissionError:
            with self._jobs_lock:
                del self._jobs[job.id]
            raise
        return job

    def cancel(self, job: Job) -> bool:
        """Cancel a job; True if this call changed its fate.

        A queued job is withdrawn and terminal immediately; a running job
        stops at its next commit boundary (exactly resumable); a terminal
        job is untouched.
        """
        if job.state.terminal:
            return False
        if job.state is JobState.QUEUED and self._queue.withdraw(job):
            job.state = JobState.CANCELLED
            job.finished_unix_s = time.time()
            self._publish_threadsafe(
                job, {"kind": "job-finished", "job": job.id, "state": "cancelled", "final": True}
            )
            return True
        job.cancel_event.set()
        return True

    def job_dir(self, job_id: str) -> Path:
        """The per-job state directory."""
        return self._run_dir / "jobs" / job_id

    def resolve_store(self, store: str) -> Path:
        """A job's store path: relative paths land under the run directory."""
        path = Path(store)
        return path if path.is_absolute() else self._run_dir / path

    def _job(self, job_id: str) -> Job:
        with self._jobs_lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise ConfigurationError(f"unknown job {job_id!r}")
        return job

    def job_status(self, job_id: str) -> dict[str, Any]:
        """One job's status in the RunMonitor snapshot schema.

        Running and finished jobs serve their monitor's latest ``status.json``
        snapshot (annotated with job identity); queued jobs get a synthesized
        schema-complete document, so every job is watchable the same way.
        """
        job = self._job(job_id)
        wiring = _MONITOR_WIRING[job.request.kind]
        status_path = self.job_dir(job.id) / "status.json"
        doc: Optional[dict[str, Any]] = None
        if status_path.exists():
            try:
                doc = json.loads(status_path.read_text())
            except (OSError, json.JSONDecodeError):
                doc = None
        if doc is None:
            doc = _empty_status(wiring["unit"], job.state.value, job.id, job.request.kind)
        doc["job"] = job.id
        doc["state"] = job.state.value
        doc["kind"] = job.request.kind
        if job.state.terminal:
            doc["final"] = True
        if job.error is not None:
            doc["error"] = job.error
        return doc

    def service_status(self) -> dict[str, Any]:
        """The whole service as one RunMonitor-schema document (unit: jobs)."""
        with self._jobs_lock:
            jobs = list(self._jobs.values())
        done = sum(1 for job in jobs if job.state.terminal)
        total = len(jobs)
        now = time.time()
        return {
            "schema": STATUS_SCHEMA,
            "service": SERVICE_SCHEMA,
            "final": self._stopping.is_set(),
            "unit": "jobs",
            "written_unix_s": now,
            "elapsed_s": now - self._started_unix_s if self._started_unix_s else 0.0,
            "progress": {
                "done": done,
                "total": total,
                "fraction": (done / total) if total else None,
            },
            "throughput": {"ewma_per_s": None, "eta_s": None},
            "workers": {},
            "recent_events": [],
            "metrics": {"service.queued": self._queue.depth},
            "jobs": [job.summary() for job in jobs],
        }

    # -- the executor thread ----------------------------------------------

    def _run_executor(self) -> None:
        try:
            while True:
                job = self._queue.pop()
                if job is None:
                    return
                if job.state.terminal:  # cancelled while queued, already withdrawn
                    continue
                self._execute(job)
        finally:
            self._writer.close()

    def _execute(self, job: Job) -> None:
        job.state = JobState.RUNNING
        job.started_unix_s = time.time()
        self._publish_threadsafe(job, {"kind": "job-started", "job": job.id})
        try:
            result = self._run_job(job)
        except JobCancelled:
            job.state = JobState.CANCELLED
        except Exception as error:
            job.state = JobState.FAILED
            job.error = f"{type(error).__name__}: {error}"
        else:
            job.state = JobState.COMPLETED
            job.result = result
        job.finished_unix_s = time.time()
        self._publish_threadsafe(
            job,
            {
                "kind": "job-finished",
                "job": job.id,
                "state": job.state.value,
                "error": job.error,
                "result": job.result,
                "final": True,
            },
        )

    def _run_job(self, job: Job) -> dict[str, Any]:
        """Execute one job through the ordinary runners, fully instrumented."""
        request = job.request
        job_dir = self.job_dir(job.id)
        wiring = _MONITOR_WIRING[request.kind]
        store_path = self.resolve_store(request.store)
        store_path.parent.mkdir(parents=True, exist_ok=True)
        telemetry = Telemetry(sink=JsonlSink(str(job_dir / "events.jsonl")))

        def tap(event: Any) -> None:
            # Runs on the executor thread, in emit order with the lifecycle
            # records; the loop thread publishes them.
            self._publish_threadsafe(job, event.to_dict())

        telemetry.add_event_tap(tap)

        def check_cancel(*_args: Any) -> None:
            if job.cancel_event.is_set():
                raise JobCancelled(f"job {job.id} cancelled")

        try:
            store = self._writer.open(store_path)
            try:
                if request.kind == "campaign":
                    return self._run_campaign(job, store, telemetry, wiring, check_cancel)
                return self._run_search(job, store, telemetry, wiring, check_cancel)
            finally:
                # Before _execute publishes job-finished: the job's rows are
                # in the main database file when a client sees that record.
                store.flush()
        finally:
            telemetry.remove_event_tap(tap)
            telemetry.close()

    def _monitor(
        self, job: Job, telemetry: Telemetry, wiring: dict[str, Any], total: Optional[int]
    ) -> RunMonitor:
        return RunMonitor(
            telemetry,
            status_path=str(self.job_dir(job.id) / "status.json"),
            interval=self._monitor_interval,
            unit=wiring["unit"],
            total=total,
            done_metrics=wiring["done_metrics"],
            best_metric=wiring["best_metric"],
        ).start()

    def _run_campaign(
        self,
        job: Job,
        store: ResultStore,
        telemetry: Telemetry,
        wiring: dict[str, Any],
        check_cancel: Any,
    ) -> dict[str, Any]:
        spec = job.request.parsed_spec()
        with CampaignRunner(
            spec, store, pool=self._pool, telemetry=telemetry, plan=job.request.plan
        ) as runner:
            monitor = self._monitor(job, telemetry, wiring, total=len(spec.cells()))
            try:
                progress = runner.run(max_cells=job.request.limit, on_cell=check_cancel)
            finally:
                monitor.stop()
        return {
            "total": progress.total,
            "already_complete": progress.already_complete,
            "executed": progress.executed,
            "remaining": progress.remaining,
            "complete": progress.complete,
        }

    def _run_search(
        self,
        job: Job,
        store: ResultStore,
        telemetry: Telemetry,
        wiring: dict[str, Any],
        check_cancel: Any,
    ) -> dict[str, Any]:
        spec = job.request.parsed_spec()
        with StrategySearch(
            spec, store, pool=self._pool, telemetry=telemetry, plan=job.request.plan
        ) as search:
            monitor = self._monitor(job, telemetry, wiring, total=None)
            try:
                result = search.run(
                    max_evaluations=job.request.limit, on_candidate=check_cancel
                )
            finally:
                monitor.stop()
        best = None
        if result.best is not None:
            best = {
                "score": result.best.score,
                "key": result.best.key,
                "genome": result.best.genome.describe(),
            }
        return {
            "evaluations_total": result.evaluations_total,
            "executed": result.executed,
            "reused": result.reused,
            "generations_completed": result.generations_completed,
            "complete": result.complete,
            "best": best,
        }

    # -- event fanout ------------------------------------------------------
    #
    # Every record of a job (job-queued, job-started, job-finished and each
    # telemetry event tapped off the run) goes through one per-job pending
    # list, so its order on the wire is the order it was published in.  The
    # publishing thread wakes the loop only when that list goes from empty to
    # non-empty; the loop then publishes the whole batch.  A burst of events
    # between two pool waits costs one wake-up, not one per event.

    def _publish_threadsafe(self, job: Job, record: dict[str, Any]) -> None:
        """Publish from any thread (buffer-only while no loop runs)."""
        with self._pending_lock:
            job.pending.append(record)
            if len(job.pending) > 1:
                return  # the loop is already due to publish this batch
        loop = self._loop
        if loop is not None and loop.is_running():
            try:
                loop.call_soon_threadsafe(self._publish_pending, job)
                return
            except RuntimeError:
                pass
        with self._pending_lock:
            job.events += job.pending
            job.pending = []

    def _publish_pending(self, job: Job) -> None:
        """Loop-thread-only: append a job's pending records to its buffer and fan out."""
        with self._pending_lock:
            records, job.pending = job.pending, []
        job.events += records
        for queue in list(job.subscribers):
            for record in records:
                queue.put_nowait(record)


class _ServiceRequestHandler(BaseHTTPRequestHandler):
    """Read-only HTTP facade in the RunMonitor snapshot schema.

    ``GET /status`` serves the service-level document, ``GET /jobs`` the job
    table, and ``GET /jobs/<id>/status`` one job's document — the last shaped
    so ``repro monitor watch http://host:port/jobs/<id>`` (whose reader
    appends ``/status``) follows a service job with zero changes.
    """

    def __init__(self, service: CampaignService, *args: Any, **kwargs: Any) -> None:
        self._service = service
        super().__init__(*args, **kwargs)

    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        path = self.path.rstrip("/") or "/status"
        try:
            if path in ("/status", ""):
                doc: dict[str, Any] = self._service.service_status()
            elif path == "/jobs":
                doc = {"jobs": self._service.jobs_summary()}
            elif path.startswith("/jobs/"):
                parts = path.split("/")
                job_id = parts[2]
                if len(parts) == 3 or (len(parts) == 4 and parts[3] == "status"):
                    doc = self._service.job_status(job_id)
                else:
                    self.send_error(404, "unknown path")
                    return
            else:
                self.send_error(404, "unknown path")
                return
        except ConfigurationError as error:
            self.send_error(404, str(error))
            return
        body = json.dumps(doc).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *_args: Any) -> None:  # quiet by design
        return
