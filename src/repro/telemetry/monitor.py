"""The live run monitor: periodic status snapshots + stdlib HTTP endpoints.

A :class:`RunMonitor` watches one live :class:`~repro.telemetry.Telemetry`
handle and makes a run observable while it is still in flight, two
complementary ways:

* **status file** — every ``interval`` seconds it writes a schema-versioned
  JSON document (:data:`STATUS_SCHEMA`) *atomically* (temp file +
  :func:`os.replace`, so a concurrent reader never sees a torn snapshot):
  progress against the known total, EWMA throughput and the ETA it implies,
  best-score-so-far for searches, worker restart count, the merged
  ``worker.*`` delta counters, the last N events, and the full registry
  snapshot;
* **HTTP endpoints** — an optional stdlib
  :class:`~http.server.ThreadingHTTPServer` (one handler thread per request,
  the serving shape the campaign-service roadmap item needs) exposes
  ``/status`` (the same JSON), ``/metrics``
  (:func:`~repro.telemetry.export.render_prometheus` text exposition, ready
  for a Prometheus scrape), and ``/events`` (a JSONL tail of the attached
  sink's stream via :func:`~repro.telemetry.events.read_jsonl_events`).

Every live monitor in the process is ticked by one shared daemon thread,
``repro-monitor``, started by the first :meth:`RunMonitor.start` and kept for
the process's lifetime; each monitor keeps its own interval.  A service that
runs a monitor per job therefore starts and joins no thread per job.

The monitor is an observer only: it reads the registry and taps the event
stream, never feeds execution, and degrades to a log line if a tick fails —
stores, checkpoints, and digests are byte-identical with it on or off (the
monitor-enabled identity tests pin this).  Throughput state (the EWMA) only
advances on the monitor's own tick, so HTTP polling at any rate cannot skew
the rate estimate.

:func:`read_status` and :func:`render_status_line` back the
``repro monitor watch`` CLI, which polls a status file or monitor URL and
prints one progress line per poll until the run marks its snapshot final.
"""

from __future__ import annotations

import json
import logging
import os
import threading
import time
import urllib.request
from collections import deque
from functools import partial
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Optional, Sequence, Union
from urllib.parse import parse_qs, urlsplit

from repro.exceptions import ConfigurationError
from repro.telemetry import Telemetry
from repro.telemetry.events import TelemetryEvent, read_jsonl_events
from repro.telemetry.export import render_prometheus

logger = logging.getLogger("repro.telemetry.monitor")

#: The status document's schema tag.  Bump the version on any breaking field
#: change — consumers (``monitor watch``, CI assertions, dashboards) validate
#: it before trusting the rest of the document.
STATUS_SCHEMA = "repro.monitor.status/v1"

#: Top-level fields every valid status document carries.
_REQUIRED_FIELDS = (
    "schema",
    "final",
    "unit",
    "progress",
    "throughput",
    "workers",
    "recent_events",
)

#: Default progress counters: the campaign path (committed + resume-reused).
DEFAULT_DONE_METRICS = ("campaign.cells_committed", "campaign.cells_reused")


class RunMonitor:
    """Publishes one live telemetry handle's state on a wall-clock interval.

    The periodic snapshots come from the process's shared ticker thread:
    :meth:`start` registers the monitor with it (starting the thread if this
    is the process's first monitor) and :meth:`stop` unregisters it, waits
    out a tick of this monitor already in flight, and only then writes the
    final snapshot, so no periodic snapshot can replace the final one.

    Parameters
    ----------
    telemetry:
        The **live** handle to observe (a disabled handle is refused — there
        would be nothing to publish).
    status_path:
        Optional JSON snapshot path, rewritten atomically every ``interval``
        seconds and once more (marked ``final``) on :meth:`stop`.
    port:
        Optional TCP port for the HTTP endpoints (``0`` = ephemeral; read the
        bound port back from :attr:`port`).  At least one of ``status_path``
        and ``port`` is required.
    host:
        Bind address for the HTTP server (default loopback).
    interval:
        Seconds between snapshot writes / throughput updates.
    unit:
        What the progress counters count (``"cells"``, ``"evaluations"``,
        ``"trials"`` — presentation only).
    total:
        The known total number of units, for the progress fraction and ETA
        (``None`` = open-ended; done counts still publish).
    done_metrics:
        Counter names whose sum is the done-so-far count.
    best_metric:
        Optional gauge name published as the best score so far (the search
        path's ``search.best_score``); the best *strategy* rides along from
        ``best-candidate-improved`` events.
    recent_events:
        How many of the latest events the status document retains.
    ewma_alpha:
        Smoothing factor for the exponentially weighted throughput estimate
        (higher = more reactive).
    """

    def __init__(
        self,
        telemetry: Telemetry,
        *,
        status_path: Optional[Union[str, Path]] = None,
        port: Optional[int] = None,
        host: str = "127.0.0.1",
        interval: float = 1.0,
        unit: str = "cells",
        total: Optional[int] = None,
        done_metrics: Sequence[str] = DEFAULT_DONE_METRICS,
        best_metric: Optional[str] = None,
        recent_events: int = 32,
        ewma_alpha: float = 0.3,
    ) -> None:
        if not telemetry.enabled:
            raise ConfigurationError(
                "the run monitor needs a live telemetry handle (disabled "
                "telemetry records nothing to publish)"
            )
        if status_path is None and port is None:
            raise ConfigurationError("a run monitor needs a status file, an HTTP port, or both")
        if interval <= 0:
            raise ConfigurationError(f"monitor interval must be positive, got {interval}")
        if total is not None and total < 0:
            raise ConfigurationError(f"monitor total must be non-negative, got {total}")
        if recent_events < 1:
            raise ConfigurationError(f"monitor recent_events must be positive, got {recent_events}")
        if not 0.0 < ewma_alpha <= 1.0:
            raise ConfigurationError(f"monitor ewma_alpha must be in (0, 1], got {ewma_alpha}")
        self._telemetry = telemetry
        self._status_path = Path(status_path) if status_path is not None else None
        self._requested_port = port
        self._host = host
        self._interval = float(interval)
        self._unit = unit
        self._total = total
        self._done_metrics = tuple(done_metrics)
        self._best_metric = best_metric
        self._ewma_alpha = ewma_alpha
        self._events: deque[dict[str, Any]] = deque(maxlen=recent_events)
        self._events_lock = threading.Lock()
        # One pinned bound method: taps detach by identity, and accessing
        # ``self._observe_event`` twice yields two distinct method objects.
        self._tap = self._observe_event
        self._best_strategy: Optional[str] = None
        self._started_at: Optional[float] = None
        self._finalized = False
        self._ewma_rate: Optional[float] = None
        self._last_done: Optional[float] = None
        self._last_tick: Optional[float] = None
        self._server: Optional[ThreadingHTTPServer] = None
        self._server_thread: Optional[threading.Thread] = None

    # -- introspection ----------------------------------------------------

    @property
    def telemetry(self) -> Telemetry:
        """The handle this monitor observes."""
        return self._telemetry

    @property
    def status_path(self) -> Optional[Path]:
        """Where snapshots are written (None = HTTP only)."""
        return self._status_path

    @property
    def port(self) -> Optional[int]:
        """The bound HTTP port once started (None without a server)."""
        if self._server is None:
            return None
        return self._server.server_address[1]

    @property
    def running(self) -> bool:
        """True between :meth:`start` and :meth:`stop`."""
        return self._started_at is not None and not self._finalized

    # -- lifecycle --------------------------------------------------------

    def start(self) -> "RunMonitor":
        """Join the shared ticker (and start the HTTP server, if a port was given)."""
        if self._started_at is not None:
            raise ConfigurationError("run monitor already started")
        self._telemetry.add_event_tap(self._tap)
        self._started_at = time.monotonic()
        self._last_tick = self._started_at
        self._last_done = self._done_count()
        if self._requested_port is not None:
            handler = partial(_MonitorRequestHandler, self)
            self._server = ThreadingHTTPServer((self._host, self._requested_port), handler)
            self._server.daemon_threads = True
            self._server_thread = threading.Thread(
                target=self._server.serve_forever, name="repro-monitor-http", daemon=True
            )
            self._server_thread.start()
        _TICKER.register(self)
        return self

    def stop(self) -> None:
        """Stop publishing: final snapshot (``final: true``), server down (idempotent).

        Returns after the final snapshot is written; no periodic snapshot of
        this monitor is written after that.
        """
        if self._finalized:
            return
        self._finalized = True
        _TICKER.unregister(self)
        try:
            self._update_throughput()
            self._publish(final=True)
        except Exception:  # pragma: no cover - defensive: stop must not raise
            logger.exception("run monitor failed to write its final snapshot")
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
            self._server = None
            if self._server_thread is not None:
                self._server_thread.join(timeout=5.0)
                self._server_thread = None
        self._telemetry.remove_event_tap(self._tap)

    def __enter__(self) -> "RunMonitor":
        if self._started_at is None:
            self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # -- the periodic tick -------------------------------------------------

    def _tick(self) -> None:
        """One periodic snapshot — called from the shared ticker thread only."""
        try:
            self._update_throughput()
            self._publish(final=False)
        except Exception:  # noqa: BLE001 - an observer must never kill the run
            logger.exception("run monitor tick failed; continuing")

    def _observe_event(self, event: TelemetryEvent) -> None:
        record = event.to_dict()
        with self._events_lock:
            self._events.append(record)
            if event.kind == "best-candidate-improved":
                self._best_strategy = record.get("strategy")

    def _done_count(self, counters: Optional[dict[str, float]] = None) -> float:
        if counters is None:
            counters = self._telemetry.snapshot()["counters"]
        return float(sum(counters.get(name, 0) for name in self._done_metrics))

    def _update_throughput(self) -> None:
        """Advance the EWMA rate — called from the tick thread only."""
        now = time.monotonic()
        done = self._done_count()
        if self._last_tick is not None and self._last_done is not None:
            elapsed = now - self._last_tick
            if elapsed > 0:
                rate = max(0.0, (done - self._last_done) / elapsed)
                if self._ewma_rate is None:
                    self._ewma_rate = rate
                else:
                    self._ewma_rate = (
                        self._ewma_alpha * rate + (1.0 - self._ewma_alpha) * self._ewma_rate
                    )
        self._last_tick = now
        self._last_done = done

    def _publish(self, final: bool) -> None:
        if self._status_path is None:
            return
        document = self._build_status(final=final)
        target = self._status_path
        target.parent.mkdir(parents=True, exist_ok=True)
        scratch = target.with_name(target.name + ".tmp")
        scratch.write_text(
            json.dumps(document, sort_keys=True, default=str) + "\n", encoding="utf-8"
        )
        # Atomic replace: a reader sees either the previous snapshot or this
        # one in full, never a partial write.
        os.replace(scratch, target)

    # -- the status document ----------------------------------------------

    def status(self) -> dict[str, Any]:
        """The current status document (what ``/status`` serves)."""
        return self._build_status(final=self._finalized)

    def _build_status(self, final: bool) -> dict[str, Any]:
        snapshot = self._telemetry.snapshot()
        counters = snapshot["counters"]
        gauges = snapshot["gauges"]
        done = self._done_count(counters)
        fraction = done / self._total if self._total else None
        rate = self._ewma_rate
        eta = None
        if self._total is not None and rate is not None and rate > 0:
            eta = max(0.0, (self._total - done) / rate)
        best: Optional[dict[str, Any]] = None
        if self._best_metric is not None:
            with self._events_lock:
                strategy = self._best_strategy
            score = gauges.get(self._best_metric)
            if score is not None or strategy is not None:
                best = {"score": score, "strategy": strategy}
        with self._events_lock:
            recent = list(self._events)
        elapsed = time.monotonic() - self._started_at if self._started_at is not None else 0.0
        return {
            "schema": STATUS_SCHEMA,
            "written_unix_s": time.time(),
            "elapsed_s": elapsed,
            "final": final,
            "unit": self._unit,
            "progress": {"done": done, "total": self._total, "fraction": fraction},
            "throughput": {"ewma_per_s": rate, "eta_s": eta},
            "best": best,
            "workers": {
                "restarts": counters.get("pool.worker_restarts", 0),
                "processes_seen": gauges.get("pool.worker_processes_seen", 0),
                "chunks_completed": counters.get("worker.chunks_completed", 0),
                "trials_executed": counters.get("worker.trials_executed", 0),
                "rounds_simulated": counters.get("worker.rounds_simulated", 0),
                "scalar_trials": counters.get("worker.scalar_trials", 0),
                "batch_trials": counters.get("worker.batch_trials", 0),
            },
            "recent_events": recent,
            "metrics": snapshot,
        }

    def events_tail(self, limit: Optional[int] = None) -> str:
        """The sink's stream (rotation-stitched) as JSONL text, last ``limit``."""
        sink = self._telemetry.sink
        if sink is None or sink.closed:
            raise ConfigurationError(
                "no live event sink attached (run with --telemetry to enable /events)"
            )
        sink.flush()
        records = read_jsonl_events(sink.path)
        if limit is not None:
            records = records[-limit:]
        return "".join(json.dumps(record, sort_keys=True) + "\n" for record in records)


class _Ticker:
    """The one daemon thread that ticks every live :class:`RunMonitor`.

    A registered monitor is due ``interval`` seconds after it registers and
    then ``interval`` seconds after each of its ticks ends.  The thread
    starts with the first registration and then lives as long as the
    process, asleep while no monitor is registered.
    """

    def __init__(self) -> None:
        self._condition = threading.Condition()
        self._due: dict[RunMonitor, float] = {}
        self._ticking: Optional[RunMonitor] = None
        self._thread: Optional[threading.Thread] = None

    def register(self, monitor: RunMonitor) -> None:
        with self._condition:
            self._due[monitor] = time.monotonic() + monitor._interval
            if self._thread is None:
                self._thread = threading.Thread(target=self._run, name="repro-monitor", daemon=True)
                self._thread.start()
            self._condition.notify_all()

    def unregister(self, monitor: RunMonitor) -> None:
        """Drop ``monitor``; returns once no tick of it is in flight."""
        with self._condition:
            self._due.pop(monitor, None)
            self._condition.wait_for(lambda: self._ticking is not monitor)

    def _run(self) -> None:
        with self._condition:
            while True:
                if not self._due:
                    self._condition.wait()
                    continue
                monitor = min(self._due, key=self._due.__getitem__)
                delay = self._due[monitor] - time.monotonic()
                if delay > 0:
                    self._condition.wait(delay)
                    continue
                # Tick outside the lock, so start() and stop() of other
                # monitors never wait on this one's snapshot write.
                self._ticking = monitor
                self._condition.release()
                try:
                    monitor._tick()
                finally:
                    self._condition.acquire()
                    self._ticking = None
                    self._condition.notify_all()
                if monitor in self._due:
                    self._due[monitor] = time.monotonic() + monitor._interval


#: The process's ticker.  Its thread starts with the first monitor, never on import.
_TICKER = _Ticker()


class _MonitorRequestHandler(BaseHTTPRequestHandler):
    """Read-only endpoints, one handler thread per request (ThreadingHTTPServer)."""

    server_version = "repro-monitor/1"

    def __init__(self, monitor: RunMonitor, *args: Any, **kwargs: Any) -> None:
        self._monitor = monitor
        # BaseHTTPRequestHandler handles the request inside __init__, so the
        # monitor reference must land first.
        super().__init__(*args, **kwargs)

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        logger.debug("monitor http: %s", format % args)

    def do_GET(self) -> None:  # noqa: N802 - http.server's naming contract
        parts = urlsplit(self.path)
        route = parts.path.rstrip("/") or "/"
        try:
            if route in ("/", "/status"):
                body = (
                    json.dumps(self._monitor.status(), sort_keys=True, default=str) + "\n"
                ).encode("utf-8")
                content_type = "application/json"
            elif route == "/metrics":
                body = render_prometheus(self._monitor.telemetry.registry).encode("utf-8")
                content_type = "text/plain; version=0.0.4; charset=utf-8"
            elif route == "/events":
                limit = self._tail_limit(parts.query)
                body = self._monitor.events_tail(limit).encode("utf-8")
                content_type = "application/x-ndjson"
            else:
                self.send_error(404, "unknown endpoint (try /status, /metrics, /events)")
                return
        except ConfigurationError as error:
            self.send_error(404, str(error))
            return
        except Exception:  # noqa: BLE001 - a broken handler must not kill the server
            logger.exception("monitor endpoint %s failed", route)
            self.send_error(500, "monitor endpoint failed (see run logs)")
            return
        self.send_response(200)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    @staticmethod
    def _tail_limit(query: str) -> Optional[int]:
        values = parse_qs(query).get("n")
        if not values:
            return None
        try:
            return max(1, int(values[-1]))
        except ValueError:
            return None


# -- the watch side (files or URLs) -------------------------------------------


def validate_status(document: Any) -> dict[str, Any]:
    """Check a parsed status document against :data:`STATUS_SCHEMA`; return it."""
    if not isinstance(document, dict):
        raise ConfigurationError(
            f"status document must be a JSON object, got {type(document).__name__}"
        )
    schema = document.get("schema")
    if schema != STATUS_SCHEMA:
        raise ConfigurationError(
            f"unsupported status schema {schema!r} (this build reads {STATUS_SCHEMA!r})"
        )
    missing = [name for name in _REQUIRED_FIELDS if name not in document]
    if missing:
        raise ConfigurationError(f"status document is missing fields: {', '.join(missing)}")
    return document


def read_status(target: Union[str, Path], timeout: float = 5.0) -> dict[str, Any]:
    """Load and validate a status document from a file path or a monitor URL.

    URL targets may point at the monitor base (``http://host:port``) or
    straight at ``/status``.  File targets are read whole — safe against
    tearing because the monitor replaces them atomically.
    """
    text = str(target)
    if text.startswith(("http://", "https://")):
        url = text if text.rstrip("/").endswith("/status") else text.rstrip("/") + "/status"
        with urllib.request.urlopen(url, timeout=timeout) as response:
            payload = response.read().decode("utf-8")
        return validate_status(json.loads(payload))
    return validate_status(json.loads(Path(target).read_text(encoding="utf-8")))


def _format_duration(seconds: float) -> str:
    value = max(0, int(round(seconds)))
    hours, remainder = divmod(value, 3600)
    minutes, secs = divmod(remainder, 60)
    if hours:
        return f"{hours}h{minutes:02d}m"
    if minutes:
        return f"{minutes}m{secs:02d}s"
    return f"{secs}s"


def render_status_line(document: dict[str, Any]) -> str:
    """One human-readable progress line for a status document."""
    progress = document.get("progress") or {}
    throughput = document.get("throughput") or {}
    workers = document.get("workers") or {}
    unit = document.get("unit", "units")
    done = progress.get("done", 0)
    total = progress.get("total")
    fraction = progress.get("fraction")
    parts: list[str] = []
    if total:
        label = f"{done:g}/{total:g} {unit}"
        if fraction is not None:
            label += f" ({fraction:.1%})"
        parts.append(label)
    else:
        parts.append(f"{done:g} {unit}")
    rate = throughput.get("ewma_per_s")
    parts.append(f"{rate:.2f} {unit}/s" if rate is not None else "rate n/a")
    eta = throughput.get("eta_s")
    if eta is not None:
        parts.append(f"ETA {_format_duration(eta)}")
    restarts = workers.get("restarts", 0)
    if restarts:
        parts.append(f"{restarts:g} worker restart(s)")
    best = document.get("best")
    if best:
        score = best.get("score")
        strategy = best.get("strategy")
        label = "best n/a" if score is None else f"best {score:g}"
        if strategy:
            label += f" ({strategy})"
        parts.append(label)
    if document.get("final"):
        parts.append("final")
    elapsed = document.get("elapsed_s")
    if elapsed is not None:
        parts.append(f"up {_format_duration(elapsed)}")
    return " | ".join(parts)
