"""A blocking line-protocol client for the campaign service.

:class:`ServiceClient` speaks the service's newline-delimited-JSON protocol
over one TCP connection: every request is one JSON line, every response one
JSON line back (``watch`` streams many).  It is deliberately synchronous —
the asyncio lives on the server; clients are scripts, tests, and the
``repro client`` CLI, none of which want an event loop.  ``watch`` streams a
job's progress records; ``wait`` answers once, with the final one.

Connection endpoints come either from an explicit ``host``/``port`` or from
the announce file a service started with ``--announce`` (or ``port=0``)
writes — see :func:`connect_from_announce`.
"""

from __future__ import annotations

import json
import random
import socket
import time
from pathlib import Path
from typing import Any, Iterator, Optional

from repro.exceptions import ConfigurationError, ReproError
from repro.service.protocol import JobRequest


class ServiceError(ReproError):
    """The service answered ``ok: false`` (the message is the server's).

    The full response line is kept on :attr:`response`, so callers can read
    machine markers like ``refused: "admission"`` (back-pressure, retry
    later) without parsing the human-facing message.
    """

    def __init__(self, message: str, response: Optional[dict[str, Any]] = None) -> None:
        super().__init__(message)
        self.response: dict[str, Any] = response if response is not None else {}


class ServiceClient:
    """One NDJSON conversation with a running :class:`CampaignService`.

    Usable as a context manager; the connection is one socket reused across
    requests, so a client sees its own requests answered in order.

    ``connect_retries`` re-attempts the initial TCP connect with jittered
    exponential backoff (base ``connect_backoff`` seconds, doubling per
    attempt), absorbing the race where the service process is up but has not
    bound its port yet.  The default of zero keeps connect failures
    immediate for interactive use.
    """

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float = 60.0,
        *,
        connect_retries: int = 0,
        connect_backoff: float = 0.2,
    ) -> None:
        if connect_retries < 0:
            raise ConfigurationError(
                f"connect_retries must be non-negative, got {connect_retries}"
            )
        if connect_backoff <= 0:
            raise ConfigurationError(
                f"connect_backoff must be positive, got {connect_backoff:g}"
            )
        self._sock = self._connect(host, port, timeout, connect_retries, connect_backoff)
        self._file = self._sock.makefile("rwb")

    @staticmethod
    def _connect(
        host: str, port: int, timeout: float, retries: int, backoff: float
    ) -> socket.socket:
        for attempt in range(retries + 1):
            try:
                return socket.create_connection((host, port), timeout=timeout)
            except OSError:
                if attempt >= retries:
                    raise
                # Full jitter keeps a stampede of clients from re-knocking in
                # lockstep; the cap only bounds the *base*, not total wait.
                delay = backoff * (2**attempt)
                time.sleep(delay * (0.5 + random.random() / 2))
        raise AssertionError("unreachable")  # pragma: no cover

    def close(self) -> None:
        """Close the connection (idempotent)."""
        try:
            self._file.close()
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- the wire ----------------------------------------------------------

    def request(self, doc: dict[str, Any]) -> dict[str, Any]:
        """One request line out, one response line back (raises on ``ok: false``)."""
        self._send(doc)
        return self._expect_ok(self._readline())

    def _send(self, doc: dict[str, Any]) -> None:
        self._file.write(json.dumps(doc).encode("utf-8") + b"\n")
        self._file.flush()

    def _readline(self) -> dict[str, Any]:
        line = self._file.readline()
        if not line:
            raise ServiceError("the service closed the connection")
        return json.loads(line)

    @staticmethod
    def _expect_ok(response: dict[str, Any]) -> dict[str, Any]:
        if not response.get("ok"):
            raise ServiceError(
                response.get("error", "service refused the request"), response=response
            )
        return response

    # -- ops ---------------------------------------------------------------

    def ping(self) -> dict[str, Any]:
        """Service liveness + queue depth."""
        return self.request({"op": "ping"})

    def submit(self, request: JobRequest, wait: bool = False) -> dict[str, Any]:
        """Submit one job; with ``wait=True``, block until it is terminal.

        Returns the submit response (``job``, ``state``); when waiting, the
        job's final record — the one :meth:`watch` ends with, normally the
        ``job-finished`` record carrying the result summary — is merged in
        under ``"finished"``.  Waiting is one :meth:`wait` request and one
        reply, however many progress records the job emits.
        """
        response = self.request({"op": "submit", "request": request.to_dict()})
        if wait:
            response = dict(response)
            response["finished"] = self.wait(response["job"])
        return response

    def wait(self, job: str) -> dict[str, Any]:
        """Block until a job is terminal and return its final record.

        The record is the last one :meth:`watch` would yield: ``job-finished``
        for a job that ran or was cancelled, or the ``service-stopping``
        sentinel if the service shut down first.  The reply comes when the
        job ends, so the connection's timeout does not apply to it; an
        unknown job is refused with :class:`ServiceError`.
        """
        self._send({"op": "wait", "job": job})
        timeout = self._sock.gettimeout()
        self._sock.settimeout(None)
        try:
            response = self._expect_ok(self._readline())
        finally:
            self._sock.settimeout(timeout)
        return response["finished"]

    def jobs(self) -> list[dict[str, Any]]:
        """Every job the service knows about."""
        return self.request({"op": "jobs"})["jobs"]

    def status(self, job: Optional[str] = None) -> dict[str, Any]:
        """A job's status document (RunMonitor schema), or the service's."""
        doc: dict[str, Any] = {"op": "status"}
        if job is not None:
            doc["job"] = job
        return self.request(doc)["status"]

    def watch(self, job: str) -> Iterator[dict[str, Any]]:
        """Yield a job's progress records (backlog, then live) until final.

        The stream ends with the record whose ``final`` field is true — for
        a completed job that is the ``job-finished`` record carrying the
        result summary.  A watch owns its connection until that record
        arrives; issue concurrent ops (e.g. a cancel) over a second client.
        """
        self._send({"op": "watch", "job": job})
        self._expect_ok(self._readline())
        while True:
            line = self._readline()
            record = line.get("event")
            if record is None:
                raise ServiceError(f"malformed watch line: {line}")
            yield record
            if record.get("final"):
                return

    def cancel(self, job: str) -> dict[str, Any]:
        """Cancel a job (queued → withdrawn now; running → next commit)."""
        return self.request({"op": "cancel", "job": job})

    def store_status(self, store: str) -> dict[str, Any]:
        """Read-only store query served from the WAL store mid-run."""
        return self.request({"op": "store-status", "store": store})

    def shutdown(self) -> dict[str, Any]:
        """Ask the service to stop gracefully (running job stays resumable)."""
        return self.request({"op": "shutdown"})


def read_announce(path: str | Path, timeout: float = 10.0) -> dict[str, Any]:
    """Read a service announce file, waiting up to ``timeout`` for it to appear.

    Services started with ``port=0`` bind an ephemeral port and only then
    write the file, so 'wait for the file' is the startup handshake.
    """
    target = Path(path)
    deadline = time.monotonic() + timeout
    while True:
        if target.exists():
            try:
                doc = json.loads(target.read_text())
            except (OSError, json.JSONDecodeError):
                doc = None
            if isinstance(doc, dict) and "port" in doc:
                return doc
        if time.monotonic() >= deadline:
            raise ConfigurationError(
                f"no service announce file at {target} after {timeout:g}s "
                "(is the service running with --announce?)"
            )
        time.sleep(0.05)


def connect_from_announce(
    path: str | Path,
    timeout: float = 10.0,
    *,
    connect_retries: int = 0,
    connect_backoff: float = 0.2,
) -> ServiceClient:
    """A connected client from an announce file (the ``--connect`` path)."""
    doc = read_announce(path, timeout=timeout)
    return ServiceClient(
        str(doc.get("host", "127.0.0.1")),
        int(doc["port"]),
        connect_retries=connect_retries,
        connect_backoff=connect_backoff,
    )
