"""Service-side job records and the admission-controlled priority queue.

A :class:`Job` wraps one accepted :class:`~repro.service.protocol.JobRequest`
with everything the service tracks about it: lifecycle state, a cooperative
cancellation flag (checked at cell/candidate commit boundaries, so a
cancelled job always leaves a clean resumable prefix), the buffered progress
records streamed to ``watch`` subscribers, and timestamps.

The :class:`JobQueue` is deliberately tiny and thread-safe rather than
asyncio-native: the asyncio front end enqueues from the event-loop thread and
the executor thread blocks on :meth:`JobQueue.pop`, so a plain
:class:`threading.Condition` is the whole coordination story.  Admission
control is a hard bound on *queued* jobs (running and finished ones are
free): past the bound, :meth:`JobQueue.offer` raises :class:`AdmissionError`
and the client gets an immediate refusal instead of unbounded buffering —
per-submission coordination stays O(1) no matter how many clients pile on.
Priorities are ``(-priority, seq)`` ordered: higher priority first,
submission order within a priority.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Optional

from repro.exceptions import ReproError
from repro.service.protocol import JobRequest


class AdmissionError(ReproError):
    """The queue refused a submission (admission control bound reached)."""


class JobCancelled(ReproError):
    """Raised inside the executor at a commit boundary of a cancelled job."""


class JobState(str, Enum):
    """Lifecycle of a service job."""

    QUEUED = "queued"
    RUNNING = "running"
    COMPLETED = "completed"
    FAILED = "failed"
    CANCELLED = "cancelled"

    @property
    def terminal(self) -> bool:
        """True once the job can never run again under this id."""
        return self in (JobState.COMPLETED, JobState.FAILED, JobState.CANCELLED)


@dataclass
class Job:
    """One accepted submission and everything the service tracks about it.

    The ``events`` buffer and ``subscribers`` set are owned by the service's
    event-loop thread, which serializes buffer appends against ``watch`` and
    ``wait`` subscriptions without a lock.  Other threads append records to
    ``pending`` under the service's lock, and the loop thread moves them into
    ``events`` in order.  Scalar fields (``state``,
    timestamps, ``error``, ``result``) are written by one thread at a time
    and read freely — torn reads are impossible for attribute rebinding.
    """

    id: str
    seq: int
    request: JobRequest
    state: JobState = JobState.QUEUED
    submitted_unix_s: float = field(default_factory=time.time)
    started_unix_s: Optional[float] = None
    finished_unix_s: Optional[float] = None
    error: Optional[str] = None
    result: Optional[dict[str, Any]] = None
    cancel_event: threading.Event = field(default_factory=threading.Event)
    events: list[dict[str, Any]] = field(default_factory=list)
    pending: list[dict[str, Any]] = field(default_factory=list)
    subscribers: set[Any] = field(default_factory=set)

    @property
    def sort_key(self) -> tuple[int, int]:
        """Queue order: higher priority first, then submission order."""
        return (-self.request.priority, self.seq)

    def summary(self) -> dict[str, Any]:
        """The job as one JSON-shaped row (the ``jobs`` op / service status)."""
        return {
            "job": self.id,
            "kind": self.request.kind,
            "name": self.request.name,
            "store": self.request.store,
            "state": self.state.value,
            "priority": self.request.priority,
            "limit": self.request.limit,
            "submitted_unix_s": self.submitted_unix_s,
            "started_unix_s": self.started_unix_s,
            "finished_unix_s": self.finished_unix_s,
            "error": self.error,
            "result": self.result,
        }


class JobQueue:
    """A bounded, priority-ordered, thread-safe job queue.

    Parameters
    ----------
    max_queued:
        Admission bound on jobs waiting to run (``None`` = unbounded).  The
        running job does not count — a bound of 1 means "one waiting while
        one runs".
    """

    def __init__(self, max_queued: Optional[int] = None) -> None:
        if max_queued is not None and max_queued < 1:
            raise AdmissionError(f"max_queued must be positive, got {max_queued}")
        self._max_queued = max_queued
        self._waiting: list[Job] = []
        self._closed = False
        self._condition = threading.Condition()

    def offer(self, job: Job) -> None:
        """Admit a job, or refuse with :class:`AdmissionError` (queue full/closed)."""
        with self._condition:
            if self._closed:
                raise AdmissionError("the service is shutting down; submission refused")
            if self._max_queued is not None and len(self._waiting) >= self._max_queued:
                raise AdmissionError(
                    f"admission refused: {len(self._waiting)} job(s) already queued "
                    f"(bound {self._max_queued}); retry later or raise --max-queued"
                )
            self._waiting.append(job)
            self._waiting.sort(key=lambda item: item.sort_key)
            self._condition.notify()

    def pop(self, timeout: Optional[float] = None) -> Optional[Job]:
        """Block for the highest-priority queued job; ``None`` on close/timeout."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._condition:
            while not self._waiting:
                if self._closed:
                    return None
                remaining = None if deadline is None else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    return None
                self._condition.wait(timeout=remaining)
            return self._waiting.pop(0)

    def withdraw(self, job: Job) -> bool:
        """Remove a still-queued job (cancellation); False if it already left."""
        with self._condition:
            try:
                self._waiting.remove(job)
            except ValueError:
                return False
            return True

    def close(self) -> None:
        """Refuse future offers and wake every blocked :meth:`pop` with ``None``."""
        with self._condition:
            self._closed = True
            self._condition.notify_all()

    @property
    def depth(self) -> int:
        """Jobs currently waiting."""
        with self._condition:
            return len(self._waiting)
