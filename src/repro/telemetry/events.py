"""Typed structured events and the buffered JSONL sink.

Every observable milestone of the execution stack is a frozen dataclass with
a pinned ``kind`` string: run/campaign/search lifecycle, per-chunk pool
dispatch, per-cell campaign commits, worker-crash recovery, the serial
fallback for unpicklable work, optimizer generations, and
completed timing spans.  Events carry **monotonic** timestamps
(:func:`time.monotonic`, seconds since an arbitrary process-local origin):
deltas between two events of one process are meaningful; absolute values are
not, and wall-clock jumps can never reorder a stream.

The sink is line-delimited JSON (one event per line), buffered so that a
campaign committing thousands of cells does not pay a write syscall per
event.  Emission order is the stream order: each record gets a process-local
``seq`` number at emit time, so a consumer can detect truncation and merge
streams deterministically.

Events never feed back into execution: a simulation with a sink attached
produces byte-identical stores, checkpoints, and digests (pinned by the
golden-equivalence suite) — the stream is a one-way export.
"""

from __future__ import annotations

import copy
import functools
import json
import os
import threading
import time
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, ClassVar, IO, Mapping, Optional, Union

from repro.exceptions import ConfigurationError


def _monotonic() -> float:
    return time.monotonic()


@dataclass(frozen=True)
class TelemetryEvent:
    """Base event: a ``kind`` discriminator plus a monotonic timestamp.

    Subclasses pin ``kind`` as a ClassVar; the timestamp is captured at
    construction (not at emit), so a span's completion event carries the
    moment the span closed even if the sink flushes much later.
    """

    kind: ClassVar[str] = "event"
    monotonic_s: float = field(default_factory=_monotonic, kw_only=True)

    def to_dict(self) -> dict[str, Any]:
        """The JSON-serializable record (``kind`` first, fields after).

        Equal to ``{"kind": ..., **dataclasses.asdict(self)}``, in one walk
        over the fields: scalars go in as they are, and containers (a span's
        ``attributes``) are copied, so a record never aliases event state.
        """
        payload: dict[str, Any] = {"kind": self.kind}
        for name in _field_names(type(self)):
            payload[name] = _copied(getattr(self, name))
        return payload


#: Field values a record takes as they are: immutable, and ``asdict`` would
#: only hand them back.
_SCALARS = frozenset({str, int, float, bool, type(None)})


@functools.cache
def _field_names(event_type: type) -> tuple[str, ...]:
    """An event class's field names, in declaration order (computed once per class)."""
    return tuple(item.name for item in fields(event_type))


def _copied(value: Any) -> Any:
    """``value`` with its dicts, lists and tuples copied, as ``asdict`` copies them."""
    if type(value) in _SCALARS:
        return value
    if isinstance(value, dict):
        return type(value)((_copied(key), _copied(item)) for key, item in value.items())
    if isinstance(value, (list, tuple)):
        return type(value)(_copied(item) for item in value)
    return copy.deepcopy(value)


# -- run lifecycle (the `trials` path) ----------------------------------------


@dataclass(frozen=True)
class RunStarted(TelemetryEvent):
    """A multi-seed trial batch began."""

    kind: ClassVar[str] = "run-started"
    protocol: str
    workload: str
    trials: int
    workers: int


@dataclass(frozen=True)
class RunCompleted(TelemetryEvent):
    """A multi-seed trial batch finished."""

    kind: ClassVar[str] = "run-completed"
    protocol: str
    workload: str
    trials: int
    seconds: float


# -- campaign lifecycle -------------------------------------------------------


@dataclass(frozen=True)
class CampaignStarted(TelemetryEvent):
    """A campaign run() invocation began executing its pending cells."""

    kind: ClassVar[str] = "campaign-started"
    campaign: str
    total_cells: int
    pending_cells: int
    reused_cells: int
    workers: int


@dataclass(frozen=True)
class CellCommitted(TelemetryEvent):
    """One campaign cell's trials were committed atomically to the store."""

    kind: ClassVar[str] = "cell-committed"
    campaign: str
    cell_key: str
    trials: int
    seconds: float


@dataclass(frozen=True)
class CampaignCompleted(TelemetryEvent):
    """A campaign run() invocation finished (complete or capped)."""

    kind: ClassVar[str] = "campaign-completed"
    campaign: str
    executed: int
    reused: int
    remaining: int
    seconds: float
    cells_per_second: float


# -- search lifecycle ---------------------------------------------------------


@dataclass(frozen=True)
class SearchStarted(TelemetryEvent):
    """A strategy search run() invocation began."""

    kind: ClassVar[str] = "search-started"
    search: str
    optimizer: str
    population: int
    generations: int
    workers: int


@dataclass(frozen=True)
class GenerationCompleted(TelemetryEvent):
    """One optimizer generation (warm start included) was fully processed."""

    kind: ClassVar[str] = "generation-completed"
    search: str
    generation: int
    executed: int
    reused: int
    best_score: Optional[float]
    seconds: float


@dataclass(frozen=True)
class BestCandidateImproved(TelemetryEvent):
    """A search candidate beat the best score seen so far.

    Carries the genome's human-readable description, so a live monitor (and
    anyone tailing the stream) can show *which* strategy currently leads, not
    just its score.
    """

    kind: ClassVar[str] = "best-candidate-improved"
    search: str
    generation: int
    index: int
    score: float
    strategy: str
    key: str


@dataclass(frozen=True)
class SearchCompleted(TelemetryEvent):
    """A strategy search run() invocation finished (complete or capped)."""

    kind: ClassVar[str] = "search-completed"
    search: str
    executed: int
    reused: int
    evaluations_total: int
    best_score: Optional[float]
    seconds: float
    evaluations_per_second: float


# -- execution-pool events ----------------------------------------------------


@dataclass(frozen=True)
class ChunkDispatched(TelemetryEvent):
    """One chunk of seeds (or configs) was submitted to the worker pool."""

    kind: ClassVar[str] = "chunk-dispatched"
    chunk_index: int
    size: int
    reduce: bool
    inflight: int


@dataclass(frozen=True)
class WorkerCrashRecovered(TelemetryEvent):
    """A worker process died; the pool discarded its executor and will restart.

    ``pid``/``uptime_s`` identify which worker died and how long it had been
    alive (as observed by the pool), so repeated crashes of one short-lived
    worker read differently from a crash storm across the pool.  Both are
    ``None`` when the executor reaped its children before the pool could
    inspect them — detection is best-effort by nature.
    """

    kind: ClassVar[str] = "worker-crash-recovered"
    detail: str
    restarts: int
    pid: Optional[int] = None
    uptime_s: Optional[float] = None


@dataclass(frozen=True)
class ChunkRetried(TelemetryEvent):
    """Crashed chunks were re-dispatched on a fresh executor.

    One event per retry round: ``chunks`` counts how many chunks went back
    out together (a crash kills the whole executor, so every in-flight chunk
    fails and retries as a group), and ``attempt`` is the highest re-dispatch
    count among them (1 = first retry).
    """

    kind: ClassVar[str] = "chunk-retried"
    detail: str
    chunks: int
    attempt: int


@dataclass(frozen=True)
class FaultInjected(TelemetryEvent):
    """A fault-injection epoch was observed in one trial.

    Emitted per injection epoch when full per-round data is available
    (``round_index`` set, ``recovery_rounds`` for that epoch), or once per
    fault-injected trial in reduced paths (``round_index`` ``None``,
    ``recovery_rounds`` the trial's worst epoch).
    """

    kind: ClassVar[str] = "fault-injected"
    seed: int
    recovery_rounds: Optional[int]
    round_index: Optional[int] = None


@dataclass(frozen=True)
class SerialFallback(TelemetryEvent):
    """Unpicklable work degraded to in-process serial execution."""

    kind: ClassVar[str] = "serial-fallback"
    detail: Optional[str]


# -- spans --------------------------------------------------------------------


@dataclass(frozen=True)
class SpanCompleted(TelemetryEvent):
    """A timing span closed (see :mod:`repro.telemetry.spans`)."""

    kind: ClassVar[str] = "span-completed"
    name: str
    seconds: float
    depth: int
    parent: Optional[str]
    attributes: Mapping[str, Any]


#: Every event type, keyed by its pinned kind string (the on-disk schema —
#: renaming a kind is a breaking change for stream consumers).
EVENT_TYPES: dict[str, type[TelemetryEvent]] = {
    event_type.kind: event_type
    for event_type in (
        RunStarted,
        RunCompleted,
        CampaignStarted,
        CellCommitted,
        CampaignCompleted,
        SearchStarted,
        GenerationCompleted,
        BestCandidateImproved,
        SearchCompleted,
        ChunkDispatched,
        ChunkRetried,
        FaultInjected,
        WorkerCrashRecovered,
        SerialFallback,
        SpanCompleted,
    )
}


class JsonlSink:
    """A buffered line-delimited JSON event sink.

    Records are serialized eagerly (so an event mutated later — impossible
    for the frozen types, but cheap insurance — cannot rewrite history) and
    buffered; the buffer is written out every ``buffer_size`` events, on
    :meth:`flush`, and on :meth:`close`.  Each record gains a monotonically
    increasing ``seq`` field at emit time.

    With ``max_bytes`` set, the stream rotates: once a flush would push the
    current file past the limit, it is renamed to ``<path>.1`` (replacing any
    previous rotation) and a fresh file starts — disk usage stays bounded at
    roughly twice ``max_bytes`` however long the run lasts.  ``seq`` keeps
    counting across rotations, so the surviving window
    (:func:`read_jsonl_events` stitches ``<path>.1`` + ``<path>``) is still
    provably gapless; only events rotated out more than once are gone.

    Emission and flushing take a small lock: a live monitor's HTTP thread may
    flush the sink (to serve ``/events``) while the run thread is emitting.
    """

    def __init__(
        self,
        path: Union[str, Path],
        buffer_size: int = 256,
        max_bytes: Optional[int] = None,
    ) -> None:
        if buffer_size < 1:
            raise ConfigurationError(f"sink buffer_size must be positive, got {buffer_size}")
        if max_bytes is not None and max_bytes < 1:
            raise ConfigurationError(f"sink max_bytes must be positive, got {max_bytes}")
        self._path = Path(path)
        self._path.parent.mkdir(parents=True, exist_ok=True)
        self._handle: Optional[IO[str]] = self._path.open("w", encoding="utf-8")
        self._buffer: list[str] = []
        self._buffer_size = buffer_size
        self._max_bytes = max_bytes
        self._written = 0
        self._rotations = 0
        self._seq = 0
        self._lock = threading.Lock()

    @property
    def path(self) -> Path:
        """Where the stream is written."""
        return self._path

    @property
    def rotated_path(self) -> Path:
        """Where the previous rotation lives (may not exist yet)."""
        return self._path.with_name(self._path.name + ".1")

    @property
    def rotations(self) -> int:
        """How many times the stream has rotated."""
        return self._rotations

    @property
    def emitted(self) -> int:
        """How many events have been emitted (buffered or written)."""
        return self._seq

    @property
    def closed(self) -> bool:
        """True once :meth:`close` ran."""
        return self._handle is None

    def emit(self, event: TelemetryEvent) -> None:
        """Append one event to the stream (buffered)."""
        record = event.to_dict()
        with self._lock:
            if self._handle is None:
                raise ConfigurationError(f"event sink {self._path} is closed")
            record["seq"] = self._seq
            self._seq += 1
            self._buffer.append(json.dumps(record, sort_keys=True, default=str))
            if len(self._buffer) >= self._buffer_size:
                self._flush_locked()

    @property
    def buffered(self) -> int:
        """Events currently waiting in the buffer."""
        return len(self._buffer)

    def flush(self) -> None:
        """Write the buffer out (no-op when empty or closed)."""
        with self._lock:
            self._flush_locked()

    def _flush_locked(self) -> None:
        if self._handle is None or not self._buffer:
            return
        # json.dumps defaults to ASCII-only output, so character length is
        # byte length and the rotation check needs no extra encode pass.
        payload = "\n".join(self._buffer) + "\n"
        if (
            self._max_bytes is not None
            and self._written > 0
            and self._written + len(payload) > self._max_bytes
        ):
            self._rotate_locked()
        self._handle.write(payload)
        self._handle.flush()
        self._written += len(payload)
        self._buffer.clear()

    def _rotate_locked(self) -> None:
        assert self._handle is not None
        self._handle.close()
        os.replace(self._path, self.rotated_path)
        self._handle = self._path.open("w", encoding="utf-8")
        self._written = 0
        self._rotations += 1

    def close(self) -> None:
        """Flush and close the stream (idempotent)."""
        with self._lock:
            if self._handle is None:
                return
            self._flush_locked()
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def read_jsonl_events(path: Union[str, Path]) -> list[dict[str, Any]]:
    """Load a JSONL event stream back as dict records, in ``seq`` order.

    A convenience for tests and post-hoc analysis.  When the sink rotated
    (a ``<path>.1`` sibling exists), the rotated file is stitched in front of
    the current one and the combined window may start past zero; either way
    the sequence numbers must be gapless and consecutive — an unrotated
    stream must still be exactly ``0 .. n-1``.
    """
    main = Path(path)
    rotated = main.with_name(main.name + ".1")
    sources = ([rotated] if rotated.exists() else []) + [main]
    records: list[dict[str, Any]] = []
    for source in sources:
        with source.open("r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if line:
                    records.append(json.loads(line))
    sequence = [record.get("seq") for record in records]
    start = 0
    if rotated.exists() and sequence and isinstance(sequence[0], int):
        start = sequence[0]
    if sequence != list(range(start, start + len(records))):
        raise ConfigurationError(
            f"event stream {path} is not a gapless single-process stream "
            f"(seq numbers {sequence[:10]}...)"
        )
    return records
