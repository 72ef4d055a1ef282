"""The process-local metrics registry: counters, gauges, histograms.

Instruments are deliberately minimal — no labels, no global state, no wire
protocol.  A :class:`MetricsRegistry` is a named bag of three instrument
kinds:

* :class:`Counter` — a monotonically increasing total (chunks dispatched,
  cells committed, worker restarts);
* :class:`Gauge` — a value that goes both ways (in-flight chunk queue depth,
  the best search score so far, end-of-run rates);
* :class:`Histogram` — fixed-bucket cumulative counts plus sum/count (per-cell
  commit latency, span durations).  Buckets are pinned at construction, so
  two snapshots of the same registry are always comparable.

The **disabled path costs nothing**: when telemetry is off, every lookup
returns one of three shared no-op singletons (:data:`NULL_COUNTER`,
:data:`NULL_GAUGE`, :data:`NULL_HISTOGRAM`) whose mutating methods are empty
— no allocation, no locking, no branching beyond the method call itself.
The overhead gate in ``benchmarks/test_telemetry_overhead.py`` pins that
per-call cost.

Live instruments take a small lock per mutation: updates can arrive from
executor done-callbacks (the pool's queue-depth gauge), and a torn
``+=`` under free-threading would corrupt totals silently.  Orchestration
code calls these O(1) times per chunk/cell/evaluation — never per round — so
the lock is off the hot path by construction.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from dataclasses import dataclass
from operator import add
from typing import Iterator, Optional, Sequence, Union

from repro.exceptions import ConfigurationError

#: Default histogram buckets for durations in seconds: micro-cells through
#: multi-second campaign phases.  The implicit +Inf bucket is always last.
DEFAULT_SECONDS_BUCKETS: tuple[float, ...] = (
    0.001,
    0.005,
    0.01,
    0.05,
    0.1,
    0.5,
    1.0,
    5.0,
    10.0,
    60.0,
)

#: The pinned bucket bounds every :class:`WorkerStatsDelta` histogram is
#: recorded against.  Workers ship raw per-bucket counts (not observations),
#: so both sides of the process boundary must agree on the bounds; sharing
#: one constant keeps them in lockstep by construction, and
#: :meth:`MetricsRegistry.merge_delta` re-checks the length on every merge.
WORKER_SECONDS_BUCKETS: tuple[float, ...] = DEFAULT_SECONDS_BUCKETS

#: The bucket counts of one observation, by the slot it lands in: every
#: :class:`WorkerStatsDelta` shares one of these tuples.
_ONE_OBSERVATION: tuple[tuple[int, ...], ...] = tuple(
    tuple(int(slot == index) for slot in range(len(WORKER_SECONDS_BUCKETS) + 1))
    for index in range(len(WORKER_SECONDS_BUCKETS) + 1)
)


@dataclass(frozen=True, slots=True)
class WorkerStatsDelta:
    """Plain, picklable per-chunk execution stats a worker ships back.

    This is the only telemetry-adjacent thing that crosses the worker-process
    boundary: pure data (no handles, locks, or file descriptors), piggybacked
    on each chunk result and folded into the parent's registry by
    :meth:`MetricsRegistry.merge_delta`.  All fields are deltas relative to
    the previous chunk except ``pid``/``uptime_s``, which identify the worker
    process and how long it had been executing work when the chunk finished.
    """

    pid: int
    uptime_s: float
    chunks: int
    trials: int
    rounds: int
    scalar_trials: int
    batch_trials: int
    simulate_seconds_sum: float
    simulate_seconds_count: int
    #: Non-cumulative counts per :data:`WORKER_SECONDS_BUCKETS` bound, with
    #: the trailing +Inf slot — same layout as :meth:`Histogram.bucket_counts`.
    simulate_seconds_buckets: tuple[int, ...]

    @classmethod
    def for_chunk(
        cls,
        *,
        pid: int,
        uptime_s: float,
        trials: int,
        rounds: int,
        batch_trials: int,
        seconds: float,
    ) -> "WorkerStatsDelta":
        """The delta one finished chunk contributes (one histogram observation).

        ``batch_trials`` of the chunk's ``trials`` ran on the lockstep kernel;
        the rest ran on the scalar loop.

        The observation lands in the first bucket whose bound is at least
        ``seconds``, or in the +Inf slot.  Every worker chunk builds one, so
        it passes the fields by position and shares its bucket counts.
        """
        return cls(
            pid,
            uptime_s,
            1,
            trials,
            rounds,
            trials - batch_trials,
            batch_trials,
            seconds,
            1,
            _ONE_OBSERVATION[bisect_left(WORKER_SECONDS_BUCKETS, seconds)],
        )


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("name", "help", "_value", "_lock")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: Union[int, float] = 1) -> None:
        """Add ``amount`` (must be non-negative) to the total."""
        if amount < 0:
            raise ConfigurationError(f"counter {self.name!r} cannot decrease (got {amount})")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        """The current total."""
        return self._value


class Gauge:
    """A point-in-time value that can move both ways."""

    __slots__ = ("name", "help", "_value", "_lock")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: Union[int, float]) -> None:
        """Replace the current value."""
        with self._lock:
            self._value = float(value)

    def inc(self, amount: Union[int, float] = 1) -> None:
        """Move the value up by ``amount``."""
        with self._lock:
            self._value += amount

    def dec(self, amount: Union[int, float] = 1) -> None:
        """Move the value down by ``amount``."""
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        """The current value."""
        return self._value


class Histogram:
    """Fixed-bucket cumulative histogram with sum and count.

    ``buckets`` are the finite upper bounds, strictly increasing; the +Inf
    bucket is implicit.  ``bucket_counts`` reports *non-cumulative* per-bucket
    counts (the exporter accumulates for the Prometheus text format).
    """

    __slots__ = ("name", "help", "buckets", "_counts", "_sum", "_count", "_lock")

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_SECONDS_BUCKETS,
    ) -> None:
        bounds = tuple(float(bound) for bound in buckets)
        if not bounds:
            raise ConfigurationError(f"histogram {name!r} needs at least one bucket bound")
        if any(later <= earlier for earlier, later in zip(bounds, bounds[1:])):
            raise ConfigurationError(
                f"histogram {name!r} bucket bounds must be strictly increasing, got {bounds}"
            )
        self.name = name
        self.help = help
        self.buckets = bounds
        self._counts = [0] * (len(bounds) + 1)  # final slot = +Inf
        self._sum = 0.0
        self._count = 0
        self._lock = threading.Lock()

    def observe(self, value: Union[int, float]) -> None:
        """Record one observation."""
        index = len(self.buckets)
        for position, bound in enumerate(self.buckets):
            if value <= bound:
                index = position
                break
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    def merge_counts(self, counts: Sequence[int], total: float, count: int) -> None:
        """Fold pre-bucketed observations in (the worker-delta merge path).

        ``counts`` must use this histogram's exact bucket layout (one slot per
        finite bound plus the trailing +Inf slot); merging is additive and
        therefore order-independent.
        """
        if len(counts) != len(self._counts):
            raise ConfigurationError(
                f"histogram {self.name!r} has {len(self._counts)} bucket slots "
                f"(including +Inf); cannot merge {len(counts)} counts"
            )
        if count < 0 or min(counts) < 0:
            raise ConfigurationError(f"histogram {self.name!r} merge counts must be non-negative")
        with self._lock:
            self._counts = list(map(add, self._counts, counts))
            self._sum += total
            self._count += count

    @property
    def sum(self) -> float:
        """Sum of every observed value."""
        return self._sum

    @property
    def count(self) -> int:
        """Number of observations."""
        return self._count

    def bucket_counts(self) -> tuple[int, ...]:
        """Per-bucket (non-cumulative) counts; the last entry is the +Inf bucket."""
        with self._lock:
            return tuple(self._counts)


class NullCounter:
    """The shared do-nothing counter every disabled lookup returns."""

    __slots__ = ()
    name = ""
    help = ""

    def inc(self, amount: Union[int, float] = 1) -> None:
        """Discard the update."""

    @property
    def value(self) -> float:
        """Always zero."""
        return 0.0


class NullGauge:
    """The shared do-nothing gauge every disabled lookup returns."""

    __slots__ = ()
    name = ""
    help = ""

    def set(self, value: Union[int, float]) -> None:
        """Discard the update."""

    def inc(self, amount: Union[int, float] = 1) -> None:
        """Discard the update."""

    def dec(self, amount: Union[int, float] = 1) -> None:
        """Discard the update."""

    @property
    def value(self) -> float:
        """Always zero."""
        return 0.0


class NullHistogram:
    """The shared do-nothing histogram every disabled lookup returns."""

    __slots__ = ()
    name = ""
    help = ""
    buckets: tuple[float, ...] = ()

    def observe(self, value: Union[int, float]) -> None:
        """Discard the observation."""

    @property
    def sum(self) -> float:
        """Always zero."""
        return 0.0

    @property
    def count(self) -> int:
        """Always zero."""
        return 0

    def bucket_counts(self) -> tuple[int, ...]:
        """Always empty."""
        return ()


#: The process-wide no-op instruments.  Disabled telemetry hands these out for
#: *every* name, so the off path allocates nothing per call site — the no-op
#: fast-path tests pin the identity.
NULL_COUNTER = NullCounter()
NULL_GAUGE = NullGauge()
NULL_HISTOGRAM = NullHistogram()

#: What a registry lookup can return (the null variants come from disabled
#: telemetry handles, never from a live registry).
AnyCounter = Union[Counter, NullCounter]
AnyGauge = Union[Gauge, NullGauge]
AnyHistogram = Union[Histogram, NullHistogram]

_Instrument = Union[Counter, Gauge, Histogram]

#: What :meth:`MetricsRegistry.merge_delta` updates: the five ``worker.*``
#: counters, then the chunk-seconds histogram.
_WorkerInstruments = tuple[Counter, Counter, Counter, Counter, Counter, Histogram]


class MetricsRegistry:
    """A named, get-or-create collection of live instruments.

    Lookups are idempotent: asking for the same name again returns the same
    instrument, and asking for an existing name as a *different* instrument
    kind (or a histogram with different buckets) raises — a silent type
    change would corrupt every consumer of the snapshot.
    """

    def __init__(self) -> None:
        self._instruments: dict[str, _Instrument] = {}
        self._lock = threading.Lock()
        #: The ``worker.*`` instruments :meth:`merge_delta` updates, looked up
        #: on the first merge.  Instruments are never dropped or replaced, so
        #: the handles stay current.
        self._worker_instruments: Optional[_WorkerInstruments] = None

    def counter(self, name: str, help: str = "") -> Counter:
        """Get or create the counter called ``name``."""
        return self._get_or_create(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        """Get or create the gauge called ``name``."""
        return self._get_or_create(Gauge, name, help)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Optional[Sequence[float]] = None,
    ) -> Histogram:
        """Get or create the histogram called ``name``."""
        bounds = DEFAULT_SECONDS_BUCKETS if buckets is None else tuple(buckets)
        with self._lock:
            existing = self._instruments.get(name)
            if existing is None:
                created = Histogram(name, help=help, buckets=bounds)
                self._instruments[name] = created
                return created
            if not isinstance(existing, Histogram):
                raise ConfigurationError(
                    f"metric {name!r} is already registered as "
                    f"{type(existing).__name__.lower()}, not histogram"
                )
            if existing.buckets != tuple(float(bound) for bound in bounds):
                raise ConfigurationError(
                    f"histogram {name!r} is already registered with buckets "
                    f"{existing.buckets}, not {tuple(bounds)}"
                )
            return existing

    def _get_or_create(self, kind: type, name: str, help: str) -> _Instrument:
        with self._lock:
            existing = self._instruments.get(name)
            if existing is None:
                created: _Instrument = kind(name, help=help)
                self._instruments[name] = created
                return created
            if type(existing) is not kind:
                raise ConfigurationError(
                    f"metric {name!r} is already registered as "
                    f"{type(existing).__name__.lower()}, not {kind.__name__.lower()}"
                )
            return existing

    def merge_delta(self, delta: WorkerStatsDelta) -> None:
        """Fold one worker's chunk delta into the ``worker.*`` instruments.

        Deterministic and order-independent: every field is added, so merging
        the same multiset of deltas in any interleaving (any worker count, any
        chunk completion order) yields the same registry state.  The usual
        registry conflict checks apply — a ``worker.*`` name already
        registered as a different kind, or the histogram registered with other
        buckets, raises instead of silently corrupting the totals — and
        :meth:`Histogram.merge_counts` re-validates the delta's bucket layout.
        The lookups and their checks run on the first merge only; later merges
        reuse the same instruments.
        """
        instruments = self._worker_instruments
        if instruments is None:
            instruments = self._worker_instruments = (
                self.counter(
                    "worker.chunks_completed", help="chunks finished inside worker processes"
                ),
                self.counter(
                    "worker.trials_executed", help="trials executed inside worker processes"
                ),
                self.counter(
                    "worker.rounds_simulated", help="simulated rounds summed across worker trials"
                ),
                self.counter(
                    "worker.scalar_trials", help="worker trials run on the scalar per-seed loop"
                ),
                self.counter(
                    "worker.batch_trials",
                    help="worker trials run on the vectorized lockstep kernel",
                ),
                self.histogram(
                    "worker.chunk_simulate_seconds",
                    help="in-worker wall time per executed chunk",
                    buckets=WORKER_SECONDS_BUCKETS,
                ),
            )
        chunks, trials, rounds, scalar_trials, batch_trials, seconds = instruments
        chunks.inc(delta.chunks)
        trials.inc(delta.trials)
        rounds.inc(delta.rounds)
        scalar_trials.inc(delta.scalar_trials)
        batch_trials.inc(delta.batch_trials)
        seconds.merge_counts(
            delta.simulate_seconds_buckets,
            delta.simulate_seconds_sum,
            delta.simulate_seconds_count,
        )

    def instruments(self) -> Iterator[_Instrument]:
        """Every registered instrument, in name order (stable exports)."""
        with self._lock:
            snapshot = dict(self._instruments)
        for name in sorted(snapshot):
            yield snapshot[name]

    def __len__(self) -> int:
        return len(self._instruments)

    def __contains__(self, name: str) -> bool:
        return name in self._instruments
