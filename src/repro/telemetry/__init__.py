"""Structured telemetry for the execution stack.

One :class:`Telemetry` handle bundles the three observability primitives —
typed events (:mod:`repro.telemetry.events`), a process-local metrics
registry (:mod:`repro.telemetry.metrics`), and nestable timing spans
(:mod:`repro.telemetry.spans`) — behind a single object that the CLI threads
down through :class:`~repro.engine.pool.ExecutionPool`,
:class:`~repro.campaigns.runner.CampaignRunner`,
:class:`~repro.search.runner.StrategySearch`, and the job service.

Two invariants the rest of the stack leans on:

* **Telemetry never changes results.**  Events, metrics, and spans are a
  one-way export: stores, search checkpoints, and
  :func:`~repro.engine.serialization.execution_digest` goldens are
  byte-identical with telemetry on or off (pinned by the golden-equivalence
  suite).  Handles live in the orchestrating process only — a worker never
  receives a telemetry object, lock, or file descriptor.  What *does* cross
  the boundary is plain data: each chunk result piggybacks a picklable
  :class:`~repro.telemetry.metrics.WorkerStatsDelta` that the parent folds
  into its own registry via
  :meth:`~repro.telemetry.metrics.MetricsRegistry.merge_delta` (see
  :mod:`repro.engine.pool`), so in-worker work is observable — live, via
  :mod:`repro.telemetry.monitor` — without shipping handles.
* **Off costs (almost) nothing.**  :data:`TELEMETRY_OFF` — the module-level
  disabled singleton every ``telemetry=None`` parameter resolves to via
  :func:`as_telemetry` — hands out shared no-op instruments and spans: no
  allocation, no locking, no I/O per call.  Instrumentation sits at
  orchestration boundaries (per chunk, per cell, per evaluation — never per
  simulated round), and ``benchmarks/test_telemetry_overhead.py`` gates the
  combined per-call × call-count budget at ≤2% of a small pooled campaign's
  runtime.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Callable, Optional, Union

from repro.exceptions import ConfigurationError

from repro.telemetry.events import JsonlSink, SpanCompleted, TelemetryEvent
from repro.telemetry.export import (
    registry_snapshot,
    render_prometheus,
    write_metrics_json,
    write_prometheus_text,
)
from repro.telemetry.metrics import (
    NULL_COUNTER,
    NULL_GAUGE,
    NULL_HISTOGRAM,
    AnyCounter,
    AnyGauge,
    AnyHistogram,
    MetricsRegistry,
)
from repro.telemetry.spans import NULL_SPAN, NullSpan, Span

__all__ = [
    "Telemetry",
    "DisabledTelemetry",
    "TELEMETRY_OFF",
    "as_telemetry",
    "JsonlSink",
    "MetricsRegistry",
    "registry_snapshot",
    "render_prometheus",
    "write_metrics_json",
    "write_prometheus_text",
]


class Telemetry:
    """A live telemetry handle: event stream + metrics registry + spans.

    Parameters
    ----------
    sink:
        Optional :class:`~repro.telemetry.events.JsonlSink` events are
        appended to.  Without one, events still count into the registry
        (``events.<kind>`` counters) but the full records are dropped.
    registry:
        The metrics registry instruments live in (a fresh one by default).
    """

    #: Discriminates live handles from :class:`DisabledTelemetry` without an
    #: isinstance check — hot call sites guard event construction on it.
    enabled: bool = True

    def __init__(
        self,
        sink: Optional[JsonlSink] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self._sink = sink
        self._registry = registry if registry is not None else MetricsRegistry()
        self._span_stack: list[str] = []
        self._taps: tuple[Callable[[TelemetryEvent], None], ...] = ()

    @classmethod
    def to_jsonl(cls, path: Union[str, Path], buffer_size: int = 256) -> "Telemetry":
        """A live handle streaming events to a buffered JSONL file."""
        return cls(sink=JsonlSink(path, buffer_size=buffer_size))

    # -- introspection ----------------------------------------------------

    @property
    def registry(self) -> MetricsRegistry:
        """The metrics registry this handle's instruments live in."""
        return self._registry

    @property
    def sink(self) -> Optional[JsonlSink]:
        """The event sink, if one is attached."""
        return self._sink

    # -- events -----------------------------------------------------------

    def emit(self, event: TelemetryEvent) -> None:
        """Record one event: count it per kind, append it to the sink, fan out."""
        self._registry.counter(f"events.{event.kind}", help=f"emitted {event.kind} events").inc()
        if self._sink is not None:
            self._sink.emit(event)
        for tap in self._taps:
            tap(event)

    def add_event_tap(self, tap: Callable[[TelemetryEvent], None]) -> None:
        """Register an in-process observer called for every emitted event.

        Taps power the live monitor's recent-events view.  They run on the
        emitting thread, so they must be fast and must not raise — an
        exception would propagate into the orchestration call site.
        """
        self._taps = (*self._taps, tap)

    def remove_event_tap(self, tap: Callable[[TelemetryEvent], None]) -> None:
        """Deregister a tap (no-op if it was never added)."""
        self._taps = tuple(existing for existing in self._taps if existing is not tap)

    # -- metrics ----------------------------------------------------------

    def counter(self, name: str, help: str = "") -> AnyCounter:
        """Get or create a counter in the registry."""
        return self._registry.counter(name, help=help)

    def gauge(self, name: str, help: str = "") -> AnyGauge:
        """Get or create a gauge in the registry."""
        return self._registry.gauge(name, help=help)

    def histogram(self, name: str, help: str = "") -> AnyHistogram:
        """Get or create a (default-bucket seconds) histogram in the registry."""
        return self._registry.histogram(name, help=help)

    # -- spans ------------------------------------------------------------

    def span(self, name: str, **attributes: Any) -> Union[Span, NullSpan]:
        """A new timing span (use as a context manager)."""
        return Span(self, name, attributes)

    def _push_span(self, name: str) -> tuple[int, Optional[str]]:
        depth = len(self._span_stack)
        parent = self._span_stack[-1] if self._span_stack else None
        self._span_stack.append(name)
        return depth, parent

    def _pop_span(self, span: Span) -> None:
        assert self._span_stack and self._span_stack[-1] == span.name, (
            f"span {span.name!r} closed out of order (open: {self._span_stack})"
        )
        self._span_stack.pop()
        assert span.seconds is not None
        self._registry.histogram(
            f"span.{span.name}.seconds", help=f"duration of {span.name} spans"
        ).observe(span.seconds)
        self.emit(
            SpanCompleted(
                name=span.name,
                seconds=span.seconds,
                depth=span._depth,
                parent=span._parent,
                attributes=dict(span.attributes),
            )
        )

    # -- export / lifecycle -----------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """The registry's state as a JSON-serializable dict."""
        return registry_snapshot(self._registry)

    def prometheus(self) -> str:
        """The registry in Prometheus text exposition format."""
        return render_prometheus(self._registry)

    def flush(self) -> None:
        """Flush the event sink's buffer (no-op without a sink)."""
        if self._sink is not None:
            self._sink.flush()

    def close(self) -> None:
        """Flush and close the event sink (idempotent; the registry stays)."""
        if self._sink is not None:
            self._sink.close()

    def __enter__(self) -> "Telemetry":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class DisabledTelemetry(Telemetry):
    """The do-nothing handle: every lookup returns a shared no-op singleton.

    Constructing one allocates nothing beyond the instance itself (no
    registry, no sink, no stack), and every method is either a constant
    return or an empty body — the no-op fast-path tests pin both the
    singleton identities and the per-call cost.
    """

    enabled = False

    def __init__(self) -> None:  # noqa: D107 - deliberately does not call super()
        pass

    @property
    def registry(self) -> MetricsRegistry:
        raise AttributeError("disabled telemetry has no live registry")

    @property
    def sink(self) -> Optional[JsonlSink]:
        return None

    def emit(self, event: TelemetryEvent) -> None:
        """Discard the event."""

    def add_event_tap(self, tap: Callable[[TelemetryEvent], None]) -> None:
        """Refuse: a disabled handle emits no events, so a tap would hear nothing."""
        raise ConfigurationError(
            "disabled telemetry emits no events to tap; attach the monitor "
            "to a live Telemetry handle"
        )

    def remove_event_tap(self, tap: Callable[[TelemetryEvent], None]) -> None:
        """Nothing to remove."""

    def counter(self, name: str, help: str = "") -> AnyCounter:
        """The shared no-op counter, whatever the name."""
        return NULL_COUNTER

    def gauge(self, name: str, help: str = "") -> AnyGauge:
        """The shared no-op gauge, whatever the name."""
        return NULL_GAUGE

    def histogram(self, name: str, help: str = "") -> AnyHistogram:
        """The shared no-op histogram, whatever the name."""
        return NULL_HISTOGRAM

    def span(self, name: str, **attributes: Any) -> Union[Span, NullSpan]:
        """The shared no-op span, whatever the name."""
        return NULL_SPAN

    def snapshot(self) -> dict[str, Any]:
        """An empty snapshot (nothing was recorded)."""
        return {"counters": {}, "gauges": {}, "histograms": {}}

    def prometheus(self) -> str:
        """An empty exposition."""
        return ""

    def flush(self) -> None:
        """Nothing to flush."""

    def close(self) -> None:
        """Nothing to close."""


#: The process-wide disabled handle.  ``telemetry=None`` parameters all over
#: the stack resolve to this via :func:`as_telemetry`, so "telemetry off" is
#: one shared object and zero per-call allocation everywhere.
TELEMETRY_OFF = DisabledTelemetry()


def as_telemetry(telemetry: Optional[Telemetry]) -> Telemetry:
    """Normalize an optional handle: ``None`` means :data:`TELEMETRY_OFF`."""
    return telemetry if telemetry is not None else TELEMETRY_OFF
