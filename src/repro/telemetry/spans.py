"""Timing spans for the dispatch → execute → reduce → commit pipeline.

A span measures one scoped phase of orchestration with
:func:`time.perf_counter` and, on close, does two things:

* observes the duration in a per-span-name histogram
  (``span.<name>.seconds`` in the metrics registry), so snapshots carry the
  distribution;
* emits a :class:`~repro.telemetry.events.SpanCompleted` event carrying the
  duration, the nesting depth, and the enclosing span's name — which is how
  spans attach to the event stream without a separate trace format.

Spans nest naturally (``with telemetry.span("campaign.cell"):`` around
``with telemetry.span("campaign.commit"):``); the handle keeps the open-span
stack, so a completed event always names its parent.  The stack is an
orchestration-thread construct — spans are opened and closed by the driving
code (runner loops, the CLI), never inside worker processes or executor
callbacks.

The disabled path is the shared :data:`NULL_SPAN` singleton: entering and
exiting it does nothing and allocates nothing, which is what keeps
``with telemetry.span(...)`` affordable to leave in place unconditionally.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Any, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.telemetry import Telemetry


class Span:
    """One live timing scope (use via ``with telemetry.span(name, **attrs):``)."""

    __slots__ = ("name", "attributes", "_telemetry", "_start", "_depth", "_parent", "seconds")

    def __init__(self, telemetry: "Telemetry", name: str, attributes: dict[str, Any]) -> None:
        self.name = name
        self.attributes = attributes
        self._telemetry = telemetry
        self._start: Optional[float] = None
        self._depth = 0
        self._parent: Optional[str] = None
        #: The measured duration, populated on exit (None while open).
        self.seconds: Optional[float] = None

    def annotate(self, **attributes: Any) -> None:
        """Attach extra attributes to the span (they ride the completion event)."""
        self.attributes.update(attributes)

    def __enter__(self) -> "Span":
        self._depth, self._parent = self._telemetry._push_span(self.name)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        assert self._start is not None, "span exited without being entered"
        self.seconds = time.perf_counter() - self._start
        self._telemetry._pop_span(self)


class NullSpan:
    """The shared do-nothing span disabled telemetry hands out."""

    __slots__ = ()
    name = ""
    seconds: Optional[float] = None

    def annotate(self, **attributes: Any) -> None:
        """Discard the attributes."""

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, exc_type: object, exc_value: object, traceback: object) -> None:
        return None


#: The process-wide no-op span (disabled handles return this for every name).
NULL_SPAN = NullSpan()
