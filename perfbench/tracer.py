"""Layer attribution from outside the program.

:class:`LayerTracer` replaces public functions and methods of the program with
timing wrappers while a traced pass runs, and restores them afterwards.  Every
wrapped call pushes a frame on a per-thread stack; when it returns, its
duration is added to its label's inclusive time, and its duration minus the
time of its wrapped children is added to its *self* time.  So, for any
traced interval, the self times of all layers plus an unattributed remainder
add up to the interval's wall time.

Per-round hooks (protocol, adversary, radio, observer, RNG calls) only update
counters; trials, batch calls, jobs, chunks, commits, exports and reads also
record a span.  Spans are kept in memory and written once, at the end, as
Chrome trace-event JSON (``chrome://tracing`` and https://ui.perfetto.dev
open it).

Calls made on other threads with no wrapped caller (the service's executor
and event-loop threads) are adopted by the *host* frame the client thread
holds open at that moment, so their time is nested under the job or read
that caused it.  Each wrapper costs its caller a fixed amount of time
outside the callee's own measurement; that cost is calibrated once and moved
from the caller's self time into the ``trace`` layer.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator, Optional

# Frame layout (a list, for speed): label, start, child seconds, wrapped children.
_LABEL, _START, _CHILD, _NCHILD = 0, 1, 2, 3


@dataclass
class LabelStats:
    """Accumulated cost of one wrapped label (e.g. ``store.commit``)."""

    layer: str
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


@dataclass
class Span:
    """One timed call; ``tid`` is a thread ident, or a label such as ``worker 123``."""

    name: str
    layer: str
    tid: int | str
    start: float
    end: float
    args: dict[str, Any] = field(default_factory=dict)


class LayerTracer:
    """Wraps program functions with per-layer timers; see the module docstring."""

    def __init__(self) -> None:
        self._tls = threading.local()
        self._thread_stats: list[dict[str, LabelStats]] = []
        self._lock = threading.Lock()
        self._patches: list[tuple[Any, str, Any]] = []
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self.host: Optional[list] = None
        self.host_thread: Optional[int] = None
        self.host_args: dict[str, Any] = {}
        self.outer_cost = 0.0
        self.epoch = time.perf_counter()

    # -- per-thread state --------------------------------------------------

    def _state(self) -> tuple[list, dict[str, LabelStats]]:
        tls = self._tls
        try:
            return tls.stack, tls.stats
        except AttributeError:
            tls.stack = []
            tls.stats = {}
            with self._lock:
                self._thread_stats.append(tls.stats)
            return tls.stack, tls.stats

    def _stats_for(self, stats: dict[str, LabelStats], label: str, layer: str) -> LabelStats:
        entry = stats.get(label)
        if entry is None:
            entry = stats[label] = LabelStats(layer=layer)
        return entry

    def count(self, name: str, amount: float = 1) -> None:
        """Add to a named counter (called from wrapper post-processing only)."""
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    # -- accounting shared by wrappers and manual spans --------------------

    def _finish(
        self, frame: list, end: float, label: str, layer: str, stack: list, stats
    ) -> float:
        """Close ``frame`` (already popped) and charge its time; returns its duration.

        A call counts once per outermost entry into its label, so a protocol
        delegating to an inner protocol is one protocol call.
        """
        duration = end - frame[_START]
        entry = self._stats_for(stats, label, layer)
        if not stack or stack[-1][_LABEL] != label:
            entry.calls += 1
        entry.total_s += duration
        correction = frame[_NCHILD] * self.outer_cost
        entry.self_s += duration - frame[_CHILD] - correction
        if correction:
            self._stats_for(stats, "trace.wrappers", "trace").self_s += correction
        self._charge_parent(stack, duration)
        return duration

    def _charge_parent(self, stack: list, seconds: float, wrapped: bool = True) -> None:
        if stack:
            parent = stack[-1]
        elif self.host is not None and threading.get_ident() != self.host_thread:
            parent = self.host
        else:
            return
        with self._lock if parent is self.host else _NO_LOCK:
            parent[_CHILD] += seconds
            if wrapped:
                parent[_NCHILD] += 1

    def _post(self, stack: list, stats, started: float) -> None:
        """Charge benchmark-side post-processing to the ``trace`` layer."""
        seconds = time.perf_counter() - started
        self._stats_for(stats, "trace.post", "trace").self_s += seconds
        self._charge_parent(stack, seconds, wrapped=False)

    # -- wrapping ------------------------------------------------------------

    def wrap(
        self,
        owner: Any,
        attr: str,
        label: str,
        layer: str,
        span: Optional[str] = None,
        after: Optional[Callable[..., None]] = None,
        generator: bool = False,
    ) -> None:
        """Replace ``owner.attr`` with a timing wrapper (restored by :meth:`restore`).

        ``after(result, args, kwargs)`` runs once the outermost call of the
        label returns, outside the layer's own time, to derive counts.  With
        ``generator=True`` every step of the returned generator is timed.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if getattr(original, "__perfbench_wrapped__", False):
            return
        if generator:
            wrapper = self._make_generator_wrapper(original, label, layer)
        else:
            wrapper = self._make_wrapper(original, label, layer, span, after)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def wrap_function(
        self, function: Callable, label: str, layer: str, span: Optional[str] = None,
        after: Optional[Callable[..., None]] = None,
    ) -> None:
        """Wrap a module-level function everywhere the program bound its name."""
        wrapper = self._make_wrapper(function, label, layer, span, after)
        for name, module in list(sys.modules.items()):
            if module is None or not name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is function:
                    self._patches.append((module, attr, function))
                    setattr(module, attr, wrapper)

    def wrap_methods(
        self, base: type, names: tuple[str, ...], label: str, layer: str
    ) -> None:
        """Wrap ``names`` on every loaded subclass of ``base``, at the class
        that defines each (so an inherited method is wrapped exactly once)."""
        seen: set[tuple[type, str]] = set()
        for cls in [base, *_all_subclasses(base)]:
            for name in names:
                for owner in cls.__mro__:
                    if name in owner.__dict__:
                        if (owner, name) not in seen and not getattr(
                            owner.__dict__[name], "__isabstractmethod__", False
                        ):
                            seen.add((owner, name))
                            self.wrap(owner, name, label, layer)
                        break

    def _make_wrapper(
        self,
        function: Callable,
        label: str,
        layer: str,
        span: Optional[str],
        after: Optional[Callable[..., None]],
    ) -> Callable:
        tracer = self
        perf = time.perf_counter
        state = self._state

        if span is None and after is None:

            def wrapper(*args: Any, **kwargs: Any) -> Any:
                stack, stats = state()
                frame = [label, 0.0, 0.0, 0]
                stack.append(frame)
                frame[_START] = perf()
                try:
                    return function(*args, **kwargs)
                finally:
                    end = perf()
                    stack.pop()
                    tracer._finish(frame, end, label, layer, stack, stats)

        else:

            def wrapper(*args: Any, **kwargs: Any) -> Any:
                stack, stats = state()
                outermost = not stack or stack[-1][_LABEL] != label
                frame = [label, 0.0, 0.0, 0]
                stack.append(frame)
                frame[_START] = perf()
                result = None
                try:
                    result = function(*args, **kwargs)
                    return result
                finally:
                    end = perf()
                    stack.pop()
                    tracer._finish(frame, end, label, layer, stack, stats)
                    if span is not None:
                        tracer._record_span(span, layer, frame[_START], end)
                    if after is not None and outermost:
                        started = perf()
                        after(result, args, kwargs)
                        tracer._post(stack, stats, started)

        wrapper.__perfbench_wrapped__ = True  # type: ignore[attr-defined]
        wrapper.__wrapped__ = function  # type: ignore[attr-defined]
        return wrapper

    def _make_generator_wrapper(self, function: Callable, label: str, layer: str) -> Callable:
        step = self._make_wrapper(next, label, layer, None, None)

        def wrapper(*args: Any, **kwargs: Any) -> Iterator[Any]:
            iterator = function(*args, **kwargs)
            sentinel = object()
            while True:
                item = step(iterator, sentinel)
                if item is sentinel:
                    return
                yield item

        wrapper.__perfbench_wrapped__ = True  # type: ignore[attr-defined]
        wrapper.__wrapped__ = function  # type: ignore[attr-defined]
        return wrapper

    def restore(self) -> None:
        """Put every wrapped function back, in reverse order."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- manual spans (benchmark-side calls into a layer) ------------------

    @contextmanager
    def span(self, name: str, layer: str, host: bool = False, **args: Any) -> Iterator[list]:
        """Time a block as a call into ``layer``; with ``host=True`` it also
        adopts top-level calls other threads make while it is open."""
        stack, stats = self._state()
        label = f"{layer}.{name}"
        frame = [label, time.perf_counter(), 0.0, 0]
        stack.append(frame)
        if host:
            with self._lock:
                self.host, self.host_thread, self.host_args = frame, threading.get_ident(), args
        try:
            yield frame
        finally:
            end = time.perf_counter()
            if host:
                with self._lock:
                    self.host, self.host_thread, self.host_args = None, None, {}
            stack.pop()
            self._finish(frame, end, label, layer, stack, stats)
            self._record_span(name, layer, frame[_START], end, args)

    def _record_span(
        self, name: str, layer: str, start: float, end: float, args: Optional[dict] = None
    ) -> None:
        span_args = dict(args or {})
        if self.host_args and threading.get_ident() != self.host_thread:
            span_args.update(self.host_args)
        with self._lock:
            self.spans.append(Span(name, layer, threading.get_ident(), start, end, span_args))

    def add_span(self, span: Span) -> None:
        with self._lock:
            self.spans.append(span)

    # -- calibration and results ---------------------------------------------

    def calibrate(self, repeats: int = 7, calls: int = 20_000) -> float:
        """Measure what one wrapper costs its caller outside the callee's time."""

        def noop() -> None:
            return None

        probe = self._make_wrapper(noop, "trace.calibration", "trace.calibration", None, None)
        samples = []
        for _ in range(repeats):
            stack, stats = self._state()
            frame = ["trace.calibration.parent", time.perf_counter(), 0.0, 0]
            stack.append(frame)
            for _ in range(calls):
                probe()
            end = time.perf_counter()
            stack.pop()
            samples.append((end - frame[_START] - frame[_CHILD]) / calls)
        samples.sort()
        self.outer_cost = samples[len(samples) // 2]
        # Calibration is not part of any traced interval.
        for stats in self._thread_stats:
            stats.pop("trace.calibration", None)
        return self.outer_cost

    def label_stats(self) -> dict[str, LabelStats]:
        merged: dict[str, LabelStats] = {}
        with self._lock:
            for stats in self._thread_stats:
                for label, entry in stats.items():
                    target = merged.setdefault(label, LabelStats(layer=entry.layer))
                    target.calls += entry.calls
                    target.total_s += entry.total_s
                    target.self_s += entry.self_s
        return merged

    def write_chrome_trace(self, path: Path, process_name: str) -> None:
        """Write every span as a Chrome trace-event "complete" event."""
        pid = 1
        events: list[dict[str, Any]] = [
            {"name": "process_name", "ph": "M", "pid": pid, "args": {"name": process_name}}
        ]
        threads: dict[Any, int] = {}
        for span in sorted(self.spans, key=lambda s: s.start):
            tid = threads.setdefault(span.tid, len(threads) + 1)
            events.append(
                {
                    "name": span.name,
                    "cat": span.layer,
                    "ph": "X",
                    "pid": pid,
                    "tid": tid,
                    "ts": round((span.start - self.epoch) * 1e6, 3),
                    "dur": round((span.end - span.start) * 1e6, 3),
                    "args": span.args,
                }
            )
        for key, tid in threads.items():
            label = key if isinstance(key, str) else f"thread {tid}"
            events.append(
                {"name": "thread_name", "ph": "M", "pid": pid, "tid": tid, "args": {"name": label}}
            )
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))


class _NoLock:
    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: object) -> None:
        return None


_NO_LOCK = _NoLock()


def _all_subclasses(base: type) -> list[type]:
    found: list[type] = []
    pending = list(base.__subclasses__())
    while pending:
        cls = pending.pop()
        if cls not in found:
            found.append(cls)
            pending.extend(cls.__subclasses__())
    return found
