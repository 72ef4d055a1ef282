"""Registry exports: JSON snapshots and Prometheus text exposition.

Two renderings of one :class:`~repro.telemetry.metrics.MetricsRegistry`:

* :func:`registry_snapshot` — a plain JSON-serializable dict (counters,
  gauges, histograms keyed by name) that ``--metrics-out`` writes and the
  live monitor serves;
* :func:`render_prometheus` — the Prometheus text exposition format
  (version 0.0.4), ready to serve from a ``/metrics`` endpoint or push
  through a file-based textfile collector.  Dotted internal names map to
  ``repro_``-prefixed underscore names, counters gain the conventional
  ``_total`` suffix, and histograms render the cumulative ``_bucket{le=...}``
  series plus ``_sum``/``_count``.

Both renderings iterate the registry in sorted-name order, so two snapshots
of identical registry state serialize identically.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Union

from repro.telemetry.metrics import Counter, Gauge, Histogram, MetricsRegistry


def registry_snapshot(registry: MetricsRegistry) -> dict[str, Any]:
    """The registry's full state as a JSON-serializable dict."""
    counters: dict[str, Any] = {}
    gauges: dict[str, Any] = {}
    histograms: dict[str, Any] = {}
    for instrument in registry.instruments():
        if isinstance(instrument, Counter):
            counters[instrument.name] = instrument.value
        elif isinstance(instrument, Gauge):
            gauges[instrument.name] = instrument.value
        elif isinstance(instrument, Histogram):
            histograms[instrument.name] = {
                "buckets": list(instrument.buckets),
                "counts": list(instrument.bucket_counts()),
                "sum": instrument.sum,
                "count": instrument.count,
            }
    return {"counters": counters, "gauges": gauges, "histograms": histograms}


def write_metrics_json(registry: MetricsRegistry, path: Union[str, Path]) -> Path:
    """Write a registry snapshot as indented JSON and return the path."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    text = json.dumps(registry_snapshot(registry), indent=2, sort_keys=True) + "\n"
    target.write_text(text, encoding="utf-8")
    return target


def write_prometheus_text(registry: MetricsRegistry, path: Union[str, Path]) -> Path:
    """Write the Prometheus text exposition to ``path`` and return the path.

    The file-based sibling of serving :func:`render_prometheus` from a
    ``/metrics`` endpoint — drop the output where a node-exporter textfile
    collector picks it up.
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(render_prometheus(registry), encoding="utf-8")
    return target


def _prometheus_name(name: str) -> str:
    """Map a dotted internal metric name to a Prometheus-legal one."""
    cleaned = "".join(ch if ch.isalnum() else "_" for ch in name)
    return f"repro_{cleaned}"


def _format_value(value: float) -> str:
    """Render a sample value the way Prometheus text exposition expects."""
    if value == int(value):
        return str(int(value))
    return repr(value)


def render_prometheus(registry: MetricsRegistry) -> str:
    """The registry in Prometheus text exposition format (one trailing newline)."""
    lines: list[str] = []
    for instrument in registry.instruments():
        name = _prometheus_name(instrument.name)
        if isinstance(instrument, Counter):
            metric = f"{name}_total"
            if instrument.help:
                lines.append(f"# HELP {metric} {instrument.help}")
            lines.append(f"# TYPE {metric} counter")
            lines.append(f"{metric} {_format_value(instrument.value)}")
        elif isinstance(instrument, Gauge):
            if instrument.help:
                lines.append(f"# HELP {name} {instrument.help}")
            lines.append(f"# TYPE {name} gauge")
            lines.append(f"{name} {_format_value(instrument.value)}")
        elif isinstance(instrument, Histogram):
            if instrument.help:
                lines.append(f"# HELP {name} {instrument.help}")
            lines.append(f"# TYPE {name} histogram")
            cumulative = 0
            counts = instrument.bucket_counts()
            for bound, bucket_count in zip(instrument.buckets, counts):
                cumulative += bucket_count
                lines.append(f'{name}_bucket{{le="{_format_value(bound)}"}} {cumulative}')
            cumulative += counts[-1]
            lines.append(f'{name}_bucket{{le="+Inf"}} {cumulative}')
            lines.append(f"{name}_sum {_format_value(instrument.sum)}")
            lines.append(f"{name}_count {instrument.count}")
    return "\n".join(lines) + "\n" if lines else ""
