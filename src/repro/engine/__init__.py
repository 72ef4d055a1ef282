"""The synchronous round-driven simulation engine."""

from repro.engine.checker import (
    PropertyChecker,
    PropertyReport,
    PropertyViolation,
    StreamingPropertyChecker,
)
from repro.engine.metrics import ExecutionMetrics, MetricsObserver, collect_metrics
from repro.engine.node import NodeRuntime
from repro.engine.observers import (
    TraceLevel,
    TraceRecorder,
    replay_trace,
)
from repro.engine.pool import ExecutionPool, ReducedTrial, WorkerCrashError
from repro.engine.results import SimulationResult
from repro.engine.rng import RandomStreams, derive_seed
from repro.engine.runner import TrialSummary, run_reduced_trials, run_trials
from repro.engine.simulator import SimulationConfig, Simulator, simulate
from repro.engine.trace import ExecutionTrace, RoundRecord

#: Lazily exported from :mod:`repro.engine.batch` (which imports numpy); the
#: rest of the engine stays importable without it.
_BATCH_EXPORTS = ("batchable", "run_batch", "run_reduced_batch")


def __getattr__(name: str):
    if name in _BATCH_EXPORTS:
        from repro.engine import batch

        return getattr(batch, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "batchable",
    "run_batch",
    "run_reduced_batch",
    "PropertyChecker",
    "PropertyReport",
    "PropertyViolation",
    "StreamingPropertyChecker",
    "ExecutionMetrics",
    "MetricsObserver",
    "collect_metrics",
    "NodeRuntime",
    "TraceLevel",
    "TraceRecorder",
    "replay_trace",
    "ExecutionPool",
    "ReducedTrial",
    "WorkerCrashError",
    "SimulationResult",
    "RandomStreams",
    "derive_seed",
    "TrialSummary",
    "run_reduced_trials",
    "run_trials",
    "SimulationConfig",
    "Simulator",
    "simulate",
    "ExecutionTrace",
    "RoundRecord",
]
