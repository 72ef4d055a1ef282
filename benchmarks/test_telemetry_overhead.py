"""The telemetry overhead gate: disabled instrumentation costs ≤2%.

Two pinned scenarios — a 128-seed batch-kernel run (``trapdoor_n64_batch``)
and a grid of small campaign cells on a 2-worker pool
(``campaign_many_small_cells``), both defined below — must not get
measurably slower because the telemetry subsystem exists.  "Measurably" is
pinned three complementary ways, none of which depends on comparing two noisy
wall-clock runs of the full scenario:

1. **The hot loops are provably untouched.**  ``trapdoor_n64_batch`` calls
   :func:`repro.engine.batch.run_reduced_batch` directly, and the per-round
   scalar engine lives in ``repro.engine.simulator`` — a static check asserts
   that neither module, nor any module the round loop calls every round,
   references telemetry at all, so their cost is *identical* to the
   pre-telemetry build, not merely close.

2. **The disabled per-call cost is pinned.**  Orchestration layers
   (pool/campaign/search) do keep their instrument calls when telemetry is
   off; each such call must stay a cheap no-op on a shared singleton.

3. **Calls × cost fits the budget.**  A live counting run of the
   ``campaign_many_small_cells`` workload measures how many instrument
   operations one scenario run performs; that count times the measured no-op
   cost (with a generous safety factor) must be ≤2% of the scenario's actual
   runtime.  If someone instruments a per-round path, the operation count
   explodes and this fails loudly long before the 2% is really spent.

Each timing takes :data:`TIMING_REPEATS` runs.  A per-call cost is the
least of its timed loops: other work on a shared machine only ever adds
time, so the least loop is the closest to the code's own cost, where one
preempted loop would otherwise inflate it.  The scenario runtime is the
median of its runs, the typical runtime one run shows.  The two gates time
their loops and the scenario in turns (:func:`_timed_in_turns`): a shared
host runs in slow and fast windows, and a window that held all the loops but
none of the scenario runs would skew the ratio.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import statistics
import tempfile
import time
from pathlib import Path
from typing import Callable, Sequence

from repro.adversary.activation import StaggeredActivation
from repro.adversary.jammers import RandomJammer
from repro.campaigns.runner import CampaignRunner
from repro.campaigns.spec import CampaignSpec
from repro.campaigns.store import ResultStore
from repro.engine.batch import batchable, run_reduced_batch
from repro.engine.observers import TraceLevel
from repro.engine.plan import ExecutionPlan
from repro.engine.simulator import SimulationConfig
from repro.params import ModelParameters
from repro.protocols.registry import protocol_factory
from repro.telemetry import TELEMETRY_OFF, DisabledTelemetry, Telemetry
from repro.telemetry.metrics import (
    NULL_COUNTER,
    NULL_GAUGE,
    NULL_HISTOGRAM,
    Counter,
    Gauge,
    Histogram,
    NullCounter,
    NullGauge,
    NullHistogram,
)
from repro.telemetry.spans import NULL_SPAN, NullSpan, Span

#: Fractional overhead the tentpole allows on the pinned scenarios.
OVERHEAD_BUDGET = 0.02

#: Safety factor on the measured no-op cost (shared-machine noise insurance).
SAFETY_FACTOR = 5.0

#: Runs per timing: the least of them for a per-call cost, the median for
#: the scenario runtime.
TIMING_REPEATS = 5

#: The ``campaign_many_small_cells`` grid: 16 tiny trapdoor cells of 2 seeds.
CAMPAIGN_SPEC_FIELDS = dict(
    protocols=("trapdoor",),
    workloads=("quiet_start",),
    frequencies=(4, 8),
    budgets=(0, 1),
    participants=(8, 16),
    node_counts=(2, 3),
    seeds=2,
    max_rounds=1_500,
)


def _run_campaign_scenario(telemetry=None) -> float:
    """One run of the pinned campaign workload; returns wall-clock seconds."""
    spec = CampaignSpec(name="telemetry-overhead", **CAMPAIGN_SPEC_FIELDS)
    started = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="repro-tel-overhead-") as tmp:
        with ResultStore(Path(tmp) / "cells.db") as store:
            with CampaignRunner(
                spec, store, plan=ExecutionPlan(workers=2, pool_chunk=2), telemetry=telemetry
            ) as runner:
                progress = runner.run()
    assert progress.complete
    return time.perf_counter() - started


def _least_seconds(run: Callable[[], object], repeats: int = TIMING_REPEATS) -> float:
    """The least wall-clock time ``run()`` takes over ``repeats`` calls."""
    least = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        run()
        least = min(least, time.perf_counter() - start)
    return least


def _timed_in_turns(loops: Sequence[Callable[[], object]]) -> tuple[float, list[float]]:
    """The campaign scenario's runtime and each loop's least time, timed in turns.

    Each of :data:`TIMING_REPEATS` turns runs the scenario once, telemetry
    off, and then every loop once, so a slow window of a shared host lands
    on both sides of the ratio.  Returns the median scenario runtime and the
    least time of each loop, in the order given.
    """
    scenario_runs: list[float] = []
    least = [float("inf")] * len(loops)
    for _ in range(TIMING_REPEATS):
        scenario_runs.append(_run_campaign_scenario(telemetry=None))
        for index, loop in enumerate(loops):
            start = time.perf_counter()
            loop()
            least[index] = min(least[index], time.perf_counter() - start)
    return statistics.median(scenario_runs), least


def _noop_shapes(calls: int) -> tuple[Callable[[], None], ...]:
    """One loop of ``calls`` disabled-path operations per shape.

    Covers every shape the orchestration layers use when telemetry is off:
    a prebound null instrument call, a disabled-handle lookup returning the
    singleton, the ``enabled`` guard, and a null span context entry/exit.
    """

    def prebound() -> None:
        for _ in range(calls):
            NULL_COUNTER.inc()

    def lookup() -> None:
        for _ in range(calls):
            TELEMETRY_OFF.counter("pool.chunks_dispatched").inc()

    def guard() -> None:
        for _ in range(calls):
            if TELEMETRY_OFF.enabled:
                raise AssertionError("disabled handle reported enabled")

    def span() -> None:
        for _ in range(calls):
            with TELEMETRY_OFF.span("x"):
                pass

    return prebound, lookup, guard, span


def _noop_cost_per_call(calls: int = 200_000) -> float:
    """Measured seconds per disabled-path operation (the worst of the shapes).

    Each shape's cost is the least of :data:`TIMING_REPEATS` timed loops.
    """
    return max(_least_seconds(shape) for shape in _noop_shapes(calls)) / calls


def test_hot_path_modules_are_uninstrumented():
    """The per-round engines must never gain telemetry calls.

    ``trapdoor_n64_batch`` runs :mod:`repro.engine.batch` directly and every
    scenario bottoms out in :mod:`repro.engine.simulator`'s round loop; both
    iterate millions of times per scenario, where even a no-op call per round
    would blow the 2% budget.  The same holds for everything the round loop
    calls every round: the network, the observers and the spectrum log, the
    node runtime, every protocol module and the fault injector.
    Instrumentation belongs one layer up (pool, runners) — this pins that
    boundary.
    """
    import repro.protocols

    hot_paths = [
        "repro.engine.simulator",
        "repro.engine.batch",
        "repro.engine.rng",
        "repro.engine.checker",
        "repro.engine.metrics",
        "repro.engine.observers",
        "repro.engine.node",
        "repro.radio.network",
        "repro.radio.spectrum_log",
        "repro.faults.injector",
        "repro.faults.stabilization",
    ]
    hot_paths += [
        module.name
        for module in pkgutil.walk_packages(repro.protocols.__path__, "repro.protocols.")
    ]
    assert "repro.protocols.good_samaritan.protocol" in hot_paths
    for name in hot_paths:
        module = importlib.import_module(name)
        source = Path(module.__file__).read_text(encoding="utf-8")
        assert "telemetry" not in source.lower(), (
            f"{module.__name__} references telemetry — per-round hot paths "
            "must stay uninstrumented (instrument the orchestration layer instead)"
        )


def test_disabled_instruments_are_fast_noops():
    """Each disabled-path operation stays well under a microsecond-scale cap.

    The cap is deliberately loose (shared CI machines), but a disabled path
    that started allocating, locking, or formatting per call lands orders of
    magnitude above it.
    """
    per_call = _noop_cost_per_call(calls=50_000)
    assert per_call < 5e-6, (
        f"disabled telemetry operation costs {per_call * 1e9:.0f}ns per call; "
        "the no-op path must stay allocation-free"
    )
    # And the no-op instruments really are shared singletons.
    assert TELEMETRY_OFF.counter("a") is TELEMETRY_OFF.counter("b") is NULL_COUNTER
    assert TELEMETRY_OFF.gauge("a") is NULL_GAUGE
    assert TELEMETRY_OFF.histogram("a") is NULL_HISTOGRAM
    assert TELEMETRY_OFF.span("a") is NULL_SPAN


def _record_calls(monkeypatch, classes) -> list[str]:
    """Make every method, property and ``enabled`` flag of ``classes`` log its use."""
    calls: list[str] = []

    def recording(label, function):
        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            calls.append(label)
            return function(*args, **kwargs)

        return wrapper

    for cls in classes:
        for name, attribute in list(vars(cls).items()):
            label = f"{cls.__name__}.{name}"
            if isinstance(attribute, property):
                wrapped = property(recording(label, attribute.fget))
            elif isinstance(attribute, classmethod):
                wrapped = classmethod(recording(label, attribute.__func__))
            elif inspect.isfunction(attribute):
                wrapped = recording(label, attribute)
            elif name == "enabled":
                wrapped = property(recording(label, lambda self, flag=attribute: flag))
            else:
                continue
            monkeypatch.setattr(cls, name, wrapped)
    return calls


def test_batch_scenario_performs_zero_instrument_operations(monkeypatch):
    """The pinned batch kernel scenario touches no telemetry at all.

    While the scenario calls ``run_reduced_batch`` directly, below the
    instrumented orchestration layer, every entry point of the live and
    disabled telemetry handles, their instruments and their spans records
    its calls; there must be none, so the scenario's telemetry-off overhead
    is exactly zero — the strongest possible form of the ≤2% requirement.
    """
    config = SimulationConfig(
        params=ModelParameters(frequencies=8, disruption_budget=3, participant_bound=64),
        protocol_factory=protocol_factory("trapdoor"),
        activation=StaggeredActivation(count=8, spacing=3),
        adversary=RandomJammer(),
        max_rounds=4_000,
        seed=0,
        stop_when_synchronized=False,
        trace_level=TraceLevel.NONE,
    )
    assert batchable(config), "the pinned batch scenario must stay batchable"
    calls = _record_calls(
        monkeypatch,
        (
            Telemetry,
            DisabledTelemetry,
            Counter,
            Gauge,
            Histogram,
            NullCounter,
            NullGauge,
            NullHistogram,
            Span,
            NullSpan,
        ),
    )
    run_reduced_batch(config, tuple(range(128)))
    assert calls == []


def test_campaign_scenario_overhead_within_budget(emit):
    """Disabled-path call count × no-op cost ≤ 2% of the scenario runtime.

    The operation count comes from a live counting run (every disabled no-op
    call has a live counterpart that lands in the registry); the per-call
    cost from the pinned microbenchmark; the runtime from actual scenario
    runs.  A generous safety factor keeps the gate honest on noisy machines
    while still catching per-round instrumentation instantly.
    """
    calls = 50_000
    scenario_seconds, shape_seconds = _timed_in_turns(_noop_shapes(calls))

    counting = Telemetry()
    _run_campaign_scenario(telemetry=counting)
    snapshot = counting.snapshot()
    # worker.* entries are excluded from the value sum: one merge_delta call
    # folds large *values* (thousands of simulated rounds) in O(1) operations,
    # and the disabled path skips the merge entirely (ingest guards on
    # ``telemetry.enabled``) — counting the values would gate on work that
    # never happens when telemetry is off.  The worker-delta path gets its own
    # live-cost gate below.
    operations = (
        sum(
            value
            for name, value in snapshot["counters"].items()
            if not name.startswith("worker.")
        )
        + sum(
            entry["count"]
            for name, entry in snapshot["histograms"].items()
            if not name.startswith("worker.")
        )
        # Gauges: the inflight queue depth moves twice per chunk; bound it by
        # the dispatched chunk count plus one end-of-run rate set per gauge.
        + 2 * snapshot["counters"].get("pool.chunks_dispatched", 0)
        + len(snapshot["gauges"])
        # The disabled ingest path still does two dict writes per chunk for
        # crash attribution; bill them as one op each.
        + 2 * snapshot["counters"].get("worker.chunks_completed", 0)
    )
    # Spans enter+exit; histograms already counted one op per completed span.
    operations += sum(
        entry["count"]
        for name, entry in snapshot["histograms"].items()
        if name.startswith("span.")
    )

    per_call = max(shape_seconds) / calls
    projected_overhead = operations * per_call * SAFETY_FACTOR
    budget = OVERHEAD_BUDGET * scenario_seconds
    emit(
        "telemetry overhead gate (campaign_many_small_cells)\n"
        f"  scenario runtime        : {scenario_seconds * 1e3:.1f} ms\n"
        f"  disabled-path operations: {operations:.0f}\n"
        f"  no-op cost per call     : {per_call * 1e9:.0f} ns\n"
        f"  projected overhead (x{SAFETY_FACTOR:.0f}) : {projected_overhead * 1e6:.1f} us\n"
        f"  budget (2% of runtime)  : {budget * 1e3:.2f} ms"
    )
    assert projected_overhead <= budget, (
        f"projected disabled-telemetry overhead {projected_overhead * 1e3:.3f}ms exceeds "
        f"2% of the scenario runtime ({budget * 1e3:.3f}ms) — did a per-round or "
        "per-trial path gain instrument calls?"
    )


def test_worker_delta_path_within_budget(emit):
    """The cross-process stats path fits the same ≤2% budget.

    Two per-chunk costs exist: building the :class:`WorkerStatsDelta` inside
    the worker (always — the chunk entry points wrap every result, telemetry
    on or off) and folding it into the parent registry (live handles only).
    Both are O(chunk), never O(round), so chunks × measured cost with the
    usual safety factor must sit far inside 2% of the scenario runtime.
    """
    from repro.engine.pool import ReducedTrial, _chunk_stats
    from repro.telemetry.metrics import MetricsRegistry

    rows = [
        ReducedTrial(
            seed=seed,
            synchronized=True,
            agreement=True,
            safety=True,
            leader_count=1,
            max_sync_latency=20,
            rounds_simulated=1_500,
        )
        for seed in range(4)
    ]
    # The scenario dispatches 16 chunks (16 cells / pool_chunk=2 × 2 seeds).
    chunks = 16
    scenarios = 125
    repeats = scenarios * chunks
    delta = _chunk_stats(rows, len(rows), 0.01)

    def build() -> None:
        for _ in range(repeats):
            _chunk_stats(rows, len(rows), 0.01)

    def merge() -> None:
        # A fresh registry per scenario's worth of chunks, as each run has,
        # so the instrument lookups of its first merge are billed too.
        for _ in range(scenarios):
            registry = MetricsRegistry()
            for _ in range(chunks):
                registry.merge_delta(delta)

    scenario_seconds, (build_seconds, merge_seconds) = _timed_in_turns((build, merge))
    build_cost = build_seconds / repeats
    merge_cost = merge_seconds / repeats
    projected = chunks * (build_cost + merge_cost) * SAFETY_FACTOR
    budget = OVERHEAD_BUDGET * scenario_seconds
    emit(
        "worker-delta overhead gate (campaign_many_small_cells)\n"
        f"  scenario runtime        : {scenario_seconds * 1e3:.1f} ms\n"
        f"  delta build per chunk   : {build_cost * 1e6:.2f} us\n"
        f"  delta merge per chunk   : {merge_cost * 1e6:.2f} us\n"
        f"  projected (x{SAFETY_FACTOR:.0f}, {chunks} chunks): {projected * 1e6:.1f} us\n"
        f"  budget (2% of runtime)  : {budget * 1e3:.2f} ms"
    )
    assert projected <= budget, (
        f"projected worker-delta overhead {projected * 1e3:.3f}ms exceeds 2% of the "
        f"scenario runtime ({budget * 1e3:.3f}ms) — the per-chunk stats path must "
        "stay O(chunk), not O(round)"
    )
