"""Which program functions belong to which layer, and the per-layer metrics.

:func:`install` wraps the public functions and methods of each module with
the :class:`~tracer.LayerTracer`; :func:`layer_metrics` turns the traced
pass into the ``per_layer`` metrics of ``BENCHMARK.json``.  The module and
the end-to-end metric each layer should move are listed in
``perfbench/README.md``.
"""

from __future__ import annotations

import pickle
import time
import weakref
from pathlib import Path
from typing import Any

from tracer import LayerTracer, Span

#: Every layer whose self time is reported, in report order.  ``activation``
#: is reported as ``adversary.activation_s``; ``trace`` is the wrappers' own
#: cost.
ATTRIBUTED_LAYERS = (
    "simulator",
    "protocols",
    "adversary",
    "activation",
    "radio",
    "observers",
    "rng",
    "faults",
    "batch",
    "runner",
    "pool",
    "store",
    "query",
    "campaigns",
    "search",
    "service",
    "trace",
)

_OBSERVER_HOOKS = ("on_simulation_start", "on_activation", "on_round", "on_simulation_end")
_STORE_READS = (
    "trial_records",
    "completed_keys",
    "has_cell",
    "cell_count",
    "campaign_names",
    "spec_json_for",
    "cell_description",
)
_STORE_OTHER = ("__init__", "close", "flush", "register_campaign", "add_cells_to_campaign")


def install(tracer: LayerTracer) -> None:
    """Wrap every layer's public entry points (undone by ``tracer.restore()``)."""
    from repro.adversary.activation import ActivationSchedule
    from repro.adversary.base import InterferenceAdversary
    from repro.campaigns import query
    from repro.campaigns.runner import CampaignRunner
    from repro.campaigns.store import ResultStore
    from repro.engine import batch, rng, runner
    from repro.engine.checker import StreamingPropertyChecker
    from repro.engine.metrics import MetricsObserver
    from repro.engine.node import NodeRuntime
    from repro.engine.observers import TraceRecorder
    from repro.engine.pool import ExecutionPool
    from repro.engine.simulator import Simulator
    from repro.faults.injector import FaultInjector
    from repro.faults.stabilization import StabilizationTracker
    from repro.protocols.base import SynchronizationProtocol
    from repro.radio.network import SingleHopRadioNetwork
    from repro.radio.spectrum_log import SpectrumLog
    from repro.search.objective import SearchObjective
    from repro.search.runner import StrategySearch

    count = tracer.count
    # Pools seen dispatching, kept across installs (one install per unit).
    if not hasattr(tracer, "pools"):
        tracer.pools = weakref.WeakSet()  # type: ignore[attr-defined]
    pools: "weakref.WeakSet[ExecutionPool]" = tracer.pools  # type: ignore[attr-defined]

    # engine.simulator: one span per trial.
    tracer.wrap(
        Simulator, "run", "simulator.run", "simulator", span="trial",
        after=lambda result, args, kwargs: count(
            "simulator.rounds", result.metrics.rounds_simulated
        ),
    )
    # protocols, adversary, radio, observers, rng: per-round hooks, counts only.
    tracer.wrap_methods(
        SynchronizationProtocol,
        ("choose_action", "on_reception", "current_output"),
        "protocols.hooks",
        "protocols",
    )
    tracer.wrap_methods(
        InterferenceAdversary, ("choose_disruption",), "adversary.choose_disruption", "adversary"
    )
    tracer.wrap_methods(
        ActivationSchedule, ("activations_for_round",), "adversary.activation", "activation"
    )
    for method in ("resolve_round", "validate_disruption_budget"):
        tracer.wrap(SingleHopRadioNetwork, method, "radio.hooks", "radio")
    for observer in (SpectrumLog, StreamingPropertyChecker, MetricsObserver, TraceRecorder):
        tracer.wrap_methods(observer, _OBSERVER_HOOKS, "observers.hooks", "observers")
    tracer.wrap(StreamingPropertyChecker, "report", "observers.hooks", "observers")
    tracer.wrap(MetricsObserver, "result", "observers.hooks", "observers")
    # One label for both, so a derivation through RandomStreams counts once.
    tracer.wrap(rng.RandomStreams, "stream", "rng", "rng")
    tracer.wrap_function(rng.derive_seed, "rng", "rng")

    # faults
    for method in (
        "__init__",
        "byzantine_active",
        "byzantine_starts_at",
        "leaves_at",
        "rejoins_at",
        "corruptions_at",
        "byzantine_action",
        "rejoin_stream",
        "corruption_stream",
    ):
        tracer.wrap(FaultInjector, method, "faults.injector", "faults")
    for method in ("__init__", "record_epoch", "observe_round", "finalize"):
        tracer.wrap(StabilizationTracker, method, "faults.stabilization", "faults")
    tracer.wrap(NodeRuntime, "reincarnate", "faults.reincarnate", "faults")

    # engine.batch: one span per kernel call.
    original_batchable = batch.batchable

    def after_batch(rows: Any, args: tuple, kwargs: dict) -> None:
        if not original_batchable(args[0]):
            count("batch.fallbacks")
            return
        rounds = [row.rounds_simulated for row in rows]
        steps = max(rounds, default=0)
        count("batch.lockstep_steps", steps)
        count("batch.trial_rounds", sum(rounds))
        count("batch.slot_rounds", steps * len(rounds))

    for function in (batch.run_reduced_batch, batch.run_batch):
        tracer.wrap_function(function, "batch.run", "batch", span="batch", after=after_batch)
    tracer.wrap_function(runner.run_reduced_trials, "runner.run_reduced_trials", "runner")

    # engine.pool: dispatch, ingest (one approximate span per worker chunk).
    def after_dispatch(futures: Any, args: tuple, kwargs: dict) -> None:
        pool, template, seeds = args[0], args[1], args[2]
        reduce = kwargs.get("reduce", args[3] if len(args) > 3 else False)
        use_batch = kwargs.get("batch", args[4] if len(args) > 4 else False)
        pools.add(pool)
        count("pool.chunks", len(futures))
        for chunk in pool.chunk(list(seeds)):
            count("pool.payload_bytes", len(pickle.dumps((template, chunk, reduce, use_batch))))

    def after_ingest(rows: Any, args: tuple, kwargs: dict) -> None:
        stats = args[1].stats
        count("pool.worker_busy_s", stats.simulate_seconds_sum)
        end = time.perf_counter()
        tracer.add_span(
            Span(
                name="chunk",
                layer="pool.worker",
                tid=f"worker {stats.pid}",
                start=end - stats.simulate_seconds_sum,
                end=end,
                args={"trials": stats.trials, "rounds": stats.rounds, "approximate": True},
            )
        )

    tracer.wrap(
        ExecutionPool, "submit_seed_chunks", "pool.dispatch", "pool",
        span="dispatch", after=after_dispatch,
    )
    tracer.wrap(ExecutionPool, "ingest", "pool.ingest", "pool", after=after_ingest)
    tracer.wrap(ExecutionPool, "run_seeds", "pool.run_seeds", "pool")
    tracer.wrap(ExecutionPool, "recover", "pool.recover", "pool")

    # campaigns: the store, the export, the runner.
    def after_commit(inserted: Any, args: tuple, kwargs: dict) -> None:
        if inserted:
            records = kwargs.get("records", args[4] if len(args) > 4 else ())
            count("store.rows", len(records))

    tracer.wrap(
        ResultStore, "record_cell", "store.commit", "store", span="commit", after=after_commit
    )
    for method in _STORE_READS:
        tracer.wrap(ResultStore, method, "store.read", "store")
    tracer.wrap(ResultStore, "iter_cells", "store.read", "store", generator=True)
    for method in _STORE_OTHER:
        tracer.wrap(ResultStore, method, "store.other", "store")

    def after_export(path: Any, args: tuple, kwargs: dict) -> None:
        count("query.export_bytes", Path(path).stat().st_size)

    tracer.wrap_function(
        query.export_campaign, "query.export", "query", span="export", after=after_export
    )
    tracer.wrap(
        CampaignRunner, "run", "campaigns.run", "campaigns", span="campaign",
        after=lambda progress, args, kwargs: count("campaigns.cells_executed", progress.executed),
    )

    # search
    def after_search(result: Any, args: tuple, kwargs: dict) -> None:
        count("search.reused", result.reused)
        count("search.lookups", result.reused + result.executed)

    tracer.wrap(StrategySearch, "run", "search.run", "search", span="search", after=after_search)
    tracer.wrap(SearchObjective, "evaluate", "search.evaluate", "search", span="evaluate")


def layer_metrics(
    tracer: LayerTracer, traced_wall: float, untraced_wall: float, extras: dict[str, float]
) -> dict[str, float]:
    """The per-layer metrics of one traced pass of ``traced_wall`` seconds."""
    labels = tracer.label_stats()
    counters = tracer.counters
    self_s = {layer: 0.0 for layer in ATTRIBUTED_LAYERS}
    for entry in labels.values():
        self_s[entry.layer] = self_s.get(entry.layer, 0.0) + entry.self_s

    def calls(label: str) -> int:
        entry = labels.get(label)
        return entry.calls if entry is not None else 0

    def total(label: str) -> float:
        entry = labels.get(label)
        return entry.total_s if entry is not None else 0.0

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    rounds = counters.get("simulator.rounds", 0)
    workers = extras.get("pool.workers", 0)
    capacity = workers * traced_wall
    fault_trials = extras.get("faults.trials", 0)
    capped = extras.get("faults.capped_trials", 0)
    attributed = sum(self_s.values())
    metrics = {
        "simulator.rounds": rounds,
        "simulator.trials": calls("simulator.run"),
        "simulator.us_per_round": ratio(self_s["simulator"], rounds) * 1e6,
        "protocols.calls": calls("protocols.hooks"),
        "adversary.calls": calls("adversary.choose_disruption"),
        "adversary.activation_s": self_s["activation"],
        "radio.calls": calls("radio.hooks"),
        "observers.calls": calls("observers.hooks"),
        "rng.streams": calls("rng"),
        "faults.reincarnations": calls("faults.reincarnate"),
        "faults.trials": fault_trials,
        "faults.capped_trials": capped,
        "faults.capped_ratio": ratio(capped, fault_trials),
        "batch.calls": calls("batch.run"),
        "batch.lockstep_steps": counters.get("batch.lockstep_steps", 0),
        "batch.trial_rounds": counters.get("batch.trial_rounds", 0),
        "batch.slot_rounds": counters.get("batch.slot_rounds", 0),
        "batch.active_fraction": ratio(
            counters.get("batch.trial_rounds", 0), counters.get("batch.slot_rounds", 0)
        ),
        "batch.fallbacks": counters.get("batch.fallbacks", 0),
        "pool.chunks": counters.get("pool.chunks", 0),
        "pool.dispatch_s": total("pool.dispatch"),
        "pool.ingest_s": total("pool.ingest"),
        "pool.worker_busy_s": counters.get("pool.worker_busy_s", 0.0),
        "pool.worker_capacity_s": capacity,
        "pool.worker_utilization": ratio(counters.get("pool.worker_busy_s", 0.0), capacity),
        "pool.payload_bytes": counters.get("pool.payload_bytes", 0),
        "pool.retries": calls("pool.recover"),
        "pool.starts": sum(pool.starts for pool in getattr(tracer, "pools", ())),
        "store.commits": calls("store.commit"),
        "store.commit_s": total("store.commit"),
        "store.rows": counters.get("store.rows", 0),
        "store.read_s": total("store.read"),
        "query.export_s": total("query.export"),
        "query.export_bytes": counters.get("query.export_bytes", 0),
        "campaigns.cells_executed": counters.get("campaigns.cells_executed", 0),
        "search.evaluations": calls("search.evaluate"),
        "search.evaluate_s": total("search.evaluate"),
        "search.reused": counters.get("search.reused", 0),
        "search.lookups": counters.get("search.lookups", 0),
        "search.reuse_ratio": ratio(
            counters.get("search.reused", 0), counters.get("search.lookups", 0)
        ),
        "service.jobs": extras.get("service.jobs", 0),
        "service.queue_wait_s": extras.get("service.queue_wait_s", 0.0),
        "service.run_s": extras.get("service.run_s", 0.0),
        "service.overhead_s": extras.get("service.overhead_s", 0.0),
        "trace.wrapper_cost_us": tracer.outer_cost * 1e6,
        "trace.traced_wall_s": traced_wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
        "unattributed_s": traced_wall - attributed,
        "unattributed_share": ratio(traced_wall - attributed, traced_wall),
    }
    for layer in ATTRIBUTED_LAYERS:
        if layer != "activation":
            metrics[f"{layer}.self_s"] = self_s[layer]
    return metrics
