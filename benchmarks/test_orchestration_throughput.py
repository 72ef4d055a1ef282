"""Orchestration throughput: one persistent execution pool vs. a fresh pool per unit.

Not a paper artefact — this benchmark instruments the orchestration layer the
same way ``test_engine_throughput`` instruments the round loop.  The regime is
many *tiny* work units (small campaign cells, 2-seed search candidates): here
a pool per cell — a temporary :class:`~repro.engine.pool.ExecutionPool`
started and shut down per cell, every trial returning a full
``SimulationResult`` reduced in the parent — is dominated by pool spin-up,
not simulation.  One persistent pool for the whole grid (one spin-up per
session, in-worker reduction) removes that tax.

Both paths must produce byte-identical store rows — asserted here — so the
speedup is free.  Measured on the baseline machine: ~3.7x on the campaign
grid and ~3x on the search generation (the ``service_mixed`` perfbench
workload tracks pooled campaign and search jobs across revisions; this test
pins the *relative* win).
Wall-clock ratios on shared CI runners jitter, so the hard gate is
deliberately loose and the emitted table records the real ratio.
"""

from __future__ import annotations

import time
from pathlib import Path

from _bench_helpers import run_once
from repro.campaigns.runner import CampaignRunner
from repro.campaigns.spec import CampaignSpec
from repro.campaigns.store import ResultStore, TrialRecord
from repro.engine.plan import ExecutionPlan
from repro.engine.runner import run_trials
from repro.experiments.tables import render_table

#: The many-small-cells grid: 16 trapdoor cells of ~2 ms of simulation each.
GRID = CampaignSpec(
    name="orchestration-bench",
    protocols=("trapdoor",),
    workloads=("quiet_start",),
    frequencies=(4, 8),
    budgets=(0, 1),
    participants=(8, 16),
    node_counts=(2, 3),
    seeds=2,
    max_rounds=1_500,
)


def _run_fresh_pool_per_cell(store: ResultStore) -> None:
    """A pool per cell.

    One ``run_trials(plan=ExecutionPlan(workers=2))`` call per cell — i.e. one
    temporary ``ExecutionPool`` spin-up/teardown per cell, full
    ``SimulationResult`` objects back, reduction to store rows in the parent.
    """
    GRID.validate_workloads()
    store.register_campaign(GRID.name, GRID.to_json())
    for cell in GRID.cells():
        summary = run_trials(cell.config(), seeds=cell.seeds, plan=ExecutionPlan(workers=2))
        records = [
            TrialRecord.from_result(seed, result)
            for seed, result in zip(summary.seeds, summary.results)
        ]
        store.record_cell(GRID.name, cell.key, cell.describe_dict(), records)


def _run_persistent_pool(store: ResultStore) -> None:
    """The pooled path: one pool for the whole grid, chunked and reduced."""
    with CampaignRunner(GRID, store, plan=ExecutionPlan(workers=2, pool_chunk=2)) as runner:
        runner.run()


def test_persistent_pool_beats_fresh_pool_per_cell(benchmark, emit, tmp_path: Path):
    def run():
        fresh_start = time.perf_counter()
        with ResultStore(tmp_path / "fresh.db") as fresh_store:
            _run_fresh_pool_per_cell(fresh_store)
            fresh_elapsed = time.perf_counter() - fresh_start
            pooled_start = time.perf_counter()
            with ResultStore(tmp_path / "pooled.db") as pooled_store:
                _run_persistent_pool(pooled_store)
                pooled_elapsed = time.perf_counter() - pooled_start
                fresh_rows = list(fresh_store.iter_cells(GRID.name))
                pooled_rows = list(pooled_store.iter_cells(GRID.name))
        return fresh_elapsed, pooled_elapsed, fresh_rows, pooled_rows

    fresh_elapsed, pooled_elapsed, fresh_rows, pooled_rows = run_once(benchmark, run)
    cells = len(GRID.cells())
    row = {
        "cells": cells,
        "fresh_pool_cells_per_sec": cells / fresh_elapsed,
        "pooled_cells_per_sec": cells / pooled_elapsed,
        "speedup": fresh_elapsed / pooled_elapsed,
    }
    emit(render_table([row], title="Orchestration: fresh pool per cell vs persistent pool",
                      float_digits=2))

    # The headline claim is *identity first*: the pooled/chunked/reduced
    # campaign persists byte-identical rows (same keys, same descriptions,
    # same trial scalars, same insertion order).
    assert pooled_rows == fresh_rows

    assert row["fresh_pool_cells_per_sec"] > 0
    assert row["pooled_cells_per_sec"] > 0
    # Measured ~3.7x on the baseline machine (~3x for search generations).
    # Shared-runner wall clocks jitter by tens of percent, so the gate only
    # catches "the pool stopped helping at all"; the table has the real ratio.
    assert row["speedup"] >= 1.5, row
