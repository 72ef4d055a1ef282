"""Aggregation and querying over a campaign result store.

The store keeps raw per-trial scalars; this module turns them back into the
statistics the experiment layer speaks — success (liveness) rates, agreement,
round counts, interpolated latency percentiles — either per cell
(:class:`StoredSummary`, computed by the same code as a live
:class:`~repro.engine.runner.TrialSummary`) or grouped over any subset of the
grid dimensions (:func:`aggregate`), in row-dict form that feeds
:func:`repro.experiments.tables.render_table` and
:func:`repro.experiments.figures.render_bars` directly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Optional, Sequence

from repro.campaigns.store import ResultStore
from repro.engine.pool import ReducedTrial
from repro.engine.runner import TrialStatistics
from repro.exceptions import ExperimentError

#: The grid dimensions :func:`aggregate` can group by (all are recorded in
#: every cell description).
GROUPABLE_DIMENSIONS = (
    "protocol",
    "workload",
    "frequencies",
    "budget",
    "participants",
    "node_count",
    "max_rounds",
)


@dataclass(frozen=True)
class StoredSummary(TrialStatistics):
    """Trial statistics recomputed from persisted records.

    Every statistic comes from
    :class:`~repro.engine.runner.TrialStatistics`, the code behind the live
    :class:`~repro.engine.runner.TrialSummary`, so a benchmark reading
    through the store gets bit-identical numbers to one calling
    :func:`~repro.engine.runner.run_trials` directly.
    """

    records: tuple[ReducedTrial, ...]

    @property
    def rows(self) -> tuple[ReducedTrial, ...]:
        """The persisted records, in seed order."""
        return self.records

    @property
    def seeds(self) -> tuple[int, ...]:
        """The seeds the records were run with, in record order."""
        return tuple(record.seed for record in self.records)


def summary_for_cell(store: ResultStore, key: str) -> StoredSummary:
    """The stored statistics of one completed cell."""
    records = store.trial_records(key)
    if not records:
        raise ExperimentError(f"cell {key!r} has no stored trials")
    return StoredSummary(records=records)


def _statistics_row(summary: StoredSummary) -> dict[str, Any]:
    row = {
        "trials": summary.trials,
        "liveness": summary.liveness_rate,
        "agreement": summary.agreement_rate,
        "unique_leader": summary.unique_leader_rate,
        "mean_latency": summary.mean_latency,
        "median_latency": summary.median_latency,
        "p90_latency": summary.percentile_latency(0.9),
        "max_latency": summary.max_latency,
        "mean_rounds": summary.mean_rounds,
    }
    # Stabilization columns appear only when the group holds fault-injected
    # trials, keeping fault-free tables and exports unchanged.
    if summary.max_stabilization_rounds is not None:
        row["max_stabilization_rounds"] = summary.max_stabilization_rounds
        row["mean_stabilization_rounds"] = summary.mean_stabilization_rounds
    return row


#: What :meth:`ResultStore.iter_cells` yields per cell: key, description, trials.
_Cell = tuple[str, dict[str, Any], tuple[ReducedTrial, ...]]


def cell_rows(store: ResultStore, campaign: Optional[str] = None) -> list[dict[str, Any]]:
    """One table row per completed cell: grid coordinates plus statistics."""
    return _cell_rows(store.iter_cells(campaign))


def _cell_rows(cells: Iterable[_Cell]) -> list[dict[str, Any]]:
    rows = []
    for key, description, records in cells:
        row: dict[str, Any] = {"cell": key}
        for dimension in GROUPABLE_DIMENSIONS:
            if dimension in description:
                row[dimension] = description[dimension]
        row.update(_statistics_row(StoredSummary(records=records)))
        rows.append(row)
    return rows


def aggregate(
    store: ResultStore,
    campaign: Optional[str] = None,
    group_by: Sequence[str] = ("protocol", "workload"),
) -> list[dict[str, Any]]:
    """Group completed cells and pool their trials into one row per group.

    Parameters
    ----------
    store:
        The result store to read.
    campaign:
        Restrict to one campaign's cells (default: the whole store).
    group_by:
        The grid dimensions to group by, in column order; must be a subset of
        :data:`GROUPABLE_DIMENSIONS`.  Cells recorded without one of the
        requested dimensions (e.g. the free-form sweep descriptions older
        builds wrote) group under ``None`` for that dimension.

    Returns
    -------
    list[dict]
        One row per distinct group, in first-seen order, ready for
        :func:`~repro.experiments.tables.render_table`.
    """
    return _aggregate(store, campaign, group_by, store.iter_cells(campaign))


def _aggregate(
    store: ResultStore,
    campaign: Optional[str],
    group_by: Sequence[str],
    cells: Iterable[_Cell],
) -> list[dict[str, Any]]:
    for dimension in group_by:
        if dimension not in GROUPABLE_DIMENSIONS:
            raise ExperimentError(
                f"cannot group by {dimension!r}; groupable: {', '.join(GROUPABLE_DIMENSIONS)}"
            )
    groups: dict[tuple, list[ReducedTrial]] = {}
    for _key, description, records in cells:
        group = tuple(description.get(dimension) for dimension in group_by)
        groups.setdefault(group, []).extend(records)
    if not groups:
        raise ExperimentError(
            f"store {store.path!r} has no completed cells"
            + (f" for campaign {campaign!r}" if campaign else "")
        )
    rows = []
    for group, pooled in groups.items():
        row: dict[str, Any] = dict(zip(group_by, group))
        row.update(_statistics_row(StoredSummary(records=tuple(pooled))))
        rows.append(row)
    return rows


def export_campaign(
    store: ResultStore,
    campaign: str,
    path: str | Path,
    group_by: Sequence[str] = ("protocol", "workload"),
) -> Path:
    """Write a campaign's cells and grouped aggregates as one JSON document.

    The campaign's cells are read from the store once, for both parts.
    """
    spec_json = store.spec_json_for(campaign)
    cells = list(store.iter_cells(campaign))
    document = {
        "campaign": campaign,
        "spec": json.loads(spec_json) if spec_json else None,
        "cells": _cell_rows(cells),
        "aggregates": _aggregate(store, campaign, group_by, cells),
    }
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    # Encoded in one piece and written once: json.dump writes each token.
    target.write_text(json.dumps(document, indent=2), encoding="utf-8")
    return target
