"""Exporting simulation results to plain data formats.

Experiments often want to post-process executions outside this library
(pandas, spreadsheets, plotting).  This module converts traces, property
reports, and metrics into JSON-serializable dictionaries and writes CSV
round logs, without adding any dependency beyond the standard library.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path
from typing import Any

from repro.engine.results import SimulationResult
from repro.engine.runner import TrialSummary
from repro.engine.trace import ExecutionTrace


def trace_to_dict(trace: ExecutionTrace, include_rounds: bool = True) -> dict[str, Any]:
    """A JSON-serializable summary of an execution trace.

    The summary describes exactly the rounds the trace retains.  For an
    incomplete (:data:`~repro.engine.observers.TraceLevel.SAMPLED`) trace the
    round-derived fields would be wrong, so they are omitted rather than
    silently misreported: ``rounds_simulated`` is ``None`` (``rounds_retained``
    counts the sample) and the per-node entries carry no sync fields — the
    exact whole-execution numbers live in the result's metrics section.

    Parameters
    ----------
    trace:
        The trace to convert.
    include_rounds:
        If True, include the full per-round output/role log (can be large);
        otherwise only the per-node summary is included.
    """
    data: dict[str, Any] = {
        "params": {
            "frequencies": trace.params.frequencies,
            "disruption_budget": trace.params.disruption_budget,
            "participant_bound": trace.params.participant_bound,
        },
        "seed": trace.seed,
        "complete": trace.complete,
        "rounds_retained": trace.rounds_retained,
        "rounds_simulated": trace.rounds_simulated if trace.complete else None,
        "nodes": [
            {
                "node_id": node_id,
                "activation_round": trace.activation_rounds[node_id],
                **(
                    {
                        "sync_round": trace.sync_round_of(node_id),
                        "sync_latency": trace.sync_latency_of(node_id),
                    }
                    if trace.complete
                    else {}
                ),
            }
            for node_id in trace.node_ids
        ],
    }
    if include_rounds:
        data["rounds"] = [
            {
                "global_round": record.global_round,
                "outputs": {str(node): value for node, value in record.outputs.items()},
                "roles": {str(node): role.value for node, role in record.roles.items()},
                "disrupted": sorted(record.activity.disrupted),
                "delivered_on": list(record.activity.successful_frequencies()),
                "broadcasters": record.activity.broadcaster_count(),
            }
            for record in trace
        ]
    return data


def result_to_dict(result: SimulationResult, include_rounds: bool = False) -> dict[str, Any]:
    """A JSON-serializable summary of a full simulation result.

    With a trace-free execution (``TraceLevel.NONE``) the ``trace`` entry is
    ``None``; the property and metrics sections are always present.
    """
    metrics = result.metrics
    report = result.report
    data: dict[str, Any] = {
        "trace": (
            trace_to_dict(result.trace, include_rounds=include_rounds)
            if result.trace is not None
            else None
        ),
        "properties": {
            "validity": report.validity_holds,
            "synch_commit": report.synch_commit_holds,
            "correctness": report.correctness_holds,
            "agreement": report.agreement_holds,
            "liveness": report.liveness_achieved,
            "synchronization_round": report.synchronization_round,
            "violations": [
                {
                    "property": violation.property_name,
                    "global_round": violation.global_round,
                    "node_id": violation.node_id,
                    "detail": violation.detail,
                }
                for violation in report.violations
            ],
        },
        "metrics": {
            "rounds_simulated": metrics.rounds_simulated,
            "broadcasts": metrics.broadcasts,
            "deliveries": metrics.deliveries,
            "collisions": metrics.collisions,
            "disrupted_frequency_rounds": metrics.disrupted_frequency_rounds,
            "leader_count": metrics.leader_count,
            "max_sync_latency": metrics.max_sync_latency,
            "mean_sync_latency": metrics.mean_sync_latency,
            "role_rounds": {role.value: count for role, count in metrics.role_rounds.items()},
            # Exact per-node data, streamed during the run — valid at every
            # trace level (the trace section's node summary is only exact for
            # a complete trace).
            "activation_rounds": {
                str(node): global_round
                for node, global_round in sorted(metrics.activation_rounds.items())
            },
            "sync_latencies": {
                str(node): latency
                for node, latency in sorted(metrics.sync_latencies.items())
            },
        },
    }
    # Present only for fault-injected executions, so fault-free exports stay
    # byte-identical to earlier releases.
    if result.stabilization is not None:
        data["stabilization"] = result.stabilization.to_dict()
    return data


def trial_summary_to_dict(summary: TrialSummary) -> dict[str, Any]:
    """A JSON-serializable summary of a multi-seed trial batch.

    Mirrors the statistics the ``trials`` CLI table prints (the aggregate),
    plus one compact row per trial so the distribution can be re-derived
    without re-running anything.  Stabilization keys appear only for
    fault-injected batches, keeping fault-free exports byte-identical.
    """
    statistics_block: dict[str, Any] = {
        "liveness_rate": summary.liveness_rate,
        "agreement_rate": summary.agreement_rate,
        "safety_rate": summary.safety_rate,
        "unique_leader_rate": summary.unique_leader_rate,
        "mean_latency": summary.mean_latency,
        "median_latency": summary.median_latency,
        "p90_latency": summary.percentile_latency(0.9),
        "max_latency": summary.max_latency,
    }
    if summary.max_stabilization_rounds is not None:
        statistics_block["max_stabilization_rounds"] = summary.max_stabilization_rounds
        statistics_block["mean_stabilization_rounds"] = summary.mean_stabilization_rounds
    rows = []
    for seed, result in zip(summary.seeds, summary.results):
        row: dict[str, Any] = {
            "seed": seed,
            "synchronized": result.synchronized,
            "agreement": result.agreement_holds,
            "leader_count": result.leader_count,
            "max_sync_latency": result.max_sync_latency,
            "rounds_simulated": result.rounds_simulated,
        }
        if result.stabilization_rounds is not None:
            row["stabilization_rounds"] = result.stabilization_rounds
        rows.append(row)
    return {
        "trials": summary.trials,
        "seeds": list(summary.seeds),
        "statistics": statistics_block,
        "results": rows,
    }


def write_trials_json(summary: TrialSummary, path: str | Path) -> Path:
    """Write a trial-batch summary as JSON and return the path."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(trial_summary_to_dict(summary), indent=2), encoding="utf-8")
    return target


def write_result_json(result: SimulationResult, path: str | Path, include_rounds: bool = False) -> Path:
    """Write a result summary as JSON and return the path."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    text = json.dumps(result_to_dict(result, include_rounds=include_rounds), indent=2)
    target.write_text(text, encoding="utf-8")
    return target


def write_round_log_csv(trace: ExecutionTrace, path: str | Path) -> Path:
    """Write a per-(round, node) CSV log: output, role, and spectrum context."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    with target.open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            ["global_round", "node_id", "output", "role", "disrupted_channels", "deliveries"]
        )
        for record in trace:
            disrupted = len(record.activity.disrupted)
            deliveries = len(record.activity.successful_frequencies())
            for node_id in sorted(record.outputs):
                output = record.outputs[node_id]
                writer.writerow(
                    [
                        record.global_round,
                        node_id,
                        "" if output is None else output,
                        record.roles[node_id].value,
                        disrupted,
                        deliveries,
                    ]
                )
    return target


def execution_digest_dict(result: SimulationResult) -> dict[str, Any]:
    """A canonical, JSON-serializable description of *everything* a result holds.

    This is the equivalence-test vocabulary: two executions are bit-identical
    iff their digest dicts are equal.  It intentionally covers more than
    :func:`result_to_dict` — every metrics counter, every violation, and (when
    a trace is retained) the complete per-round record including per-frequency
    broadcaster/listener sets — so an engine refactor cannot change observable
    behaviour without changing the digest.
    """
    metrics = result.metrics
    report = result.report
    data: dict[str, Any] = {
        "report": {
            "liveness_achieved": report.liveness_achieved,
            "synchronization_round": report.synchronization_round,
            "violations": [
                {
                    "property": violation.property_name,
                    "global_round": violation.global_round,
                    "node_id": violation.node_id,
                    "detail": violation.detail,
                }
                for violation in report.violations
            ],
        },
        "metrics": {
            "rounds_simulated": metrics.rounds_simulated,
            "broadcasts": metrics.broadcasts,
            "deliveries": metrics.deliveries,
            "collisions": metrics.collisions,
            "disrupted_frequency_rounds": metrics.disrupted_frequency_rounds,
            "disrupted_deliveries_prevented": metrics.disrupted_deliveries_prevented,
            "leader_count": metrics.leader_count,
            "sync_latencies": {
                str(node): latency for node, latency in sorted(metrics.sync_latencies.items())
            },
            "role_rounds": {
                role.value: count for role, count in sorted(metrics.role_rounds.items(), key=lambda kv: kv[0].value)
            },
            "activation_rounds": {
                str(node): global_round
                for node, global_round in sorted(metrics.activation_rounds.items())
            },
        },
    }
    # Fault-injected executions carry the stabilization report in the digest
    # (reconvergence is observable behaviour); fault-free digests are
    # unchanged from earlier releases.
    if result.stabilization is not None:
        data["stabilization"] = result.stabilization.to_dict()
    if result.trace is None:
        data["trace"] = None
    else:
        trace = result.trace
        data["trace"] = {
            "seed": trace.seed,
            "complete": trace.complete,
            "activation_rounds": {
                str(node): global_round
                for node, global_round in sorted(trace.activation_rounds.items())
            },
            "rounds": [
                {
                    "global_round": record.global_round,
                    "outputs": {str(node): value for node, value in sorted(record.outputs.items())},
                    "roles": {str(node): role.value for node, role in sorted(record.roles.items())},
                    "disrupted": sorted(record.activity.disrupted),
                    "activations": list(record.activity.activations),
                    "per_frequency": {
                        str(frequency): {
                            "broadcasters": list(activity.broadcasters),
                            "listeners": list(activity.listeners),
                            "disrupted": activity.disrupted,
                            "delivered": activity.delivered,
                        }
                        for frequency, activity in sorted(record.activity.per_frequency.items())
                    },
                }
                for record in trace
            ],
        }
    return data


def execution_digest(result: SimulationResult) -> str:
    """A stable SHA-256 hex digest of :func:`execution_digest_dict`.

    Stable across processes and Python versions (canonical JSON, sorted keys),
    so recorded digests can serve as golden values for the engine-equivalence
    tests.
    """
    canonical = json.dumps(
        execution_digest_dict(result), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
