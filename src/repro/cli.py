"""Command-line interface.

The CLI wraps the most common workflows so that a simulation can be run, and a
paper artefact inspected, without writing Python:

* ``python -m repro simulate`` — run one execution of a chosen protocol on a
  named workload and print the summary (optionally exporting JSON/CSV);
* ``python -m repro trials`` — run the same configuration across many seeds
  (optionally on a worker-process pool, and trace-free) and print the
  distributional summary;
* ``python -m repro campaign run|status|export`` — declare a persistent sweep
  grid, execute only its missing cells into an SQLite result store (resumable
  after interrupts), inspect completion (``status --json`` for scripts), and
  export grouped aggregates;
* ``python -m repro search run|status|export`` — hunt worst-case interference
  strategies for a pinned configuration with a seeded optimizer, checkpointing
  every evaluation into the result store (kill and re-run to resume exactly),
  and export the best-found strategy as JSON;
* ``python -m repro monitor watch`` — poll a live run's ``--status-file``
  snapshot or ``--monitor-port`` URL and print one progress line per poll
  until the run completes;
* ``python -m repro schedule`` — print the Figure 1 / Figure 2 schedule for a
  parameter point;
* ``python -m repro experiments`` — list the registered paper artefacts and
  the benchmark that regenerates each;
* ``python -m repro bounds`` — evaluate the paper's bound formulas for a
  parameter point.

``simulate`` and ``trials`` exit 0 when every trial synchronized and
:data:`EXIT_UNSYNCHRONIZED` (3) when the run ended but some trial did not,
for example at its ``--max-rounds`` cap.  An uncaught exception exits 1, as
in any Python program, and a usage error 2, as argparse does.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import Optional, Sequence

from repro.adversary.registry import ADVERSARY_FACTORIES
from repro.analysis.bounds import (
    good_samaritan_adaptive_bound,
    good_samaritan_worst_case_bound,
    theorem1_lower_bound,
    theorem4_lower_bound,
    theorem5_lower_bound,
    trapdoor_upper_bound,
)
from repro.campaigns.query import aggregate, export_campaign
from repro.campaigns.runner import CampaignRunner, check_run_cap
from repro.campaigns.spec import CAMPAIGN_WORKLOADS, CampaignSpec, workload_with_adversary
from repro.campaigns.store import ResultStore
from repro.engine.observers import TraceLevel
from repro.engine.plan import ExecutionPlan
from repro.engine.runner import run_trials
from repro.engine.serialization import write_result_json, write_round_log_csv, write_trials_json
from repro.engine.simulator import SimulationConfig, simulate
from repro.experiments.registry import EXPERIMENTS
from repro.faults import FaultPlan, load_fault_plan
from repro.experiments.tables import render_table
from repro.experiments.workloads import SIMPLE_WORKLOADS
from repro.params import ModelParameters
from repro.protocols.good_samaritan.schedule import GoodSamaritanSchedule
from repro.protocols.registry import PROTOCOL_FACTORIES
from repro.protocols.trapdoor.epochs import TrapdoorSchedule
from repro.search.checkpoint import SearchSpec, is_search_spec_json
from repro.search.objective import OBJECTIVE_METRICS, SearchObjective
from repro.search.optimizers import OPTIMIZERS
from repro.exceptions import ConfigurationError
from repro.search.runner import StrategySearch, export_search, search_status
from repro.service import (
    CampaignService,
    JobRequest,
    ServiceClient,
    ServiceError,
    connect_from_announce,
)
from repro.telemetry import Telemetry
from repro.telemetry.events import FaultInjected, JsonlSink, RunCompleted, RunStarted
from repro.telemetry.export import write_metrics_json, write_prometheus_text
from repro.telemetry.monitor import RunMonitor, read_status, render_status_line

#: The named protocol registry the scenario options draw from (shared with the
#: campaign subsystem, so a protocol name means the same thing everywhere).
PROTOCOLS = PROTOCOL_FACTORIES

#: The named adversary registry (shared with campaigns and the strategy
#: search, so a jammer name means the same adversary everywhere).
JAMMERS = ADVERSARY_FACTORIES


def _name_list(text: str) -> tuple[str, ...]:
    """Parse a comma-separated list of names (argparse ``type=``)."""
    names = tuple(part.strip() for part in text.split(",") if part.strip())
    if not names:
        raise argparse.ArgumentTypeError(f"expected a comma-separated list, got {text!r}")
    return names


def _int_list(text: str) -> tuple[int, ...]:
    """Parse a comma-separated list of integers (argparse ``type=``)."""
    try:
        values = tuple(int(part.strip()) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")
    if not values:
        raise argparse.ArgumentTypeError(f"expected a comma-separated list, got {text!r}")
    return values


def _run_cap(text: str) -> int:
    """Parse a per-invocation work cap (argparse ``type=``): an integer ≥ 1."""
    try:
        cap = int(text)
        check_run_cap(cap, "the cap")
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    except ConfigurationError as error:
        raise argparse.ArgumentTypeError(str(error))
    return cap


def observability_options() -> argparse.ArgumentParser:
    """The shared observability option group for executing subcommands.

    One definition covers ``trials``, ``campaign run``, ``search run`` and
    ``serve``, so every executing command spells the flags identically and
    help text cannot drift.  Inspection subcommands (status/export) execute
    nothing, so they take none of these.  Either live-monitor flag
    (``--monitor-port``, ``--status-file``) turns the monitor on; both
    compose, and ``repro monitor watch`` consumes what they produce.
    """
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("observability")
    group.add_argument(
        "--telemetry", type=str, default=None, metavar="PATH",
        help="stream structured telemetry events to this JSONL file",
    )
    group.add_argument(
        "--metrics-out", type=str, default=None, metavar="PATH",
        help="write the final metrics snapshot here (JSON, or Prometheus "
             "text exposition when the path ends in .prom)",
    )
    group.add_argument(
        "--telemetry-rotate-bytes", type=int, default=None, metavar="BYTES",
        help="rotate the --telemetry JSONL once it would exceed this size "
             "(one .1 predecessor is kept; default: never rotate)",
    )
    group.add_argument(
        "--monitor-port", type=int, default=None, metavar="PORT",
        help="serve live /status, /metrics, and /events on this local port "
             "while the run executes (0 = pick an ephemeral port)",
    )
    group.add_argument(
        "--status-file", type=str, default=None, metavar="PATH",
        help="atomically rewrite a JSON status snapshot here on every "
             "monitor tick (readable mid-run; marked final on completion)",
    )
    group.add_argument(
        "--monitor-interval", type=float, default=1.0, metavar="SECONDS",
        help="seconds between monitor snapshots (default: 1.0)",
    )
    return parent


#: The exit status of ``simulate`` and ``trials`` when the run ended but some
#: trial did not synchronize; an uncaught exception exits 1.
EXIT_UNSYNCHRONIZED = 3

_EXIT_STATUSES = (
    "Exits 0 if every trial synchronized, "
    f"{EXIT_UNSYNCHRONIZED} if the run ended but some trial did not, "
    "1 on an uncaught exception and 2 on a usage error."
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'The Wireless Synchronization Problem' (PODC 2009)",
    )
    parser.add_argument(
        "--log-level",
        choices=["debug", "info", "warning", "error", "critical"],
        default="warning",
        help="stdlib logging threshold for the repro.* loggers (stderr)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    observability = observability_options()

    scenario = argparse.ArgumentParser(add_help=False)
    scenario.add_argument("--protocol", choices=sorted(PROTOCOLS), default="trapdoor")
    scenario.add_argument("--frequencies", "-F", type=int, default=8)
    scenario.add_argument("--budget", "-t", type=int, default=3)
    scenario.add_argument("--participants", "-N", type=int, default=64)
    scenario.add_argument("--nodes", "-n", type=int, default=8, help="number of activated devices")
    scenario.add_argument(
        "--workload",
        choices=sorted(SIMPLE_WORKLOADS),
        default="crowded_cafe",
        help="named activation/interference scenario",
    )
    scenario.add_argument("--jammer", choices=sorted(JAMMERS), default=None,
                          help="override the workload's interference adversary")
    scenario.add_argument("--max-rounds", type=int, default=100_000)
    scenario.add_argument("--faults", type=str, default=None, metavar="PLAN.json",
                          help="inject a fault plan (churn / Byzantine / corruption; "
                               "see repro.faults.FaultPlan) into every execution")

    sim = sub.add_parser(
        "simulate",
        parents=[scenario],
        help="run one execution and print its summary",
        description=f"Run one execution and print its summary.  {_EXIT_STATUSES}",
    )
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument(
        "--trace-level",
        choices=[level.value for level in TraceLevel],
        default=TraceLevel.FULL.value,
        help="how much per-round history to retain (none = stream-only)",
    )
    sim.add_argument("--json", type=str, default=None, help="write a JSON result summary here")
    sim.add_argument("--csv", type=str, default=None, help="write a per-round CSV log here")

    trials = sub.add_parser(
        "trials",
        parents=[scenario, observability],
        help="run one configuration across many seeds",
        description=f"Run one configuration across many seeds.  {_EXIT_STATUSES}",
    )
    trials.add_argument("--trials", type=int, default=10, dest="trial_count",
                        help="number of seeds to run (0 .. k-1)")
    trials.add_argument("--workers", type=int, default=1,
                        help="worker processes for the batch (1 = serial)")
    trials.add_argument("--pool-chunk", type=int, default=None,
                        help="seeds per dispatched pool chunk (default: automatic)")
    trials.add_argument("--batch", action="store_true",
                        help="run the seed batch on the vectorized lockstep kernel "
                             "(trace-free batchable configs; scalar fallback otherwise)")
    trials.add_argument(
        "--trace-level",
        choices=[level.value for level in TraceLevel],
        default=TraceLevel.NONE.value,
        help="per-round history per trial (default: none — sweeps stream)",
    )
    trials.add_argument("--json", type=str, default=None,
                        help="write the batch summary (statistics + per-trial rows) as JSON here")

    campaign = sub.add_parser(
        "campaign", help="declarative persistent sweeps over a result store"
    )
    campaign_sub = campaign.add_subparsers(dest="campaign_command", required=True)

    camp_run = campaign_sub.add_parser(
        "run",
        parents=[observability],
        help="execute the missing cells of a campaign grid into a store",
    )
    camp_run.add_argument("--store", required=True, help="SQLite result store path")
    camp_run.add_argument("--name", default="campaign", help="campaign name in the store")
    camp_run.add_argument("--protocols", type=_name_list, default=("trapdoor",),
                          help="comma-separated protocol names")
    camp_run.add_argument("--workloads", type=_name_list, default=("crowded_cafe",),
                          help="comma-separated workload names")
    camp_run.add_argument("--jammers", type=_name_list, default=None,
                          help="cross every workload with these registered jammers "
                               "(derived workloads 'workload@jammer')")
    camp_run.add_argument("--frequencies", "-F", type=_int_list, default=(8,),
                          help="comma-separated F values")
    camp_run.add_argument("--budgets", "-t", type=_int_list, default=(3,),
                          help="comma-separated t values")
    camp_run.add_argument("--participants", "-N", type=_int_list, default=(64,),
                          help="comma-separated N values")
    camp_run.add_argument("--node-counts", type=_int_list, default=(8,),
                          help="comma-separated activated-device counts")
    camp_run.add_argument("--seeds", type=int, default=3, help="seeds per cell (0 .. k-1)")
    camp_run.add_argument("--max-rounds", type=int, default=50_000)
    camp_run.add_argument("--faults", type=str, default=None, metavar="PLAN.json",
                          help="inject this fault plan into every cell of the grid "
                               "(part of each cell's identity — fault-free cells "
                               "stay separately resumable)")
    camp_run.add_argument("--workers", type=int, default=1,
                          help="worker processes on the campaign's persistent execution "
                               "pool (1 = serial)")
    camp_run.add_argument("--pool-chunk", type=int, default=None,
                          help="trials per dispatched pool chunk (default: automatic)")
    camp_run.add_argument("--batch", action="store_true",
                          help="run each cell's seeds on the vectorized lockstep kernel "
                               "(batchable cells only; scalar fallback otherwise)")
    camp_run.add_argument("--max-cells", type=_run_cap, default=None,
                          help="cap on cells executed this invocation (resume later)")
    camp_run.add_argument("--quiet", action="store_true",
                          help="suppress the per-cell progress lines (summary still prints)")

    camp_status = campaign_sub.add_parser("status", help="report completed/total cells")
    camp_status.add_argument("--store", required=True)
    camp_status.add_argument("--name", default=None,
                             help="one campaign (default: every campaign in the store)")
    camp_status.add_argument("--json", action="store_true",
                             help="machine-readable output for CI and scripts")

    camp_export = campaign_sub.add_parser(
        "export", help="export a campaign's cells and aggregates as JSON"
    )
    camp_export.add_argument("--store", required=True)
    camp_export.add_argument("--name", default="campaign")
    camp_export.add_argument("--output", required=True, help="JSON file to write")
    camp_export.add_argument("--group-by", type=_name_list, default=("protocol", "workload"),
                             help="comma-separated grid dimensions to aggregate over")

    search = sub.add_parser(
        "search", help="hunt worst-case interference strategies for a pinned configuration"
    )
    search_sub = search.add_subparsers(dest="search_command", required=True)

    srch_run = search_sub.add_parser(
        "run",
        parents=[observability],
        help="run (or resume) an adversarial strategy search into a store",
    )
    srch_run.add_argument("--store", required=True, help="SQLite result store path")
    srch_run.add_argument("--name", default="search", help="search name in the store")
    srch_run.add_argument("--protocol", choices=sorted(PROTOCOLS), default="trapdoor")
    srch_run.add_argument("--workload", choices=sorted(CAMPAIGN_WORKLOADS), default="quiet_start",
                          help="activation pattern (its adversary is overridden by candidates)")
    srch_run.add_argument("--frequencies", "-F", type=int, default=8)
    srch_run.add_argument("--budget", "-t", type=int, default=3)
    srch_run.add_argument("--participants", "-N", type=int, default=64)
    srch_run.add_argument("--nodes", "-n", type=int, default=8,
                          help="number of activated devices")
    srch_run.add_argument("--seeds", type=int, default=5, help="seeds per candidate (0 .. k-1)")
    srch_run.add_argument("--max-rounds", type=int, default=20_000)
    srch_run.add_argument("--metric", choices=OBJECTIVE_METRICS, default="median_latency",
                          help="objective the search maximizes")
    srch_run.add_argument("--faults", type=str, default=None, metavar="PLAN.json",
                          help="score every candidate in this fault environment "
                               "(part of the objective's identity)")
    srch_run.add_argument("--optimizer", choices=sorted(OPTIMIZERS), default="hill-climb")
    srch_run.add_argument("--population", type=int, default=8,
                          help="candidates per optimizer generation")
    srch_run.add_argument("--generations", type=int, default=4,
                          help="optimizer generations after the warm start")
    srch_run.add_argument("--master-seed", type=int, default=0,
                          help="the one seed all proposal randomness derives from")
    srch_run.add_argument("--no-warm-start", action="store_true",
                          help="skip seeding generation 0 with the hand-written jammers")
    srch_run.add_argument("--workers", type=int, default=1,
                          help="worker processes on the search's persistent execution "
                               "pool (1 = serial)")
    srch_run.add_argument("--pool-chunk", type=int, default=None,
                          help="seeds per dispatched pool chunk (default: automatic)")
    srch_run.add_argument("--batch", action="store_true",
                          help="evaluate candidates on the vectorized lockstep kernel "
                               "(batchable candidates only; scalar fallback otherwise)")
    srch_run.add_argument("--max-evaluations", type=_run_cap, default=None,
                          help="cap on live evaluations this invocation (resume later)")

    srch_status = search_sub.add_parser("status", help="report a stored search's progress")
    srch_status.add_argument("--store", required=True)
    srch_status.add_argument("--name", default=None,
                             help="one search (default: every search in the store)")
    srch_status.add_argument("--json", action="store_true",
                             help="machine-readable output for CI and scripts")

    srch_export = search_sub.add_parser(
        "export", help="export the best-found strategies as JSON"
    )
    srch_export.add_argument("--store", required=True)
    srch_export.add_argument("--name", default="search")
    srch_export.add_argument("--output", required=True, help="JSON file to write")
    srch_export.add_argument("--top", type=int, default=10,
                             help="how many top strategies to include")

    monitor = sub.add_parser(
        "monitor", help="watch a live run's status snapshot (file or URL)"
    )
    monitor_sub = monitor.add_subparsers(dest="monitor_command", required=True)
    mon_watch = monitor_sub.add_parser(
        "watch",
        help="poll a --status-file path or a --monitor-port URL, one "
             "progress line per poll, until the run marks it final",
    )
    mon_watch.add_argument(
        "target",
        help="status-file path, or monitor URL like http://127.0.0.1:8787",
    )
    mon_watch.add_argument("--interval", type=float, default=2.0,
                           help="seconds between polls (default: 2.0)")
    mon_watch.add_argument("--max-polls", type=int, default=None,
                           help="give up after this many polls (default: until final)")

    serve = sub.add_parser(
        "serve",
        parents=[observability],
        help="run the campaign service: accept job submissions from many "
             "clients, execute them one at a time on a shared pool",
    )
    serve.add_argument("--run-dir", required=True,
                       help="service state root (per-job dirs under <run-dir>/jobs; "
                            "relative job store paths resolve against it)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0,
                       help="NDJSON protocol port (default 0 = ephemeral; "
                            "pair with --announce so clients can find it)")
    serve.add_argument("--http-port", type=int, default=None,
                       help="also serve the read-only HTTP status facade on this "
                            "port: /status, /jobs, /jobs/<id>/status in the "
                            "monitor snapshot schema (0 = ephemeral)")
    serve.add_argument("--announce", default=None, metavar="PATH",
                       help="write {host, port, http_port} JSON here once bound "
                            "(what repro client --connect reads)")
    serve.add_argument("--workers", type=int, default=1,
                       help="worker processes on the service's shared execution "
                            "pool, reused across every job (1 = serial)")
    serve.add_argument("--pool-chunk", type=int, default=None,
                       help="trials per dispatched pool chunk (default: automatic)")
    serve.add_argument("--max-queued", type=int, default=8,
                       help="admission bound on waiting jobs; submissions past "
                            "it are refused immediately (default: 8)")

    client = sub.add_parser("client", help="talk to a running campaign service")
    client_sub = client.add_subparsers(dest="client_command", required=True)
    connection = argparse.ArgumentParser(add_help=False)
    connection.add_argument("--host", default="127.0.0.1")
    connection.add_argument("--port", type=int, default=None,
                            help="service NDJSON port")
    connection.add_argument("--connect", default=None, metavar="PATH",
                            help="announce file written by repro serve --announce "
                                 "(alternative to --host/--port)")
    connection.add_argument("--connect-retries", type=int, default=0,
                            help="re-attempt a refused TCP connect this many times "
                                 "with jittered exponential backoff (default: 0)")
    connection.add_argument("--connect-backoff", type=float, default=0.2,
                            help="base backoff seconds between connect attempts, "
                                 "doubled per attempt (default: 0.2)")
    cl_submit = client_sub.add_parser(
        "submit", parents=[connection], help="submit a job-request JSON document"
    )
    cl_submit.add_argument("--request", required=True, metavar="PATH",
                           help="job request JSON file ('-' reads stdin); see "
                                "repro.service.protocol.JobRequest")
    cl_submit.add_argument("--wait", action="store_true",
                           help="stream the job to completion; exit 0 only if "
                                "it completed")
    cl_status = client_sub.add_parser(
        "status", parents=[connection],
        help="a job's status document (monitor schema), or the service's",
    )
    cl_status.add_argument("--job", default=None, help="job id (default: the service)")
    cl_watch = client_sub.add_parser(
        "watch", parents=[connection],
        help="stream a job's progress records as NDJSON until it finishes",
    )
    cl_watch.add_argument("--job", required=True)
    cl_cancel = client_sub.add_parser(
        "cancel", parents=[connection],
        help="cancel a job (queued: withdrawn now; running: stops at its "
             "next commit, exactly resumable by resubmitting)",
    )
    cl_cancel.add_argument("--job", required=True)
    client_sub.add_parser("jobs", parents=[connection], help="list every job")
    cl_store = client_sub.add_parser(
        "store-status", parents=[connection],
        help="read-only store query served from the WAL store mid-run",
    )
    cl_store.add_argument("--store", required=True,
                          help="store path (relative resolves against the "
                               "service run dir)")
    client_sub.add_parser("shutdown", parents=[connection],
                          help="stop the service gracefully")

    sched = sub.add_parser("schedule", help="print the Trapdoor / Good Samaritan schedule")
    sched.add_argument("--protocol", choices=["trapdoor", "good-samaritan"], default="trapdoor")
    sched.add_argument("--frequencies", "-F", type=int, default=8)
    sched.add_argument("--budget", "-t", type=int, default=3)
    sched.add_argument("--participants", "-N", type=int, default=64)

    sub.add_parser("experiments", help="list the registered paper artefacts")

    bounds = sub.add_parser("bounds", help="evaluate the paper's bound formulas")
    bounds.add_argument("--frequencies", "-F", type=int, default=8)
    bounds.add_argument("--budget", "-t", type=int, default=3)
    bounds.add_argument("--participants", "-N", type=int, default=64)
    bounds.add_argument("--actual-disruption", type=int, default=1)

    return parser


def _params(args: argparse.Namespace) -> ModelParameters:
    return ModelParameters(
        frequencies=args.frequencies,
        disruption_budget=args.budget,
        participant_bound=args.participants,
    )


def _fault_plan_from_args(args: argparse.Namespace) -> Optional[FaultPlan]:
    """The ``--faults`` plan, loaded and validated (``None`` without the flag)."""
    path = getattr(args, "faults", None)
    return load_fault_plan(path) if path else None


def _scenario_config(args: argparse.Namespace) -> SimulationConfig:
    """Build the configuration the scenario options name, printing the banner."""
    params = _params(args)
    workload = SIMPLE_WORKLOADS[args.workload](args.nodes)
    adversary = JAMMERS[args.jammer]() if args.jammer else workload.adversary
    faults = _fault_plan_from_args(args)
    config = SimulationConfig(
        params=params,
        protocol_factory=PROTOCOLS[args.protocol](),
        activation=workload.activation,
        adversary=adversary,
        max_rounds=args.max_rounds,
        faults=faults,
    )
    print(f"model     : {params.describe()}")
    print(f"protocol  : {args.protocol}")
    print(f"workload  : {workload.description}")
    print(f"adversary : {adversary.describe()}")
    if faults is not None:
        print(f"faults    : {faults.describe()} [{faults.key()}]")
    return config


def _command_simulate(args: argparse.Namespace) -> int:
    config = _scenario_config(args)
    config = replace(config, seed=args.seed, trace_level=TraceLevel(args.trace_level))
    result = simulate(config)
    print(f"result    : {result.summary()}")
    # The streamed metrics cover every activated node exactly at every trace
    # level (a sampled trace would only yield approximate sync rounds).
    rows = []
    for node_id, activated in sorted(result.metrics.activation_rounds.items()):
        latency = result.metrics.sync_latencies.get(node_id)
        rows.append(
            {
                "node": node_id,
                "activated": activated,
                "synchronized": activated + latency - 1 if latency is not None else None,
                "latency": latency,
            }
        )
    if rows:
        print()
        print(render_table(rows, title="Per-node synchronization"))
    else:
        print("(no nodes were activated)")
    if args.json:
        print(f"\nwrote JSON summary to {write_result_json(result, args.json)}")
    if args.csv:
        # --csv with --trace-level none is rejected at parse time in main().
        path = write_round_log_csv(result.trace, args.csv)
        note = " (sampled rounds only)" if config.trace_level is TraceLevel.SAMPLED else ""
        print(f"wrote round log to {path}{note}")
    return 0 if result.synchronized else EXIT_UNSYNCHRONIZED


def _telemetry_from_args(args: argparse.Namespace) -> Optional[Telemetry]:
    """A live telemetry handle when any observability flag asks for one.

    ``--telemetry``, ``--metrics-out``, ``--monitor-port``, and
    ``--status-file`` all need a live registry; with none of them the return
    is ``None``, so call sites pass it straight through to the ``telemetry=``
    parameters (which treat ``None`` as "off").
    """
    wants_monitor = args.monitor_port is not None or args.status_file is not None
    if args.telemetry is None and args.metrics_out is None and not wants_monitor:
        return None
    if args.telemetry is not None:
        return Telemetry(sink=JsonlSink(args.telemetry, max_bytes=args.telemetry_rotate_bytes))
    return Telemetry()


def _monitor_from_args(
    args: argparse.Namespace,
    telemetry: Optional[Telemetry],
    *,
    unit: str,
    total: Optional[int],
    done_metrics: Sequence[str],
    best_metric: Optional[str] = None,
) -> Optional[RunMonitor]:
    """Start a :class:`RunMonitor` when the monitor flags ask for one.

    Prints where the run can be watched; callers must :meth:`RunMonitor.stop`
    in a ``finally`` (before closing the telemetry sink, so the final
    snapshot and the ``/events`` tail still see a live handle).
    """
    if args.monitor_port is None and args.status_file is None:
        return None
    assert telemetry is not None  # _telemetry_from_args made one for these flags
    monitor = RunMonitor(
        telemetry,
        status_path=args.status_file,
        port=args.monitor_port,
        interval=args.monitor_interval,
        unit=unit,
        total=total,
        done_metrics=done_metrics,
        best_metric=best_metric,
    ).start()
    if monitor.port is not None:
        print(f"monitor   : http://127.0.0.1:{monitor.port}/status "
              "(also /metrics, /events)")
    if monitor.status_path is not None:
        print(f"monitor   : status snapshots at {monitor.status_path} "
              "(watch with: repro monitor watch)")
    return monitor


def _finish_telemetry(telemetry: Optional[Telemetry], args: argparse.Namespace) -> None:
    """Flush/close the event sink and write the ``--metrics-out`` snapshot."""
    if telemetry is None:
        return
    telemetry.close()
    if args.telemetry:
        print(f"wrote telemetry events to {args.telemetry}")
    if args.metrics_out:
        target = Path(args.metrics_out)
        if target.suffix == ".prom":
            write_prometheus_text(telemetry.registry, target)
        else:
            write_metrics_json(telemetry.registry, target)
        print(f"wrote metrics snapshot to {target}")


def _plan_from_args(args: argparse.Namespace) -> ExecutionPlan:
    """The execution plan the command-line execution knobs describe."""
    return ExecutionPlan(
        workers=args.workers,
        pool_chunk=args.pool_chunk,
        batch=getattr(args, "batch", False),
    )


def _command_trials(args: argparse.Namespace) -> int:
    config = _scenario_config(args)
    print(f"batch     : {args.trial_count} trials, {args.workers} worker(s), "
          f"trace level {args.trace_level}")
    telemetry = _telemetry_from_args(args)
    monitor = _monitor_from_args(
        args,
        telemetry,
        unit="trials",
        total=args.trial_count,
        done_metrics=("worker.trials_executed",),
    )
    if telemetry is not None:
        telemetry.emit(
            RunStarted(
                protocol=args.protocol,
                workload=args.workload,
                trials=args.trial_count,
                workers=args.workers,
                batch=args.batch,
            )
        )
    started = time.perf_counter()
    plan = _plan_from_args(args)
    # The plan's own pool (None when serial), so dispatch reports to the
    # telemetry handle; shut down below — one CLI call has nothing to reuse it for.
    pool = plan.pool(telemetry=telemetry)
    try:
        summary = run_trials(
            config,
            seeds=args.trial_count,
            trace_level=TraceLevel(args.trace_level),
            pool=pool,
            plan=plan,
        )
        if telemetry is not None:
            if config.faults is not None:
                # One event per injection epoch per trial, carrying where the
                # epoch started and how many rounds reconvergence took.
                for seed, result in zip(summary.seeds, summary.results):
                    if result.stabilization is None:
                        continue
                    for epoch, recovery in zip(
                        result.stabilization.epochs,
                        result.stabilization.recovery_rounds,
                    ):
                        telemetry.emit(
                            FaultInjected(
                                seed=seed, recovery_rounds=recovery, round_index=epoch
                            )
                        )
            telemetry.emit(
                RunCompleted(
                    protocol=args.protocol,
                    workload=args.workload,
                    trials=args.trial_count,
                    seconds=time.perf_counter() - started,
                )
            )
    finally:
        if pool is not None:
            pool.shutdown()
        # Final snapshot first (needs the live sink), then the sink closes
        # inside _finish_telemetry.
        if monitor is not None:
            monitor.stop()
    print(f"summary   : {summary.describe()}")
    rows = [
        {
            "statistic": name,
            "value": value,
        }
        for name, value in (
            ("liveness rate", summary.liveness_rate),
            ("agreement rate", summary.agreement_rate),
            ("unique-leader rate", summary.unique_leader_rate),
            ("mean latency", summary.mean_latency),
            ("median latency", summary.median_latency),
            ("p90 latency", summary.percentile_latency(0.9)),
            ("max latency", summary.max_latency),
        )
    ]
    print()
    print(render_table(rows, title="Batch statistics", float_digits=2))
    if args.json:
        print(f"\nwrote JSON summary to {write_trials_json(summary, args.json)}")
    _finish_telemetry(telemetry, args)
    return 0 if summary.liveness_rate == 1.0 else EXIT_UNSYNCHRONIZED


def _command_campaign(args: argparse.Namespace) -> int:
    handlers = {
        "run": _campaign_run,
        "status": _campaign_status,
        "export": _campaign_export,
    }
    with ResultStore(args.store) as store:
        return handlers[args.campaign_command](args, store)


def _campaign_run(args: argparse.Namespace, store: ResultStore) -> int:
    workloads = args.workloads
    if args.jammers:
        workloads = tuple(
            workload_with_adversary(base, jammer)
            for base in args.workloads
            for jammer in args.jammers
        )
    faults = _fault_plan_from_args(args)
    spec = CampaignSpec(
        name=args.name,
        protocols=args.protocols,
        workloads=workloads,
        frequencies=args.frequencies,
        budgets=args.budgets,
        participants=args.participants,
        node_counts=args.node_counts,
        seeds=args.seeds,
        max_rounds=args.max_rounds,
        fault_plans=(faults,) if faults is not None else (None,),
    )
    if faults is not None:
        print(f"faults    : {faults.describe()} [{faults.key()}]")
    telemetry = _telemetry_from_args(args)
    with CampaignRunner(
        spec,
        store,
        plan=_plan_from_args(args),
        telemetry=telemetry,
    ) as runner:
        before = runner.status()
        print(f"campaign  : {spec.name} ({before.total} cells, "
              f"{len(spec.seeds)} seeds/cell, store {store.path})")
        print(f"resume    : {before.already_complete} cells already complete")
        monitor = _monitor_from_args(
            args,
            telemetry,
            unit="cells",
            total=before.total,
            done_metrics=("campaign.cells_committed", "campaign.cells_reused"),
        )

        def report(cell, progress):
            print(f"  [{progress.already_complete + progress.executed}/{progress.total}] "
                  f"{cell.label()}")

        on_cell = None if args.quiet else report
        try:
            progress = runner.run(max_cells=args.max_cells, on_cell=on_cell)
        finally:
            if monitor is not None:
                monitor.stop()
    print(f"progress  : {progress.describe()}")
    if progress.complete:
        print()
        print(render_table(
            aggregate(store, spec.name),
            title=f"Campaign {spec.name} — aggregate by protocol × workload",
            float_digits=1,
        ))
    _finish_telemetry(telemetry, args)
    return 0


def _campaign_status(args: argparse.Namespace, store: ResultStore) -> int:
    names = [args.name] if args.name else store.campaign_names()
    if not names:
        if args.json:
            print(json.dumps({"store": store.path, "campaigns": []}))
        else:
            print(f"store {store.path} holds no campaigns")
        return 1
    entries = []
    for name in names:
        spec_json = store.spec_json_for(name)
        completed = store.cell_count(name)
        total = None
        if spec_json is not None and not is_search_spec_json(spec_json):
            # Adversary searches, and campaigns older builds registered
            # without a spec (imperative sweeps), have no declarative grid
            # to diff against; report what has been recorded.
            total = len(CampaignSpec.from_json(spec_json).cells())
        entries.append({"campaign": name, "completed": completed, "total": total})
    if args.json:
        print(json.dumps({"store": store.path, "campaigns": entries}, indent=2))
        return 0
    rows = [
        {
            "campaign": entry["campaign"],
            "completed": entry["completed"],
            "total": entry["total"] if entry["total"] is not None else "-",
            "done": (
                f"{entry['completed']}/{entry['total']}" if entry["total"] is not None else "-"
            ),
        }
        for entry in entries
    ]
    print(render_table(rows, title=f"Campaign status — {store.path}"))
    return 0


def _campaign_export(args: argparse.Namespace, store: ResultStore) -> int:
    path = export_campaign(store, args.name, args.output, group_by=args.group_by)
    print(render_table(
        aggregate(store, args.name, group_by=args.group_by),
        title=f"Campaign {args.name} — aggregate by {' × '.join(args.group_by)}",
        float_digits=1,
    ))
    print(f"\nwrote campaign export to {path}")
    return 0


def _command_search(args: argparse.Namespace) -> int:
    handlers = {
        "run": _search_run,
        "status": _search_status,
        "export": _search_export,
    }
    with ResultStore(args.store) as store:
        return handlers[args.search_command](args, store)


def _search_run(args: argparse.Namespace, store: ResultStore) -> int:
    objective = SearchObjective(
        protocol=args.protocol,
        workload=args.workload,
        frequencies=args.frequencies,
        budget=args.budget,
        participants=args.participants,
        node_count=args.nodes,
        seeds=args.seeds,
        max_rounds=args.max_rounds,
        metric=args.metric,
        faults=_fault_plan_from_args(args),
    )
    spec = SearchSpec(
        name=args.name,
        objective=objective,
        optimizer=args.optimizer,
        population=args.population,
        generations=args.generations,
        master_seed=args.master_seed,
        warm_start=not args.no_warm_start,
    )
    print(f"search    : {spec.name} (store {store.path})")
    print(f"objective : {objective.describe()}")
    print(f"optimizer : {spec.optimizer}, population {spec.population}, "
          f"{spec.generations} generation(s), master seed {spec.master_seed}")
    print(f"resume    : {store.cell_count(spec.name)} evaluation(s) already stored")

    def report(outcome):
        source = "cached" if outcome.reused else "evaluated"
        print(f"  [gen {outcome.generation}] {outcome.genome.describe():<42} "
              f"score {outcome.score:>10.1f}  ({source}, {outcome.key})")

    telemetry = _telemetry_from_args(args)
    monitor = _monitor_from_args(
        args,
        telemetry,
        unit="evaluations",
        total=None,
        done_metrics=("search.evaluations_executed", "search.evaluations_reused"),
        best_metric="search.best_score",
    )
    with StrategySearch(
        spec,
        store,
        plan=_plan_from_args(args),
        telemetry=telemetry,
    ) as search:
        try:
            result = search.run(max_evaluations=args.max_evaluations, on_candidate=report)
        finally:
            if monitor is not None:
                monitor.stop()
    print(f"progress  : {result.describe()}")
    if result.best is not None:
        print(f"best      : {result.best.genome.describe()} "
              f"(score {result.best.score:g}, key {result.best.key})")
    _finish_telemetry(telemetry, args)
    return 0


def _search_status(args: argparse.Namespace, store: ResultStore) -> int:
    if args.name:
        names = [args.name]
    else:
        names = [
            name for name in store.campaign_names()
            if is_search_spec_json(store.spec_json_for(name))
        ]
    if not names:
        if args.json:
            print(json.dumps({"store": store.path, "searches": []}))
        else:
            print(f"store {store.path} holds no searches")
        return 1
    entries = [search_status(store, name) for name in names]
    if args.json:
        print(json.dumps({"store": store.path, "searches": entries}, indent=2))
        return 0
    rows = [
        {
            "search": entry["search"],
            "optimizer": entry["optimizer"],
            "metric": entry["metric"],
            "evaluations": entry["evaluations"],
            "best_score": entry["best_score"],
            "best_strategy": entry["best_strategy"] or "-",
        }
        for entry in entries
    ]
    print(render_table(rows, title=f"Search status — {store.path}", float_digits=1))
    return 0


def _search_export(args: argparse.Namespace, store: ResultStore) -> int:
    path = export_search(store, args.name, args.output, top=args.top)
    status = search_status(store, args.name)
    print(f"search    : {args.name} ({status['evaluations']} evaluations)")
    print(f"best      : {status['best_strategy']} (score {status['best_score']:g})")
    print(f"\nwrote search export to {path}")
    return 0


def _command_monitor(args: argparse.Namespace) -> int:
    handlers = {
        "watch": _monitor_watch,
    }
    return handlers[args.monitor_command](args)


def _monitor_watch(args: argparse.Namespace) -> int:
    """Poll a status file or monitor URL; one line per poll, stop on final.

    Exit codes: 0 once a snapshot reports ``final`` (or the target vanishes
    after having been seen — the run ended and cleaned up), 1 when
    ``--max-polls`` runs out first, 2 when the target never yields a valid
    snapshot.
    """
    polls = 0
    seen_any = False
    while args.max_polls is None or polls < args.max_polls:
        polls += 1
        try:
            document = read_status(args.target)
        except ConfigurationError as error:
            print(f"watch     : {error}", file=sys.stderr)
            return 2
        except (OSError, ValueError) as error:
            if seen_any:
                # The run finished and its endpoint/file went away between
                # polls — everything we saw up to now stands.
                print("watch     : target gone; assuming the run ended")
                return 0
            print(f"watch     : cannot read {args.target}: {error}", file=sys.stderr)
            return 2
        seen_any = True
        print(render_status_line(document))
        if document.get("final"):
            return 0
        if args.max_polls is not None and polls >= args.max_polls:
            break
        time.sleep(args.interval)
    print(f"watch     : gave up after {polls} poll(s) without a final snapshot",
          file=sys.stderr)
    return 1


def _command_schedule(args: argparse.Namespace) -> int:
    params = _params(args)
    if args.protocol == "trapdoor":
        schedule = TrapdoorSchedule(params)
        print(render_table(schedule.describe_rows(), title=f"Trapdoor schedule — {params.describe()}", float_digits=5))
        print(f"\ntotal contention rounds: {schedule.total_rounds}")
    else:
        schedule = GoodSamaritanSchedule(params)
        print(render_table(schedule.describe_rows(), title=f"Good Samaritan schedule — {params.describe()}"))
        print(f"\noptimistic rounds: {schedule.optimistic_rounds}, fallback rounds: {schedule.fallback_rounds}")
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    telemetry = _telemetry_from_args(args)
    service = CampaignService(
        args.run_dir,
        host=args.host,
        port=args.port,
        plan=_plan_from_args(args),
        max_queued=args.max_queued,
        monitor_interval=args.monitor_interval,
        http_port=args.http_port,
        telemetry=telemetry,
        announce_path=args.announce,
    )
    service.start()
    print(f"service   : ndjson protocol on {args.host}:{service.port} "
          f"(submit with: repro client submit)")
    if service.http_port is not None:
        print(f"service   : status facade at http://{args.host}:{service.http_port}/status "
              "(also /jobs, /jobs/<id>/status)")
    if args.announce:
        print(f"service   : announce file {args.announce}")
    print(f"service   : run dir {args.run_dir}, "
          f"{'shared pool, ' + str(args.workers) + ' workers' if args.workers > 1 else 'serial execution'}, "
          f"max {args.max_queued} queued")
    # The service-level monitor watches the shared pool's worker metrics
    # across jobs (per-job monitors live under <run-dir>/jobs/<id>/).
    monitor = _monitor_from_args(
        args,
        telemetry,
        unit="trials",
        total=None,
        done_metrics=("worker.trials_executed",),
    )
    try:
        service.wait()
    except KeyboardInterrupt:
        print("\nstopping  : draining; a running job halts at its next commit "
              "(resume by resubmitting the identical request)")
    finally:
        if monitor is not None:
            monitor.stop()
        service.stop()
        _finish_telemetry(telemetry, args)
    return 0


def _client_connection(args: argparse.Namespace) -> ServiceClient:
    if args.connect is not None:
        return connect_from_announce(
            args.connect,
            connect_retries=args.connect_retries,
            connect_backoff=args.connect_backoff,
        )
    if args.port is None:
        raise ConfigurationError("repro client needs --port (or --connect ANNOUNCE_FILE)")
    return ServiceClient(
        args.host,
        args.port,
        connect_retries=args.connect_retries,
        connect_backoff=args.connect_backoff,
    )


def _command_client(args: argparse.Namespace) -> int:
    try:
        with _client_connection(args) as client:
            return _client_dispatch(args, client)
    except (ServiceError, ConfigurationError, ConnectionRefusedError) as error:
        print(f"error     : {error}", file=sys.stderr)
        return 1


def _client_dispatch(args: argparse.Namespace, client: ServiceClient) -> int:
    command = args.client_command
    if command == "submit":
        text = sys.stdin.read() if args.request == "-" else Path(args.request).read_text()
        request = JobRequest.from_json(text)
        if args.wait:
            response = client.request({"op": "submit", "request": request.to_dict()})
            print(json.dumps({k: v for k, v in response.items() if k != "ok"}))
            final = None
            for record in client.watch(response["job"]):
                print(json.dumps(record))
                final = record
            return 0 if final is not None and final.get("state") == "completed" else 1
        response = client.submit(request)
        print(json.dumps({k: v for k, v in response.items() if k != "ok"}))
        return 0
    if command == "status":
        print(json.dumps(client.status(args.job), indent=2))
        return 0
    if command == "watch":
        final = None
        for record in client.watch(args.job):
            print(json.dumps(record))
            final = record
        return 0 if final is not None and final.get("state") in (None, "completed") else 1
    if command == "cancel":
        response = client.cancel(args.job)
        print(json.dumps({k: v for k, v in response.items() if k != "ok"}))
        return 0
    if command == "jobs":
        print(json.dumps(client.jobs(), indent=2))
        return 0
    if command == "store-status":
        response = client.store_status(args.store)
        print(json.dumps({k: v for k, v in response.items() if k != "ok"}, indent=2))
        return 0
    response = client.shutdown()
    print(json.dumps({k: v for k, v in response.items() if k != "ok"}))
    return 0


def _command_experiments(_args: argparse.Namespace) -> int:
    rows = [
        {
            "id": spec.identifier,
            "artefact": spec.paper_artefact,
            "benchmark": spec.benchmark_module,
            "claim": spec.claim,
        }
        for spec in EXPERIMENTS
    ]
    print(render_table(rows, title="Registered experiments (see EXPERIMENTS.md for measured results)"))
    return 0


def _command_bounds(args: argparse.Namespace) -> int:
    params = _params(args)
    n, f, t = params.participant_bound, params.frequencies, params.disruption_budget
    rows = [
        {"bound": "Theorem 1 (regular protocols)", "value": theorem1_lower_bound(n, f, t)},
        {"bound": "Theorem 4 (two-node, eps=1/N)", "value": theorem4_lower_bound(f, t, 1.0 / n) if t else 0.0},
        {"bound": "Theorem 5 (combined lower bound)", "value": theorem5_lower_bound(n, f, t)},
        {"bound": "Theorem 10 (Trapdoor upper bound)", "value": trapdoor_upper_bound(n, f, t)},
        {
            "bound": f"Theorem 18 adaptive (t'={args.actual_disruption})",
            "value": good_samaritan_adaptive_bound(n, args.actual_disruption),
        },
        {"bound": "Theorem 18 worst case", "value": good_samaritan_worst_case_bound(n, f)},
    ]
    print(render_table(rows, title=f"Bound formulas (constants omitted) — {params.describe()}", float_digits=1))
    return 0


def _configure_logging(level_name: str) -> None:
    """Point the ``repro`` logger hierarchy at stderr at the requested level.

    Only the package logger is touched (never the root logger), and the
    handler is replaced rather than appended, so repeated :func:`main` calls
    — the test suite invokes it hundreds of times — do not stack handlers.
    """
    logger = logging.getLogger("repro")
    logger.setLevel(getattr(logging, level_name.upper()))
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    # Propagation stays on (the root logger has no handlers of its own by
    # default), which keeps pytest's caplog able to see these records.
    logger.handlers = [handler]


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point for ``python -m repro`` and the ``repro`` console script."""
    parser = build_parser()
    args = parser.parse_args(argv)
    _configure_logging(args.log_level)
    if (
        args.command == "simulate"
        and args.csv
        and TraceLevel(args.trace_level) is TraceLevel.NONE
    ):
        parser.error("--csv needs a round log; use --trace-level full or sampled")
    handlers = {
        "simulate": _command_simulate,
        "trials": _command_trials,
        "campaign": _command_campaign,
        "search": _command_search,
        "monitor": _command_monitor,
        "serve": _command_serve,
        "client": _command_client,
        "schedule": _command_schedule,
        "experiments": _command_experiments,
        "bounds": _command_bounds,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via tests calling main()
    sys.exit(main())
