"""The four benchmark workloads, their seeded inputs, and their output checks.

Every input is drawn from the workload seed; the program receives only the
generated configurations and specs.  A workload is used in three steps:
``setup()`` (imports done, service and pool started, one warm-up job run),
then whole units of work (``run_unit``: an engine pass or a service round),
then ``checks()`` (correctness, off the clock).  See ``perfbench/README.md`` for why each
workload exists and which layers it stresses.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import random
import shutil
import statistics
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Optional, Sequence

from repro.campaigns import query
from repro.campaigns.query import StoredSummary
from repro.campaigns.runner import CampaignRunner
from repro.campaigns.spec import CampaignSpec
from repro.campaigns.store import ResultStore, TrialRecord
from repro.engine import runner as engine_runner
from repro.engine.checker import PropertyChecker
from repro.engine.observers import TraceLevel
from repro.engine.plan import ExecutionPlan
from repro.engine.pool import ReducedTrial
from repro.engine.simulator import SimulationConfig, simulate
from repro.experiments.workloads import (
    adversarial_sweep,
    crowded_cafe,
    microwave_oven,
    reactive_attack,
)
from repro.faults import ChurnEvent, CorruptionEvent, FaultPlan
from repro.params import ModelParameters
from repro.protocols.registry import protocol_factory
from repro.search.checkpoint import SearchSpec
from repro.search.objective import SearchObjective
from repro.service.client import ServiceClient
from repro.service.protocol import JobRequest
from repro.service.server import CampaignService

import speed

#: The seed whose reference results are pinned in ``pins.json``.
DEFAULT_SEED = 1

PINS_PATH = Path(__file__).resolve().parent / "pins.json"

#: The (F, t, N) points and node counts of the engine grids.
ENGINE_PARAMS = (
    (ModelParameters(frequencies=8, disruption_budget=3, participant_bound=64), 8),
    (ModelParameters(frequencies=4, disruption_budget=1, participant_bound=8), 4),
)

#: The fault plans of the fault-injection test suite, one per fault kind.
FAULT_PLANS: dict[str, FaultPlan] = {
    "churn": FaultPlan(
        churn=(
            ChurnEvent(node_id=1, leave_round=40, rejoin_round=80),
            ChurnEvent(node_id=2, leave_round=100, rejoin_round=None),
        ),
    ),
    "corruption": FaultPlan(
        corruption=(
            CorruptionEvent(round_index=60, node_ids=(0, 3)),
            CorruptionEvent(round_index=120, node_ids=(2,)),
        ),
    ),
    "byzantine": FaultPlan(byzantine_count=1, byzantine_start_round=30),
    "combined": FaultPlan(
        churn=(ChurnEvent(node_id=1, leave_round=40, rejoin_round=80),),
        byzantine_count=1,
        byzantine_start_round=30,
        corruption=(CorruptionEvent(round_index=60, node_ids=(3,)),),
    ),
}


def seeded(*parts: object) -> random.Random:
    """A deterministic stream for one piece of benchmark input."""
    return random.Random("perfbench/" + "/".join(str(part) for part in parts))


def percentile(values: Sequence[float], fraction: float) -> float:
    """Linear-interpolated percentile (numpy's default convention).

    The benchmark computes its own statistics rather than the program's
    ``interpolated_percentile``, so a change to the program cannot change
    how it is measured.
    """
    ordered = sorted(values)
    position = fraction * (len(ordered) - 1)
    lower = int(position)
    upper = min(lower + 1, len(ordered) - 1)
    weight = position - lower
    return ordered[lower] * (1.0 - weight) + ordered[upper] * weight


def digest(document: Any) -> str:
    text = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def row_tuple(row: ReducedTrial | TrialRecord) -> list:
    return list(dataclasses.astuple(row))


def load_pins() -> dict[str, str]:
    return json.loads(PINS_PATH.read_text())


@dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""


@dataclass
class Cell:
    """One configuration of an engine grid."""

    label: str
    config: SimulationConfig


#: One call of an engine pass: a configuration and the seeds it runs.
Call = tuple[Cell, tuple[int, ...]]


@dataclass
class Unit:
    """One measured unit of work: an engine pass, or a service round.

    ``job_scale[i]`` (``read_scale[i]``) maps ``job_s[i]`` (``read_s[i]``) to
    nominal host speed; see :mod:`speed`.  Without normalization it is 1.
    """

    index: int
    job_s: list[float]
    read_s: list[float]
    job_scale: list[float]
    read_scale: list[float]
    rounds: int
    rows: Any = None


class EngineWorkload:
    """A serial sweep over a fixed grid, one pass of calls at a time.

    A *pass* runs every call of the grid once with fresh seeds.  The job
    (``job_*``) is the pass, or with ``job_is_call`` each call of it; the
    read (``read_*``) after each job summarizes its rows into per-cell
    statistics.
    """

    name = "engine"
    plan = ExecutionPlan()
    seeds_per_call = 1
    job_is_call = False
    trace_units = 3

    def __init__(self, seed: int, out_dir: Path) -> None:
        self.seed = seed
        self.cells = self.build_cells()
        self.calls_made = 0

    # -- inputs --------------------------------------------------------------

    def build_cells(self) -> list[Cell]:
        raise NotImplementedError

    def pass_calls(self, index: int, seed: Optional[int] = None) -> list[Call]:
        """The calls of pass ``index``: every cell with its own fresh seeds."""
        seed = self.seed if seed is None else seed
        calls = []
        for position, cell in enumerate(self.cells):
            base = seeded(self.name, seed, index, position).randrange(1, 2**31)
            calls.append((cell, tuple(range(base, base + self.seeds_per_call))))
        return calls

    # -- work ------------------------------------------------------------------

    def run_calls(self, calls: list[Call]) -> list[tuple]:
        self.calls_made += len(calls)
        return [
            engine_runner.run_reduced_trials(cell.config, seeds=seeds, plan=self.plan)
            for cell, seeds in calls
        ]

    @staticmethod
    def read(rows: list[tuple]) -> list[tuple]:
        """Per-cell statistics, as a user reads a sweep's results."""
        table = []
        for cell_rows in rows:
            summary = StoredSummary(records=tuple(TrialRecord.from_reduced(r) for r in cell_rows))
            table.append(
                (
                    summary.liveness_rate,
                    summary.agreement_rate,
                    summary.safety_rate,
                    summary.mean_latency,
                    summary.percentile_latency(0.9),
                    summary.mean_rounds,
                    summary.max_stabilization_rounds,
                )
            )
        return table

    def setup(self) -> None:
        cell, seeds = self.pass_calls(-1)[-1]
        self.run_calls([(cell, seeds)])

    def run_unit(self, index: int, tracer: Any = None, normalize: bool = False) -> Unit:
        """One pass; with ``normalize`` every call and read is bracketed by
        reference samples, off the clock (see :mod:`speed`)."""
        bracket = speed.Bracket(normalize)
        unit = Unit(index, job_s=[], read_s=[], job_scale=[], read_scale=[], rounds=0, rows=[])
        for call in self.pass_calls(index):
            started = time.perf_counter()
            unit.rows += self.run_calls([call])
            unit.job_s.append(time.perf_counter() - started)
            unit.job_scale.append(bracket.close())
            if self.job_is_call:
                self.timed_read(unit, unit.rows[-1:], bracket, tracer)
        if not self.job_is_call:
            # The pass is one job: its nominal time is the sum of its calls'.
            nominal = sum(seconds * scale for seconds, scale in zip(unit.job_s, unit.job_scale))
            unit.job_s = [sum(unit.job_s)]
            unit.job_scale = [nominal / unit.job_s[0]]
            self.timed_read(unit, unit.rows, bracket, tracer)
        unit.rounds = sum(r.rounds_simulated for cell_rows in unit.rows for r in cell_rows)
        return unit

    def timed_read(
        self, unit: Unit, rows: list[tuple], bracket: speed.Bracket, tracer: Any
    ) -> None:
        started = time.perf_counter()
        if tracer is None:
            self.read(rows)
        else:
            with tracer.span("read", "query"):
                self.read(rows)
        unit.read_s.append(time.perf_counter() - started)
        unit.read_scale.append(bracket.close())

    def close(self) -> None:
        return None

    def operations(self) -> tuple[int, int]:
        """Operations attempted and failed (a failing call raises instead)."""
        return self.calls_made, 0

    # -- layer extras -----------------------------------------------------------

    def layer_extras(self, units: list[Unit]) -> dict[str, float]:
        return {}

    # -- checks ------------------------------------------------------------------

    def reference_digest(self, units: list[Unit]) -> str:
        if self.seed == DEFAULT_SEED and units and units[0].index == 0:
            rows = units[0].rows
        else:
            rows = self.run_calls(self.pass_calls(0, seed=DEFAULT_SEED))
        return self.rows_digest(self.pass_calls(0, seed=DEFAULT_SEED), rows)

    @staticmethod
    def rows_digest(calls: list[Call], rows: list[tuple]) -> str:
        return digest(
            [
                [cell.label, [row_tuple(r) for r in cell_rows]]
                for (cell, _), cell_rows in zip(calls, rows)
            ]
        )

    def checks(self, units: list[Unit]) -> list[Check]:
        checks = []
        reference = self.reference_digest(units)
        pinned = load_pins().get(self.name)
        checks.append(
            Check("pinned_digest", reference == pinned, f"reference {reference}, pinned {pinned}")
        )
        checks.extend(self.verdict_checks(units[0]))
        return checks

    def verdict_samples(self, unit: Unit, count: int) -> list[tuple[Cell, int, Any]]:
        rng = seeded(self.name, self.seed, "verdicts")
        calls = self.pass_calls(unit.index)
        samples = []
        for position in rng.sample(range(len(calls)), count):
            cell, seeds = calls[position]
            offset = rng.randrange(len(seeds))
            samples.append((cell, seeds[offset], unit.rows[position][offset]))
        return samples

    def verdict_checks(self, unit: Unit, count: int = 3) -> list[Check]:
        """A full-trace re-run reproduces each sampled row, and the post-hoc
        checker's safety and agreement verdicts match the streamed ones."""
        checks = []
        for cell, seed, row in self.verdict_samples(unit, count):
            result = simulate(replace(cell.config, seed=seed, trace_level=TraceLevel.FULL))
            same_row = ReducedTrial.from_result(seed, result) == row
            if cell.config.faults is None:
                report = PropertyChecker().check(result.trace)
                verdicts = (report.agreement_holds, report.all_safety_holds)
            else:
                # Post-hoc replay cannot exclude the Byzantine set; the
                # full-trace run's own streamed verdicts stand in.
                verdicts = (result.report.agreement_holds, result.report.all_safety_holds)
            same_verdicts = verdicts == (row.agreement, row.safety)
            checks.append(
                Check(
                    f"verdicts:{cell.label}:{seed}",
                    same_row and same_verdicts,
                    f"row {'matches' if same_row else 'DIFFERS'}, "
                    f"agreement/safety {verdicts} vs streamed {(row.agreement, row.safety)}",
                )
            )
        return checks


class ScalarSweep(EngineWorkload):
    name = "scalar_sweep"
    protocols = ("trapdoor", "good-samaritan", "fault-tolerant-trapdoor", "uniform-wakeup")
    scenarios = (crowded_cafe, reactive_attack, microwave_oven)
    max_rounds = 2_000

    def fault_plan(self, position: int) -> Optional[str]:
        """The name of the fault plan cell ``position`` carries, if any."""
        return None

    def build_cells(self) -> list[Cell]:
        cells = []
        for protocol in self.protocols:
            for scenario in self.scenarios:
                for params, nodes in ENGINE_PARAMS:
                    workload = scenario(nodes)
                    plan = self.fault_plan(len(cells))
                    label = f"{protocol}|{workload.name}|F{params.frequencies}n{nodes}"
                    if plan is not None:
                        label += f"|{plan}"
                    cells.append(
                        Cell(
                            label=label,
                            config=SimulationConfig(
                                params=params,
                                protocol_factory=protocol_factory(protocol),
                                activation=workload.activation,
                                adversary=workload.adversary,
                                max_rounds=self.max_rounds,
                                trace_level=TraceLevel.NONE,
                                faults=FAULT_PLANS[plan] if plan is not None else None,
                            ),
                        )
                    )
        return cells


class FaultSweep(ScalarSweep):
    """The scalar grid, each configuration carrying one fault plan in turn."""

    name = "fault_sweep"
    max_rounds = 1_000

    def fault_plan(self, position: int) -> Optional[str]:
        names = list(FAULT_PLANS)
        return names[position % len(names)]

    def layer_extras(self, units: list[Unit]) -> dict[str, float]:
        trials = capped = 0
        for unit in units:
            for cell_rows in unit.rows:
                for row in cell_rows:
                    trials += 1
                    capped += row.rounds_simulated >= self.max_rounds
        return {"faults.trials": trials, "faults.capped_trials": capped}


class BatchSweep(EngineWorkload):
    """Batchable configurations on the lockstep kernel, 128 seeds per call.

    The job is one kernel call; a pass covers the whole protocol × jammer
    grid, so every run weighs every combination equally.
    """

    name = "batch_sweep"
    plan = ExecutionPlan(batch=True)
    job_is_call = True
    trace_units = 1
    protocols = ("trapdoor", "uniform-wakeup", "decay-wakeup", "round-robin", "single-channel")
    scenarios = (crowded_cafe, reactive_attack, microwave_oven, adversarial_sweep)
    max_rounds = 2_000
    seeds_per_call = 128
    params, nodes = ENGINE_PARAMS[0]

    def build_cells(self) -> list[Cell]:
        cells = []
        for protocol in self.protocols:
            for scenario in self.scenarios:
                workload = scenario(self.nodes)
                cells.append(
                    Cell(
                        label=f"{protocol}|{workload.name}",
                        config=SimulationConfig(
                            params=self.params,
                            protocol_factory=protocol_factory(protocol),
                            activation=workload.activation,
                            adversary=workload.adversary,
                            max_rounds=self.max_rounds,
                            trace_level=TraceLevel.NONE,
                        ),
                    )
                )
        return cells

    def setup(self) -> None:
        cell, seeds = self.pass_calls(-1)[0]
        self.run_calls([(cell, seeds[:8])])

    def checks(self, units: list[Unit]) -> list[Check]:
        checks = super().checks(units)
        rng = seeded(self.name, self.seed, "scalar-equivalence")
        unit = units[0]
        calls = self.pass_calls(unit.index)
        for position in rng.sample(range(len(calls)), 2):
            cell, seeds = calls[position]
            scalar = engine_runner.run_reduced_trials(cell.config, seeds=seeds[:8])
            same = tuple(unit.rows[position][:8]) == tuple(scalar)
            checks.append(
                Check(f"batch_equals_scalar:{cell.label}", same, f"seeds {seeds[0]}..{seeds[7]}")
            )
        return checks


class ServiceMixed:
    """A closed-loop client against an in-process service on a 2-worker pool.

    A *round* is a fixed sequence of jobs on a fresh store: campaign and
    search jobs alternate, and each campaign job is followed by a read
    (``store-status`` over the wire plus ``export_campaign`` of that
    campaign).  Fixed rounds keep the store size, and so the read cost, the
    same no matter how fast the machine is.
    """

    name = "service_mixed"
    pairs_per_round = 56
    trace_units = 1
    workers = 2
    campaign_scenarios = ("quiet_start", "crowded_cafe", "reactive_attack", "microwave_oven")
    search_objective = SearchObjective(
        protocol="trapdoor",
        workload="crowded_cafe",
        frequencies=4,
        budget=1,
        participants=8,
        node_count=4,
        seeds=(0, 1, 2, 3),
        max_rounds=2_000,
        metric="median_latency",
    )
    search_population = 2

    def __init__(self, seed: int, out_dir: Path) -> None:
        self.seed = seed
        self.run_dir = out_dir / f"service-{os.getpid()}"
        self.service: Optional[CampaignService] = None
        self.client: Optional[ServiceClient] = None
        self.stores = 0
        self.job_records: list[dict[str, Any]] = []
        self.reads_made = 0

    # -- inputs --------------------------------------------------------------

    def campaign_spec(self, index: int, job: int, seed: Optional[int] = None) -> CampaignSpec:
        seed = self.seed if seed is None else seed
        base = seeded(self.name, seed, index, "campaign").randrange(1, 2**30)
        first = base + 2 * job
        return CampaignSpec(
            name=f"campaign-{job:03d}",
            protocols=("trapdoor",),
            workloads=self.campaign_scenarios,
            frequencies=(4,),
            budgets=(1,),
            participants=(8,),
            node_counts=(4,),
            seeds=(first, first + 1),
            max_rounds=2_000,
        )

    def search_spec(self, index: int, job: int, seed: Optional[int] = None) -> SearchSpec:
        seed = self.seed if seed is None else seed
        base = seeded(self.name, seed, index, "search").randrange(1, 2**30)
        return SearchSpec(
            name=f"search-{job:03d}",
            objective=self.search_objective,
            population=self.search_population,
            generations=1,
            master_seed=base + job,
        )

    # -- lifecycle ---------------------------------------------------------------

    def setup(self) -> None:
        self.run_dir.mkdir(parents=True, exist_ok=True)
        self.service = CampaignService(
            self.run_dir, plan=ExecutionPlan(workers=self.workers)
        ).start()
        self.client = ServiceClient("127.0.0.1", self.service.port)
        store = self.new_store()
        self.submit(JobRequest.for_campaign(self.campaign_spec(-1, 0), store))

    def close(self) -> None:
        if self.client is not None:
            self.client.close()
        if self.service is not None:
            self.service.stop()
        shutil.rmtree(self.run_dir, ignore_errors=True)

    def operations(self) -> tuple[int, int]:
        """Jobs and reads attempted; failed = jobs that did not complete."""
        failed = sum(1 for record in self.job_records if record["state"] != "completed")
        return len(self.job_records) + self.reads_made, failed

    def new_store(self) -> str:
        self.stores += 1
        return f"store-{self.stores:03d}.db"

    def submit(self, request: JobRequest) -> dict[str, Any]:
        assert self.client is not None
        response = self.client.submit(request, wait=True)
        final = response.get("finished") or {}
        record = {"job": response["job"], "state": final.get("state")}
        self.job_records.append(record)
        return record

    # -- work ----------------------------------------------------------------------

    def run_unit(self, index: int, tracer: Any = None, normalize: bool = False) -> Unit:
        assert self.client is not None
        store = self.new_store()
        path = self.run_dir / store
        export_path = self.run_dir / "exports" / "campaign.json"
        # Opened up front (creating the empty store) so the reads reuse it.
        reader = ResultStore(str(path))
        job_s: list[float] = []
        read_s: list[float] = []
        job_scale: list[float] = []
        read_scale: list[float] = []
        bracket = speed.Bracket(normalize)
        for job in range(self.pairs_per_round):
            for kind in ("campaign", "search"):
                if kind == "campaign":
                    spec = self.campaign_spec(index, job)
                    request = JobRequest.for_campaign(spec, store)
                else:
                    request = JobRequest.for_search(self.search_spec(index, job), store)
                sent = time.perf_counter()
                if tracer is None:
                    self.submit(request)
                else:
                    with tracer.span("job", "service", host=True, kind=kind, store=store):
                        self.submit(request)
                job_s.append(time.perf_counter() - sent)
                if kind == "campaign":
                    sent = time.perf_counter()
                    if tracer is None:
                        self.read(store, reader, spec.name, export_path)
                    else:
                        with tracer.span("read", "service", host=True, campaign=spec.name):
                            self.read(store, reader, spec.name, export_path)
                    read_s.append(time.perf_counter() - sent)
                # One bracket per job and the read after it.
                scale = bracket.close()
                job_scale.append(scale)
                if kind == "campaign":
                    read_scale.append(scale)
        rounds = sum(
            record.rounds_simulated
            for _key, _description, records in reader.iter_cells()
            for record in records
        )
        reader.close()
        return Unit(
            index=index,
            job_s=job_s,
            read_s=read_s,
            job_scale=job_scale,
            read_scale=read_scale,
            rounds=rounds,
            rows=store,
        )

    def read(self, store: str, reader: ResultStore, campaign: str, export_path: Path) -> None:
        assert self.client is not None
        self.reads_made += 1
        status = self.client.store_status(store)
        if not any(entry["campaign"] == campaign for entry in status["campaigns"]):
            raise RuntimeError(f"store-status does not list {campaign}")
        query.export_campaign(reader, campaign, export_path)

    # -- layer extras -----------------------------------------------------------

    def layer_extras(self, units: list[Unit]) -> dict[str, float]:
        """Queue wait and run time of the given units' jobs, from the ``jobs`` op."""
        assert self.client is not None
        stores = {unit.rows for unit in units}
        waited = ran = 0.0
        jobs = 0
        for row in self.client.jobs():
            if row["store"] not in stores:
                continue
            jobs += 1
            waited += row["started_unix_s"] - row["submitted_unix_s"]
            ran += row["finished_unix_s"] - row["started_unix_s"]
        client = sum(sum(unit.job_s) for unit in units)
        return {
            "service.jobs": jobs,
            "service.queue_wait_s": waited,
            "service.run_s": ran,
            "service.overhead_s": client - ran,
            "pool.workers": self.workers,
        }

    # -- checks -----------------------------------------------------------------

    def store_rows(self, path: Path, campaign: Optional[str] = None) -> list:
        with ResultStore(str(path)) as store:
            return [
                [key, description, [row_tuple(r) for r in records]]
                for key, description, records in store.iter_cells(campaign)
            ]

    def checks(self, units: list[Unit]) -> list[Check]:
        checks = []
        # One campaign job's store rows equal a direct serial CampaignRunner run.
        unit = units[0]
        spec = self.campaign_spec(unit.index, 0)
        direct_path = self.run_dir / "direct.db"
        with ResultStore(str(direct_path)) as direct:
            with CampaignRunner(spec, direct) as runner:
                runner.run()
        served = self.store_rows(self.run_dir / unit.rows, spec.name)
        checks.append(
            Check(
                "service_equals_direct_runner",
                served == self.store_rows(direct_path, spec.name),
                f"{spec.name} in {unit.rows}",
            )
        )

        # The post-hoc checker agrees with the verdicts the service stored.
        cell = spec.cells()[0]
        seed = cell.seeds[0]
        result = simulate(replace(cell.config(), seed=seed, trace_level=TraceLevel.FULL))
        report = PropertyChecker().check(result.trace)
        stored = served[0][2][0]
        record = ReducedTrial(*stored)
        same = ReducedTrial.from_result(seed, result) == record and (
            report.agreement_holds,
            report.all_safety_holds,
        ) == (record.agreement, record.safety)
        checks.append(Check(f"verdicts:{cell.label()}:{seed}", same, f"stored {stored}"))

        # Pinned digest of a short reference sequence on a fresh store.
        store = self.new_store()
        for job in range(2):
            self.submit(JobRequest.for_campaign(self.campaign_spec(0, job, DEFAULT_SEED), store))
            self.submit(JobRequest.for_search(self.search_spec(0, job, DEFAULT_SEED), store))
        reference = digest(self.store_rows(self.run_dir / store))
        pinned = load_pins().get(self.name)
        checks.append(
            Check("pinned_digest", reference == pinned, f"reference {reference}, pinned {pinned}")
        )
        return checks


WORKLOADS = {
    workload.name: workload for workload in (ScalarSweep, FaultSweep, BatchSweep, ServiceMixed)
}


def measure(workload: Any, seconds: float) -> list[Unit]:
    """Run whole units, host-speed normalized, until ``seconds`` have passed."""
    units: list[Unit] = []
    started = time.perf_counter()
    while not units or time.perf_counter() - started < seconds:
        units.append(workload.run_unit(len(units), normalize=True))
    return units


def end_to_end(units: list[Unit]) -> dict[str, float]:
    """The end-to-end metrics of a measured run (``setup_s`` and memory aside).

    Timings are normalized to nominal host speed; the same metrics from the
    raw timings are returned under ``raw.``.
    """

    def timings(normalized: bool) -> dict[str, float]:
        jobs: list[float] = []
        reads: list[float] = []
        for unit in units:
            jobs += [t * (k if normalized else 1.0) for t, k in zip(unit.job_s, unit.job_scale)]
            reads += [t * (k if normalized else 1.0) for t, k in zip(unit.read_s, unit.read_scale)]
        return {
            "rounds_per_s": sum(unit.rounds for unit in units) / (sum(jobs) + sum(reads)),
            "job_p50_s": percentile(jobs, 0.5),
            "job_p90_s": percentile(jobs, 0.9),
            "read_p50_s": percentile(reads, 0.5),
        }

    metrics = timings(normalized=True)
    metrics.update({f"raw.{name}": value for name, value in timings(normalized=False).items()})
    scales = [k for unit in units for k in unit.job_scale]
    metrics["raw.host_speed_p50"] = statistics.median(scales)
    return metrics
