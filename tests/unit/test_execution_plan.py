"""The unified execution surface: ExecutionPlan.

Pins the three contracts of the API:

- :class:`~repro.engine.plan.ExecutionPlan` is a frozen, validated,
  JSON-round-trippable value — the one serializable spelling of "how should
  this execute" shared by the Python API, the CLI, and the service wire
  schema.
- Every public entry point (:func:`run_trials`, :func:`run_reduced_trials`,
  :class:`CampaignRunner`, :class:`StrategySearch`,
  :meth:`SearchObjective.evaluate`) spells execution as ``plan=`` only; the
  pre-plan keywords raise ``TypeError``.
- Results are identical whichever plan dispatches them.
"""

from __future__ import annotations

import json

import pytest

from repro.adversary.activation import SimultaneousActivation
from repro.adversary.jammers import NoInterference
from repro.campaigns.runner import CampaignRunner
from repro.campaigns.spec import CampaignSpec
from repro.campaigns.store import ResultStore
from repro.engine.plan import PLAN_SCHEMA, ExecutionPlan
from repro.engine.runner import run_reduced_trials, run_trials
from repro.engine.simulator import SimulationConfig
from repro.exceptions import ConfigurationError
from repro.params import ModelParameters
from repro.protocols.registry import protocol_factory
from repro.search.checkpoint import SearchSpec
from repro.search.objective import SearchObjective
from repro.search.runner import StrategySearch
from repro.search.space import ParametricGenome

PARAMS = ModelParameters(frequencies=4, disruption_budget=1, participant_bound=8)


def small_config() -> SimulationConfig:
    return SimulationConfig(
        params=PARAMS,
        protocol_factory=protocol_factory("trapdoor"),
        activation=SimultaneousActivation(count=2),
        adversary=NoInterference(),
        max_rounds=2_000,
    )


class TestExecutionPlanValue:
    def test_json_round_trip_is_identity(self):
        plan = ExecutionPlan(
            workers=4,
            pool_chunk=2,
            batch=True,
            telemetry_events="events.jsonl",
            telemetry_rotate_bytes=1_000_000,
            metrics_out="metrics.json",
        )
        assert ExecutionPlan.from_json(plan.to_json()) == plan
        assert ExecutionPlan.from_dict(plan.to_dict()) == plan

    def test_default_plan_is_serial(self):
        plan = ExecutionPlan()
        assert not plan.parallel
        assert plan.workers == 1
        assert plan.pool() is None

    def test_dict_form_is_schema_tagged(self):
        assert ExecutionPlan().to_dict()["schema"] == PLAN_SCHEMA

    def test_serial_keeps_batch_drops_dispatch(self):
        plan = ExecutionPlan(workers=8, pool_chunk=4, batch=True)
        serial = plan.serial()
        assert serial.workers == 1
        assert serial.pool_chunk is None
        assert serial.batch is True

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"workers": 0},
            {"workers": -1},
            {"pool_chunk": 0},
            {"telemetry_rotate_bytes": 0},
        ],
    )
    def test_invalid_fields_are_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            ExecutionPlan(**kwargs)

    def test_from_dict_rejects_unknown_schema(self):
        data = ExecutionPlan().to_dict()
        data["schema"] = "repro.execution-plan/v999"
        with pytest.raises(ConfigurationError, match="schema"):
            ExecutionPlan.from_dict(data)

    def test_from_dict_rejects_unknown_fields(self):
        data = ExecutionPlan().to_dict()
        data["wrokers"] = 4
        with pytest.raises(ConfigurationError, match="wrokers"):
            ExecutionPlan.from_dict(data)

    def test_from_json_rejects_malformed_text(self):
        with pytest.raises(ConfigurationError):
            ExecutionPlan.from_json("{not json")


class TestSpellingEquivalence:
    """Every plan shape dispatches to the serial results."""

    def test_run_trials_parallel_plan_matches_serial(self):
        serial = run_trials(small_config(), seeds=3)
        via_plan = run_trials(small_config(), seeds=3, plan=ExecutionPlan(workers=2))
        assert via_plan.latencies() == serial.latencies()
        for a, b in zip(via_plan.results, serial.results):
            assert a.metrics == b.metrics

    def test_run_trials_chunked_plan_matches_serial(self):
        serial = run_trials(small_config(), seeds=4)
        chunked = run_trials(
            small_config(), seeds=4, plan=ExecutionPlan(workers=2, pool_chunk=2)
        )
        assert chunked.latencies() == serial.latencies()

    def test_run_reduced_trials_parallel_plan_matches_serial(self):
        serial = run_reduced_trials(small_config(), seeds=3)
        parallel = run_reduced_trials(
            small_config(), seeds=3, plan=ExecutionPlan(workers=2, pool_chunk=1)
        )
        assert parallel == serial

    def test_campaign_runner_parallel_plan_matches_serial_store(self, tmp_path):
        spec = _campaign_spec("equivalence")
        with ResultStore(str(tmp_path / "via_plan.sqlite")) as store:
            with CampaignRunner(spec, store, plan=ExecutionPlan(workers=2)) as runner:
                runner.run()
            plan_cells = list(store.iter_cells("equivalence"))
        with ResultStore(str(tmp_path / "serial.sqlite")) as store:
            CampaignRunner(spec, store).run()
            serial_cells = list(store.iter_cells("equivalence"))
        assert plan_cells == serial_cells


def _run_trials(tmp_path, **kwargs):
    run_trials(small_config(), seeds=1, **kwargs)


def _run_reduced_trials(tmp_path, **kwargs):
    run_reduced_trials(small_config(), seeds=1, **kwargs)


def _campaign_runner(tmp_path, **kwargs):
    with ResultStore(str(tmp_path / "store.sqlite")) as store:
        CampaignRunner(_campaign_spec("removed"), store, **kwargs)


def _strategy_search(tmp_path, **kwargs):
    with ResultStore(str(tmp_path / "store.sqlite")) as store:
        StrategySearch(_search_spec("removed"), store, **kwargs)


def _search_objective_evaluate(tmp_path, **kwargs):
    _search_spec("removed").objective.evaluate(ParametricGenome(name="sweep"), **kwargs)


@pytest.mark.parametrize(
    "entry_point,keyword",
    [
        (_run_trials, "workers"),
        (_run_trials, "batch"),
        (_run_reduced_trials, "batch"),
        (_campaign_runner, "workers"),
        (_campaign_runner, "pool_chunk"),
        (_campaign_runner, "batch"),
        (_strategy_search, "workers"),
        (_strategy_search, "pool_chunk"),
        (_strategy_search, "batch"),
        (_search_objective_evaluate, "workers"),
        (_search_objective_evaluate, "batch"),
    ],
    ids=lambda value: value if isinstance(value, str) else value.__name__.lstrip("_"),
)
def test_removed_execution_keyword_raises_type_error(tmp_path, entry_point, keyword):
    """The pre-plan keywords are gone: ``plan=ExecutionPlan(...)`` is the only spelling."""
    value = True if keyword == "batch" else 2
    with pytest.raises(TypeError, match=rf"unexpected keyword argument '{keyword}'"):
        entry_point(tmp_path, **{keyword: value})


def _campaign_spec(name: str) -> CampaignSpec:
    return CampaignSpec(
        name=name,
        protocols=("trapdoor",),
        workloads=("quiet_start",),
        frequencies=(4,),
        budgets=(1,),
        participants=(16,),
        node_counts=(3,),
        seeds=(0, 1),
        max_rounds=2_000,
    )


def _search_spec(name: str) -> SearchSpec:
    objective = SearchObjective(
        protocol="trapdoor",
        workload="quiet_start",
        frequencies=4,
        budget=1,
        participants=16,
        node_count=3,
        seeds=(0, 1),
        max_rounds=2_000,
    )
    return SearchSpec(
        name=name,
        objective=objective,
        optimizer="hill-climb",
        population=2,
        generations=1,
        master_seed=0,
    )


class TestPlanOnTheWire:
    """The plan travels inside service job requests byte-for-byte."""

    def test_job_request_embeds_the_plan_json(self):
        from repro.service import JobRequest

        plan = ExecutionPlan(workers=2, pool_chunk=2, batch=True)
        request = JobRequest.for_campaign(_campaign_spec("wire"), store="s.sqlite", plan=plan)
        wire = json.loads(request.to_json())
        assert wire["plan"] == plan.to_dict()
        assert JobRequest.from_json(request.to_json()).plan == plan
