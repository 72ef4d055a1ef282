"""Unit tests for the campaign subsystem: spec, store, runner, query.

The contract under test: a campaign is a *durable* sweep.  Cells are
identified by stable content hashes, completed cells are never recomputed,
an interrupted campaign resumes exactly where it stopped, and everything
read back from the store is bit-identical to what a live run would report.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sqlite3
import tempfile
import time
from unittest import mock

import pytest
from test_pool import CrashOnceAdversary

from repro.adversary.base import AdversaryContext, InterferenceAdversary
from repro.campaigns.query import (
    aggregate,
    cell_rows,
    export_campaign,
    summary_for_cell,
)
from repro.campaigns.runner import CampaignRunner, run_missing
from repro.campaigns.spec import SPEC_SCHEMA_VERSION, CampaignSpec, cell_key, register_workload
from repro.campaigns.store import ResultStore, TrialRecord
from repro.engine.observers import TraceLevel
from repro.engine.plan import ExecutionPlan
from repro.engine.pool import ExecutionPool, WorkerCrashError
from repro.engine.runner import run_reduced_trials, run_trials
from repro.exceptions import ConfigurationError, ExperimentError
from repro.telemetry import TELEMETRY_OFF
from repro.experiments.workloads import quiet_start


def tiny_spec(name: str = "tiny", **overrides) -> CampaignSpec:
    """A 4-cell grid that runs in well under a second."""
    fields = dict(
        name=name,
        protocols=("trapdoor",),
        workloads=("quiet_start",),
        frequencies=(4,),
        budgets=(1,),
        participants=(8, 16),
        node_counts=(2, 3),
        seeds=2,
        max_rounds=5_000,
    )
    fields.update(overrides)
    return CampaignSpec(**fields)


class TestSpec:
    def test_grid_expands_in_deterministic_order(self):
        cells = tiny_spec().cells()
        assert len(cells) == 4
        assert [(c.params.participant_bound, c.node_count) for c in cells] == [
            (8, 2), (8, 3), (16, 2), (16, 3),
        ]
        assert all(cell.seeds == (0, 1) for cell in cells)

    def test_cell_keys_are_stable_across_expansions(self):
        first = [cell.key for cell in tiny_spec().cells()]
        second = [cell.key for cell in tiny_spec().cells()]
        assert first == second
        assert len(set(first)) == len(first)

    def test_cell_key_covers_every_identity_field(self):
        base = tiny_spec().cells()[0]
        base_keys = {cell.key for cell in tiny_spec().cells()}
        for overrides in (
            dict(max_rounds=6_000),
            dict(seeds=3),
            dict(protocols=("good-samaritan",)),
            dict(workloads=("crowded_cafe",)),
            dict(frequencies=(8,)),
        ):
            changed = {cell.key for cell in tiny_spec(**overrides).cells()}
            assert changed.isdisjoint(base_keys), (overrides, base.key)

    def test_cell_key_is_content_hash_of_description(self):
        cell = tiny_spec().cells()[0]
        assert cell.key == cell_key(cell.describe_dict())
        assert cell.describe_dict()["schema"] == SPEC_SCHEMA_VERSION

    def test_spec_json_round_trip(self):
        spec = tiny_spec()
        rebuilt = CampaignSpec.from_json(spec.to_json())
        assert rebuilt == spec
        assert [c.key for c in rebuilt.cells()] == [c.key for c in spec.cells()]

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown protocol"):
            tiny_spec(protocols=("flux-capacitor",))

    def test_unknown_workload_rejected_at_cell_resolution(self):
        spec = tiny_spec(workloads=("does_not_exist",))
        with pytest.raises(ConfigurationError, match="unknown workload"):
            spec.cells()[0].config()

    def test_node_count_above_participant_bound_rejected(self):
        with pytest.raises(ConfigurationError, match="participant bound"):
            tiny_spec(participants=(8,), node_counts=(9,)).cells()

    def test_empty_axis_rejected(self):
        with pytest.raises(ConfigurationError, match="must not be empty"):
            tiny_spec(workloads=())

    def test_registered_workload_resolves(self):
        register_workload("campaign_test_quiet", quiet_start)
        spec = tiny_spec(workloads=("campaign_test_quiet",))
        config = spec.cells()[0].config()
        assert config.activation.node_count == 2


class TestStore:
    def test_record_and_read_back(self, tmp_path):
        store = ResultStore(tmp_path / "store.db")
        records = [
            TrialRecord(seed=0, synchronized=True, agreement=True, safety=True,
                        leader_count=1, max_sync_latency=40, rounds_simulated=41),
            TrialRecord(seed=1, synchronized=False, agreement=True, safety=True,
                        leader_count=0, max_sync_latency=None, rounds_simulated=99),
        ]
        assert store.record_cell("c", "k1", {"protocol": "trapdoor"}, records)
        assert store.trial_records("k1") == tuple(records)
        assert store.cell_description("k1") == {"protocol": "trapdoor"}
        assert store.completed_keys() == {"k1"}

    def test_dedup_by_cell_key(self, tmp_path):
        store = ResultStore(tmp_path / "store.db")
        record = TrialRecord(seed=0, synchronized=True, agreement=True, safety=True,
                             leader_count=1, max_sync_latency=10, rounds_simulated=10)
        assert store.record_cell("c", "k1", {}, [record])
        # A second recording under the same key stores nothing new — the key
        # *is* the identity — but the second campaign gains the attribution.
        # (INSERT OR IGNORE inside one transaction also makes the
        # two-processes-race on the same cell benign: the loser lands here.)
        assert not store.record_cell("other", "k1", {}, [record])
        assert store.cell_count() == 1
        assert store.completed_keys("c") == {"k1"}
        assert store.completed_keys("other") == {"k1"}
        assert store.trial_records("k1") == (record,)

    def test_persists_across_reopen(self, tmp_path):
        path = tmp_path / "store.db"
        with ResultStore(path) as store:
            store.record_cell("c", "k1", {"x": 1}, [
                TrialRecord(seed=0, synchronized=True, agreement=True, safety=True,
                            leader_count=1, max_sync_latency=10, rounds_simulated=10)
            ])
        with ResultStore(path) as reopened:
            assert reopened.completed_keys() == {"k1"}
            assert reopened.trial_records("k1")[0].max_sync_latency == 10

    def test_cell_commit_is_atomic(self, tmp_path):
        """A failure mid-write must leave neither the cell nor any trial rows."""
        store = ResultStore(tmp_path / "store.db")
        good = TrialRecord(seed=0, synchronized=True, agreement=True, safety=True,
                           leader_count=1, max_sync_latency=10, rounds_simulated=10)
        torn = TrialRecord(seed=1, synchronized=True, agreement=True, safety=True,
                           leader_count=None, max_sync_latency=10, rounds_simulated=10)
        with pytest.raises(sqlite3.IntegrityError):
            store.record_cell("c", "k1", {}, [good, torn])
        assert store.cell_count() == 0
        assert store.trial_records("k1") == ()
        assert store.completed_keys("c") == set()
        # The failed attempt leaves the store fully usable.
        assert store.record_cell("c", "k1", {}, [good])

    def test_schema_version_mismatch_raises(self, tmp_path):
        path = tmp_path / "store.db"
        ResultStore(path).close()
        connection = sqlite3.connect(path)
        with connection:
            connection.execute("UPDATE meta SET value = '999' WHERE key = 'schema_version'")
        connection.close()
        with pytest.raises(ConfigurationError, match="schema version 999"):
            ResultStore(path)

    def test_store_with_the_legacy_benchmark_table_still_opens(self, tmp_path):
        """Stores written by builds that kept benchmark rows open unchanged.

        Those builds added one more table on open; the rows stay where they
        are (no migration) and nothing reads them.
        """
        path = tmp_path / "store.db"
        first = TrialRecord(seed=0, synchronized=True, agreement=True, safety=True,
                            leader_count=1, max_sync_latency=10, rounds_simulated=10)
        with ResultStore(path) as store:
            store.record_cell("c", "k1", {"x": 1}, [first])
            cells = list(store.iter_cells())
        connection = sqlite3.connect(path)
        with connection:
            connection.execute(
                "CREATE TABLE IF NOT EXISTS bench_provenance ("
                " id INTEGER PRIMARY KEY AUTOINCREMENT, rev TEXT NOT NULL,"
                " scenario TEXT NOT NULL, recorded_utc TEXT NOT NULL,"
                " payload_json TEXT NOT NULL)"
            )
            connection.execute(
                "INSERT INTO bench_provenance (rev, scenario, recorded_utc, payload_json)"
                " VALUES ('abc123', 't', '2024-01-01T00:00:00+00:00', '{\"units\": 2}')"
            )
        connection.close()

        second = dataclasses.replace(first, seed=1, max_sync_latency=12)
        with ResultStore(path) as reopened:
            assert list(reopened.iter_cells()) == cells
            assert reopened.record_cell("c", "k2", {"x": 2}, [second])
        with ResultStore(path) as reopened:
            assert [key for key, _, _ in reopened.iter_cells()] == ["k1", "k2"]
            assert reopened.trial_records("k2") == (second,)
        connection = sqlite3.connect(path)
        try:
            legacy = connection.execute(
                "SELECT rev, scenario, payload_json FROM bench_provenance"
            ).fetchall()
        finally:
            connection.close()
        assert legacy == [("abc123", "t", '{"units": 2}')]

    def test_store_with_a_sweep_registered_without_a_spec_still_reads(self, tmp_path, capsys):
        """Older builds recorded imperative sweeps as a campaign with no spec
        and free-form cell descriptions; such stores keep reading."""
        from repro.cli import main

        path = tmp_path / "store.db"
        record = TrialRecord(seed=0, synchronized=True, agreement=True, safety=True,
                             leader_count=1, max_sync_latency=12, rounds_simulated=13)
        with ResultStore(path) as store:
            store.register_campaign("harness-sweep")
            store.record_cell("harness-sweep", "sweep-key", {
                "kind": "harness-point",
                "label": "N=8",
                "protocol": "repro.protocols.trapdoor.protocol.TrapdoorProtocol",
                "activation": "SimultaneousActivation: SimultaneousActivation(count=2)",
                "frequencies": 4,
                "budget": 1,
                "participants": 8,
                "node_count": 2,
                "seeds": [0],
            }, [record])

        assert main(["campaign", "status", "--store", str(path), "--json"]) == 0
        entries = json.loads(capsys.readouterr().out)["campaigns"]
        assert entries == [{"campaign": "harness-sweep", "completed": 1, "total": None}]

        with ResultStore(path) as store:
            rows = aggregate(store, "harness-sweep")
            assert [(row["protocol"], row["workload"], row["trials"]) for row in rows] == [
                ("repro.protocols.trapdoor.protocol.TrapdoorProtocol", None, 1)
            ]
            document = json.loads(
                export_campaign(store, "harness-sweep", tmp_path / "export.json").read_text()
            )
            assert document["spec"] is None
            assert [cell["cell"] for cell in document["cells"]] == ["sweep-key"]
            # A new campaign still records into the same store.
            assert CampaignRunner(tiny_spec(), store).run().complete
            assert store.cell_count() == 5
            assert store.trial_records("sweep-key") == (record,)

    def test_campaign_reregistration_with_different_spec_raises(self, tmp_path):
        store = ResultStore(tmp_path / "store.db")
        store.register_campaign("c", tiny_spec().to_json())
        store.register_campaign("c", tiny_spec().to_json())  # same spec: no-op
        with pytest.raises(ExperimentError, match="different spec"):
            store.register_campaign("c", tiny_spec(max_rounds=9_999).to_json())

    def test_empty_cell_rejected(self, tmp_path):
        store = ResultStore(tmp_path / "store.db")
        with pytest.raises(ExperimentError, match="no trial records"):
            store.record_cell("c", "k1", {}, [])


class TestRunnerResume:
    def test_one_shot_run_completes_every_cell(self, tmp_path):
        spec = tiny_spec()
        store = ResultStore(tmp_path / "store.db")
        progress = CampaignRunner(spec, store).run()
        assert progress.complete
        assert (progress.total, progress.executed, progress.already_complete) == (4, 4, 0)
        assert store.completed_keys() == {cell.key for cell in spec.cells()}

    def test_interrupted_campaign_resumes_with_only_missing_cells(self, tmp_path, monkeypatch):
        """The acceptance scenario: abort mid-way, rerun, get identical aggregates."""
        spec = tiny_spec()

        # One uninterrupted reference run.
        reference_store = ResultStore(tmp_path / "reference.db")
        CampaignRunner(spec, reference_store).run()

        # The same campaign, aborted after 2 of 4 cells.
        resumed_store = ResultStore(tmp_path / "resumed.db")
        first = CampaignRunner(spec, resumed_store).run(max_cells=2)
        assert not first.complete
        assert (first.executed, first.remaining) == (2, 2)
        assert resumed_store.cell_count() == 2

        # The rerun must execute exactly the missing cells — count the actual
        # trial batches, not just the reported progress.
        executed_batches = []
        import repro.campaigns.runner as runner_module
        real_run_reduced_trials = runner_module.run_reduced_trials

        def counting_run_reduced_trials(config, **kwargs):
            executed_batches.append(config)
            return real_run_reduced_trials(config, **kwargs)

        monkeypatch.setattr(runner_module, "run_reduced_trials", counting_run_reduced_trials)
        second = CampaignRunner(spec, resumed_store).run()
        assert second.complete
        assert (second.executed, second.already_complete) == (2, 2)
        assert len(executed_batches) == 2

        # And the final aggregates are identical to the uninterrupted run.
        group_by = ("protocol", "participants", "node_count")
        assert aggregate(resumed_store, spec.name, group_by=group_by) == aggregate(
            reference_store, spec.name, group_by=group_by
        )
        for cell in spec.cells():
            assert resumed_store.trial_records(cell.key) == reference_store.trial_records(cell.key)

    def test_rerunning_a_complete_campaign_executes_nothing(self, tmp_path, monkeypatch):
        spec = tiny_spec()
        store = ResultStore(tmp_path / "store.db")
        CampaignRunner(spec, store).run()

        import repro.campaigns.runner as runner_module
        def forbid(*args, **kwargs):  # pragma: no cover - only on regression
            raise AssertionError("a complete campaign must not re-execute cells")

        monkeypatch.setattr(runner_module, "run_reduced_trials", forbid)
        progress = CampaignRunner(spec, store).run()
        assert progress.complete
        assert (progress.executed, progress.already_complete) == (0, 4)

    @pytest.mark.parametrize("cap", [-1, 0])
    def test_cap_below_one_is_refused_before_anything_runs(self, tmp_path, cap):
        with ResultStore(tmp_path / "store.db") as store:
            with pytest.raises(ConfigurationError, match="max_cells must be at least 1"):
                CampaignRunner(tiny_spec(), store).run(max_cells=cap)
            assert store.campaign_names() == []
            assert store.cell_count() == 0

    def test_status_reports_completion_without_executing(self, tmp_path):
        spec = tiny_spec()
        store = ResultStore(tmp_path / "store.db")
        runner = CampaignRunner(spec, store)
        assert (runner.status().already_complete, runner.status().total) == (0, 4)
        runner.run(max_cells=3)
        status = runner.status()
        assert (status.already_complete, status.remaining, status.total) == (3, 1, 4)

    def test_overlapping_specs_share_cells(self, tmp_path):
        """Two campaigns with a common sub-grid reuse each other's cells."""
        store = ResultStore(tmp_path / "store.db")
        CampaignRunner(tiny_spec(name="first", participants=(8,)), store).run()
        progress = CampaignRunner(tiny_spec(name="second"), store).run()
        # The (N=8) half of the 2×2 grid is shared with the first campaign.
        assert (progress.total, progress.already_complete, progress.executed) == (4, 2, 2)
        # Reused cells are *claimed*: the second campaign's own status,
        # aggregates, and exports cover its full grid, not just what it ran.
        assert store.cell_count("second") == 4
        rows = aggregate(store, "second", group_by=("participants",))
        assert [(row["participants"], row["trials"]) for row in rows] == [(8, 4), (16, 4)]

    def test_identical_spec_under_new_name_reuses_everything(self, tmp_path, monkeypatch):
        store = ResultStore(tmp_path / "store.db")
        CampaignRunner(tiny_spec(name="first"), store).run()

        import repro.campaigns.runner as runner_module
        def forbid(*args, **kwargs):  # pragma: no cover - only on regression
            raise AssertionError("a fully shared grid must not re-execute")

        monkeypatch.setattr(runner_module, "run_reduced_trials", forbid)
        progress = CampaignRunner(tiny_spec(name="twin"), store).run()
        assert progress.complete and progress.executed == 0
        assert aggregate(store, "twin") == aggregate(store, "first")

    def test_unregistered_workload_fails_before_any_execution(self, tmp_path, monkeypatch):
        spec = tiny_spec(workloads=("quiet_start", "quiet_stat"))
        store = ResultStore(tmp_path / "store.db")

        import repro.campaigns.runner as runner_module
        def forbid(*args, **kwargs):  # pragma: no cover - only on regression
            raise AssertionError("nothing may execute before workload validation")

        monkeypatch.setattr(runner_module, "run_reduced_trials", forbid)
        with pytest.raises(ConfigurationError, match="quiet_stat"):
            CampaignRunner(spec, store).run()
        assert store.cell_count() == 0


class TestRunMissing:
    """The store-backed cycle both runners share, called directly."""

    def test_claims_stored_keys_and_runs_first_occurrences_trace_free(
        self, tmp_path, monkeypatch
    ):
        cells = tiny_spec().cells()
        templates = []
        import repro.campaigns.runner as runner_module
        real_run_reduced_trials = runner_module.run_reduced_trials

        def recording_run_reduced_trials(config, **kwargs):
            templates.append(config)
            return real_run_reduced_trials(config, **kwargs)

        monkeypatch.setattr(runner_module, "run_reduced_trials", recording_run_reduced_trials)
        with ResultStore(tmp_path / "store.db") as store:
            stored_rows = run_reduced_trials(cells[0].config(), seeds=cells[0].seeds)
            store.record_cell("other", cells[0].key, cells[0].describe_dict(), stored_rows)
            # Input: a stored key, a missing key twice, then another missing key.
            batch = [cells[0], cells[1], cells[1], cells[2]]
            stored, to_run, rows = run_missing(
                store, "mine", [cell.key for cell in batch],
                lambda index: (batch[index].config(), batch[index].seeds),
                limit=None, pool=None, plan=ExecutionPlan(), telemetry=TELEMETRY_OFF,
            )
            assert stored == {cells[0].key}
            assert store.completed_keys("mine") == {cells[0].key}
            assert to_run == [1, 3]
            assert templates == []  # serial rows run only when requested
            assert list(rows) == [
                run_reduced_trials(cell.config(), seeds=cell.seeds) for cell in cells[1:3]
            ]
        # Cell configs trace in full by default; the cycle runs them trace-free.
        assert [template.trace_level for template in templates] == [TraceLevel.NONE] * 2


class TestQuery:
    def test_stored_summary_matches_live_trial_summary_exactly(self, tmp_path):
        spec = tiny_spec()
        store = ResultStore(tmp_path / "store.db")
        CampaignRunner(spec, store).run()
        for cell in spec.cells():
            live = run_trials(cell.config(), seeds=cell.seeds)
            stored = summary_for_cell(store, cell.key)
            assert stored.trials == live.trials
            assert stored.seeds == live.seeds
            assert stored.latencies() == live.latencies()
            assert stored.liveness_rate == live.liveness_rate
            assert stored.agreement_rate == live.agreement_rate
            assert stored.safety_rate == live.safety_rate
            assert stored.unique_leader_rate == live.unique_leader_rate
            assert stored.mean_latency == live.mean_latency
            assert stored.median_latency == live.median_latency
            assert stored.max_latency == live.max_latency
            assert stored.percentile_latency(0.9) == live.percentile_latency(0.9)
            assert stored.describe() == live.describe()

    def test_aggregate_groups_and_pools_trials(self, tmp_path):
        spec = tiny_spec()
        store = ResultStore(tmp_path / "store.db")
        CampaignRunner(spec, store).run()
        rows = aggregate(store, spec.name, group_by=("participants",))
        assert [row["participants"] for row in rows] == [8, 16]
        # Each group pools two cells × two seeds.
        assert all(row["trials"] == 4 for row in rows)
        collapsed = aggregate(store, spec.name, group_by=("protocol",))
        assert len(collapsed) == 1 and collapsed[0]["trials"] == 8

    def test_aggregate_unknown_dimension_raises(self, tmp_path):
        store = ResultStore(tmp_path / "store.db")
        with pytest.raises(ExperimentError, match="cannot group by"):
            aggregate(store, group_by=("flavour",))

    def test_aggregate_empty_store_raises(self, tmp_path):
        store = ResultStore(tmp_path / "store.db")
        with pytest.raises(ExperimentError, match="no completed cells"):
            aggregate(store)

    def test_cell_rows_carry_grid_coordinates(self, tmp_path):
        spec = tiny_spec()
        store = ResultStore(tmp_path / "store.db")
        CampaignRunner(spec, store).run()
        rows = cell_rows(store, spec.name)
        assert len(rows) == 4
        assert {row["protocol"] for row in rows} == {"trapdoor"}
        assert {row["participants"] for row in rows} == {8, 16}
        assert all("p90_latency" in row and "liveness" in row for row in rows)

    def test_export_writes_spec_cells_and_aggregates(self, tmp_path):
        spec = tiny_spec()
        store = ResultStore(tmp_path / "store.db")
        CampaignRunner(spec, store).run()
        path = export_campaign(store, spec.name, tmp_path / "out" / "export.json")
        document = json.loads(path.read_text())
        assert document["campaign"] == spec.name
        assert document["spec"]["participants"] == [8, 16]
        assert len(document["cells"]) == 4
        assert document["aggregates"][0]["trials"] == 8


def statements_on_open(path) -> list[str]:
    """Every SQL statement a :class:`ResultStore` open-and-close runs."""
    connect = sqlite3.connect
    statements: list[str] = []

    def traced(*args, **kwargs):
        connection = connect(*args, **kwargs)
        connection.set_trace_callback(statements.append)
        return connection

    with mock.patch.object(sqlite3, "connect", traced):
        ResultStore(path).close()
    return statements


def writes(statements: list[str]) -> list[str]:
    return [
        statement
        for statement in statements
        if statement.split()[0].upper() in ("BEGIN", "CREATE", "ALTER", "INSERT", "UPDATE")
    ]


class TestStoreReadPath:
    """Opening an up-to-date store writes nothing; status and export read once."""

    RECORD = TrialRecord(seed=0, synchronized=True, agreement=True, safety=True,
                         leader_count=1, max_sync_latency=10, rounds_simulated=10)

    def test_a_fresh_store_is_created_and_a_reopen_writes_nothing(self, tmp_path):
        path = tmp_path / "store.db"
        assert any(s.lstrip().startswith("CREATE TABLE") for s in statements_on_open(path))
        assert writes(statements_on_open(path)) == []
        with ResultStore(path) as store:
            assert store.record_cell("c", "k1", {"x": 1}, [self.RECORD])

    def test_an_old_layout_is_migrated_once(self, tmp_path):
        path = tmp_path / "store.db"
        with ResultStore(path) as store:
            store.record_cell("c", "k1", {"x": 1}, [self.RECORD])
        connection = sqlite3.connect(path)
        with connection:
            connection.execute("ALTER TABLE trials DROP COLUMN stabilization_rounds")
        connection.close()
        migrated = writes(statements_on_open(path))
        assert any("ADD COLUMN stabilization_rounds" in s for s in migrated)
        assert writes(statements_on_open(path)) == []
        with ResultStore(path) as store:
            assert store.trial_records("k1") == (self.RECORD,)

    def test_a_wrong_version_is_refused_on_every_open(self, tmp_path):
        path = tmp_path / "store.db"
        ResultStore(path).close()
        connection = sqlite3.connect(path)
        with connection:
            connection.execute("UPDATE meta SET value = '2' WHERE key = 'schema_version'")
        connection.close()
        for _ in range(2):
            with pytest.raises(ConfigurationError, match="schema version 2"):
                ResultStore(path)

    def test_cell_counts_list_empty_campaigns_and_count_shared_cells_in_each(self, tmp_path):
        with ResultStore(tmp_path / "store.db") as store:
            store.register_campaign("b-empty")
            store.register_campaign("a-first")
            store.register_campaign("c-shares")
            store.record_cell("a-first", "k1", {"x": 1}, [self.RECORD])
            store.record_cell("a-first", "k2", {"x": 2}, [self.RECORD])
            store.add_cells_to_campaign("c-shares", ["k2"])
            store.record_cell("unregistered", "k3", {"x": 3}, [self.RECORD])
            counts = store.campaign_cell_counts()
            assert counts == {"a-first": 2, "b-empty": 0, "c-shares": 1}
            assert list(counts) == store.campaign_names()
            assert counts == {name: store.cell_count(name) for name in store.campaign_names()}

    @staticmethod
    def iter_cells_traced(store: ResultStore, campaign=None) -> tuple[list, list[str]]:
        """``list(store.iter_cells(campaign))`` and the SQL statements it ran."""
        statements: list[str] = []
        store._connection.set_trace_callback(statements.append)
        try:
            return list(store.iter_cells(campaign)), statements
        finally:
            store._connection.set_trace_callback(None)

    def test_iter_cells_statements_do_not_grow_with_the_cell_count(self, tmp_path):
        statements = {}
        for cells in (2, 12):
            with ResultStore(tmp_path / f"{cells}.db") as store:
                for index in range(cells):
                    seeds = [dataclasses.replace(self.RECORD, seed=seed) for seed in range(3)]
                    store.record_cell("c", f"k{index}", {"x": index}, seeds)
                for campaign in (None, "c"):
                    listed, ran = self.iter_cells_traced(store, campaign)
                    assert len(listed) == cells
                    statements[cells, campaign] = len(ran)
        assert statements[2, None] == statements[12, None]
        assert statements[2, "c"] == statements[12, "c"]

    def test_iter_cells_yields_every_cells_trial_records(self, tmp_path):
        def trial(seed: int, stabilization_rounds: int | None = None) -> TrialRecord:
            return dataclasses.replace(
                self.RECORD, seed=seed, stabilization_rounds=stabilization_rounds
            )

        with ResultStore(tmp_path / "store.db") as store:
            store.record_cell("a", "k1", {"x": 1}, [trial(2), trial(0), trial(1)])
            store.record_cell("b", "fault", {"x": 2}, [trial(5, 7), trial(3, 40), trial(4)])
            store.record_cell("a", "k3", {"x": 3}, [trial(0)])
            store.add_cells_to_campaign("b", ["k1"])
            in_order = {
                None: ["k1", "fault", "k3"],
                "a": ["k1", "k3"],
                "b": ["k1", "fault"],
            }
            for campaign, keys in in_order.items():
                expected = [
                    (key, store.cell_description(key), store.trial_records(key)) for key in keys
                ]
                assert list(store.iter_cells(campaign)) == expected
            assert [t.seed for t in store.trial_records("fault")] == [3, 4, 5]
            assert [t.stabilization_rounds for t in store.trial_records("fault")] == [40, None, 7]

    def test_export_reads_the_cells_once_and_writes_the_same_bytes(self, tmp_path):
        spec = tiny_spec()
        store = ResultStore(tmp_path / "store.db")
        CampaignRunner(spec, store).run()
        group_by = ("participants",)
        expected = json.dumps(
            {
                "campaign": spec.name,
                "spec": json.loads(store.spec_json_for(spec.name)),
                "cells": cell_rows(store, spec.name),
                "aggregates": aggregate(store, spec.name, group_by=group_by),
            },
            indent=2,
        )
        with mock.patch.object(ResultStore, "iter_cells", wraps=store.iter_cells) as reads:
            path = export_campaign(store, spec.name, tmp_path / "export.json", group_by=group_by)
        assert reads.call_count == 1
        assert path.read_text() == expected


class TestStoreDurability:
    """WAL journaling, flush semantics, and interrupt-mid-batch durability."""

    def test_disk_stores_open_in_wal_mode(self, tmp_path):
        with ResultStore(tmp_path / "store.db") as store:
            assert store.wal_enabled
            mode = store._connection.execute("PRAGMA journal_mode").fetchone()[0]
            assert mode.lower() == "wal"
            sync = store._connection.execute("PRAGMA synchronous").fetchone()[0]
            assert int(sync) == 1  # NORMAL

    def test_memory_stores_fall_back_without_wal(self):
        with ResultStore(":memory:") as store:
            assert not store.wal_enabled  # :memory: cannot take WAL; still works
            store.register_campaign("c")
            assert store.campaign_names() == ["c"]

    def test_flush_checkpoints_the_wal_into_the_main_file(self, tmp_path):
        path = tmp_path / "store.db"
        with ResultStore(path) as store:
            CampaignRunner(tiny_spec(), store).run(max_cells=2)
            store.flush()
            # After a TRUNCATE checkpoint the WAL holds nothing: a second
            # connection reading only the main database file sees every row.
            raw = sqlite3.connect(path)
            try:
                assert raw.execute("SELECT COUNT(*) FROM cells").fetchone()[0] == 2
            finally:
                raw.close()
            wal = path.with_name(path.name + "-wal")
            assert not wal.exists() or wal.stat().st_size == 0

    def test_context_manager_exit_leaves_a_durable_database(self, tmp_path):
        path = tmp_path / "store.db"
        spec = tiny_spec()
        with ResultStore(path) as store:
            CampaignRunner(spec, store).run()
        # A fresh plain connection (no WAL recovery help from ResultStore)
        # reads the complete campaign.
        raw = sqlite3.connect(path)
        try:
            assert raw.execute("SELECT COUNT(*) FROM cells").fetchone()[0] == 4
            assert raw.execute("SELECT COUNT(*) FROM trials").fetchone()[0] == 8
        finally:
            raw.close()

    def test_closing_a_store_that_only_read_leaves_the_wal_alone(self, tmp_path):
        path = tmp_path / "store.db"
        wal = path.with_name(path.name + "-wal")
        with ResultStore(path) as writer:
            CampaignRunner(tiny_spec(), writer).run(max_cells=2)
            size = wal.stat().st_size
            assert size > 0
            reader = ResultStore(path)
            assert reader.cell_count() == 2
            reader.close()
            # No checkpoint: the writer's log is as the writer left it.
            assert wal.stat().st_size == size
        # The writer changed rows, so its close still checkpoints.
        assert not wal.exists() or wal.stat().st_size == 0

    def test_close_is_idempotent(self, tmp_path):
        store = ResultStore(tmp_path / "store.db")
        store.register_campaign("c")
        store.close()
        store.close()

    def test_interrupt_mid_batch_resumes_bit_identically_under_wal(self, tmp_path):
        """Kill between cell commits, reopen, resume: byte-identical stores."""
        spec = tiny_spec()
        with ResultStore(tmp_path / "reference.db") as reference:
            CampaignRunner(spec, reference).run()
            # Interrupted run: two cells commit, then the process "dies"
            # without close()/flush() — only what WAL recovery guarantees
            # survives may be counted on.
            interrupted = ResultStore(tmp_path / "interrupted.db")
            CampaignRunner(spec, interrupted).run(max_cells=2)
            del interrupted  # no clean close: the WAL is left as-is on disk

            with ResultStore(tmp_path / "interrupted.db") as resumed:
                progress = CampaignRunner(spec, resumed).run()
                assert progress.complete
                assert progress.already_complete == 2
                for cell in spec.cells():
                    assert resumed.trial_records(cell.key) == reference.trial_records(cell.key)
                assert list(resumed.iter_cells(spec.name)) == list(
                    reference.iter_cells(spec.name)
                )


@dataclasses.dataclass(frozen=True)
class GatedCountingAdversary(InterferenceAdversary):
    """Records each trial it runs as a file in ``directory``, then holds
    every trial after the first until ``gate`` exists.

    Holding the one worker at the second trial freezes the executor's queue
    while the first cell commits, so the trials that run after that commit
    are exactly the ones the executor had already started.
    """

    directory: str
    gate: str

    def choose_disruption(self, context: AdversaryContext) -> frozenset:
        if context.global_round == 1:
            handle, _path = tempfile.mkstemp(dir=self.directory)
            os.close(handle)
            deadline = time.monotonic() + 30
            while (
                len(os.listdir(self.directory)) > 1
                and not os.path.exists(self.gate)
                and time.monotonic() < deadline
            ):
                time.sleep(0.005)
        return frozenset()


def register_adversary_workload(name: str, adversary: InterferenceAdversary) -> None:
    """Register ``quiet_start`` with its interference swapped for ``adversary``."""
    register_workload(
        name, lambda node_count: dataclasses.replace(quiet_start(node_count), adversary=adversary)
    )


class _StopRun(Exception):
    pass


class TestPooledRunner:
    """The execution-pool path: bit-identity, pool lifecycle, crash retry
    and early stop."""

    def test_pooled_campaign_store_is_byte_identical_to_serial(self, tmp_path):
        spec = tiny_spec()
        with ResultStore(tmp_path / "serial.db") as serial_store:
            CampaignRunner(spec, serial_store).run()
            with ResultStore(tmp_path / "pooled.db") as pooled_store:
                with CampaignRunner(
                    spec, pooled_store, plan=ExecutionPlan(workers=2, pool_chunk=1)
                ) as runner:
                    progress = runner.run()
                assert progress.complete and progress.executed == 4
                # Same keys, same descriptions, same trial scalars, same
                # insertion order — the full store contract, byte for byte.
                assert list(pooled_store.iter_cells(spec.name)) == list(
                    serial_store.iter_cells(spec.name)
                )
                assert aggregate(pooled_store, spec.name) == aggregate(serial_store, spec.name)

    def test_pool_survives_across_run_invocations(self, tmp_path):
        spec = tiny_spec()
        with ResultStore(tmp_path / "store.db") as store:
            with CampaignRunner(spec, store, plan=ExecutionPlan(workers=2)) as runner:
                first = runner.run(max_cells=2)
                second = runner.run()
                assert (first.executed, second.executed) == (2, 2)
                assert runner.pool is not None
                assert runner.pool.starts == 1  # one spin-up served both invocations

    def test_shared_pool_is_not_shut_down_by_the_runner(self, tmp_path):
        from repro.engine.pool import ExecutionPool

        spec = tiny_spec()
        with ExecutionPool(workers=2) as shared:
            with ResultStore(tmp_path / "store.db") as store:
                with CampaignRunner(spec, store, pool=shared) as runner:
                    runner.run()
                assert shared.running  # runner.close() must leave it alone
                assert shared.starts == 1

    def test_on_cell_progress_counts_match_serial_semantics(self, tmp_path):
        spec = tiny_spec()
        seen = []
        with ResultStore(tmp_path / "store.db") as store:
            with CampaignRunner(spec, store, plan=ExecutionPlan(workers=2)) as runner:
                runner.run(on_cell=lambda cell, progress: seen.append(
                    (cell.key, progress.executed, progress.remaining)
                ))
        assert [executed for _key, executed, _rem in seen] == [1, 2, 3, 4]
        assert [rem for _key, _executed, rem in seen] == [3, 2, 1, 0]
        assert [key for key, _e, _r in seen] == [cell.key for cell in spec.cells()]

    def test_unpicklable_grid_degrades_to_serial_with_per_cell_commits(self, tmp_path):
        """A closure-built workload can't reach workers: one warning, and the
        batched path must hand off to the serial one so cells still commit
        (and resume) one at a time instead of all-at-the-end."""
        import warnings as warnings_module

        from repro.adversary.jammers import NoInterference
        from repro.experiments.workloads import Workload, quiet_start

        class ClosureAdversary(NoInterference):
            """Unpicklable by construction (holds a lambda)."""

            def __init__(self):
                self._closure = lambda: None

        def closure_workload(node_count):
            base = quiet_start(node_count)
            return Workload(
                name=base.name,
                activation=base.activation,
                adversary=ClosureAdversary(),
                description=base.description,
            )

        register_workload("campaign_test_closure", closure_workload)
        spec = tiny_spec(workloads=("campaign_test_closure",))
        with ResultStore(tmp_path / "serial.db") as serial_store:
            with warnings_module.catch_warnings():
                warnings_module.simplefilter("ignore", RuntimeWarning)
                CampaignRunner(spec, serial_store).run()
            committed_during_run = []
            with ResultStore(tmp_path / "pooled.db") as pooled_store:
                with CampaignRunner(spec, pooled_store, plan=ExecutionPlan(workers=2)) as runner:
                    with pytest.warns(RuntimeWarning, match="not picklable") as caught:
                        runner.run(on_cell=lambda cell, progress: committed_during_run.append(
                            pooled_store.cell_count()
                        ))
                # Exactly one warning for the whole grid, not one per cell.
                assert len([w for w in caught if "not picklable" in str(w.message)]) == 1
                # Each cell was committed before the next one ran.
                assert committed_during_run == [1, 2, 3, 4]
                assert list(pooled_store.iter_cells(spec.name)) == list(
                    serial_store.iter_cells(spec.name)
                )

    def test_pooled_campaign_survives_a_worker_crash(self, tmp_path):
        sentinel = str(tmp_path / "crashed-once")
        register_adversary_workload("campaign_test_crash_once", CrashOnceAdversary(sentinel))
        spec = tiny_spec(
            workloads=("campaign_test_crash_once",), participants=(8, 16, 32), node_counts=(2,)
        )
        with ExecutionPool(workers=2, chunk_size=1) as pool:
            with ResultStore(tmp_path / "pooled.db") as pooled_store:
                progress = CampaignRunner(spec, pooled_store, pool=pool).run()
                # One crash, one restart for the whole grid, within the
                # pool's default retry budget.
                assert progress.complete and progress.executed == 3
                assert pool.starts == 2
                # The sentinel exists now, so a serial run takes the quiet
                # branch the retried chunks took.
                with ResultStore(tmp_path / "serial.db") as serial_store:
                    CampaignRunner(spec, serial_store).run()
                    assert list(pooled_store.iter_cells(spec.name)) == list(
                        serial_store.iter_cells(spec.name)
                    )

    def test_crash_without_retry_budget_raises_and_rerun_resumes(self, tmp_path):
        sentinel = str(tmp_path / "crashed-once")
        register_adversary_workload("campaign_test_crash_once", CrashOnceAdversary(sentinel))
        spec = tiny_spec(
            workloads=("campaign_test_crash_once",), participants=(8, 16, 32), node_counts=(2,)
        )
        with ExecutionPool(workers=2, chunk_size=1, crash_retries=0) as pool:
            with ResultStore(tmp_path / "pooled.db") as pooled_store:
                runner = CampaignRunner(spec, pooled_store, pool=pool)
                with pytest.raises(WorkerCrashError):
                    runner.run()
                assert runner.run().complete
                with ResultStore(tmp_path / "serial.db") as serial_store:
                    CampaignRunner(spec, serial_store).run()
                    assert list(pooled_store.iter_cells(spec.name)) == list(
                        serial_store.iter_cells(spec.name)
                    )

    def test_stopping_a_run_early_cancels_queued_chunks(self, tmp_path):
        ran = tmp_path / "ran"
        ran.mkdir()
        gate = tmp_path / "gate"
        register_adversary_workload(
            "campaign_test_counting", GatedCountingAdversary(str(ran), str(gate))
        )
        # 20 one-trial cells, so one chunk is one cell is one trial.
        spec = tiny_spec(
            workloads=("campaign_test_counting",),
            participants=(8, 16, 32, 64, 128),
            budgets=(0, 1),
            seeds=1,
        )

        def stop(cell, progress):
            raise _StopRun

        with ExecutionPool(workers=1, chunk_size=1) as pool:
            with ResultStore(tmp_path / "store.db") as store:
                try:
                    # Keeping the exception keeps the stopped run's frame and
                    # its drain alive, so only the run itself can have
                    # cancelled the queued chunks.
                    with pytest.raises(_StopRun) as stopped:
                        CampaignRunner(spec, store, pool=pool).run(on_cell=stop)
                finally:
                    gate.touch()
                committed = store.cell_count()
            # A later batch queues behind every chunk the stopped run left
            # on the pool, so once it returns those have all run.
            run_reduced_trials(tiny_spec().cells()[0].config(), seeds=1, pool=pool)
            trials_run = len(list(ran.iterdir()))
        assert stopped.type is _StopRun
        assert committed == 1
        # The worker's chunk and the executor's small call queue may still
        # run; every later cell's chunk must have been cancelled.
        assert trials_run <= committed + pool.workers + 2
