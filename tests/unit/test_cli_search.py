"""Unit tests for the ``search`` CLI and the campaign CLI's new surfaces.

Covers ``repro search run|status|export`` end to end on a tiny budget
(including interrupt + resume through ``--max-evaluations``), the
machine-readable ``campaign status --json`` / ``search status --json``
outputs, and ``campaign run --jammers`` crossing workloads with registered
adversaries.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main

TINY_SEARCH = [
    "search",
    "run",
    "--name",
    "cli-search",
    "--protocol",
    "trapdoor",
    "--workload",
    "quiet_start",
    "-F",
    "4",
    "-t",
    "1",
    "-N",
    "8",
    "--nodes",
    "2",
    "--seeds",
    "2",
    "--max-rounds",
    "4000",
    "--optimizer",
    "hill-climb",
    "--population",
    "2",
    "--generations",
    "1",
    "--master-seed",
    "7",
]


def _store_args(tmp_path):
    return ["--store", str(tmp_path / "search.db")]


class TestSearchRun:
    def test_runs_interrupts_and_resumes(self, tmp_path, capsys):
        # Interrupt after two live evaluations ...
        exit_code = main(TINY_SEARCH + _store_args(tmp_path) + ["--max-evaluations", "2"])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "stopped (resume by re-running)" in output
        assert "2 executed now" in output
        # ... resume to completion: the two stored candidates are cached.
        exit_code = main(TINY_SEARCH + _store_args(tmp_path))
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "complete" in output
        assert "best      :" in output
        # ... and a third run replays everything from the store.
        exit_code = main(TINY_SEARCH + _store_args(tmp_path))
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "0 executed now" in output

    @pytest.mark.parametrize("cap", ["-1", "0"])
    def test_max_evaluations_below_one_is_a_usage_error(self, tmp_path, capsys, cap):
        with pytest.raises(SystemExit) as stop:
            main(TINY_SEARCH + _store_args(tmp_path) + ["--max-evaluations", cap])
        assert stop.value.code == 2
        assert "--max-evaluations: the cap must be at least 1" in capsys.readouterr().err
        assert not (tmp_path / "search.db").exists()

    def test_search_status_json_is_machine_readable(self, tmp_path, capsys):
        main(TINY_SEARCH + _store_args(tmp_path))
        capsys.readouterr()
        exit_code = main(["search", "status", "--json"] + _store_args(tmp_path))
        document = json.loads(capsys.readouterr().out)
        assert exit_code == 0
        (entry,) = document["searches"]
        assert entry["search"] == "cli-search"
        assert entry["evaluations"] > 0
        assert entry["best_score"] is not None
        assert entry["best_strategy"]

    def test_search_status_table_lists_searches(self, tmp_path, capsys):
        main(TINY_SEARCH + _store_args(tmp_path))
        capsys.readouterr()
        exit_code = main(["search", "status"] + _store_args(tmp_path))
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "cli-search" in output
        assert "hill-climb" in output

    def test_search_status_on_an_empty_store_fails(self, tmp_path, capsys):
        exit_code = main(["search", "status", "--store", str(tmp_path / "empty.db")])
        assert exit_code == 1
        assert "no searches" in capsys.readouterr().out

    def test_search_export_writes_the_best_strategy(self, tmp_path, capsys):
        main(TINY_SEARCH + _store_args(tmp_path))
        capsys.readouterr()
        output_path = tmp_path / "best.json"
        exit_code = main(
            ["search", "export", "--name", "cli-search", "--output", str(output_path), "--top", "3"]
            + _store_args(tmp_path)
        )
        assert exit_code == 0
        assert "wrote search export" in capsys.readouterr().out
        document = json.loads(output_path.read_text())
        assert document["search"] == "cli-search"
        assert document["best"]["genome"]
        assert len(document["top"]) == 3


TINY_CAMPAIGN = [
    "campaign",
    "run",
    "--name",
    "cli-campaign",
    "--protocols",
    "trapdoor",
    "--workloads",
    "quiet_start",
    "-F",
    "4",
    "-t",
    "1",
    "-N",
    "8",
    "--node-counts",
    "2",
    "--seeds",
    "2",
    "--max-rounds",
    "4000",
]


class TestCampaignSurfaces:
    def test_campaign_status_json_reports_totals(self, tmp_path, capsys):
        store = ["--store", str(tmp_path / "campaign.db")]
        main(TINY_CAMPAIGN + store)
        capsys.readouterr()
        exit_code = main(["campaign", "status", "--json"] + store)
        document = json.loads(capsys.readouterr().out)
        assert exit_code == 0
        (entry,) = document["campaigns"]
        assert entry == {"campaign": "cli-campaign", "completed": 1, "total": 1}

    def test_campaign_status_json_handles_search_specs(self, tmp_path, capsys):
        store = ["--store", str(tmp_path / "shared.db")]
        main(TINY_CAMPAIGN + store)
        main(TINY_SEARCH + store)
        capsys.readouterr()
        exit_code = main(["campaign", "status", "--json"] + store)
        document = json.loads(capsys.readouterr().out)
        assert exit_code == 0
        by_name = {entry["campaign"]: entry for entry in document["campaigns"]}
        assert by_name["cli-campaign"]["total"] == 1
        # A search has no declarative grid: total is null, completed counts.
        assert by_name["cli-search"]["total"] is None
        assert by_name["cli-search"]["completed"] > 0
        # The table view renders the same store without crashing on the
        # search spec.
        exit_code = main(["campaign", "status"] + store)
        assert exit_code == 0
        assert "cli-search" in capsys.readouterr().out

    def test_campaign_status_json_on_an_empty_store_fails(self, tmp_path, capsys):
        exit_code = main(["campaign", "status", "--json", "--store", str(tmp_path / "none.db")])
        document = json.loads(capsys.readouterr().out)
        assert exit_code == 1
        assert document["campaigns"] == []

    def test_campaign_run_crosses_workloads_with_jammers(self, tmp_path, capsys):
        store = ["--store", str(tmp_path / "jammers.db")]
        exit_code = main(
            TINY_CAMPAIGN + store + ["--name", "jam-grid", "--jammers", "sweep,reactive"]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "quiet_start@sweep" in output
        assert "quiet_start@reactive" in output
        # The derived grid is resumable: a re-run re-registers the derived
        # workloads and finds every cell already complete.
        exit_code = main(
            TINY_CAMPAIGN + store + ["--name", "jam-grid", "--jammers", "sweep,reactive"]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "2 cells already complete" in output
