"""Unit tests for the command-line interface."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import JAMMERS, PROTOCOLS, _telemetry_from_args, build_parser, main


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate"])
        assert args.protocol == "trapdoor"
        assert args.frequencies == 8
        assert args.workload == "crowded_cafe"

    def test_protocol_and_jammer_choices_are_wired(self):
        assert "good-samaritan" in PROTOCOLS
        assert "reactive" in JAMMERS
        args = build_parser().parse_args(["simulate", "--protocol", "uniform-wakeup", "--jammer", "sweep"])
        assert args.protocol == "uniform-wakeup"
        assert args.jammer == "sweep"

    def test_bench_is_not_a_command(self, capsys):
        with pytest.raises(SystemExit) as stop:
            main(["bench", "run"])
        assert stop.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err


#: Every subcommand that executes trials, with its required options.
EXECUTING_COMMANDS = {
    "trials": ["trials"],
    "campaign-run": ["campaign", "run", "--store", "s.db"],
    "search-run": ["search", "run", "--store", "s.db"],
    "serve": ["serve", "--run-dir", "run"],
}

OBSERVABILITY_FLAGS = [
    "--telemetry", "events.jsonl", "--metrics-out", "metrics.prom",
    "--telemetry-rotate-bytes", "4096", "--monitor-port", "0",
    "--status-file", "status.json", "--monitor-interval", "0.5",
]


class TestObservabilityOptions:
    @pytest.mark.parametrize(
        "command", list(EXECUTING_COMMANDS.values()), ids=list(EXECUTING_COMMANDS)
    )
    def test_every_executing_command_takes_every_flag(self, command):
        args = build_parser().parse_args(command + OBSERVABILITY_FLAGS)
        assert (args.telemetry, args.metrics_out, args.telemetry_rotate_bytes) == (
            "events.jsonl", "metrics.prom", 4096,
        )
        assert (args.monitor_port, args.status_file, args.monitor_interval) == (
            0, "status.json", 0.5,
        )

    def test_inspection_commands_take_none(self, capsys):
        for command in (
            ["campaign", "status", "--store", "s.db"],
            ["campaign", "export", "--store", "s.db", "--output", "out.json"],
            ["search", "status", "--store", "s.db"],
            ["search", "export", "--store", "s.db", "--output", "out.json"],
        ):
            with pytest.raises(SystemExit):
                build_parser().parse_args(command + ["--metrics-out", "metrics.json"])
            assert "unrecognized arguments: --metrics-out" in capsys.readouterr().err

    def test_no_flag_means_no_telemetry(self):
        for command in EXECUTING_COMMANDS.values():
            assert _telemetry_from_args(build_parser().parse_args(command)) is None

    def test_any_flag_makes_a_live_handle(self, tmp_path):
        for flags in (
            ["--metrics-out", "metrics.json"],
            ["--monitor-port", "0"],
            ["--status-file", "status.json"],
        ):
            telemetry = _telemetry_from_args(build_parser().parse_args(["trials", *flags]))
            assert telemetry is not None and telemetry.sink is None
        events = tmp_path / "events.jsonl"
        args = build_parser().parse_args(["trials", "--telemetry", str(events)])
        with _telemetry_from_args(args) as telemetry:
            assert telemetry.sink.path == events
        assert telemetry.sink.closed


class TestSimulateCommand:
    def test_runs_and_reports_per_node_table(self, capsys):
        exit_code = main(
            [
                "simulate",
                "--protocol",
                "trapdoor",
                "-F",
                "8",
                "-t",
                "3",
                "-N",
                "32",
                "--nodes",
                "5",
                "--workload",
                "quiet_start",
                "--seed",
                "4",
            ]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "Per-node synchronization" in output
        assert "synchronized in" in output

    def test_jammer_override_is_used(self, capsys):
        main(
            [
                "simulate",
                "--workload",
                "quiet_start",
                "--jammer",
                "fixed-band",
                "--nodes",
                "3",
                "-N",
                "16",
                "--seed",
                "1",
            ]
        )
        output = capsys.readouterr().out
        assert "fixed band [1..t]" in output

    def test_exports_json_and_csv(self, tmp_path, capsys):
        json_path = tmp_path / "out.json"
        csv_path = tmp_path / "rounds.csv"
        exit_code = main(
            [
                "simulate",
                "--workload",
                "quiet_start",
                "--nodes",
                "3",
                "-N",
                "16",
                "--json",
                str(json_path),
                "--csv",
                str(csv_path),
            ]
        )
        assert exit_code == 0
        assert json_path.exists() and csv_path.exists()
        data = json.loads(json_path.read_text())
        assert data["properties"]["liveness"] is True


class TestOtherCommands:
    def test_schedule_trapdoor(self, capsys):
        assert main(["schedule", "--protocol", "trapdoor", "-F", "8", "-t", "3", "-N", "64"]) == 0
        output = capsys.readouterr().out
        assert "Trapdoor schedule" in output
        assert "total contention rounds" in output

    def test_schedule_good_samaritan(self, capsys):
        assert main(["schedule", "--protocol", "good-samaritan", "-F", "8", "-t", "3", "-N", "16"]) == 0
        output = capsys.readouterr().out
        assert "Good Samaritan schedule" in output
        assert "fallback rounds" in output

    def test_experiments_lists_registry(self, capsys):
        assert main(["experiments"]) == 0
        output = capsys.readouterr().out
        assert "fig1" in output and "thm18" in output

    def test_bounds_table(self, capsys):
        assert main(["bounds", "-F", "16", "-t", "8", "-N", "256", "--actual-disruption", "2"]) == 0
        output = capsys.readouterr().out
        assert "Theorem 10" in output
        assert "Theorem 18 adaptive (t'=2)" in output


class TestTraceLevelAndTrials:
    def test_simulate_trace_free_reports_every_node_even_unsynchronized(self, capsys):
        exit_code = main(
            [
                "simulate",
                "--trace-level",
                "none",
                "--max-rounds",
                "3",
                "-N",
                "32",
                "--nodes",
                "4",
                "--workload",
                "quiet_start",
            ]
        )
        output = capsys.readouterr().out
        assert exit_code == 3
        assert "NOT synchronized" in output
        assert "Per-node synchronization" in output
        # All four activated nodes are listed even though none synchronized.
        assert output.count("| -") >= 4

    def test_simulate_sampled_table_uses_exact_streamed_latencies(self, capsys):
        args = [
            "-N", "32", "--nodes", "4", "--workload", "quiet_start", "--seed", "4",
        ]
        assert main(["simulate", *args]) == 0
        full_output = capsys.readouterr().out
        assert main(["simulate", "--trace-level", "sampled", *args]) == 0
        sampled_output = capsys.readouterr().out
        full_rows = [l for l in full_output.splitlines() if l.startswith(("0 ", "1 ", "2 ", "3 "))]
        sampled_rows = [l.split("|") for l in sampled_output.splitlines() if l.startswith(("0 ", "1 ", "2 ", "3 "))]
        assert len(full_rows) == 4, full_output
        assert len(sampled_rows) == 4, sampled_output
        for full_line, sampled_cells in zip(full_rows, sampled_rows):
            assert [cell.strip() for cell in full_line.split("|")] == [
                cell.strip() for cell in sampled_cells
            ]

    def test_trials_json_export(self, tmp_path, capsys):
        json_path = tmp_path / "trials.json"
        exit_code = main(
            [
                "trials",
                "-N", "32", "--nodes", "4", "--workload", "quiet_start",
                "--trials", "3", "--json", str(json_path),
            ]
        )
        assert exit_code == 0
        assert "wrote JSON summary" in capsys.readouterr().out
        data = json.loads(json_path.read_text())
        assert data["trials"] == 3
        assert data["seeds"] == [0, 1, 2]
        assert data["statistics"]["liveness_rate"] == 1.0
        assert data["statistics"]["p90_latency"] is not None
        assert len(data["results"]) == 3
        assert all(row["synchronized"] for row in data["results"])

    def test_trials_command_prints_batch_statistics(self, capsys):
        exit_code = main(
            [
                "trials",
                "-N",
                "32",
                "--nodes",
                "4",
                "--workload",
                "quiet_start",
                "--trials",
                "3",
                "--workers",
                "2",
            ]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "Batch statistics" in output
        assert "p90 latency" in output


class TestCampaignCommands:
    GRID = [
        "--protocols", "trapdoor", "--workloads", "quiet_start",
        "-F", "4", "-t", "1", "-N", "8", "--node-counts", "2,3",
        "--seeds", "2", "--max-rounds", "5000",
    ]

    def test_run_status_export_walkthrough(self, tmp_path, capsys):
        store = str(tmp_path / "campaign.db")
        export = str(tmp_path / "export.json")

        assert main(["campaign", "run", "--store", store, "--name", "demo", *self.GRID]) == 0
        output = capsys.readouterr().out
        assert "2/2 cells complete (2 executed now, 0 reused, 0 remaining)" in output
        assert "aggregate by protocol × workload" in output

        assert main(["campaign", "status", "--store", store]) == 0
        assert "2/2" in capsys.readouterr().out

        assert main([
            "campaign", "export", "--store", store, "--name", "demo",
            "--output", export, "--group-by", "protocol,node_count",
        ]) == 0
        assert "wrote campaign export" in capsys.readouterr().out
        document = json.loads((tmp_path / "export.json").read_text())
        assert document["campaign"] == "demo"
        assert len(document["cells"]) == 2
        assert [row["node_count"] for row in document["aggregates"]] == [2, 3]

    def test_run_resumes_after_capped_invocation(self, tmp_path, capsys):
        store = str(tmp_path / "campaign.db")
        args = ["campaign", "run", "--store", store, "--name", "demo", *self.GRID]

        assert main([*args, "--max-cells", "1"]) == 0
        first = capsys.readouterr().out
        assert "1/2 cells complete (1 executed now, 0 reused, 1 remaining)" in first

        assert main(["campaign", "status", "--store", store, "--name", "demo"]) == 0
        assert "1/2" in capsys.readouterr().out

        assert main(args) == 0
        second = capsys.readouterr().out
        assert "1 cells already complete" in second
        assert "2/2 cells complete (1 executed now, 1 reused, 0 remaining)" in second

    @pytest.mark.parametrize("cap", ["-1", "0"])
    def test_max_cells_below_one_is_a_usage_error(self, tmp_path, capsys, cap):
        store = tmp_path / "campaign.db"
        with pytest.raises(SystemExit) as stop:
            main(["campaign", "run", "--store", str(store), "--name", "demo", *self.GRID,
                  "--max-cells", cap])
        assert stop.value.code == 2
        assert "--max-cells: the cap must be at least 1" in capsys.readouterr().err
        assert not store.exists()

    def test_status_on_empty_store_fails(self, tmp_path, capsys):
        assert main(["campaign", "status", "--store", str(tmp_path / "empty.db")]) == 1
        assert "no campaigns" in capsys.readouterr().out


class TestFaultsFlag:
    def _plan_file(self, tmp_path):
        from repro.faults import ChurnEvent, FaultPlan

        plan = FaultPlan(
            churn=(ChurnEvent(node_id=1, leave_round=30, rejoin_round=60),),
            byzantine_count=1,
            byzantine_start_round=20,
        )
        target = tmp_path / "plan.json"
        target.write_text(plan.to_json())
        return target

    def test_trials_reports_the_plan_and_stabilization(self, tmp_path, capsys):
        main(
            [
                "trials",
                "--protocol", "fault-tolerant-trapdoor",
                "-F", "4", "-t", "1", "-N", "8",
                "--nodes", "6",
                "--workload", "quiet_start",
                "--max-rounds", "1500",
                "--trials", "2",
                "--faults", str(self._plan_file(tmp_path)),
            ]
        )
        output = capsys.readouterr().out
        assert "faults    : faults(churn=1, byz=1@r20)" in output
        assert "stabilization" in output

    def test_campaign_run_sweeps_the_plan_axis(self, tmp_path, capsys):
        exit_code = main(
            [
                "campaign", "run",
                "--store", str(tmp_path / "s.db"),
                "--name", "faulted",
                "--protocols", "trapdoor",
                "--workloads", "quiet_start",
                "-F", "4", "-t", "1", "-N", "8",
                "--node-counts", "6",
                "--seeds", "2",
                "--max-rounds", "1500",
                "--faults", str(self._plan_file(tmp_path)),
            ]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "faults    : faults(churn=1, byz=1@r20)" in output
        from repro.campaigns.store import ResultStore

        with ResultStore(tmp_path / "s.db") as store:
            records = [
                record
                for _key, _desc, cell_records in store.iter_cells("faulted")
                for record in cell_records
            ]
        assert records
        assert all(record.stabilization_rounds is not None for record in records)

    def test_bad_plan_file_is_a_configuration_error(self, tmp_path):
        from repro.exceptions import ConfigurationError

        bad = tmp_path / "bad.json"
        bad.write_text('{"kind": "fault-plan", "bogus": 1}')
        with pytest.raises(ConfigurationError, match="unknown fault plan keys"):
            main(
                [
                    "trials",
                    "--workload", "quiet_start",
                    "--trials", "1",
                    "--faults", str(bad),
                ]
            )


#: A scenario no trial finishes: three rounds are too few to synchronize.
CAPPED = ["--max-rounds", "3", "-N", "32", "--nodes", "4", "--workload", "quiet_start"]


def run_cli(*args: str) -> subprocess.CompletedProcess:
    """``python -m repro`` in a fresh process, for its real exit status."""
    src = str(Path(__file__).resolve().parents[2] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True,
        text=True,
        timeout=120,
        check=False,
        env=env,
    )


class TestExitStatus:
    """0: every trial synchronized; 3: the run ended but some did not; 1: a crash."""

    def test_trials_that_all_synchronize_exit_0(self, capsys):
        assert main(["trials", "-N", "32", "--nodes", "4", "--workload", "quiet_start",
                     "--trials", "2"]) == 0

    def test_trials_that_do_not_all_synchronize_exit_3(self, capsys):
        assert main(["trials", *CAPPED, "--trials", "2"]) == 3
        assert "liveness rate" in capsys.readouterr().out

    def test_the_process_tells_a_capped_run_from_a_crash(self):
        capped = run_cli("simulate", *CAPPED)
        assert capped.returncode == 3, capped.stderr
        assert "NOT synchronized" in capped.stdout
        # Good Samaritan refuses t > F/2: the run raises before it starts.
        crashed = run_cli(
            "simulate", "--protocol", "good-samaritan", "-F", "4", "-t", "3", "-N", "8",
            "--nodes", "2",
        )
        assert crashed.returncode == 1
        assert "ConfigurationError" in crashed.stderr
