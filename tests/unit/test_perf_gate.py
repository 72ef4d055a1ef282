"""The benchmark gate's verdicts (``benchmarks/perf_gate.py``) on synthetic reports.

The gate script is loaded by path and fed hand-made perfbench reports, fake
``perfbench/run.py`` scripts and throwaway git repositories; the real
perfbench never runs here.
"""

from __future__ import annotations

import importlib.util
import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parents[2] / "benchmarks" / "perf_gate.py"
_SPEC = importlib.util.spec_from_file_location("perf_gate", _SCRIPT)
gate = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(gate)

RATE = {"name": "rounds_per_s", "unit": "1/s", "better": "higher", "bound": 0.2}
LATENCY = {"name": "job_p50_s", "unit": "s", "better": "lower", "bound": 0.2}


def report(value: float, failed: int = 0, metric: dict = RATE) -> dict:
    """A perfbench report (``perfbench/run.py``'s last line) with one metric."""
    return {
        "correct": failed == 0,
        "attempted": 10,
        "failed": failed,
        "metrics": {metric["name"]: {"value": value, "unit": metric["unit"]}},
    }


def verdict(base: list, head: list, metric: dict = RATE) -> dict:
    [only] = gate.judge([metric], {"w": base}, {"w": head})
    return only


def values(*xs: float, metric: dict = RATE) -> list:
    return [report(x, metric=metric) for x in xs]


class TestBounds:
    @pytest.mark.parametrize(
        "head, expected",
        [(79.0, "worse"), (81.0, "ok"), (80.0, "ok"), (130.0, "ok")],
        ids=["21%-drop", "19%-drop", "drop-equal-to-bound", "gain"],
    )
    def test_higher_is_better(self, head, expected):
        result = verdict(values(100.0, 100.0, 100.0), values(head, head, head))
        assert result["verdict"] == expected
        assert result["change"] == pytest.approx(head / 100.0 - 1.0)
        assert (expected in gate.FAILING) == (expected == "worse")

    @pytest.mark.parametrize(
        "head, expected",
        [(1.21, "worse"), (1.19, "ok"), (0.5, "ok")],
        ids=["21%-rise", "19%-rise", "drop"],
    )
    def test_lower_is_better(self, head, expected):
        base = values(1.0, 1.0, 1.0, metric=LATENCY)
        result = verdict(base, values(head, head, head, metric=LATENCY), LATENCY)
        assert result["verdict"] == expected

    def test_one_outlier_among_three_runs_keeps_the_medians_verdict(self):
        base = values(100.0, 101.0, 99.0)
        assert verdict(base, values(98.0, 10.0, 97.0))["verdict"] == "ok"
        assert verdict(base, values(70.0, 500.0, 69.0))["verdict"] == "worse"

    def test_row_carries_medians_spreads_and_bound(self):
        result = verdict(values(90.0, 100.0, 110.0), values(100.0, 100.0, 100.0))
        assert result["base_median"] == 100.0
        assert result["head_median"] == 100.0
        assert result["change"] == 0.0
        assert result["base_iqr_ratio"] == pytest.approx(0.1)
        assert result["head_iqr_ratio"] == 0.0
        assert result["bound"] == 0.2
        assert (result["workload"], result["metric"], result["better"]) == (
            "w", "rounds_per_s", "higher",
        )


class TestFailedRuns:
    def test_head_report_with_failed_operations_fails_the_gate(self):
        head = values(100.0, 100.0) + [report(100.0, failed=1)]
        result = verdict(values(100.0, 100.0, 100.0), head)
        assert result["verdict"] == "head-failed"
        assert result["verdict"] in gate.FAILING

    def test_head_run_without_a_report_fails_the_gate(self):
        result = verdict(values(100.0, 100.0, 100.0), values(100.0, 100.0) + [None])
        assert result["verdict"] == "head-failed"

    def test_base_failure_is_reported_as_a_base_failure(self):
        base = [report(100.0, failed=2), None, report(100.0)]
        result = verdict(base, values(100.0, 100.0, 100.0))
        assert result["verdict"] == "base-failed"
        assert result["verdict"] not in gate.FAILING
        assert result["base_median"] == 100.0

    def test_base_without_any_good_run_is_a_base_failure(self):
        result = verdict([None, None, None], values(100.0, 100.0, 100.0))
        assert result["verdict"] == "base-failed"
        assert result["base_median"] is None and result["change"] is None

    def test_a_regression_is_not_hidden_by_a_base_failure(self):
        base = [report(100.0), None, report(100.0)]
        assert verdict(base, values(70.0, 70.0, 70.0))["verdict"] == "worse"

    def test_failed_runs_do_not_enter_the_medians(self):
        head = values(100.0, 100.0) + [report(1.0, failed=1)]
        assert verdict(values(100.0, 100.0, 100.0), head)["head_median"] == 100.0


def test_one_verdict_per_workload_and_metric():
    runs = {
        workload: [
            {
                "failed": 0,
                "metrics": {"rounds_per_s": {"value": 1.0}, "job_p50_s": {"value": 1.0}},
            }
        ]
        for workload in ("a", "b")
    }
    verdicts = gate.judge([RATE, LATENCY], runs, runs)
    assert [(v["workload"], v["metric"]) for v in verdicts] == [
        ("a", "rounds_per_s"), ("a", "job_p50_s"), ("b", "rounds_per_s"), ("b", "job_p50_s"),
    ]
    assert {v["verdict"] for v in verdicts} == {"ok"}
    assert all(gate.describe(v).endswith("ok") for v in verdicts)


class TestSpread:
    def test_no_values_have_no_median(self):
        assert gate.spread([]) == (None, None)

    def test_one_value_or_a_zero_median_has_zero_spread(self):
        assert gate.spread([5.0]) == (5.0, 0.0)
        assert gate.spread([0.0, 0.0, 1.0]) == (0.0, 0.0)

    def test_iqr_uses_inclusive_quartiles(self):
        median, ratio = gate.spread([5.0, 1.0, 4.0, 2.0, 3.0])
        assert median == 3.0
        assert ratio == pytest.approx((4.0 - 2.0) / 3.0)


def fake_perfbench(root: Path, body: str) -> Path:
    """A checkout whose ``perfbench/run.py`` is ``body`` (sees the real argv)."""
    script = root / "perfbench" / "run.py"
    script.parent.mkdir(parents=True)
    script.write_text("import json, sys\n" + textwrap.dedent(body))
    return root


class TestRunPerfbench:
    def test_the_report_is_the_last_stdout_line(self, tmp_path):
        root = fake_perfbench(tmp_path, """
            print("warming up")
            print(json.dumps({"argv": sys.argv[1:], "failed": 0, "metrics": {}}))
        """)
        assert gate.run_perfbench(root, "scalar_sweep") == {
            "argv": ["--workload", "scalar_sweep"], "failed": 0, "metrics": {},
        }

    def test_a_nonzero_exit_without_failed_operations_has_no_report(self, tmp_path):
        root = fake_perfbench(tmp_path, """
            print(json.dumps({"failed": 0, "metrics": {}}))
            sys.exit(3)
        """)
        assert gate.run_perfbench(root, "w") is None

    def test_a_nonzero_exit_with_failed_operations_keeps_its_report(self, tmp_path, capsys):
        root = fake_perfbench(tmp_path, """
            print("digest mismatch", file=sys.stderr)
            print(json.dumps({"failed": 2, "metrics": {}}))
            sys.exit(1)
        """)
        assert gate.run_perfbench(root, "w") == {"failed": 2, "metrics": {}}
        assert "digest mismatch" in capsys.readouterr().err

    def test_a_crash_before_the_report_has_no_report(self, tmp_path, capsys):
        root = fake_perfbench(tmp_path, 'raise SystemExit("setup blew up")\n')
        assert gate.run_perfbench(root, "w") is None
        assert "setup blew up" in capsys.readouterr().err

    def test_a_last_line_that_is_not_json_is_no_report(self, tmp_path):
        root = fake_perfbench(tmp_path, 'print("done")\n')
        assert gate.run_perfbench(root, "w") is None


def git_commit(repo: Path, text: str) -> None:
    (repo / "BENCHMARK.json").write_text(text)
    subprocess.run(["git", "add", "-A"], cwd=repo, check=True)
    subprocess.run(
        ["git", "-c", "user.name=gate", "-c", "user.email=gate@example.com",
         "-c", "commit.gpgsign=false", "commit", "-q", "-m", text],
        cwd=repo, check=True,
    )


class TestExtract:
    @pytest.fixture
    def repo(self, tmp_path, monkeypatch):
        repo = tmp_path / "repo"
        repo.mkdir()
        subprocess.run(["git", "init", "-q"], cwd=repo, check=True)
        git_commit(repo, "v1")
        git_commit(repo, "v2")
        (repo / "BENCHMARK.json").write_text("uncommitted")
        monkeypatch.setattr(gate, "ROOT", repo)
        return repo

    def test_writes_the_committed_tree_of_the_revision(self, repo, tmp_path):
        for rev, expected in (("HEAD~1", "v1"), ("HEAD", "v2")):
            into = tmp_path / rev
            into.mkdir()
            gate.extract(rev, into)
            assert (into / "BENCHMARK.json").read_text() == expected

    def test_an_unknown_revision_raises(self, repo, tmp_path):
        with pytest.raises(RuntimeError, match="could not extract"):
            gate.extract("no-such-revision", tmp_path)


def bench(workloads: list, metrics: list) -> dict:
    """A ``BENCHMARK.json`` with the fields the gate reads."""
    return {"workloads": [{"name": w} for w in workloads], "end_to_end": metrics}


def gate_args(monkeypatch, *argv: str) -> None:
    monkeypatch.setattr(sys, "argv", ["perf_gate.py", *argv])


class TestMain:
    """``main`` on hand-made checkouts: no git command and no perfbench run."""

    @pytest.fixture
    def run_gate(self, tmp_path, monkeypatch):
        head = tmp_path / "head"
        head.mkdir()
        output = tmp_path / "gate.json"
        calls = []

        def fake_git(*args):
            if args[0] == "status":
                return ""
            return "b" * 40 if "--verify" in args else "h" * 40

        def run(base_bench, head_bench, value):
            """``value(side, workload, index)`` is one run's metric value.

            ``None`` is a run without a report and a negative value a run that
            reports failed operations.  Returns the exit code, the written
            summary and the ``(side, workload)`` order of the runs.
            """
            (head / "BENCHMARK.json").write_text(json.dumps(head_bench))

            def fake_extract(rev, into):
                assert rev == "b" * 40
                (into / "BENCHMARK.json").write_text(json.dumps(base_bench))

            def fake_run(root, workload):
                side = "head" if root == head else "base"
                index = calls.count((side, workload))
                calls.append((side, workload))
                x = value(side, workload, index)
                if x is None:
                    return None
                metrics = {m["name"]: {"value": x} for m in head_bench["end_to_end"]}
                return {"failed": 1 if x < 0 else 0, "metrics": metrics}

            monkeypatch.setattr(gate, "ROOT", head)
            monkeypatch.setattr(gate, "git", fake_git)
            monkeypatch.setattr(gate, "extract", fake_extract)
            monkeypatch.setattr(gate, "run_perfbench", fake_run)
            gate_args(monkeypatch, "--base", "main", "--output", str(output))
            code = gate.main()
            return code, json.loads(output.read_text()), calls

        return run

    def test_identical_sides_pass_and_write_the_summary(self, run_gate, capsys):
        both = bench(["a", "b"], [RATE, LATENCY])
        code, summary, _ = run_gate(both, both, lambda side, workload, index: 100.0)
        assert code == 0
        assert summary["base"] == "b" * 40 and summary["head"] == "h" * 40
        assert summary["pairs"] == gate.PAIRS
        assert summary["passed"] is True
        assert summary["failed_runs"] == {"base": 0, "head": 0}
        assert [v["verdict"] for v in summary["verdicts"]] == ["ok"] * 4
        lines = capsys.readouterr().out.splitlines()
        assert len([line for line in lines if "is better" in line]) == 4
        assert lines[-1].startswith("perf gate passed")

    def test_a_regression_fails_with_exit_code_one(self, run_gate, capsys):
        both = bench(["a"], [RATE])
        code, summary, _ = run_gate(
            both, both, lambda side, workload, index: 70.0 if side == "head" else 100.0
        )
        assert code == 1
        assert summary["passed"] is False
        [only] = summary["verdicts"]
        assert only["verdict"] == "worse" and only["change"] == pytest.approx(-0.3)
        assert capsys.readouterr().out.splitlines()[-1].startswith("perf gate FAILED")

    def test_only_workloads_and_metrics_both_sides_list_are_run_and_gated(self, run_gate):
        base = bench(["a", "gone"], [RATE])
        head = bench(["a", "new"], [RATE, LATENCY])
        _, summary, calls = run_gate(base, head, lambda side, workload, index: 100.0)
        assert {workload for _, workload in calls} == {"a"}
        assert [(v["workload"], v["metric"]) for v in summary["verdicts"]] == [
            ("a", "rounds_per_s"),
        ]

    def test_the_side_that_runs_first_alternates_from_pair_to_pair(self, run_gate):
        both = bench(["a", "b"], [RATE])
        _, _, calls = run_gate(both, both, lambda side, workload, index: 100.0)
        assert calls[:4] == [("base", "a"), ("head", "a"), ("base", "b"), ("head", "b")]
        assert calls[4:8] == [("head", "a"), ("base", "a"), ("head", "b"), ("base", "b")]
        assert len(calls) == 2 * 2 * gate.PAIRS
        assert all(calls.count(call) == gate.PAIRS for call in calls)

    def test_a_failed_base_run_is_counted_and_does_not_fail_the_gate(self, run_gate):
        both = bench(["a"], [RATE])
        code, summary, _ = run_gate(
            both, both, lambda side, _, index: None if (side, index) == ("base", 0) else 100.0
        )
        assert code == 0
        assert summary["passed"] is True
        assert summary["failed_runs"] == {"base": 1, "head": 0}
        assert [v["verdict"] for v in summary["verdicts"]] == ["base-failed"]

    def test_a_head_run_with_failed_operations_fails_the_gate(self, run_gate):
        both = bench(["a"], [RATE])
        code, summary, _ = run_gate(
            both, both, lambda side, _, index: -1.0 if (side, index) == ("head", 2) else 100.0
        )
        assert code == 1
        assert summary["failed_runs"] == {"base": 0, "head": 1}
        assert [v["verdict"] for v in summary["verdicts"]] == ["head-failed"]

    @pytest.mark.parametrize(
        "extra", [["--seconds", "5"], ["--pairs", "5"]], ids=["seconds", "pairs"]
    )
    def test_only_base_and_output_are_options(self, monkeypatch, extra):
        gate_args(monkeypatch, "--base", "main", "--output", "gate.json", *extra)
        with pytest.raises(SystemExit) as stop:
            gate.main()
        assert stop.value.code == 2

    def test_base_and_output_are_required(self, monkeypatch):
        for argv in (["--base", "main"], ["--output", "gate.json"]):
            gate_args(monkeypatch, *argv)
            with pytest.raises(SystemExit) as stop:
                gate.main()
            assert stop.value.code == 2
