"""Benchmark gate: perfbench on a base revision and on this checkout, in pairs.

Run from a git checkout::

    python3 benchmarks/perf_gate.py --base origin/main --output BENCH_head.json

The base revision is extracted with ``git archive`` into a temporary
directory.  Each side runs its own ``perfbench/run.py`` at ``--trace 0`` for
its ``BENCHMARK.json``'s ``run_seconds``, once per workload per pair, over
``PAIRS`` pairs; the side that runs first alternates from pair to pair.  Only
the workloads and end-to-end metrics that both sides' ``BENCHMARK.json`` list
are gated.

The gate fails (exit 1) when a head run exits non-zero or reports failed
operations, or when a head median is worse than the base median by more than
the metric's ``bound`` (its ``better`` field says which way is worse).  A
failed base run is reported as a base failure and does not fail the gate.
One line per verdict is printed; ``--output`` gets the medians, relative
changes, IQR ÷ median of each side, bounds and verdicts as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Base/head pairs of runs per workload.
PAIRS = 3

#: Verdicts that fail the gate.
FAILING = ("worse", "head-failed")


def git(*args: str) -> str:
    done = subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True)
    return done.stdout.strip()


def extract(rev: str, into: Path) -> None:
    """Write the tree of ``rev`` into ``into`` (``git archive rev | tar -x``)."""
    archive = subprocess.Popen(["git", "archive", rev], cwd=ROOT, stdout=subprocess.PIPE)
    untar = subprocess.run(["tar", "-x", "-C", str(into)], stdin=archive.stdout)
    assert archive.stdout is not None
    archive.stdout.close()
    if archive.wait() != 0 or untar.returncode != 0:
        raise RuntimeError(f"could not extract {rev} into {into}")


def run_perfbench(root: Path, workload: str) -> dict | None:
    """One end-to-end perfbench run: its report, or ``None`` if it printed none.

    A run that exits non-zero without reporting failed operations counts as
    a run without a report.
    """
    command = [sys.executable, "perfbench/run.py", "--workload", workload]
    done = subprocess.run(command, cwd=root, capture_output=True, text=True)
    try:
        report = json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        report = None
    if done.returncode != 0 and not (report and report["failed"]):
        report = None
    if failed(report):
        sys.stderr.write(done.stderr)
    return report


def failed(report: dict | None) -> bool:
    return report is None or report["failed"] > 0


def spread(values: list[float]) -> tuple[float | None, float | None]:
    """Median and IQR ÷ median of one side's values (``None`` without values)."""
    if not values:
        return None, None
    median = statistics.median(values)
    if len(values) < 2 or median == 0:
        return median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return median, (q3 - q1) / median


def judge(
    metrics: list[dict],
    base_runs: dict[str, list[dict | None]],
    head_runs: dict[str, list[dict | None]],
) -> list[dict]:
    """One verdict per workload × metric from each side's run reports.

    ``metrics`` are ``BENCHMARK.json`` ``end_to_end`` entries; the run maps
    give each workload's reports (the JSON object ``perfbench/run.py`` prints
    last, or ``None``).  Medians are taken over the runs that did not fail.
    The verdict is ``head-failed`` if a head run of the workload failed, else
    ``worse`` if the head median is worse than the base median by more than
    the bound, else ``base-failed`` if a base run failed, else ``ok``.
    """
    verdicts = []
    for workload, head_reports in head_runs.items():
        base_reports = base_runs[workload]
        for metric in metrics:
            name, bound = metric["name"], metric["bound"]
            base_median, base_iqr = spread(
                [r["metrics"][name]["value"] for r in base_reports if not failed(r)]
            )
            head_median, head_iqr = spread(
                [r["metrics"][name]["value"] for r in head_reports if not failed(r)]
            )
            change = None
            if base_median and head_median is not None:
                change = (head_median - base_median) / base_median
            sign = 1 if metric["better"] == "lower" else -1
            if any(failed(r) for r in head_reports):
                verdict = "head-failed"
            elif change is not None and sign * change > bound:
                verdict = "worse"
            elif change is None or any(failed(r) for r in base_reports):
                verdict = "base-failed"
            else:
                verdict = "ok"
            verdicts.append(
                {
                    "workload": workload,
                    "metric": name,
                    "unit": metric["unit"],
                    "better": metric["better"],
                    "base_median": base_median,
                    "head_median": head_median,
                    "change": change,
                    "base_iqr_ratio": base_iqr,
                    "head_iqr_ratio": head_iqr,
                    "bound": bound,
                    "verdict": verdict,
                }
            )
    return verdicts


def describe(verdict: dict) -> str:
    """One printed line per verdict."""
    medians = [verdict["base_median"], verdict["head_median"]]
    base, head = ("-" if m is None else f"{m:.6g}" for m in medians)
    change = "-" if verdict["change"] is None else f"{verdict['change']:+.1%}"
    return (
        f"{verdict['workload']:14s} {verdict['metric']:13s} base {base:>10s}  head {head:>10s}"
        f"  {change:>7s}  (bound {verdict['bound']:.0%}, {verdict['better']} is better)"
        f"  {verdict['verdict']}"
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--output", required=True, help="JSON file for the verdicts")
    args = parser.parse_args()

    base_rev = git("rev-parse", "--verify", f"{args.base}^{{commit}}")
    head_rev = git("rev-parse", "HEAD") + ("-dirty" if git("status", "--porcelain") else "")
    with tempfile.TemporaryDirectory(prefix="perf-gate-") as tmp:
        extract(base_rev, Path(tmp))
        roots = {"base": Path(tmp), "head": ROOT}
        bench = {side: json.loads((roots[side] / "BENCHMARK.json").read_text()) for side in roots}
        base_workloads = {w["name"] for w in bench["base"]["workloads"]}
        base_metrics = {m["name"] for m in bench["base"]["end_to_end"]}
        workloads = [w["name"] for w in bench["head"]["workloads"] if w["name"] in base_workloads]
        metrics = [m for m in bench["head"]["end_to_end"] if m["name"] in base_metrics]

        runs: dict[str, dict[str, list]] = {side: {w: [] for w in workloads} for side in roots}
        for pair in range(PAIRS):
            sides = ("base", "head") if pair % 2 == 0 else ("head", "base")
            for workload in workloads:
                for side in sides:
                    report = run_perfbench(roots[side], workload)
                    runs[side][workload].append(report)
                    status = "FAILED" if failed(report) else "ok"
                    print(f"pair {pair + 1}/{PAIRS} {side} {workload}: {status}", flush=True)

    verdicts = judge(metrics, runs["base"], runs["head"])
    for verdict in verdicts:
        print(describe(verdict))
    failed_runs = {
        side: sum(failed(r) for reports in runs[side].values() for r in reports) for side in runs
    }
    passed = not any(verdict["verdict"] in FAILING for verdict in verdicts)
    print(
        f"perf gate {'passed' if passed else 'FAILED'}: base {base_rev[:12]}, head {head_rev}, "
        f"{PAIRS} pairs, failed runs: base {failed_runs['base']}, head {failed_runs['head']}"
    )
    summary = {
        "base": base_rev,
        "head": head_rev,
        "pairs": PAIRS,
        "passed": passed,
        "failed_runs": failed_runs,
        "verdicts": verdicts,
    }
    Path(args.output).write_text(json.dumps(summary, indent=2) + "\n")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
