"""Benchmark entry point: one workload, end-to-end or per-layer metrics.

Run from the repository root::

    python3 perfbench/run.py --workload scalar_sweep --seed 1 --seconds 20 --trace 0

Each workload runs in fresh processes (``perfbench/child.py``).  With
``--trace 0`` it starts the workload several times to time set-up, then
measures it for ``--seconds`` seconds with tracing off.  With ``--trace 1``
it runs a fixed amount of the workload plain and then traced, and reports
the per-layer metrics.  Either way the outputs are checked, a few readable
lines are printed, and the last line is one JSON object::

    {"correct": true, "attempted": 41, "failed": 0, "metrics": {...}}

Metric names and units come from ``BENCHMARK.json``.  The exit code is 0
only when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import speed

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"

#: Fresh-process set-ups timed per end-to-end run; ``setup_s`` is their median.
SETUP_SAMPLES = 5
#: Hard limit on one run, below the 180 s a run may take.
DEADLINE_S = 170.0


class ChildFailed(RuntimeError):
    pass


def run_child(
    args: argparse.Namespace, mode: str, deadline: float
) -> tuple[float, float, dict | None]:
    """Start one child; return its raw set-up seconds, their host-speed scale
    (see :mod:`speed`), and (in measure mode) its result."""
    command = [
        sys.executable,
        str(CHILD),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--mode", mode,
    ]
    before = speed.reference_sample()
    started = time.perf_counter()
    process = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(max(deadline - time.monotonic(), 1.0), process.kill)
    watchdog.start()
    setup_s = scale = None
    result = None
    try:
        assert process.stdout is not None
        for line in process.stdout:
            if line.startswith("READY") and setup_s is None:
                setup_s = time.perf_counter() - started
            elif line.startswith("SPEED "):
                scale = speed.factor(before, float(line.split()[1]))
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
    finally:
        code = process.wait()
        watchdog.cancel()
    if code != 0 or setup_s is None or scale is None or (mode == "measure" and result is None):
        raise ChildFailed(f"{args.workload} child ({mode}) exited with code {code}")
    return setup_s, scale, result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="default: run_seconds in BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {workload["name"] for workload in bench["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wanted = bench["per_layer" if args.trace else "end_to_end"]
    if args.seconds is None:
        args.seconds = float(bench["run_seconds"])

    deadline = time.monotonic() + DEADLINE_S
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setups.append(run_child(args, "setup", deadline)[:2])
        setup_s, scale, result = run_child(args, "measure", deadline)
    except ChildFailed as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    assert result is not None
    measured = dict(result["metrics"])
    if not args.trace:
        setups.append((setup_s, scale))
        measured["setup_s"] = statistics.median(raw * k for raw, k in setups)
        measured["raw.setup_s"] = statistics.median(raw for raw, _ in setups)

    missing = [metric["name"] for metric in wanted if metric["name"] not in measured]
    if missing:
        print(f"perfbench: metrics not measured: {', '.join(missing)}", file=sys.stderr)
        return 1
    metrics = {
        metric["name"]: {"value": measured[metric["name"]], "unit": metric["unit"]}
        for metric in wanted
    }
    for check in result["checks"]:
        status = "ok" if check["ok"] else "MISMATCH"
        print(f"check {check['name']}: {status} ({check['detail']})")
    attempted, failed = result["attempted"], result["failed"]
    print(f"{args.workload}: {result['units']} measured unit(s), seed {args.seed}")
    for name, metric in metrics.items():
        raw = measured.get(f"raw.{name}")
        note = f"  (raw {raw:.6g})" if raw is not None else ""
        print(f"  {name:28s} {metric['value']:.6g} {metric['unit']}{note}")
    if "raw.host_speed_p50" in measured:
        print(f"  {'host speed (nominal = 1)':28s} {measured['raw.host_speed_p50']:.4g}")
    print(f"  {'error_rate':28s} {failed / attempted:.6g} ({failed} of {attempted} operations)")
    summary = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(summary))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
