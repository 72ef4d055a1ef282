"""One workload in one fresh process: set up, measure, check.

Started by ``run.py``.  Prints ``READY`` once set up (imports done, service
and pool started, warm-up job finished); in ``--mode setup`` it then tears
down and exits.  In ``--mode measure`` it runs the workload and prints one
``RESULT {json}`` line with the measured metrics and the output checks.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def _vm_hwm_kib(pid: int | str) -> int:
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    except OSError:
        pass
    return 0


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus each live child process."""
    me = os.getpid()
    total = _vm_hwm_kib("self")
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        # The parent pid is the second field after the parenthesised name.
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            total += _vm_hwm_kib(entry.name)
    return total / 1024.0


def traced_run(workload, out_dir: Path) -> tuple[list, dict[str, float]]:
    """Run the workload's fixed traced units twice: plain, then traced."""
    from layers import install, layer_metrics
    from tracer import LayerTracer

    indices = range(workload.trace_units)
    # A discarded unit first, so neither pass pays for the first one's warm-up.
    workload.run_unit(0)
    started = time.perf_counter()
    units = [workload.run_unit(index) for index in indices]
    untraced_wall = time.perf_counter() - started

    tracer = LayerTracer()
    traced = []
    traced_wall = 0.0
    try:
        for index in indices:
            # The wrapper cost follows the host's speed, so it is measured
            # again (untraced) right before each unit it corrects.
            tracer.calibrate()
            install(tracer)
            started = time.perf_counter()
            traced.append(workload.run_unit(index, tracer))
            traced_wall += time.perf_counter() - started
            tracer.restore()
    finally:
        tracer.restore()
    extras = workload.layer_extras(traced)
    tracer.write_chrome_trace(out_dir / f"trace-{workload.name}.json", f"perfbench {workload.name}")
    return units, layer_metrics(tracer, traced_wall, untraced_wall, extras)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mode", choices=("setup", "measure"), required=True)
    args = parser.parse_args()

    import speed
    from workloads import WORKLOADS, end_to_end, measure

    out_dir = ROOT / ".perfbench"
    workload = WORKLOADS[args.workload](args.seed, out_dir)
    try:
        workload.setup()
        print("READY", flush=True)
        # Sampled here, with the workload idle, to close the set-up bracket.
        print(f"SPEED {speed.reference_sample()!r}", flush=True)
        if args.mode == "setup":
            return 0
        if args.trace:
            units, metrics = traced_run(workload, out_dir)
        else:
            units = measure(workload, args.seconds)
            metrics = end_to_end(units)
        # Before the checks: their full-trace re-runs are not the workload's.
        metrics["peak_rss_mb"] = peak_rss_mb()
        checks = workload.checks(units)
        attempted, failed = workload.operations()
    finally:
        workload.close()
    result = {
        "metrics": metrics,
        "units": len(units),
        "attempted": attempted + len(checks),
        "failed": failed + sum(1 for check in checks if not check.ok),
        "checks": [{"name": c.name, "ok": c.ok, "detail": c.detail} for c in checks],
    }
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
