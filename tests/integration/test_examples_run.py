"""Integration tests: every example script runs to completion.

The examples are part of the public surface of the repository; they must keep
working as the library evolves.  Each is executed in a subprocess exactly as a
user would run it, with a generous timeout, and its output is checked for the
headline lines it promises.
"""

from __future__ import annotations

import functools
import os
import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parents[2] / "examples"

EXPECTED_MARKERS = {
    "quickstart.py": ["Outcome:", "Leader election", "Problem properties"],
    "jammed_cafe.py": ["One execution", "Five seeds per interference source"],
    "adaptive_low_interference.py": ["Good executions", "Worst case"],
    "bluetooth_hopping.py": ["Step 1", "Step 3", "Step 5"],
    "crash_recovery.py": ["Scenario: no crash", "straggler"],
}


@functools.cache
def run_example(name: str) -> str:
    """The example's stdout; it runs once per test session."""
    script = EXAMPLES_DIR / name
    # The examples import `repro` from the src layout; make it importable in
    # the subprocess regardless of how the test runner itself was launched.
    env = dict(os.environ)
    src_dir = str(EXAMPLES_DIR.parent / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src_dir if not existing else f"{src_dir}{os.pathsep}{existing}"
    completed = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        timeout=600,
        check=False,
        env=env,
    )
    assert completed.returncode == 0, (
        f"{name} exited with {completed.returncode}\n"
        f"stdout:\n{completed.stdout[-2000:]}\nstderr:\n{completed.stderr[-2000:]}"
    )
    return completed.stdout


class TestExamples:
    def test_every_example_is_registered_here(self):
        on_disk = {path.name for path in EXAMPLES_DIR.glob("*.py")}
        assert on_disk == set(EXPECTED_MARKERS), (
            "keep EXPECTED_MARKERS in sync with the examples directory"
        )

    @pytest.mark.parametrize("name", sorted(EXPECTED_MARKERS))
    def test_example_runs_and_prints_its_headlines(self, name):
        output = run_example(name)
        for marker in EXPECTED_MARKERS[name]:
            assert marker in output, f"{name} output is missing {marker!r}"

    def test_quickstart_reports_all_properties_ok(self):
        output = run_example("quickstart.py")
        assert "VIOLATED" not in output
        assert "NOT achieved" not in output

    def test_crash_recovery_marks_only_the_crashed_leader(self):
        output = run_example("crash_recovery.py")
        assert crashed_column(output, "Scenario: no crash") == {"no"}
        early = crashed_column(output, "Scenario: leader crashes the moment it wins")
        assert early == {"yes", "no"}


def crashed_column(output: str, title: str) -> set[str]:
    """The values of the ``crashed`` column in the table titled ``title``."""
    lines = output.splitlines()
    start = lines.index(title)
    header = [cell.strip() for cell in lines[start + 2].split("|")]
    column = header.index("crashed")
    values = set()
    for line in lines[start + 4 :]:
        if "|" not in line:
            break
        values.add(line.split("|")[column].strip())
    return values
