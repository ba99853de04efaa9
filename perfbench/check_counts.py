"""Check that the benchmark's counts repeat exactly between two runs.

    python3 perfbench/check_counts.py [workload ...]

Runs each workload (all four by default) twice with tracing on and the
same seed, and fails if any per-layer metric that is not a time differs
between the two runs, or if a run reports a failed check.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("verify", "routes", "tabulate", "kernels")


def traced_run(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv: list[str]) -> int:
    problems = []
    for workload in argv or WORKLOADS:
        first, second = traced_run(workload, 11), traced_run(workload, 11)
        for run in (first, second):
            if not run["correct"]:
                problems.append(f"{workload}: {run['failed']} of {run['attempted']} checks failed")
        counts = {k: v["value"] for k, v in first["metrics"].items() if v["unit"] != "s"}
        for name, value in counts.items():
            again = second["metrics"][name]["value"]
            if again != value:
                problems.append(f"{workload}: {name} was {value}, then {again}")
        print(f"{workload}: {len(counts)} counts compared")
    for line in problems:
        print(line, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
