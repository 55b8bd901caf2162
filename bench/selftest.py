"""Self-test of the benchmark: runs the test suite's small box config
(``smoke`` workload: box 6x2x2, rho 6) through run.py, untraced and traced,
and checks that every metric BENCHMARK.json names is emitted with its unit
and that the run's outputs passed their checks. A third invocation bounds
each run to TIMEOUT_BOUND_S, less than a smoke run takes, and checks that
the killed run is counted as failed and the result line is still printed.

    python3 bench/selftest.py
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import run

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
TIMEOUT_BOUND_S = 2.5   # past the worker's imports, inside the pipeline


def result_of(trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "smoke",
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=180)
    return json.loads(out.stdout.strip().splitlines()[-1])


def bounded_result() -> dict:
    """run.main on smoke with each run bounded to TIMEOUT_BOUND_S."""
    run.RUN_BOUND_S = TIMEOUT_BOUND_S
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", "smoke", "--seed", "1",
                         "--seconds", "1", "--trace", "0"])
    if code != 0:
        raise SystemExit(f"run.py exited with {code}")
    return json.loads(out.getvalue().strip().splitlines()[-1])


def problems(result: dict, expected: list[dict],
             killed: bool = False) -> list[str]:
    """What is wrong with ``result``: a missing or extra metric, or a run
    that failed (or, when ``killed``, a run that did not fail)."""
    found = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        found.append(f"result keys {sorted(result)}")
    if killed:
        if result.get("correct") or not result.get("failed", 0) >= 1:
            found.append(f"killed run not counted: {result.get('failed')} "
                         f"failed, correct {result.get('correct')}")
    elif not result.get("correct") or result.get("failed") != 0:
        found.append(f"run not correct: {result.get('failed')} failed")
    metrics = result.get("metrics", {})
    want = {m["name"]: m["unit"] for m in expected}
    for name in sorted(set(want) | set(metrics)):
        got = metrics.get(name)
        if name not in want:
            found.append(f"{name}: emitted but not in BENCHMARK.json")
        elif got is None:
            found.append(f"{name}: not emitted")
        elif got.get("unit") != want[name] or not isinstance(
                got.get("value"), (int, float)):
            found.append(f"{name}: emitted as {got}, unit {want[name]}")
    return found


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    found = []
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        found += [f"trace {trace}: {p}"
                  for p in problems(result_of(trace), spec[key])]
    found += [f"bounded run: {p}" for p in problems(
        bounded_result(), spec["end_to_end"], killed=True)]
    for p in found:
        print(p)
    print("selftest " + ("FAILED" if found else "passed"))
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
