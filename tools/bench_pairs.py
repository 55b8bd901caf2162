"""Paired benchmark of a change against its parent: alternating
``bench/run.py --trace 0`` invocations on a parent checkout and on this
one, each at the benchmark's own run length, summarised into
``BENCH_<label>.json`` at the root of this checkout.

    python3 tools/bench_pairs.py --parent ../parent-checkout \\
        --workload box-8x --seed 0 --pairs 10 --label mesh_reuse

Pair k runs the parent first when k is odd and the change first when k is
even, each side one invocation of its own checkout's bench/run.py (which
writes only its ignored ``bench/out/``). Each invocation's metric values
are medians over its runs. Per workload and seed, the file gets, for each
end-to-end metric and side, the median, the quartiles
(``statistics.quantiles(n=4, method='inclusive')``) and the invocations'
values in pair order, with the count of pairs in which the change's value
is lower (``change_lower_in_pairs``) or equal (``ties``); ``result`` sums
up ``pipeline_s``. An existing file of the same label keeps its other
workloads and seeds, so one file can hold several. The file is rewritten
after every pair.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
METHOD = (
    "alternating pairs of a parent checkout and the change, odd pairs "
    "parent first and even pairs change first; each side of a pair is one "
    "bench/run.py invocation, whose metric values are medians over its "
    "runs. Quartiles are statistics.quantiles(n=4, method='inclusive') over "
    "the invocations' values; 'runs' lists them in pair order.")


def invoke(root: Path, args: list[str]) -> tuple[dict, dict]:
    """One ``bench/run.py`` invocation in ``root``: its summary (the last
    line of its output) and its environment line."""
    out = subprocess.run([sys.executable, str(root / "bench" / "run.py"),
                          *args], cwd=root, capture_output=True, text=True)
    if out.returncode != 0:
        raise SystemExit(f"{root}: bench/run.py exited {out.returncode}:\n"
                         f"{out.stderr}")
    lines = out.stdout.splitlines()
    env = next(json.loads(line.split(" ", 1)[1]) for line in lines
               if line.startswith("environment "))
    return json.loads(lines[-1]), env


def side(values: list[float]) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1,
            "runs": values}


def summarise(pairs: list[dict], command: str) -> dict:
    """The end-to-end entry of one workload and seed from its pairs, each
    ``{"parent": summary, "change": summary}``."""
    entry: dict = {"pairs": len(pairs)}
    for name in pairs[0]["parent"]["metrics"]:
        runs = {s: [p[s]["metrics"][name]["value"] for p in pairs]
                for s in ("parent", "change")}
        entry[name] = {
            "parent": side(runs["parent"]), "change": side(runs["change"]),
            "change_lower_in_pairs": sum(
                c < p for p, c in zip(runs["parent"], runs["change"])),
            "ties": sum(c == p for p, c in zip(runs["parent"],
                                               runs["change"]))}
    for key, field in (("failed_runs", "failed"),
                       ("attempted_runs", "attempted")):
        entry[key] = {s: sum(p[s][field] for p in pairs)
                      for s in ("parent", "change")}
    entry["command"] = command
    return entry


def result(entry: dict) -> dict:
    t = entry["pipeline_s"]
    parent, change = t["parent"]["median"], t["change"]["median"]
    return {"parent_median_s": parent, "change_median_s": change,
            "relative_change": change / parent - 1.0,
            "median_gap_s": parent - change,
            "parent_iqr_s": t["parent"]["iqr"],
            "change_lower_in_pairs":
                f"{t['change_lower_in_pairs']} of {entry['pairs']}"}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True,
                    help="checkout of the parent commit")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--label", required=True,
                    help="the file written is BENCH_<label>.json")
    ap.add_argument("--change", help="what the change does, for the file")
    ap.add_argument("--claim", help="the gain claimed, for the file")
    args = ap.parse_args(argv)
    roots = {"parent": args.parent.resolve(), "change": ROOT}
    run_args = ["--workload", args.workload, "--seed", str(args.seed),
                "--trace", "0"]
    command = "python3 bench/run.py " + " ".join(run_args)
    key = f"{args.workload} seed {args.seed}"
    path = ROOT / f"BENCH_{args.label}.json"
    doc = json.loads(path.read_text()) if path.exists() else {}
    doc["label"] = args.label
    for name in ("change", "claim"):
        if getattr(args, name):
            doc[name] = getattr(args, name)
    doc["method"] = METHOD
    pairs: list[dict] = []
    for k in range(1, args.pairs + 1):
        order = ("parent", "change") if k % 2 else ("change", "parent")
        pair = {}
        for s in order:
            pair[s], env = invoke(roots[s], run_args)
        pairs.append(pair)
        entry = summarise(pairs, command)
        doc.setdefault("result", {})[key] = result(entry)
        doc["environment"] = env
        doc.setdefault("end_to_end", {})[key] = entry
        path.write_text(json.dumps(doc, indent=1) + "\n")
        times = [pair[s]["metrics"]["pipeline_s"]["value"]
                 for s in ("parent", "change")]
        print(f"{key} pair {k}: pipeline_s parent {times[0]:.4f} change "
              f"{times[1]:.4f}; change lower in "
              f"{entry['pipeline_s']['change_lower_in_pairs']} of {k}",
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
