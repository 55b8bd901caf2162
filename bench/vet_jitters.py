"""Checks the fixture jitters that run.py's nonzero seeds choose among.

    python3 bench/vet_jitters.py [--jitters J ...] [--workloads W ...]

Makes one traced run of each workload at each jitter (run.JITTERS unless
--jitters names others), bounded like a benchmark run, and prints verify's
residual ratio and the frame fit's energy evaluations. Exits 1 when a run
fails or a ratio reaches RESID_MARGIN: a seed that chose that jitter would
fail the benchmark, or come close to (see run.JITTERS). Run it again after
a change to the program moves verify.resid_ratio.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import run

RESID_MARGIN = 0.75  # of verify's residual tolerance


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--jitters", type=float, nargs="+",
                        default=list(run.JITTERS))
    names = [w for w in run.WORKLOADS if w != "smoke"]
    parser.add_argument("--workloads", nargs="+", choices=names,
                        default=names)
    args = parser.parse_args(argv)

    work = run.BENCH / "out" / "vet"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    config = work / "config.json"
    env = run.child_env()
    bad = 0
    for name in args.workloads:
        for jitter in args.jitters:
            config.write_text(json.dumps(run.workload_doc(name, jitter)))
            rec = run.bounded_run(config, work, 0, True, env,
                                  run.RUN_BOUND_S)
            text = f"{name:10s} jitter {jitter:.6f}"
            if rec["ok"]:
                ratio = rec["layers"]["verify.resid_ratio"]
                text += (f" resid_ratio {ratio:.3f} energy_evals "
                         f"{rec['layers']['frames.energy_evals']:.0f}"
                         f" {rec['seconds']:.1f} s")
                if ratio >= RESID_MARGIN:
                    text += f"  at or over {RESID_MARGIN}"
                    bad += 1
            else:
                text += f" FAILED: {rec['error']}"
                bad += 1
            print(text, flush=True)
    print("vet " + ("FAILED" if bad else "passed"))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
