"""Peak memory by stage: which stage sets a workload's ``peak_rss_mb``.

For each of the benchmark's three workloads at jitter 0, the pipeline runs
once into a temporary directory. Then each stage runs again on those
outputs, each in a fresh process, and one line per stage gives

    workload stage rss_before_mb peak_after_mb

the process's peak resident size (``ru_maxrss``, Linux kB / 1024) after
imports and the config parse, and after the stage. The first is the floor
every stage starts from; the stage whose second column is highest sets the
workload's peak.

    python3 tools/stage_rss.py
    python3 tools/stage_rss.py --root ../parent-checkout

``--root`` names the checkout whose ``src`` and ``bench`` are used (default:
the one holding this script). The configs come from bench/run.py's
``workload_doc``, which also pins the BLAS threads to one; nothing under
bench/ is written.
"""

from __future__ import annotations

import argparse
import resource
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

WORKLOADS = ("bar", "bar-dense", "box-8x")


def _peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _child(root: Path, name: str, stage: str, out: Path) -> int:
    """Run ``stage`` of workload ``name`` into ``out`` and print its line,
    or, for ``pipeline``, run all stages and print their names."""
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    import run  # bench/run.py: pins BLAS threads before numpy loads
    from stresstruss.config import parse_config
    from stresstruss.pipeline import STAGE_ORDER, run_stage

    cfg = parse_config(run.workload_doc(name, 0.0))
    before = _peak_mb()
    run_stage(stage, cfg, out_dir=out)
    if stage == "pipeline":
        print(" ".join(STAGE_ORDER))
    else:
        print(f"{name} {stage} {before:.1f} {_peak_mb():.1f}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--root", type=Path,
                    default=Path(__file__).resolve().parent.parent,
                    help="checkout to run (its src/ and bench/)")
    ap.add_argument("--stage", nargs=3, metavar=("WORKLOAD", "STAGE", "OUT"),
                    help=argparse.SUPPRESS)   # one child process
    args = ap.parse_args(argv)
    root = args.root.resolve()
    if args.stage:
        name, stage, out = args.stage
        return _child(root, name, stage, Path(out))

    # This process imports no numpy: a child's ru_maxrss starts from the
    # resident size of the process that spawned it.
    def child(name, stage, out):
        return subprocess.run(
            [sys.executable, __file__, "--root", str(root), "--stage", name,
             stage, str(out)], check=True, stdout=subprocess.PIPE,
            text=True).stdout.strip()

    base = Path(tempfile.mkdtemp(prefix="stage-rss-"))
    try:
        print("workload stage rss_before_mb peak_after_mb", flush=True)
        for name in WORKLOADS:
            for stage in child(name, "pipeline", base / name).split():
                print(child(name, stage, base / name), flush=True)
    finally:
        shutil.rmtree(base, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
