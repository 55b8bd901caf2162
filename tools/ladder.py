"""Byte-identity ladder: the whole pipeline on the benchmark's three
workloads, each at jitter 0 and at every ``JITTERS`` value of bench/run.py
(27 configurations), one ``sha256  workload/jitter/file`` line per output
and one ``lambda_star <value>  workload/jitter`` line per configuration, so
that a change of ``report.txt`` also shows as a readable number.

    python3 tools/ladder.py > after.txt
    python3 tools/ladder.py --root ../parent-checkout > before.txt
    diff before.txt after.txt

``--root`` names the checkout whose ``src`` and ``bench`` are used (default:
the one holding this script), so one copy of the script lists any commit
whose bench/run.py has ``workload_doc`` and ``JITTERS``. The configs come
from ``workload_doc``; nothing under bench/ is written. Outputs go to a
temporary directory, removed afterwards, unless ``--out`` keeps them.
"""

from __future__ import annotations

import argparse
import hashlib
import shutil
import sys
import tempfile
from pathlib import Path


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--root", type=Path,
                    default=Path(__file__).resolve().parent.parent,
                    help="checkout to run (its src/ and bench/)")
    ap.add_argument("--out", type=Path, default=None,
                    help="keep the outputs here instead of a temp dir")
    args = ap.parse_args(argv)

    root = args.root.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    import run  # bench/run.py: pins BLAS threads before numpy loads
    from stresstruss.config import parse_config
    from stresstruss.pipeline import run_stage

    base = args.out or Path(tempfile.mkdtemp(prefix="ladder-"))
    try:
        for name in (w for w in run.WORKLOADS if w != "smoke"):
            for jitter in (0.0, *run.JITTERS):
                label = f"{name}/{jitter:g}"
                out = base / label
                shutil.rmtree(out, ignore_errors=True)
                cfg = parse_config(run.workload_doc(name, jitter))
                run_stage("pipeline", cfg, out_dir=out)
                for f in sorted(p for p in out.iterdir() if p.is_file()):
                    digest = hashlib.sha256(f.read_bytes()).hexdigest()
                    print(f"{digest}  {label}/{f.name}", flush=True)
                lam = (out / "report.txt").read_text().splitlines()[-1]
                print(f"{lam}  {label}", flush=True)
    finally:
        if args.out is None:
            shutil.rmtree(base, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
