"""Byte-identity ladder: the whole pipeline on the benchmark's three
workloads, each at jitter 0 and at every ``JITTERS`` value of bench/run.py
(27 configurations), one ``sha256  workload/jitter/file`` line per output
and, per configuration, readable lines for the numbers a change may move:

    lambda_star <v>  workload/jitter        report.txt's load factor
    alignment_frac <v>  workload/jitter     test_11's measure, computed by
                                            bench/worker.py's alignment_frac
    elements <n>  workload/jitter           members of the simplified truss
    frames_evals <n>  workload/jitter       energy evaluations, frames.json
    final_data_energy <v>  workload/jitter  the fit's data energy, frames.json
    member_volume <v>  workload/jitter      sum of pi r^2 L over the members
                                            in m^3, verify.json

It ends with one ``gate`` line per workload: the median and the lowest
``alignment_frac`` and ``lambda_star`` over its nine configurations, and
the median and range of ``elements``. Beside the median, ``pooled a/n``
sums over the nine configurations the aligned interior members,
round(alignment_frac x interior members), and the interior members, so
one member moves it by 1/n where it can move the median by a step.

    python3 tools/ladder.py > after.txt
    python3 tools/ladder.py --root ../parent-checkout > before.txt
    diff before.txt after.txt

``--root`` names the checkout whose ``src`` and ``bench`` are used (default:
the one holding this script). The script reads the stage records
(``frames.json``, and ``verify.json``'s ``member_volume``), so it cannot
list a commit whose stages still wrote ``frames.log`` or whose
``verify.json`` lacks ``member_volume``; list such a parent with that
checkout's own script (``python3 ../parent-checkout/tools/ladder.py``) and
diff the two. The
listed commit's bench/run.py must have ``workload_doc`` and ``JITTERS``,
and its bench/worker.py ``alignment_frac``. The configs come from
``workload_doc``; nothing under bench/ is written. Outputs go to a
temporary directory, removed afterwards, unless ``--out`` keeps them.

``--noise S`` scales the stress surrogate the frame fit reads by
(1 + 1e-13 u_k) over tets k, u = ``default_rng(S).uniform(-1, 1, m)``: a
round-off-sized input change, so the ladder of a checkout with noise seeds
1-10 beside it shows how far the gate lines move by round-off alone.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import statistics
import sys
import tempfile
from pathlib import Path


def frames_numbers(path: Path) -> tuple[int, float]:
    """The fit's total energy evaluations and its final data energy (the
    last outer row's), as frames.json records them."""
    outer = json.loads(path.read_text())["outer"]
    return sum(row["evals"] for row in outer), outer[-1]["energy"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--root", type=Path,
                    default=Path(__file__).resolve().parent.parent,
                    help="checkout to run (its src/ and bench/)")
    ap.add_argument("--out", type=Path, default=None,
                    help="keep the outputs here instead of a temp dir")
    ap.add_argument("--noise", type=int, default=None, metavar="S",
                    help="scale the frame fit's input by 1 + 1e-13 noise "
                         "of seed S")
    args = ap.parse_args(argv)

    root = args.root.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    import run  # bench/run.py: pins BLAS threads before numpy loads
    from worker import alignment_frac
    from stresstruss import artifacts, pipeline
    from stresstruss.config import parse_config
    from stresstruss.extract import INTERIOR_FAMILIES
    from stresstruss.pipeline import mesh_from_config, run_stage

    if args.noise is not None:
        import numpy as np
        fit = pipeline.fit_frame_field

        def noisy_fit(mesh, M, *rest, **kw):
            u = np.random.default_rng(args.noise).uniform(-1.0, 1.0, len(M))
            return fit(mesh, M * (1.0 + 1e-13 * u)[:, None, None], *rest,
                       **kw)
        pipeline.fit_frame_field = noisy_fit

    base = args.out or Path(tempfile.mkdtemp(prefix="ladder-"))
    gates: dict[str, list[tuple[float, float, int, int]]] = {}
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
                _, fea = artifacts.read_field(out / "fea.field",
                                              kind="stress",
                                              names=("eigenvectors",))
                graph = artifacts.read_graph(out / "graph_simplified.json")
                frac = alignment_frac(mesh_from_config(cfg),
                                      fea["eigenvectors"], graph)
                evals, energy = frames_numbers(out / "frames.json")
                volume = json.loads((out / "verify.json").read_text())[
                    "member_volume"]
                print(f"{lam}  {label}\n"
                      f"alignment_frac {frac:.6f}  {label}\n"
                      f"elements {graph.num_elements}  {label}\n"
                      f"frames_evals {evals}  {label}\n"
                      f"final_data_energy {energy:.9e}  {label}\n"
                      f"member_volume {volume:.9e}  {label}",
                      flush=True)
                interior = sum(f in INTERIOR_FAMILIES
                               for f in graph.families)
                gates.setdefault(name, []).append(
                    (frac, float(lam.split()[1]), graph.num_elements,
                     interior))
    finally:
        if args.out is None:
            shutil.rmtree(base, ignore_errors=True)
    for name, rows in gates.items():
        frac, lam, elements, interior = zip(*rows)
        aligned = sum(round(f * n) for f, n in zip(frac, interior))
        print(f"gate {name} alignment_frac median "
              f"{statistics.median(frac):.6f} pooled {aligned}/"
              f"{sum(interior)} min {min(frac):.6f} "
              f"lambda_star median {statistics.median(lam):.9e} "
              f"min {min(lam):.9e} elements median "
              f"{statistics.median(elements):g} range {min(elements)}-"
              f"{max(elements)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
