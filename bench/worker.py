"""Benchmark worker: the child process that runs the pipeline, started by
run.py.

    worker.py setup <config.json>
        Time a cold ``import stresstruss.pipeline`` plus ``load_config``,
        the cost every CLI call pays before fea; print it as JSON.

    worker.py run <config.json> <out_dir> <record.json> <run_id> <0|1>
        Run the pipeline once into ``out_dir`` (traced when the last
        argument is 1), check its outputs and write the run's record to
        ``record.json``. The spans of a traced run go to
        ``spans-<run_id>.json`` beside the record.

One run per process, so that run.py can bound a run by killing its process.
A run that is killed or crashes leaves no record.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys
import time
import traceback
from pathlib import Path

HASHED_FILES = ("graph.json", "graph_simplified.json", "manifest.json")
ALIGN_DEG = 15.0
INTERIOR_FAMILIES = ("iso1", "iso2", "iso3")


class OutputError(Exception):
    """A run's outputs are inconsistent."""


def setup_seconds(config_path: str) -> float:
    start = time.perf_counter()
    import stresstruss.pipeline  # noqa: F401
    from stresstruss.config import load_config
    load_config(config_path)
    return time.perf_counter() - start


def alignment_frac(mesh, eigenvectors, graph) -> float:
    """Fraction of interior members within ALIGN_DEG of the nearest stress
    eigenvector of the tet holding the member's midpoint (test_11)."""
    import numpy as np
    v0 = mesh.vertices[mesh.tets[:, 0]]
    edges = np.stack([mesh.vertices[mesh.tets[:, k]] - v0
                      for k in (1, 2, 3)], axis=2)
    inv = np.linalg.inv(edges)
    within = total = 0
    for eidx, (a, b) in enumerate(graph.elements):
        if graph.families[eidx] not in INTERIOR_FAMILIES:
            continue
        pa, pb = graph.positions[a], graph.positions[b]
        d = (pb - pa) / np.linalg.norm(pb - pa)
        bary = np.einsum("mij,mj->mi", inv, 0.5 * (pa + pb) - v0)
        inside = np.minimum(bary.min(axis=1), 1.0 - bary.sum(axis=1))
        t = int(np.argmax(inside))
        cos = min(float(np.abs(eigenvectors[t].T @ d).max()), 1.0)
        within += int(np.degrees(np.arccos(cos)) <= ALIGN_DEG)
        total += 1
    if total == 0:
        raise OutputError("simplified graph has no interior members")
    return within / total


def report_lambda(path: Path, yield_strength: float) -> float:
    """lambda_star from report.txt, checked against yield over the largest
    |axial| + |bending| member stress listed in the same report."""
    lines = path.read_text().splitlines()
    header = next(i for i, ln in enumerate(lines) if ln.startswith("element "))
    peak = 0.0
    for ln in lines[header + 1:]:
        cols = ln.split()
        if not cols[0].isdigit():
            break
        peak = max(peak, abs(float(cols[4])) + abs(float(cols[5])))
    if not lines[-1].startswith("lambda_star ") or peak <= 0.0:
        raise OutputError("report.txt lacks member stresses or lambda_star")
    reported = float(lines[-1].split()[1])
    if abs(yield_strength / peak - reported) > 1e-5 * reported:
        raise OutputError(f"report lambda_star {reported} != yield/peak "
                          f"{yield_strength / peak}")
    return reported


def check_outputs(cfg, mesh, out: Path) -> dict:
    from stresstruss import artifacts
    from stresstruss.config import config_hash
    from stresstruss.pipeline import STAGE_ORDER
    manifest = artifacts.read_manifest(out)
    if manifest.get("config_hash") != config_hash(cfg):
        raise OutputError("manifest config_hash does not match the config")
    if sorted(manifest.get("stages", {})) != sorted(STAGE_ORDER):
        raise OutputError(f"manifest stages {sorted(manifest['stages'])}")
    _, fea = artifacts.read_field(out / "fea.field", kind="stress")
    graph = artifacts.read_graph(out / "graph_simplified.json")
    return {
        "hashes": {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                   for name in HASHED_FILES},
        "alignment_frac": alignment_frac(mesh, fea["eigenvectors"], graph),
        "lambda_star": report_lambda(out / "report.txt",
                                     cfg.material.yield_strength),
    }


def one_run(cfg, mesh, out: Path, tr) -> dict:
    """Run the pipeline into ``out`` (traced when ``tr`` is a Tracer) and
    check the outputs; the record says whether the run failed and why."""
    import tracer as tracing
    from stresstruss.pipeline import STAGE_ORDER, run_stage
    shutil.rmtree(out, ignore_errors=True)
    rec = {"traced": tr is not None, "ok": False}
    saved = tracing.install(tr) if tr is not None else []
    start = time.perf_counter()
    try:
        try:
            if tr is None:
                for stage in STAGE_ORDER:
                    run_stage(stage, cfg, out_dir=out)
            else:
                with tr.span("pipeline"):
                    for stage in STAGE_ORDER:
                        with tr.span(f"stage.{stage}"):
                            run_stage(stage, cfg, out_dir=out)
        finally:
            rec["seconds"] = time.perf_counter() - start
            tracing.restore(saved)
        rec.update(check_outputs(cfg, mesh, out))
        if tr is not None:
            rec["layers"] = tracing.layer_metrics(tr)
        rec["ok"] = True
    except Exception as exc:  # a failed run is counted; the loop goes on
        rec["error"] = "".join(
            traceback.format_exception_only(type(exc), exc)).strip()
        traceback.print_exc()
    finally:
        shutil.rmtree(out, ignore_errors=True)
    return rec


def run(config_path: str, out: Path, record: Path, run_id: int,
        traced: bool) -> None:
    import tracer as tracing
    from stresstruss.config import load_config
    from stresstruss.pipeline import mesh_from_config
    cfg = load_config(config_path)
    mesh = mesh_from_config(cfg)
    tr = tracing.Tracer(run_id) if traced else None
    rec = one_run(cfg, mesh, out, tr)
    if tr is not None:
        spans = record.parent / f"spans-{run_id}.json"
        spans.write_text(json.dumps(tr.records()) + "\n")
    partial = record.with_suffix(".partial")  # a killed run leaves none
    partial.write_text(json.dumps(rec) + "\n")
    partial.replace(record)


def main(argv: list[str]) -> int:
    if argv[0] == "setup":
        print(json.dumps({"setup_s": setup_seconds(argv[1])}))
    else:
        run(argv[1], Path(argv[2]), Path(argv[3]), int(argv[4]),
            argv[5] == "1")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
