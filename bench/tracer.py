"""Spans and counters recorded around calls into the stresstruss modules.

The benchmark does not edit the program. For a traced run, ``install``
replaces each hooked function, in every module that binds it, with a
wrapper that records a span (name, start, end, parent) and, for some
calls, notes a value read from the arguments or the result. ``restore``
puts the original functions back. ``layer_metrics`` turns one run's spans
and notes into the per-layer metrics named in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

# verify.frame_fem accepts a solve only below this residual tolerance,
# relative to 1 + ||f_free||.
VERIFY_RESIDUAL_TOL = 1e-8

# Counters that must repeat exactly from one run of a workload to the next.
EXACT_COUNTERS = ("mesh.builds", "fem.assemble_calls",
                  "verify.frame_fem_calls", "frames.energy_evals",
                  "lbfgs.calls", "lbfgs.iterations")

STAGES = ("fea", "frames", "param", "extract", "simplify", "geometry",
          "verify")

# Per-layer metric -> unit. Times ending in ``_s`` are totals over the run,
# except mesh.build_s and mesh.operators_s, which are per call.
UNITS = {
    **{f"{stage}.s": "s" for stage in STAGES},
    "fem.solve_s": "s",
    "fem.assemble_calls": "count",
    "fem.dofs": "count",
    "fem.nnz": "count",
    "frames.energy_evals": "count",
    "frames.eval_ms": "ms",
    "frames.data_energy": "1",
    "lbfgs.calls": "count",
    "lbfgs.iterations": "count",
    "lbfgs.evals_per_iter": "evals/iter",
    "lbfgs.unconverged": "count",
    "lbfgs.self_s": "s",
    "mesh.builds": "count",
    "mesh.build_s": "s",
    "mesh.operators_builds": "count",
    "mesh.operators_s": "s",
    "param.solve_s": "s",
    "param.kkt_n": "count",
    "param.kkt_nnz": "count",
    "extract.interior_s": "s",
    "extract.boundary_s": "s",
    "extract.merge_s": "s",
    "extract.tets_visited": "count",
    "extract.elements": "count",
    "simplify.elements_in": "count",
    "simplify.elements_out": "count",
    "simplify.removed_ratio": "ratio",
    "geometry.emit_s": "s",
    "geometry.write_s": "s",
    "geometry.triangles": "count",
    "geometry.bytes_written": "B",
    "verify.frame_fem_calls": "count",
    "verify.frame_fem_s": "s",
    "verify.solve_s": "s",
    "verify.dofs": "count",
    "verify.nnz": "count",
    "verify.resid_ratio": "ratio",
    "artifacts.write_s": "s",
    "artifacts.read_s": "s",
    "artifacts.bytes_written": "B",
    "trace.overhead_s": "s",
}


class Tracer:
    """In-memory spans and notes of one traced pipeline run."""

    def __init__(self, run_id: int):
        self.run_id = run_id
        self.spans: list[list] = []     # [name, start, end, parent index]
        self.notes: dict[str, list] = defaultdict(list)
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append([name, time.perf_counter(), None, parent])
        self._open.append(idx)
        try:
            yield idx
        finally:
            self._open.pop()
            self.spans[idx][2] = time.perf_counter()

    def parent_name(self, idx: int) -> str | None:
        parent = self.spans[idx][3]
        return None if parent is None else self.spans[parent][0]

    def records(self) -> list[dict]:
        return [{"run": self.run_id, "name": n, "start": s, "end": e,
                 "parent": p} for n, s, e, p in self.spans]


# Observers: called after a hooked call returns, outside its span.

def _note_system(tr, idx, args, result):
    a, b = args[0], np.asarray(args[1])
    owner = tr.parent_name(idx)
    tr.notes[f"system.{owner}"].append((a.shape[0], a.nnz))
    if owner == "verify.frame_fem":
        resid = float(np.linalg.norm(a @ result - b))
        tol = VERIFY_RESIDUAL_TOL * (1.0 + float(np.linalg.norm(b)))
        tr.notes["verify.resid_ratio"].append(resid / tol)


def _note_data_energy(tr, idx, args, result):
    tr.notes["frames.data_energy"].append(result)


def _note_attr(key, attr):
    def note(tr, idx, args, result):
        tr.notes[key].append(getattr(result, attr))
    return note


def _note_file(position):
    def note(tr, idx, args, result):
        tr.notes[f"bytes.{tr.spans[idx][0]}"].append(
            os.path.getsize(args[position]))
    return note


def _note_manifest(tr, idx, args, result):
    tr.notes["bytes.artifacts.write"].append(
        os.path.getsize(os.path.join(args[0], "manifest.json")))


def _note_tets(tr, idx, args, result):
    tr.notes["extract.tets_visited"].append(args[0].num_tets)


def _note_simplify(tr, idx, args, result):
    tr.notes["simplify.elements_in"].append(args[0].num_elements)
    tr.notes["simplify.elements_out"].append(result.num_elements)


def _note_minimize(tr, idx, args, result):
    tr.notes["lbfgs.iterations"].append(result.iterations)
    tr.notes["lbfgs.unconverged"].append(0 if result.converged else 1)


# (module, function, span name, observer). Every module that binds the
# function (``from x import f``) gets the same wrapper.
HOOKS = (
    ("stresstruss.pipeline", "mesh_from_config", "mesh.build", None),
    ("stresstruss.mesh", "build_operators", "mesh.operators", None),
    ("stresstruss.fem", "solve_static", "fem.solve", None),
    ("stresstruss.fem", "assemble_stiffness", "fem.assemble", None),
    ("stresstruss.frames", "total_energy_grad", "frames.eval", None),
    ("stresstruss.frames", "data_energy_total", "frames.data_energy",
     _note_data_energy),
    ("stresstruss.lbfgs", "minimize", "lbfgs.minimize", _note_minimize),
    ("stresstruss.param", "solve_parametrization", "param.solve", None),
    ("scipy.sparse.linalg", "spsolve", "spsolve", _note_system),
    ("stresstruss.extract", "extract_3d", "extract.interior", _note_tets),
    ("stresstruss.extract", "extract_boundary", "extract.boundary", None),
    ("stresstruss.extract", "merge_graphs", "extract.merge",
     _note_attr("extract.elements", "num_elements")),
    ("stresstruss.postprocess", "simplify", "simplify.contract",
     _note_simplify),
    ("stresstruss.postprocess", "emit_geometry", "geometry.emit",
     _note_attr("geometry.triangles", "num_triangles")),
    ("stresstruss.postprocess", "write_obj", "geometry.write", _note_file(1)),
    ("stresstruss.postprocess", "write_ply", "geometry.write", _note_file(1)),
    ("stresstruss.postprocess", "write_lines_obj", "geometry.write",
     _note_file(1)),
    ("stresstruss.verify", "frame_fem", "verify.frame_fem", None),
    ("stresstruss.artifacts", "write_graph", "artifacts.write",
     _note_file(0)),
    ("stresstruss.artifacts", "write_field", "artifacts.write",
     _note_file(0)),
    ("stresstruss.artifacts", "update_manifest", "artifacts.write",
     _note_manifest),
    ("stresstruss.artifacts", "read_graph", "artifacts.read", None),
    ("stresstruss.artifacts", "read_field", "artifacts.read", None),
)


def _wrap(tracer: Tracer, fn, name: str, observe):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(name) as idx:
            result = fn(*args, **kwargs)
        if observe is not None:
            observe(tracer, idx, args, result)
        return result
    return traced


def _binding_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "stresstruss"
                                  or name.startswith("stresstruss.")
                                  or name == "scipy.sparse.linalg")]


def install(tracer: Tracer):
    """Wrap every hooked function for ``tracer``; returns the restore list
    to hand to ``restore``."""
    modules = _binding_modules()
    saved = []
    for mod_name, attr, name, observe in HOOKS:
        fn = getattr(importlib.import_module(mod_name), attr)
        wrapper = _wrap(tracer, fn, name, observe)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is fn:
                    saved.append((m, key, fn))
                    setattr(m, key, wrapper)
    return saved


def restore(saved):
    for m, key, fn in reversed(saved):
        setattr(m, key, fn)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced run (all of UNITS but
    ``trace.overhead_s``, which needs an untraced run)."""
    total = defaultdict(float)
    calls = defaultdict(int)
    child = defaultdict(float)
    for name, start, end, parent in tracer.spans:
        total[name] += end - start
        calls[name] += 1
        if parent is not None:
            child[parent] += end - start
    lbfgs_self = sum(end - start - child[i]
                     for i, (name, start, end, _) in enumerate(tracer.spans)
                     if name == "lbfgs.minimize")
    notes = tracer.notes

    def per_call(name):
        return total[name] / calls[name] if calls[name] else 0.0

    def system(owner):
        sizes = notes.get(f"system.{owner}") or [(0, 0)]
        return sizes[-1]

    fem_n, fem_nnz = system("fem.solve")
    kkt_n, kkt_nnz = system("param.solve")
    ver_n, ver_nnz = system("verify.frame_fem")
    verify_solve = sum(end - start for i, (name, start, end, _)
                       in enumerate(tracer.spans)
                       if name == "spsolve"
                       and tracer.parent_name(i) == "verify.frame_fem")
    iterations = sum(notes["lbfgs.iterations"])
    elements_in = sum(notes["simplify.elements_in"])
    elements_out = sum(notes["simplify.elements_out"])
    metrics = {f"{stage}.s": total[f"stage.{stage}"] for stage in STAGES}
    metrics.update({
        "fem.solve_s": total["fem.solve"],
        "fem.assemble_calls": calls["fem.assemble"],
        "fem.dofs": fem_n,
        "fem.nnz": fem_nnz,
        "frames.energy_evals": calls["frames.eval"],
        "frames.eval_ms": 1e3 * per_call("frames.eval"),
        "frames.data_energy": float(notes["frames.data_energy"][-1]),
        "lbfgs.calls": calls["lbfgs.minimize"],
        "lbfgs.iterations": iterations,
        "lbfgs.evals_per_iter": calls["frames.eval"] / max(iterations, 1),
        "lbfgs.unconverged": sum(notes["lbfgs.unconverged"]),
        "lbfgs.self_s": lbfgs_self,
        "mesh.builds": calls["mesh.build"],
        "mesh.build_s": per_call("mesh.build"),
        "mesh.operators_builds": calls["mesh.operators"],
        "mesh.operators_s": per_call("mesh.operators"),
        "param.solve_s": total["param.solve"],
        "param.kkt_n": kkt_n,
        "param.kkt_nnz": kkt_nnz,
        "extract.interior_s": total["extract.interior"],
        "extract.boundary_s": total["extract.boundary"],
        "extract.merge_s": total["extract.merge"],
        "extract.tets_visited": sum(notes["extract.tets_visited"]),
        "extract.elements": sum(notes["extract.elements"]),
        "simplify.elements_in": elements_in,
        "simplify.elements_out": elements_out,
        "simplify.removed_ratio": 1.0 - elements_out / max(elements_in, 1),
        "geometry.emit_s": total["geometry.emit"],
        "geometry.write_s": total["geometry.write"],
        "geometry.triangles": sum(notes["geometry.triangles"]),
        "geometry.bytes_written": sum(notes["bytes.geometry.write"]),
        "verify.frame_fem_calls": calls["verify.frame_fem"],
        "verify.frame_fem_s": total["verify.frame_fem"],
        "verify.solve_s": verify_solve,
        "verify.dofs": ver_n,
        "verify.nnz": ver_nnz,
        "verify.resid_ratio": max(notes["verify.resid_ratio"] or [0.0]),
        "artifacts.write_s": total["artifacts.write"],
        "artifacts.read_s": total["artifacts.read"],
        "artifacts.bytes_written": sum(notes["bytes.artifacts.write"]),
    })
    return {k: float(v) for k, v in metrics.items()}
