"""Staged execution: each stage reads the artifact of the stage it needs
from the output directory, writes its own artifact, fills a record of what
it did (``<stage>.json``), and records itself in the run manifest.
Artifacts, records and the manifest carry no timestamps, so a re-run with
an identical config is byte-identical.
"""

from __future__ import annotations

import json
from functools import cache
from pathlib import Path

import numpy as np

from . import artifacts
from .config import PipelineConfig, config_hash
from .errors import ArtifactError, ConfigError, NumericalError
from .extract import (extract_3d, extract_boundary, merge_graphs,
                      perturb_parametrization)
from .fem import cauchy_stress, solve_static, stress_spd
from .fixtures import FIXTURES
from .frames import fit_frame_field
from .mesh import TetMesh, feature_edges, load_tet_mesh, pieces
from .param import normalize_and_scale, solve_parametrization
from .postprocess import emit_geometry, simplify, write_lines_obj, \
    write_obj, write_ply
from .verify import build_truss_model, check_supports, frame_fem, \
    load_factor, write_report

_ARTIFACT_FILES = {
    "fea": "fea.field",
    "frames": "frames.field",
    "param": "param.field",
    "extract": "graph.json",
    "simplify": "graph_simplified.json",
}


def mesh_from_config(cfg: PipelineConfig) -> TetMesh:
    if "path" in cfg.mesh:
        return load_tet_mesh(cfg.mesh_path(), cfg.mesh.get("format"))
    args = dict(cfg.mesh)
    return FIXTURES[args.pop("fixture")](**args)


# The last fixture mesh run_stage built, under the canonical JSON of its
# mesh section: one entry at most.
_kept: dict[str, TetMesh] = {}


def _load_mesh(cfg: PipelineConfig) -> TetMesh:
    """The kept mesh if it was built from ``cfg``'s mesh section; otherwise
    a new ``mesh_from_config(cfg)``, which, for a fixture, is kept in its
    place. A mesh file is read again on every call. A build that fails
    leaves nothing kept."""
    key = json.dumps(cfg.mesh, sort_keys=True)
    mesh = _kept.get(key)
    if mesh is None:
        _kept.clear()  # never two meshes, not even while the next is built
        mesh = mesh_from_config(cfg)
        if "path" not in cfg.mesh:
            _kept[key] = mesh
    return mesh


def _artifact(out: Path, stage: str) -> Path:
    """The artifact ``stage`` wrote, which a later stage needs."""
    path = out / _ARTIFACT_FILES[stage]
    if not path.exists():
        raise ArtifactError(f"missing artifact: {stage}")
    return path


def _read_array(out: Path, stage: str, kind: str, name: str,
                shape: tuple[int, ...]) -> np.ndarray:
    """The array ``name`` of the field ``stage`` wrote; ArtifactError naming
    the file unless it is float64 of the ``shape`` the mesh needs."""
    path = _artifact(out, stage)
    arr = artifacts.read_field(path, kind=kind, names=(name,))[1][name]
    if arr.dtype != np.float64:
        raise ArtifactError(f"{path}: {name} has dtype {arr.dtype}, not "
                            "float64")
    if arr.shape != shape:
        raise ArtifactError(f"{path}: {name} has shape {arr.shape}, the mesh "
                            f"needs {shape}")
    return arr


def _stage_fea(cfg: PipelineConfig, out: Path, load_mesh,
               record: dict) -> list[str]:
    mesh = load_mesh()
    u = solve_static(mesh, cfg.material, cfg.boundary_conditions,
                     record=record)
    field = cauchy_stress(mesh, cfg.material, u)
    sigma_plus, eigenvalues_plus = stress_spd(field)
    name = _ARTIFACT_FILES["fea"]
    artifacts.write_field(out / name, {
        "u": u, **vars(field), "sigma_plus": sigma_plus,
        "eigenvalues_plus": eigenvalues_plus}, meta={}, kind="stress")
    record.update(vertices=mesh.num_vertices, tets=mesh.num_tets,
                  max_displacement=float(np.max(np.abs(u))),
                  sigma_plus_eigenvalue_range=[float(eigenvalues_plus.min()),
                                               float(eigenvalues_plus.max())])
    return [name]


def _stage_frames(cfg: PipelineConfig, out: Path, load_mesh,
                  record: dict) -> list[str]:
    mesh = load_mesh()
    sigma_plus = _read_array(out, "fea", "stress", "sigma_plus",
                             (mesh.num_tets, 3, 3))
    ff = fit_frame_field(mesh, sigma_plus, cfg.frame_fit)
    name = _ARTIFACT_FILES["frames"]
    artifacts.write_field(out / name, {
        "omega": ff.omega,
        "frames": ff.frames,
    }, kind="frames")
    # One row per outer iteration; the last energy is the data energy of
    # the final omega.
    record["outer"] = ff.outer
    return [name]


def _stage_param(cfg: PipelineConfig, out: Path, load_mesh,
                 record: dict) -> list[str]:
    mesh = load_mesh()
    frames = _read_array(out, "frames", "frames", "frames",
                         (mesh.num_tets, 3, 3))
    phi = solve_parametrization(mesh, frames, cfg.beta, record=record)
    phi_tilde = perturb_parametrization(normalize_and_scale(phi, cfg.rho),
                                        mesh.tets)
    name = _ARTIFACT_FILES["param"]
    artifacts.write_field(out / name, {
        "phi": phi,
        "phi_tilde": phi_tilde,
    }, meta={"beta": cfg.beta, "rho": cfg.rho}, kind="param")

    spans = phi_tilde.max(axis=0) - phi_tilde.min(axis=0)
    record.update(component_spans=spans.tolist(), rho=cfg.rho, beta=cfg.beta)
    return [name]


def _stage_extract(cfg: PipelineConfig, out: Path, load_mesh,
                   record: dict) -> list[str]:
    mesh = load_mesh()
    params = _read_array(out, "param", "param", "phi_tilde",
                         (mesh.num_vertices, 3))
    interior = extract_3d(mesh, params)
    features = None
    if cfg.features.enabled:
        features = feature_edges(mesh.boundary, cfg.features.cos_threshold)
    surface = extract_boundary(mesh, params, features)
    g = merge_graphs([interior, surface])
    name = _ARTIFACT_FILES["extract"]
    artifacts.write_graph(out / name, g)
    record.update(nodes=g.num_nodes, elements=g.num_elements, family_counts={
        f: g.families.count(f) for f in set(g.families)})
    return [name]


def _stage_simplify(cfg: PipelineConfig, out: Path, _,
                    record: dict) -> list[str]:
    g = artifacts.read_graph(_artifact(out, "extract"))
    g2 = simplify(g, remove_interior_hits=True, record=record)
    name = _ARTIFACT_FILES["simplify"]
    artifacts.write_graph(out / name, g2)
    record.update(
        before={"nodes": g.num_nodes, "elements": g.num_elements},
        after={"nodes": g2.num_nodes, "elements": g2.num_elements},
        member_connected_pieces=pieces(g2.num_nodes, g2.elements)[0])
    return [name]


def _stage_geometry(cfg: PipelineConfig, out: Path, _,
                    record: dict) -> list[str]:
    g = artifacts.read_graph(_artifact(out, "simplify"))
    tri = emit_geometry(g, cfg.radius_policy, sides=cfg.geometry.sides,
                        record=record)
    write_obj(tri, out / "truss.obj")
    write_ply(tri, out / "truss.ply")
    write_lines_obj(g, out / "graph_lines.obj")
    record.update(vertices=len(tri.vertices), triangles=tri.num_triangles,
                  sides=cfg.geometry.sides)
    return ["truss.obj", "truss.ply", "graph_lines.obj"]


def _check_verify_bcs(cfg: PipelineConfig) -> None:
    # An indices selector names mesh vertices or faces, which are not the
    # truss nodes; only box and sphere selectors carry over to the truss.
    for kind in ("dirichlet", "neumann"):
        for i, bc in enumerate(getattr(cfg.boundary_conditions, kind)):
            if bc.selector["type"] == "indices":
                raise ConfigError(
                    f"verify: {kind}[{i}]: indices selectors name mesh "
                    "entries, not truss nodes; use a box or sphere selector")
    try:
        check_supports(cfg.boundary_conditions)
    except ConfigError as exc:
        raise ConfigError(f"verify: {exc}") from exc


def _stage_verify(cfg: PipelineConfig, out: Path, _,
                  record: dict) -> list[str]:
    g = artifacts.read_graph(_artifact(out, "simplify"))
    model = build_truss_model(g, cfg.material, cfg.radius_policy,
                              cfg.boundary_conditions)
    result = frame_fem(model, record=record)
    lam = load_factor(model, result)
    write_report(out / "report.txt", model, result, lam)
    combined = np.abs(result.axial_stress) + np.abs(result.bending_stress)
    record.update(
        lambda_star=lam,
        max_utilization=float(combined.max()) / cfg.material.yield_strength,
        max_displacement=float(np.max(np.abs(result.displacements[:, :3]))))
    return ["report.txt"]


_STAGE_FUNCS = {
    "fea": _stage_fea,
    "frames": _stage_frames,
    "param": _stage_param,
    "extract": _stage_extract,
    "simplify": _stage_simplify,
    "geometry": _stage_geometry,
    "verify": _stage_verify,
}
STAGE_ORDER = tuple(_STAGE_FUNCS)
STAGE_VERSIONS = {s: 1 for s in STAGE_ORDER}


def run_stage(stage: str, cfg: PipelineConfig,
              out_dir: str | Path | None = None) -> list[Path]:
    """Run one stage (or 'pipeline' for all, in order); returns the files
    written. Stage errors (MemoryError as NumericalError, a failed write as
    ArtifactError) name the stage.
    A stage calls ``load_mesh()``: the first call of a ``run_stage`` call
    returns the fixture mesh kept from an earlier call if it was built from
    the same mesh section, and otherwise builds the mesh, keeping a fixture
    mesh (one per process; a ``TetMesh`` is read-only). A stage fills
    a fresh record dict, written after it returns as ``<stage>.json``: one
    line of JSON with sorted keys, floats at every digit."""
    if stage != "pipeline" and stage not in _STAGE_FUNCS:
        raise ConfigError(
            f"unknown stage {stage!r}; choose from "
            f"{STAGE_ORDER + ('pipeline',)}")
    stages = STAGE_ORDER if stage == "pipeline" else (stage,)
    if "verify" in stages:  # fail before anything is written
        _check_verify_bcs(cfg)
    out = Path(out_dir if out_dir is not None else cfg.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out}: "
                          f"{exc.strerror}") from exc
    cfg_hash = config_hash(cfg)
    written: list[Path] = []
    load_mesh = cache(lambda: _load_mesh(cfg))
    for s in stages:
        record: dict = {}
        try:
            files = _STAGE_FUNCS[s](cfg, out, load_mesh, record)
            files.append(f"{s}.json")
            (out / files[-1]).write_text(json.dumps(record, sort_keys=True)
                                         + "\n")
            artifacts.update_manifest(out, cfg_hash, s, STAGE_VERSIONS[s],
                                      files)
        except (ConfigError, NumericalError, ArtifactError) as exc:
            raise type(exc)(f"{s}: {exc}") from exc
        except MemoryError as exc:
            raise NumericalError(f"{s}: out of memory: {exc}") from exc
        except OSError as exc:  # a write; the readers raise ArtifactError
            raise ArtifactError(f"{s}: cannot write {exc.filename or out}: "
                                f"{exc.strerror or exc}") from exc
        written.extend(out / f for f in files)
    return written
