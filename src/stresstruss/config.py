"""JSON pipeline configuration: parsing, validation, canonical
serialization, and hashing.

The canonical dict form is what gets hashed into the run manifest, so
``config_to_dict`` must stay deterministic (sorted keys, repr floats via
the json module) and round-trip through ``load_config`` unchanged.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

from . import selectors
from .errors import ConfigError
from .fem import BoundaryConditions, Dirichlet, Material, Neumann
from .frames import FrameFitConfig

_TOP_KEYS = {
    "mesh", "material", "boundary_conditions", "frame_fit", "beta", "rho",
    "epsilon", "simplify", "radius_policy", "geometry", "features",
    "out_dir",
}
_FIXTURES = ("bar", "cube", "box")


@dataclass
class SimplifyParams:
    length_threshold: float | None = None    # absolute, m; None = factor rule
    length_factor: float = 0.05              # of median element length
    remove_interior_hits: bool = True
    preserve_features: bool = True


@dataclass
class PipelineConfig:
    mesh_source: dict
    material: Material
    bcs: BoundaryConditions
    frame_fit: FrameFitConfig = field(default_factory=FrameFitConfig)
    beta: float = 1.0
    rho: float = 4.0
    epsilon: float = 1e-7
    simplify: SimplifyParams = field(default_factory=SimplifyParams)
    radius_policy: float | dict = 0.02
    sides: int = 8
    features_enabled: bool = False
    feature_cos_threshold: float = 0.9
    out_dir: str = "out"
    base_dir: Path = field(default_factory=Path)   # config file's directory

    def mesh_path(self) -> Path | None:
        if "path" not in self.mesh_source:
            return None
        return (self.base_dir / self.mesh_source["path"]).resolve()


def _require(cond: bool, msg: str):
    if not cond:
        raise ConfigError(msg)


def _parse_bcs(doc: dict) -> BoundaryConditions:
    dirichlet = []
    for i, d in enumerate(doc.get("dirichlet", [])):
        selectors.check(d.get("selector"), f"dirichlet[{i}]")
        axes = tuple(bool(a) for a in d.get("axes", (True, True, True)))
        _require(len(axes) == 3, f"dirichlet[{i}]: axes must have 3 entries")
        value = tuple(float(v) for v in d.get("value", (0.0, 0.0, 0.0)))
        _require(len(value) == 3,
                 f"dirichlet[{i}]: value must have 3 entries")
        dirichlet.append(Dirichlet(d["selector"], axes, value))
    neumann = []
    for i, nm in enumerate(doc.get("neumann", [])):
        selectors.check(nm.get("selector"), f"neumann[{i}]")
        force = tuple(float(v) for v in nm.get("force", (0.0, 0.0, 0.0)))
        _require(len(force) == 3, f"neumann[{i}]: force must have 3 entries")
        neumann.append(Neumann(nm["selector"], force))
    gravity = doc.get("gravity")
    if gravity is not None:
        gravity = tuple(float(v) for v in gravity)
        _require(len(gravity) == 3, "gravity must have 3 entries")
    return BoundaryConditions(dirichlet, neumann, gravity)


def _parse_mesh(doc, base_dir: Path) -> dict:
    _require(isinstance(doc, dict), "mesh must be an object")
    has_path = "path" in doc
    has_fixture = "fixture" in doc
    _require(has_path != has_fixture,
             "mesh needs exactly one of 'path' or 'fixture'")
    if has_path:
        allowed = {"path", "format"}
        _require(set(doc) <= allowed,
                 f"unknown mesh keys: {sorted(set(doc) - allowed)}")
        p = (base_dir / doc["path"]).resolve()
        _require(p.exists(), f"mesh file does not exist: {p}")
    else:
        _require(doc["fixture"] in _FIXTURES,
                 f"unknown fixture {doc['fixture']!r}; "
                 f"choose from {_FIXTURES}")
        allowed = {"fixture", "jitter", "n", "divisions", "size", "origin"}
        _require(set(doc) <= allowed,
                 f"unknown mesh keys: {sorted(set(doc) - allowed)}")
    return dict(doc)


def parse_config(doc: dict, base_dir: Path | str = ".") -> PipelineConfig:
    base_dir = Path(base_dir)
    _require(isinstance(doc, dict), "config root must be a JSON object")
    unknown = set(doc) - _TOP_KEYS
    _require(not unknown, f"unknown config keys: {sorted(unknown)}")
    _require("mesh" in doc, "config needs a 'mesh' section")
    _require("material" in doc, "config needs a 'material' section")

    mesh_source = _parse_mesh(doc["mesh"], base_dir)
    m = doc["material"]
    material = Material(
        young_modulus=float(m["young_modulus"]),
        poisson_ratio=float(m["poisson_ratio"]),
        density=float(m.get("density", 0.0)),
        yield_strength=float(m.get("yield_strength", 1.0)),
    )
    bcs = _parse_bcs(doc.get("boundary_conditions", {}))

    ff_doc = doc.get("frame_fit", {})
    defaults = FrameFitConfig()
    known = set(vars(defaults))
    _require(set(ff_doc) <= known,
             f"unknown frame_fit keys: {sorted(set(ff_doc) - known)}")
    frame_fit = FrameFitConfig(**{**vars(defaults), **ff_doc})
    _require(frame_fit.outer_iterations >= 1,
             "frame_fit.outer_iterations must be >= 1")
    _require(frame_fit.alpha0_factor > 0,
             "frame_fit.alpha0_factor must be positive")
    _require(0.0 < frame_fit.alpha_decay < 1.0,
             "frame_fit.alpha_decay must lie in (0, 1)")

    beta = float(doc.get("beta", 1.0))
    _require(beta > 0, "beta must be positive")
    rho = float(doc.get("rho", 4.0))
    _require(rho > 0, "rho must be positive")
    epsilon = float(doc.get("epsilon", 1e-7))
    _require(0.0 < epsilon <= 1e-3, "epsilon must lie in (0, 1e-3]")

    s_doc = doc.get("simplify", {})
    s_known = {"length_threshold", "length_factor", "remove_interior_hits",
               "preserve_features"}
    _require(set(s_doc) <= s_known,
             f"unknown simplify keys: {sorted(set(s_doc) - s_known)}")
    thr = s_doc.get("length_threshold")
    simplify = SimplifyParams(
        length_threshold=None if thr is None else float(thr),
        length_factor=float(s_doc.get("length_factor", 0.05)),
        remove_interior_hits=bool(s_doc.get("remove_interior_hits", True)),
        preserve_features=bool(s_doc.get("preserve_features", True)),
    )
    _require(simplify.length_factor >= 0,
             "simplify.length_factor must be >= 0")
    if simplify.length_threshold is not None:
        _require(simplify.length_threshold >= 0,
                 "simplify.length_threshold must be >= 0")

    radius_policy = doc.get("radius_policy", 0.02)
    if isinstance(radius_policy, dict):
        for k, v in radius_policy.items():
            _require(float(v) > 0, f"radius_policy[{k!r}] must be positive")
        radius_policy = {k: float(v) for k, v in radius_policy.items()}
    else:
        radius_policy = float(radius_policy)
        _require(radius_policy > 0, "radius_policy must be positive")

    g_doc = doc.get("geometry", {})
    _require(set(g_doc) <= {"sides"},
             f"unknown geometry keys: {sorted(set(g_doc) - {'sides'})}")
    sides = int(g_doc.get("sides", 8))
    _require(sides >= 3, "geometry.sides must be at least 3")

    f_doc = doc.get("features", {})
    _require(set(f_doc) <= {"enabled", "cos_threshold"},
             "unknown features keys: "
             f"{sorted(set(f_doc) - {'enabled', 'cos_threshold'})}")
    features_enabled = bool(f_doc.get("enabled", False))
    feature_cos = float(f_doc.get("cos_threshold", 0.9))
    _require(-1.0 <= feature_cos <= 1.0,
             "features.cos_threshold must lie in [-1, 1]")

    return PipelineConfig(
        mesh_source=mesh_source,
        material=material,
        bcs=bcs,
        frame_fit=frame_fit,
        beta=beta,
        rho=rho,
        epsilon=epsilon,
        simplify=simplify,
        radius_policy=radius_policy,
        sides=sides,
        features_enabled=features_enabled,
        feature_cos_threshold=feature_cos,
        out_dir=str(doc.get("out_dir", "out")),
        base_dir=base_dir,
    )


def load_config(path: str | Path) -> PipelineConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file does not exist: {path}")
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return parse_config(doc, base_dir=path.parent)


def _selector_dict(sel):
    return {k: (list(v) if isinstance(v, (tuple, list)) else v)
            for k, v in sel.items()}


def config_to_dict(cfg: PipelineConfig) -> dict:
    """Canonical, fully populated dict form; hashing and round-trip base."""
    return {
        "mesh": dict(cfg.mesh_source),
        "material": {
            "young_modulus": cfg.material.young_modulus,
            "poisson_ratio": cfg.material.poisson_ratio,
            "density": cfg.material.density,
            "yield_strength": cfg.material.yield_strength,
        },
        "boundary_conditions": {
            "dirichlet": [
                {"selector": _selector_dict(d.selector),
                 "axes": list(d.axes), "value": list(d.value)}
                for d in cfg.bcs.dirichlet
            ],
            "neumann": [
                {"selector": _selector_dict(nm.selector),
                 "force": list(nm.force)}
                for nm in cfg.bcs.neumann
            ],
            "gravity": (None if cfg.bcs.gravity is None
                        else list(cfg.bcs.gravity)),
        },
        "frame_fit": dict(vars(cfg.frame_fit)),
        "beta": cfg.beta,
        "rho": cfg.rho,
        "epsilon": cfg.epsilon,
        "simplify": {
            "length_threshold": cfg.simplify.length_threshold,
            "length_factor": cfg.simplify.length_factor,
            "remove_interior_hits": cfg.simplify.remove_interior_hits,
            "preserve_features": cfg.simplify.preserve_features,
        },
        "radius_policy": cfg.radius_policy,
        "geometry": {"sides": cfg.sides},
        "features": {"enabled": cfg.features_enabled,
                     "cos_threshold": cfg.feature_cos_threshold},
        "out_dir": cfg.out_dir,
    }


def save_config(cfg: PipelineConfig, path: str | Path):
    Path(path).write_text(
        json.dumps(config_to_dict(cfg), indent=2, sort_keys=True) + "\n")


def config_hash(cfg: PipelineConfig) -> str:
    canon = json.dumps(config_to_dict(cfg), sort_keys=True,
                       separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()
