"""JSON pipeline configuration: parsing, validation, canonical
serialization, and hashing.

The canonical dict form is what gets hashed into the run manifest, so
``config_to_dict`` must stay deterministic (sorted keys, repr floats via
the json module) and round-trip through ``load_config`` unchanged.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import MISSING, dataclass, field, fields
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


def _check(value, name: str, kind):
    """``value``, which must pass ``kind``: a test and what it asks, as in
    ``selectors.KEYS``."""
    valid, what = kind
    _require(valid(value), f"{name} must be {what}")
    return value


def _count(low: int):
    return (lambda v: isinstance(v, int) and not isinstance(v, bool)
            and v >= low, f"an integer >= {low}")


def _or_null(kind):
    valid, what = kind
    return (lambda v: v is None or valid(v), f"null or {what}")


_STRING = (lambda v: isinstance(v, str), "a string")
_OBJECT = (lambda v: isinstance(v, dict), "an object")
_LIST = (lambda v: isinstance(v, list), "a list")
_FLAG = (lambda v: isinstance(v, bool), "true or false")
_FLAGS = (lambda v: isinstance(v, list) and len(v) == 3
          and all(isinstance(a, bool) for a in v), "3 booleans")
_NUMBER = (selectors.is_number, "a finite number")
_POSITIVE = (lambda v: selectors.is_number(v) and v > 0, "a positive number")
_COSINE = (lambda v: selectors.is_number(v) and -1.0 < v <= 1.0,
           "a number in (-1, 1]")
_DIVISIONS = (lambda v: isinstance(v, list) and len(v) == 3
              and all(map(_count(1)[0], v)), "3 integers >= 1")

# The kind of each key a section may hold. A key left out takes its
# dataclass default; pipeline.mesh_from_config applies the mesh defaults.
_MESH_FILE = {"path": _STRING, "format": _STRING}
_MESH_FIXTURE = {"fixture": _STRING, "jitter": _NUMBER, "n": _count(1),
                 "divisions": _DIVISIONS, "size": selectors.POINT,
                 "origin": selectors.POINT}
_MATERIAL = {f.name: _NUMBER for f in fields(Material)}
_BCS = {"dirichlet": _LIST, "neumann": _LIST,
        "gravity": _or_null(selectors.POINT)}
_DIRICHLET = {"selector": _OBJECT, "axes": _FLAGS, "value": selectors.POINT}
_NEUMANN = {"selector": _OBJECT, "force": selectors.POINT}
# Frame-fit kinds follow the types of FrameFitConfig's defaults.
_FRAME_FIT = {k: _FLAG if isinstance(v, bool) else
              _count(0) if isinstance(v, int) else _NUMBER
              for k, v in vars(FrameFitConfig()).items()}
_SIMPLIFY = {"length_threshold": _or_null(selectors.NON_NEGATIVE),
             "length_factor": selectors.NON_NEGATIVE,
             "remove_interior_hits": _FLAG, "preserve_features": _FLAG}
_GEOMETRY = {"sides": _count(3)}
_FEATURES = {"enabled": _FLAG, "cos_threshold": _COSINE}
_SCALARS = {"beta": _POSITIVE, "rho": _POSITIVE, "epsilon": _NUMBER,
            "out_dir": _STRING}


def _section(doc, name: str, kinds: dict) -> dict:
    """``doc``, an object of only keys of ``kinds`` whose values pass
    their kinds."""
    _require(isinstance(doc, dict), f"{name} must be an object")
    unknown = set(doc) - set(kinds)
    _require(not unknown, f"unknown {name} keys: {sorted(unknown)}")
    for key, value in doc.items():
        _check(value, f"{name}.{key}", kinds[key])
    return doc


def _floats(doc: dict) -> dict:
    """``doc`` with numbers as floats and lists as tuples, as the dataclasses
    hold them (the hash tells 1 from 1.0); a selector stays as written."""
    def num(v):
        return float(v) if selectors.is_number(v) else v
    return {k: v if k == "selector" else
            tuple(map(num, v)) if isinstance(v, list) else num(v)
            for k, v in doc.items()}


def _entries(doc: list, name: str, kinds: dict) -> list[dict]:
    out = []
    for i, entry in enumerate(doc):
        out.append(_floats(_section(entry, f"{name}[{i}]", kinds)))
        selectors.check(entry.get("selector"), f"{name}[{i}]")
    return out


def _parse_bcs(doc) -> BoundaryConditions:
    doc = _section(doc, "boundary_conditions", _BCS)
    return BoundaryConditions(
        [Dirichlet(**d) for d in _entries(doc.get("dirichlet", []),
                                          "dirichlet", _DIRICHLET)],
        [Neumann(**nm) for nm in _entries(doc.get("neumann", []),
                                          "neumann", _NEUMANN)],
        _floats(doc).get("gravity"))


def _parse_mesh(doc, base_dir: Path) -> dict:
    _require(isinstance(doc, dict), "mesh must be an object")
    has_path = "path" in doc
    has_fixture = "fixture" in doc
    _require(has_path != has_fixture,
             "mesh needs exactly one of 'path' or 'fixture'")
    if has_path:
        _section(doc, "mesh", _MESH_FILE)
        p = (base_dir / doc["path"]).resolve()
        _require(p.exists(), f"mesh file does not exist: {p}")
    else:
        _section(doc, "mesh", _MESH_FIXTURE)
        _require(doc["fixture"] in _FIXTURES,
                 f"unknown fixture {doc['fixture']!r}; "
                 f"choose from {_FIXTURES}")
    return dict(doc)


def parse_config(doc: dict, base_dir: Path | str = ".") -> PipelineConfig:
    base_dir = Path(base_dir)
    _require(isinstance(doc, dict), "config root must be a JSON object")
    unknown = set(doc) - _TOP_KEYS
    _require(not unknown, f"unknown config keys: {sorted(unknown)}")
    _require("mesh" in doc, "config needs a 'mesh' section")
    _require("material" in doc, "config needs a 'material' section")

    mesh_source = _parse_mesh(doc["mesh"], base_dir)
    m = _section(doc["material"], "material", _MATERIAL)
    missing = [f.name for f in fields(Material)
               if f.default is MISSING and f.name not in m]
    _require(not missing, f"material needs {missing}")
    material = Material(**_floats(m))
    bcs = _parse_bcs(doc.get("boundary_conditions", {}))

    frame_fit = FrameFitConfig(**_section(doc.get("frame_fit", {}),
                                          "frame_fit", _FRAME_FIT))
    _require(frame_fit.outer_iterations >= 1,
             "frame_fit.outer_iterations must be >= 1")
    _require(frame_fit.alpha0_factor > 0,
             "frame_fit.alpha0_factor must be positive")
    _require(0.0 < frame_fit.alpha_decay < 1.0,
             "frame_fit.alpha_decay must lie in (0, 1)")
    # A stop test no gradient can pass, or no step at all, never converges.
    _require(frame_fit.gtol > 0, "frame_fit.gtol must be positive")
    _require(frame_fit.max_inner_iterations >= 1,
             "frame_fit.max_inner_iterations must be >= 1")

    simplify = SimplifyParams(**_floats(
        _section(doc.get("simplify", {}), "simplify", _SIMPLIFY)))

    # The top-level values a config holds, under PipelineConfig's names.
    given = _floats({k: _check(doc[k], k, kind)
                     for k, kind in _SCALARS.items() if k in doc})
    radius_policy = doc.get("radius_policy")
    if isinstance(radius_policy, dict):
        given["radius_policy"] = {
            k: float(_check(v, f"radius_policy[{k!r}]", _POSITIVE))
            for k, v in radius_policy.items()}
    elif "radius_policy" in doc:
        given["radius_policy"] = float(_check(radius_policy, "radius_policy",
                                              _POSITIVE))
    given.update(_section(doc.get("geometry", {}), "geometry", _GEOMETRY))
    features = _section(doc.get("features", {}), "features", _FEATURES)
    names = {"enabled": "features_enabled",
             "cos_threshold": "feature_cos_threshold"}
    given.update(_floats({names[k]: v for k, v in features.items()}))

    cfg = PipelineConfig(mesh_source=mesh_source, material=material,
                         bcs=bcs, frame_fit=frame_fit, simplify=simplify,
                         base_dir=base_dir, **given)
    _require(0.0 < cfg.epsilon <= 1e-3, "epsilon must lie in (0, 1e-3]")
    return cfg


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
