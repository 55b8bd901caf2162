"""JSON pipeline configuration: parsing, validation, canonical
serialization, and hashing.

The canonical dict form is what gets hashed into the run manifest, so
``config_to_dict`` must stay deterministic (sorted keys, repr floats via
the json module) and round-trip through ``load_config`` unchanged.
"""

from __future__ import annotations

import hashlib
import inspect
import json
from dataclasses import MISSING, asdict, dataclass, field, fields
from pathlib import Path

from . import selectors
from .errors import ConfigError
from .extract import FAMILIES
from .fem import BoundaryConditions, Dirichlet, Material, Neumann
from .fixtures import FIXTURES
from .frames import FrameFitConfig
from .mesh import mesh_format


@dataclass
class GeometryParams:
    sides: int = 8                           # strut cross-section polygon


@dataclass
class FeatureParams:
    enabled: bool = False                    # trace boundary feature edges
    cos_threshold: float = 0.9


@dataclass
class PipelineConfig:
    """A config file's sections, each under the file's own key."""
    mesh: dict
    material: Material
    boundary_conditions: BoundaryConditions = field(
        default_factory=BoundaryConditions)
    frame_fit: FrameFitConfig = field(default_factory=FrameFitConfig)
    beta: float = 1.0
    rho: float = 4.0
    radius_policy: float | dict = 0.02
    geometry: GeometryParams = field(default_factory=GeometryParams)
    features: FeatureParams = field(default_factory=FeatureParams)
    out_dir: str = "out"
    base_dir: Path = field(default_factory=Path)   # config file's directory

    def mesh_path(self) -> Path | None:
        if "path" not in self.mesh:
            return None
        return (self.base_dir / self.mesh["path"]).resolve()


_TOP_KEYS = {f.name for f in fields(PipelineConfig)} - {"base_dir"}


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
_FRACTION = (lambda v: selectors.is_number(v) and 0.0 < v < 1.0,
             "a number in (0, 1)")
_COSINE = (lambda v: selectors.is_number(v) and -1.0 < v <= 1.0,
           "a number in (-1, 1]")
_DIVISIONS = (lambda v: isinstance(v, list) and len(v) == 3
              and all(map(_count(1)[0], v)), "3 integers >= 1")

# The kind of each key a section may hold. A key left out takes its
# dataclass default, or for a fixture its function's default.
_MESH_FILE = {"path": _STRING, "format": _STRING}
_FIXTURE_ARGS = {"jitter": _NUMBER, "n": _count(1), "divisions": _DIVISIONS,
                 "size": selectors.POINT, "origin": selectors.POINT}
_MATERIAL = {f.name: _NUMBER for f in fields(Material)}
_BCS = {"dirichlet": _LIST, "neumann": _LIST,
        "gravity": _or_null(selectors.POINT)}
_DIRICHLET = {"selector": _OBJECT, "axes": _FLAGS, "value": selectors.POINT}
_NEUMANN = {"selector": _OBJECT, "force": selectors.POINT}
# gtol > 0 and at least one inner step: a stop test no gradient can pass,
# or no step at all, never converges.
_FRAME_FIT = {"outer_iterations": _count(1), "alpha_decay": _FRACTION,
              "gtol": _POSITIVE, "max_inner_iterations": _count(1)}
_GEOMETRY = {"sides": _count(3)}
_FEATURES = {"enabled": _FLAG, "cos_threshold": _COSINE}
# One radius for all members, or an object of radii by family.
_RADIUS = (lambda v: isinstance(v, dict) or _POSITIVE[0](v),
           "a positive number or an object of them")
_SCALARS = {"beta": _POSITIVE, "rho": _POSITIVE, "radius_policy": _RADIUS,
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
        mesh_format(doc["path"], doc.get("format"))
        p = (base_dir / doc["path"]).resolve()
        _require(p.exists(), f"mesh file does not exist: {p}")
    else:
        name = _check(doc["fixture"], "mesh.fixture", _STRING)
        _require(name in FIXTURES, f"unknown fixture {name!r}; "
                 f"choose from {tuple(FIXTURES)}")
        # A fixture takes exactly its function's keyword arguments.
        args = inspect.signature(FIXTURES[name]).parameters
        _section(doc, "mesh", {"fixture": _STRING,
                               **{k: _FIXTURE_ARGS[k] for k in args}})
        missing = [k for k, a in args.items()
                   if a.default is a.empty and k not in doc]
        _require(not missing, f"mesh fixture {name!r} needs {missing}")
    return dict(doc)


def parse_config(doc: dict, base_dir: Path | str = ".") -> PipelineConfig:
    base_dir = Path(base_dir)
    _require(isinstance(doc, dict), "config root must be a JSON object")
    unknown = set(doc) - _TOP_KEYS
    _require(not unknown, f"unknown config keys: {sorted(unknown)}")
    _require("mesh" in doc, "config needs a 'mesh' section")
    _require("material" in doc, "config needs a 'material' section")

    mesh = _parse_mesh(doc["mesh"], base_dir)
    m = _section(doc["material"], "material", _MATERIAL)
    missing = [f.name for f in fields(Material)
               if f.default is MISSING and f.name not in m]
    _require(not missing, f"material needs {missing}")
    material = Material(**_floats(m))

    frame_fit = FrameFitConfig(**_section(doc.get("frame_fit", {}),
                                          "frame_fit", _FRAME_FIT))

    # The top-level values a config holds.
    given = _floats({k: _check(doc[k], k, kind)
                     for k, kind in _SCALARS.items() if k in doc})
    if isinstance(given.get("radius_policy"), dict):
        given["radius_policy"] = {
            k: float(_check(v, f"radius_policy[{k!r}]", _POSITIVE))
            for k, v in given["radius_policy"].items()}

    cfg = PipelineConfig(
        mesh=mesh, material=material,
        boundary_conditions=_parse_bcs(doc.get("boundary_conditions", {})),
        frame_fit=frame_fit,
        geometry=GeometryParams(**_section(doc.get("geometry", {}),
                                           "geometry", _GEOMETRY)),
        features=FeatureParams(**_floats(_section(
            doc.get("features", {}), "features", _FEATURES))),
        base_dir=base_dir, **given)
    # A radius map names element families, and one without "default"
    # covers every family the run can extract.
    policy = cfg.radius_policy
    if isinstance(policy, dict):
        unknown = set(policy) - {*FAMILIES, "default"}
        _require(not unknown, f"unknown radius_policy families "
                 f"{sorted(unknown)}; choose from {(*FAMILIES, 'default')}")
        missing = [f for f in FAMILIES if f not in policy
                   and (f != "feature" or cfg.features.enabled)]
        _require("default" in policy or not missing, "radius_policy has no "
                 f"'default' and no radius for element family(ies) {missing}")
    return cfg


def load_config(path: str | Path) -> PipelineConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file does not exist: {path}")
    try:
        doc = json.loads(path.read_bytes())
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror}") from exc
    except ValueError as exc:      # undecodable bytes or malformed JSON
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return parse_config(doc, base_dir=path.parent)


def config_to_dict(cfg: PipelineConfig) -> dict:
    """Canonical, fully populated dict form; hashing and round-trip base.
    It is the config file's own shape, so the json round trip only turns
    tuples into lists."""
    doc = asdict(cfg)
    del doc["base_dir"]
    return json.loads(json.dumps(doc))


def save_config(cfg: PipelineConfig, path: str | Path):
    Path(path).write_text(
        json.dumps(config_to_dict(cfg), indent=2, sort_keys=True) + "\n")


def config_hash(cfg: PipelineConfig) -> str:
    """sha256 of the canonical config without ``out_dir``: where a run
    writes does not change what it writes."""
    doc = config_to_dict(cfg)
    del doc["out_dir"]
    canon = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()
