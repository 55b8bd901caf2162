"""Config parsing, artifact IO, staged pipeline, and CLI contract tests."""

from __future__ import annotations

import json
import logging
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from stresstruss import artifacts, cli, fem, pipeline, postprocess, verify
from stresstruss import mesh as mesh_module
from stresstruss.config import (
    config_hash,
    config_to_dict,
    load_config,
    parse_config,
    save_config,
)
from stresstruss.errors import ArtifactError, ConfigError
from stresstruss.extract import TrussGraph
from stresstruss.frames import (CONTINUATION_GTOL, data_energy_total,
                                fit_constants, total_energy_grad)
from stresstruss.mesh import build_operators, write_medit
from stresstruss.fixtures import box_mesh, unit_cube_mesh
from stresstruss.pipeline import STAGE_ORDER, mesh_from_config, run_stage

SMALL_BAR_DOC = {
    "mesh": {"fixture": "box", "divisions": [6, 2, 2],
             "size": [0.12, 0.04, 0.04]},
    "material": {"young_modulus": 2.3e9, "poisson_ratio": 0.3,
                 "yield_strength": 4.8e7},
    "boundary_conditions": {
        "dirichlet": [
            {"selector": {"type": "box", "min": [-1e-9, -1.0, -1.0],
                          "max": [1e-9, 1.0, 1.0]}}
        ],
        "neumann": [
            {"selector": {"type": "box", "min": [0.1199999, -1.0, -1.0],
                          "max": [0.1200001, 1.0, 1.0]},
             "force": [100.0, 0.0, 0.0]}
        ],
    },
    "rho": 6.0,
    "radius_policy": 0.003,
}

FULL_DOC = {
    "mesh": {"fixture": "cube", "n": 3, "jitter": 0.1},
    "material": {"young_modulus": 1e9, "poisson_ratio": 0.25,
                 "density": 1100.0, "yield_strength": 3.2e7},
    "boundary_conditions": {
        "dirichlet": [
            {"selector": {"type": "sphere", "center": [0.0, 0.0, 0.0],
                          "radius": 0.2},
             "axes": [True, True, False], "value": [0.0, 0.0, 0.0]}
        ],
        "neumann": [
            {"selector": {"type": "indices", "values": [3, 5]},
             "force": [0.0, -10.0, 0.0]}
        ],
        "gravity": [0.0, 0.0, -9.81],
    },
    "frame_fit": {"outer_iterations": 5},
    "beta": 0.5,
    "rho": 3.0,
    "radius_policy": {"default": 0.01, "feature": 0.02},
    "geometry": {"sides": 6},
    "features": {"enabled": True, "cos_threshold": 0.8},
    "out_dir": "results",
}


def test_config_roundtrip_identity():
    # SMALL_BAR_DOC leaves gravity unset: null in the canonical form.
    for doc in (FULL_DOC, SMALL_BAR_DOC):
        cfg = parse_config(doc)
        d1 = config_to_dict(cfg)
        cfg2 = parse_config(json.loads(json.dumps(d1)))
        assert config_to_dict(cfg2) == d1
        assert config_hash(cfg2) == config_hash(cfg)


def test_config_save_load(tmp_path):
    for doc in (FULL_DOC, SMALL_BAR_DOC):
        cfg = parse_config(doc)
        path = tmp_path / "cfg.json"
        save_config(cfg, path)
        again = load_config(path)
        assert config_to_dict(again) == config_to_dict(cfg)


def test_config_defaults():
    cfg = parse_config({"mesh": {"fixture": "bar"},
                        "material": {"young_modulus": 1e9,
                                     "poisson_ratio": 0.3}})
    assert cfg.beta == 1.0 and cfg.rho == 4.0
    assert cfg.geometry.sides == 8 and cfg.out_dir == "out"
    assert cfg.frame_fit.outer_iterations == 30


@pytest.mark.parametrize("mutate, match", [
    (lambda d: d.update(bogus=1), "unknown config keys"),
    (lambda d: d.update(beta=0.0), "beta"),
    (lambda d: d.update(epsilon=0.0), "epsilon"),
    # The integer-guard perturbation and the contraction rule are fixed
    # behaviour, not settings.
    pytest.param(lambda d: d.update(epsilon=1e-7),
                 r"^unknown config keys: \['epsilon'\]", id="removed-epsilon"),
    pytest.param(lambda d: d.update(simplify={}),
                 r"^unknown config keys: \['simplify'\]",
                 id="removed-simplify"),
    (lambda d: d.update(geometry={"sides": 2}), "sides"),
    (lambda d: d.update(frame_fit={"alpha_decay": 1.0}), "alpha_decay"),
    (lambda d: d.update(mesh={"fixture": "pyramid"}), "unknown fixture"),
    (lambda d: d.update(mesh={"fixture": "bar", "path": "x"}),
     "exactly one"),
    (lambda d: d.pop("material"), "material"),
    (lambda d: d.update(radius_policy=-0.1), "positive"),
    (lambda d: d["boundary_conditions"]["dirichlet"][0].update(
        selector={"type": "cone"}), "selector"),
    # Malformed values name their key instead of escaping as a traceback.
    pytest.param(lambda d: d["boundary_conditions"].update(dirichlet=[5]),
                 r"^dirichlet\[0\] must be an object", id="dirichlet-entry"),
    pytest.param(lambda d: d["material"].update(young_modulus="x"),
                 "^material.young_modulus must be a finite number",
                 id="young-modulus-string"),
    pytest.param(lambda d: d["material"].update(young_modulus=None),
                 "^material.young_modulus must be a finite number",
                 id="young-modulus-null"),
    pytest.param(lambda d: d["material"].pop("young_modulus"),
                 r"^material needs \['young_modulus'\]",
                 id="young-modulus-missing"),
    pytest.param(lambda d: d.update(material=[1]),
                 "^material must be an object", id="material-list"),
    pytest.param(lambda d: d["boundary_conditions"]["dirichlet"][0].update(
        axes=5), r"^dirichlet\[0\]\.axes must be 3 booleans", id="axes"),
    pytest.param(lambda d: d["boundary_conditions"].update(gravity=5),
                 "^boundary_conditions.gravity must be null or 3 finite numbers",
                 id="gravity"),
    pytest.param(lambda d: d["boundary_conditions"]["neumann"][0].update(
        force="abc"), r"^neumann\[0\]\.force must be 3 finite numbers",
        id="force"),
    pytest.param(lambda d: d.update(boundary_conditions=[]),
                 "^boundary_conditions must be an object", id="bcs-list"),
    pytest.param(lambda d: d.update(rho="x"),
                 "^rho must be a positive number", id="rho"),
    pytest.param(lambda d: d.update(frame_fit={"outer_iterations": "3"}),
                 "^frame_fit.outer_iterations must be an integer",
                 id="outer-iterations-string"),
    pytest.param(lambda d: d.update(frame_fit={"outer_iterations": 2.5}),
                 "^frame_fit.outer_iterations must be an integer",
                 id="outer-iterations-fraction"),
    pytest.param(lambda d: d.update(frame_fit={"gtol": "a"}),
                 "^frame_fit.gtol must be a positive number", id="gtol"),
    # Values no inner solve can ever converge with.
    pytest.param(lambda d: d.update(frame_fit={"gtol": -1.0}),
                 "^frame_fit.gtol must be a positive number",
                 id="gtol-negative"),
    pytest.param(lambda d: d.update(frame_fit={"gtol": 0.0}),
                 "^frame_fit.gtol must be a positive number", id="gtol-zero"),
    pytest.param(lambda d: d.update(frame_fit={"max_inner_iterations": 0}),
                 "^frame_fit.max_inner_iterations must be an integer >= 1",
                 id="max-inner-iterations-zero"),
    # Early stop and the three solver constants are no longer settings.
    pytest.param(lambda d: d.update(frame_fit={"early_stop": False}),
                 r"^unknown frame_fit keys: \['early_stop'\]",
                 id="removed-early-stop"),
    pytest.param(lambda d: d.update(frame_fit={"alpha0_factor": 10.0}),
                 r"^unknown frame_fit keys: \['alpha0_factor'\]",
                 id="removed-alpha0-factor"),
    pytest.param(lambda d: d.update(radius_policy="x"),
                 "^radius_policy must be a positive number",
                 id="radius-policy"),
    pytest.param(lambda d: d.update(radius_policy={"default": "x"}),
                 r"^radius_policy\['default'\] must be a positive number",
                 id="radius-policy-entry"),
    # A radius map names element families, and covers each one the run
    # extracts unless it has a default.
    pytest.param(lambda d: d.update(radius_policy={"iso_1": 0.01,
                                                   "default": 0.003}),
                 r"^unknown radius_policy families \['iso_1'\]",
                 id="radius-policy-unknown-family"),
    pytest.param(lambda d: d.update(radius_policy={
        "iso1": 0.003, "iso2": 0.003, "iso3": 0.003}),
        r"^radius_policy has no 'default' and no radius for element "
        r"family\(ies\) \['boundary'\]", id="radius-policy-no-boundary"),
    pytest.param(lambda d: d.update(features={"enabled": True}, radius_policy={
        "iso1": 0.003, "iso2": 0.003, "iso3": 0.003, "boundary": 0.003}),
        r"^radius_policy has no 'default' and no radius for element "
        r"family\(ies\) \['feature'\]", id="radius-policy-no-feature"),
    pytest.param(lambda d: d["mesh"].update(divisions="a"),
                 "^mesh.divisions must be 3 integers >= 1", id="divisions"),
    pytest.param(lambda d: d["mesh"].update(jitter="a"),
                 "^mesh.jitter must be a finite number", id="jitter"),
    pytest.param(lambda d: d["mesh"].update(jitter=None),
                 "^mesh.jitter must be a finite number", id="jitter-null"),
    # Each fixture takes only its own keys, and box needs its divisions.
    pytest.param(lambda d: d.update(mesh={"fixture": "bar", "n": 3}),
                 r"^unknown mesh keys: \['n'\]", id="bar-n"),
    pytest.param(lambda d: d.update(mesh={"fixture": "cube",
                                          "divisions": [2, 2, 2]}),
                 r"^unknown mesh keys: \['divisions'\]",
                 id="cube-divisions"),
    pytest.param(lambda d: d.update(mesh={"fixture": "box"}),
                 r"^mesh fixture 'box' needs \['divisions'\]",
                 id="box-without-divisions"),
    pytest.param(lambda d: d.update(mesh={"fixture": 5}),
                 "^mesh.fixture must be a string", id="fixture-number"),
    # A mesh file's format is checked at load, before any stage reads it.
    pytest.param(lambda d: d.update(mesh={"path": "c.mesh",
                                          "format": "bogus"}),
                 r"^mesh.format must be one of \('medit_mesh', "
                 r"'tetgen_pair'\), .* got 'bogus' for 'c.mesh'$",
                 id="mesh-format-unknown"),
    pytest.param(lambda d: d.update(mesh={"path": "c.msh"}),
                 r"^mesh.format must be one of .* got None for 'c.msh'$",
                 id="mesh-format-not-inferred"),
    # A negative density would turn gravity upward in fea only.
    pytest.param(lambda d: d["material"].update(density=-1100.0),
                 "^material.density must be a number >= 0$",
                 id="density-negative"),
    # The other material bounds name their key too.
    pytest.param(lambda d: d["material"].update(young_modulus=-1.0),
                 "^material.young_modulus must be a positive number$",
                 id="young-modulus-negative"),
    pytest.param(lambda d: d["material"].update(poisson_ratio=0.5),
                 r"^material.poisson_ratio must be a number in \(-1, 0.5\)$",
                 id="poisson-ratio-bound"),
    pytest.param(lambda d: d["material"].update(yield_strength=0.0),
                 "^material.yield_strength must be a positive number$",
                 id="yield-strength-zero"),
    pytest.param(lambda d: d.update(geometry={"sides": 3.7}),
                 "^geometry.sides must be an integer >= 3",
                 id="sides-fraction"),
    pytest.param(lambda d: d.update(features={"cos_threshold": -1.0}),
                 r"^features.cos_threshold must be a number in \(-1, 1\]",
                 id="cos-threshold"),
])
def test_config_validation_errors(mutate, match):
    doc = json.loads(json.dumps(SMALL_BAR_DOC))
    mutate(doc)
    with pytest.raises(ConfigError, match=match):
        parse_config(doc)


_BOX = {"type": "box", "min": [0.0, 0.0, 0.0], "max": [1.0, 1.0, 1.0]}


@pytest.mark.parametrize("side", ["dirichlet", "neumann"])
@pytest.mark.parametrize("selector, match", [
    ({**_BOX, "min": [0.0, 0.0]}, "min must be 3 finite numbers"),
    ({**_BOX, "min": "low"}, "min must be 3 finite numbers"),
    ({"type": "sphere", "center": [0.0, 0.0, 0.0], "radius": "big"},
     "radius must be a finite number"),
    ({"type": "indices", "values": [0.5, 1.5]}, "flat list of integers"),
    ({"type": "indices", "values": [[0, 1]]}, "flat list of integers"),
    ({**_BOX, "radius": 1.0}, "exactly the keys"),
])
def test_config_rejects_malformed_selectors(side, selector, match):
    doc = json.loads(json.dumps(SMALL_BAR_DOC))
    doc["boundary_conditions"][side][0]["selector"] = selector
    with pytest.raises(ConfigError, match=rf"^{side}\[0\]: .*{match}"):
        parse_config(doc)


def test_config_mesh_path(tmp_path):
    mesh = box_mesh((2, 1, 1), size=(0.2, 0.1, 0.1))
    write_medit(tmp_path / "bar.mesh", mesh.vertices, mesh.tets)
    doc = json.loads(json.dumps(SMALL_BAR_DOC))
    doc["mesh"] = {"path": "bar.mesh"}
    cfg = parse_config(doc, base_dir=tmp_path)
    loaded = mesh_from_config(cfg)
    assert loaded.num_vertices == mesh.num_vertices
    assert np.array_equal(loaded.vertices, mesh.vertices)

    doc["mesh"] = {"path": "absent.mesh"}
    with pytest.raises(ConfigError, match="does not exist"):
        parse_config(doc, base_dir=tmp_path)


def test_fixture_defaults_come_from_fixtures():
    def mesh(spec):
        doc = {**SMALL_BAR_DOC, "mesh": spec}
        return mesh_from_config(parse_config(doc))
    cube = mesh({"fixture": "cube"})
    box = mesh({"fixture": "box", "divisions": [2, 1, 1]})
    assert np.array_equal(cube.vertices, unit_cube_mesh().vertices)
    assert np.array_equal(box.vertices, box_mesh((2, 1, 1)).vertices)


def test_config_hash_pinned():
    # Any change to the canonical form changes every manifest's hash.
    assert config_hash(parse_config(SMALL_BAR_DOC)) == (
        "7422e2136cc8a5f0376e6bf69dbec72d7fdc7b90fd73fc1826d2fbd1a6c6cfb4")
    assert config_hash(parse_config(FULL_DOC)) == (
        "912410ba272121e373078cc1d3beeef3a3485b39940d8607c1710c8173ff6625")


def test_config_hash_changes_with_content():
    a = parse_config(SMALL_BAR_DOC)
    doc = json.loads(json.dumps(SMALL_BAR_DOC))
    doc["rho"] = 7.0
    b = parse_config(doc)
    assert config_hash(a) != config_hash(b)
    assert len(config_hash(a)) == 64


def test_config_hash_ignores_out_dir():
    # Where a run writes does not change what it writes; the saved config
    # keeps the key.
    docs = [{**SMALL_BAR_DOC, "out_dir": d} for d in ("run_a", "elsewhere/b")]
    a, b = (parse_config(doc) for doc in docs)
    assert config_hash(a) == config_hash(b)
    assert config_to_dict(a)["out_dir"] == "run_a"


def _sample_graph():
    return TrussGraph(
        positions=np.array([[0.0, 0.1, 0.2], [1.0 / 3.0, 0.5, 0.25],
                            [0.7, 0.9, 1.1]]),
        params=np.array([[1.0, 2.0, 0.5], [0.1, 1.0 + 1e-7, 2.0],
                         [3.0, 1.0, 1.0]]),
        tags=["interior_grid", "face_hit", "boundary"],
        elements=np.array([[0, 1], [1, 2]], dtype=np.int64),
        families=["iso1", "boundary"],
    )


def test_graph_artifact_roundtrip(tmp_path):
    g = _sample_graph()
    path = tmp_path / "g.json"
    artifacts.write_graph(path, g)
    h = artifacts.read_graph(path)
    assert np.array_equal(h.positions, g.positions)
    assert np.array_equal(h.params, g.params)
    assert h.tags == g.tags
    assert np.array_equal(h.elements, g.elements)
    assert h.families == g.families
    assert h.elements.dtype == np.int64

    artifacts.write_graph(tmp_path / "h.json", h)
    assert (tmp_path / "h.json").read_bytes() == path.read_bytes()


def _json_oracle(g):
    doc = {
        "type": "truss_graph",
        "version": artifacts.GRAPH_VERSION,
        "positions": [[float(x) for x in row] for row in g.positions],
        "params": [[float(x) for x in row] for row in g.params],
        "tags": list(g.tags),
        "elements": [[int(a), int(b)] for a, b in g.elements],
        "families": list(g.families),
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def _version_1_doc(g):
    """``g`` in the per-node layout of graph artifact version 1."""
    return {
        "type": "truss_graph",
        "version": 1,
        "nodes": [{"position": pos, "params": par, "tag": tag}
                  for pos, par, tag in zip(g.positions.tolist(),
                                           g.params.tolist(), g.tags)],
        "elements": [{"nodes": pair, "family": fam}
                     for pair, fam in zip(g.elements.tolist(), g.families)],
    }


def test_write_graph_matches_json_module(tmp_path):
    g = _sample_graph()
    odd = g.copy()
    odd.params[1] = [np.nan, np.inf, -np.inf]
    odd.positions[2] = [-0.0, 1e-300, 12345678.9]
    odd.tags[0] = 'a"b'
    odd.families[1] = "\u00e9"
    cases = {
        "sample": g,
        "odd": odd,
        "empty": TrussGraph(np.zeros((0, 3)), np.zeros((0, 3)), [],
                            np.zeros((0, 2), dtype=np.int64), []),
        "no_elements": TrussGraph(g.positions, g.params, g.tags,
                                  np.zeros((0, 2), dtype=np.int64), []),
        "no_params": TrussGraph(g.positions, np.zeros((3, 0)), g.tags,
                                g.elements, g.families),
    }
    for name, h in cases.items():
        path = tmp_path / f"{name}.json"
        artifacts.write_graph(path, h)
        assert path.read_bytes() == _json_oracle(h).encode(), name


def test_graph_artifact_errors(tmp_path):
    with pytest.raises(ArtifactError, match="does not exist"):
        artifacts.read_graph(tmp_path / "nope.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    with pytest.raises(ArtifactError, match="corrupt"):
        artifacts.read_graph(bad)
    other = tmp_path / "other.json"
    other.write_text(json.dumps({"type": "something_else"}))
    with pytest.raises(ArtifactError, match="not a truss graph"):
        artifacts.read_graph(other)
    # "edge_hit" is a retired tag, which an old graph file may still hold.
    for tag in ("bogus", "edge_hit"):
        g = _sample_graph()
        g.tags[1] = tag
        artifacts.write_graph(bad, g)
        with pytest.raises(ArtifactError,
                           match=rf"unknown node tag.*'{tag}'"):
            artifacts.read_graph(bad)


def _malformed_graphs() -> dict:
    """Each case: a valid graph document changed by the one fault the case
    names, and the message that fault raises."""
    def doc():
        return json.loads(_json_oracle(_sample_graph()))
    (no_nodes, not_list, ragged, null, boolean, nan, inf, text, fraction,
     huge, number_tag, short, family) = (doc() for _ in range(13))
    for key in ("positions", "params", "tags"):
        del no_nodes[key]
    not_list["positions"][1] = 5
    ragged["positions"][0] = [0.0, 1.0]
    null["positions"][0][0] = None
    boolean["positions"][0][1] = True
    nan["positions"][1][2] = float("nan")        # written as NaN
    inf["params"][0][1] = float("inf")           # written as Infinity
    text["elements"][0] = [0, "1"]
    fraction["elements"][0] = [0, 1.5]
    huge["elements"][0] = [0, 2 ** 70]
    number_tag["tags"][0] = 5
    short["tags"].pop()
    family["families"][1] = "bogus"
    malformed = "malformed graph artifact"
    return {"no-nodes": (no_nodes, malformed),
            "position-not-list": (not_list, malformed),
            "ragged-position": (ragged, malformed),
            "null-coordinate": (null, malformed),
            "bool-coordinate": (boolean, malformed),
            "nan-coordinate": (nan, f"{malformed} .*non-finite"),
            "inf-param": (inf, f"{malformed} .*non-finite"),
            "text-index": (text, malformed),
            "fraction-index": (fraction, malformed),
            "huge-index": (huge, malformed),
            "number-tag": (number_tag, malformed),
            "short-tags": (short, malformed),
            "unknown-family": (family, r"unknown element famil.*'bogus'"),
            "list-root": ([doc()], "corrupt graph artifact"),
            "version-1": (_version_1_doc(_sample_graph()),
                          "unsupported graph version in .*: 1")}


def _malformed_fields() -> dict:
    """Each case: a field header with one fault, or a valid header whose
    body in ``_FIELD_BODIES`` has the fault, and the message it raises."""
    def header():
        return {"arrays": [{"dtype": "<f8", "name": "a", "shape": [8]}],
                "meta": {}, "type": "stress", "version": 1}
    no_arrays, dtype, negative, huge = (header() for _ in range(4))
    del no_arrays["arrays"]
    dtype["arrays"][0]["dtype"] = "zz"
    negative["arrays"][0]["shape"] = [-8]
    huge["arrays"][0]["shape"] = [10 ** 15]
    malformed = "malformed field artifact"
    return {"no-arrays": (no_arrays, malformed),
            "dtype-zz": (dtype, malformed),
            "negative-shape": (negative, malformed),
            "huge-shape": (huge, "truncated field artifact"),
            "nan-body": (header(), f"{malformed} .*non-finite"),
            "list-header": ([header()], "corrupt field artifact")}


_MALFORMED_GRAPHS = _malformed_graphs()
_MALFORMED_FIELDS = _malformed_fields()
# The field bodies other than np.ones(8), by case.
_FIELD_BODIES = {"nan-body": np.where(np.arange(8) == 5, np.nan, 1.0)}


def _write_malformed(out: Path, case: str) -> tuple[Path, str]:
    """The malformed artifact ``case`` names, written where the stage
    after its writer reads it, and the message it must raise."""
    if case in _MALFORMED_GRAPHS:
        doc, match = _MALFORMED_GRAPHS[case]
        path = out / "graph.json"
        path.write_text(json.dumps(doc))
    else:
        doc, match = _MALFORMED_FIELDS[case]
        path = out / "fea.field"
        path.write_bytes(json.dumps(doc).encode() + b"\n"
                         + _FIELD_BODIES.get(case, np.ones(8)).tobytes())
    return path, match


@pytest.mark.parametrize("case", [*_MALFORMED_GRAPHS, *_MALFORMED_FIELDS])
def test_malformed_artifact_fails_by_name(tmp_path, case):
    path, match = _write_malformed(tmp_path, case)
    read = (artifacts.read_graph if path.suffix == ".json" else
            artifacts.read_field)
    with pytest.raises(ArtifactError, match=match) as err:
        read(path)
    assert str(path) in str(err.value)


def _main_in_process(monkeypatch, out: Path, stage: str,
                     doc: dict = SMALL_BAR_DOC) -> int:
    """``cli.main`` on ``doc`` for ``stage`` in ``out``, run in this process
    without its process-wide logging setup."""
    monkeypatch.setattr(logging, "basicConfig", lambda **kw: None)
    monkeypatch.setattr(logging, "captureWarnings", lambda capture: None)
    cfg_path = out / "bar.json"
    cfg_path.write_text(json.dumps(doc))
    return cli.main(["--config", str(cfg_path), "--stage", stage,
                     "--out", str(out)])


@pytest.mark.parametrize("case", [*_MALFORMED_GRAPHS, *_MALFORMED_FIELDS])
def test_cli_malformed_artifact_exits_4(tmp_path, monkeypatch, caplog,
                                       case):
    path, match = _write_malformed(tmp_path, case)
    stage = "simplify" if path.suffix == ".json" else "frames"
    assert _main_in_process(monkeypatch, tmp_path, stage) == 4
    assert f"artifact error: {stage}: " in caplog.text
    assert str(path) in caplog.text
    assert re.search(match, caplog.text)


@pytest.mark.parametrize("name, stage, repeat", [
    ("graph_simplified.json", "verify", True),
    ("graph.json", "simplify", False),
], ids=["repeated-member", "self-link"])
def test_cli_graph_breaking_the_member_rule_exits_4(pipeline_out, tmp_path,
                                                    monkeypatch, caplog, name,
                                                    stage, repeat):
    # Extract and simplify write each (low, high, family) member once and
    # never join a node to itself: member 0 again, ends swapped, or a
    # member from its low node to itself, is a fault of the file.
    _, out, _ = pipeline_out
    shutil.copytree(out, tmp_path, dirs_exist_ok=True)
    path = tmp_path / name
    doc = json.loads(path.read_text())
    a, b = doc["elements"][0]
    doc["elements"].append([b, a] if repeat else [a, a])
    doc["families"].append(doc["families"][0])
    path.write_text(json.dumps(doc))
    assert _main_in_process(monkeypatch, tmp_path, stage) == 4
    assert (f"artifact error: {stage}: an element joins a node to itself or "
            f"repeats a (low, high, family) member in {path}") in caplog.text


def test_cli_out_of_memory_exits_3_by_stage(tmp_path, monkeypatch, caplog):
    def exhausted(cfg, out, load_mesh, record):
        raise MemoryError("Unable to allocate 3.1 GiB for an array")

    monkeypatch.setitem(pipeline._STAGE_FUNCS, "fea", exhausted)
    assert _main_in_process(monkeypatch, tmp_path, "fea") == 3
    assert ("numerical failure: fea: out of memory: Unable to allocate "
            "3.1 GiB for an array") in caplog.text


def _exhausted(message: str):
    def solver(*args, **kwargs):
        raise MemoryError(message)
    return solver


def test_cli_cholesky_out_of_memory_names_the_system(tmp_path, monkeypatch,
                                                     caplog):
    monkeypatch.setattr(fem.sla, "solveh_banded",
                        _exhausted("Unable to allocate 3.1 GiB for an array"))
    assert _main_in_process(monkeypatch, tmp_path, "fea") == 3
    assert re.search(r"numerical failure: fea: out of memory: stiffness "
                     r"system \(\d+ dofs, nnz \d+, band \d+ bytes\): Unable "
                     r"to allocate 3\.1 GiB for an array", caplog.text)


def test_cli_sparse_lu_out_of_memory_names_the_system(
        pipeline_out, tmp_path, monkeypatch, caplog):
    _, out, _ = pipeline_out
    shutil.copytree(out, tmp_path, dirs_exist_ok=True)
    monkeypatch.setattr(fem.spla, "splu",
                        _exhausted("Can't expand MemType 0"))
    assert _main_in_process(monkeypatch, tmp_path, "verify") == 3
    assert re.search(r"numerical failure: verify: out of memory: frame "
                     r"stiffness system \(\d+ dofs, nnz \d+\): Can't expand "
                     "MemType 0", caplog.text)


def test_cli_field_lacking_arrays_exits_4(pipeline_out, tmp_path,
                                          monkeypatch, caplog):
    _, out, _ = pipeline_out
    shutil.copytree(out, tmp_path, dirs_exist_ok=True)
    _, fea = artifacts.read_field(out / "fea.field", kind="stress")
    path = tmp_path / "fea.field"
    artifacts.write_field(path, {"u": fea["u"], "sigma": fea["sigma"]},
                          meta={}, kind="stress")
    assert _main_in_process(monkeypatch, tmp_path, "frames") == 4
    assert f"field artifact {path} lacks ['sigma_plus']" in caplog.text


@pytest.mark.parametrize("stage, name, array, shape, need", [
    ("frames", "fea.field", "sigma_plus", (144, 3, 3), (216, 3, 3)),
    ("param", "frames.field", "frames", (144, 3, 3), (216, 3, 3)),
    ("extract", "param.field", "phi_tilde", (63, 3), (84, 3)),
], ids=["frames", "param", "extract"])
def test_cli_field_of_another_mesh_exits_4(pipeline_out, tmp_path,
                                           monkeypatch, caplog, stage, name,
                                           array, shape, need):
    # The fields of the 6 x 2 x 2 box, read for a 6 x 2 x 3 one.
    _, out, _ = pipeline_out
    shutil.copytree(out, tmp_path, dirs_exist_ok=True)
    doc = json.loads(json.dumps(SMALL_BAR_DOC))
    doc["mesh"]["divisions"] = [6, 2, 3]
    assert _main_in_process(monkeypatch, tmp_path, stage, doc) == 4
    assert (f"artifact error: {stage}: {tmp_path / name}: {array} has shape "
            f"{shape}, the mesh needs {need}") in caplog.text


@pytest.mark.parametrize("stage, name, kind, array, dtype", [
    ("frames", "fea.field", "stress", "sigma_plus", "complex128"),
    ("param", "frames.field", "frames", "frames", "float32"),
    ("extract", "param.field", "param", "phi_tilde", "float32"),
], ids=["frames", "param", "extract"])
def test_cli_field_of_another_dtype_exits_4(pipeline_out, tmp_path,
                                            monkeypatch, caplog, stage, name,
                                            kind, array, dtype):
    # The right shape in another dtype: a complex array would lose its
    # imaginary part, a float32 one its precision.
    _, out, _ = pipeline_out
    shutil.copytree(out, tmp_path, dirs_exist_ok=True)
    path = tmp_path / name
    meta, arrays = artifacts.read_field(path, kind=kind)
    arrays[array] = arrays[array].astype(dtype)
    artifacts.write_field(path, arrays, meta=meta, kind=kind)
    assert _main_in_process(monkeypatch, tmp_path, stage) == 4
    assert (f"artifact error: {stage}: {path}: {array} has dtype {dtype}, "
            "not float64") in caplog.text


def _assert_verify_rejects(pipeline_out, tmp_path, monkeypatch, caplog,
                           doc: dict, message: str):
    """``--stage verify`` on ``doc`` exits 2 with ``message`` and leaves the
    report as it was; a full run fails the same way before it writes."""
    _, out, _ = pipeline_out
    shutil.copytree(out, tmp_path, dirs_exist_ok=True)
    report = (tmp_path / "report.txt").read_bytes()
    assert _main_in_process(monkeypatch, tmp_path, "verify", doc) == 2
    assert f"configuration error: verify: {message}" in caplog.text
    assert (tmp_path / "report.txt").read_bytes() == report
    # A full run fails the same way before its first stage writes.
    fresh = tmp_path / "fresh"
    fresh.mkdir()
    assert _main_in_process(monkeypatch, fresh, "pipeline", doc) == 2
    assert not (fresh / "fea.field").exists()
    assert not (fresh / artifacts.MANIFEST_NAME).exists()


def test_cli_verify_rejects_indices_selector(pipeline_out, tmp_path,
                                             monkeypatch, caplog):
    # Indices name mesh vertices or faces, not truss nodes.
    doc = json.loads(json.dumps(SMALL_BAR_DOC))
    doc["boundary_conditions"]["neumann"][0]["selector"] = {
        "type": "indices", "values": [3, 5]}
    _assert_verify_rejects(pipeline_out, tmp_path, monkeypatch, caplog, doc,
                           "neumann[0]: indices selectors name mesh entries, "
                           "not truss nodes")


def test_cli_verify_rejects_nonzero_dirichlet_value(pipeline_out, tmp_path,
                                                    monkeypatch, caplog):
    # The frame model clamps its supports; it prescribes no displacement.
    doc = json.loads(json.dumps(SMALL_BAR_DOC))
    doc["boundary_conditions"]["dirichlet"][0]["value"] = [1e-4, 0, 0]
    _assert_verify_rejects(pipeline_out, tmp_path, monkeypatch, caplog, doc,
                           "nonzero prescribed displacements are not "
                           "supported in truss verification")


def test_cli_extract_reads_no_param_meta(pipeline_out, tmp_path,
                                         monkeypatch):
    _, out, _ = pipeline_out
    shutil.copytree(out, tmp_path, dirs_exist_ok=True)
    _, arr = artifacts.read_field(out / "param.field", kind="param")
    artifacts.write_field(tmp_path / "param.field", arr, meta={},
                          kind="param")
    assert _main_in_process(monkeypatch, tmp_path, "extract") == 0
    assert ((tmp_path / "graph.json").read_bytes()
            == (out / "graph.json").read_bytes())


def test_manifest_errors(tmp_path):
    with pytest.raises(ArtifactError, match="manifest does not exist"):
        artifacts.read_manifest(tmp_path)
    for text in ("{broken", "[1, 2]"):
        (tmp_path / artifacts.MANIFEST_NAME).write_text(text)
        with pytest.raises(ArtifactError, match="^corrupt manifest .*"
                                                "manifest.json"):
            artifacts.read_manifest(tmp_path)
        with pytest.raises(ArtifactError, match="^corrupt manifest"):
            artifacts.update_manifest(tmp_path, "h1", "fea", 1, [])


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cut=st.floats(0.0, 1.0))
def test_cut_artifacts_load_or_raise_artifact_error(tmp_path, cut):
    g = _sample_graph()
    arrays = {"a": np.arange(12.0).reshape(4, 3),
              "b": np.arange(6, dtype=np.int64)}
    artifacts.write_graph(tmp_path / "g.json", g)
    artifacts.write_field(tmp_path / "f.field", arrays, meta={"rho": 6.0},
                          kind="stress")
    for name in ("g.json", "f.field"):
        data = (tmp_path / name).read_bytes()
        path = tmp_path / f"cut_{name}"
        path.write_bytes(data[:round(cut * len(data))])
        try:
            if name == "g.json":
                h = artifacts.read_graph(path)
            else:
                meta, got = artifacts.read_field(path, kind="stress")
        except ArtifactError:
            continue
        # A cut file that loads has kept every value whole.
        if name == "g.json":
            assert np.array_equal(h.positions, g.positions)
            assert np.array_equal(h.params, g.params)
            assert np.array_equal(h.elements, g.elements)
            assert (h.tags, h.families) == (g.tags, g.families)
        else:
            assert meta == {"rho": 6.0} and got.keys() == arrays.keys()
            assert all(np.array_equal(got[k], arrays[k]) for k in arrays)


def test_field_artifact_roundtrip(tmp_path):
    arrays = {
        "a": np.arange(12, dtype=np.float64).reshape(4, 3) * np.pi,
        "b": np.array([[1, 2], [3, 4]], dtype=np.int64),
    }
    meta = {"rho": 6.0, "note": "x"}
    path = tmp_path / "f.field"
    artifacts.write_field(path, arrays, meta=meta, kind="stress")
    got_meta, got = artifacts.read_field(path, kind="stress")
    assert got_meta == meta
    assert np.array_equal(got["a"], arrays["a"])
    assert got["a"].dtype == np.float64
    assert np.array_equal(got["b"], arrays["b"])

    artifacts.write_field(tmp_path / "f2.field", arrays, meta=meta,
                          kind="stress")
    assert (tmp_path / "f2.field").read_bytes() == path.read_bytes()


def test_field_artifact_errors(tmp_path):
    path = tmp_path / "f.field"
    artifacts.write_field(path, {"a": np.ones(8)}, kind="stress")
    with pytest.raises(ArtifactError, match="expected"):
        artifacts.read_field(path, kind="frames")
    data = path.read_bytes()
    (tmp_path / "cut.field").write_bytes(data[:-8])
    with pytest.raises(ArtifactError, match="truncated"):
        artifacts.read_field(tmp_path / "cut.field")
    with pytest.raises(ArtifactError, match="does not exist"):
        artifacts.read_field(tmp_path / "missing.field")


def test_manifest_accumulates_and_resets(tmp_path):
    artifacts.update_manifest(tmp_path, "h1", "fea", 1, ["fea.field"])
    artifacts.update_manifest(tmp_path, "h1", "frames", 1, ["frames.field"])
    doc = artifacts.read_manifest(tmp_path)
    assert doc["config_hash"] == "h1"
    assert set(doc["stages"]) == {"fea", "frames"}
    # A run with a different config starts a fresh stage record.
    artifacts.update_manifest(tmp_path, "h2", "fea", 1, ["fea.field"])
    doc = artifacts.read_manifest(tmp_path)
    assert doc["config_hash"] == "h2"
    assert set(doc["stages"]) == {"fea"}


@pytest.fixture(scope="module")
def pipeline_out(tmp_path_factory):
    out = tmp_path_factory.mktemp("pipe")
    cfg = parse_config(SMALL_BAR_DOC)
    files = run_stage("pipeline", cfg, out_dir=out)
    return cfg, out, files


def test_pipeline_produces_artifacts(pipeline_out):
    _, out, files = pipeline_out
    expected = {
        "fea.field", "frames.field", "param.field", "graph.json",
        "graph_simplified.json", "truss.obj", "truss.ply",
        "graph_lines.obj", "report.txt",
    }
    names = {f.name for f in files}
    assert expected <= names
    for stage in STAGE_ORDER:
        assert (out / f"{stage}.json").exists()
    assert not list(out.glob("*.log"))
    assert (out / "manifest.json").exists()


def test_pipeline_manifest(pipeline_out):
    cfg, out, _ = pipeline_out
    doc = artifacts.read_manifest(out)
    assert doc["config_hash"] == config_hash(cfg)
    assert set(doc["stages"]) == set(STAGE_ORDER)
    for stage in STAGE_ORDER:
        entry = doc["stages"][stage]
        assert entry["version"] == 1
        assert entry["artifacts"]


def test_pipeline_graph_loadable(pipeline_out):
    _, out, _ = pipeline_out
    g = artifacts.read_graph(out / "graph_simplified.json")
    assert g.num_nodes > 0 and g.num_elements > 0
    assert g.elements.max() < g.num_nodes
    assert set(g.families) <= {"iso1", "iso2", "iso3", "boundary",
                               "feature"}
    report = (out / "report.txt").read_text()
    assert "lambda_star" in report


@pytest.mark.parametrize("name, stage, bad", [
    ("graph.json", "simplify", [0, 1000000]),
    ("graph_simplified.json", "geometry", [0, -1]),
])
def test_graph_element_index_out_of_range(pipeline_out, tmp_path, name,
                                          stage, bad):
    cfg, out, _ = pipeline_out
    shutil.copytree(out, tmp_path, dirs_exist_ok=True)
    doc = json.loads((tmp_path / name).read_text())
    doc["elements"][0] = bad
    (tmp_path / name).write_text(json.dumps(doc))
    with pytest.raises(ArtifactError, match="element node index out of"):
        run_stage(stage, cfg, out_dir=tmp_path)


def test_bench_traced_run_calls_every_hook(tmp_path, monkeypatch):
    # The benchmark's traced path, as one worker run: a hooked function
    # renamed, or no longer called, fails here.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(
        str(Path(__file__).resolve().parent.parent / "bench"))
    import tracer
    import worker
    cfg = parse_config(SMALL_BAR_DOC)
    tr = tracer.Tracer(0)
    rec = worker.one_run(cfg, mesh_from_config(cfg), tmp_path / "out", tr)
    assert rec["ok"], rec.get("error")
    assert set(rec["layers"]) == set(tracer.UNITS) - {"trace.overhead_s"}
    assert rec["layers"]["mesh.builds"] == 1
    # spsolve is hooked for solves that fea, param and verify no longer make.
    hooked = {name for _, _, name, _ in tracer.HOOKS} - {"spsolve"}
    assert hooked <= {name for name, *_ in tr.spans}


def test_stage_rerun_is_byte_identical(pipeline_out):
    cfg, out, _ = pipeline_out
    before = (out / "graph.json").read_bytes()
    run_stage("extract", cfg, out_dir=out)
    assert (out / "graph.json").read_bytes() == before


def test_verify_stage_solves_once_and_matches_capacity(pipeline_out,
                                                       monkeypatch):
    cfg, out, _ = pipeline_out
    report = (out / "report.txt").read_bytes()
    solves, seen = [], {}
    frame_fem, write_report = verify.frame_fem, pipeline.write_report

    def counted(model, **kw):
        solves.append(model)
        return frame_fem(model, **kw)

    def captured(path, model, result, lam):
        seen["model"], seen["lam"] = model, lam
        write_report(path, model, result, lam)

    monkeypatch.setattr(verify, "frame_fem", counted)
    monkeypatch.setattr(pipeline, "frame_fem", counted)
    monkeypatch.setattr(pipeline, "write_report", captured)
    run_stage("verify", cfg, out_dir=out)
    assert len(solves) == 1
    assert seen["lam"] == verify.capacity(seen["model"])
    assert (out / "report.txt").read_bytes() == report


def test_fea_stage_assembles_once(pipeline_out, monkeypatch):
    cfg, out, _ = pipeline_out
    before = (out / "fea.json").read_bytes()
    calls = []
    assemble = fem.assemble_stiffness

    def counted(mesh, material):
        calls.append(mesh)
        return assemble(mesh, material)

    monkeypatch.setattr(fem, "assemble_stiffness", counted)
    # Also any binding the stage module holds of its own.
    monkeypatch.setattr(pipeline, "assemble_stiffness", counted,
                        raising=False)
    run_stage("fea", cfg, out_dir=out)
    assert len(calls) == 1
    assert (out / "fea.json").read_bytes() == before
    # The recorded energies are those of a fresh assembly.
    _, fea = artifacts.read_field(out / "fea.field", kind="stress")
    mesh = mesh_from_config(cfg)
    u = fea["u"].ravel()
    K = assemble(mesh, cfg.material)
    f = fem.assemble_loads(mesh, cfg.material, cfg.boundary_conditions)
    record = _record(out, "fea")
    assert record["strain_energy"] == 0.5 * float(u @ (K @ u))
    assert record["external_work"] == 0.5 * float(f @ u)


def _record(out, stage):
    """The record ``stage`` wrote: one line of JSON with sorted keys."""
    text = (out / f"{stage}.json").read_text()
    record = json.loads(text)
    assert text == json.dumps(record, sort_keys=True) + "\n"
    return record


def test_frames_log_records_inner_solves(pipeline_out):
    cfg, out, _ = pipeline_out
    (outer,) = _record(out, "frames").values()
    assert [list(row) for row in outer] == [
        ["alpha", "converged", "energy", "evals", "grad_norm", "gtol",
         "iterations"]] * len(outer)
    assert all(row["iterations"] >= 1 and row["evals"] > row["iterations"]
               and isinstance(row["converged"], bool) for row in outer)
    # Only the solve that ends the fit runs to the configured gtol.
    gtol = cfg.frame_fit.gtol
    assert [row["gtol"] for row in outer] == [CONTINUATION_GTOL * gtol] * (
        len(outer) - 1) + [gtol]
    # The last row's energy is the data energy of the written omega.
    _, fea = artifacts.read_field(out / "fea.field", kind="stress")
    meta, fit = artifacts.read_field(out / "frames.field", kind="frames")
    assert meta == {}
    mesh = mesh_from_config(cfg)
    energy = data_energy_total(fit["omega"], fea["sigma_plus"], mesh.tets)
    assert outer[-1]["energy"] == energy
    # grad_norm is that of the last inner solve's final gradient.
    _, grad = total_energy_grad(
        fit["omega"], outer[-1]["alpha"],
        fit_constants(fea["sigma_plus"], mesh.tets, build_operators(mesh)))
    assert outer[-1]["grad_norm"] == np.linalg.norm(grad)


def test_simplify_log_records_contractions_and_pieces(pipeline_out):
    _, out, _ = pipeline_out
    simplified = _record(out, "simplify")
    g = artifacts.read_graph(out / "graph.json")
    # The stage contracts below 5% of the median length and removes hits.
    assert simplified["length_threshold"] == \
        postprocess.default_length_threshold(g)
    record = {}
    postprocess.simplify(g, simplified["length_threshold"],
                         remove_interior_hits=True, record=record)
    passes = record["contraction_passes"]
    assert passes["phase_a"] >= 1 and passes["phase_b"] >= 1
    assert simplified["contraction_passes"] == passes
    assert simplified["before"] == {"nodes": g.num_nodes,
                                    "elements": g.num_elements}
    # Pieces of the written graph, by flooding from each unseen node.
    g = artifacts.read_graph(out / "graph_simplified.json")
    assert simplified["after"] == {"nodes": g.num_nodes,
                                   "elements": g.num_elements}
    nbrs = [[] for _ in range(g.num_nodes)]
    for a, b in g.elements.tolist():
        nbrs[a].append(b)
        nbrs[b].append(a)
    seen, pieces = set(), 0
    for start in range(g.num_nodes):
        if start not in seen:
            pieces += 1
            stack = [start]
            while stack:
                v = stack.pop()
                if v not in seen:
                    seen.add(v)
                    stack += nbrs[v]
    assert simplified["member_connected_pieces"] == pieces


# The top-level keys of each stage's record, as README's record table
# lists them.
RECORD_KEYS = {
    "fea": {"vertices", "tets", "systems", "strain_energy", "external_work",
            "energy_balance_gap", "max_displacement",
            "sigma_plus_eigenvalue_range"},
    "frames": {"outer"},
    "param": {"objective", "systems", "component_spans", "rho", "beta"},
    "extract": {"nodes", "elements", "family_counts"},
    "simplify": {"length_threshold", "before", "after", "contraction_passes",
                 "member_connected_pieces"},
    "geometry": {"vertices", "triangles", "sides", "skipped_zero_length"},
    "verify": {"lambda_star", "systems", "member_volume", "max_utilization",
               "max_displacement"},
}


def test_record_keys_are_pinned_and_documented(pipeline_out):
    _, out, _ = pipeline_out
    readme = (Path(__file__).resolve().parent.parent
              / "README.md").read_text()
    assert list(RECORD_KEYS) == list(STAGE_ORDER)
    for stage, keys in RECORD_KEYS.items():
        assert set(_record(out, stage)) == keys, stage
        (row,) = [line for line in readme.splitlines()
                  if line.startswith(f"| `{stage}.json` |")]
        assert [k for k in sorted(keys) if f"`{k}`" not in row] == [], stage


def test_verify_record_holds_member_volume(pipeline_out):
    cfg, out, _ = pipeline_out
    g = artifacts.read_graph(out / "graph_simplified.json")
    p = g.positions[g.elements]
    lengths = np.sqrt(((p[:, 1] - p[:, 0]) ** 2).sum(axis=1))
    volume = np.pi * cfg.radius_policy ** 2 * lengths.sum()
    assert _record(out, "verify")["member_volume"] == pytest.approx(
        volume, rel=1e-12)


def test_logs_record_solved_systems(pipeline_out):
    cfg, out, _ = pipeline_out
    mesh = mesh_from_config(cfg)

    def systems(stage):
        rows = _record(out, stage)["systems"]
        assert all(list(row) == ["bandwidth", "dofs", "nnz"] for row in rows)
        return [[row["dofs"], row["nnz"], row["bandwidth"]] for row in rows]
    (fea,) = systems("fea")
    held = np.count_nonzero(np.abs(mesh.vertices[:, 0]) <= 1e-9)
    assert fea[0] == 3 * (mesh.num_vertices - held)
    param = systems("param")
    assert [s[0] for s in param] == [mesh.num_vertices - 1] * 3
    assert all(0 < w < n < nnz for n, nnz, w in [fea] + param)


def test_verify_record_holds_its_frame_system(pipeline_out, monkeypatch):
    cfg, out, _ = pipeline_out
    (system,) = _record(out, "verify")["systems"]
    assert list(system) == ["dofs", "nnz"]
    g = artifacts.read_graph(out / "graph_simplified.json")
    model = verify.build_truss_model(g, cfg.material, cfg.radius_policy,
                                     cfg.boundary_conditions)
    assert system["dofs"] == 6 * g.num_nodes - int(model.fixed.sum())
    solved = []

    def capture(A, b, what, *record):
        solved.append(A)
        return fem.solve_lu(A, b, what, *record)
    monkeypatch.setattr(verify, "solve_lu", capture)
    record = {}
    verify.frame_fem(model, record=record)
    (A,) = solved
    assert record["systems"] == [system] == [{"dofs": A.shape[0],
                                              "nnz": A.nnz}]


def test_frames_log_counts_unconverged_solves(tmp_path):
    doc = {**SMALL_BAR_DOC,
           "frame_fit": {"outer_iterations": 2, "max_inner_iterations": 1}}
    cfg = parse_config(doc)
    run_stage("fea", cfg, out_dir=tmp_path)
    run_stage("frames", cfg, out_dir=tmp_path)
    (outer,) = _record(tmp_path, "frames").values()
    assert not all(row["converged"] for row in outer)
    assert all(row["iterations"] == 1 for row in outer)
    # The history stays in the record: not in the artifact or the manifest.
    meta, _ = artifacts.read_field(tmp_path / "frames.field", kind="frames")
    assert meta == {}
    assert "converged" not in (tmp_path / "manifest.json").read_text()


def test_missing_prerequisite(tmp_path):
    cfg = parse_config(SMALL_BAR_DOC)
    with pytest.raises(ArtifactError, match="missing artifact: param"):
        run_stage("extract", cfg, out_dir=tmp_path / "empty1")
    with pytest.raises(ArtifactError, match="missing artifact: simplify"):
        run_stage("geometry", cfg, out_dir=tmp_path / "empty2")


def test_unknown_stage(tmp_path):
    cfg = parse_config(SMALL_BAR_DOC)
    with pytest.raises(ConfigError, match="unknown stage"):
        run_stage("polish", cfg, out_dir=tmp_path)


def test_run_stage_builds_one_mesh_and_one_operator_set(tmp_path,
                                                       monkeypatch):
    builds = {"mesh": 0, "operators": 0}
    meshes = []

    def counted(module, name, what):
        build = getattr(module, name)

        def wrapper(*args):
            builds[what] += 1
            meshes.append(build(*args))
            return meshes[-1]
        monkeypatch.setattr(module, name, wrapper)

    counted(pipeline, "mesh_from_config", "mesh")
    counted(mesh_module, "build_operators", "operators")
    cfg = parse_config(SMALL_BAR_DOC)
    # The first call builds the mesh and its Laplacian (frames reads it);
    # later calls on the same mesh section reuse both, whatever else the
    # config changes, and simplify reads no mesh.
    other_rho = parse_config({**SMALL_BAR_DOC, "rho": 8.0})
    for stage, c, want in (("pipeline", cfg, (1, 1)), ("frames", cfg, (0, 0)),
                           ("param", cfg, (0, 0)), ("extract", cfg, (0, 0)),
                           ("simplify", cfg, (0, 0)),
                           ("param", other_rho, (0, 0))):
        builds.update(mesh=0, operators=0)
        run_stage(stage, c, out_dir=tmp_path)
        assert (builds["mesh"], builds["operators"]) == want, stage
    kept = meshes[0]
    assert list(pipeline._kept.values()) == [kept]
    # The kept mesh is shared by every later call: a write into it raises.
    for arr in (kept.vertices, kept.tets, kept.volumes, kept.face_ids,
                kept.boundary.triangles, kept.grads, kept.face_pairs,
                kept.laplacian.data):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0
    # Another mesh section builds its mesh, and the kept one is replaced.
    doc = json.loads(json.dumps(SMALL_BAR_DOC))
    doc["mesh"]["divisions"] = [3, 1, 1]
    builds.update(mesh=0, operators=0)
    run_stage("fea", parse_config(doc), out_dir=tmp_path / "coarse")
    assert builds["mesh"] == 1
    assert list(pipeline._kept.values()) == [meshes[-1]]
    assert meshes[-1] is not kept
    # A mesh that fails to build fails by name on every call: it drops the
    # kept mesh and is never kept itself.
    tangled = parse_config({**SMALL_BAR_DOC, "mesh": {
        **SMALL_BAR_DOC["mesh"], "jitter": 3.0}})
    for _ in range(2):
        with pytest.raises(ConfigError,
                           match="^fea: mesh.jitter 3.0 tangles the mesh"):
            run_stage("fea", tangled, out_dir=tmp_path / "coarse")
        assert pipeline._kept == {}
    # A mesh file is read again on every call and never kept.
    box = box_mesh((3, 1, 1), size=(0.12, 0.04, 0.04))
    write_medit(tmp_path / "bar.mesh", box.vertices, box.tets)
    from_file = parse_config({**SMALL_BAR_DOC, "mesh": {"path": "bar.mesh"}},
                             base_dir=tmp_path)
    for _ in range(2):
        builds.update(mesh=0)
        run_stage("fea", from_file, out_dir=tmp_path / "file")
        assert builds["mesh"] == 1 and pipeline._kept == {}


def test_cli_import_loads_no_heavy_scipy_modules():
    """``import stresstruss.cli`` is what every run pays before its first
    stage: scipy.spatial or scipy.optimize would add 0.1-0.3 s to it."""
    code = ("import sys, stresstruss.cli; print(sorted(m for m in sys.modules"
            " if m.split('.')[:2] in (['scipy', 'spatial'],"
            " ['scipy', 'optimize'])))")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                       text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[]"


def _run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "stresstruss", *args],
        capture_output=True, text=True,
    )


def test_cli_pipeline_and_determinism(tmp_path):
    cfg_path = tmp_path / "bar.json"
    cfg_path.write_text(json.dumps(SMALL_BAR_DOC))
    r1 = _run_cli("--config", str(cfg_path), "--out", str(tmp_path / "a"),
                  "--log-level", "warning")
    assert r1.returncode == 0, r1.stderr
    r2 = _run_cli("--config", str(cfg_path), "--out", str(tmp_path / "b"),
                  "--log-level", "warning")
    assert r2.returncode == 0, r2.stderr
    # Every file of both runs: fields, records, graphs, geometry, report
    # and manifest.
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
    assert {"fea.field", "verify.json", "truss.ply", "report.txt",
            "manifest.json"} <= set(names)
    assert not [name for name in names if name.endswith(".log")]
    for name in names:
        assert ((tmp_path / "a" / name).read_bytes()
                == (tmp_path / "b" / name).read_bytes()), name


def test_cli_exit_codes(tmp_path):
    cfg_path = tmp_path / "bar.json"
    cfg_path.write_text(json.dumps(SMALL_BAR_DOC))
    # 4: prerequisite artifact absent
    r = _run_cli("--config", str(cfg_path), "--stage", "extract",
                 "--out", str(tmp_path / "empty"))
    assert r.returncode == 4
    assert "missing artifact: param" in r.stderr
    # 2: config validation failure
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"mesh": {"fixture": "bar"},
                               "material": {"young_modulus": -1.0,
                                            "poisson_ratio": 0.3}}))
    r = _run_cli("--config", str(bad))
    assert r.returncode == 2
    doc = json.loads(json.dumps(SMALL_BAR_DOC))
    doc["boundary_conditions"]["neumann"][0]["selector"]["min"] = [0.0, 0.0]
    bad.write_text(json.dumps(doc))
    r = _run_cli("--config", str(bad), "--stage", "fea",
                 "--out", str(tmp_path / "bad_out"))
    assert r.returncode == 2
    assert "neumann[0]: box selector min must be 3 finite numbers" in r.stderr
    # 3: well-formed config whose constraints leave a rigid mode
    doc = json.loads(json.dumps(SMALL_BAR_DOC))
    doc["mesh"] = {"fixture": "box", "divisions": [2, 1, 1],
                   "size": [0.1, 0.05, 0.05]}
    doc["boundary_conditions"]["dirichlet"] = [
        {"selector": {"type": "indices", "values": [0, 1]}}
    ]
    doc["boundary_conditions"]["neumann"][0]["selector"] = {
        "type": "box", "min": [0.0999999, -1.0, -1.0],
        "max": [0.1000001, 1.0, 1.0]}
    loose = tmp_path / "loose.json"
    loose.write_text(json.dumps(doc))
    r = _run_cli("--config", str(loose), "--stage", "fea",
                 "--out", str(tmp_path / "loose_out"))
    assert r.returncode == 3
    # 2: a fixture jitter that turns tets inside out
    doc = json.loads(json.dumps(SMALL_BAR_DOC))
    doc["mesh"]["jitter"] = 3.0
    bad.write_text(json.dumps(doc))
    r = _run_cli("--config", str(bad), "--stage", "fea",
                 "--out", str(tmp_path / "tangled_out"))
    assert r.returncode == 2
    assert "mesh.jitter 3.0 tangles the mesh: 31 tets" in r.stderr
    # argparse rejects unknown stages and a missing --config with code 2
    r = _run_cli("--config", str(cfg_path), "--stage", "polish")
    assert r.returncode == 2
    r = _run_cli()
    assert r.returncode == 2


def _unreadable(tmp_path, case):
    """Set up ``case``, a path that exists but cannot be read as the run
    needs; returns that path, the config file and the output directory."""
    cfg, out = tmp_path / "bar.json", tmp_path / "out"
    out.mkdir()
    bad = {"config-directory": cfg, "config-not-utf8": cfg,
           "mesh-directory": tmp_path / "part.mesh",
           "field-directory": out / "fea.field",
           "manifest-directory": out / "manifest.json",
           "written-field-directory": out / "fea.field",
           "written-obj-directory": out / "truss.obj",
           "out-is-a-file": out}[case]
    if case == "config-not-utf8":
        cfg.write_bytes(b'{"rho": "\xff"}')
    elif case == "out-is-a-file":
        out.rmdir()
        out.write_text("")
    else:
        bad.mkdir()
    if case == "written-obj-directory":
        artifacts.write_graph(out / "graph_simplified.json", _sample_graph())
    doc = SMALL_BAR_DOC
    if case == "mesh-directory":
        doc = {**SMALL_BAR_DOC, "mesh": {"path": "part.mesh"}}
    if not cfg.exists():
        cfg.write_text(json.dumps(doc))
    return bad, cfg, out


@pytest.mark.parametrize("case, stage, code", [
    ("config-directory", "fea", 2),
    ("config-not-utf8", "fea", 2),
    ("mesh-directory", "fea", 2),
    ("out-is-a-file", "fea", 2),
    ("field-directory", "frames", 4),
    ("manifest-directory", "fea", 4),
    ("written-field-directory", "fea", 4),
    ("written-obj-directory", "geometry", 4),
])
def test_cli_unreadable_path_fails_by_name(tmp_path, case, stage, code):
    # Config, mesh and output-directory failures exit 2; artifact and
    # manifest failures, read or written, exit 4. Each names the path, with
    # no traceback.
    bad, cfg, out = _unreadable(tmp_path, case)
    r = _run_cli("--config", str(cfg), "--stage", stage, "--out", str(out))
    assert r.returncode == code, r.stderr
    assert str(bad.resolve() if case == "mesh-directory" else bad) \
        in r.stderr
    assert "Traceback" not in r.stderr


def test_cli_empty_truss_exits_3(tmp_path):
    # At rho <= 1 no integer isocurve crosses the mesh: extract, simplify
    # and geometry write empty outputs, and verify names the empty truss.
    cfg_path = tmp_path / "bar.json"
    cfg_path.write_text(json.dumps({**SMALL_BAR_DOC, "rho": 0.5}))
    r = _run_cli("--config", str(cfg_path), "--out", str(tmp_path / "out"))
    assert r.returncode == 3
    assert ("numerical failure: verify: empty truss: the graph has no "
            "members") in r.stderr
    assert "Traceback" not in r.stderr
