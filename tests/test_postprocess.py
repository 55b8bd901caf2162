"""Simplification and geometry emission tests."""

from __future__ import annotations

import json
import shutil
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stresstruss import artifacts
from stresstruss.config import parse_config
from stresstruss.errors import ConfigError
from stresstruss.extract import (
    TAG_RANK,
    ExtractionWarning,
    TrussGraph,
    empty_graph,
    extract_3d,
    extract_boundary,
    merge_graphs,
    perturb_parametrization,
)
from stresstruss.fixtures import unit_cube_mesh
from stresstruss.postprocess import (
    _ICO_FACES,
    _ICO_VERTS,
    HIT_TAGS,
    ZERO_LENGTH,
    GeometryWarning,
    TriangleMesh,
    default_length_threshold,
    emit_geometry,
    resolve_radii,
    simplify,
    write_lines_obj,
    write_obj,
    write_ply,
)
from stresstruss.pipeline import run_stage


def _graph(positions, tags, elements, families, params=None):
    positions = np.asarray(positions, dtype=float)
    if params is None:
        params = np.zeros((len(positions), 3))
    return TrussGraph(
        positions=positions,
        params=np.asarray(params, dtype=float),
        tags=list(tags),
        elements=np.asarray(elements, dtype=np.int64).reshape(-1, 2),
        families=list(families),
    )


def _num_components(g):
    parent = list(range(g.num_nodes))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a, b in g.elements:
        ra, rb = find(int(a)), find(int(b))
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    return len({find(i) for i in range(g.num_nodes)})


@pytest.fixture(scope="module")
def cube_graph():
    mesh = unit_cube_mesh(5, jitter=0.3)
    pert = perturb_parametrization(4.0 * mesh.vertices, mesh.tets)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ExtractionWarning)
        return extract_3d(mesh, pert)


def test_zero_length_merge():
    g = _graph(
        [[0, 0, 0], [0, 0, 0], [1, 0, 0]],
        ["face_hit", "face_hit", "interior_grid"],
        [[0, 1], [1, 2]],
        ["iso1", "iso1"],
    )
    s = simplify(g, length_threshold=0.01)
    assert s.num_nodes == 2
    assert s.num_elements == 1
    assert _num_components(s) == _num_components(g)


def test_cube_remove_hits(cube_graph):
    g = cube_graph
    s = simplify(g, length_threshold=0.0, remove_interior_hits=True)
    assert s.num_nodes == 27
    assert all(t == "interior_grid" for t in s.tags)
    assert s.num_elements == 54
    assert _num_components(s) == _num_components(g)
    got = np.array(sorted(map(tuple, np.round(s.positions * 4).astype(int))))
    expected = np.array(sorted(
        (i, j, k) for i in (1, 2, 3) for j in (1, 2, 3) for k in (1, 2, 3)
    ))
    assert (got == expected).all()
    assert np.abs(s.positions * 4 - np.round(s.positions * 4)).max() < 4e-7
    # Every element spans adjacent grid points.
    key = np.round(s.params).astype(int)
    for a, b in s.elements:
        assert np.abs(key[a] - key[b]).sum() == 1


def test_feature_precedence():
    g = _graph(
        [[0, 0, 0], [1e-4, 0, 0], [1, 0, 0]],
        ["feature", "boundary", "boundary"],
        [[0, 1], [1, 2]],
        ["feature", "boundary"],
    )
    s = simplify(g, length_threshold=1e-3)
    assert s.num_nodes == 2
    # Survivor of the short element is the feature node, position kept.
    fidx = s.tags.index("feature")
    assert (s.positions[fidx] == [0.0, 0.0, 0.0]).all()


def test_preserve_features_blocks_contraction():
    g = _graph(
        [[0, 0, 0], [1e-4, 0, 0]],
        ["feature", "feature"],
        [[0, 1]],
        ["feature"],
    )
    s = simplify(g, length_threshold=1e-3, preserve_features=True)
    assert s.num_nodes == 2
    s2 = simplify(g, length_threshold=1e-3, preserve_features=False)
    assert s2.num_nodes == 1
    assert s2.num_elements == 0


def test_parallel_element_becomes_self_loop():
    g = _graph(
        [[0, 0, 0], [1e-4, 0, 0]],
        ["interior_grid", "face_hit"],
        [[0, 1], [0, 1]],
        ["iso1", "boundary"],
    )
    s = simplify(g, length_threshold=1e-3)
    assert s.num_nodes == 1
    assert s.num_elements == 0


def test_component_and_length_invariants():
    mesh = unit_cube_mesh(2, jitter=0.2)
    pert = perturb_parametrization(4.0 * mesh.vertices, mesh.tets)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ExtractionWarning)
        g = merge_graphs([extract_3d(mesh, pert),
                          extract_boundary(mesh, pert)])
    assert "face_hit" in g.tags
    before_comp = _num_components(g)
    before_len = g.element_lengths().sum()
    s = simplify(g, length_threshold=0.2, remove_interior_hits=True)
    assert _num_components(s) == before_comp
    assert s.element_lengths().sum() <= before_len + 1e-12


# ---------------------------------------------------------------------------
# Oracle: the per-element union-find loop that simplify computes as
# matching rounds.


def oracle_simplify(g: TrussGraph, length_threshold: float | None = None,
                    remove_interior_hits: bool = False,
                    preserve_features: bool = True) -> TrussGraph:
    """The per-element union-find loop that simplify replaced.

    Elements shorter than the threshold collapse toward the higher-ranked
    endpoint (feature > boundary > interior_grid > hits; ties keep the lower
    index). With remove_interior_hits, every remaining hit-provenance node is
    contracted into its nearest neighbor regardless of length. Elements whose
    endpoints end up identical are dropped rather than contracted. The
    connected-component count never changes.
    """
    if length_threshold is None:
        length_threshold = default_length_threshold(g)
    n = g.num_nodes
    if n == 0:
        return g.copy()

    parent = np.arange(n)

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def winner_loser(a, b):
        ra, rb = TAG_RANK[g.tags[a]], TAG_RANK[g.tags[b]]
        if ra > rb or (ra == rb and a < b):
            return a, b
        return b, a

    def current_elements():
        seen = {}
        for (a, b), fam in zip(g.elements, g.families):
            ra, rb = find(int(a)), find(int(b))
            if ra == rb:
                continue
            seen.setdefault((min(ra, rb), max(ra, rb), fam), True)
        return list(seen)

    def contract_pass(candidates):
        """candidates: list of (sort_key, a, b); returns #contractions."""
        touched = set()
        done = 0
        for _key, a, b in sorted(candidates):
            ra, rb = find(a), find(b)
            if ra == rb or ra in touched or rb in touched:
                continue
            if preserve_features and g.tags[ra] == "feature" \
                    and g.tags[rb] == "feature":
                continue
            win, lose = winner_loser(ra, rb)
            parent[lose] = win
            touched.update((ra, rb))
            done += 1
        return done

    # Phase A: contract everything shorter than the threshold.
    while True:
        cands = []
        for ra, rb, _fam in current_elements():
            d = float(np.linalg.norm(g.positions[ra] - g.positions[rb]))
            if d < length_threshold:
                cands.append(((d, ra, rb), ra, rb))
        if not cands or contract_pass(cands) == 0:
            break

    # Phase B: eliminate hit-provenance nodes entirely.
    if remove_interior_hits:
        while True:
            adjacency: dict[int, list[tuple[float, int]]] = {}
            for ra, rb, _fam in current_elements():
                d = float(np.linalg.norm(g.positions[ra] - g.positions[rb]))
                adjacency.setdefault(ra, []).append((d, rb))
                adjacency.setdefault(rb, []).append((d, ra))
            cands = []
            for node in range(n):
                if find(node) != node or g.tags[node] not in HIT_TAGS:
                    continue
                incident = adjacency.get(node)
                if not incident:
                    continue
                d, other = min(incident)
                cands.append(((d, node, other), node, other))
            if not cands or contract_pass(cands) == 0:
                break

    # Compact surviving roots, preserving input order. A component made
    # entirely of hit nodes contracts to one node that must survive, or the
    # component count would change.
    roots = [i for i in range(n) if find(i) == i]
    new_id = {r: k for k, r in enumerate(roots)}
    elements = []
    families = []
    for ra, rb, fam in current_elements():
        elements.append((new_id[ra], new_id[rb]))
        families.append(fam)
    elements = (np.array(elements, dtype=np.int64).reshape(-1, 2)
                if elements else np.zeros((0, 2), dtype=np.int64))
    if len(elements):
        elements_sorted = np.sort(elements, axis=1)
    else:
        elements_sorted = elements
    return TrussGraph(
        positions=g.positions[roots].copy(),
        params=g.params[roots].copy(),
        tags=[g.tags[r] for r in roots],
        elements=elements_sorted,
        families=families,
    )




def _graph_bytes(g):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "graph.json"
        artifacts.write_graph(path, g)
        return path.read_bytes()


def _assert_simplify_matches_oracle(g, thresholds, flags):
    for thr in thresholds:
        for hits, features in flags:
            got = simplify(g, thr, hits, features)
            want = oracle_simplify(g, thr, hits, features)
            assert _graph_bytes(got) == _graph_bytes(want), (thr, hits,
                                                             features)
            assert _num_components(got) == _num_components(g)


_FAMILIES = ("iso1", "iso2", "iso3", "boundary", "feature")


@st.composite
def _small_graphs(draw):
    """Graphs on a coarse grid (many tied lengths, coincident nodes), with
    self-loops, a pair in two families, every tag, and a second block of
    nodes tagged only as hits, so that some components hold only hits."""
    mixed = draw(st.integers(1, 9))
    hits = draw(st.integers(0, 5))
    n = mixed + hits
    tags = (draw(st.lists(st.sampled_from(tuple(TAG_RANK)), min_size=mixed,
                          max_size=mixed))
            + draw(st.lists(st.sampled_from(HIT_TAGS), min_size=hits,
                            max_size=hits)))
    coords = draw(st.lists(st.integers(0, 2), min_size=3 * n,
                           max_size=3 * n))
    pairs = []
    for lo, size in ((0, mixed), (mixed, hits)):
        if size:
            node = st.integers(lo, lo + size - 1)
            pairs += draw(st.lists(st.tuples(node, node), max_size=2 * size))
    families = draw(st.lists(st.sampled_from(_FAMILIES), min_size=len(pairs),
                             max_size=len(pairs)))
    if pairs and draw(st.booleans()):
        pairs.append(pairs[0])
        families.append(next(f for f in _FAMILIES if f != families[0]))
    params = np.zeros((n, 3))
    params[:, 0] = np.arange(n)
    return _graph(0.5 * np.reshape(coords, (n, 3)), tags,
                  np.sort(np.reshape(pairs, (-1, 2)), axis=1), families,
                  params)


_ALL_FLAGS = [(hits, features) for hits in (False, True)
              for features in (False, True)]


@settings(max_examples=200, deadline=None)
@given(g=_small_graphs(), threshold=st.sampled_from([0.3, 0.6, 0.8, 1.2]))
def test_random_graphs_simplify_matches_oracle(g, threshold):
    _assert_simplify_matches_oracle(g, [0.0, threshold, None], _ALL_FLAGS)


def test_simplify_edge_cases_match_oracle():
    cases = [
        empty_graph(),
        _graph([[0, 0, 0]], ["face_hit"], [], []),
        _graph([[0, 0, 0], [0, 0, 0]], ["face_hit", "face_hit"], [[0, 0]],
               ["iso1"]),
        # A chain whose keys rise along it: one contraction per round.
        _graph(np.cumsum([[0, 0, 0], [1, 0, 0], [1.1, 0, 0], [1.2, 0, 0],
                          [1.3, 0, 0], [1.4, 0, 0]], axis=0),
               ["face_hit"] * 6, [[i, i + 1] for i in range(5)],
               ["iso1"] * 5),
    ]
    for g in cases:
        _assert_simplify_matches_oracle(g, [0.0, 1.25, 2.0], _ALL_FLAGS)


@pytest.mark.parametrize("remove_hits", [False, True])
def test_bar_field_simplify_matches_oracle(bar_field, remove_hits):
    mesh, pert, features = bar_field
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ExtractionWarning)
        g = merge_graphs([extract_3d(mesh, pert),
                          extract_boundary(mesh, pert, features)])
    thr = default_length_threshold(g)
    got = simplify(g, thr, remove_hits)
    assert got.num_elements < g.num_elements
    assert _graph_bytes(got) == _graph_bytes(
        oracle_simplify(g, thr, remove_hits))


# ---------------------------------------------------------------------------
# Oracle: the per-element geometry emission that emit_geometry computes in
# batch.


def reference_emit_geometry(g, radius_policy, sides):
    radii = resolve_radii(g.families, radius_policy)
    verts, tris = [], []
    node_radius = np.zeros(g.num_nodes)
    base = 0
    angles = 2.0 * np.pi * np.arange(sides) / sides
    cos_a, sin_a = np.cos(angles), np.sin(angles)
    for (a, b), r in zip(g.elements, radii):
        p0, p1 = g.positions[a], g.positions[b]
        length = float(np.linalg.norm(p1 - p0))
        if length < ZERO_LENGTH:
            continue
        node_radius[a] = max(node_radius[a], r)
        node_radius[b] = max(node_radius[b], r)
        u = (p1 - p0) / length
        e = np.zeros(3)
        e[int(np.argmin(np.abs(u)))] = 1.0
        e1 = np.cross(u, e)
        e1 /= np.linalg.norm(e1)
        e2 = np.cross(u, e1)
        ring = r * (np.outer(cos_a, e1) + np.outer(sin_a, e2))
        verts += [p0 + ring, p1 + ring]
        quads = []
        for k in range(sides):
            k2 = (k + 1) % sides
            quads.append((base + k, base + k2, base + sides + k))
            quads.append((base + k2, base + sides + k2, base + sides + k))
        for k in range(1, sides - 1):
            quads.append((base, base + k + 1, base + k))
            quads.append((base + sides, base + sides + k,
                          base + sides + k + 1))
        tris.append(np.array(quads, dtype=np.int64))
        base += 2 * sides
    for nid in range(g.num_nodes):
        if node_radius[nid] > 0.0:
            verts.append(g.positions[nid] + node_radius[nid] * _ICO_VERTS)
            tris.append(_ICO_FACES + base)
            base += 12
    return TriangleMesh(np.vstack(verts), np.vstack(tris))


@pytest.mark.parametrize("seed,sides", [(0, 8), (1, 3), (2, 6)])
def test_emit_matches_per_element_oracle_bitwise(seed, sides):
    rng = np.random.default_rng(seed)
    n = 30
    positions = rng.uniform(-1.0, 1.0, (n, 3))
    positions[1] = positions[0] + [0.0, 0.3, 0.0]     # axis-aligned members
    positions[2] = positions[0] + [0.0, 0.0, -0.2]
    positions[3] = positions[2] + [0.4, 0.0, 0.0]
    positions[4] = positions[3] + 0.25                 # three-way tie
    elements = [(0, 1), (0, 2), (2, 3), (3, 4)]
    elements += [tuple(sorted(int(v) for v in rng.choice(n, 2, replace=False)))
                 for _ in range(40)]
    # A zero-length member whose second node has no other member.
    positions = np.vstack([positions, positions[5]])
    elements.insert(7, (5, n))
    n += 1
    families = [str(f) for f in rng.choice(["iso1", "iso2", "boundary"],
                                           len(elements))]
    g = _graph(positions, ["interior_grid"] * n, elements, families)
    policy = {"iso1": 0.01, "iso2": 0.03, "default": 0.02}

    with pytest.warns(GeometryWarning, match="skipped 1 zero-length"):
        got = emit_geometry(g, policy, sides=sides)
    want = reference_emit_geometry(g, policy, sides)
    assert got.vertices.dtype == want.vertices.dtype
    assert got.triangles.dtype == want.triangles.dtype
    assert got.vertices.shape == want.vertices.shape
    assert got.vertices.tobytes() == want.vertices.tobytes()
    assert got.triangles.tobytes() == want.triangles.tobytes()


def _reference_lines_file(path, points, cells, tag, coord=repr):
    lines = []
    for v in points:
        lines.append("v " + " ".join(coord(float(x)) for x in v))
    for c in cells:
        lines.append(tag + "".join(f" {i + 1}" for i in c))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def test_writers_match_per_row_oracle_bytes(tmp_path, cube_graph):
    rng = np.random.default_rng(0)
    n, ne = 200, 320        # more than one 4,096-row block of each kind
    dense = _graph(rng.uniform(-1.0, 1.0, (n, 3)), ["interior_grid"] * n,
                   [rng.choice(n, 2, replace=False) for _ in range(ne)],
                   ["iso1"] * ne)
    awkward = np.array([[-0.0, 5e-324, 1e22], [0.1 + 0.2, -1.5e-07, 1.0]])
    odd = _graph(awkward, ["interior_grid"] * 2, [[0, 1]], ["iso1"])
    cases = [(emit_geometry(g, 0.01, sides=5), g)
             for g in (cube_graph, dense)]
    cases.append((TriangleMesh(awkward, np.array([[0, 1, 1]])), odd))
    cases.append((emit_geometry(empty_graph(), 0.01, sides=5), empty_graph()))
    assert min(len(cases[1][0].vertices), len(cases[1][0].triangles)) > 4096
    got, want = tmp_path / "got.obj", tmp_path / "want.obj"
    for mesh, g in cases:
        write_obj(mesh, got)
        _reference_lines_file(want, mesh.vertices, mesh.triangles, "f",
                              coord=lambda x: f"{float(np.float32(x)):.9g}")
        assert got.read_bytes() == want.read_bytes()
        write_lines_obj(g, got)
        _reference_lines_file(want, g.positions, g.elements, "l")
        assert got.read_bytes() == want.read_bytes()
    assert got.read_bytes() == b"\n"          # the empty graph: one line


def test_emit_counts_single_element():
    g = _graph(
        [[0, 0, 0], [1, 0, 0]], ["interior_grid", "interior_grid"],
        [[0, 1]], ["iso1"],
    )
    mesh = emit_geometry(g, 0.01, sides=8)
    assert mesh.num_triangles == 28 + 2 * 20
    assert len(mesh.vertices) == 16 + 2 * 12
    for sides in (3, 5, 8, 12):
        m = emit_geometry(g, 0.01, sides=sides)
        prism = 2 * sides + 2 * (sides - 2)
        assert m.num_triangles == prism + 2 * 20


def test_emit_empty():
    mesh = emit_geometry(empty_graph(), 0.01, sides=8)
    assert mesh.num_triangles == 0
    assert len(mesh.vertices) == 0


def test_emit_shared_node_fan_once():
    g = _graph(
        [[0, 0, 0], [1, 0, 0], [1, 1, 0]],
        ["interior_grid"] * 3,
        [[0, 1], [1, 2]],
        ["iso1", "iso2"],
    )
    mesh = emit_geometry(g, 0.01, sides=8)
    assert mesh.num_triangles == 2 * 28 + 3 * 20


def test_emit_zero_length_warns():
    g = _graph(
        [[0, 0, 0], [0, 0, 0]], ["interior_grid", "interior_grid"],
        [[0, 1]], ["iso1"],
    )
    record = {}
    with pytest.warns(GeometryWarning, match="zero-length"):
        mesh = emit_geometry(g, 0.01, sides=8, record=record)
    assert mesh.num_triangles == 0
    assert record == {"skipped_zero_length": 1}
    g.positions[1, 0] = 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        emit_geometry(g, 0.01, sides=8, record=record)
    assert record == {"skipped_zero_length": 0}


def test_geometry_record_counts_skipped_zero_length(tmp_path):
    """The geometry stage, run on a simplified graph with one zero-length
    member, counts it in geometry.json."""
    cfg = parse_config({
        "mesh": {"fixture": "cube", "n": 2},
        "material": {"young_modulus": 1e9, "poisson_ratio": 0.3},
        "boundary_conditions": {"dirichlet": [{"selector": {
            "type": "box", "min": [-1.0] * 3, "max": [1.0] * 3}}]},
        "radius_policy": 0.01,
    })
    g = _graph(
        [[0, 0, 0], [0, 0, 0], [1, 0, 0]], ["interior_grid"] * 3,
        [[0, 1], [1, 2]], ["iso1"] * 2,
    )
    artifacts.write_graph(tmp_path / "graph_simplified.json", g)
    with pytest.warns(GeometryWarning, match="skipped 1 zero-length"):
        run_stage("geometry", cfg, out_dir=tmp_path)
    record = json.loads((tmp_path / "geometry.json").read_text())
    assert record["skipped_zero_length"] == 1
    assert record["triangles"] == 28 + 2 * 20


def test_emit_bbox(cube_graph):
    s = simplify(cube_graph, length_threshold=0.0, remove_interior_hits=True)
    r = 0.02
    mesh = emit_geometry(s, r, sides=6)
    assert (mesh.vertices.min(axis=0) >= s.positions.min(axis=0) - r - 1e-12).all()
    assert (mesh.vertices.max(axis=0) <= s.positions.max(axis=0) + r + 1e-12).all()


def test_radius_policy():
    fams = ["iso1", "iso2", "boundary"]
    radii = resolve_radii(fams, {"iso1": 0.01, "default": 0.02})
    assert np.allclose(radii, [0.01, 0.02, 0.02])
    with pytest.raises(ConfigError, match="family"):
        resolve_radii(fams, {"iso1": 0.01})
    with pytest.raises(ConfigError, match="positive"):
        resolve_radii(fams, -1.0)
    g = _graph(
        [[0, 0, 0], [1, 0, 0]], ["interior_grid", "interior_grid"],
        [[0, 1]], ["iso1"],
    )
    with pytest.raises(ConfigError, match="sides"):
        emit_geometry(g, 0.01, sides=2)


def test_writers(tmp_path):
    g = _graph(
        [[0, 0, 0], [1, 0, 0], [1, 1, 0]],
        ["interior_grid"] * 3,
        [[0, 1], [1, 2]],
        ["iso1", "iso2"],
    )
    mesh = emit_geometry(g, 0.01, sides=8)

    obj = tmp_path / "out.obj"
    write_obj(mesh, obj)
    text = obj.read_text().strip().splitlines()
    assert sum(1 for ln in text if ln.startswith("v ")) == len(mesh.vertices)
    assert sum(1 for ln in text if ln.startswith("f ")) == mesh.num_triangles
    first = float(text[0].split()[1])
    assert first == float(np.float32(mesh.vertices[0, 0]))

    ply = tmp_path / "out.ply"
    write_ply(mesh, ply)
    blob = ply.read_bytes()
    header_end = blob.index(b"end_header\n") + len(b"end_header\n")
    body = blob[header_end:]
    assert len(body) == 12 * len(mesh.vertices) + 13 * mesh.num_triangles
    assert b"binary_little_endian" in blob[:header_end]

    lines = tmp_path / "graph.obj"
    write_lines_obj(g, lines)
    text = lines.read_text().strip().splitlines()
    assert sum(1 for ln in text if ln.startswith("l ")) == g.num_elements

    # Deterministic bytes on rewrite.
    obj2 = tmp_path / "out2.obj"
    write_obj(mesh, obj2)
    assert obj2.read_bytes() == obj.read_bytes()
    ply2 = tmp_path / "out2.ply"
    write_ply(mesh, ply2)
    assert ply2.read_bytes() == ply.read_bytes()


def test_obj_vertices_are_the_ply_float32_vertices(bar_frames, tmp_path):
    """On the bending bar's pipeline, truss.obj's vertex rows parsed as
    float32 are exactly truss.ply's vertex block."""
    cfg, frames_out = bar_frames
    for name in ("fea.field", "frames.field"):
        shutil.copy(frames_out / name, tmp_path / name)
    for stage in ("param", "extract", "simplify", "geometry"):
        run_stage(stage, cfg, out_dir=tmp_path)
    blob = (tmp_path / "truss.ply").read_bytes()
    header_end = blob.index(b"end_header\n") + len(b"end_header\n")
    (count,) = [int(ln.split()[2]) for ln in blob[:header_end].decode()
                .splitlines() if ln.startswith("element vertex")]
    ply = np.frombuffer(blob[header_end:header_end + 12 * count], dtype="<f4")
    rows = [ln.split()[1:] for ln in
            (tmp_path / "truss.obj").read_text().splitlines()
            if ln.startswith("v ")]
    obj = np.array(rows, dtype=np.float32).ravel()
    assert count > 0 and obj.shape == ply.shape
    assert obj.tobytes() == ply.tobytes()
