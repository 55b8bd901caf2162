"""Extraction tests: perturbation rules, surface/3D integer-grid oracles on
affine parametrizations, boundary and feature handling, merging,
determinism."""

from __future__ import annotations

import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from stresstruss import artifacts
from stresstruss.errors import NumericalError
from stresstruss.extract import (
    _PAIRS_3D,
    MERGE_TOL,
    PARAM_TOL,
    TAG_RANK,
    ExtractionWarning,
    TrussGraph,
    _canonical_order,
    _coincidence_merge,
    _Complex2D,
    _finalize,
    _merge_candidates,
    _upgrade_grid_tags,
    check_perturbed,
    contract,
    empty_graph,
    extract_3d,
    extract_boundary,
    merge_graphs,
    perturb_parametrization,
)
from stresstruss.fixtures import unit_cube_mesh
from stresstruss.mesh import TetMesh, feature_edges, unique_edges

INTERIOR_FAMILIES = ("iso1", "iso2", "iso3")


def _integral_mask(g, tol=1e-9, cols=3):
    # Genuine grid nodes carry exactly-forced integer parameters; perturbed
    # boundary values sit 1e-7 off and must not classify as integral.
    par = g.params[:, :cols]
    return (np.abs(par - np.round(par)) <= tol).all(axis=1)


def _grid_pairs(g, families=INTERIOR_FAMILIES, cols=3):
    """Pairs of nodes integral in the first ``cols`` columns, connected by
    chains of ``families`` elements through other nodes. Returns pairs of
    integer parameter keys."""
    integral = _integral_mask(g, cols=cols)
    adj: dict[int, list[int]] = {}
    for (i, j), fam in zip(g.elements, g.families):
        if fam in families:
            adj.setdefault(int(i), []).append(int(j))
            adj.setdefault(int(j), []).append(int(i))
    keys = [tuple(int(round(v)) for v in row[:cols]) for row in g.params]
    pairs = set()
    for start in np.nonzero(integral)[0]:
        for first in adj.get(int(start), ()):
            prev, cur = int(start), first
            ok = True
            for _ in range(100000):
                if integral[cur]:
                    break
                nxt = [n for n in adj.get(cur, ()) if n != prev]
                if len(nxt) != 1:
                    ok = False
                    break
                prev, cur = cur, nxt[0]
            else:
                ok = False
            if ok and integral[cur] and cur != int(start):
                pairs.add(tuple(sorted((keys[int(start)], keys[cur]))))
    return pairs


def _single_tet():
    verts = np.array([
        [0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0],
    ])
    return TetMesh(verts, np.array([[0, 1, 2, 3]]))


# ---------------------------------------------------------------------------
# Perturbation


def test_perturb_examples():
    mesh = _single_tet()
    phi = np.array([
        [3.0, 2.0, 0.3],
        [2.9, 2.3, 0.4],
        [3.2, 2.4, 0.6],
        [3.7, 2.5, 0.7],
    ])
    pert = perturb_parametrization(phi, mesh.tets)
    # 3.0 with a smaller neighbor: not a 1-ring min, moves down.
    assert pert[0, 0] == 3.0 - 1e-7
    # 2.0 below all neighbors: 1-ring minimum, moves up.
    assert pert[0, 1] == 2.0 + 1e-7
    # 2.5 and everything not near-integer: bit-unchanged.
    assert pert[3, 1] == 2.5
    untouched = np.ones_like(phi, dtype=bool)
    untouched[0, 0] = untouched[0, 1] = False
    assert (pert[untouched] == phi[untouched]).all()


def test_perturb_guard():
    mesh = unit_cube_mesh(3)
    phi = 2.0 * mesh.vertices
    pert = perturb_parametrization(phi, mesh.tets)
    frac = np.abs(pert - np.round(pert))
    assert frac.min() >= 1e-9
    # Plane x=0 holds the component minimum: moved up, not down.
    on_min_plane = mesh.vertices[:, 0] == 0.0
    assert (pert[on_min_plane, 0] == 1e-7).all()
    assert (pert[mesh.vertices[:, 0] == 1.0, 0] == 2.0 - 1e-7).all()


def oracle_perturb_parametrization(phi_tilde, cells, epsilon=1e-7):
    """The per-value loop that perturb_parametrization replaced, with each
    vertex's 1-ring built as a set of the vertices sharing a cell with it."""
    rings = [set() for _ in range(len(phi_tilde))]
    for cell in cells:
        for u in cell:
            rings[u].update(int(v) for v in cell if v != u)
    neighbors = [np.array(sorted(r), dtype=np.int64) for r in rings]
    phi = phi_tilde.copy()
    near = np.abs(phi - np.round(phi)) < PARAM_TOL
    for c in range(phi.shape[1]):
        idx = np.nonzero(near[:, c])[0]
        for v in idx:
            col = phi_tilde[:, c]
            is_min = (col[v] <= col[neighbors[v]]).all()
            phi[v, c] = col[v] + epsilon if is_min else col[v] - epsilon
    frac = np.abs(phi - np.round(phi))
    if (frac < PARAM_TOL).any():
        raise NumericalError("perturbation failed to clear all near-integer values")
    return phi


def _assert_perturb_matches_oracle(x, cells):
    got = perturb_parametrization(x, cells)
    want = oracle_perturb_parametrization(x, cells)
    assert got.tobytes() == want.tobytes()
    assert (got != x).any()


def test_perturb_bar_field_matches_oracle(bar_field):
    # A third of the values snapped onto (or within 4e-10 of) an integer,
    # so that 1-ring minima, ties with neighbours and flat patches occur.
    mesh, phi_tilde, _ = bar_field
    rng = np.random.default_rng(3)
    x = phi_tilde.copy()
    snap = rng.random(x.shape) < 0.3
    x[snap] = np.round(x[snap]) + rng.choice([0.0, 4e-10, -4e-10], snap.sum())
    _assert_perturb_matches_oracle(x, mesh.tets)


def test_perturb_unused_vertex_matches_oracle():
    # Vertex 4 is in no tet: its empty 1-ring counts as a minimum.
    verts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [5, 5, 5]],
                     dtype=float)
    mesh = TetMesh(verts, np.array([[0, 1, 2, 3]]))
    x = np.array([[1.0, 2.0, 0.5], [1.0, 1.0, 3.0], [2.0, 0.5, 3.0],
                  [0.2, 1.0, 3.0], [1.0, 1.0, 1.0]])
    _assert_perturb_matches_oracle(x, mesh.tets)


def test_perturb_vertex_in_no_cell_moves_up():
    # Vertex 2 is in no cell, so each of its near-integer values is a
    # 1-ring minimum and moves by +epsilon, even above its neighbours'
    # values; its other value is bit-unchanged.
    x = np.array([[0.0, 3.0], [4.0, 1.0], [5.0 + 4e-10, 0.5], [2.0, 7.0]])
    got = perturb_parametrization(x, np.array([[0, 1], [1, 3], [3, 0]]))
    assert got[2, 0] == x[2, 0] + 1e-7
    assert got[2, 1] == 0.5
    assert (got[[0, 1, 3]] != x[[0, 1, 3]]).all()


# ---------------------------------------------------------------------------
# Surface engine on flat complexes


def _flat_params(params):
    """A flat complex's two traced columns, plus the constant non-integer
    third column that no isocurve crosses."""
    return np.column_stack([params, np.full(len(params), 0.5)])


def _surface_graph(vertices, faces, params, pair=(0, 1)):
    """The surface engine's graph of a flat complex: the face passes of the
    column pair, each way, as extract_boundary runs them."""
    ci, cj = pair
    faces = np.asarray(faces, dtype=np.int64)
    edges, _, face_edges = unique_edges(faces)
    cx = _Complex2D(np.asarray(vertices, dtype=float), faces, edges,
                    face_edges, _flat_params(params))
    cx.face_pass(ci, cj)
    cx.face_pass(cj, ci)
    return _finalize(cx.graph())


def _triangle_case():
    verts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    faces = np.array([[0, 1, 2]])
    params = 3.0 * verts[:, :2]
    pert = perturb_parametrization(params, faces)
    return verts, faces, pert


def _column_curves(g, c):
    """Elements along an integer level of column c: c is the same integer
    at both ends."""
    a, b = g.params[g.elements, c].T
    return int(((np.abs(a - np.round(a)) <= 1e-9)
                & (np.abs(a - b) <= 1e-9)).sum())


def test_triangle_oracle():
    verts, faces, pert = _triangle_case()
    g = _surface_graph(verts, faces, pert)
    # Crossings: 2 on each leg, and 2 on the hypotenuse, where each level of
    # one column meets a level of the other (phi_1 + phi_2 = 3 there).
    assert g.num_nodes == 7
    assert g.num_elements == 6
    assert set(g.tags) == {"boundary"} and set(g.families) == {"boundary"}
    assert (_column_curves(g, 0), _column_curves(g, 1)) == (3, 3)

    # Crossings of the first parameter on the bottom edge at x = {1/3, 2/3}.
    on_bottom = np.abs(g.positions[:, 1]) < 1e-12
    frac0 = np.abs(g.params[:, 0] - np.round(g.params[:, 0])) <= 1e-6
    xs = np.sort(g.positions[on_bottom & frac0, 0])
    assert np.allclose(xs, [1 / 3, 2 / 3], atol=1e-7)
    on_left = np.abs(g.positions[:, 0]) < 1e-12
    frac1 = np.abs(g.params[:, 1] - np.round(g.params[:, 1])) <= 1e-6
    ys = np.sort(g.positions[on_left & frac1, 1])
    assert np.allclose(ys, [1 / 3, 2 / 3], atol=1e-7)

    # Exactly one node off the triangle's edges: the grid node (1/3, 1/3).
    x, y = g.positions[:, 0], g.positions[:, 1]
    interior = np.nonzero((x > 1e-6) & (y > 1e-6) & (x + y < 1.0 - 1e-6))[0]
    assert len(interior) == 1
    assert _integral_mask(g, cols=2)[interior[0]]
    assert np.allclose(g.positions[interior[0]], [1 / 3, 1 / 3, 0.0], atol=1e-7)


def _square_case(rho=4.0):
    verts = np.array([
        [0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [0.0, 1.0, 0.0],
    ])
    faces = np.array([[0, 1, 2], [0, 2, 3]])
    params = rho * verts[:, :2]
    pert = perturb_parametrization(params, faces)
    return verts, faces, pert


def test_square_grid_oracle():
    verts, faces, pert = _square_case()
    g = _surface_graph(verts, faces, pert)
    integral = _integral_mask(g, cols=2)
    got = g.positions[integral]
    expected = np.array([
        [i / 4, j / 4, 0.0] for i in (1, 2, 3) for j in (1, 2, 3)
    ])
    assert len(got) == 9
    key = np.round(g.params[integral, :2]).astype(int)
    order = np.lexsort((key[:, 1], key[:, 0]))
    assert np.allclose(got[order], expected, atol=1e-7)
    for i in np.nonzero(integral)[0]:
        assert g.tags[i] == "boundary"

    pairs = _grid_pairs(g, families=("boundary",), cols=2)
    expected_pairs = set()
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            for di, dj in ((1, 0), (0, 1)):
                if i + di <= 3 and j + dj <= 3:
                    expected_pairs.add(tuple(sorted(((i, j), (i + di, j + dj)))))
    assert pairs == expected_pairs
    assert len(pairs) == 12


def test_no_integer_range():
    verts, faces, _ = _square_case()
    params = np.column_stack([
        0.2 + 0.5 * verts[:, 0], 0.2 + 0.5 * verts[:, 1],
    ])
    g = _surface_graph(verts, faces, params)
    assert (g.num_nodes, g.num_elements) == (0, 0)
    assert g.params.shape == (0, 3)


def _closed_loop_case():
    angles = np.linspace(0.0, 2 * np.pi, 9)[:-1]
    verts = np.vstack([[0.0, 0.0, 0.0],
                       np.column_stack([np.cos(angles), np.sin(angles),
                                        np.zeros(8)])])
    faces = np.array([[0, 1 + i, 1 + (i + 1) % 8] for i in range(8)])
    params = np.column_stack([
        np.concatenate([[0.3], np.full(8, 1.6)]),
        0.1 + 0.05 * verts[:, 0],
    ])
    return verts, faces, params


def test_closed_loop_traced():
    # Level 1 of the first column circles the fan's centre: one closed
    # loop of 8 elements through its 8 spoke crossings.
    verts, faces, params = _closed_loop_case()
    g = _surface_graph(verts, faces, params)
    assert (g.num_nodes, g.num_elements) == (8, 8)
    assert (np.bincount(g.elements.ravel()) == 2).all()
    assert _column_curves(g, 0) == 8


def test_vertex_hit_error():
    mesh = unit_cube_mesh(2)
    bad = perturb_parametrization(4.0 * mesh.vertices, mesh.tets)
    bad[0, 0] = 2.0
    with pytest.raises(NumericalError, match="integer"):
        extract_boundary(mesh, bad)


# ---------------------------------------------------------------------------
# 3D extraction

CUBE_RHO = 4.0


@pytest.fixture(scope="module")
def cube_case():
    mesh = unit_cube_mesh(5, jitter=0.3)
    phi = CUBE_RHO * mesh.vertices
    pert = perturb_parametrization(phi, mesh.tets)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ExtractionWarning)
        g3 = extract_3d(mesh, pert)
        gb = extract_boundary(mesh, pert, features=None)
    return mesh, pert, g3, gb


def test_cube_interior_oracle(cube_case):
    _mesh, _pert, g3, _gb = cube_case
    integral = _integral_mask(g3)
    got = g3.positions[integral]
    assert len(got) == 27
    expected = np.array([
        [i / 4, j / 4, k / 4]
        for i in (1, 2, 3) for j in (1, 2, 3) for k in (1, 2, 3)
    ])
    key = np.round(g3.params[integral]).astype(int)
    order = np.lexsort((key[:, 2], key[:, 1], key[:, 0]))
    assert np.allclose(got[order], expected, atol=1e-7)
    for i in np.nonzero(integral)[0]:
        assert g3.tags[i] == "interior_grid"

    pairs = _grid_pairs(g3)
    expected_pairs = set()
    rng3 = (1, 2, 3)
    for i in rng3:
        for j in rng3:
            for k in rng3:
                for d in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
                    o = (i + d[0], j + d[1], k + d[2])
                    if max(o) <= 3:
                        expected_pairs.add(tuple(sorted(((i, j, k), o))))
    assert pairs == expected_pairs
    assert len(pairs) == 54


def test_element_consistency(cube_case):
    _mesh, _pert, g3, _gb = cube_case
    assert (g3.elements[:, 0] < g3.elements[:, 1]).all()
    seen = set()
    for (a, b), fam in zip(g3.elements, g3.families):
        key = (int(a), int(b), fam)
        assert key not in seen
        seen.add(key)
    for (a, b), fam in zip(g3.elements, g3.families):
        if fam not in INTERIOR_FAMILIES:
            continue
        k = int(fam[-1]) - 1
        pa, pb = g3.params[a], g3.params[b]
        for c in range(3):
            if c == k:
                assert 1e-9 < abs(pa[c] - pb[c]) <= 1.0 + 1e-6
            else:
                assert abs(pa[c] - pb[c]) <= 1e-6
                assert abs(pa[c] - round(pa[c])) <= 1e-6


def test_positions_inside(cube_case):
    _mesh, _pert, g3, gb = cube_case
    for g in (g3, gb):
        assert g.positions.min() >= -1e-9
        assert g.positions.max() <= 1.0 + 1e-9


def test_determinism(cube_case):
    mesh, pert, g3, _gb = cube_case
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ExtractionWarning)
        again = extract_3d(mesh, pert)
    assert np.array_equal(g3.positions, again.positions)
    assert np.array_equal(g3.params, again.params)
    assert np.array_equal(g3.elements, again.elements)
    assert g3.tags == again.tags
    assert g3.families == again.families


def test_affine_inverse_oracle():
    mesh = unit_cube_mesh(4, jitter=0.25)
    A = np.array([
        [3.1, 0.7, -0.4],
        [-0.5, 2.7, 0.6],
        [0.3, -0.6, 2.9],
    ])
    b = np.array([0.37017, 0.45071, 0.29031])
    phi = mesh.vertices @ A.T + b
    frac = np.abs(phi - np.round(phi))
    assert frac.min() > 1e-6          # perturbation is a no-op here
    pert = perturb_parametrization(phi, mesh.tets)
    assert (pert == phi).all()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ExtractionWarning)
        g = extract_3d(mesh, pert)

    lo = np.floor(phi.min(axis=0)).astype(int)
    hi = np.ceil(phi.max(axis=0)).astype(int)
    oracle = []
    for n0 in range(lo[0], hi[0] + 1):
        for n1 in range(lo[1], hi[1] + 1):
            for n2 in range(lo[2], hi[2] + 1):
                x = np.linalg.solve(A, np.array([n0, n1, n2], float) - b)
                if (x > 0.0).all() and (x < 1.0).all():
                    oracle.append(x)
    oracle = np.array(sorted(map(tuple, oracle)))
    got = g.positions[_integral_mask(g)]
    got = np.array(sorted(map(tuple, got)))
    assert len(got) == len(oracle)
    assert np.allclose(got, oracle, atol=1e-7)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_parameters_rejected(bad):
    mesh = _single_tet()
    params = np.full((4, 3), 0.5)
    params[2, 1] = bad
    for extract in (extract_3d, extract_boundary):
        with pytest.raises(NumericalError, match="non-finite"):
            extract(mesh, params)


def test_edge_aligned_curves_dropped_with_warning():
    # phi = 2x + 0.5 runs every double-integer curve of the unjittered cube
    # through face edges: extract_3d finds no face hit and says how many
    # candidates it dropped, while the boundary pass still finds the curves.
    mesh = unit_cube_mesh(2)
    phi = 2.0 * mesh.vertices + 0.5
    with pytest.warns(ExtractionWarning, match=r"^144 curve candidate\(s\) "
                      r"dropped: their only face hits lie on face edges$"):
        g = extract_3d(mesh, phi)
    assert (g.num_nodes, g.num_elements) == (0, 0)
    surface = extract_boundary(mesh, phi)
    assert (surface.num_nodes, surface.num_elements) == (72, 96)


def test_single_tet_spanning_less_than_one():
    mesh = _single_tet()
    phi = np.column_stack([
        0.2 + 0.5 * mesh.vertices[:, 0],
        0.3 + 0.4 * mesh.vertices[:, 1],
        0.1 + 0.6 * mesh.vertices[:, 2],
    ])
    pert = perturb_parametrization(phi, mesh.tets)
    g = extract_3d(mesh, pert)
    assert g.num_nodes == 0
    assert g.num_elements == 0


# ---------------------------------------------------------------------------
# Boundary extraction


def test_boundary_face_grid(cube_case):
    mesh, _pert, _g3, gb = cube_case
    assert all(t in ("boundary", "feature") for t in gb.tags)
    # Double-integer nodes: the per-face grid points, 9 per cube face.
    two_int = ((np.abs(gb.params - np.round(gb.params)) <= 1e-9).sum(axis=1)
               == 2)
    assert two_int.sum() == 54
    pos = gb.positions[two_int]
    for axis in range(3):
        for side in (0.0, 1.0):
            on_face = np.abs(pos[:, axis] - side) < 1e-9
            face_pts = pos[on_face]
            assert len(face_pts) == 9
            others = [c for c in range(3) if c != axis]
            grid = sorted(
                (round(p[others[0]] * 4), round(p[others[1]] * 4))
                for p in face_pts
            )
            assert grid == [(i, j) for i in (1, 2, 3) for j in (1, 2, 3)]
    # Cube-edge crossings shared consistently: 3 per cube edge, no dups.
    for axis in range(3):
        o1, o2 = [c for c in range(3) if c != axis]
        for s1 in (0.0, 1.0):
            for s2 in (0.0, 1.0):
                on_edge = ((np.abs(gb.positions[:, o1] - s1) < 1e-9)
                           & (np.abs(gb.positions[:, o2] - s2) < 1e-9))
                vals = np.sort(gb.positions[on_edge, axis])
                assert np.allclose(vals, [0.25, 0.5, 0.75], atol=1e-7)


def test_boundary_features(cube_case):
    mesh, pert, _g3, gb = cube_case
    assert "feature" not in gb.families
    feats = feature_edges(mesh.boundary, 0.9)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ExtractionWarning)
        gf = extract_boundary(mesh, pert, features=feats)
    fmask = [i for i, f in enumerate(gf.families) if f == "feature"]
    assert fmask
    d = (gf.positions[gf.elements[fmask, 0]]
         - gf.positions[gf.elements[fmask, 1]])
    total = np.linalg.norm(d, axis=1).sum()
    assert abs(total - 12.0) < 1e-9
    for idx in fmask:
        for nid in gf.elements[idx]:
            at_ext = np.minimum(np.abs(gf.positions[nid]),
                                np.abs(gf.positions[nid] - 1.0)) < 1e-12
            assert at_ext.sum() >= 2


# ---------------------------------------------------------------------------
# Merge


def test_merge_idempotent(cube_case):
    _mesh, _pert, g3, _gb = cube_case
    m = merge_graphs([g3, g3])
    assert np.array_equal(m.positions, g3.positions)
    assert np.array_equal(m.params, g3.params)
    assert np.array_equal(m.elements, g3.elements)
    assert m.tags == g3.tags
    assert m.families == g3.families


def test_merge_empty():
    g = empty_graph()
    verts, faces, pert = _square_case()
    g2 = _surface_graph(verts, faces, pert)
    m = merge_graphs([g, g2])
    assert np.array_equal(m.positions, g2.positions)
    assert m.families == g2.families
    assert merge_graphs([]).num_nodes == 0


def test_merge_interior_boundary(cube_case):
    _mesh, _pert, g3, gb = cube_case
    m = merge_graphs([g3, gb])
    assert m.num_elements == g3.num_elements + gb.num_elements
    # Count coincident pairs independently; merged node count must match.
    tree = cKDTree(g3.positions)
    d, _ = tree.query(gb.positions, k=1)
    shared = int((d <= 1e-9).sum())
    assert shared > 0
    assert m.num_nodes == g3.num_nodes + gb.num_nodes - shared
    # Feature/boundary provenance survives over interior provenance.
    assert all(t in ("boundary", "feature", "interior_grid", "face_hit")
               for t in m.tags)


def test_contract_relabels_by_the_member_rule():
    # Nodes 1 and 3 merge into new node 1 under rep 3, not the lowest index.
    positions = np.arange(15, dtype=float).reshape(5, 3)
    g = TrussGraph(positions, positions + 100.0,
                   ["face_hit", "interior_grid", "boundary", "feature",
                    "boundary"],
                   np.array([[1, 3], [0, 1], [3, 0], [0, 3], [2, 4], [4, 2]]),
                   ["iso1", "iso1", "iso1", "boundary", "iso2", "iso2"])
    got = contract(g, np.array([0, 1, 2, 1, 3]), np.array([0, 3, 2, 4]))
    np.testing.assert_array_equal(got.positions, positions[[0, 3, 2, 4]])
    np.testing.assert_array_equal(got.params, positions[[0, 3, 2, 4]] + 100.0)
    assert got.tags == ["face_hit", "feature", "boundary", "boundary"]
    # (1, 3) becomes a self-link and goes; (3, 0) repeats (0, 1, iso1) and
    # (4, 2) repeats (2, 3, iso2), so each keeps its first occurrence; the
    # pair (0, 1) also joins in family boundary, and that row stays.
    np.testing.assert_array_equal(got.elements, [[0, 1], [0, 1], [2, 3]])
    assert got.families == ["iso1", "boundary", "iso2"]


def test_element_lengths_are_per_row_norms():
    # Random members, many of whose axis=1 norms round differently from the
    # norm of the row alone; lengths must be the latter, the value that
    # stiffness, geometry and simplification use.
    rng = np.random.default_rng(8)
    n = 400
    positions = rng.standard_normal((n, 3)) * rng.uniform(1e-3, 10.0, (n, 1))
    elements = np.column_stack([np.arange(0, n, 2), np.arange(1, n, 2)])
    g = TrussGraph(positions=positions, params=np.zeros((n, 3)),
                   tags=["interior_grid"] * n, elements=elements,
                   families=["iso1"] * len(elements))
    d = positions[elements[:, 1]] - positions[elements[:, 0]]
    per_row = np.array([np.linalg.norm(v) for v in d])
    assert np.any(np.linalg.norm(d, axis=1) != per_row)
    np.testing.assert_array_equal(g.element_lengths(), per_row)
    assert len(empty_graph().element_lengths()) == 0


# ---------------------------------------------------------------------------
# Array engines against the loop oracle
#
# The per-tet, per-lattice-point loop implementation that the array engines
# replaced, kept as the oracle: a tuple-keyed node builder, the surface and
# 3D engines, and a spatial-hash union-find merge. The array code must write
# the same graph.json bytes and raise the same warnings.


class _OracleBuilder:
    """Accumulates nodes (deduplicated by structural key) and elements."""

    def __init__(self):
        self.key_to_id: dict = {}
        self.positions: list[np.ndarray] = []
        self.params: list[np.ndarray] = []
        self.tags: list[str] = []
        self.elements: dict = {}

    def add_node(self, key, pos, par, tag: str) -> int:
        nid = self.key_to_id.get(key)
        if nid is None:
            nid = len(self.positions)
            self.key_to_id[key] = nid
            self.positions.append(np.asarray(pos, dtype=float))
            self.params.append(np.asarray(par, dtype=float))
            self.tags.append(tag)
        elif TAG_RANK[tag] > TAG_RANK[self.tags[nid]]:
            self.tags[nid] = tag
        return nid

    def upgrade_tag(self, nid: int, tag: str):
        if TAG_RANK[tag] > TAG_RANK[self.tags[nid]]:
            self.tags[nid] = tag

    def add_element(self, i: int, j: int, family: str):
        if i == j:
            return
        key = (min(i, j), max(i, j), family)
        self.elements[key] = True

    def finalize(self) -> TrussGraph:
        n = len(self.positions)
        if n == 0:
            return empty_graph()
        g = TrussGraph(
            positions=np.vstack(self.positions),
            params=np.vstack(self.params),
            tags=list(self.tags),
            elements=np.array(
                [(k[0], k[1]) for k in self.elements], dtype=np.int64
            ).reshape(-1, 2),
            families=[k[2] for k in self.elements],
        )
        g = _oracle_merge(g)
        _upgrade_grid_tags(g)
        return _canonical_order(g)


def _oracle_merge(g: TrussGraph) -> TrussGraph:
    """Union nodes within MERGE_TOL of each other (spatial hash + 27-cell
    neighborhood); representative is the highest-rank tag, then lowest id."""
    n = g.num_nodes
    if n == 0:
        return g
    parent = np.arange(n)

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    cells: dict[tuple, list[int]] = {}
    grid = np.floor(g.positions / MERGE_TOL).astype(np.int64)
    for i in range(n):
        cells.setdefault(tuple(grid[i]), []).append(i)
    offsets = [
        (dx, dy, dz)
        for dx in (-1, 0, 1) for dy in (-1, 0, 1) for dz in (-1, 0, 1)
    ]
    for i in range(n):
        ci = grid[i]
        for off in offsets:
            bucket = cells.get((ci[0] + off[0], ci[1] + off[1], ci[2] + off[2]))
            if not bucket:
                continue
            for j in bucket:
                if j <= i:
                    continue
                if np.linalg.norm(g.positions[i] - g.positions[j]) <= MERGE_TOL:
                    union(i, j)

    roots = np.array([find(i) for i in range(n)])
    uniq_roots = np.unique(roots)
    if len(uniq_roots) == n:
        return g

    # Representative per group: highest tag rank, then lowest index.
    rep: dict[int, int] = {}
    for i in range(n):
        r = roots[i]
        cur = rep.get(r)
        if cur is None or (TAG_RANK[g.tags[i]], -i) > (TAG_RANK[g.tags[cur]], -cur):
            rep[r] = i
    new_id = {r: k for k, r in enumerate(uniq_roots)}
    positions = np.vstack([g.positions[rep[r]] for r in uniq_roots])
    params = np.vstack([g.params[rep[r]] for r in uniq_roots])
    tags = [g.tags[rep[r]] for r in uniq_roots]

    remap = np.array([new_id[roots[i]] for i in range(n)], dtype=np.int64)
    elements: dict = {}
    for (a, b), fam in zip(g.elements, g.families):
        na, nb = remap[a], remap[b]
        if na == nb:
            continue                      # merged endpoints: degenerate
        elements[(min(na, nb), max(na, nb), fam)] = True
    return TrussGraph(
        positions, params, tags,
        np.array([(k[0], k[1]) for k in elements], dtype=np.int64).reshape(-1, 2),
        [k[2] for k in elements],
    )


def _oracle_integer_range(lo: float, hi: float, shrink: float = 0.0):
    """Integers strictly inside (lo, hi), both bounds shrunk inward."""
    a = math.floor(lo + shrink) + 1
    b = math.ceil(hi - shrink) - 1
    return range(a, b + 1)


def _oracle_edge_crossings_2d(builder, vertices, params, edges, columns, tag,
                       edge_points: dict):
    """Nodes where one traced column hits an integer on a mesh edge.

    edge_points maps (a, b) -> list of (t, node_id) for boundary chains.
    """
    for a, b in edges:
        pa_row, pb_row = params[a], params[b]
        for c in columns:
            pa, pb = pa_row[c], pb_row[c]
            lo, hi = (pa, pb) if pa <= pb else (pb, pa)
            for m in _oracle_integer_range(lo, hi):
                if abs(pa - m) < PARAM_TOL or abs(pb - m) < PARAM_TOL:
                    raise NumericalError(
                        "isocurve through a vertex after perturbation"
                    )
                t = (m - pa) / (pb - pa)
                pos = vertices[a] + t * (vertices[b] - vertices[a])
                par = pa_row + t * (pb_row - pa_row)
                par = par.copy()
                par[c] = float(m)
                nid = builder.add_node(("E2", int(a), int(b), int(c), int(m)),
                                       pos, par, tag)
                edge_points.setdefault((int(a), int(b)), []).append((float(t), nid))


def _oracle_face_pass_2d(builder, faces, params, trace_col, other_col, node_tag,
                  family):
    """Trace integer isocurves of trace_col through each face, inserting
    double-integer in-face nodes and chaining elements along each curve."""
    for fidx, tri in enumerate(faces):
        vals = params[tri][:, trace_col]
        lo, hi = float(vals.min()), float(vals.max())
        for m in _oracle_integer_range(lo, hi):
            hit_ids = []
            for (ia, ib) in ((0, 1), (1, 2), (2, 0)):
                a, b = int(tri[ia]), int(tri[ib])
                pa, pb = params[a][trace_col], params[b][trace_col]
                if (pa - m) * (pb - m) < 0.0:
                    aa, bb = (a, b) if a < b else (b, a)
                    hit_ids.append(
                        builder.key_to_id[("E2", aa, bb, int(trace_col), int(m))]
                    )
            if len(hit_ids) != 2:
                raise NumericalError(
                    f"isocurve level {m} crosses face {fidx} at "
                    f"{len(hit_ids)} edges; expected 2"
                )
            n0, n1 = hit_ids
            q0 = builder.params[n0][other_col]
            q1 = builder.params[n1][other_col]
            if q0 > q1:
                n0, n1 = n1, n0
                q0, q1 = q1, q0
            chain = [(q0, n0)]
            for q in _oracle_integer_range(q0, q1, shrink=PARAM_TOL):
                t = (q - q0) / (q1 - q0)
                pos = builder.positions[n0] + t * (
                    builder.positions[n1] - builder.positions[n0]
                )
                par = builder.params[n0] + t * (
                    builder.params[n1] - builder.params[n0]
                )
                par = par.copy()
                par[trace_col] = float(m)
                par[other_col] = float(q)
                clo, chi = sorted((trace_col, other_col))
                key = ("F2", int(fidx), clo, int(round(par[clo])),
                       chi, int(round(par[chi])))
                nid = builder.add_node(key, pos, par, node_tag)
                chain.append((float(q), nid))
            chain.append((q1, n1))
            chain.sort(key=lambda item: item[0])
            for (qa, na), (qb, nb) in zip(chain[:-1], chain[1:]):
                builder.add_element(na, nb, family)


def _oracle_boundary_chains_2d(builder, vertices, params, boundary_edges, edge_points,
                        family="boundary", node_tag="boundary",
                        include_endpoints=True):
    """Chain nodes along each given mesh edge in edge-parameter order."""
    for a, b in boundary_edges:
        a, b = int(a), int(b)
        pts = list(edge_points.get((a, b), []))
        for t, nid in pts:
            builder.upgrade_tag(nid, node_tag)
        if include_endpoints:
            na = builder.add_node(("V", a), vertices[a], params[a], node_tag)
            nb = builder.add_node(("V", b), vertices[b], params[b], node_tag)
            pts += [(0.0, na), (1.0, nb)]
        pts.sort(key=lambda item: (item[0], item[1]))
        for (_, na), (_, nb) in zip(pts[:-1], pts[1:]):
            builder.add_element(na, nb, family)


def oracle_extract_3d(mesh: TetMesh, params: np.ndarray) -> TrussGraph:
    """Trace double-integer curves through tets; nodes at face crossings and
    triple-integer interior points, elements along each curve between them.
    """
    params = np.asarray(params, dtype=float)
    check_perturbed(params)
    verts = mesh.vertices

    builder = _OracleBuilder()
    face_cache: dict = {}           # key -> None | "edge" | (pos, par)
    tangential = 0
    edge_only = 0
    inconsistent_tets = 0

    for tidx, tet in enumerate(mesh.tets):
        tet = [int(v) for v in tet]
        tet_faces = [tuple(sorted(f)) for f in (
            (tet[0], tet[1], tet[2]),
            (tet[0], tet[1], tet[3]),
            (tet[0], tet[2], tet[3]),
            (tet[1], tet[2], tet[3]),
        )]
        bad_tet = False
        for (i, j) in _PAIRS_3D:
            k = 3 - i - j
            vi = params[tet, i]
            vj = params[tet, j]
            for a in _oracle_integer_range(vi.min(), vi.max()):
                for b in _oracle_integer_range(vj.min(), vj.max()):
                    hits = []
                    on_edge = False
                    for trip in tet_faces:
                        key = ("F3", trip, i, int(a), j, int(b))
                        if key in face_cache:
                            entry = face_cache[key]
                        else:
                            entry = _oracle_face_hit(verts, params, trip, i, a, j, b)
                            face_cache[key] = entry
                        if isinstance(entry, str):
                            on_edge = True
                        elif entry is not None:
                            hits.append((key, entry))
                    if len(hits) == 0:
                        edge_only += on_edge
                        continue
                    if len(hits) == 1:
                        tangential += 1
                        continue
                    if len(hits) > 2:
                        bad_tet = True
                        continue
                    (key0, (pos0, par0)), (key1, (pos1, par1)) = hits
                    n0 = builder.add_node(key0, pos0, par0, "face_hit")
                    n1 = builder.add_node(key1, pos1, par1, "face_hit")
                    c0, c1 = par0[k], par1[k]
                    if c0 > c1:
                        n0, n1 = n1, n0
                        c0, c1 = c1, c0
                        pos0, pos1 = pos1, pos0
                    chain = [(c0, n0)]
                    for nk in _oracle_integer_range(c0, c1, shrink=PARAM_TOL):
                        t = (nk - c0) / (c1 - c0)
                        pos = pos0 + t * (pos1 - pos0)
                        par = np.empty(3)
                        par[i], par[j], par[k] = float(a), float(b), float(nk)
                        trip_key = tuple(int(round(par[c])) for c in range(3))
                        nid = builder.add_node(("G3", tidx) + trip_key, pos,
                                               par, "interior_grid")
                        chain.append((float(nk), nid))
                    chain.append((c1, n1))
                    chain.sort(key=lambda item: item[0])
                    for (ca, na), (cb, nb) in zip(chain[:-1], chain[1:]):
                        builder.add_element(na, nb, f"iso{k + 1}")
        if bad_tet:
            inconsistent_tets += 1

    if inconsistent_tets > 0.01 * mesh.num_tets:
        raise NumericalError(
            f"inconsistent face intersections in {inconsistent_tets} tets "
            f"(> 1% of {mesh.num_tets})"
        )
    if inconsistent_tets:
        warnings.warn(
            f"{inconsistent_tets} tet(s) had inconsistent face intersections",
            ExtractionWarning,
        )
    if tangential:
        warnings.warn(
            f"{tangential} tangential curve-face touch(es) skipped",
            ExtractionWarning,
        )
    if edge_only:
        warnings.warn(
            f"{edge_only} curve candidate(s) dropped: their only face hits "
            "lie on face edges", ExtractionWarning)
    return builder.finalize()


def _oracle_face_hit(verts, params, trip, i, a, j, b):
    """Intersection of the curve {phi_i = a, phi_j = b} with one face,
    "edge" when it only touches the face's edges, or None. trip is a sorted
    vertex triple, so every tet sharing the face computes bit-identical
    results."""
    p, q, r = trip
    M = np.array([
        [params[q, i] - params[p, i], params[r, i] - params[p, i]],
        [params[q, j] - params[p, j], params[r, j] - params[p, j]],
    ])
    rhs = np.array([a - params[p, i], b - params[p, j]])
    det = M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]
    if det == 0.0:
        return None
    v = (M[1, 1] * rhs[0] - M[0, 1] * rhs[1]) / det
    w = (M[0, 0] * rhs[1] - M[1, 0] * rhs[0]) / det
    u = 1.0 - v - w
    if not (u > 0.0 and v > 0.0 and w > 0.0):
        return "edge" if min(u, v, w) == 0.0 else None
    pos = u * verts[p] + v * verts[q] + w * verts[r]
    par = u * params[p] + v * params[q] + w * params[r]
    par = par.copy()
    par[i] = float(a)
    par[j] = float(b)
    return pos, par


def oracle_extract_boundary(mesh: TetMesh, params: np.ndarray,
                     features: np.ndarray | None = None) -> TrussGraph:
    """Surface truss: the three pairwise 2D extractions on the boundary
    complex (all nodes tagged boundary, elements family "boundary"), plus
    chains along feature edges (tagged/family "feature").
    """
    params = np.asarray(params, dtype=float)
    check_perturbed(params)
    surface = mesh.boundary
    faces = surface.triangles
    verts = mesh.vertices

    builder = _OracleBuilder()
    edges, counts, _ = unique_edges(faces)
    if len(edges) and counts.max(initial=0) > 2:
        raise NumericalError("boundary complex is not manifold")
    edge_points: dict = {}
    _oracle_edge_crossings_2d(builder, verts, params, edges, (0, 1, 2), "boundary",
                       edge_points)
    for (ci, cj) in _PAIRS_3D:
        _oracle_face_pass_2d(builder, faces, params, ci, cj, "boundary", "boundary")
        _oracle_face_pass_2d(builder, faces, params, cj, ci, "boundary", "boundary")

    if features is not None and len(features):
        feature_set = np.asarray(features, dtype=np.int64)
        feature_set = np.sort(feature_set, axis=1)
        _oracle_boundary_chains_2d(builder, verts, params, feature_set, edge_points,
                            family="feature", node_tag="feature",
                            include_endpoints=True)
    return builder.finalize()


def oracle_merge_graphs(parts: list[TrussGraph]) -> TrussGraph:
    """Concatenate graphs, merge coincident nodes, drop duplicate elements."""
    parts = [g for g in parts if g.num_nodes]
    if not parts:
        return empty_graph()
    positions = np.vstack([g.positions for g in parts])
    params = np.vstack([g.params for g in parts])
    tags = [t for g in parts for t in g.tags]
    offsets = np.cumsum([0] + [g.num_nodes for g in parts][:-1])
    elements = []
    families = []
    for g, off in zip(parts, offsets):
        if g.num_elements:
            elements.append(g.elements + off)
            families.extend(g.families)
    elements = (np.vstack(elements) if elements
                else np.zeros((0, 2), dtype=np.int64))
    merged = TrussGraph(positions, params, tags, elements, families)
    merged = _oracle_merge(merged)
    _upgrade_grid_tags(merged)
    return _canonical_order(merged)


def _outcome(fn, *args):
    """graph.json bytes (or the error) and the warnings of one call."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            g = fn(*args)
        except NumericalError as exc:
            text = f"NumericalError: {exc}".encode()
        else:
            with tempfile.TemporaryDirectory() as tmp:
                path = Path(tmp) / "graph.json"
                artifacts.write_graph(path, g)
                text = path.read_bytes()
    return text, [(w.category, str(w.message)) for w in caught]


def _assert_matches_oracle(mesh, pert, features):
    """extract_3d, extract_boundary and their merge, against the oracle."""
    for new, old, args in (
        (extract_3d, oracle_extract_3d, (mesh, pert)),
        (extract_boundary, oracle_extract_boundary, (mesh, pert, features)),
    ):
        assert _outcome(new, *args) == _outcome(old, *args), new.__name__
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ExtractionWarning)
        parts = [oracle_extract_3d(mesh, pert),
                 oracle_extract_boundary(mesh, pert, features)]
    assert (_outcome(merge_graphs, parts)
            == _outcome(oracle_merge_graphs, parts))


def oracle_surface_graph(vertices, faces, params, pair=(0, 1)):
    """``_surface_graph`` by the oracle's loops."""
    params = _flat_params(params)
    ci, cj = pair
    builder = _OracleBuilder()
    edges, _, _ = unique_edges(faces)
    _oracle_edge_crossings_2d(builder, vertices, params, edges, (0, 1, 2),
                              "boundary", {})
    _oracle_face_pass_2d(builder, faces, params, ci, cj, "boundary",
                         "boundary")
    _oracle_face_pass_2d(builder, faces, params, cj, ci, "boundary",
                         "boundary")
    return builder.finalize()


@pytest.mark.parametrize("case, pair", [
    ("triangle", (0, 1)), ("square", (0, 1)), ("square", (1, 0)),
    ("square7", (0, 1)), ("closed_loop", (0, 1)),
])
def test_2d_engine_matches_oracle(case, pair):
    verts, faces, params = {
        "triangle": _triangle_case,
        "square": _square_case,
        "square7": lambda: _square_case(rho=7.3),
        "closed_loop": _closed_loop_case,
    }[case]()
    got = _outcome(_surface_graph, verts, faces, params, pair)
    want = _outcome(oracle_surface_graph, verts, faces, params, pair)
    assert got == want


@pytest.mark.parametrize("with_features", [False, True])
def test_cube_matches_oracle(cube_case, with_features):
    mesh, pert, _g3, _gb = cube_case
    features = feature_edges(mesh.boundary, 0.9) if with_features else None
    _assert_matches_oracle(mesh, pert, features)


def test_bar_field_matches_oracle(bar_field):
    _assert_matches_oracle(*bar_field)


@pytest.mark.parametrize("rho, offset, shear", [
    (4.0, 0.1, 0.0), (4.0, 0.1, 1.0), (4.0, 1 / 3, -1.0), (3.0, 0.25, 0.5),
])
def test_lattice_aligned_maps_match_oracle(rho, offset, shear):
    # On an unjittered cube mesh these maps run curves through mesh edges and
    # level crossings of two columns onto one point of a boundary edge, so
    # tangential touches, coincident nodes whose merge falls to the lowest
    # discovery index, and ties in a feature chain's order all occur.
    mesh = unit_cube_mesh(2)
    A = np.eye(3)
    A[0, 1] = shear
    pert = perturb_parametrization(rho * mesh.vertices @ A.T + offset,
                                   mesh.tets)
    _assert_matches_oracle(mesh, pert, feature_edges(mesh.boundary, 0.9))


@settings(max_examples=25, deadline=None)
@given(n=st.integers(2, 3), jitter=st.floats(0.0, 0.3),
       rho=st.floats(1.5, 5.0), seed=st.integers(0, 2**32 - 1))
def test_random_smooth_maps_match_oracle(n, jitter, rho, seed):
    rng = np.random.default_rng(seed)
    mesh = unit_cube_mesh(n, jitter=jitter)
    x = mesh.vertices
    A = np.eye(3) + 0.4 * rng.standard_normal((3, 3))
    bend = 0.3 * rng.standard_normal((3, 3))
    phi = rho * (x @ A.T + 0.2 * np.sin(3.0 * x @ bend.T)) + rng.random(3)
    pert = perturb_parametrization(phi, mesh.tets)
    _assert_matches_oracle(mesh, pert, feature_edges(mesh.boundary, 0.9))


def test_merge_on_a_plane_matches_oracle():
    # Nodes filling one axis-aligned plane: every fifth gets a partner just
    # inside MERGE_TOL (every fiftieth two, merged through it), every tenth
    # another one just outside. Random tags make groups tie at the top rank.
    rng = np.random.default_rng(5)
    y, z = np.meshgrid(np.arange(60) * 1e-3, np.arange(50) * 1e-3)
    base = np.column_stack([np.full(y.size, 0.25), y.ravel(), z.ravel()])

    def partners(idx, lo, hi):
        d = rng.standard_normal((len(idx), 3))
        d /= np.linalg.norm(d, axis=1, keepdims=True)
        return base[idx] + d * rng.uniform(lo, hi, (len(idx), 1)) * MERGE_TOL

    near = np.vstack([partners(np.arange(0, len(base), 5), 0.2, 0.99),
                      partners(np.arange(0, len(base), 50), 0.2, 0.99)])
    far = partners(np.arange(1, len(base), 10), 1.01, 2.0)
    positions = rng.permutation(np.vstack([base, near, far]))
    n = len(positions)
    tags = list(rng.choice(list(TAG_RANK), n))
    elements = np.sort(rng.integers(0, n, (2 * n, 2)), axis=1)
    elements = elements[elements[:, 0] != elements[:, 1]]
    families = list(rng.choice(["iso1", "iso2", "boundary"], len(elements)))
    g = TrussGraph(positions, rng.random((n, 3)), tags, elements, families)

    got, want = _coincidence_merge(g), _oracle_merge(g)
    assert want.num_nodes == n - len(near)
    np.testing.assert_array_equal(got.positions, want.positions)
    np.testing.assert_array_equal(got.params, want.params)
    assert got.tags == want.tags
    np.testing.assert_array_equal(got.elements, want.elements)
    assert got.families == want.families

    # An x-sorted sweep would pair all 3,000 plane nodes with each other.
    i, _j = _merge_candidates(positions)
    assert len(i) <= 2 * n
