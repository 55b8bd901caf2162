"""Extraction tests: perturbation rules, 2D/3D integer-grid oracles on affine
parametrizations, boundary and feature handling, merging, determinism."""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from scipy.spatial import cKDTree

from stresstruss.errors import NumericalError
from stresstruss.extract import (
    ExtractionWarning,
    TrussGraph,
    empty_graph,
    extract_2d,
    extract_3d,
    extract_boundary,
    merge_graphs,
    perturb_parametrization,
)
from stresstruss.fixtures import unit_cube_mesh
from stresstruss.mesh import TetMesh, feature_edges
from stresstruss.param import Parametrization

INTERIOR_FAMILIES = ("iso1", "iso2", "iso3")


def _ring(faces, n):
    nb = [set() for _ in range(n)]
    for a, b, c in np.asarray(faces, dtype=int):
        nb[a].update((b, c))
        nb[b].update((a, c))
        nb[c].update((a, b))
    return [np.array(sorted(s), dtype=int) for s in nb]


def _perturb_raw(params, neighbors):
    p = Parametrization(phi=np.asarray(params, dtype=float), beta=1.0)
    p.phi_tilde = np.asarray(params, dtype=float).copy()
    return perturb_parametrization(p, neighbors=neighbors).phi_tilde


def _param_tilde(mesh, phi):
    p = Parametrization(phi=phi, beta=1.0, rho=1.0)
    p.phi_tilde = phi.copy()
    return perturb_parametrization(p, mesh=mesh)


def _integral_mask(g, tol=1e-9):
    # Genuine grid nodes carry exactly-forced integer parameters; perturbed
    # boundary values sit 1e-7 off and must not classify as integral.
    return (np.abs(g.params - np.round(g.params)) <= tol).all(axis=1)


def _grid_pairs(g):
    """Pairs of all-integer nodes connected by iso-element chains through
    non-grid nodes. Returns pairs of integer parameter keys."""
    integral = _integral_mask(g)
    adj: dict[int, list[int]] = {}
    for (i, j), fam in zip(g.elements, g.families):
        if fam in INTERIOR_FAMILIES:
            adj.setdefault(int(i), []).append(int(j))
            adj.setdefault(int(j), []).append(int(i))
    keys = [tuple(int(round(v)) for v in row) for row in g.params]
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
    pert = _param_tilde(mesh, phi).phi_tilde
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
    pert = _param_tilde(mesh, phi).phi_tilde
    frac = np.abs(pert - np.round(pert))
    assert frac.min() >= 1e-9
    # Plane x=0 holds the component minimum: moved up, not down.
    on_min_plane = mesh.vertices[:, 0] == 0.0
    assert (pert[on_min_plane, 0] == 1e-7).all()
    assert (pert[mesh.vertices[:, 0] == 1.0, 0] == 2.0 - 1e-7).all()


# ---------------------------------------------------------------------------
# 2D extraction


def _triangle_case():
    verts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    faces = np.array([[0, 1, 2]])
    params = 3.0 * verts[:, :2]
    pert = _perturb_raw(params, _ring(faces, 3))
    return verts, faces, pert


def test_triangle_oracle():
    verts, faces, pert = _triangle_case()
    g = extract_2d(verts, faces, pert, pair=(0, 1))
    assert g.num_nodes == 10
    assert g.num_elements == 15
    fams = {f: g.families.count(f) for f in set(g.families)}
    assert fams == {"iso1": 3, "iso2": 3, "boundary": 9}

    # Crossings of the first parameter on the bottom edge at x = {1/3, 2/3}.
    on_bottom = np.abs(g.positions[:, 1]) < 1e-12
    frac0 = np.abs(g.params[:, 0] - np.round(g.params[:, 0])) <= 1e-6
    xs = np.sort(g.positions[on_bottom & frac0 &
                             (np.abs(g.positions[:, 0]) > 1e-6) &
                             (np.abs(g.positions[:, 0] - 1.0) > 1e-6), 0])
    assert np.allclose(xs, [1 / 3, 2 / 3], atol=1e-7)
    on_left = np.abs(g.positions[:, 0]) < 1e-12
    frac1 = np.abs(g.params[:, 1] - np.round(g.params[:, 1])) <= 1e-6
    ys = np.sort(g.positions[on_left & frac1 &
                             (np.abs(g.positions[:, 1]) > 1e-6) &
                             (np.abs(g.positions[:, 1] - 1.0) > 1e-6), 1])
    assert np.allclose(ys, [1 / 3, 2 / 3], atol=1e-7)

    # Exactly one strictly interior grid node, at (1/3, 1/3).
    interior = [i for i, t in enumerate(g.tags) if t == "interior_grid"]
    assert len(interior) == 1
    assert np.allclose(g.positions[interior[0]], [1 / 3, 1 / 3, 0.0], atol=1e-7)


def _square_case(rho=4.0):
    verts = np.array([
        [0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [0.0, 1.0, 0.0],
    ])
    faces = np.array([[0, 1, 2], [0, 2, 3]])
    params = rho * verts[:, :2]
    pert = _perturb_raw(params, _ring(faces, 4))
    return verts, faces, pert


def test_square_grid_oracle():
    verts, faces, pert = _square_case()
    g = extract_2d(verts, faces, pert, pair=(0, 1))
    integral = _integral_mask(g)
    got = g.positions[integral]
    expected = np.array([
        [i / 4, j / 4, 0.0] for i in (1, 2, 3) for j in (1, 2, 3)
    ])
    assert len(got) == 9
    key = np.round(g.params[integral]).astype(int)
    order = np.lexsort((key[:, 1], key[:, 0]))
    assert np.allclose(got[order], expected, atol=1e-7)
    for i in np.nonzero(integral)[0]:
        assert g.tags[i] == "interior_grid"

    pairs = _grid_pairs(g)
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
    g = extract_2d(verts, faces, params, pair=(0, 1))
    assert set(g.families) == {"boundary"}
    assert g.num_elements == 4
    assert g.num_nodes == 4


def test_closed_loop_warning():
    angles = np.linspace(0.0, 2 * np.pi, 9)[:-1]
    verts = np.vstack([[0.0, 0.0, 0.0],
                       np.column_stack([np.cos(angles), np.sin(angles),
                                        np.zeros(8)])])
    faces = np.array([[0, 1 + i, 1 + (i + 1) % 8] for i in range(8)])
    params = np.column_stack([
        np.concatenate([[0.3], np.full(8, 1.6)]),
        0.1 + 0.05 * verts[:, 0],
    ])
    with pytest.warns(ExtractionWarning, match="closed loop"):
        g = extract_2d(verts, faces, params, pair=(0, 1))
    iso = [f for f in g.families if f in INTERIOR_FAMILIES]
    assert len(iso) == 8


def test_vertex_hit_error():
    verts, faces, pert = _square_case()
    bad = pert.copy()
    bad[0, 0] = 2.0
    with pytest.raises(NumericalError, match="integer"):
        extract_2d(verts, faces, bad, pair=(0, 1))


# ---------------------------------------------------------------------------
# 3D extraction

CUBE_RHO = 4.0


@pytest.fixture(scope="module")
def cube_case():
    mesh = unit_cube_mesh(5, jitter=0.3)
    phi = CUBE_RHO * mesh.vertices
    pert = _param_tilde(mesh, phi)
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
    pert = _param_tilde(mesh, phi)
    assert (pert.phi_tilde == phi).all()
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


def test_single_tet_spanning_less_than_one():
    mesh = _single_tet()
    phi = np.column_stack([
        0.2 + 0.5 * mesh.vertices[:, 0],
        0.3 + 0.4 * mesh.vertices[:, 1],
        0.1 + 0.6 * mesh.vertices[:, 2],
    ])
    pert = _param_tilde(mesh, phi)
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
    g2 = extract_2d(verts, faces, pert, pair=(0, 1))
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
    assert all(t in ("boundary", "feature", "interior_grid", "face_hit",
                     "edge_hit") for t in m.tags)


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
