import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from stresstruss import fem
from stresstruss import mesh as mesh_module
from stresstruss.errors import MeshError
from stresstruss.fixtures import bar_mesh, box_mesh, unit_cube_mesh
from stresstruss.mesh import (
    _TET_FACES,
    TetMesh,
    assemble,
    build_operators,
    feature_edges,
    load_tet_mesh,
    pieces,
    unique_edges,
    unique_rows,
    write_medit,
)


def ball_mesh(n=6):
    """Ball from a cubed-sphere map of a box; boundary is a sphere tessellation."""
    m = box_mesh((n, n, n), size=(2.0, 2.0, 2.0), origin=(-1.0, -1.0, -1.0))
    v = m.vertices
    r = np.linalg.norm(v, axis=1)
    linf = np.abs(v).max(axis=1)
    scale = np.ones_like(r)
    nz = r > 0
    scale[nz] = linf[nz] / r[nz]
    return TetMesh(v * scale[:, None], m.tets)


def test_single_tet_medit(tmp_path):
    p = tmp_path / "one.mesh"
    p.write_text(
        "MeshVersionFormatted 2\nDimension 3\n"
        "Vertices\n4\n0 0 0 0\n1 0 0 0\n0 1 0 0\n0 0 1 0\n"
        "Tetrahedra\n1\n1 2 3 4 0\nEnd\n"
    )
    m = load_tet_mesh(p)
    assert m.num_tets == 1
    assert m.volumes[0] == pytest.approx(1.0 / 6.0, rel=1e-12)
    assert len(m.boundary.triangles) == 4


def test_six_tet_unit_cube():
    m = box_mesh((1, 1, 1))
    assert m.num_tets == 6
    assert m.volumes.sum() == pytest.approx(1.0, rel=1e-12)
    assert len(m.boundary.triangles) == 12
    assert (m.volumes > 0).all()


def test_bar_fixture_counts():
    m = bar_mesh()
    assert m.num_vertices == 13 * 6 * 6
    assert m.num_tets == 12 * 5 * 5 * 6
    ext = m.vertices.max(axis=0) - m.vertices.min(axis=0)
    np.testing.assert_allclose(ext, [0.2, 0.05, 0.05], rtol=1e-12)


def test_medit_roundtrip(tmp_path):
    m = box_mesh((2, 1, 1), jitter=0.05)
    p = tmp_path / "box.mesh"
    write_medit(p, m.vertices, m.tets)
    m2 = load_tet_mesh(p)
    np.testing.assert_array_equal(m2.vertices, m.vertices)
    np.testing.assert_array_equal(m2.tets, m.tets)


def test_tetgen_pair_both_bases(tmp_path):
    m = box_mesh((1, 1, 1))
    for base in (0, 1):
        (tmp_path / "m.node").write_text(
            f"{m.num_vertices} 3 0 0\n"
            + "\n".join(
                f"{i + base} {float(v[0])!r} {float(v[1])!r} {float(v[2])!r}"
                for i, v in enumerate(m.vertices)
            )
            + "\n"
        )
        (tmp_path / "m.ele").write_text(
            f"{m.num_tets} 4 0\n"
            + "\n".join(
                f"{i + base} {t[0] + base} {t[1] + base} {t[2] + base} {t[3] + base}"
                for i, t in enumerate(m.tets)
            )
            + "\n"
        )
        m2 = load_tet_mesh(tmp_path / "m.node")
        np.testing.assert_array_equal(m2.tets, m.tets)
        np.testing.assert_allclose(m2.vertices, m.vertices)


_ONE_TET = ("MeshVersionFormatted 2\nDimension 3\n"
            "Vertices\n4\n0 0 0 0\n1 0 0 0\n0 1 0 0\n0 0 1 0\n"
            "Tetrahedra\n1\n1 2 3 4 0\nEnd\n")
_NODE = "4 3 0 0\n0 0 0 0\n1 1 0 0\n2 0 1 0\n3 0 0 1\n"
_ELE = "1 4 0\n0 0 1 2 3\n"


@pytest.mark.parametrize("files, match", [
    ({"m.mesh": _ONE_TET.replace("1 0 0 0", "nan 0 0 0")}, "non-finite"),
    ({"m.mesh": _ONE_TET[:_ONE_TET.index("1 2 3 4")]},
     "Tetrahedra section does not hold 1 entries"),
    ({"m.mesh": _ONE_TET.replace("Vertices\n4", "Vertices\nfour")},
     "malformed medit_mesh file"),
    ({"m.node": "", "m.ele": _ELE}, "malformed tetgen_pair file"),
    ({"m.node": _NODE.replace("1 1 0 0", "1 x 0 0"), "m.ele": _ELE},
     "malformed tetgen_pair file"),
], ids=["medit-nan", "medit-truncated", "medit-count", "tetgen-empty-node",
        "tetgen-text-coordinate"])
def test_corrupt_mesh_files_raise_mesh_error(tmp_path, files, match):
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    with pytest.raises(MeshError, match=match):
        load_tet_mesh(tmp_path / next(iter(files)))


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cut=st.floats(0.0, 1.0))
def test_cut_medit_loads_or_raises_mesh_error(tmp_path, cut):
    mesh = box_mesh((2, 1, 1))
    path = tmp_path / "cut.mesh"
    write_medit(path, mesh.vertices, mesh.tets)
    text = path.read_text()
    path.write_text(text[:round(cut * len(text))])
    try:
        loaded = load_tet_mesh(path)
    except MeshError:
        return
    # A cut file that loads has kept every section whole.
    assert np.array_equal(loaded.tets, mesh.tets)
    assert np.array_equal(loaded.vertices, mesh.vertices)


def test_inverted_tet_reoriented():
    verts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=float)
    tets = np.array([[0, 2, 1, 3]])    # contiguous int64, negative volume
    m = TetMesh(verts, tets)
    assert m.volumes[0] == pytest.approx(1.0 / 6.0)
    assert m.tets.tolist() == [[0, 1, 2, 3]]
    # The mesh reorients its own copy: the caller's arrays are left alone.
    assert tets.tolist() == [[0, 2, 1, 3]]
    assert m.tets is not tets and m.vertices is not verts
    tets.flags.writeable = False
    assert TetMesh(verts, tets).tets.tolist() == [[0, 1, 2, 3]]


def test_degenerate_tet_names_index():
    verts = np.array(
        [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [2, 0, 0], [0.5, 0.5, 0]],
        dtype=float,
    )
    tets = np.array([[0, 1, 2, 3], [0, 1, 4, 5]])   # second tet is coplanar
    with pytest.raises(MeshError, match="index 1"):
        TetMesh(verts, tets)


def test_out_of_range_and_duplicates():
    verts = np.eye(4, 3, k=-1, dtype=float)
    verts[0] = 0.0
    verts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=float)
    with pytest.raises(MeshError):
        TetMesh(verts, np.array([[0, 1, 2, 9]]))
    with pytest.raises(MeshError, match="duplicate"):
        TetMesh(verts, np.array([[0, 1, 2, 3], [1, 0, 3, 2]]))


def test_duplicate_high_index_tets_rejected():
    # Base-n keys of four indices overflow int64 above 55,108 vertices, so
    # a 60,000-vertex mesh takes the lexsort path.
    n = 60_000
    verts = np.zeros((n, 3))
    verts[:, 0] = np.arange(n)
    verts[-4:] = [[0, 0, 1], [1, 0, 1], [0, 1, 1], [0, 0, 2]]
    tet = np.arange(n - 4, n)
    assert TetMesh(verts, tet[None]).num_tets == 1
    with pytest.raises(MeshError, match="duplicate tets"):
        TetMesh(verts, np.array([tet, tet[[1, 0, 3, 2]]]))


@pytest.mark.parametrize("base, k", [(7, 3), (60_000, 2), (60_000, 4),
                                     (3_000_000, 3)])
def test_unique_rows_matches_numpy(base, k):
    rng = np.random.default_rng(base + k)
    rows = rng.integers(0, base, size=(400, k))
    rows = np.vstack([rows, rows[::7], [[base - 1] * k]])
    # The same rows, and a set shifted to hold negative values.
    for rows in (rows, rows - base // 2):
        want = np.unique(rows, axis=0, return_index=True,
                         return_inverse=True, return_counts=True)
        got = unique_rows(rows)
        assert len(got) == 4
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w.reshape(g.shape))


def oracle_boundary(mesh):
    """Boundary triangles, the boundary edges and each triangle's edges,
    by the row-wise ``np.unique(axis=0)`` code that the integer keys
    replaced."""
    faces = np.concatenate([mesh.tets[:, idx] for idx in _TET_FACES])
    _, inverse, counts = np.unique(np.sort(faces, axis=1), axis=0,
                                   return_inverse=True, return_counts=True)
    tris = faces[counts[inverse.ravel()] == 1]
    tris = tris[np.lexsort(np.sort(tris, axis=1).T[::-1])]
    e = np.sort(np.concatenate([tris[:, [0, 1]], tris[:, [1, 2]],
                                tris[:, [2, 0]]]), axis=1)
    edges, einv = np.unique(e, axis=0, return_inverse=True)
    return tris, edges, einv.reshape(3, len(tris)).T


@pytest.mark.parametrize("mesh", [box_mesh((5, 4, 3), jitter=0.1),
                                  bar_mesh(jitter=0.11)], ids=["box", "bar"])
def test_boundary_matches_unique_rows_oracle(mesh):
    tris, edges, face_edges = oracle_boundary(mesh)
    b = mesh.boundary
    np.testing.assert_array_equal(b.triangles, tris)
    np.testing.assert_array_equal(b.edges, edges)
    np.testing.assert_array_equal(unique_edges(b.triangles)[2], face_edges)


@pytest.mark.parametrize("mesh", [box_mesh((5, 4, 3), jitter=0.1),
                                  bar_mesh(jitter=0.11)], ids=["box", "bar"])
def test_boundary_keeps_its_face_edges(mesh):
    b = mesh.boundary
    np.testing.assert_array_equal(b.face_edges, unique_edges(b.triangles)[2])


@pytest.mark.parametrize("mesh", [box_mesh((5, 4, 3), jitter=0.1),
                                  bar_mesh(jitter=0.11)], ids=["box", "bar"])
def test_boundary_face_areas_match_cross_products(mesh):
    b = mesh.boundary
    p = mesh.vertices[b.triangles]
    cross = np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
    np.testing.assert_array_equal(b.face_areas,
                                  0.5 * np.linalg.norm(cross, axis=1))


def test_non_manifold_face_rejected():
    verts = np.array(
        [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, -1], [0.3, 0.3, 2.0]],
        dtype=float,
    )
    tets = np.array([[0, 1, 2, 3], [0, 1, 2, 4], [0, 1, 2, 5]])
    with pytest.raises(MeshError, match="manifold"):
        TetMesh(verts, tets)


def test_boundary_closed_and_euler():
    for mesh in (box_mesh((3, 2, 4), jitter=0.08), ball_mesh(4)):
        b = mesh.boundary
        assert (b.edge_faces >= 0).all()
        V = len(np.unique(b.triangles))
        E = len(b.edges)
        F = len(b.triangles)
        assert V - E + F == 2


def test_boundary_normals_point_outward():
    m = unit_cube_mesh(2, jitter=0.05)
    b = m.boundary
    centers = m.vertices[b.triangles].mean(axis=1)
    outward = centers - np.array([0.5, 0.5, 0.5])
    dots = np.einsum("ij,ij->i", b.face_normals, outward)
    assert (dots > 0).all()


def tet_gradient(mesh, f):
    """The per-tet gradient (m, 3) of the P1 field f, from ``mesh.grads``."""
    return np.einsum("tia,ti->ta", mesh.grads, f[mesh.tets])


def test_affine_reproduction():
    rng = np.random.default_rng(7)
    mesh = box_mesh((3, 3, 3), jitter=0.1)
    for _ in range(20):
        a = rng.standard_normal(3)
        c = rng.standard_normal()
        f = mesh.vertices @ a + c
        g = tet_gradient(mesh, f)
        err = np.abs(g - a).max() / max(np.abs(a).max(), 1.0)
        assert err <= 1e-10


def test_gradient_examples():
    mesh = bar_mesh(jitter=0.05)
    x = mesh.vertices
    g1 = tet_gradient(mesh, x[:, 0])
    np.testing.assert_allclose(g1[:, 0], 1.0, atol=1e-10)
    np.testing.assert_allclose(g1[:, 1], 0.0, atol=1e-10)
    np.testing.assert_allclose(g1[:, 2], 0.0, atol=1e-10)
    g2 = tet_gradient(mesh, 2 * x[:, 0] + 3 * x[:, 1] - x[:, 2])
    np.testing.assert_allclose(g2[:, 0], 2.0, atol=1e-9)
    np.testing.assert_allclose(g2[:, 1], 3.0, atol=1e-9)
    np.testing.assert_allclose(g2[:, 2], -1.0, atol=1e-9)


def test_laplacian_properties():
    mesh = box_mesh((2, 3, 2), jitter=0.1)
    L = build_operators(mesh)
    assert (L != L.T).nnz == 0
    rowsum = np.asarray(L.sum(axis=1)).ravel()
    assert np.abs(rowsum).max() <= 1e-12
    const = np.full(mesh.num_vertices, 3.7)
    assert np.abs(L @ const).max() <= 1e-11
    # Positive semidefinite: energy of random fields is nonnegative.
    rng = np.random.default_rng(3)
    for _ in range(10):
        u = rng.standard_normal(mesh.num_vertices)
        assert u @ (L @ u) >= -1e-12


def test_feature_edges_cube():
    m = unit_cube_mesh(3)
    edges09 = feature_edges(m.boundary, 0.9)
    assert len(edges09) == 12 * 3          # each cube edge spans 3 mesh edges
    # Selected edges lie on the cube's geometric edges: both endpoints share
    # two coordinates pinned at 0 or 1.
    pts = m.vertices[edges09]
    at_extreme = (np.isclose(pts, 0.0) | np.isclose(pts, 1.0)).all(axis=1)
    pinned = at_extreme & np.isclose(pts[:, 0, :], pts[:, 1, :])
    assert (pinned.sum(axis=1) >= 2).all()
    edges_all = feature_edges(m.boundary, 1.0)
    assert len(edges_all) == len(m.boundary.edges)


def test_feature_edges_smooth_surface_empty():
    m = ball_mesh(6)
    b = m.boundary
    n0 = b.face_normals[b.edge_faces[:, 0]]
    n1 = b.face_normals[b.edge_faces[:, 1]]
    dots = np.einsum("ij,ij->i", n0, n1)
    assert dots.min() > 0.9                 # precondition: tessellation is smooth
    assert len(feature_edges(b, 0.9)) == 0


def test_feature_edges_threshold_validation():
    m = unit_cube_mesh(1)
    with pytest.raises(MeshError):
        feature_edges(m.boundary, -1.0)


def test_pieces_of_two_disjoint_tets():
    tets = np.array([[0, 2, 4, 6], [7, 5, 3, 1]])
    count, labels = pieces(8, tets[:, [[0, 1], [1, 2], [2, 3]]])
    assert count == 2
    for t in tets:
        assert (labels[t] == labels[t[0]]).all()
    assert labels[0] != labels[1]


def test_face_pairs_match_shared_faces():
    mesh = box_mesh((3, 2, 2), jitter=0.1)
    pairs = mesh.face_pairs
    shared = [len(set(mesh.tets[a]) & set(mesh.tets[b])) for a, b in pairs]
    assert shared == [3] * len(pairs)
    # Each interior face once: the faces the boundary does not hold.
    assert 2 * len(pairs) + len(mesh.boundary.triangles) == 4 * mesh.num_tets
    # Two tets hinged at vertex 1 share no face.
    hinge = TetMesh(np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1],
                              [2, 0, 0], [1, 1, 0], [1, 0, 1]], dtype=float),
                    np.array([[0, 1, 2, 3], [1, 4, 5, 6]]))
    assert hinge.face_pairs.shape == (0, 2)


def triplet_assemble(blocks, dofs, size):
    """``mesh.assemble``'s former body, kept as its oracle: row-major
    (row, col) triplets summed by scipy's COO-to-CSR conversion, then made
    symmetric."""
    k = dofs.shape[1]
    rows = np.repeat(dofs, k, axis=1).ravel()
    cols = np.tile(dofs, (1, k)).ravel()
    A = sp.csr_matrix((blocks.ravel(), (rows, cols)), shape=(size, size))
    A.sum_duplicates()
    return ((A + A.T) * 0.5).tocsr()


def _same_csr(got, want):
    for part in ("indptr", "indices", "data"):
        a, b = getattr(got, part), getattr(want, part)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), part


def test_grads_and_operators_are_built_once_and_shared(monkeypatch):
    mesh = box_mesh((3, 2, 2), jitter=0.1)
    builds = []
    build = mesh_module.build_operators
    monkeypatch.setattr(mesh_module, "build_operators",
                        lambda m: builds.append(m) or build(m))
    assert mesh.grads is mesh.grads
    assert mesh.grads.shape == (mesh.num_tets, 4, 3)
    assert mesh.laplacian is mesh.laplacian
    assert len(builds) == 1 and builds[0] is mesh
    # Every array reachable from a mesh is read-only, its cached tables'
    # included.
    assert mesh.face_pairs is mesh.face_pairs
    L = mesh.laplacian
    arrays = [a for a in (*vars(mesh).values(), *vars(mesh.boundary).values(),
                          L.data, L.indices, L.indptr)
              if isinstance(a, np.ndarray)]
    assert len(arrays) == 15    # 6 of the mesh, 6 of its boundary, 3 of L
    for arr in arrays:
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0
    # A direct call still builds a fresh Laplacian, equal to the kept one.
    fresh = mesh_module.build_operators(mesh)
    assert fresh is not mesh.laplacian and len(builds) == 2
    _same_csr(fresh, mesh.laplacian)


@pytest.mark.parametrize("make_mesh", [
    bar_mesh, lambda: box_mesh((6, 5, 4), jitter=0.12)], ids=["bar", "box"])
def test_assembly_matches_triplet_oracle(make_mesh, monkeypatch):
    mesh = make_mesh()
    mat = fem.Material(young_modulus=2.3e9, poisson_ratio=0.35)
    K, L = fem.assemble_stiffness(mesh, mat), build_operators(mesh)
    monkeypatch.setattr(fem, "assemble", triplet_assemble)
    monkeypatch.setattr(mesh_module, "assemble", triplet_assemble)
    _same_csr(K, fem.assemble_stiffness(mesh, mat))
    _same_csr(L, build_operators(mesh))


def test_assembly_sums_repeated_and_skips_unused_dofs():
    # Blocks that name one DOF twice, and DOFs that no block names.
    rng = np.random.default_rng(3)
    dofs = rng.integers(0, 40, size=(60, 5))
    dofs[:, 4] = dofs[:, 0]
    blocks = rng.standard_normal((60, 5, 5))
    _same_csr(assemble(blocks, dofs, 45), triplet_assemble(blocks, dofs, 45))
