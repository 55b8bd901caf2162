import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from stresstruss import fem
from stresstruss.errors import ConfigError, NumericalError
from stresstruss.extract import TrussGraph
from stresstruss.fem import (
    BoundaryConditions,
    Dirichlet,
    Material,
    Neumann,
    StressField,
    assemble_loads,
    assemble_stiffness,
    cauchy_stress,
    prescribed_dofs,
    solve_cholesky,
    solve_lu,
    solve_static,
    solve_supported,
    stress_spd,
)
from stresstruss.fixtures import bar_mesh, box_mesh, unit_cube_mesh
from stresstruss.mesh import TetMesh
from stresstruss.param import solve_parametrization
from stresstruss.selectors import select, select_faces
from stresstruss.verify import build_truss_model, frame_fem

MAT = Material(young_modulus=2.3e9, poisson_ratio=0.35, density=1040.0,
               yield_strength=48e6)


def vertex_at(mesh, point):
    d = np.linalg.norm(mesh.vertices - np.asarray(point, dtype=float), axis=1)
    i = int(np.argmin(d))
    assert d[i] < 1e-9
    return i


def patch_test_bcs(mesh, length, traction):
    """Roller on -x face plus pins; total traction force on +x face."""
    eps = 1e-9
    ymax = mesh.vertices[:, 1].max()
    area = (mesh.vertices[:, 1].max() - mesh.vertices[:, 1].min()) * (
        mesh.vertices[:, 2].max() - mesh.vertices[:, 2].min()
    )
    return BoundaryConditions(
        dirichlet=[
            Dirichlet({"type": "box", "min": [-eps, -1, -1], "max": [eps, 1, 1]},
                      axes=(True, False, False)),
            Dirichlet({"type": "indices", "values": [vertex_at(mesh, (0, 0, 0))]},
                      axes=(False, True, True)),
            Dirichlet({"type": "indices", "values": [vertex_at(mesh, (0, ymax, 0))]},
                      axes=(False, False, True)),
        ],
        neumann=[
            Neumann({"type": "box", "min": [length - eps, -1, -1],
                     "max": [length + eps, 1, 1]},
                    force=(traction * area, 0.0, 0.0)),
        ],
    )


def test_material_validation():
    # Each bound names its config key, as config load reports it.
    with pytest.raises(ConfigError, match="^material.young_modulus must be "
                       "a positive number$"):
        Material(young_modulus=-1.0, poisson_ratio=0.3)
    # A library caller's NaN fails the bound too.
    with pytest.raises(ConfigError, match="^material.young_modulus"):
        Material(young_modulus=float("nan"), poisson_ratio=0.3)
    with pytest.raises(ConfigError, match=r"^material.poisson_ratio must be "
                       r"a number in \(-1, 0.5\)$"):
        Material(young_modulus=1.0, poisson_ratio=0.5)
    with pytest.raises(ConfigError, match="^material.yield_strength must be "
                       "a positive number$"):
        Material(young_modulus=1.0, poisson_ratio=0.3, yield_strength=0.0)
    # Gravity on a negative density would point up in fea, and verify
    # drops it.
    with pytest.raises(ConfigError,
                       match="^material.density must be a number >= 0$"):
        Material(young_modulus=1.0, poisson_ratio=0.3, density=-1100.0)


def test_selectors():
    mesh = unit_cube_mesh(2)
    v = mesh.vertices
    vs = select(v, {"type": "box", "min": [-1, -1, -1], "max": [0, 2, 2]})
    assert len(vs) == 9                       # the x=0 face of a 3x3x3 grid
    vs2 = select(v, {"type": "sphere", "center": [0, 0, 0], "radius": 0.01})
    assert len(vs2) == 1
    faces = select_faces(
        v, mesh.boundary.triangles,
        {"type": "box", "min": [-1, -1, -1], "max": [0, 2, 2]}
    )
    assert len(faces) == 8                    # 2x2 cells, 2 triangles each
    with pytest.raises(ConfigError):
        select(v, {"type": "nope"})
    # 2**64 overflows int64: it must fail by name, not by OverflowError.
    for values in ([10**6], [0, 1, 2, 2**64], [-1]):
        with pytest.raises(ConfigError, match="index selector out of range"):
            select(v, {"type": "indices", "values": values})


def test_zero_load_zero_displacement():
    mesh = unit_cube_mesh(2)
    bcs = BoundaryConditions(
        dirichlet=[Dirichlet({"type": "box", "min": [-1, -1, -1], "max": [0, 2, 2]})]
    )
    u = solve_static(mesh, MAT, bcs)
    assert np.abs(u).max() == 0.0


def test_uniaxial_patch_test():
    t = 1.0e6                                      # Pa
    mesh = bar_mesh(jitter=0.1)
    bcs = patch_test_bcs(mesh, 0.2, t)
    u = solve_static(mesh, MAT, bcs)
    E, nu = MAT.young_modulus, MAT.poisson_ratio
    x = mesh.vertices
    expected = np.stack(
        [t * x[:, 0] / E, -nu * t * x[:, 1] / E, -nu * t * x[:, 2] / E], axis=1
    )
    scale = np.abs(expected).max()
    assert np.abs(u - expected).max() <= 1e-6 * scale

    field = cauchy_stress(mesh, MAT, u)
    target = np.zeros((3, 3))
    target[0, 0] = t
    assert np.abs(field.sigma - target).max() <= 1e-6 * t


def test_rigid_translation_reproduction():
    mesh = unit_cube_mesh(3, jitter=0.1)
    shift = (0.01, -0.02, 0.003)
    bnd = np.unique(mesh.boundary.triangles)
    bcs = BoundaryConditions(
        dirichlet=[Dirichlet({"type": "indices", "values": bnd.tolist()}, value=shift)]
    )
    u = solve_static(mesh, MAT, bcs)
    np.testing.assert_allclose(u, np.broadcast_to(shift, u.shape), atol=1e-12)
    field = cauchy_stress(mesh, MAT, u)
    assert np.abs(field.sigma).max() <= 1e-4      # Pa, vs E = 2.3e9


def test_rigid_rotation_small_stress():
    mesh = unit_cube_mesh(2, jitter=0.05)
    theta = 1e-6
    c, s = np.cos(theta), np.sin(theta)
    R = np.array([[c, -s, 0], [s, c, 0], [0, 0, 1]])
    bnd = np.unique(mesh.boundary.triangles)
    disp = mesh.vertices @ R.T - mesh.vertices
    bcs = BoundaryConditions(
        dirichlet=[
            Dirichlet({"type": "indices", "values": [int(v)]}, value=tuple(disp[v]))
            for v in bnd
        ]
    )
    u = solve_static(mesh, MAT, bcs)
    field = cauchy_stress(mesh, MAT, u)
    assert np.abs(field.sigma).max() <= 10 * theta**2 * MAT.young_modulus


def test_global_equilibrium():
    mesh = bar_mesh(jitter=0.08)
    bcs = BoundaryConditions(
        dirichlet=[Dirichlet({"type": "box", "min": [-1, -1, -1],
                              "max": [1e-9, 1, 1]})],
        neumann=[Neumann({"type": "box", "min": [0.2 - 1e-9, -1, -1],
                          "max": [1, 1, 1]}, force=(30.0, -80.0, 55.0))],
        gravity=(0.0, 0.0, -9.81),
    )
    u = solve_static(mesh, MAT, bcs)
    K = assemble_stiffness(mesh, MAT)
    f = assemble_loads(mesh, MAT, bcs)
    reactions = np.asarray(K @ u.ravel() - f)
    fixed, _ = prescribed_dofs(mesh, bcs)
    mask = np.zeros(len(f), dtype=bool)
    mask[fixed] = True
    total = (f + np.where(mask, reactions, 0.0)).reshape(-1, 3).sum(axis=0)
    applied = np.abs(f.reshape(-1, 3).sum(axis=0))
    assert np.abs(total).max() <= 1e-8 * max(applied.max(), 1.0)


def test_prescribed_dofs_later_entry_wins_and_ids_sorted():
    mesh = unit_cube_mesh(1)
    bcs = BoundaryConditions(dirichlet=[
        Dirichlet({"type": "indices", "values": [0, 1, 2]},
                  value=(1e-3, -2e-3, 0.0)),
        Dirichlet({"type": "indices", "values": [5, 2, 1]},
                  axes=(True, False, True), value=(4e-3, 9.0, -5e-3)),
    ])
    ids, vals = prescribed_dofs(mesh, bcs)
    np.testing.assert_array_equal(ids, [0, 1, 2, 3, 4, 5, 6, 7, 8, 15, 17])
    np.testing.assert_array_equal(
        vals, [1e-3, -2e-3, 0.0, 4e-3, -2e-3, -5e-3, 4e-3, -2e-3, -5e-3,
               4e-3, -5e-3])


def test_underconstrained_rejected():
    mesh = unit_cube_mesh(1)
    bcs = BoundaryConditions(
        dirichlet=[Dirichlet({"type": "indices", "values": [0]})]
    )
    with pytest.raises(ConfigError, match="6"):
        solve_static(mesh, MAT, bcs)


def test_singular_names_rigid_mode():
    mesh = bar_mesh()
    i0 = vertex_at(mesh, (0, 0, 0))
    i1 = vertex_at(mesh, (0.2, 0, 0))
    # Two pins on the x-axis leave rotation about that line free; the +y load
    # torques about it, so the system has no solution.
    bcs = BoundaryConditions(
        dirichlet=[Dirichlet({"type": "indices", "values": [i0, i1]})],
        neumann=[Neumann({"type": "box", "min": [0.2 - 1e-9, -1, -1],
                          "max": [1, 1, 1]}, force=(0.0, 5.0, 0.0))],
    )
    with pytest.raises(NumericalError, match="rotation-x"):
        solve_static(mesh, MAT, bcs)


def test_singular_oblique_rotation_detected():
    # Two pins on the bar's diagonal leave rotation about it free. Off the
    # coordinate axes that mode is singular only to round-off, so the LU
    # solve does not fail on its own; the supports give it away.
    mesh = bar_mesh()
    i0 = vertex_at(mesh, (0, 0, 0))
    i1 = vertex_at(mesh, (0.2, 0.05, 0.05))
    bcs = BoundaryConditions(
        dirichlet=[Dirichlet({"type": "indices", "values": [i0, i1]})],
        neumann=[Neumann({"type": "box", "min": [0.2 - 1e-9, -1, -1],
                          "max": [1, 1, 1]}, force=(0.0, 5.0, 0.0))],
    )
    with pytest.raises(NumericalError, match="singular stiffness system"):
        solve_static(mesh, MAT, bcs)


def test_solve_supported_honours_prescribed_values():
    # A chain of unit springs pulled apart by its held end DOFs: the free
    # DOFs interpolate the prescribed values linearly.
    n = 9
    K = sp.diags([-np.ones(n - 1), np.r_[1.0, 2.0 * np.ones(n - 2), 1.0],
                  -np.ones(n - 1)], [-1, 0, 1], format="csr")
    held = np.array([0, n - 1])
    u = solve_supported(K, np.zeros(n), held, np.array([0.25, 2.25]),
                        lambda A, b: solve_cholesky(A, b, "spring"))
    np.testing.assert_allclose(u, np.linspace(0.25, 2.25, n), atol=1e-14)
    assert u[0] == 0.25 and u[-1] == 2.25
    # With every DOF held there is nothing left to solve.
    held = np.arange(n)
    u = solve_supported(K, np.zeros(n), held, held * 0.5,
                        lambda A, b: solve_cholesky(A, b, "spring"))
    np.testing.assert_array_equal(u, held * 0.5)


@pytest.mark.parametrize("make_mesh", [
    bar_mesh,
    lambda: box_mesh((24, 10, 10), size=(0.2, 0.05, 0.05)),
], ids=["bar", "box-8x"])
def test_cholesky_matches_sparse_lu_on_fea_systems(make_mesh):
    mesh = make_mesh()
    bcs = BoundaryConditions(   # the cantilever: fixed at x = 0, loaded at 0.2
        dirichlet=[Dirichlet({"type": "box", "min": [-1e-9, -1, -1],
                              "max": [1e-9, 1, 1]})],
        neumann=[Neumann({"type": "box", "min": [0.2 - 1e-9, -1, -1],
                          "max": [0.2 + 1e-9, 1, 1]},
                         force=(0.0, -100.0, 0.0))])
    K = assemble_stiffness(mesh, MAT)
    f = assemble_loads(mesh, MAT, bcs)
    held, _ = prescribed_dofs(mesh, bcs)
    free = np.setdiff1d(np.arange(len(f)), held)
    A, b = K[free][:, free], f[free]
    record = {}
    x = solve_cholesky(A, b, "stiffness", record)
    ref = spla.spsolve(A.tocsc(), b)
    assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)
    (system,) = record["systems"]
    dofs, nnz, width = system["dofs"], system["nnz"], system["bandwidth"]
    assert (dofs, nnz) == (len(free), A.nnz) and 0 < width < dofs


def test_solver_out_of_memory_names_the_system(monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate")

    A = sp.csr_matrix(np.diag([2.0, 3.0, 4.0]) + np.diag([1.0, 1.0], 1)
                      + np.diag([1.0, 1.0], -1))
    monkeypatch.setattr(fem.sla, "solveh_banded", exhausted)
    with pytest.raises(MemoryError, match=r"^stiffness system \(3 dofs, nnz "
                       r"7, band 48 bytes\): Unable to allocate$"):
        solve_cholesky(A, np.ones(3), "stiffness")
    monkeypatch.setattr(fem.spla, "splu", exhausted)
    with pytest.raises(MemoryError, match=r"^frame stiffness system \(3 dofs,"
                       r" nnz 7\): Unable to allocate$"):
        solve_lu(A, np.ones(3), "frame stiffness")


def _two_tet_gravity(vertices, tets, *held):
    """solve_static on a two-tet mesh under gravity, with ``held`` the
    Dirichlet entries as (vertex ids, axes)."""
    mesh = TetMesh(np.array(vertices, dtype=float), np.array(tets))
    bcs = BoundaryConditions(
        dirichlet=[Dirichlet({"type": "indices", "values": ids}, axes=axes)
                   for ids, axes in held],
        gravity=(0.0, -9.81, 0.0))
    return solve_static(mesh, MAT, bcs)


HINGE_VERTICES = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1],
                  [2, 0, 0], [1, 1, 0], [1, 0, 1]]
HINGE_HELD = ([0, 1, 2, 3], (True, True, True))


def test_vertex_hinge_fails_by_name():
    # Tet 1 is tet 0 reflected through vertex 1, the only vertex they share.
    # Tet 0 is held, but the two tets are separate face-connected pieces,
    # and tet 1 can turn about vertex 1. The supports check names that
    # before any solve; the banded Cholesky would catch it only where
    # round-off leaves a non-positive pivot.
    v = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1],
         [2, 0, 0], [2, -1, 0], [2, 0, -1]]
    with pytest.raises(NumericalError, match=r"^singular stiffness system; "
                       r"unconstrained rigid modes: rotation-x, rotation-y, "
                       r"rotation-z \(3 vertices; 1 of 2 face-connected "
                       r"pieces free\)$"):
        _two_tet_gravity(v, [[0, 1, 2, 3], [1, 4, 5, 6]], HINGE_HELD)


def test_translated_vertex_hinge_fails_by_name():
    # The same hinge with tet 1 translated: the banded Cholesky accepted
    # this system (max |u| 1.45e10 m) before the supports check saw it.
    with pytest.raises(NumericalError, match=r"rotation-x, rotation-y, "
                       r"rotation-z \(3 vertices; 1 of 2 face-connected"):
        _two_tet_gravity(HINGE_VERTICES, [[0, 1, 2, 3], [1, 4, 5, 6]],
                         HINGE_HELD)


def test_piece_held_through_a_held_piece():
    # Tet 1 is held at vertices 0, 2 and 3. Tet 0, the lower-numbered
    # piece, holds vertex 4 and vertex 5's z, too few on their own; the
    # sweep after the one that finds tet 1 held adds their shared vertex 1.
    # Without vertex 5's z, tet 0 turns about the x-axis through vertices 1
    # and 4.
    tets = [[1, 4, 5, 6], [0, 1, 2, 3]]
    held = ([0, 2, 3], (True, True, True)), ([4], (True, True, True))
    u = _two_tet_gravity(HINGE_VERTICES, tets, *held,
                         ([5], (False, False, True)))
    assert np.isfinite(u).all() and np.abs(u).max() < 1e-4
    with pytest.raises(NumericalError, match=r"rotation-x \(3 vertices; "
                       r"1 of 2 face-connected pieces free\)"):
        _two_tet_gravity(HINGE_VERTICES, tets, *held)


def test_stiffness_assembly_peak_memory():
    # Assembly goes straight into CSR order, so its traced peak stays a
    # small multiple of the (m, 12, 12) element blocks it sums: 3.2 on any
    # box, against 7.4 for (row, col) triplets and their COO copy.
    mesh = bar_mesh()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        assemble_stiffness(mesh, MAT)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * mesh.num_tets * 12 * 12 * 8


def _nan_load(mesh):
    bcs = patch_test_bcs(mesh, 1.0, 1.0)
    bcs.neumann = [Neumann({"type": "box", "min": [1 - 1e-9, -1, -1],
                            "max": [2, 2, 2]}, force=(np.nan, 0.0, 0.0))]
    return solve_static(mesh, MAT, bcs)


def _nan_frame(mesh):
    frames = np.tile(np.eye(3), (mesh.num_tets, 1, 1))
    frames[0, 0, 0] = np.nan
    return solve_parametrization(mesh, frames)


def _nan_truss_load(mesh):
    g = TrussGraph(positions=np.array([[0.0, 0, 0], [1.0, 0, 0]]),
                   params=np.zeros((2, 3)), tags=["interior_grid"] * 2,
                   elements=np.array([[0, 1]]), families=["iso1"])
    bcs = BoundaryConditions(
        dirichlet=[Dirichlet({"type": "indices", "values": [0]})],
        neumann=[Neumann({"type": "indices", "values": [1]},
                         force=(0.0, np.nan, 0.0))])
    return frame_fem(build_truss_model(g, MAT, 0.01, bcs))


@pytest.mark.parametrize("solve, system", [
    (_nan_load, "stiffness"),
    (_nan_frame, "parametrization"),
    (_nan_truss_load, "frame stiffness"),
], ids=["fea", "param", "verify"])
def test_solve_failure_names_its_system(solve, system):
    with pytest.raises(NumericalError,
                       match=f"^{system} system singular to working precision"):
        solve(unit_cube_mesh(1))


@pytest.mark.parametrize("A", [
    [[0.0, 0.0], [0.0, 1.0]],
    [[1.0, 1.0], [1.0, 1.0]],
], ids=["zero-row", "rank-deficient"])
def test_sparse_lu_singular_fails_by_name(A):
    with pytest.raises(NumericalError, match="^frame stiffness system "
                                             "singular to working precision"):
        solve_lu(sp.csr_matrix(A), np.ones(2), "frame stiffness")


def test_empty_selector_rejected():
    mesh = unit_cube_mesh(1)
    bcs = BoundaryConditions(
        dirichlet=[Dirichlet({"type": "sphere", "center": [9, 9, 9], "radius": 0.1})]
    )
    with pytest.raises(ConfigError, match="no vertices"):
        solve_static(mesh, MAT, bcs)
    bcs2 = BoundaryConditions(
        dirichlet=[Dirichlet({"type": "box", "min": [-1, -1, -1], "max": [0, 2, 2]})],
        neumann=[Neumann({"type": "sphere", "center": [9, 9, 9], "radius": 0.1},
                         force=(1, 0, 0))],
    )
    with pytest.raises(ConfigError, match="no boundary faces"):
        solve_static(mesh, MAT, bcs2)


def test_stress_spd_example_tensor():
    # One diag(3,-2,1) tensor; |eigenvalues| range [1,3] maps to [1,30].
    sigma = np.diag([3.0, -2.0, 1.0])[None]
    w, v = np.linalg.eigh(sigma)
    field = StressField(sigma=sigma, eigenvectors=v[:, :, ::-1].copy(),
                        eigenvalues=w[:, ::-1].copy())
    sigma_plus, _ = stress_spd(field)
    np.testing.assert_allclose(sigma_plus[0], np.diag([30.0, 15.5, 1.0]),
                               atol=1e-12)


def test_stress_spd_degenerate_range():
    sigma = np.stack([np.diag([2.0, -2.0, 2.0]), np.diag([-2.0, 2.0, 2.0])])
    w, v = np.linalg.eigh(sigma)
    field = StressField(sigma=sigma, eigenvectors=v[:, :, ::-1].copy(),
                        eigenvalues=w[:, ::-1].copy())
    sigma_plus, _ = stress_spd(field)
    for s in sigma_plus:
        np.testing.assert_allclose(s, 15.5 * np.eye(3), atol=1e-12)


def test_stress_spd_random_fields():
    rng = np.random.default_rng(11)
    for _ in range(20):
        m = rng.integers(2, 40)
        A = rng.standard_normal((m, 3, 3))
        sigma = 0.5 * (A + np.transpose(A, (0, 2, 1))) * 10.0 ** rng.integers(-3, 6)
        w, v = np.linalg.eigh(sigma)
        field = StressField(sigma=sigma, eigenvectors=v[:, :, ::-1].copy(),
                            eigenvalues=w[:, ::-1].copy())
        sigma_plus, eigenvalues_plus = stress_spd(field)
        ev = np.linalg.eigvalsh(sigma_plus)
        assert ev.min() >= 1.0 - 1e-9
        assert ev.max() <= 30.0 + 1e-9
        # Eigenvector preservation at the mapped eigenvalue.
        for t in range(m):
            for k in range(3):
                vec = field.eigenvectors[t, :, k]
                lam = eigenvalues_plus[t, k]
                assert np.linalg.norm(sigma_plus[t] @ vec - lam * vec) <= 1e-8
        # Monotone map: ordering of |eigenvalues| is preserved.
        order = np.argsort(np.abs(field.eigenvalues), axis=1)
        mapped = np.take_along_axis(eigenvalues_plus, order, axis=1)
        assert (np.diff(mapped, axis=1) >= -1e-12).all()


def test_stress_spd_null_field():
    sigma = np.zeros((3, 3, 3))
    w, v = np.linalg.eigh(sigma)
    field = StressField(sigma=sigma, eigenvectors=v, eigenvalues=w)
    with pytest.raises(NumericalError, match="null stress field"):
        stress_spd(field)


def test_gravity_only_load_vector():
    mesh = unit_cube_mesh(2)
    bcs = BoundaryConditions(gravity=(0.0, 0.0, -9.81))
    f = assemble_loads(mesh, MAT, bcs)
    fz = f.reshape(-1, 3)[:, 2].sum()
    assert fz == pytest.approx(-9.81 * MAT.density * mesh.volumes.sum(), rel=1e-12)
    assert np.abs(f.reshape(-1, 3)[:, :2]).max() == 0.0
