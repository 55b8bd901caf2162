"""Frame-element verification tests against closed-form beam and statics
oracles."""

from __future__ import annotations

import warnings

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from stresstruss import verify
from stresstruss.errors import ConfigError, NumericalError
from stresstruss.extract import (ExtractionWarning, TrussGraph, extract_3d,
                                 extract_boundary, merge_graphs)
from stresstruss.fem import (BoundaryConditions, Dirichlet, Material,
                             Neumann, solve_lu)
from stresstruss.postprocess import default_length_threshold, simplify
from stresstruss.verify import (
    BoundaryWarning,
    FrameResult,
    TrussModel,
    build_truss_model,
    capacity,
    frame_fem,
    write_report,
)

MAT = Material(young_modulus=2.3e9, poisson_ratio=0.3,
               yield_strength=48e6)


def _graph(positions, elements, families=None):
    positions = np.asarray(positions, dtype=float)
    elements = np.asarray(elements, dtype=np.int64).reshape(-1, 2)
    n = len(positions)
    if families is None:
        families = ["iso1"] * len(elements)
    return TrussGraph(
        positions=positions,
        params=np.zeros((n, 3)),
        tags=["interior_grid"] * n,
        elements=elements,
        families=list(families),
    )


def _box(point, pad=1e-6):
    p = np.asarray(point, dtype=float)
    return {"type": "box", "min": (p - pad).tolist(),
            "max": (p + pad).tolist()}


def _cantilever(radius=0.01, length=1.0, force=(0.0, 1.0, 0.0)):
    g = _graph([[0.0, 0.0, 0.0], [length, 0.0, 0.0]], [[0, 1]])
    bcs = BoundaryConditions(
        dirichlet=[Dirichlet(selector=_box([0, 0, 0]))],
        neumann=[Neumann(selector=_box([length, 0, 0]), force=force)],
    )
    return build_truss_model(g, MAT, radius, bcs)


def test_cantilever_tip_deflection_y():
    length, radius, F = 1.0, 0.01, 1.0
    model = _cantilever(radius, length, (0.0, F, 0.0))
    res = frame_fem(model)
    inertia = np.pi * radius ** 4 / 4.0
    tip = F * length ** 3 / (3.0 * MAT.young_modulus * inertia)
    rot = F * length ** 2 / (2.0 * MAT.young_modulus * inertia)
    assert abs(res.displacements[1, 1] - tip) <= 1e-6 * tip
    assert abs(res.displacements[1, 5] - rot) <= 1e-6 * rot
    assert abs(res.displacements[1, 0]) <= 1e-12 * tip
    assert abs(res.displacements[1, 2]) <= 1e-12 * tip


def test_cantilever_tip_deflection_z():
    # Same oracle with the load rotated into the other bending plane.
    length, radius, F = 1.0, 0.01, 1.0
    model = _cantilever(radius, length, (0.0, 0.0, F))
    res = frame_fem(model)
    inertia = np.pi * radius ** 4 / 4.0
    tip = F * length ** 3 / (3.0 * MAT.young_modulus * inertia)
    rot = F * length ** 2 / (2.0 * MAT.young_modulus * inertia)
    assert abs(res.displacements[1, 2] - tip) <= 1e-6 * tip
    assert abs(abs(res.displacements[1, 4]) - rot) <= 1e-6 * rot
    assert abs(res.displacements[1, 1]) <= 1e-12 * tip


def test_cantilever_axial_and_torsion():
    length, radius, F = 1.0, 0.01, 1.0
    model = _cantilever(radius, length, (F, 0.0, 0.0))
    res = frame_fem(model)
    area = np.pi * radius ** 2
    stretch = F * length / (MAT.young_modulus * area)
    assert abs(res.displacements[1, 0] - stretch) <= 1e-9 * stretch
    assert abs(res.axial_force[0] - F) <= 1e-9 * F
    assert res.bending_stress[0] <= 1e-9 * res.axial_stress[0]

    model.loads[:] = 0.0
    model.loads[1, 3] = 1.0          # unit moment about the beam axis
    res = frame_fem(model)
    G = MAT.young_modulus / (2.0 * (1.0 + MAT.poisson_ratio))
    J = np.pi * radius ** 4 / 2.0
    twist = 1.0 * length / (G * J)
    assert abs(res.displacements[1, 3] - twist) <= 1e-9 * twist


def test_cantilever_reactions():
    length, F = 1.0, 1.0
    model = _cantilever(0.01, length, (0.0, F, 0.0))
    res = frame_fem(model)
    expected = np.array([0.0, -F, 0.0, 0.0, 0.0, -F * length])
    assert np.allclose(res.reactions[0], expected, rtol=0, atol=1e-8 * F)
    total = res.reactions[:, :3].sum(axis=0) + model.loads[:, :3].sum(axis=0)
    assert np.linalg.norm(total) <= 1e-8 * F


def _two_bar(radius, load=(0.0, -1.0, 0.0)):
    g = _graph(
        [[0.0, 0.0, 0.0], [-1.0, 1.0, 0.0], [1.0, 1.0, 0.0]],
        [[0, 1], [0, 2]],
    )
    bcs = BoundaryConditions(
        dirichlet=[Dirichlet(selector=_box([-1, 1, 0])),
                   Dirichlet(selector=_box([1, 1, 0]))],
        neumann=[Neumann(selector=_box([0, 0, 0]), force=load)],
    )
    return build_truss_model(g, MAT, radius, bcs)


def test_two_bar_axial_force():
    P = 2.0
    # r/L = 1e-4 keeps the parasitic frame bending ~6r/L of the axial
    # stress, far inside the statics tolerance for the force itself.
    model = _two_bar(1e-4, load=(0.0, -P, 0.0))
    res = frame_fem(model)
    expected = P / np.sqrt(2.0)
    assert np.all(np.abs(np.abs(res.axial_force) - expected)
                  <= 1e-6 * expected)
    assert np.all(res.axial_force > 0.0)     # load hangs below the supports
    total = res.reactions[:, :3].sum(axis=0) + model.loads[:, :3].sum(axis=0)
    assert np.linalg.norm(total) <= 1e-8 * P


def test_two_bar_capacity():
    radius = 1e-6
    model = _two_bar(radius)
    lam = capacity(model)
    area = np.pi * radius ** 2
    expected = 48e6 * area * np.sqrt(2.0)
    assert abs(lam - expected) <= 1e-5 * expected

    scaled = TrussModel(model.graph, model.material, model.radii,
                        model.areas, model.moments, model.fixed,
                        lam * model.loads)
    res = frame_fem(scaled)
    peak = float(np.max(np.abs(res.axial_stress)
                        + np.abs(res.bending_stress)))
    assert abs(peak - 48e6) <= 1e-9 * 48e6


def test_single_bar_capacity_and_radius_doubling():
    def bar(radius):
        g = _graph([[0.0, 0.0, 0.0], [0.0, 0.0, 1.0]], [[0, 1]])
        bcs = BoundaryConditions(
            dirichlet=[Dirichlet(selector=_box([0, 0, 0]))],
            neumann=[Neumann(selector=_box([0, 0, 1]),
                             force=(0.0, 0.0, 1.0))],
        )
        return build_truss_model(g, MAT, radius, bcs)

    r1 = 0.01
    lam1 = capacity(bar(r1))
    assert abs(lam1 - 48e6 * np.pi * r1 ** 2) <= 1e-9 * lam1
    lam2 = capacity(bar(2.0 * r1))
    assert lam2 >= 4.0 * lam1 * (1.0 - 1e-9)
    assert abs(lam2 - 4.0 * lam1) <= 1e-9 * lam2


def test_zero_load():
    model = _cantilever()
    model.loads[:] = 0.0
    res = frame_fem(model)
    assert np.all(res.displacements == 0.0)
    assert np.all(res.axial_stress == 0.0)
    assert np.all(res.bending_stress == 0.0)
    with pytest.raises(NumericalError, match="does not stress"):
        capacity(model)


def test_mechanism_reports_floating_nodes():
    g = _graph(
        [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
         [0.0, 2.0, 0.0], [1.0, 2.0, 0.0]],
        [[0, 1], [2, 3]],
    )
    bcs = BoundaryConditions(
        dirichlet=[Dirichlet(selector=_box([0, 0, 0]))],
        neumann=[Neumann(selector=_box([1, 0, 0]), force=(0, 1, 0))],
    )
    model = build_truss_model(g, MAT, 0.01, bcs)
    with pytest.raises(NumericalError, match="mechanism") as err:
        frame_fem(model)
    assert "2" in str(err.value) and "3" in str(err.value)


def test_mechanism_reports_oblique_loaded_floating_member():
    # Off every axis, the floating member's rigid modes are singular only
    # to round-off, so the LU solve itself does not fail.
    g = _graph(
        [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
         [0.0, 2.0, 0.0], [1.0, 2.3, 0.7]],
        [[0, 1], [2, 3]],
    )
    bcs = BoundaryConditions(
        dirichlet=[Dirichlet(selector=_box([0, 0, 0]))],
        neumann=[Neumann(selector=_box([1.0, 2.3, 0.7]), force=(0, 1, 0))],
    )
    model = build_truss_model(g, MAT, 0.01, bcs)
    with pytest.raises(NumericalError, match=r"mechanism.*\[2, 3\]"):
        frame_fem(model)


def _pinned(points, pins, force_at, force):
    """Members chaining ``points``; the nodes at ``pins`` have their three
    translations fixed (by two Dirichlet entries, so rotations stay free)."""
    g = _graph(points, [[i, i + 1] for i in range(len(points) - 1)])
    dirichlet = []
    for q in pins:
        dirichlet += [Dirichlet(selector=_box(q), axes=(True, True, False)),
                      Dirichlet(selector=_box(q), axes=(False, False, True))]
    bcs = BoundaryConditions(
        dirichlet=dirichlet,
        neumann=[Neumann(selector=_box(force_at), force=force)],
    )
    return build_truss_model(g, MAT, 0.01, bcs)


def test_pins_on_one_line_leave_a_mechanism():
    # Both ends of an oblique straight chain pinned: it can spin about the
    # line through them. Six fixed DOFs, but they hold only five motions.
    d = np.array([1.0, 0.4, 0.3])
    pts = [0.0 * d, 0.5 * d, d]
    model = _pinned(pts, [pts[0], pts[2]], pts[1], (0.0, 0.0, 1.0))
    with pytest.raises(NumericalError, match=r"mechanism.*\[0, 1, 2\]"):
        frame_fem(model)


def test_pins_off_one_line_hold_the_frame():
    # Three pins not on one line hold all six motions; the free end deflects.
    pts = [[0.3, 1.0, 0.1], [0.0, 0.0, 0.0], [1.0, 0.4, 0.3], [1.5, 0.2, 0.9]]
    model = _pinned(pts, pts[:3], pts[3], (0.0, 0.0, 1.0))
    res = frame_fem(model)
    assert np.all(np.isfinite(res.displacements))
    assert res.displacements[3, 2] > 0.0
    assert np.allclose(res.reactions[:, :3].sum(axis=0), [0.0, 0.0, -1.0])


def test_slender_oblique_cantilever_is_not_a_mechanism():
    # A clamped two-member cantilever of r/L = 1e-4 along an oblique axis,
    # loaded across it: well posed, but the axial stiffness is ~1e8 times
    # the bending stiffness, so the residual is large next to the load alone.
    d = np.array([3.0, 1.0, 2.0]) / np.sqrt(14.0)
    t = np.array([-1.0, 1.0, 1.0])
    t -= (t @ d) * d
    t /= np.linalg.norm(t)
    g = _graph([[0.0, 0.0, 0.0], d, 2.0 * d], [[0, 1], [1, 2]])
    bcs = BoundaryConditions(
        dirichlet=[Dirichlet(selector=_box([0, 0, 0]))],
        neumann=[Neumann(selector=_box(2.0 * d), force=tuple(t))],
    )
    radius = 1e-4
    res = frame_fem(build_truss_model(g, MAT, radius, bcs))
    inertia = np.pi * radius ** 4 / 4.0
    expected = 2.0 ** 3 / (3.0 * MAT.young_modulus * inertia)
    assert abs(res.displacements[2, :3] @ t - expected) <= 1e-6 * expected


def test_bc_mapping_nearest_node_fallback():
    g = _graph([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]], [[0, 1]])
    bcs = BoundaryConditions(
        dirichlet=[Dirichlet(selector={"type": "sphere",
                                       "center": [-0.3, 0.05, 0.0],
                                       "radius": 1e-3})],
        neumann=[Neumann(selector={"type": "sphere",
                                   "center": [1.4, 0.0, 0.0],
                                   "radius": 1e-3},
                         force=(0.0, -1.0, 0.0))],
    )
    with pytest.warns(BoundaryWarning) as record:
        model = build_truss_model(g, MAT, 0.01, bcs)
    assert [str(w.message) for w in record] == [
        "sphere selector matched no truss node; using the nearest node 0",
        "sphere selector matched no truss node; using the nearest node 1",
    ]
    assert model.fixed[0].all()
    assert not model.fixed[1].any()
    assert np.allclose(model.loads[1, :3], [0.0, -1.0, 0.0])
    assert np.all(model.loads[0] == 0.0)


def test_bc_mapping_split_and_axes():
    g = _graph([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0]],
               [[0, 1], [1, 2]])
    bcs = BoundaryConditions(
        dirichlet=[
            Dirichlet(selector=_box([0, 0, 0])),
            Dirichlet(selector=_box([2, 0, 0]), axes=(False, True, True)),
        ],
        neumann=[Neumann(selector={"type": "box",
                                   "min": [-0.5, -0.5, -0.5],
                                   "max": [1.5, 0.5, 0.5]},
                         force=(0.0, -4.0, 0.0))],
    )
    model = build_truss_model(g, MAT, 0.01, bcs)
    assert model.fixed[0].all()           # full clamp locks rotations too
    assert list(model.fixed[2]) == [False, True, True, False, False, False]
    assert np.allclose(model.loads[0, :3], [0.0, -2.0, 0.0])
    assert np.allclose(model.loads[1, :3], [0.0, -2.0, 0.0])
    assert np.all(model.loads[2] == 0.0)


def test_bc_mapping_indices_and_errors():
    g = _graph([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]], [[0, 1]])
    bcs = BoundaryConditions(
        dirichlet=[Dirichlet(selector={"type": "indices", "values": [0]})],
    )
    model = build_truss_model(g, MAT, 0.01, bcs)
    assert model.fixed[0].all()

    # A repeated index names its node once and gets the whole force.
    g3 = _graph([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0]],
                [[0, 1], [1, 2]])
    model = build_truss_model(g3, MAT, 0.01, BoundaryConditions(
        dirichlet=[Dirichlet(selector={"type": "indices", "values": [0]})],
        neumann=[Neumann(selector={"type": "indices", "values": [2, 2]},
                         force=(0.0, -4.0, 0.0))],
    ))
    assert model.loads[2, 1] == -4.0
    assert model.loads.sum() == -4.0

    with pytest.raises(ConfigError, match="at least 6"):
        build_truss_model(g, MAT, 0.01, BoundaryConditions(
            dirichlet=[Dirichlet(selector=_box([0, 0, 0]),
                                 axes=(True, False, False))],
        ))
    with pytest.raises(ConfigError, match="prescribed"):
        build_truss_model(g, MAT, 0.01, BoundaryConditions(
            dirichlet=[Dirichlet(selector=_box([0, 0, 0]),
                                 value=(0.1, 0.0, 0.0))],
        ))


def test_gravity_loads():
    g = _graph([[0.0, 0.0, 0.0], [0.0, 0.0, 2.0]], [[0, 1]])
    mat = Material(young_modulus=2.3e9, poisson_ratio=0.3,
                   density=1200.0, yield_strength=48e6)
    bcs = BoundaryConditions(
        dirichlet=[Dirichlet(selector=_box([0, 0, 0]))],
        gravity=(0.0, 0.0, -9.81),
    )
    radius = 0.01
    model = build_truss_model(g, mat, radius, bcs)
    half = 1200.0 * np.pi * radius ** 2 * 2.0 * 9.81 / 2.0
    assert abs(model.loads[0, 2] + half) <= 1e-12 * half
    assert abs(model.loads[1, 2] + half) <= 1e-12 * half


def test_report_writer(tmp_path):
    model = _cantilever()
    res = frame_fem(model)
    lam = capacity(model)
    p1 = tmp_path / "report.txt"
    p2 = tmp_path / "again.txt"
    write_report(p1, model, res, lam)
    write_report(p2, model, res, lam)
    text = p1.read_text()
    assert text == p2.read_text()
    assert f"lambda_star {lam:.9e}" in text
    assert "max_stress_element 0" in text
    assert "utilization" in text
    body = [ln for ln in text.splitlines() if ln and ln[0].isdigit()]
    assert len(body) == model.graph.num_elements


def reference_write_report(path, model, result, lambda_star):
    """write_report's former per-row writer, kept as its oracle."""
    g = model.graph
    yield_s = model.material.yield_strength
    combined = np.abs(result.axial_stress) + np.abs(result.bending_stress)
    lines = [
        "truss verification report",
        f"nodes {g.num_nodes} elements {g.num_elements}",
        f"yield_strength {yield_s:.6e}",
        "element family length_m area_m2 sigma_axial_pa sigma_bending_pa "
        "utilization",
    ]
    lengths = g.element_lengths()
    for eidx in range(g.num_elements):
        lines.append(
            f"{eidx} {g.families[eidx]} {lengths[eidx]:.6e} "
            f"{model.areas[eidx]:.6e} {result.axial_stress[eidx]:+.6e} "
            f"{result.bending_stress[eidx]:.6e} "
            f"{combined[eidx] / yield_s:.6e}"
        )
    if g.num_elements:
        worst = int(np.argmax(combined))
        lines.append(f"max_stress_element {worst} "
                     f"combined {combined[worst]:.6e}")
    lines.append(f"lambda_star {lambda_star:.9e}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_report_matches_per_row_oracle_bytes(seed, tmp_path):
    g, mat, radii, bcs = random_frame_case(seed)
    model = build_truss_model(g, mat, radii, bcs)
    solved = frame_fem(model)
    # Negative, zero and negative-zero stresses beside the solved ones.
    axial = solved.axial_stress.copy()
    bending = solved.bending_stress.copy()
    axial[:4] = [-3.5e7, 0.0, -0.0, 1e-300]
    bending[:3] = [0.0, 2.5e6, 0.0]
    result = FrameResult(solved.displacements, solved.reactions,
                         solved.axial_force, axial, bending)
    assert (axial < 0).any() and (axial > 0).any()
    got, want = tmp_path / "got.txt", tmp_path / "want.txt"
    lam = capacity(model)
    write_report(got, model, result, lam)
    reference_write_report(want, model, result, lam)
    assert got.read_bytes() == want.read_bytes()
    assert b"-0.000000e+00" in got.read_bytes()


# ---------------------------------------------------------------------------
# Oracle: the per-element frame FEM that frame_fem computes in batch.


def reference_local_stiffness(ea_l, gj_l, ei, length):
    k = np.zeros((12, 12))
    k[np.ix_((0, 6), (0, 6))] = ea_l * np.array([[1.0, -1.0], [-1.0, 1.0]])
    k[np.ix_((3, 9), (3, 9))] = gj_l * np.array([[1.0, -1.0], [-1.0, 1.0]])
    L = length
    c = ei / L ** 3
    kz = c * np.array([
        [12.0, 6 * L, -12.0, 6 * L],
        [6 * L, 4 * L * L, -6 * L, 2 * L * L],
        [-12.0, -6 * L, 12.0, -6 * L],
        [6 * L, 2 * L * L, -6 * L, 4 * L * L],
    ])
    k[np.ix_((1, 5, 7, 11), (1, 5, 7, 11))] = kz
    ky = c * np.array([
        [12.0, -6 * L, -12.0, -6 * L],
        [-6 * L, 4 * L * L, 6 * L, 2 * L * L],
        [-12.0, 6 * L, 12.0, 6 * L],
        [-6 * L, 2 * L * L, 6 * L, 4 * L * L],
    ])
    k[np.ix_((2, 4, 8, 10), (2, 4, 8, 10))] = ky
    return k


def reference_element_frame(p0, p1):
    axis = p1 - p0
    length = float(np.linalg.norm(axis))
    u = axis / length
    e = np.zeros(3)
    e[int(np.argmin(np.abs(u)))] = 1.0
    e1 = np.cross(u, e)
    e1 /= np.linalg.norm(e1)
    return length, np.vstack([u, e1, np.cross(u, e1)])


def _block_diagonal(lam):
    T = np.zeros((12, 12))
    for blk in range(4):
        T[3 * blk:3 * blk + 3, 3 * blk:3 * blk + 3] = lam
    return T


def reference_frame_fem(model):
    g = model.graph
    n = g.num_nodes
    E = model.material.young_modulus
    G = E / (2.0 * (1.0 + model.material.poisson_ratio))
    frames = [reference_element_frame(g.positions[a], g.positions[b])
              for a, b in g.elements]
    rows, cols, vals = [], [], []
    for eidx, (a, b) in enumerate(g.elements):
        length, lam = frames[eidx]
        inertia = model.moments[eidx]
        k_loc = reference_local_stiffness(
            E * model.areas[eidx] / length, G * (2.0 * inertia) / length,
            E * inertia, length)
        T = _block_diagonal(lam)
        k_glob = T.T @ k_loc @ T
        k_glob = 0.5 * (k_glob + k_glob.T)
        dofs = np.concatenate([6 * int(a) + np.arange(6),
                               6 * int(b) + np.arange(6)])
        for i in range(12):
            rows.extend(dofs)
            cols.extend([dofs[i]] * 12)
            vals.extend(k_glob[:, i])
    K = sp.coo_matrix((vals, (rows, cols)), shape=(6 * n, 6 * n)).tocsr()
    K = ((K + K.T) * 0.5).tocsr()
    f = model.loads.ravel()
    free = np.nonzero(~model.fixed.ravel())[0]
    d = np.zeros(6 * n)
    d[free] = spla.splu(K[free][:, free].tocsc(), permc_spec="MMD_AT_PLUS_A",
                        diag_pivot_thresh=0.0,
                        options={"SymmetricMode": True}).solve(f[free])
    reactions = (K @ d - f).reshape(n, 6)

    ne = g.num_elements
    axial_force, axial_stress, bending_stress = np.zeros((3, ne))
    for eidx, (a, b) in enumerate(g.elements):
        length, lam = frames[eidx]
        T = _block_diagonal(lam)
        u_loc = T @ np.concatenate([d[6 * a:6 * a + 6], d[6 * b:6 * b + 6]])
        inertia = model.moments[eidx]
        k_loc = reference_local_stiffness(
            E * model.areas[eidx] / length, G * 2.0 * inertia / length,
            E * inertia, length)
        f_loc = k_loc @ u_loc
        axial_force[eidx] = f_loc[6]
        axial_stress[eidx] = f_loc[6] / model.areas[eidx]
        m1 = np.hypot(f_loc[4], f_loc[5])
        m2 = np.hypot(f_loc[10], f_loc[11])
        bending_stress[eidx] = max(m1, m2) * model.radii[eidx] / inertia
    return FrameResult(d.reshape(n, 6), reactions, axial_force,
                       axial_stress, bending_stress)


def reference_gravity_loads(model, gravity, loads):
    """``loads`` plus half of each element's weight on both endpoints."""
    g = model.graph
    loads = loads.copy()
    gacc = np.asarray(gravity, dtype=float)
    lengths = g.element_lengths()
    for eidx, (a, b) in enumerate(g.elements):
        w = (model.material.density * model.areas[eidx] * lengths[eidx]
             * gacc / 2.0)
        loads[a, :3] += w
        loads[b, :3] += w
    return loads


def random_frame_graph(rng, n=40, extra=25):
    """Connected random graph: a random tree plus extra chords. A third of
    the tree members lie along a coordinate axis (ties in the argmin of
    |axis|), and one along (1, 1, 1) (a three-way tie)."""
    positions = [rng.uniform(0.0, 1.0, 3)]
    edges = []
    for i in range(1, n):
        j = int(rng.integers(i))
        if i % 3 == 0:
            step = np.zeros(3)
            step[i % 9 // 3] = rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 0.5)
        elif i == 1:
            step = np.full(3, rng.uniform(0.1, 0.5))
        else:
            step = rng.normal(0.0, 0.3, 3)
        positions.append(positions[j] + step)
        edges.append((j, i))
    while len(edges) < n - 1 + extra:
        a, b = sorted(int(v) for v in rng.choice(n, 2, replace=False))
        if (a, b) not in edges:
            edges.append((a, b))
    families = [str(f) for f in rng.choice(["iso1", "iso2", "boundary"],
                                           len(edges))]
    return _graph(positions, edges, families)


def _same_bits(a, b):
    return (a.shape == b.shape and a.dtype == b.dtype
            and a.tobytes() == b.tobytes())


def random_frame_case(seed):
    """A random frame graph held at node 0, with four point loads and
    gravity, its material and its three member radii."""
    rng = np.random.default_rng(seed)
    g = random_frame_graph(rng)
    mat = Material(young_modulus=2.3e9, poisson_ratio=0.3, density=1200.0,
                   yield_strength=48e6)
    bcs = BoundaryConditions(
        dirichlet=[Dirichlet(selector={"type": "indices", "values": [0]})],
        neumann=[Neumann(selector={"type": "indices", "values": [n]},
                         force=tuple(rng.normal(0.0, 10.0, 3)))
                 for n in rng.choice(g.num_nodes, 4, replace=False)],
        gravity=(0.0, 0.0, -9.81),
    )
    return g, mat, {"iso1": 0.004, "iso2": 0.007, "default": 0.0025}, bcs


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_frame_fem_matches_per_element_oracle_bitwise(seed):
    g, mat, radii, bcs = random_frame_case(seed)
    model = build_truss_model(g, mat, radii, bcs)
    assert len(set(model.radii.tolist())) == 3

    no_gravity = build_truss_model(g, mat, radii, BoundaryConditions(
        dirichlet=bcs.dirichlet, neumann=bcs.neumann))
    assert _same_bits(model.loads, reference_gravity_loads(
        model, bcs.gravity, no_gravity.loads))

    got, want = frame_fem(model), reference_frame_fem(model)
    for field in ("displacements", "reactions", "axial_force",
                  "axial_stress", "bending_stress"):
        assert _same_bits(getattr(got, field), getattr(want, field)), field
    assert np.abs(got.bending_stress).max() > 0.0


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_frame_solve_matches_spsolve(seed, monkeypatch):
    g, mat, radii, bcs = random_frame_case(seed)
    systems = []

    def capture(A, b, what, *record):
        systems.append((A, b))
        return solve_lu(A, b, what, *record)

    monkeypatch.setattr(verify, "solve_lu", capture)
    frame_fem(build_truss_model(g, mat, radii, bcs))
    (A, b), = systems
    x, ref = solve_lu(A, b, "frame stiffness"), spla.spsolve(A.tocsc(), b)
    assert np.linalg.norm(x - ref) <= 1e-6 * np.linalg.norm(ref)
    resid = np.abs(A @ x - b).max()     # _accepted's normwise backward error
    assert resid <= 1e-8 * (spla.norm(A, np.inf) * np.abs(x).max()
                            + np.abs(b).max())


def column_major_assemble(model, lam, k_loc):
    """verify's former global assembly, kept as the oracle of
    ``mesh.assemble``: COO triplets element by element, column by column,
    summed by ``tocsr``."""
    n, ne = model.graph.num_nodes, len(lam)
    k_glob = lam.transpose(0, 2, 1)[:, None] @ k_loc.reshape(ne, 4, 3, 12)
    k_glob = (k_glob.reshape(ne, 12, 4, 3) @ lam[:, None]).reshape(ne, 12, 12)
    k_glob = 0.5 * (k_glob + k_glob.transpose(0, 2, 1))
    dofs = (6 * model.graph.elements[:, :, None]
            + np.arange(6)).reshape(-1, 12)
    rows = np.broadcast_to(dofs[:, None, :], (ne, 12, 12)).ravel()
    cols = np.broadcast_to(dofs[:, :, None], (ne, 12, 12)).ravel()
    vals = k_glob.ravel()
    K = sp.coo_matrix((vals, (rows, cols)), shape=(6 * n, 6 * n)).tocsr()
    return ((K + K.T) * 0.5).tocsr()


def test_assembly_matches_column_major_oracle_on_pipeline_graph(bar_field):
    mesh, pert, features = bar_field
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ExtractionWarning)
        g = merge_graphs([extract_3d(mesh, pert),
                          extract_boundary(mesh, pert, features)])
    g = simplify(g, default_length_threshold(g))
    bcs = BoundaryConditions(
        dirichlet=[Dirichlet(selector=_box([0.0, 0.025, 0.025], 0.03))],
        neumann=[Neumann(selector=_box([0.2, 0.025, 0.025], 0.03),
                         force=(0.0, -100.0, 0.0))],
    )
    model = build_truss_model(g, MAT, 0.003, bcs)
    lengths, lam = verify._element_frames(model)
    k_loc = verify._element_stiffness(model, lengths)
    got = verify._assemble(model, lam, k_loc)
    want = column_major_assemble(model, lam, k_loc)
    assert g.num_elements > 1000
    for part in ("indptr", "indices", "data"):
        assert _same_bits(getattr(got, part), getattr(want, part)), part
