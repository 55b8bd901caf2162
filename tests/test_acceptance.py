"""Acceptance suite: one test per release guarantee, at the contract
tolerances. Everything runs on the built-in desk-scale fixtures; the whole
file is expected to finish in about a minute."""

from __future__ import annotations

import json
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

from stresstruss import artifacts
from stresstruss.config import parse_config
from stresstruss.extract import (
    ExtractionWarning,
    INTERIOR_FAMILIES,
    extract_3d,
    perturb_parametrization,
)
from stresstruss.fem import (
    BoundaryConditions,
    Dirichlet,
    Material,
    Neumann,
    cauchy_stress,
    solve_static,
    stress_spd,
)
from stresstruss.fixtures import bar_mesh, box_mesh, unit_cube_mesh
from stresstruss.frames import (FrameFitConfig, fit_constants,
                                fit_frame_field, total_energy_grad)
from stresstruss.mesh import build_operators
from stresstruss.param import (
    directional_gradient,
    evaluate_objective,
    normalize_and_scale,
    solve_parametrization,
)
from stresstruss.pipeline import STAGE_ORDER, mesh_from_config, run_stage
from stresstruss.postprocess import simplify
from stresstruss.verify import build_truss_model, capacity, frame_fem

MAT = Material(young_modulus=2.3e9, poisson_ratio=0.3, yield_strength=4.8e7)

BENDING_BAR_DOC = {
    "mesh": {"fixture": "bar"},
    "material": {"young_modulus": 2.3e9, "poisson_ratio": 0.3,
                 "yield_strength": 4.8e7},
    "boundary_conditions": {
        "dirichlet": [
            {"selector": {"type": "box", "min": [-1e-9, -1.0, -1.0],
                          "max": [1e-9, 1.0, 1.0]}}
        ],
        "neumann": [
            {"selector": {"type": "box", "min": [0.1999999, -1.0, -1.0],
                          "max": [0.2000001, 1.0, 1.0]},
             "force": [0.0, -100.0, 0.0]}
        ],
    },
    "beta": 1.0,
    "rho": 10.0,
    "radius_policy": 0.0015,
}

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


# ---------------------------------------------------------------------------
# Helpers


def _vertex_at(mesh, point):
    d = np.linalg.norm(mesh.vertices - np.asarray(point, dtype=float), axis=1)
    i = int(np.argmin(d))
    assert d[i] < 1e-9
    return i


def _uniaxial_bcs(mesh, length, traction):
    """Roller on the -x face plus two pins; uniform traction on +x."""
    eps = 1e-9
    ymax = mesh.vertices[:, 1].max()
    area = (mesh.vertices[:, 1].max() - mesh.vertices[:, 1].min()) * (
        mesh.vertices[:, 2].max() - mesh.vertices[:, 2].min()
    )
    return BoundaryConditions(
        dirichlet=[
            Dirichlet({"type": "box", "min": [-eps, -1, -1],
                       "max": [eps, 1, 1]}, axes=(True, False, False)),
            Dirichlet({"type": "indices",
                       "values": [_vertex_at(mesh, (0, 0, 0))]},
                      axes=(False, True, True)),
            Dirichlet({"type": "indices",
                       "values": [_vertex_at(mesh, (0, ymax, 0))]},
                      axes=(False, False, True)),
        ],
        neumann=[
            Neumann({"type": "box", "min": [length - eps, -1, -1],
                     "max": [length + eps, 1, 1]},
                    force=(traction * area, 0.0, 0.0)),
        ],
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


def _integral_mask(g, tol=1e-9):
    return (np.abs(g.params - np.round(g.params)) <= tol).all(axis=1)


def _interior_element_angles(mesh, eigenvectors, g):
    """Angle (degrees) between each interior element direction and the
    nearest stress eigenvector of the tet containing the element midpoint."""
    v0 = mesh.vertices[mesh.tets[:, 0]]
    T = np.stack(
        [mesh.vertices[mesh.tets[:, k]] - v0 for k in (1, 2, 3)], axis=2)
    Tinv = np.linalg.inv(T)
    angles = []
    for eidx, (a, b) in enumerate(g.elements):
        if g.families[eidx] not in INTERIOR_FAMILIES:
            continue
        pa, pb = g.positions[a], g.positions[b]
        mid = 0.5 * (pa + pb)
        d = pb - pa
        d = d / np.linalg.norm(d)
        bary = np.einsum("mij,mj->mi", Tinv, mid[None, :] - v0)
        w0 = 1.0 - bary.sum(axis=1)
        t = int(np.argmax(np.minimum(bary.min(axis=1), w0)))
        c = np.abs(eigenvectors[t].T @ d).max()
        angles.append(np.degrees(np.arccos(np.clip(c, -1.0, 1.0))))
    return np.asarray(angles)


def _graph_for_verify(positions, elements):
    from stresstruss.extract import TrussGraph
    positions = np.asarray(positions, dtype=float)
    elements = np.asarray(elements, dtype=np.int64).reshape(-1, 2)
    return TrussGraph(
        positions=positions,
        params=np.zeros((len(positions), 3)),
        tags=["interior_grid"] * len(positions),
        elements=elements,
        families=["iso1"] * len(elements),
    )


def _point_box(point, pad=1e-6):
    p = np.asarray(point, dtype=float)
    return {"type": "box", "min": (p - pad).tolist(),
            "max": (p + pad).tolist()}


# ---------------------------------------------------------------------------
# Shared fixtures


@pytest.fixture(scope="module")
def uniaxial_field():
    mesh = bar_mesh()
    bcs = _uniaxial_bcs(mesh, 0.2, 1e6)
    u = solve_static(mesh, MAT, bcs)
    return mesh, stress_spd(cauchy_stress(mesh, MAT, u))[0]


@pytest.fixture(scope="module")
def uniaxial_fit(uniaxial_field):
    mesh, field = uniaxial_field
    cfg = FrameFitConfig(outer_iterations=30)
    return mesh, field, fit_frame_field(mesh, field, cfg)


@pytest.fixture(scope="module")
def bending_pipeline(tmp_path_factory):
    out = tmp_path_factory.mktemp("bending")
    cfg = parse_config(BENDING_BAR_DOC)
    start = time.perf_counter()
    for stage in STAGE_ORDER:
        run_stage(stage, cfg, out_dir=out)
    elapsed = time.perf_counter() - start
    return cfg, out, elapsed


@pytest.fixture(scope="module")
def affine_cube():
    mesh = unit_cube_mesh(5, jitter=0.3)
    p = perturb_parametrization(4.0 * mesh.vertices, mesh.tets)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ExtractionWarning)
        g = extract_3d(mesh, p)
    return mesh, p, g


# ---------------------------------------------------------------------------
# The twelve checks


def test_01_patch_test_uniform_stress():
    """Uniaxial traction on the bar reproduces the uniform stress state to
    1e-6 relative, in under five seconds on the ~2k-tet fixture."""
    mesh = bar_mesh()
    assert 1500 <= mesh.num_tets <= 2500
    traction = 1e6
    start = time.perf_counter()
    u = solve_static(mesh, MAT, _uniaxial_bcs(mesh, 0.2, traction))
    field = cauchy_stress(mesh, MAT, u)
    elapsed = time.perf_counter() - start
    target = np.zeros((3, 3))
    target[0, 0] = traction
    err = np.abs(field.sigma - target).max() / traction
    assert err <= 1e-6, f"max relative stress deviation {err:.3e}"
    assert elapsed < 5.0, f"patch test took {elapsed:.2f}s"


def test_02_spd_surrogate_contract():
    """Rescaled eigenvalues sit in [1, 30] and the surrogate keeps the
    original eigenvectors."""
    mesh = bar_mesh()
    bcs = BoundaryConditions(
        dirichlet=[Dirichlet({"type": "box", "min": [-1e-9, -1, -1],
                              "max": [1e-9, 1, 1]})],
        neumann=[Neumann({"type": "box", "min": [0.2 - 1e-9, -1, -1],
                          "max": [0.2 + 1e-9, 1, 1]},
                         force=(0.0, -100.0, 0.0))],
    )
    u = solve_static(mesh, MAT, bcs)
    field = cauchy_stress(mesh, MAT, u)
    sigma_plus, lam = stress_spd(field)
    assert lam.min() >= 1.0 - 1e-9
    assert lam.max() <= 30.0 + 1e-9
    # sigma_plus q_i = lam'_i q_i for every retained eigenpair
    resid = sigma_plus @ field.eigenvectors - \
        field.eigenvectors * lam[:, None, :]
    assert np.abs(resid).max() <= 1e-8


def test_03_frame_energy_gradient():
    """Analytic gradient of the fitting energy agrees with central finite
    differences to 1e-4 relative at 100 random states."""
    rng = np.random.default_rng(402)
    mesh = unit_cube_mesh(2)
    L = build_operators(mesh)
    tets = mesh.tets
    n = mesh.num_vertices
    m = mesh.num_tets
    for trial in range(100):
        A = rng.standard_normal((m, 3, 3))
        spd = np.einsum("tik,tjk->tij", A, A) + 0.5 * np.eye(3)
        omega = rng.standard_normal((n, 3))
        alpha = float(rng.choice([0.0, 0.7, 4.0]))
        fit = fit_constants(spd, tets, L)
        e0, grad = total_energy_grad(omega, alpha, fit)
        d = rng.standard_normal((n, 3))
        d /= np.linalg.norm(d)
        h = 1e-6 * max(np.linalg.norm(omega), 1.0)
        ep, _ = total_energy_grad(omega + h * d, alpha, fit)
        em, _ = total_energy_grad(omega - h * d, alpha, fit)
        fd = (ep - em) / (2.0 * h)
        an = float((grad * d).sum())
        assert abs(an - fd) <= 1e-4 * max(abs(fd), 1e-8), f"state {trial}"


def test_04_annealed_fit_on_uniaxial_bar(uniaxial_fit):
    """Data energy never increases across the 30 outer iterations, and the
    first frame axis locks onto the bar axis almost everywhere."""
    _mesh, _field, ff = uniaxial_fit
    energies = [row["energy"] for row in ff.outer]
    assert len(energies) == 30
    for k in range(1, 30):
        slack = 1e-8 * max(1.0, abs(energies[k - 1]))
        assert energies[k] <= energies[k - 1] + slack, \
            f"outer {k}: {energies[k - 1]} -> {energies[k]}"
    r1 = ff.frames[:, :, 0]
    ang = np.arccos(np.clip(np.abs(r1[:, 0]), -1.0, 1.0))
    frac = float((ang <= 1e-2).mean())
    assert frac >= 0.99, f"r1 within 1e-2 rad of the bar axis: {frac:.4f}"


def test_05_frame_orthonormality(uniaxial_fit, bending_pipeline):
    """max ||R^T R - I||_F stays below 1e-9 on every fitted fixture."""
    collected = []
    _mesh, _field, ff = uniaxial_fit
    collected.append(ff.frames)

    _cfg, out, _elapsed = bending_pipeline
    _meta, arrays = artifacts.read_field(out / "frames.field", kind="frames")
    collected.append(arrays["frames"])

    cube = unit_cube_mesh(3)
    cube_bcs = BoundaryConditions(
        dirichlet=[Dirichlet({"type": "box", "min": [-1, -1, -1e-9],
                              "max": [1, 1, 1e-9]})],
        neumann=[Neumann({"type": "box", "min": [-1, -1, 1 - 1e-9],
                          "max": [1, 1, 1 + 1e-9]},
                         force=(50.0, 0.0, 0.0))],
    )
    u = solve_static(cube, MAT, cube_bcs)
    cube_fit = fit_frame_field(cube,
                               stress_spd(cauchy_stress(cube, MAT, u))[0])
    collected.append(cube_fit.frames)

    box = box_mesh((4, 2, 2), size=(0.1, 0.05, 0.05))
    box_bcs = BoundaryConditions(
        dirichlet=[Dirichlet({"type": "box", "min": [-1e-9, -1, -1],
                              "max": [1e-9, 1, 1]})],
        neumann=[Neumann({"type": "box", "min": [0.1 - 1e-9, -1, -1],
                          "max": [0.1 + 1e-9, 1, 1]},
                         force=(0.0, -20.0, 0.0))],
    )
    u = solve_static(box, MAT, box_bcs)
    box_fit = fit_frame_field(box, stress_spd(cauchy_stress(box, MAT, u))[0])
    collected.append(box_fit.frames)

    worst = 0.0
    for frames in collected:
        gram = np.einsum("tij,tik->tjk", frames, frames)
        dev = np.linalg.norm(gram - np.eye(3), axis=(1, 2))
        worst = max(worst, float(dev.max()))
    assert worst <= 1e-9, f"worst ||R^T R - I||_F = {worst:.3e}"


def test_06_exact_fit_parametrization():
    """Identity frames on the unit cube reproduce the identity map: objective
    at machine zero and uniform directional gradients rho*s after scaling."""
    mesh = unit_cube_mesh(4, jitter=0.2)
    frames = np.tile(np.eye(3), (mesh.num_tets, 1, 1))
    phi = solve_parametrization(mesh, frames, beta=1.0)
    obj = evaluate_objective(mesh, frames, phi, 1.0)
    assert obj <= 1e-10, f"objective {obj:.3e}"

    rho = 6.0
    ranges = phi.max(axis=0) - phi.min(axis=0)
    s = 1.0 / float(ranges.max())
    phi_tilde = normalize_and_scale(phi, rho)
    for i in range(3):
        vals = directional_gradient(mesh, frames[:, :, i]) @ phi_tilde[:, i]
        assert np.abs(vals - rho * s).max() <= 1e-8, f"component {i}"


def test_07_affine_extraction_oracle(affine_cube):
    """phi = 4x on the jittered cube yields exactly the 27 interior integer
    preimages with grid adjacency; a skewed affine map matches its inverse."""
    _mesh, _p, g = affine_cube
    integral = _integral_mask(g)
    got = g.positions[integral]
    assert len(got) == 27
    expected = np.array([[i / 4, j / 4, k / 4]
                         for i in (1, 2, 3) for j in (1, 2, 3)
                         for k in (1, 2, 3)])
    key = np.round(g.params[integral]).astype(int)
    order = np.lexsort((key[:, 2], key[:, 1], key[:, 0]))
    assert np.allclose(got[order], expected, atol=1e-7)

    # adjacency: walk iso chains between integral nodes, compare with the
    # 3x3x3 grid graph
    adj = {}
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
            while not integral[cur]:
                nxt = [x for x in adj.get(cur, ()) if x != prev]
                if len(nxt) != 1:
                    ok = False
                    break
                prev, cur = cur, nxt[0]
            if ok and cur != int(start):
                pairs.add(tuple(sorted((keys[int(start)], keys[cur]))))
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

    mesh2 = unit_cube_mesh(4, jitter=0.25)
    A = np.array([[3.1, 0.7, -0.4], [-0.5, 2.7, 0.6], [0.3, -0.6, 2.9]])
    b = np.array([0.37017, 0.45071, 0.29031])
    phi = mesh2.vertices @ A.T + b
    p2 = perturb_parametrization(phi, mesh2.tets)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ExtractionWarning)
        g2 = extract_3d(mesh2, p2)
    lo = np.floor(phi.min(axis=0)).astype(int)
    hi = np.ceil(phi.max(axis=0)).astype(int)
    oracle = []
    for n0 in range(lo[0], hi[0] + 1):
        for n1 in range(lo[1], hi[1] + 1):
            for n2 in range(lo[2], hi[2] + 1):
                x = np.linalg.solve(A, np.array([n0, n1, n2], float) - b)
                if (x > 0.0).all() and (x < 1.0).all():
                    oracle.append(tuple(x))
    # jittered-tet interpolation leaves ~1e-12 noise on positions, so sort
    # both sides on rounded keys, not raw floats
    def _by_rounded(a):
        a = np.asarray(a)
        return a[np.lexsort(tuple(np.round(a, 6).T[::-1]))]

    oracle = _by_rounded(oracle)
    got2 = _by_rounded(g2.positions[_integral_mask(g2)])
    assert len(got2) == len(oracle)
    assert np.allclose(got2, oracle, atol=1e-7)


def test_08_perturbation_guard():
    """After the guard no value sits within 1e-9 of an integer, and values
    that were not near an integer come through bit-identical."""
    phi = np.array([
        [0.0, 0.3, 1.0 + 5e-10],
        [2.0 - 1e-12, 1.7, 0.5],
        [3.0, 2.4999, 1.0000001],
        [0.25, 7.0 + 9e-10, 1.3],
    ])
    cells = np.array([[0, 1], [1, 2], [2, 3], [3, 0]])
    out = perturb_parametrization(phi, cells)
    assert (np.abs(out - np.round(out)) > 1e-9).all()
    near = np.abs(phi - np.round(phi)) < 1e-9
    same = out == phi
    assert same[~near].all()
    assert (~same[near]).all()


def test_09_simplification_invariants(affine_cube, bending_pipeline):
    """Component count is invariant under simplification; the affine cube
    collapses to exactly its interior grid points."""
    _mesh, _p, g = affine_cube
    s = simplify(g)
    assert _num_components(s) == _num_components(g)

    integral = _integral_mask(s)
    got = s.positions[integral]
    key = np.round(s.params[integral]).astype(int)
    order = np.lexsort((key[:, 2], key[:, 1], key[:, 0]))
    expected = np.array([[i / 4, j / 4, k / 4]
                         for i in (1, 2, 3) for j in (1, 2, 3)
                         for k in (1, 2, 3)])
    assert len(got) == 27
    assert np.allclose(got[order], expected, atol=1e-7)

    _cfg, out, _elapsed = bending_pipeline
    raw = artifacts.read_graph(out / "graph.json")
    simp = artifacts.read_graph(out / "graph_simplified.json")
    assert _num_components(simp) == _num_components(raw)


def test_10_truss_verification_fixtures():
    """Cantilever tip deflection and two-bar member force match closed forms
    to 1e-6; the capacity factor scales exactly with the load."""
    length, radius, F = 1.0, 0.01, 1.0
    g = _graph_for_verify([[0, 0, 0], [length, 0, 0]], [[0, 1]])
    bcs = BoundaryConditions(
        dirichlet=[Dirichlet(selector=_point_box([0, 0, 0]))],
        neumann=[Neumann(selector=_point_box([length, 0, 0]),
                         force=(0.0, F, 0.0))],
    )
    model = build_truss_model(g, MAT, radius, bcs)
    res = frame_fem(model)
    inertia = np.pi * radius ** 4 / 4.0
    tip = F * length ** 3 / (3.0 * MAT.young_modulus * inertia)
    assert abs(res.displacements[1, 1] - tip) <= 1e-6 * tip

    g2 = _graph_for_verify(
        [[0, 0, 0], [-1, 1, 0], [1, 1, 0]], [[0, 1], [0, 2]])
    P = 40.0
    bcs2 = BoundaryConditions(
        dirichlet=[Dirichlet(selector=_point_box([-1, 1, 0])),
                   Dirichlet(selector=_point_box([1, 1, 0]))],
        neumann=[Neumann(selector=_point_box([0, 0, 0]),
                         force=(0.0, -P, 0.0))],
    )
    model2 = build_truss_model(g2, MAT, 1e-4, bcs2)
    res2 = frame_fem(model2)
    expected = P / np.sqrt(2.0)
    for f in res2.axial_force:
        assert abs(f - expected) <= 1e-6 * expected

    lam1 = capacity(model2)
    lam2 = capacity(model2, template=2.0 * model2.loads)
    assert abs(lam2 - lam1 / 2.0) <= 1e-9 * lam1


def test_11_interior_elements_track_stress(bending_pipeline):
    """On the bending bar, at least 70% of interior truss elements should
    come out within 15 degrees of the nearest stress eigenvector of the tet
    containing them, with the whole pipeline under ten minutes."""
    cfg, out, elapsed = bending_pipeline
    assert elapsed < 600.0, f"pipeline took {elapsed:.1f}s"
    mesh = mesh_from_config(cfg)
    _meta, arrays = artifacts.read_field(out / "fea.field", kind="stress")
    g = artifacts.read_graph(out / "graph_simplified.json")
    angles = _interior_element_angles(mesh, arrays["eigenvectors"], g)
    assert len(angles) >= 50
    frac = float((angles <= 15.0).mean())
    assert frac >= 0.70, (
        f"interior element alignment {frac:.3f} ({int((angles <= 15).sum())}"
        f"/{len(angles)} within 15 deg), required 0.70; median angle "
        f"{float(np.median(angles)):.1f} deg")


def test_12_pipeline_determinism(tmp_path):
    """Two identical CLI pipeline runs emit byte-identical graph artifacts."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(SMALL_BAR_DOC))
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        r = subprocess.run(
            [sys.executable, "-m", "stresstruss", "--config", str(cfg_path),
             "--out", str(out), "--log-level", "warning"],
            capture_output=True, text=True)
        assert r.returncode == 0, r.stderr
        outs.append(out)
    for fname in ("graph.json", "graph_simplified.json"):
        a = (outs[0] / fname).read_bytes()
        b = (outs[1] / fname).read_bytes()
        assert a == b, f"{fname} differs between runs"
