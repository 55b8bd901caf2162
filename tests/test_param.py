import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from stresstruss import artifacts

from stresstruss.errors import ConfigError, NumericalError
from stresstruss.fem import cauchy_stress, solve_static, stress_spd
from stresstruss.fixtures import bar_mesh, box_mesh, unit_cube_mesh
from stresstruss.frames import (fit_frame_field, rotations_from_axis_vectors,
                                tet_frames)
from stresstruss.mesh import TetMesh
from stresstruss.param import (
    directional_gradient,
    evaluate_objective,
    normalize_and_scale,
    objective_terms,
    solve_parametrization,
)
from stresstruss.pipeline import mesh_from_config

from test_fem import MAT, patch_test_bcs


def identity_frames(m):
    return np.broadcast_to(np.eye(3), (m, 3, 3)).copy()


def test_directional_gradient_examples():
    mesh = box_mesh((2, 2, 2), jitter=0.07)
    m = mesh.num_tets
    f = mesh.vertices[:, 0]
    e1 = np.tile([1.0, 0.0, 0.0], (m, 1))
    e2 = np.tile([0.0, 1.0, 0.0], (m, 1))
    np.testing.assert_allclose(directional_gradient(mesh, e1) @ f, 1.0, atol=1e-12)
    np.testing.assert_allclose(directional_gradient(mesh, e2) @ f, 0.0, atol=1e-12)

    rng = np.random.default_rng(13)
    a = rng.standard_normal(3)
    fa = mesh.vertices @ a
    v = rng.standard_normal((m, 3))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    np.testing.assert_allclose(
        directional_gradient(mesh, v) @ fa, v @ a, atol=1e-12 * max(1, np.abs(a).max())
    )
    with pytest.raises(ConfigError):
        directional_gradient(mesh, v[:-1])


def triplet_directional_gradient(mesh, v):
    """G_v as diags(v_x) @ G_x + diags(v_y) @ G_y + diags(v_z) @ G_z, each
    per-axis gradient matrix G_a assembled from (tet, vertex) triplets of
    ``mesh.grads``: the construction ``directional_gradient`` replaced."""
    m, n = mesh.num_tets, mesh.num_vertices
    rows, cols = np.repeat(np.arange(m), 4), mesh.tets.ravel()
    G = [sp.csr_matrix((mesh.grads[:, :, a].ravel(), (rows, cols)),
                       shape=(m, n)) for a in range(3)]
    return (sp.diags(v[:, 0]) @ G[0] + sp.diags(v[:, 1]) @ G[1]
            + sp.diags(v[:, 2]) @ G[2]).tocsr().sorted_indices()


@pytest.mark.parametrize("directions", ["random", "axis-aligned"])
@pytest.mark.parametrize("make_mesh", [
    bar_mesh, lambda: bar_mesh(jitter=0.1),
    lambda: box_mesh((6, 5, 4), jitter=0.12)],
    ids=["bar", "bar-jittered", "box-jittered"])
def test_directional_gradient_matches_triplet_oracle(make_mesh, directions):
    # Axis-aligned directions meet grad(lambda_i) components that are
    # exactly zero, which the sparse products drop.
    mesh = make_mesh()
    m = mesh.num_tets
    rng = np.random.default_rng(11)
    if directions == "random":
        v = rng.standard_normal((m, 3))
    else:
        v = np.eye(3)[rng.integers(0, 3, m)] * rng.choice([-1.0, 1.0], (m, 1))
    got = directional_gradient(mesh, v)
    want = triplet_directional_gradient(mesh, v)
    assert (want.nnz < 4 * m) == (directions == "axis-aligned")
    for part in ("data", "indices", "indptr"):
        a, b = getattr(got, part), getattr(want, part)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), part


def test_identity_frames_exact_fit():
    mesh = unit_cube_mesh(3, jitter=0.06)
    frames = identity_frames(mesh.num_tets)
    phi = solve_parametrization(mesh, frames, beta=1.0)
    # phi = x + const: mean-zero gauge pins the constant.
    expected = mesh.vertices - mesh.vertices.mean(axis=0)
    np.testing.assert_allclose(phi, expected, atol=1e-8)
    assert evaluate_objective(mesh, frames, phi, 1.0) <= 1e-10
    assert np.abs(phi.mean(axis=0)).max() <= 1e-10


def test_constant_rotation_equivariance():
    mesh = unit_cube_mesh(2, jitter=0.09)
    base = solve_parametrization(mesh, identity_frames(mesh.num_tets))
    R0 = rotations_from_axis_vectors(np.array([[0.4, -0.3, 0.8]]))[0]
    rotated = np.broadcast_to(R0, (mesh.num_tets, 3, 3)).copy()
    phi = solve_parametrization(mesh, rotated)
    np.testing.assert_allclose(phi, base @ R0, atol=1e-8)


def test_quadratic_optimality_random_perturbations():
    rng = np.random.default_rng(29)
    mesh = box_mesh((2, 1, 2), jitter=0.1)
    s = rng.standard_normal((mesh.num_tets, 3)) * 0.2
    frames = rotations_from_axis_vectors(s)
    phi = solve_parametrization(mesh, frames, beta=1.0)
    base = evaluate_objective(mesh, frames, phi, 1.0)
    for _ in range(20):
        d = rng.standard_normal(phi.shape)
        d -= d.mean(axis=0)                 # stay inside the gauge
        d *= 1e-3 / np.linalg.norm(d)
        assert evaluate_objective(mesh, frames, phi + d, 1.0) >= base


def test_beta_tradeoff_monotone():
    # Curl-bearing frame field: rotation angle varies with x.
    mesh = box_mesh((3, 2, 2), jitter=0.05)
    centers = mesh.vertices[mesh.tets].mean(axis=1)
    s = np.stack([np.zeros(len(centers)), np.zeros(len(centers)),
                  1.5 * centers[:, 0]], axis=1)
    frames = rotations_from_axis_vectors(s)
    D, O = None, None
    spacing, ortho = [], []
    for beta in (0.1, 1.0, 10.0):
        phi = solve_parametrization(mesh, frames, beta=beta)
        x = phi.T.ravel()
        from stresstruss.param import objective_terms
        D, O = objective_terms(mesh, frames)
        rd = D @ x - 1.0
        spacing.append(float(rd @ rd))
        ro = O @ x
        ortho.append(float(ro @ ro))
    assert spacing[0] >= spacing[1] >= spacing[2]
    assert ortho[0] <= ortho[1] <= ortho[2]
    assert spacing[0] > spacing[2]          # the trade-off actually moves


def kkt_oracle(mesh, frames, beta):
    """The mean-zero minimiser through the 3n + 3 KKT system of the normal
    equations, one mean constraint per component, solved by SuperLU: the
    solve that the three per-component systems replaced."""
    n = mesh.num_vertices
    D, O = objective_terms(mesh, frames)
    H = (beta * (D.T @ D) + O.T @ O).tocsr()
    rhs = beta * (D.T @ np.ones(D.shape[0]))
    C = sp.csr_matrix((np.ones(3 * n) / n,
                       (np.repeat(np.arange(3), n), np.arange(3 * n))),
                      shape=(3, 3 * n))
    KKT = sp.bmat([[H, C.T], [C, None]], format="csc")
    sol = spla.spsolve(KKT, np.concatenate([rhs, np.zeros(3)]))
    return sol[:3 * n].reshape(3, n).T


def test_component_solves_match_kkt_oracle(bar_frames):
    cfg, out = bar_frames
    mesh = mesh_from_config(cfg)
    _, arr = artifacts.read_field(out / "frames.field", kind="frames")
    record = {}
    phi = solve_parametrization(mesh, arr["frames"], cfg.beta, record=record)
    ref = kkt_oracle(mesh, arr["frames"], cfg.beta)
    assert np.linalg.norm(phi - ref) <= 1e-10 * np.linalg.norm(ref)
    assert [s["dofs"] for s in record["systems"]] == \
        [mesh.num_vertices - 1] * 3


def test_evaluate_objective_equals_d_and_o_residuals(bar_frames):
    # evaluate_objective and solve_parametrization's record skip building D
    # and O; param.json's objective must still be the float that their
    # residuals give, bit for bit. On the 6x3x3 box some rows of G_k are not
    # in column order, and summing them in G_k's order would move the last
    # bit.
    cfg, out = bar_frames
    _, arr = artifacts.read_field(out / "frames.field", kind="frames")
    box = box_mesh((6, 3, 3))
    s = np.random.default_rng(0).standard_normal((box.num_vertices, 3))
    for mesh, frames, beta in ((mesh_from_config(cfg), arr["frames"],
                                cfg.beta),
                               (box, tet_frames(s, box.tets), 1.0)):
        record = {}
        phi = solve_parametrization(mesh, frames, beta, record=record)
        D, O = objective_terms(mesh, frames)
        x = phi.T.ravel()
        rd, ro = D @ x - 1.0, O @ x
        want = float(beta * (rd @ rd) + ro @ ro)
        assert evaluate_objective(mesh, frames, phi, beta) == want
        # The solve's record holds the same float, from its own G_k.
        assert record["objective"] == want


def test_disconnected_mesh_rejected():
    a = box_mesh((1, 1, 1))
    verts = np.vstack([a.vertices, a.vertices + [5.0, 0, 0]])
    tets = np.vstack([a.tets, a.tets + a.num_vertices])
    mesh = TetMesh(verts, tets)
    with pytest.raises(NumericalError, match="disconnected|singular"):
        solve_parametrization(mesh, identity_frames(mesh.num_tets))


def test_non_finite_frames_rejected_by_the_solve():
    mesh = box_mesh((1, 1, 1))
    frames = identity_frames(mesh.num_tets)
    frames[0, 0, 0] = np.nan
    with pytest.raises(NumericalError, match="working precision"):
        solve_parametrization(mesh, frames)


def test_normalize_and_scale_rule():
    phi = np.array([
        [2.0, 0.0, 1.0],
        [5.0, 1.0, 2.0],
        [3.5, 0.25, 1.25],
    ])
    t = normalize_and_scale(phi, 10.0)
    np.testing.assert_allclose(t.min(axis=0), 0.0, atol=1e-15)
    np.testing.assert_allclose(t.max(axis=0), [10.0, 10.0 / 3.0, 10.0 / 3.0],
                               rtol=1e-12)
    # Doubling rho doubles every value.
    t2 = normalize_and_scale(phi, 20.0)
    np.testing.assert_allclose(t2, 2.0 * t, rtol=1e-12)


def test_normalize_identity_range():
    rng = np.random.default_rng(4)
    phi = rng.uniform(0.0, 1.0, size=(40, 3))
    phi[0] = [0.0, 0.0, 0.0]
    phi[1] = [1.0, 0.7, 0.4]            # max range exactly 1 in component 1
    t = normalize_and_scale(phi, 1.0)
    np.testing.assert_allclose(t, phi - phi.min(axis=0), rtol=1e-12)


def test_normalize_constant_error():
    with pytest.raises(NumericalError, match="constant"):
        normalize_and_scale(np.ones((5, 3)), 10.0)
    with pytest.raises(ConfigError):
        normalize_and_scale(np.eye(3), 0.0)


def test_bar_alignment_median_angle():
    mesh = bar_mesh(jitter=0.1)
    bcs = patch_test_bcs(mesh, 0.2, 1.0e6)
    u = solve_static(mesh, MAT, bcs)
    sigma_plus, _ = stress_spd(cauchy_stress(mesh, MAT, u))
    field = fit_frame_field(mesh, sigma_plus)
    phi_tilde = normalize_and_scale(
        solve_parametrization(mesh, field.frames), 10.0)
    g1 = np.einsum("tia,ti->ta", mesh.grads, phi_tilde[mesh.tets, 0])
    r1 = field.frames[:, :, 0]
    cosang = np.einsum("ti,ti->t", g1, r1) / np.linalg.norm(g1, axis=1)
    angles = np.degrees(np.arccos(np.clip(np.abs(cosang), -1.0, 1.0)))
    assert np.median(angles) <= 5.0
