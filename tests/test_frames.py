import numpy as np
import pytest
from scipy.linalg import expm

from stresstruss import frames, lbfgs
from stresstruss.errors import ConfigError, NumericalError
from stresstruss.fem import Material, cauchy_stress, solve_static, stress_spd
from stresstruss.fixtures import bar_mesh, box_mesh
from stresstruss.frames import (
    CONTINUATION_GTOL,
    LINE_SEARCH_RETRIES,
    SMALL_ANGLE,
    FrameFitConfig,
    _data_energy_grad_s,
    _rodrigues_coefficients,
    _smooth_terms,
    data_energy_total,
    fit_constants,
    fit_frame_field,
    incidence,
    perturb_zero_rows,
    rotations_from_axis_vectors,
    tet_frames,
    total_energy_grad,
)
from stresstruss.mesh import TetMesh, build_operators

from test_fem import MAT, patch_test_bcs


# ---------------------------------------------------------------------------
# Oracles: direct per-frame and per-tensor forms of what the library computes
# in batch.


def tensor_norm(v, M) -> float:
    """sqrt(|v^T M v|) for a unit vector v."""
    v = np.asarray(v, dtype=float)
    if abs(np.linalg.norm(v) - 1.0) > 1e-9:
        raise ConfigError("tensor_norm requires a unit vector")
    return float(np.sqrt(abs(v @ np.asarray(M, dtype=float) @ v)))


def frame_from_omega(omega_tet) -> np.ndarray:
    """Rotation of one tet from its four per-vertex parameter vectors."""
    omega_tet = np.asarray(omega_tet, dtype=float).reshape(4, 3)
    s = perturb_zero_rows(omega_tet).sum(axis=0)
    return rotations_from_axis_vectors(s[None])[0]


def smooth_energy(omega, L) -> float:
    """0.5 w^T L w (blockwise per coordinate) + 0.5 w^T w."""
    omega = np.asarray(omega, dtype=float)
    return _smooth_terms(omega, L @ omega)[0]


def kernel_energy_grad_s(s, M):
    """The data kernel on per-tet rows: s (m, 3) and M (m, 3, 3) in, the
    energy and dE/ds (m, 3) out, through its component-major layout."""
    e, g = _data_energy_grad_s(np.ascontiguousarray(s.T),
                               np.ascontiguousarray(M.transpose(1, 2, 0)))
    return e, g.T


def data_energy(R, sigma_plus) -> float:
    """Alignment cost of one frame: tensor norms of the 2nd and 3rd columns."""
    R = np.asarray(R, dtype=float)
    return tensor_norm(R[:, 1], sigma_plus) + tensor_norm(R[:, 2], sigma_plus)


# Cross-product generators: _GEN[m] @ v == e_m x v.
_GEN = np.zeros((3, 3, 3))
_GEN[0, 1, 2] = -1.0
_GEN[0, 2, 1] = 1.0
_GEN[1, 0, 2] = 1.0
_GEN[1, 2, 0] = -1.0
_GEN[2, 0, 1] = -1.0
_GEN[2, 1, 0] = 1.0


def reference_energy_grad_s(s, M):
    """Data energy and dE/ds through the explicit (m, 3, 3, 3) dR/ds tensor."""
    theta = np.linalg.norm(s, axis=1)
    a, b, ca, cb = _rodrigues_coefficients(theta)
    K = np.einsum("mij,tm->tij", _GEN, s)
    K2 = K @ K
    R = np.eye(3) + a[:, None, None] * K + b[:, None, None] * K2
    Mr = np.einsum("tij,tjk->tik", M, R)
    q = np.einsum("tik,tik->tk", R, Mr)
    sq = np.sqrt(np.abs(q[:, 1:]))
    D = np.zeros_like(R)
    D[:, :, 1:] = np.sign(q[:, None, 1:]) * Mr[:, :, 1:] / sq[:, None, :]
    # dR/ds_m = ca s_m K + a E_m + cb s_m K^2 + b (E_m K + K E_m).
    EK = np.einsum("mij,tjk->tmik", _GEN, K)
    KE = np.einsum("tij,mjk->tmik", K, _GEN)
    dRds = (
        ca[:, None, None, None] * s[:, :, None, None] * K[:, None, :, :]
        + a[:, None, None, None] * _GEN[None, :, :, :]
        + cb[:, None, None, None] * s[:, :, None, None] * K2[:, None, :, :]
        + b[:, None, None, None] * (EK + KE)
    )
    return float(sq.sum()), np.einsum("tik,tmik->tm", D, dRds)


def random_spd_field(rng, m):
    """SPD tensors with eigenvalues in [1, 30]."""
    A = rng.standard_normal((m, 3, 3))
    Q = np.linalg.qr(A)[0]
    lam = rng.uniform(1.0, 30.0, size=(m, 3))
    return np.einsum("tik,tk,tjk->tij", Q, lam, Q)


def constant_stress_field(sigma_plus, m):
    return np.broadcast_to(sigma_plus, (m, 3, 3)).copy()


def test_tensor_norm_examples():
    M = np.diag([4.0, 1.0, 1.0])
    assert tensor_norm([1, 0, 0], M) == pytest.approx(2.0, abs=1e-12)
    assert tensor_norm([0, 1, 0], M) == pytest.approx(1.0, abs=1e-12)
    v = np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0)
    assert tensor_norm(v, M) == pytest.approx(np.sqrt(2.5), abs=1e-12)
    with pytest.raises(ConfigError):
        tensor_norm([1.0, 1.0, 0.0], M)


def test_frame_from_omega_zero_is_identity():
    R = frame_from_omega(np.zeros((4, 3)))
    assert np.abs(R - np.eye(3)).max() <= 1e-7


def test_frame_from_omega_quarter_turn():
    w = np.tile((np.pi / 8) * np.array([0.0, 0.0, 1.0]), (4, 1))
    R = frame_from_omega(w)
    expected = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    np.testing.assert_allclose(R, expected, atol=1e-12)


def test_frames_orthonormal_random():
    rng = np.random.default_rng(5)
    s = rng.standard_normal((200, 3)) * 10.0 ** rng.uniform(-6, 1, size=(200, 1))
    R = rotations_from_axis_vectors(s)
    RtR = np.einsum("tji,tjk->tik", R, R)
    assert np.abs(RtR - np.eye(3)).max() <= 1e-12
    assert np.abs(np.linalg.det(R) - 1.0).max() <= 1e-12


def test_small_angle_continuity():
    # Closed form and series must agree across the switch at 1e-4.
    for mag in (9.999e-5, 1.0001e-4):
        s = np.array([[mag, 0.0, 0.0]])
        R = rotations_from_axis_vectors(s)[0]
        c, sn = np.cos(mag), np.sin(mag)
        expected = np.array([[1, 0, 0], [0, c, -sn], [0, sn, c]])
        np.testing.assert_allclose(R, expected, atol=1e-15)


@pytest.mark.parametrize("low, high", [
    (1e-9, 0.9 * SMALL_ANGLE),          # series branch
    (0.5, 2.5),                         # closed form, generic angles
    (np.pi - 1e-3, np.pi + 1e-3),       # closed form near a half turn
])
def test_rotations_match_matrix_exponential(low, high):
    rng = np.random.default_rng(int(1e3 * high) + 1)
    s = _random_axes(rng, 50, rng.uniform(low, high, size=50))
    R = rotations_from_axis_vectors(s)
    for st, Rt in zip(s, R):
        K = np.cross(np.eye(3), st)             # rows e_k x s: K = [s]x
        assert np.abs(Rt - expm(K)).max() <= 1e-12


def test_data_energy_minimum_and_symmetry():
    M = np.diag([30.0, 15.5, 1.0])
    assert data_energy(np.eye(3), M) == pytest.approx(np.sqrt(15.5) + 1.0, abs=1e-12)
    # Swap r2 and r3 (sign fix keeps det = 1): identical value.
    R_swap = np.array([[1.0, 0, 0], [0, 0, 1.0], [0, -1.0, 0]]).T
    assert data_energy(R_swap, M) == pytest.approx(np.sqrt(15.5) + 1.0, abs=1e-12)
    # Aligning r2 with the primary eigenvector costs strictly more.
    R_bad = np.array([[0, -1.0, 0], [1.0, 0, 0], [0, 0, 1.0]]).T
    val = data_energy(R_bad, M)
    assert val >= np.sqrt(30.0) + 1.0 - 1e-12
    assert val > np.sqrt(15.5) + 1.0


def test_data_energy_lower_bound_random():
    rng = np.random.default_rng(17)
    M = random_spd_field(rng, 1)[0]
    lam = np.linalg.eigvalsh(M)          # ascending
    floor = np.sqrt(lam[0]) + np.sqrt(lam[1])
    for _ in range(50):
        R = rotations_from_axis_vectors(rng.standard_normal((1, 3)))[0]
        assert data_energy(R, M) >= floor - 1e-9


def _random_axes(rng, m, angles):
    s = rng.standard_normal((m, 3))
    return s * (angles / np.linalg.norm(s, axis=1))[:, None]


@pytest.mark.parametrize("low, high", [
    (1e-9, 0.9 * SMALL_ANGLE),          # series branch
    (0.5, 2.5),                         # closed form, generic angles
    (np.pi - 1e-3, np.pi + 1e-3),       # closed form near a half turn
])
def test_closed_form_gradient_matches_dRds_oracle(low, high):
    rng = np.random.default_rng(int(1e3 * high))
    m = 300
    M = random_spd_field(rng, m)
    s = _random_axes(rng, m, rng.uniform(low, high, size=m))
    e_ref, g_ref = reference_energy_grad_s(s, M)
    e, g = kernel_energy_grad_s(s, M)
    assert abs(e - e_ref) <= 1e-12 * abs(e_ref)
    assert np.linalg.norm(g - g_ref) <= 1e-12 * np.linalg.norm(g_ref)


def test_closed_form_gradient_at_perturbed_zero_start():
    mesh = box_mesh((2, 1, 1), jitter=0.05)
    rng = np.random.default_rng(13)
    M = random_spd_field(rng, mesh.num_tets)
    omega = perturb_zero_rows(np.zeros((mesh.num_vertices, 3)))
    s = incidence(mesh.tets, mesh.num_vertices) @ omega
    assert (np.linalg.norm(s, axis=1) < SMALL_ANGLE).all()
    e_ref, g_ref = reference_energy_grad_s(s, M)
    e, g = kernel_energy_grad_s(s, M)
    assert abs(e - e_ref) <= 1e-12 * abs(e_ref)
    assert np.linalg.norm(g - g_ref) <= 1e-12 * np.linalg.norm(g_ref)


def test_incidence_sums_and_scatters_like_indexing():
    mesh = box_mesh((2, 2, 1), jitter=0.05)
    rng = np.random.default_rng(4)
    m, n = mesh.num_tets, mesh.num_vertices
    L = build_operators(mesh)
    fit = fit_constants(random_spd_field(rng, m), mesh.tets, L)
    omega = rng.standard_normal((n, 3))
    sl = fit.SL @ omega
    np.testing.assert_array_equal(sl[:m], omega[mesh.tets].sum(axis=1))
    np.testing.assert_array_equal(sl[m:], L @ omega)
    g = rng.standard_normal((m, 3))
    scattered = np.zeros_like(omega)
    np.add.at(scattered, mesh.tets.ravel(), np.repeat(g, 4, axis=0))
    np.testing.assert_allclose(fit.ST @ g, scattered, rtol=1e-14, atol=1e-14)
    # S^T as CSR adds each vertex's tets in the order the CSC product does.
    np.testing.assert_array_equal(fit.ST @ g, incidence(mesh.tets, n).T @ g)


def test_smooth_energy_examples():
    mesh = box_mesh((2, 2, 2), jitter=0.05)
    L = build_operators(mesh)
    n = mesh.num_vertices
    assert smooth_energy(np.zeros((n, 3)), L) == 0.0
    c = np.array([0.3, -0.2, 0.9])
    omega = np.tile(c, (n, 1))
    assert smooth_energy(omega, L) == pytest.approx(0.5 * n * (c @ c), rel=1e-10)
    rng = np.random.default_rng(2)
    w = rng.standard_normal((n, 3))
    assert smooth_energy(2 * w, L) == pytest.approx(4 * smooth_energy(w, L), rel=1e-12)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(23)
    mesh = box_mesh((1, 1, 1))
    L = build_operators(mesh)
    tets = mesh.tets
    n = mesh.num_vertices
    for trial in range(100):
        sp3 = random_spd_field(rng, mesh.num_tets)
        omega = rng.standard_normal((n, 3))
        alpha = float(rng.choice([0.0, 0.5, 3.0]))
        fit = fit_constants(sp3, tets, L)
        e0, g = total_energy_grad(omega, alpha, fit)
        d = rng.standard_normal((n, 3))
        d /= np.linalg.norm(d)
        h = 1e-6 * max(np.linalg.norm(omega), 1.0)
        ep, _ = total_energy_grad(omega + h * d, alpha, fit)
        em, _ = total_energy_grad(omega - h * d, alpha, fit)
        fd = (ep - em) / (2 * h)
        an = float((g * d).sum())
        assert abs(an - fd) <= 1e-4 * max(abs(fd), 1e-8), f"trial {trial}"


def test_gradient_at_stationary_point():
    # Identity frame is the minimum for a diagonal tensor; find the omega
    # that produces it (zero rotation) on a single tet, alpha = 0.
    verts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=float)
    mesh = TetMesh(verts, np.array([[0, 1, 2, 3]]))
    L = build_operators(mesh)
    sp3 = np.diag([30.0, 15.5, 1.0])[None]
    omega = np.array([[0.1, 0, 0], [-0.1, 0, 0], [0.2, 0, 0], [-0.2, 0, 0]])
    fit = fit_constants(sp3, mesh.tets, L)
    _, g = total_energy_grad(omega, 0.0, fit)
    assert np.linalg.norm(g) <= 1e-6
    # All-zero omega lands sqrt(machine eps) away from the stationary point,
    # so the gradient is small but not zero.
    _, g0 = total_energy_grad(np.zeros((4, 3)), 0.0, fit)
    assert np.linalg.norm(g0) <= 1e-5


def test_gradient_alpha_dominated():
    rng = np.random.default_rng(31)
    mesh = box_mesh((1, 1, 2), jitter=0.05)
    L = build_operators(mesh)
    sp3 = random_spd_field(rng, mesh.num_tets)
    omega = rng.standard_normal((mesh.num_vertices, 3))
    alpha = 1e9
    _, g = total_energy_grad(omega, alpha, fit_constants(sp3, mesh.tets, L))
    quad = alpha * (np.column_stack([L @ omega[:, c] for c in range(3)]) + omega)
    assert np.abs(g - quad).max() <= 1e-6 * np.abs(quad).max()


def test_fit_constant_field_aligns_primary_axis():
    mesh = box_mesh((2, 2, 2), jitter=0.1)
    M = constant_stress_field(np.diag([30.0, 15.5, 1.0]), mesh.num_tets)
    field = fit_frame_field(mesh, M)
    r1 = field.frames[:, :, 0]
    align = np.abs(r1[:, 0])                       # |r1 . e1|
    assert (align >= np.cos(1e-3)).all()
    RtR = np.einsum("tji,tjk->tik", field.frames, field.frames)
    assert np.abs(RtR - np.eye(3)).max() <= 1e-9
    assert np.abs(np.linalg.det(field.frames) - 1.0).max() <= 1e-9


def test_fit_two_tets_identical_tensors_identical_frames():
    verts = np.array(
        [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]], dtype=float
    )
    mesh = TetMesh(verts, np.array([[0, 1, 2, 3], [1, 2, 3, 4]]))
    M = constant_stress_field(np.diag([25.0, 9.0, 2.0]), 2)
    field = fit_frame_field(mesh, M)
    assert np.abs(field.frames[0] - field.frames[1]).max() <= 1e-5


def test_fit_monotone_history_and_determinism():
    mesh = box_mesh((2, 2, 2), jitter=0.08)
    rng = np.random.default_rng(41)
    sp3 = random_spd_field(rng, mesh.num_tets)
    cfg = FrameFitConfig(outer_iterations=10)
    f1 = fit_frame_field(mesh, sp3, cfg)
    f2 = fit_frame_field(mesh, sp3, cfg)
    np.testing.assert_array_equal(f1.omega, f2.omega)
    assert len(f1.outer) == 10
    alphas = [row["alpha"] for row in f1.outer]
    assert alphas[0] == pytest.approx(10.0 * mesh.num_tets)
    ratios = np.diff(np.log(alphas))
    np.testing.assert_allclose(ratios, np.log(2.0 / 3.0), rtol=1e-12)
    energies = [row["energy"] for row in f1.outer]
    assert all(energies[k + 1] <= energies[k] + 1e-8 for k in range(len(energies) - 1))


def test_fit_bar_uniaxial_alignment():
    mesh = bar_mesh(jitter=0.1)
    bcs = patch_test_bcs(mesh, 0.2, 1.0e6)
    u = solve_static(mesh, MAT, bcs)
    sigma_plus, _ = stress_spd(cauchy_stress(mesh, MAT, u))
    field = fit_frame_field(mesh, sigma_plus)
    r1 = field.frames[:, :, 0]
    angles = np.arccos(np.clip(np.abs(r1[:, 0]), -1.0, 1.0))
    frac = float((angles <= 1e-2).sum()) / len(angles)
    assert frac >= 0.99


def _quadratic_problem():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((8, 8))
    Q = A @ A.T + 8 * np.eye(8)
    b = rng.standard_normal(8)

    def quad(x):
        return 0.5 * x @ Q @ x - b @ x, Q @ x - b

    return quad, Q, b


def _rosenbrock(x):
    f = 100.0 * (x[1] - x[0] ** 2) ** 2 + (1 - x[0]) ** 2
    g = np.array([
        -400.0 * x[0] * (x[1] - x[0] ** 2) - 2 * (1 - x[0]),
        200.0 * (x[1] - x[0] ** 2),
    ])
    return f, g


def test_lbfgs_quadratic_and_rosenbrock():
    quad, Q, b = _quadratic_problem()
    res = lbfgs.minimize(quad, np.zeros(8), gtol=1e-8)
    assert res.converged
    np.testing.assert_allclose(res.x, np.linalg.solve(Q, b), atol=1e-8)

    res = lbfgs.minimize(_rosenbrock, np.array([-1.2, 1.0]), gtol=1e-10,
                         max_iterations=2000)
    np.testing.assert_allclose(res.x, [1.0, 1.0], atol=1e-6)


class _ReferenceHistory:
    """The two-loop recursion with its scalars recomputed on every call,
    as separate s, y and rho lists: the oracle for ``lbfgs._History``."""

    def __init__(self):
        self.s, self.y, self.rho = [], [], []

    def push(self, s, y, memory):
        sy = float(s @ y)
        if sy <= 1e-10 * np.linalg.norm(s) * np.linalg.norm(y):
            return
        self.s.append(s)
        self.y.append(y)
        self.rho.append(1.0 / sy)
        if len(self.s) > memory:
            self.s.pop(0)
            self.y.pop(0)
            self.rho.pop(0)

    def direction(self, g):
        q = g.copy()
        alphas = []
        for s, y, rho in zip(reversed(self.s), reversed(self.y), reversed(self.rho)):
            a = rho * (s @ q)
            alphas.append(a)
            q -= a * y
        if self.s:
            gamma = (self.s[-1] @ self.y[-1]) / (self.y[-1] @ self.y[-1])
            q *= gamma
        for (s, y, rho), a in zip(zip(self.s, self.y, self.rho), reversed(alphas)):
            b = rho * (y @ q)
            q += (a - b) * s
        return -q


@pytest.mark.parametrize("memory", [10, 3, 0])
@pytest.mark.parametrize("problem", ["quadratic", "rosenbrock"])
def test_lbfgs_matches_reference_two_loop_bitwise(problem, memory,
                                                  monkeypatch):
    if problem == "quadratic":
        fun, x0 = _quadratic_problem()[0], np.zeros(8)
        kw = dict(gtol=1e-8, memory=memory)
    else:
        fun, x0 = _rosenbrock, np.array([-1.2, 1.0])
        kw = dict(gtol=1e-10, max_iterations=2000, memory=memory)
    res = lbfgs.minimize(fun, x0, **kw)
    monkeypatch.setattr(lbfgs, "_History", _ReferenceHistory)
    ref = lbfgs.minimize(fun, x0, **kw)
    assert res.iterations > 5
    assert np.array_equal(res.x, ref.x)
    assert np.array_equal(res.iterations, ref.iterations)
    assert np.array_equal(res.num_evals, ref.num_evals)


def test_fit_evaluations_visible_through_module_attributes(monkeypatch):
    # Wrapping the module attributes must see every evaluation of the fit.
    mesh = box_mesh((2, 2, 1), jitter=0.05)
    M = random_spd_field(np.random.default_rng(8), mesh.num_tets)
    calls = {"total": 0, "data": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(frames, "total_energy_grad",
                        counted("total", frames.total_energy_grad))
    monkeypatch.setattr(frames, "data_energy_total",
                        counted("data", frames.data_energy_total))
    field = fit_frame_field(mesh, M, FrameFitConfig(outer_iterations=4))
    assert len(field.outer) == 4
    assert calls["total"] == sum(row["evals"] for row in field.outer)
    assert calls["data"] == len(field.outer)


def _small_fit(**cfg):
    mesh = box_mesh((2, 2, 1), jitter=0.05)
    M = random_spd_field(np.random.default_rng(8), mesh.num_tets)
    return fit_frame_field(mesh, M, FrameFitConfig(**cfg))


def _line_search_stub(monkeypatch, fails):
    """Stub ``lbfgs.minimize``: it raises LineSearchError while
    ``fails(initial_step)``, and solves otherwise; returns the steps tried."""
    steps, minimize = [], lbfgs.minimize

    def stub(fun, x0, **kw):
        steps.append(kw["initial_step"])
        if fails(kw["initial_step"]):
            raise lbfgs.LineSearchError("stub", {"step": kw["initial_step"]})
        return minimize(fun, x0, **kw)

    monkeypatch.setattr(lbfgs, "minimize", stub)
    return steps


def test_fit_retries_a_failed_line_search_with_halved_steps(monkeypatch):
    steps = _line_search_stub(monkeypatch, lambda step: step > 0.3)
    field = _small_fit(outer_iterations=2)
    assert steps == [1.0, 0.5, 0.25] * 2
    assert len(field.outer) == 2


def test_fit_fails_by_name_when_every_line_search_fails(monkeypatch):
    steps = _line_search_stub(monkeypatch, lambda step: True)
    with pytest.raises(NumericalError, match=(
            r"line search failed persistently at outer iteration 0 .*"
            r"last diagnostics: \{'step': 0.03125\}")):
        _small_fit()
    assert steps == [0.5 ** k for k in range(LINE_SEARCH_RETRIES + 1)]
    assert len(steps) == 6


def test_fit_runs_only_its_last_solve_to_gtol():
    field = _small_fit(outer_iterations=5, gtol=1e-7)
    assert [row["gtol"] for row in field.outer] == \
        [CONTINUATION_GTOL * 1e-7] * 4 + [1e-7]
    # The loose solves stop sooner than solves at gtol 1e-7 do.
    tight = _small_fit(outer_iterations=5, gtol=1e-7 / CONTINUATION_GTOL)
    assert sum(row["evals"] for row in field.outer[:4]) < \
        sum(row["evals"] for row in tight.outer[:4])


def test_fit_with_loose_and_tight_solves_is_deterministic():
    f1, f2 = _small_fit(outer_iterations=6), _small_fit(outer_iterations=6)
    assert f1.omega.tobytes() == f2.omega.tobytes()
    assert f1.frames.tobytes() == f2.frames.tobytes()
    assert f1.outer == f2.outer


def test_data_energy_total_matches_per_tet_sum():
    rng = np.random.default_rng(9)
    mesh = box_mesh((1, 2, 1), jitter=0.05)
    sp3 = random_spd_field(rng, mesh.num_tets)
    omega = rng.standard_normal((mesh.num_vertices, 3))
    frames = tet_frames(omega, mesh.tets)
    ref = sum(data_energy(frames[t], sp3[t]) for t in range(mesh.num_tets))
    assert data_energy_total(omega, sp3, mesh.tets) == pytest.approx(ref, rel=1e-12)
