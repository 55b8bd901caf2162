"""Stress-aligned orthonormal frame fields.

Frames are parameterized by one 3-vector per vertex; each tet's rotation is
R = exp(K) = I + a K + b K^2, K = [s]x the cross-product matrix of the sum s
of its four vertex vectors (Rodrigues). The data term pulls the second and
third frame columns into the minor-eigenvector plane of the SPD stress
surrogate; a Laplacian term plus a Tikhonov term keep the vertex field tame.
The annealing loop starts smoothness-heavy and relaxes it by a fixed factor
each outer iteration.

The data gradient is contracted in closed form, with D = dE/dR per tet,
ca = a'(|s|)/|s|, cb = b'(|s|)/|s| and vee(X) = (X21-X12, X02-X20, X10-X01):

    dE/ds = (ca <D,K> + cb <D,K^2>) s + vee(a D + b (D K^T + K^T D)),

evaluated as <D,K> = s.vee(D), vee(D K^T + K^T D) = (D + D^T) s - 2 tr(D) s,
so no (m, 3, 3, 3) dR/ds tensor is formed. s = S omega and the vertex
gradient S^T dE/ds use one sparse tet-vertex incidence S built once per fit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from . import lbfgs
from .errors import ConfigError, NumericalError
from .fem import StressField
from .mesh import TetMesh

# Below this rotation angle the Rodrigues coefficients switch to series form.
SMALL_ANGLE = 1e-4

# Replacement magnitude for zero-length vertex vectors before differentiation.
ZERO_OMEGA_EPS = float(np.sqrt(np.finfo(np.float64).eps))


@dataclass
class FrameFitConfig:
    outer_iterations: int = 30
    alpha0_factor: float = 10.0
    alpha_decay: float = 2.0 / 3.0
    memory: int = 10
    gtol: float = 1e-6
    max_inner_iterations: int = 500
    line_search_retries: int = 5
    early_stop: bool = True
    early_stop_tol: float = 1e-10
    early_stop_patience: int = 3


@dataclass
class FrameField:
    omega: np.ndarray                  # (n, 3) per-vertex parameters
    frames: np.ndarray                 # (m, 3, 3) rotations, columns r1,r2,r3
    alpha_history: list[tuple[float, float]] = field(default_factory=list)
    # Per outer iteration: L-BFGS (iterations, evaluations, converged).
    inner: list[tuple[int, int, bool]] = field(default_factory=list)


def perturb_zero_rows(omega: np.ndarray) -> np.ndarray:
    """Replace zero-length rows so the rotation gradient is well defined."""
    omega = np.asarray(omega, dtype=float)
    zero = np.linalg.norm(omega, axis=1) == 0.0
    if zero.any():
        omega = omega.copy()
        omega[zero] = (ZERO_OMEGA_EPS, 0.0, 0.0)
    return omega


def incidence(tets: np.ndarray, num_vertices: int) -> sp.csr_matrix:
    """Sparse (m, n) tet-vertex incidence: S @ omega sums each tet's vertex
    rows in tet order, as omega[tets].sum(axis=1) does; S.T scatters back."""
    m, k = np.shape(tets)
    indptr = np.arange(0, m * k + 1, k)
    return sp.csr_matrix((np.ones(m * k), np.ravel(tets), indptr),
                         shape=(m, num_vertices))


def _rodrigues_coefficients(theta: np.ndarray):
    """a = sin t / t, b = (1 - cos t) / t^2, and their derivative ratios
    ca = a'(t)/t, cb = b'(t)/t, with series for small t."""
    t2 = theta * theta
    small = theta < SMALL_ANGLE
    safe = np.where(small, 1.0, theta)
    sin, cos = np.sin(safe), np.cos(safe)
    a = np.where(small, 1.0 - t2 / 6.0 + t2 * t2 / 120.0, sin / safe)
    b = np.where(small, 0.5 - t2 / 24.0 + t2 * t2 / 720.0,
                 (1.0 - cos) / (safe * safe))
    ca = np.where(small, -1.0 / 3.0 + t2 / 30.0,
                  (safe * cos - sin) / safe**3)
    cb = np.where(small, -1.0 / 12.0 + t2 / 180.0,
                  (safe * sin + 2.0 * cos - 2.0) / safe**4)
    return a, b, ca, cb


def _cross_matrices(s: np.ndarray) -> np.ndarray:
    K = np.zeros(s.shape[:-1] + (3, 3))
    K[..., 0, 1] = -s[..., 2]
    K[..., 0, 2] = s[..., 1]
    K[..., 1, 0] = s[..., 2]
    K[..., 1, 2] = -s[..., 0]
    K[..., 2, 0] = -s[..., 1]
    K[..., 2, 1] = s[..., 0]
    return K


def _rotations(s: np.ndarray):
    """R = I + a K + b K^2 per row of s, with K^2 and the Rodrigues
    coefficients (a, b, ca, cb) that the gradient reuses."""
    theta = np.linalg.norm(s, axis=1)
    coeffs = _rodrigues_coefficients(theta)
    K = _cross_matrices(s)
    K2 = K @ K
    R = np.eye(3) + coeffs[0][:, None, None] * K + coeffs[1][:, None, None] * K2
    return R, K2, coeffs


def rotations_from_axis_vectors(s: np.ndarray) -> np.ndarray:
    """Batch closed-form exp of cross-product matrices, shape (m, 3, 3)."""
    return _rotations(np.atleast_2d(np.asarray(s, dtype=float)))[0]


def tet_frames(omega: np.ndarray, tets: np.ndarray) -> np.ndarray:
    """All tet rotations from the per-vertex field, shape (m, 3, 3)."""
    s = incidence(tets, len(omega)) @ perturb_zero_rows(omega)
    return rotations_from_axis_vectors(s)


def _column_quotients(R: np.ndarray, M: np.ndarray):
    """M r_k and Rayleigh quotients r_k^T M r_k of frame columns 2 and 3."""
    Mr = (M @ R)[:, :, 1:]
    return Mr, np.einsum("tik,tik->tk", R[:, :, 1:], Mr)


def _smooth_terms(omega: np.ndarray, L: sp.spmatrix):
    """Smoothness energy 0.5 w^T L w + 0.5 w^T w (blockwise per coordinate)
    and its gradient L w + w, from one sparse product."""
    grad = L @ omega + omega
    return 0.5 * float(np.vdot(omega, grad)), grad


def smooth_energy(omega: np.ndarray, L: sp.spmatrix) -> float:
    """0.5 w^T L w (blockwise per coordinate) + 0.5 w^T w."""
    return _smooth_terms(np.asarray(omega, dtype=float), L)[0]


def _data_energy_grad_s(s: np.ndarray, M: np.ndarray):
    """Total data energy and its gradient w.r.t. the per-tet axis vectors
    s (m, 3), for SPD tensors M (m, 3, 3)."""
    R, K2, (a, b, ca, cb) = _rotations(s)
    Mr, q = _column_quotients(R, M)
    sq = np.sqrt(np.abs(q))                           # (m, 2)
    energy = float(sq.sum())

    # dE/dR has nonzero columns 2,3: sign(q_k) M r_k / sqrt|q_k|.
    D = np.zeros_like(R)
    D[:, :, 1:] = Mr * (np.sign(q) / sq)[:, None, :]

    # Closed-form contraction with dR/ds (module docstring).
    vee_d = np.stack([D[:, 2, 1] - D[:, 1, 2],
                      D[:, 0, 2] - D[:, 2, 0],
                      D[:, 1, 0] - D[:, 0, 1]], axis=1)
    trace_d = np.trace(D, axis1=1, axis2=2)
    d_k = np.einsum("tm,tm->t", s, vee_d)             # <D, K>
    d_k2 = np.einsum("tij,tij->t", D, K2)             # <D, K^2>
    sym_s = np.einsum("tij,tj->ti", D + D.transpose(0, 2, 1), s)
    grad_s = (
        (ca * d_k + cb * d_k2 - 2.0 * b * trace_d)[:, None] * s
        + a[:, None] * vee_d
        + b[:, None] * sym_s
    )
    return energy, grad_s


def total_energy_grad(omega: np.ndarray, stress: StressField, alpha: float,
                      tets: np.ndarray, L: sp.spmatrix, *,
                      S: sp.spmatrix | None = None):
    """Data + alpha * smoothness energy and its per-vertex gradient.

    Repeated callers pass ``S = incidence(tets, n)`` prebuilt. Zero-length
    vertex vectors are perturbed before differentiation, so the gradient is
    defined everywhere, including the all-zero start.
    """
    if stress.sigma_plus is None:
        raise ConfigError("stress field lacks the SPD surrogate")
    omega = perturb_zero_rows(omega)
    if S is None:
        S = incidence(tets, len(omega))
    e_data, grad_s = _data_energy_grad_s(S @ omega, stress.sigma_plus)
    e_smooth, grad_smooth = _smooth_terms(omega, L)
    return e_data + alpha * e_smooth, S.T @ grad_s + alpha * grad_smooth


def data_energy_total(omega: np.ndarray, stress: StressField, tets: np.ndarray) -> float:
    """Sum over tets of sqrt|q_2| + sqrt|q_3|, the data term alone."""
    R = tet_frames(omega, tets)
    _, q = _column_quotients(R, stress.sigma_plus)
    return float(np.sqrt(np.abs(q)).sum())


def fit_frame_field(
    mesh: TetMesh,
    stress: StressField,
    config: FrameFitConfig | None = None,
    L: sp.spmatrix | None = None,
) -> FrameField:
    """Annealed fit: repeated warm-started quasi-Newton solves while the
    smoothness weight decays geometrically from alpha0_factor * num_tets.
    """
    from .mesh import build_operators

    cfg = config or FrameFitConfig()
    if stress.sigma_plus is None:
        raise ConfigError("stress field lacks the SPD surrogate")
    if L is None:
        L = build_operators(mesh).L
    tets = mesh.tets
    n = mesh.num_vertices
    S = incidence(tets, n)

    omega = np.zeros((n, 3))
    alpha = cfg.alpha0_factor * mesh.num_tets
    history: list[tuple[float, float]] = []
    inner: list[tuple[int, int, bool]] = []
    stall = 0

    for outer in range(cfg.outer_iterations):
        def fun(x, _alpha=alpha):
            e, g = total_energy_grad(x.reshape(n, 3), stress, _alpha, tets, L,
                                     S=S)
            return e, g.ravel()

        result = None
        failure = None
        for attempt in range(cfg.line_search_retries + 1):
            try:
                result = lbfgs.minimize(
                    fun,
                    omega.ravel(),
                    memory=cfg.memory,
                    gtol=cfg.gtol,
                    max_iterations=cfg.max_inner_iterations,
                    initial_step=1.0 / (2.0 ** attempt),
                )
                break
            except lbfgs.LineSearchError as exc:
                failure = exc
        if result is None:
            raise NumericalError(
                f"line search failed persistently at outer iteration {outer} "
                f"(alpha={alpha:.6g}); last diagnostics: {failure.diagnostics}"
            )
        omega = result.x.reshape(n, 3)
        inner.append((result.iterations, result.num_evals, result.converged))

        e_data = data_energy_total(omega, stress, tets)
        history.append((alpha, e_data))
        if len(history) > 1:
            prev = history[-2][1]
            rel = (prev - e_data) / max(abs(prev), 1e-300)
            stall = stall + 1 if rel < cfg.early_stop_tol else 0
        if cfg.early_stop and stall >= cfg.early_stop_patience:
            break
        alpha *= cfg.alpha_decay

    frames = tet_frames(omega, tets)
    return FrameField(omega=omega, frames=frames, alpha_history=history,
                      inner=inner)
