"""Stress-aligned orthonormal frame fields.

Frames are parameterized by one 3-vector per vertex; each tet's rotation is
R = exp(K) = I + a K + b K^2, K = [s]x the cross-product matrix of the sum s
of its four vertex vectors (Rodrigues). The data term pulls the second and
third frame columns into the minor-eigenvector plane of the SPD stress
surrogate; a Laplacian term plus a Tikhonov term keep the vertex field tame.
The annealing loop starts smoothness-heavy and relaxes it by a fixed factor
each outer iteration; only the last solve runs to the configured gtol, the
others to CONTINUATION_GTOL times it.

As K^2 = s s^T - |s|^2 I, column k of R is r_k = (1 - b|s|^2) e_k +
a (s x e_k) + b s_k s; only r_2 and r_3, the columns the data term reads,
are built. Its gradient is contracted in closed form, with D = dE/dR per tet
(nonzero columns d_k = sign(q_k) M r_k / sqrt|q_k|, q_k = r_k^T M r_k, for
k = 2, 3), ca = a'(|s|)/|s|, cb = b'(|s|)/|s|, s = (x, y, z) and
vee(X) = (X21-X12, X02-X20, X10-X01):

    dE/ds = (ca <D,K> + cb <D,K^2> - 2 b tr D) s + a vee(D) + b (D + D^T) s,
    <D,K> = s.vee(D),   vee(D) = (d_2z - d_3y, d_3x, -d_2x),
    <D,K^2> = s^T D s - |s|^2 tr D,
    (D + D^T) s = y d_2 + z d_3 + (0, d_2.s, d_3.s).

All of it runs component-major on (3, m) and (3, 2, m) arrays, the 3-term
dot products as einsum reductions. Once per fit, ``fit_constants`` lays M
out (3, 3, m), stacks the tet-vertex incidence S on L (one product gives
S omega and L omega) and stores S^T as CSR, whose rows add each vertex's
tets in the order the CSC product S.T @ g does; an evaluation allocates
only its temporaries. safe**3 and safe**4 stay pow calls: safe*safe*safe
differs in the last bit, which the 30-iteration fit amplifies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import lbfgs
from .errors import NumericalError
from .mesh import TetMesh

# Below this rotation angle the Rodrigues coefficients switch to series form.
SMALL_ANGLE = 1e-4

# Replacement magnitude for zero-length vertex vectors before differentiation.
ZERO_OMEGA_EPS = float(np.sqrt(np.finfo(np.float64).eps))

# Stopping-test factor for the annealing solves before the last: an
# intermediate field is only the warm start of the next, smaller alpha. On
# the bending bar it cuts the evaluations by a third; the fit's last solve
# keeps the configured gtol.
CONTINUATION_GTOL = 10.0

ALPHA0_FACTOR = 10.0     # the first smoothness weight, per tet
MEMORY = 10              # L-BFGS correction pairs kept
LINE_SEARCH_RETRIES = 5  # re-solves from half the step after a failed search


@dataclass
class FrameFitConfig:
    outer_iterations: int = 30
    alpha_decay: float = 2.0 / 3.0
    gtol: float = 1e-6
    max_inner_iterations: int = 500


@dataclass
class FrameField:
    omega: np.ndarray                  # (n, 3) per-vertex parameters
    frames: np.ndarray                 # (m, 3, 3) rotations, columns r1,r2,r3
    # One row per outer iteration: its alpha, the data energy after it, and
    # its L-BFGS solve's iterations, evals, converged, |grad| and gtol.
    outer: list[dict]


def perturb_zero_rows(omega: np.ndarray) -> np.ndarray:
    """Replace zero-length rows so the rotation gradient is well defined."""
    omega = np.asarray(omega, dtype=float)
    zero = np.einsum("ij,ij->i", omega, omega) == 0.0    # |row| == 0
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
    small = theta < SMALL_ANGLE
    any_small = small.any()
    safe = np.where(small, 1.0, theta) if any_small else theta
    sin, cos = np.sin(safe), np.cos(safe)
    a = sin / safe
    b = (1.0 - cos) / (safe * safe)
    ca = (safe * cos - sin) / safe**3
    cb = (safe * sin + 2.0 * cos - 2.0) / safe**4
    if any_small:
        t2 = theta[small] ** 2
        a[small] = 1.0 - t2 / 6.0 + t2 * t2 / 120.0
        b[small] = 0.5 - t2 / 24.0 + t2 * t2 / 720.0
        ca[small] = -1.0 / 3.0 + t2 / 30.0
        cb[small] = -1.0 / 12.0 + t2 / 180.0
    return a, b, ca, cb


def _rotation_columns(s: np.ndarray, cols):
    """Columns ``cols`` of R = exp([s]x) for component-major axis vectors
    s (3, m), as (3, len(cols), m), with theta^2 and the Rodrigues
    coefficients (a, b, ca, cb) that the gradient reuses."""
    t2 = np.einsum("it,it->t", s, s)
    coeffs = _rodrigues_coefficients(np.sqrt(t2))
    a, b = coeffs[:2]
    c = 1.0 - b * t2
    ax, ay, az = a_s = a * s
    nx, ny, nz = -a_s
    # Column k of (1 - b theta^2) I + a [s]x.
    linear = ((c, az, ny), (nz, c, ax), (ay, nx, c))
    r = (b * s)[:, None, :] * s[list(cols)]                     # b s_k s
    for j, k in enumerate(cols):
        for i in range(3):
            r[i, j] += linear[k][i]
    return r, t2, coeffs


def rotations_from_axis_vectors(s: np.ndarray) -> np.ndarray:
    """Batch closed-form exp of cross-product matrices, shape (m, 3, 3)."""
    s = np.atleast_2d(np.asarray(s, dtype=float))
    r = _rotation_columns(np.ascontiguousarray(s.T), (0, 1, 2))[0]
    return np.ascontiguousarray(r.transpose(2, 0, 1))


def tet_frames(omega: np.ndarray, tets: np.ndarray) -> np.ndarray:
    """All tet rotations from the per-vertex field, shape (m, 3, 3)."""
    s = incidence(tets, len(omega)) @ perturb_zero_rows(omega)
    return rotations_from_axis_vectors(s)


def _smooth_terms(omega: np.ndarray, Lw: np.ndarray):
    """Smoothness energy 0.5 w^T (L w + w), blockwise, and its gradient
    L w + w, written into ``Lw``, the product L w."""
    Lw += omega
    return 0.5 * float(np.vdot(omega, Lw)), Lw


def _data_energy_grad_s(s: np.ndarray, M: np.ndarray):
    """Total data energy and its gradient w.r.t. the per-tet axis vectors
    s, both (3, m), for SPD tensors M laid out (3, 3, m)."""
    r, t2, (a, b, ca, cb) = _rotation_columns(s, (1, 2))
    d = np.einsum("ijt,jkt->ikt", M, r)               # M r_k, (3, 2, m)
    q = np.einsum("ikt,ikt->kt", r, d)                # r_k^T M r_k
    sq = np.sqrt(np.abs(q))                           # (2, m)
    energy = float(sq.sum())

    # Nonzero columns of dE/dR: d_k = sign(q_k) M r_k / sqrt|q_k|.
    d *= np.sign(q) / sq
    p = np.einsum("ikt,it->kt", d, s)                 # d_k . s
    trace_d = d[1, 0] + d[2, 1]
    vee_d = np.stack([d[2, 0] - d[1, 1], d[0, 1], -d[0, 0]])
    d_k = np.einsum("it,it->t", s, vee_d)             # <D, K>
    d_k2 = np.einsum("it,it->t", s[1:], p) - t2 * trace_d   # <D, K^2>
    sym_s = np.einsum("kt,ikt->it", s[1:], d)         # (D + D^T) s
    sym_s[1:] += p
    grad_s = (ca * d_k + cb * d_k2 - 2.0 * b * trace_d) * s + a * vee_d \
        + b * sym_s
    return energy, grad_s


@dataclass(frozen=True)
class FitConstants:
    """What every energy evaluation of one fit shares."""
    M: np.ndarray           # (3, 3, m): the SPD tensors, component-major
    SL: sp.csr_matrix       # (m + n, n): incidence S stacked on Laplacian L
    ST: sp.csr_matrix       # (n, m): S^T, rows in increasing tet order


def fit_constants(M: np.ndarray, tets: np.ndarray,
                  L: sp.spmatrix) -> FitConstants:
    S = incidence(tets, L.shape[0])
    return FitConstants(np.ascontiguousarray(np.transpose(M, (1, 2, 0))),
                        sp.vstack([S, L], format="csr"), S.T.tocsr())


def total_energy_grad(omega: np.ndarray, alpha: float, fit: FitConstants):
    """Data + alpha * smoothness energy and its per-vertex gradient, for
    ``fit = fit_constants(M, tets, L)`` of the SPD stress surrogate M
    (m, 3, 3).

    Zero-length vertex vectors are perturbed before differentiation, so the
    gradient is defined everywhere, including the all-zero start."""
    omega = perturb_zero_rows(omega)
    m = fit.M.shape[2]
    sl = fit.SL @ omega                               # S w over L w
    e_data, grad_s = _data_energy_grad_s(np.ascontiguousarray(sl[:m].T),
                                         fit.M)
    e_smooth, grad_smooth = _smooth_terms(omega, sl[m:])
    grad = fit.ST @ np.ascontiguousarray(grad_s.T)
    grad += alpha * grad_smooth
    return e_data + alpha * e_smooth, grad


def data_energy_total(omega: np.ndarray, M: np.ndarray, tets: np.ndarray) -> float:
    """Sum over tets of sqrt|q_2| + sqrt|q_3|, the data term alone."""
    s = incidence(tets, len(omega)) @ perturb_zero_rows(omega)
    return _data_energy_grad_s(np.ascontiguousarray(s.T),
                               np.ascontiguousarray(M.transpose(1, 2, 0)))[0]


def fit_frame_field(
    mesh: TetMesh,
    M: np.ndarray,
    config: FrameFitConfig | None = None,
) -> FrameField:
    """Annealed fit to the SPD stress surrogate M (m, 3, 3), ``stress_spd``'s
    sigma_plus: cfg.outer_iterations warm-started quasi-Newton solves while
    the smoothness weight decays geometrically from ALPHA0_FACTOR *
    num_tets. The last solve runs to cfg.gtol and the others to
    CONTINUATION_GTOL * cfg.gtol, so the returned field comes from a
    cfg.gtol solve.
    """
    cfg = config or FrameFitConfig()
    tets = mesh.tets
    n = mesh.num_vertices
    fit = fit_constants(M, tets, mesh.laplacian)

    omega = np.zeros((n, 3))
    alpha = ALPHA0_FACTOR * mesh.num_tets
    rows: list[dict] = []

    for outer in range(cfg.outer_iterations):
        last = outer == cfg.outer_iterations - 1
        gtol = cfg.gtol if last else CONTINUATION_GTOL * cfg.gtol

        def fun(x, _alpha=alpha):
            e, g = total_energy_grad(x.reshape(n, 3), _alpha, fit)
            return e, g.ravel()

        for attempt in range(LINE_SEARCH_RETRIES + 1):
            try:
                result = lbfgs.minimize(
                    fun, omega.ravel(), memory=MEMORY, gtol=gtol,
                    max_iterations=cfg.max_inner_iterations,
                    initial_step=1.0 / (2.0 ** attempt))
                break
            except lbfgs.LineSearchError as exc:
                failure = exc
        else:
            raise NumericalError(
                f"line search failed persistently at outer iteration {outer} "
                f"(alpha={alpha:.6g}); last diagnostics: {failure.diagnostics}"
            )
        omega = result.x.reshape(n, 3)
        rows.append({"alpha": alpha,
                     "energy": data_energy_total(omega, M, tets),
                     "iterations": result.iterations,
                     "evals": result.num_evals, "converged": result.converged,
                     "grad_norm": float(np.linalg.norm(result.grad)),
                     "gtol": gtol})
        alpha *= cfg.alpha_decay
    return FrameField(omega, tet_frames(omega, tets), rows)
