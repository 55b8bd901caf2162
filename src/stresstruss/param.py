"""Volumetric parametrization following the frame field.

Each parameter component should advance by one unit per step along its own
frame direction (spacing, weighted by beta) while staying constant along the
other two (orthogonality). The resulting quadratic is singular exactly up to
one translation per component; a mean-zero gauge fixes it.

``solve_parametrization`` returns phi (n, 3), and ``normalize_and_scale``
maps it to phi_tilde (n, 3), the array that extraction reads once it is
perturbed off the integers (``extract.perturb_parametrization``). Given
a stage's ``record`` dict, it appends its three solved systems there and
sets the ``objective`` it reached.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError, NumericalError
from .fem import solve_cholesky, solve_supported
from .mesh import TetMesh, pieces


def directional_gradient(mesh: TetMesh, v: np.ndarray) -> sp.csr_matrix:
    """Per-tet derivative along one direction vector per tet, (m, n), from
    ``mesh.grads``: grad(lambda_i) . v_t, summed over the axes in order,
    exact zeros dropped and each row's columns sorted."""
    v = np.asarray(v, dtype=float)
    m = mesh.num_tets
    if v.shape != (m, 3):
        raise ConfigError("need one 3-vector per tet")
    g, v = mesh.grads, v[:, None, :]
    data = g[..., 0] * v[..., 0] + g[..., 1] * v[..., 1] + g[..., 2] * v[..., 2]
    indptr = np.arange(0, 4 * m + 1, 4)
    G = sp.csr_matrix((data.ravel(), mesh.tets.ravel(), indptr),
                      shape=(m, mesh.num_vertices))
    G.eliminate_zeros()
    return G.sorted_indices()


def objective_terms(
    mesh: TetMesh, frames: np.ndarray
) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """Spacing block D (3m x 3n) and orthogonality block O (6m x 3n).

    phi is stacked component-major: (phi_1; phi_2; phi_3).
    """
    G = [directional_gradient(mesh, frames[:, :, k]) for k in range(3)]
    D = sp.block_diag(G, format="csr")
    Z = sp.csr_matrix(G[0].shape)
    O = sp.vstack(
        [
            sp.hstack([Z, G[0], Z]),
            sp.hstack([Z, Z, G[0]]),
            sp.hstack([G[1], Z, Z]),
            sp.hstack([Z, Z, G[1]]),
            sp.hstack([G[2], Z, Z]),
            sp.hstack([Z, G[2], Z]),
        ],
        format="csr",
    )
    return D, O


def _objective(G: list[sp.csr_matrix], phi: np.ndarray,
               beta: float) -> float:
    """beta |D x - 1|^2 + |O x|^2 for ``objective_terms``' D and O, taken
    from the directional gradients G_k without building D and O. The
    residuals are stacked in D's and O's row order, so the float is the
    same."""
    rd = np.concatenate([g @ phi[:, k] for k, g in enumerate(G)]) - 1.0
    ro = np.concatenate([G[k] @ phi[:, j] for k in range(3) for j in range(3)
                         if j != k])
    return float(beta * (rd @ rd) + ro @ ro)


def evaluate_objective(
    mesh: TetMesh, frames: np.ndarray, phi: np.ndarray, beta: float
) -> float:
    """The quadratic ``solve_parametrization`` minimizes, at ``phi``."""
    G = [directional_gradient(mesh, frames[:, :, k]) for k in range(3)]
    return _objective(G, np.asarray(phi, dtype=float), beta)


def solve_parametrization(
    mesh: TetMesh,
    frames: np.ndarray,
    beta: float = 1.0,
    *,
    record: dict | None = None,
) -> np.ndarray:
    """Minimize the spacing/orthogonality quadratic with mean-zero gauge,
    for the (m, 3, 3) per-tet frames.

    Each row of O reads one component and D is block-diagonal, so the
    quadratic splits into one n x n system per component k:
    H_k = beta G_k^T G_k + sum_{j != k} G_j^T G_j, right-hand side
    beta G_k^T 1. H_k is singular only up to a constant on a connected mesh,
    and the right-hand side is orthogonal to the constants, so the solve
    with vertex 0 pinned, minus its mean, is the mean-zero minimiser. The
    three systems go to ``record``'s ``systems``, as ``solve_cholesky``
    appends them, and the objective at phi to its ``objective``, from the
    same G_k. Returns phi (n, 3).
    """
    if beta <= 0:
        raise ConfigError("beta must be positive")
    n = mesh.num_vertices

    # A disconnected mesh has one constant null vector per piece and
    # component, which one pinned vertex cannot absorb.
    ncomp = pieces(n, mesh.tets[:, [[0, 1], [1, 2], [2, 3]]])[0]
    if ncomp > 1:
        raise NumericalError(
            "parametrization system singular beyond the translation gauge: "
            f"mesh has {ncomp} disconnected components"
        )
    G = [directional_gradient(mesh, frames[:, :, k]) for k in range(3)]
    GtG = [g.T @ g for g in G]
    phi = np.empty((n, 3))
    for k in range(3):
        H = (beta * GtG[k] + GtG[k - 2] + GtG[k - 1]).tocsr()
        rhs = beta * (G[k].T @ np.ones(G[k].shape[0]))
        x = solve_supported(H, rhs, np.array([0]), np.zeros(1), lambda A, b:
                            solve_cholesky(A, b, "parametrization", record))
        phi[:, k] = x - x.mean()
    if record is not None:
        record["objective"] = _objective(G, phi, beta)
    return phi


def normalize_and_scale(phi: np.ndarray, rho: float) -> np.ndarray:
    """phi_tilde: zero-min translate each component of phi, apply one
    uniform scale so the largest component range becomes 1, then multiply
    by rho."""
    if rho <= 0:
        raise ConfigError("rho must be positive")
    lo = phi.min(axis=0)
    ranges = phi.max(axis=0) - lo
    max_range = float(ranges.max())
    if max_range <= 0.0:
        raise NumericalError("constant parametrization")
    return (phi - lo) * (rho / max_range)
