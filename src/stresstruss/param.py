"""Volumetric parametrization following the frame field.

Each parameter component should advance by one unit per step along its own
frame direction (spacing, weighted by beta) while staying constant along the
other two (orthogonality). The resulting quadratic is singular exactly up to
one translation per component; mean-zero constraints fix that gauge.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import ConfigError, NumericalError
from .frames import FrameField
from .mesh import DiscreteOperators, TetMesh, build_operators


@dataclass
class Parametrization:
    phi: np.ndarray                     # (n, 3) texture coordinates
    beta: float
    rho: float = 1.0
    phi_tilde: np.ndarray | None = None


def directional_gradient(ops: DiscreteOperators, v: np.ndarray) -> sp.csr_matrix:
    """Per-tet derivative along one direction vector per tet."""
    v = np.asarray(v, dtype=float)
    if v.ndim != 2 or v.shape[1] != 3 or v.shape[0] != ops.Gx.shape[0]:
        raise ConfigError("need one 3-vector per tet")
    return (
        sp.diags(v[:, 0]) @ ops.Gx
        + sp.diags(v[:, 1]) @ ops.Gy
        + sp.diags(v[:, 2]) @ ops.Gz
    ).tocsr()


def objective_terms(
    ops: DiscreteOperators, frames: np.ndarray
) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """Spacing block D (3m x 3n) and orthogonality block O (6m x 3n).

    phi is stacked component-major: (phi_1; phi_2; phi_3).
    """
    G = [directional_gradient(ops, frames[:, :, k]) for k in range(3)]
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


def evaluate_objective(
    ops: DiscreteOperators, frames: np.ndarray, phi: np.ndarray, beta: float
) -> float:
    D, O = objective_terms(ops, frames)
    x = np.asarray(phi, dtype=float).T.ravel()
    rd = D @ x - 1.0
    ro = O @ x
    return float(beta * (rd @ rd) + ro @ ro)


def solve_parametrization(
    mesh: TetMesh,
    frames: FrameField | np.ndarray,
    beta: float = 1.0,
    ops: DiscreteOperators | None = None,
) -> Parametrization:
    """Minimize the spacing/orthogonality quadratic with mean-zero gauge.

    Solved through the KKT system of the normal equations with one mean
    constraint per component; the right-hand side is orthogonal to the
    translation null space, so the multipliers vanish.
    """
    if beta <= 0:
        raise ConfigError("beta must be positive")
    R = frames.frames if isinstance(frames, FrameField) else np.asarray(frames)
    if ops is None:
        ops = build_operators(mesh)
    n = mesh.num_vertices

    # A disconnected mesh has one translation null vector per piece and
    # component, which the 3 gauge constraints cannot absorb.
    ncomp = _connected_components(mesh)
    if ncomp > 1:
        raise NumericalError(
            "parametrization system singular beyond the translation gauge: "
            f"mesh has {ncomp} disconnected components"
        )
    D, O = objective_terms(ops, R)
    H = (beta * (D.T @ D) + O.T @ O).tocsr()
    rhs = beta * (D.T @ np.ones(D.shape[0]))

    C = sp.csr_matrix((np.ones(3 * n) / n,
                       (np.repeat(np.arange(3), n), np.arange(3 * n))),
                      shape=(3, 3 * n))
    KKT = sp.bmat([[H, C.T], [C, None]], format="csc")
    full_rhs = np.concatenate([rhs, np.zeros(3)])

    with warnings.catch_warnings():
        warnings.simplefilter("error", spla.MatrixRankWarning)
        try:
            sol = spla.spsolve(KKT, full_rhs)
        except (spla.MatrixRankWarning, RuntimeError):
            raise NumericalError(
                "parametrization system singular beyond the translation gauge "
                "(is the mesh disconnected?)"
            ) from None
    if not np.isfinite(sol).all():
        raise NumericalError(
            "parametrization system singular beyond the translation gauge "
            "(is the mesh disconnected?)"
        )
    x, mult = sol[:3 * n], sol[3 * n:]
    residual = H @ x + C.T @ mult - rhs
    scale = max(np.linalg.norm(rhs), 1e-300)
    if np.linalg.norm(residual) > 1e-8 * scale:
        raise NumericalError(
            f"normal-equation residual {np.linalg.norm(residual) / scale:.2e} above 1e-8"
        )
    phi = x.reshape(3, n).T.copy()
    return Parametrization(phi=phi, beta=float(beta))


def _connected_components(mesh: TetMesh) -> int:
    t = mesh.tets
    pairs = np.concatenate([t[:, [0, 1]], t[:, [0, 2]], t[:, [0, 3]],
                            t[:, [1, 2]], t[:, [1, 3]], t[:, [2, 3]]])
    n = mesh.num_vertices
    adj = sp.csr_matrix(
        (np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])), shape=(n, n)
    )
    from scipy.sparse.csgraph import connected_components
    ncomp, _ = connected_components(adj, directed=False)
    return int(ncomp)


def normalize_and_scale(p: Parametrization, rho: float) -> Parametrization:
    """Zero-min translate each component, apply one uniform scale so the
    largest component range becomes 1, then multiply by rho."""
    if rho <= 0:
        raise ConfigError("rho must be positive")
    phi = p.phi
    lo = phi.min(axis=0)
    ranges = phi.max(axis=0) - lo
    max_range = float(ranges.max())
    if max_range <= 0.0:
        raise NumericalError("constant parametrization")
    p.phi_tilde = (phi - lo) * (rho / max_range)
    p.rho = float(rho)
    return p
