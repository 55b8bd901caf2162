"""Volumetric parametrization following the frame field.

Each parameter component should advance by one unit per step along its own
frame direction (spacing, weighted by beta) while staying constant along the
other two (orthogonality). The resulting quadratic is singular exactly up to
one translation per component; mean-zero constraints fix that gauge.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError, NumericalError
from .fem import solve_reduced
from .frames import FrameField
from .mesh import DiscreteOperators, TetMesh, build_operators, pieces


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
    ncomp = pieces(n, mesh.tets[:, [[0, 1], [1, 2], [2, 3]]])[0]
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

    sol = solve_reduced(KKT, full_rhs, "parametrization")
    phi = sol[:3 * n].reshape(3, n).T.copy()
    return Parametrization(phi=phi, beta=float(beta))


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
