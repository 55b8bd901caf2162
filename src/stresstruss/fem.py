"""Linear elastic static FEM on tet meshes.

P1 elements with constant strain per tet. Produces the per-tet Cauchy stress
field and its SPD rescaled surrogate that the frame-field stage aligns to.

All solves are direct and deterministic, and each caller picks the
factorization for the system it owns. The two volumetric systems, fea's
reduced stiffness and param's pinned per-component quadratics, are symmetric
positive definite on a tet mesh's vertex graph, whose reverse Cuthill-McKee
order gives a narrow band: ``solve_cholesky`` factors that band with LAPACK
(half-width 369 for the 8,712 DOFs of a 24 x 10 x 10 bar). Verify's truss
frame system is SPD too, but its band is wide (half-width 988 for 6,480
DOFs on a dense bar), so ``solve_lu`` factors it by SuperLU in symmetric
mode: diagonal pivots in minimum-degree order on A^T + A, which keeps the
fill of a truss graph small. On the seed-0 frame systems of the dense bar,
bar and 8x box it solves in 51, 23 and 14 ms, against 104, 44 and 23 ms in
COLAMD order and 230, 90 and 106 ms by banded Cholesky (one BLAS thread).
Both accept a solution by the same backward-error rule (``_accepted``).
Given a caller's ``record`` dict, each appends its system to the record's
``systems`` list, and ``solve_static`` adds its energies.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import reverse_cuthill_mckee

from . import selectors
from .errors import ConfigError, NumericalError
from .mesh import TetMesh, assemble, pieces, unique_rows

# Field-wide |eigenvalue| target range of the SPD stress surrogate.
SPD_RANGE = (1.0, 30.0)


@dataclass
class Material:
    young_modulus: float            # Pa
    poisson_ratio: float
    density: float = 0.0            # kg/m^3, used only for gravity loads
    yield_strength: float = 1.0     # Pa

    def __post_init__(self):
        for key, ok, what in (
                ("young_modulus", self.young_modulus > 0, "positive number"),
                ("poisson_ratio", -1.0 < self.poisson_ratio < 0.5,
                 "number in (-1, 0.5)"),
                ("density", self.density >= 0, "number >= 0"),
                ("yield_strength", self.yield_strength > 0,
                 "positive number")):
            if not ok:
                raise ConfigError(f"material.{key} must be a {what}")

    @property
    def lame(self) -> tuple[float, float]:
        E, nu = self.young_modulus, self.poisson_ratio
        lam = E * nu / ((1 + nu) * (1 - 2 * nu))
        mu = E / (2 * (1 + nu))
        return lam, mu

    def elasticity_voigt(self) -> np.ndarray:
        """6x6 isotropic stiffness, Voigt order (xx, yy, zz, yz, xz, xy)."""
        lam, mu = self.lame
        C = np.zeros((6, 6))
        C[:3, :3] = lam
        C[np.arange(3), np.arange(3)] += 2 * mu
        C[3:, 3:] = np.eye(3) * mu
        return C


@dataclass
class Dirichlet:
    selector: dict
    axes: tuple[bool, bool, bool] = (True, True, True)
    value: tuple[float, float, float] = (0.0, 0.0, 0.0)


@dataclass
class Neumann:
    selector: dict
    force: tuple[float, float, float] = (0.0, 0.0, 0.0)   # total force, N


@dataclass
class BoundaryConditions:
    dirichlet: list[Dirichlet] = field(default_factory=list)
    neumann: list[Neumann] = field(default_factory=list)
    gravity: tuple[float, float, float] | None = None


@dataclass
class StressField:
    sigma: np.ndarray                       # (m, 3, 3) Cauchy, Pa
    eigenvectors: np.ndarray                # (m, 3, 3), columns, decreasing lam
    eigenvalues: np.ndarray                 # (m, 3), decreasing


# ---------------------------------------------------------------------------
# Assembly and solve

# The strain-displacement terms (Voigt row r, displacement component c,
# gradient component d): strain r sums du_c/dx_d.
_STRAIN_TERMS = ((0, 0, 0), (1, 1, 1), (2, 2, 2), (3, 1, 2), (3, 2, 1),
                 (4, 0, 2), (4, 2, 0), (5, 0, 1), (5, 1, 0))


def assemble_stiffness(mesh: TetMesh, material: Material) -> sp.csr_matrix:
    """Global 3n x 3n stiffness, DOF order (v0x, v0y, v0z, v1x, ...)."""
    g = mesh.grads                                  # (m, 4, 3)
    m = mesh.num_tets
    B = np.zeros((m, 6, 12))
    for r, c, d in _STRAIN_TERMS:
        B[:, r, c::3] = g[:, :, d]                  # DOFs 3i + c, vertex i
    C = material.elasticity_voigt()
    ke = np.einsum("t,tki,kl,tlj->tij", mesh.volumes, B, C, B, optimize=True)
    del B       # freed before assembly, whose peak sets fea's memory

    dof = (3 * mesh.tets[:, :, None] + np.arange(3)).reshape(m, 12)
    return assemble(ke, dof, 3 * mesh.num_vertices)


def assemble_loads(mesh: TetMesh, material: Material, bcs: BoundaryConditions) -> np.ndarray:
    f = np.zeros(3 * mesh.num_vertices)
    for nm in bcs.neumann:
        faces = selectors.select_faces(mesh.vertices,
                                       mesh.boundary.triangles, nm.selector)
        if len(faces) == 0:
            raise ConfigError("Neumann selector matched no boundary faces")
        tri = mesh.boundary.triangles[faces]
        areas = mesh.boundary.face_areas[faces]
        total = areas.sum()
        if total <= 0:
            raise ConfigError("Neumann selector matched zero-area faces")
        F = np.asarray(nm.force, dtype=float)
        # Force split over faces by area, then a third to each face vertex.
        per_face = areas[:, None] / total * F            # (k, 3)
        np.add.at(f.reshape(-1, 3), tri.ravel(), np.repeat(per_face / 3.0, 3, axis=0))
    if bcs.gravity is not None:
        gvec = np.asarray(bcs.gravity, dtype=float)
        per_tet = material.density * mesh.volumes[:, None] * gvec   # (m, 3)
        np.add.at(f.reshape(-1, 3), mesh.tets.ravel(),
                  np.repeat(per_tet / 4.0, 4, axis=0))
    return f


def prescribed_dofs(mesh: TetMesh, bcs: BoundaryConditions) -> tuple[np.ndarray, np.ndarray]:
    """Constrained DOF ids (sorted) and values; later entries override."""
    held = np.zeros((mesh.num_vertices, 3), dtype=bool)
    values = np.zeros((mesh.num_vertices, 3))
    for d in bcs.dirichlet:
        vids = selectors.select(mesh.vertices, d.selector)
        if len(vids) == 0:
            raise ConfigError("Dirichlet selector matched no vertices")
        axes = np.flatnonzero(d.axes)
        held[np.ix_(vids, axes)] = True
        values[np.ix_(vids, axes)] = np.asarray(d.value, dtype=float)[axes]
    ids = np.flatnonzero(held)
    if len(ids) < 6:
        raise ConfigError(
            f"need at least 6 constrained scalar DOFs, got {len(ids)}"
        )
    return ids, values.ravel()[ids]


_RIGID_NAMES = (
    "translation-x", "translation-y", "translation-z",
    "rotation-x", "rotation-y", "rotation-z",
)


def solve_static(mesh: TetMesh, material: Material, bcs: BoundaryConditions,
                 *, record: dict | None = None) -> np.ndarray:
    """Static displacement field u, shape (n, 3) meters. ``record``, if
    given, gets the reduced system under ``systems``, as ``solve_cholesky``
    appends it, and ``strain_energy`` u.K u / 2, ``external_work`` f.u / 2
    and their relative ``energy_balance_gap``, from this solve's K and f.

    Raises ConfigError for under-specified constraints and NumericalError
    with the unconstrained rigid modes named when the reduced system is
    singular.
    """
    K = assemble_stiffness(mesh, material)
    f = assemble_loads(mesh, material, bcs)
    fixed, fixed_vals = prescribed_dofs(mesh, bcs)

    # Rigidity follows face adjacency: tets that share only a vertex are
    # separate pieces, hinged there.
    held = np.isin(np.arange(3 * mesh.num_vertices), fixed).reshape(-1, 3)
    npieces, label = pieces(mesh.num_tets, mesh.face_pairs)
    loose, modes, nfree = free_rigid_motions(
        mesh.vertices, np.column_stack([np.repeat(label, 4),
                                        mesh.tets.ravel()]), held)
    if nfree:
        raise NumericalError(
            "singular stiffness system; unconstrained rigid modes: "
            f"{', '.join(modes)} ({len(loose)} vertices; {nfree} of "
            f"{npieces} face-connected pieces free)"
        )
    u = solve_supported(K, f, fixed, fixed_vals, lambda A, b:
                        solve_cholesky(A, b, "stiffness", record))
    if record is not None:
        energy, work = 0.5 * float(u @ (K @ u)), 0.5 * float(f @ u)
        record.update(strain_energy=energy, external_work=work,
                      energy_balance_gap=abs(energy - work)
                      / max(abs(energy), 1e-300))
    return u.reshape(-1, 3)


def free_rigid_motions(positions: np.ndarray, members: np.ndarray,
                       fixed: np.ndarray) -> tuple[np.ndarray, list[str], int]:
    """The nodes that the ``fixed`` DOFs leave free to move rigidly, the
    names of those motions, and the number of pieces left free.

    ``members`` lists (piece, node) rows, pieces numbered from 0, and a
    node in two pieces is a hinge between them. ``fixed`` is (n, 3) for
    translation DOFs or (n, 6) with rotations too. Each piece is rigid, and
    held when its own fixed DOFs, plus the three translations of each node
    it shares with a piece already held, pass ``_free_motions``' rank test;
    sweeps repeat until none is added.
    """
    members = unique_rows(members)[0]
    npieces = int(members[-1, 0]) + 1 if len(members) else 0
    bounds = np.searchsorted(members[:, 0], np.arange(npieces + 1))
    rigid = np.zeros(npieces, dtype=bool)
    pinned = np.zeros(fixed.shape, dtype=bool)   # translations held rigid
    grew = True
    while grew:
        free, grew = set(), False
        for c in np.nonzero(~rigid)[0]:
            v = members[bounds[c]:bounds[c + 1], 1]
            i, k = np.nonzero(fixed[v] | pinned[v])
            moves = _free_motions(positions[v[i]], k)
            free |= moves
            if not moves:
                rigid[c] = grew = pinned[v, :3] = True
    loose = np.setdiff1d(members[~rigid[members[:, 0]], 1],
                         np.nonzero(pinned[:, 0])[0])
    return (loose, [_RIGID_NAMES[m] for m in sorted(free)],
            int(npieces - rigid.sum()))


def _free_motions(p: np.ndarray, k: np.ndarray) -> set[int]:
    """The rigid motions (indices into ``_RIGID_NAMES``) that fixed DOFs
    ``k`` (0-2 translations, 3-5 rotations) at points ``p``, one row each,
    leave free; empty when they hold the piece. The rows (e_k, p x e_k) and
    (0, e_k) in the rigid motion (t, w), translation t + w x p at p, must
    have rank 6; rotations are about the centroid of the rows' points."""
    if len(k) == 0:
        return set(range(6))
    p = p - p.mean(axis=0)
    p /= max(np.abs(p).max(), 1e-300)
    rows = np.zeros((len(k), 6))
    rows[np.arange(len(k)), k] = 1.0        # t_k, or w_k for k >= 3
    move = k < 3
    rows[move, 3:] = np.cross(p[move], np.eye(3)[k[move]])
    _, sv, vt = np.linalg.svd(rows)
    rank = int(np.sum(sv > 1e-9 * sv[0]))
    return {int(m) for v in np.abs(vt[rank:])
            for m in np.nonzero(v > 0.3 * v.max())[0]}


def solve_supported(K, f: np.ndarray, held: np.ndarray, values: np.ndarray,
                    solve) -> np.ndarray:
    """Solution u of K u = f with the DOFs ``held`` (sorted ids) fixed at
    ``values``: ``solve(A, b)`` solves the free block A x = b, and the
    caller picks it for the system it owns (``solve_cholesky`` or
    ``solve_lu``)."""
    u = np.zeros(len(f))
    u[held] = values
    free = np.setdiff1d(np.arange(len(f)), held)
    Kf = K[free]
    rhs = f[free] - Kf[:, held] @ values
    if len(free):
        u[free] = solve(Kf[:, free], rhs)
    return u


def solve_cholesky(A, b: np.ndarray, what: str,
                   record: dict | None = None) -> np.ndarray:
    """Solution x of the symmetric positive definite A x = b by LAPACK
    banded Cholesky in reverse Cuthill-McKee order; A's ``dofs``, ``nnz``
    and ``bandwidth`` go to ``record["systems"]`` as one dict. Accepted as
    ``_accepted`` says, so a matrix that is not numerically positive
    definite fails by name, and a MemoryError names the system and its band
    storage."""
    perm = reverse_cuthill_mckee(A, symmetric_mode=True)
    P = sp.triu(A[perm][:, perm], format="coo")     # the upper band
    width = int((P.col - P.row).max(initial=0))
    if record is not None:
        record.setdefault("systems", []).append(
            {"dofs": A.shape[0], "nnz": A.nnz, "bandwidth": width})
    try:
        band = np.zeros((width + 1, A.shape[0]), order="F")  # upper band storage
        band[width + P.row - P.col, P.col] = P.data
        x = np.empty(len(b))
        x[perm] = sla.solveh_banded(band, b[perm], overwrite_ab=True,
                                    check_finite=False)
    except np.linalg.LinAlgError:
        x = None
    except MemoryError as exc:
        raise _out_of_memory(
            exc, what, A, f", band {8 * (width + 1) * A.shape[0]} bytes"
        ) from exc
    return _accepted(A, b, x, what, "banded Cholesky")


def solve_lu(A, b: np.ndarray, what: str,
             record: dict | None = None) -> np.ndarray:
    """Solution x of the symmetric A x = b by SuperLU in symmetric mode,
    accepted as ``_accepted`` says; A's ``dofs`` and ``nnz`` go to
    ``record["systems"]`` as one dict. An exactly singular factor fails, and
    a MemoryError names the system."""
    if record is not None:
        record.setdefault("systems", []).append(
            {"dofs": A.shape[0], "nnz": A.nnz})
    try:
        A = A.tocsc()
        x = spla.splu(A, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                      options={"SymmetricMode": True}).solve(b)
    except RuntimeError:
        x = None
    except MemoryError as exc:
        raise _out_of_memory(exc, what, A) from exc
    return _accepted(A, b, x, what, "sparse LU")


def _out_of_memory(exc: MemoryError, what: str, A, detail: str = ""
                   ) -> MemoryError:
    """``exc`` restated with the size of the system ``what`` being solved."""
    return MemoryError(f"{what} system ({A.shape[0]} dofs, nnz {A.nnz}"
                       f"{detail}): {exc}")


def _accepted(A, b: np.ndarray, x: np.ndarray | None, what: str,
              method: str) -> np.ndarray:
    """``x``, the ``method`` solution of A x = b (None if it failed), when it
    is finite and its normwise backward error
    |A x - b|_inf / (|A|_inf |x|_inf + |b|_inf) is at most 1e-8; otherwise
    NumericalError naming the system ``what``.

    Both factorizations are backward stable, so this does not reliably
    detect a mechanism: callers rule those out first
    (``free_rigid_motions``, or param's count of mesh pieces).
    """
    if x is not None and np.isfinite(x).all():
        resid = np.abs(A @ x - b).max(initial=0.0)
        scale = spla.norm(A, np.inf) * np.abs(x).max(initial=0.0)
        if resid <= 1e-8 * (scale + np.abs(b).max(initial=0.0)):
            return x
    raise NumericalError(
        f"{what} system singular to working precision: {method} failed or "
        "its backward error is above 1e-8"
    )


# ---------------------------------------------------------------------------
# Stress


def cauchy_stress(mesh: TetMesh, material: Material, u: np.ndarray) -> StressField:
    """Constant Cauchy tensor per tet from linear strain of u."""
    u = np.asarray(u, dtype=float).reshape(mesh.num_vertices, 3)
    H = np.einsum("tic,tid->tcd", u[mesh.tets], mesh.grads)  # H[c,d] = du_c/dx_d
    eps = 0.5 * (H + np.transpose(H, (0, 2, 1)))
    lam, mu = material.lame
    tr = np.trace(eps, axis1=1, axis2=2)
    sigma = 2 * mu * eps
    sigma[:, np.arange(3), np.arange(3)] += lam * tr[:, None]
    w, v = np.linalg.eigh(sigma)                        # ascending
    return StressField(
        sigma=sigma,
        eigenvectors=v[:, :, ::-1].copy(),
        eigenvalues=w[:, ::-1].copy(),
    )


def stress_spd(field: StressField) -> tuple[np.ndarray, np.ndarray]:
    """The SPD surrogate: |eigenvalues|, then one global affine map of the
    field-wide |eigenvalue| range onto [1, 30]. Eigenvectors unchanged.
    Returns sigma_plus (m, 3, 3) and its eigenvalues (m, 3), in the column
    order of ``field.eigenvectors``.
    """
    lam_abs = np.abs(field.eigenvalues)
    lo, hi = float(lam_abs.min()), float(lam_abs.max())
    if hi == 0.0:
        raise NumericalError("null stress field")
    a, b = SPD_RANGE
    if hi - lo < 1e-12 * hi:
        lam_new = np.full_like(lam_abs, 0.5 * (a + b))
    else:
        lam_new = a + (b - a) * (lam_abs - lo) / (hi - lo)
    Q = field.eigenvectors
    return np.einsum("tik,tk,tjk->tij", Q, lam_new, Q), lam_new
