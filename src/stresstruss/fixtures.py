"""Deterministic test meshes.

Structured boxes split into six tets per cell, with an optional
deterministic interior-vertex jitter (closed-form, no RNG) so that grid
planes and cell diagonals do not coincide with isovalue preimages in
degenerate ways. Boundary vertices are never moved.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import ConfigError
from .mesh import TetMesh, signed_volumes

# Six tets per hex cell, one per axis permutation, all sharing the main
# diagonal. Adjacent cells triangulate shared faces identically.
_PERMS = list(itertools.permutations((0, 1, 2)))


def box_mesh(
    divisions: tuple[int, int, int],
    size: tuple[float, float, float] = (1.0, 1.0, 1.0),
    origin: tuple[float, float, float] = (0.0, 0.0, 0.0),
    jitter: float = 0.0,
) -> TetMesh:
    """Axis-aligned box with ``divisions`` cells per axis, 6 tets per cell.

    ``jitter`` displaces interior vertices by at most that fraction of the
    smallest cell edge, using a fixed closed-form formula of the integer
    grid coordinates. Keep it below ~0.2 so no tet degenerates; a jitter
    that turns any tet inside out raises ConfigError.
    """
    nx, ny, nz = divisions
    if min(nx, ny, nz) < 1:
        raise ValueError("divisions must be >= 1 per axis")
    sx, sy, sz = size
    hx, hy, hz = sx / nx, sy / ny, sz / nz

    ii, jj, kk = np.meshgrid(
        np.arange(nx + 1), np.arange(ny + 1), np.arange(nz + 1), indexing="ij"
    )
    verts = np.stack(
        [origin[0] + ii * hx, origin[1] + jj * hy, origin[2] + kk * hz], axis=-1
    ).reshape(-1, 3).astype(np.float64)

    if jitter:
        grid = verts.copy()
        interior = (
            (ii > 0) & (ii < nx) & (jj > 0) & (jj < ny) & (kk > 0) & (kk < nz)
        ).ravel()
        f = ii * 1.0 + jj * 57.0 + kk * 131.0
        amp = jitter * min(hx, hy, hz) / np.sqrt(3.0)
        disp = np.stack(
            [
                np.sin(12.9898 * f + 4.1414),
                np.sin(26.6519 * f + 1.2357),
                np.sin(45.1643 * f + 7.8233),
            ],
            axis=-1,
        ).reshape(-1, 3)
        verts[interior] += amp * disp[interior]

    def vid(i, j, k):
        return (i * (ny + 1) + j) * (nz + 1) + k

    ci, cj, ck = np.meshgrid(np.arange(nx), np.arange(ny), np.arange(nz), indexing="ij")
    base = np.stack([ci.ravel(), cj.ravel(), ck.ravel()], axis=-1)   # (ncell, 3)

    tets = []
    for perm in _PERMS:
        corners = [base.copy()]
        cur = base.copy()
        for axis in perm:
            cur = cur.copy()
            cur[:, axis] += 1
            corners.append(cur)
        tet = np.stack(
            [vid(c[:, 0], c[:, 1], c[:, 2]) for c in corners], axis=-1
        )
        tets.append(tet)
    tets = np.concatenate(tets)
    if jitter:
        flipped = np.count_nonzero(np.signbit(signed_volumes(verts, tets))
                                   != np.signbit(signed_volumes(grid, tets)))
        if flipped:
            raise ConfigError(f"mesh.jitter {jitter!r} tangles the mesh: "
                              f"{flipped} tets flip orientation")
    return TetMesh(verts, tets)


def bar_mesh(jitter: float = 0.0) -> TetMesh:
    """Cantilever bar, 0.2 x 0.05 x 0.05 m, 12 x 5 x 5 cells (1800 tets)."""
    return box_mesh((12, 5, 5), size=(0.2, 0.05, 0.05), jitter=jitter)


def unit_cube_mesh(n: int = 5, jitter: float = 0.0) -> TetMesh:
    """Unit cube with n cells per axis."""
    return box_mesh((n, n, n), size=(1.0, 1.0, 1.0), jitter=jitter)


# The fixtures a config's ``mesh.fixture`` names; the other mesh keys are
# the function's keyword arguments, with its defaults.
FIXTURES = {"bar": bar_mesh, "cube": unit_cube_mesh, "box": box_mesh}
