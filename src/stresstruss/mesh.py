"""Tetrahedral mesh data model, file ingestion, and discrete operators.

Meshes are inputs (no meshing here). Loaders accept MEDIT ``.mesh`` files and
TetGen ``.node``/``.ele`` pairs, reorient inverted tets, and extract the
boundary triangle complex. A mesh holds its linear shape-function gradients
once (``grads``, which fea and param read) and its vertex cotangent
Laplacian (``laplacian``, which frames reads). A mesh copies the arrays it
is given and holds every array read-only, its boundary's and those tables'
included, so that callers can share it: copy an array to change it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .errors import MeshError

# Tets below this volume are treated as degenerate.
DEGENERATE_VOLUME = 1e-14

# Faces of a positively oriented tet (a,b,c,d), outward-facing.
_TET_FACES = ((0, 2, 1), (0, 1, 3), (1, 2, 3), (2, 0, 3))


@dataclass
class SurfaceMesh:
    """Boundary triangle 2-complex of a tet mesh.

    Triangles index into the parent mesh's vertex array and are oriented
    outward. ``edges`` lists unique boundary edges with their two incident
    boundary faces.
    """

    triangles: np.ndarray          # (nb, 3) int
    edges: np.ndarray              # (ne, 2) int, sorted vertex pairs
    edge_faces: np.ndarray         # (ne, 2) int, incident boundary triangles
    face_edges: np.ndarray         # (nb, 3) int, edge of sides 01, 12, 20
    face_normals: np.ndarray       # (nb, 3) float, unit outward normals
    face_areas: np.ndarray         # (nb,) float, triangle areas


@dataclass
class TetMesh:
    vertices: np.ndarray           # (n, 3) float64, meters
    tets: np.ndarray               # (m, 4) int, positively oriented
    volumes: np.ndarray = field(init=False)
    boundary: SurfaceMesh = field(init=False)
    face_ids: np.ndarray = field(init=False)   # (4m,) distinct-face id of _faces

    def __post_init__(self):
        self.vertices = np.array(self.vertices, dtype=np.float64, order="C")
        self.tets = np.array(self.tets, dtype=np.int64, order="C")
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 3:
            raise MeshError("vertices must be an (n, 3) array")
        if not np.isfinite(self.vertices).all():
            raise MeshError("non-finite vertex coordinate")
        if self.tets.ndim != 2 or self.tets.shape[1] != 4:
            raise MeshError("tets must be an (m, 4) array")
        if self.tets.min(initial=0) < 0 or self.tets.max(initial=-1) >= len(self.vertices):
            raise MeshError("tet vertex index out of range")
        self._orient_and_validate()
        self.boundary = self._extract_boundary()
        for a in (*vars(self).values(), *vars(self.boundary).values()):
            if isinstance(a, np.ndarray):
                a.flags.writeable = False

    @cached_property
    def grads(self) -> np.ndarray:
        """The four linear shape functions' gradients per tet, (m, 4, 3),
        read-only; ``__post_init__`` rejected degenerate tets."""
        p = self.vertices[self.tets]
        E = np.transpose(p[:, 1:] - p[:, :1], (0, 2, 1))    # columns are edge vectors
        Einv = np.linalg.inv(E)
        g = np.empty((self.num_tets, 4, 3))
        g[:, 1:, :] = Einv                                   # rows of E^-1 = grad lambda_{1..3}
        g[:, 0, :] = -Einv.sum(axis=1)
        g.flags.writeable = False
        return g

    @cached_property
    def laplacian(self) -> sp.csr_matrix:
        """``build_operators(self)``, built on first read, kept read-only."""
        L = build_operators(self)
        for a in (L.data, L.indices, L.indptr):
            a.flags.writeable = False
        return L

    @cached_property
    def face_pairs(self) -> np.ndarray:
        """The (k, 2) pairs of tets that share a face: the interior faces,
        which ``face_ids`` holds twice. Read-only."""
        order = np.argsort(self.face_ids, kind="stable")
        twice = self.face_ids[order[1:]] == self.face_ids[order[:-1]]
        pairs = (np.column_stack([order[:-1][twice], order[1:][twice]])
                 % self.num_tets)
        pairs.flags.writeable = False
        return pairs

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_tets(self) -> int:
        return len(self.tets)

    def _orient_and_validate(self):
        vol = signed_volumes(self.vertices, self.tets)
        # Swap two vertices of each inverted tet to restore its orientation.
        flipped = vol < 0
        self.tets[flipped] = self.tets[flipped][:, [0, 2, 1, 3]]
        vol = np.abs(vol)
        bad = np.nonzero(vol < DEGENERATE_VOLUME)[0]
        if bad.size:
            raise MeshError(f"degenerate tet (volume < {DEGENERATE_VOLUME:g}) at index {bad[0]}")
        if (unique_rows(np.sort(self.tets, axis=1))[3] > 1).any():
            raise MeshError("duplicate tets")
        self.volumes = vol

    def _extract_boundary(self) -> SurfaceMesh:
        faces = _faces(self.tets)
        _, first, self.face_ids, counts = unique_rows(np.sort(faces, axis=1))
        if counts.max(initial=1) > 2:
            raise MeshError("non-manifold face (shared by more than two tets)")
        # The faces held once, in the distinct rows' sorted vertex triple order.
        tris = faces[first[counts == 1]]
        normals, areas = _triangle_normals(self.vertices, tris)

        # Boundary edges: each must have exactly two incident boundary faces,
        # listed in side-major encounter order.
        edges, ecounts, face_edges = unique_edges(tris)
        if len(tris) and not (ecounts == 2).all():
            raise MeshError("boundary is not a closed 2-complex")
        edge_faces = (np.argsort(face_edges.T.ravel(), kind="stable")
                      % len(tris)).reshape(-1, 2)
        return SurfaceMesh(tris, edges, edge_faces, face_edges, normals,
                           areas)


def _faces(tets: np.ndarray) -> np.ndarray:
    """The (4m, 3) outward faces of the tets, face-major: row r is a face of
    tet r % m."""
    return np.concatenate([tets[:, idx] for idx in _TET_FACES])


def signed_volumes(vertices: np.ndarray, tets: np.ndarray) -> np.ndarray:
    p = vertices[tets]
    return np.linalg.det(p[:, 1:] - p[:, :1]) / 6.0


def _triangle_normals(vertices, tris):
    """The triangles' unit normals (zero where degenerate) and areas."""
    p = vertices[tris]
    n = np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
    norm = np.linalg.norm(n, axis=1)
    return n / np.where(norm == 0, 1.0, norm)[:, None], 0.5 * norm


# ---------------------------------------------------------------------------
# File ingestion


MESH_FORMATS = ("medit_mesh", "tetgen_pair")


def mesh_format(path: str | Path, fmt: str | None = None) -> str:
    """``fmt``, or if it is None the format that ``path``'s extension names;
    MeshError naming ``mesh.format`` unless that is one of ``MESH_FORMATS``."""
    suffix = Path(path).suffix
    if fmt is None and suffix in (".mesh", ".node", ".ele"):
        fmt = MESH_FORMATS[suffix != ".mesh"]
    if fmt not in MESH_FORMATS:
        raise MeshError(f"mesh.format must be one of {MESH_FORMATS}, or left "
                        "out for a .mesh, .node or .ele file; got "
                        f"{fmt!r} for {Path(path).name!r}")
    return fmt


def load_tet_mesh(path: str | Path, fmt: str | None = None) -> TetMesh:
    """Load a tet mesh from MEDIT ``.mesh`` or a TetGen ``.node``/``.ele`` pair.

    ``fmt`` is one of ``MESH_FORMATS``, as ``mesh_format`` infers it when
    omitted. Inverted tets are reoriented on load.
    """
    path = Path(path)
    fmt = mesh_format(path, fmt)
    try:
        verts, tets = (_read_medit if fmt == "medit_mesh"
                       else _read_tetgen)(path)
    except MeshError:
        raise
    except OSError as exc:
        raise MeshError(f"cannot read mesh file {exc.filename}: "
                        f"{exc.strerror}") from exc
    except (ValueError, IndexError, OverflowError) as exc:
        raise MeshError(f"{path.name}: malformed {fmt} file: {exc}") from exc
    if len(tets) == 0:
        raise MeshError(f"{path.name}: no tetrahedra")
    return TetMesh(verts, tets)


# MEDIT sections: tokens per entry; surface triangles and edges are
# recomputed from the tets, so only their counts are read.
_MEDIT_WIDTHS = {"vertices": 4, "tetrahedra": 5, "triangles": 4, "edges": 3}


def _token_rows(path: Path) -> list[list[str]]:
    """The tokens of each line of ``path`` that holds any outside its
    ``#`` comment."""
    rows = (line.split("#", 1)[0].split()
            for line in path.read_text().splitlines())
    return [row for row in rows if row]


def _read_medit(path: Path):
    tokens = [tok for row in _token_rows(path) for tok in row]
    sections = {}
    i = 0
    while i < len(tokens) and tokens[i].lower() != "end":
        tok = tokens[i].lower()
        if tok not in _MEDIT_WIDTHS:
            i += 1
            continue
        cnt, width = int(tokens[i + 1]), _MEDIT_WIDTHS[tok]
        body = tokens[i + 2:i + 2 + width * cnt]
        if len(body) != width * cnt:
            raise MeshError(f"{path.name}: {tokens[i]} section does not hold "
                            f"{cnt} entries")
        sections[tok] = body, cnt
        i += 2 + width * cnt
    if "vertices" not in sections or "tetrahedra" not in sections:
        raise MeshError(f"{path.name}: missing Vertices or Tetrahedra section")
    body, cnt = sections["vertices"]
    verts = np.array(body, dtype=np.float64).reshape(cnt, 4)[:, :3]
    body, cnt = sections["tetrahedra"]
    tets = np.array(body, dtype=np.int64).reshape(cnt, 5)[:, :4] - 1  # from 1
    return verts, tets


def _read_tetgen(path: Path):
    node_path = path.with_suffix(".node")
    ele_path = path.with_suffix(".ele")
    for p in (node_path, ele_path):
        if not p.exists():
            raise MeshError(f"missing TetGen file {p.name}")

    nrows = _token_rows(node_path)
    npts, dim = int(nrows[0][0]), int(nrows[0][1])
    if dim != 3:
        raise MeshError(f"{node_path.name}: expected dimension 3, got {dim}")
    body = nrows[1:1 + npts]
    if len(body) != npts:
        raise MeshError(f"{node_path.name}: expected {npts} points")
    first_index = int(body[0][0])   # 0- or 1-based, from the first row
    verts = np.array([r[1:4] for r in body], dtype=np.float64)

    erows = _token_rows(ele_path)
    ntets, npe = int(erows[0][0]), int(erows[0][1])
    if npe != 4:
        raise MeshError(f"{ele_path.name}: expected 4 nodes per tet, got {npe}")
    ebody = erows[1:1 + ntets]
    if len(ebody) != ntets:
        raise MeshError(f"{ele_path.name}: expected {ntets} tets")
    tets = np.array([r[1:5] for r in ebody], dtype=np.int64) - first_index
    return verts, tets


def write_medit(path: str | Path, vertices: np.ndarray, tets: np.ndarray):
    """Write a MEDIT ``.mesh`` file (1-based indices)."""
    lines = ["MeshVersionFormatted 2", "Dimension 3", "Vertices", str(len(vertices))]
    for v in vertices:
        lines.append(f"{float(v[0])!r} {float(v[1])!r} {float(v[2])!r} 0")
    lines.append("Tetrahedra")
    lines.append(str(len(tets)))
    for t in tets:
        lines.append(f"{t[0] + 1} {t[1] + 1} {t[2] + 1} {t[3] + 1} 0")
    lines.append("End")
    Path(path).write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Discrete operators


def build_operators(mesh: TetMesh) -> sp.csr_matrix:
    """The cotangent Laplacian L, the P1 stiffness matrix
    sum_t vol_t * G_t^T G_t: symmetric, with zero row sums and off-diagonal
    signs kept as they are."""
    local = np.einsum("t,tia,tja->tij", mesh.volumes, mesh.grads, mesh.grads)
    return assemble(local, mesh.tets, mesh.num_vertices)


def assemble(blocks: np.ndarray, dofs: np.ndarray, size: int) -> sp.csr_matrix:
    """The size x size CSR matrix of element blocks (E, k, k) placed at
    their DOFs (E, k): duplicates summed, then made exactly symmetric
    ((A + A^T) / 2, as x + y == y + x bitwise).

    The block rows are gathered straight into CSR order. A stable argsort
    of the DOFs lists each global row's (element, local row) pairs in
    element order: the order in which scipy's COO-to-CSR conversion leaves
    row-major (row, col) triplets. So ``sum_duplicates`` hands its per-row
    ``sort_indices`` (an unstable sort, whose output depends only on its
    input) the same sequence as a triplet assembly would, and A is
    bit-identical to one, at under half its peak memory."""
    k = dofs.shape[1]
    flat = dofs.ravel()
    idx = np.int32 if max(size, flat.size * k) < 2 ** 31 else np.int64
    order = np.argsort(flat, kind="stable")
    indptr = np.zeros(size + 1, dtype=idx)
    indptr[1:] = np.cumsum(np.bincount(flat, minlength=size) * k)
    # The gathered entries stay unnamed, so the arrays die in the prune of
    # sum_duplicates and not after the symmetrization.
    A = sp.csr_matrix((blocks.reshape(-1, k)[order].ravel(),
                       dofs.astype(idx)[order // k].ravel(), indptr),
                      shape=(size, size))
    A.sum_duplicates()
    return ((A + A.T) * 0.5).tocsr()


def feature_edges(surface: SurfaceMesh, cos_threshold: float = 0.9) -> np.ndarray:
    """Boundary edges whose adjacent-face normals have dot product below the threshold.

    Returns an (k, 2) array of sorted vertex pairs; empty when the surface is
    smooth at the threshold. At the boundary value 1.0 every edge is selected,
    including edges between exactly coplanar faces.
    """
    if not (-1.0 < cos_threshold <= 1.0):
        raise MeshError("cos_threshold must be in (-1, 1]")
    if cos_threshold >= 1.0:
        return surface.edges.copy()
    n0 = surface.face_normals[surface.edge_faces[:, 0]]
    n1 = surface.face_normals[surface.edge_faces[:, 1]]
    dots = np.einsum("ij,ij->i", n0, n1)
    return surface.edges[dots < cos_threshold]


def unique_edges(faces: np.ndarray):
    """Sorted unique edges of a triangle set, their face counts, and the
    edge of each face side (0, 1), (1, 2), (2, 0), shape (nf, 3)."""
    e = np.sort(np.concatenate([faces[:, [0, 1]], faces[:, [1, 2]],
                                faces[:, [2, 0]]]), axis=1)
    uniq, _, inverse, counts = unique_rows(e)
    return uniq, counts, inverse.reshape(3, len(faces)).T


def unique_rows(rows: np.ndarray):
    """What ``np.unique`` returns along axis 0 of an (N, k) int array, with
    index, inverse and counts: the sorted distinct rows, where each first
    appears, each row's index among them, and their counts.

    Each row, negative columns shifted up to 0, is read as one int64 key,
    its digits in base max + 1, so key order is the rows' lexicographic
    order. Where such a key could overflow (base**k > 2**63), one stable
    lexsort and a compare of neighbours do the same.
    """
    rows = np.asarray(rows, dtype=np.int64)
    digits = rows - rows.min(axis=0, initial=0)
    base = int(digits.max(initial=-1)) + 1
    if base ** rows.shape[1] <= 2 ** 63:
        key = digits[:, 0]
        for c in range(1, rows.shape[1]):
            key = key * base + digits[:, c]
        _, first, inverse, counts = np.unique(
            key, return_index=True, return_inverse=True, return_counts=True)
        return rows[first], first, inverse, counts
    order = np.lexsort(rows.T[::-1])
    ranked = rows[order]
    new = np.ones(len(rows), dtype=bool)
    new[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    group = np.cumsum(new) - 1
    inverse = np.empty(len(rows), dtype=np.int64)
    inverse[order] = group
    return ranked[new], order[new], inverse, np.bincount(group)


def pieces(num_nodes: int, pairs: np.ndarray) -> tuple[int, np.ndarray]:
    """Connected pieces of the graph on ``num_nodes`` nodes whose edges are
    the node pairs ``pairs`` (..., 2): their count and each node's piece
    label, pieces numbered in the order of their lowest node."""
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    adj = sp.csr_matrix((np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])),
                        shape=(num_nodes, num_nodes))
    count, labels = connected_components(adj, directed=False)
    return int(count), labels
