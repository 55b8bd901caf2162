"""Graph simplification and printable geometry emission.

Simplification contracts short elements toward the endpoint with higher
provenance rank, optionally eliminating all face-hit nodes. Geometry
emission replaces each element with a capped prism and each node with an
icosahedral ball; primitives overlap deliberately, there is NO boolean
union (downstream slicers tolerate overlapping watertight shells).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .extract import TAG_RANK, TrussGraph, _distinct, contract, row_norms


class GeometryWarning(UserWarning):
    pass


def default_length_threshold(g: TrussGraph, factor: float = 0.05) -> float:
    lengths = g.element_lengths()
    if len(lengths) == 0:
        return 0.0
    return factor * float(np.median(lengths))


def simplify(g: TrussGraph, length_threshold: float | None = None,
             remove_interior_hits: bool = False,
             preserve_features: bool = True, *,
             record: dict | None = None) -> TrussGraph:
    """Edge-contraction simplification.

    Elements shorter than the threshold collapse toward the higher-ranked
    endpoint (feature > boundary > interior_grid > hits; ties keep the lower
    index). With remove_interior_hits, every remaining hit-provenance node is
    then contracted into its nearest neighbor regardless of length. Elements
    whose endpoints end up identical are dropped. The connected-component
    count never changes. Each phase repeats passes until one contracts
    nothing. A pass is the greedy matching of its candidates in strict key
    order, (length, low, high) or (length, hit node, neighbor), skipping
    feature-feature pairs under preserve_features. It is computed as rounds
    that each match every locally dominant candidate, first in key order at
    both endpoints (Preis, "Linear time 1/2-approximation algorithm for
    maximum weighted matching in general graphs", STACS 1999). The roots
    left, in input order, are the output's nodes: ``extract.contract``, the
    one relabel step, merges each node into its root. ``record``, if given,
    gets "length_threshold" and each phase's contracting passes under
    "contraction_passes": "phase_a", "phase_b".
    """
    if length_threshold is None:
        length_threshold = default_length_threshold(g)
    passes = {"phase_a": 0, "phase_b": 0}
    if record is not None:
        record.update(contraction_passes=passes,
                      length_threshold=length_threshold)
    n = g.num_nodes
    rank = np.array([TAG_RANK[t] for t in g.tags])
    prio = rank * n - np.arange(n)           # the winner of a contraction
    hit = rank == TAG_RANK["face_hit"]
    blocked = (rank == TAG_RANK["feature"]) & preserve_features
    fam = np.unique(np.array(g.families, dtype=str), return_inverse=True)[1]
    root = np.arange(n)

    def current_elements():
        """Low root, high root and length of each distinct element between
        two roots, in order of first occurrence."""
        lo, hi, _ = _distinct(root[g.elements], fam).T
        return lo, hi, row_norms(g.positions[lo] - g.positions[hi])

    def contract_pass(a, b, d):
        """Contract the greedy matching of candidates (a, b) in (d, a, b)
        order; returns whether any pair contracted."""
        keep = ~(blocked[a] & blocked[b])
        order = np.lexsort((b[keep], a[keep], d[keep]))
        a, b = a[keep][order], b[keep][order]
        matched = np.zeros(n, dtype=bool)
        while len(a):
            pos = np.arange(len(a))
            first = np.full(n, len(a))
            np.minimum.at(first, a, pos)
            np.minimum.at(first, b, pos)
            take = (first[a] == pos) & (first[b] == pos)
            ta, tb = a[take], b[take]
            win = np.where(prio[ta] > prio[tb], ta, tb)
            root[ta + tb - win] = win
            matched[ta] = matched[tb] = True
            live = ~(matched[a] | matched[b])
            a, b = a[live], b[live]
        root[:] = root[root]     # no winner also lost: one jump suffices
        return matched.any()

    # Phase A: contract everything shorter than the threshold.
    while True:
        lo, hi, d = current_elements()
        short = d < length_threshold
        if not contract_pass(lo[short], hi[short], d[short]):
            break
        passes["phase_a"] += 1

    # Phase B: eliminate hit-provenance nodes entirely.
    while remove_interior_hits:
        lo, hi, d = current_elements()
        node, other = np.concatenate([lo, hi]), np.concatenate([hi, lo])
        d = np.concatenate([d, d])
        order = np.lexsort((other, d, node))
        order = order[hit[node[order]]]
        near = order[np.diff(node[order], prepend=-1) != 0]
        if not contract_pass(node[near], other[near], d[near]):
            break
        passes["phase_b"] += 1

    # Compact surviving roots, preserving input order. A component made
    # entirely of hit nodes contracts to one node that must survive, or the
    # component count would change.
    is_root = root == np.arange(n)
    return contract(g, np.cumsum(is_root)[root] - 1, np.nonzero(is_root)[0])


# ---------------------------------------------------------------------------
# Geometry emission


@dataclass
class TriangleMesh:
    vertices: np.ndarray       # (n, 3) float
    triangles: np.ndarray      # (m, 3) int, indices into vertices

    @property
    def num_triangles(self) -> int:
        return len(self.triangles)


def resolve_radii(families: list[str], radius_policy) -> np.ndarray:
    """Per-element radius from a scalar or a {family: radius} map with an
    optional "default" entry."""
    if np.isscalar(radius_policy):
        r = float(radius_policy)
        if r <= 0.0:
            raise ConfigError("radius must be positive")
        return np.full(len(families), r)
    radii = np.empty(len(families))
    for i, fam in enumerate(families):
        r = radius_policy.get(fam, radius_policy.get("default"))
        if r is None:
            raise ConfigError(f"no radius for element family {fam!r}")
        if r <= 0.0:
            raise ConfigError("radius must be positive")
        radii[i] = float(r)
    return radii


def perp_basis(u: np.ndarray):
    """(e1, e2), each (k, 3), completing the unit rows of u to right-handed
    orthonormal frames; e1 is u crossed with the axis of u's smallest
    |component| (the first, on ties)."""
    e = np.zeros_like(u)
    e[np.arange(len(u)), np.argmin(np.abs(u), axis=1)] = 1.0
    e1 = np.cross(u, e)
    e1 /= row_norms(e1)[:, None]
    return e1, np.cross(u, e1)


# Icosahedron template, unit circumradius.
_PHI = (1.0 + np.sqrt(5.0)) / 2.0
_ICO_VERTS = np.array([
    [-1, _PHI, 0], [1, _PHI, 0], [-1, -_PHI, 0], [1, -_PHI, 0],
    [0, -1, _PHI], [0, 1, _PHI], [0, -1, -_PHI], [0, 1, -_PHI],
    [_PHI, 0, -1], [_PHI, 0, 1], [-_PHI, 0, -1], [-_PHI, 0, 1],
]) / np.sqrt(1.0 + _PHI ** 2)
_ICO_FACES = np.array([
    [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
    [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
    [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
    [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1],
])

ZERO_LENGTH = 1e-12


def _prism_faces(sides: int) -> np.ndarray:
    """Triangles of one capped prism whose rings are vertices 0..sides-1
    and sides..2*sides-1."""
    tris = []
    for k in range(sides):
        k2 = (k + 1) % sides
        tris += [(k, k2, sides + k), (k2, sides + k2, sides + k)]
    for k in range(1, sides - 1):
        tris += [(0, k + 1, k), (sides, sides + k, sides + k + 1)]  # caps
    return np.array(tris, dtype=np.int64)


def emit_geometry(g: TrussGraph, radius_policy, sides: int = 8, *,
                  record: dict | None = None) -> TriangleMesh:
    """Capped prism per element, icosahedral ball per node (once, at the
    largest incident radius). Primitives overlap; no boolean union.
    Elements shorter than ZERO_LENGTH are skipped with a GeometryWarning;
    ``record``, if given, gets their count as "skipped_zero_length"."""
    if sides < 3:
        raise ConfigError("sides must be at least 3")
    radii = resolve_radii(g.families, radius_policy)

    axis = g.positions[g.elements[:, 1]] - g.positions[g.elements[:, 0]]
    lengths = row_norms(axis)
    keep = lengths >= ZERO_LENGTH                # the rest keep their order
    skipped = int(np.count_nonzero(~keep))
    if record is not None:
        record["skipped_zero_length"] = skipped
    ends, r = g.elements[keep], radii[keep]
    node_radius = np.zeros(g.num_nodes)
    np.maximum.at(node_radius, ends.ravel(), np.repeat(r, 2))
    balls = np.nonzero(node_radius > 0.0)[0]

    e1, e2 = perp_basis(axis[keep] / lengths[keep, None])
    angles = 2.0 * np.pi * np.arange(sides) / sides
    ring = r[:, None, None] * (np.cos(angles)[:, None] * e1[:, None, :]
                               + np.sin(angles)[:, None] * e2[:, None, :])
    prisms = g.positions[ends][:, :, None, :] + ring[:, None]
    spheres = (g.positions[balls][:, None, :]
               + node_radius[balls, None, None] * _ICO_VERTS)
    verts = np.concatenate([prisms.reshape(-1, 3), spheres.reshape(-1, 3)])

    prism_tris = (_prism_faces(sides)
                  + 2 * sides * np.arange(len(ends))[:, None, None])
    ball_tris = _ICO_FACES + (2 * sides * len(ends)
                              + 12 * np.arange(len(balls)))[:, None, None]
    tris = np.concatenate([prism_tris.reshape(-1, 3), ball_tris.reshape(-1, 3)])

    if skipped:
        warnings.warn(f"skipped {skipped} zero-length element(s)",
                      GeometryWarning)
    return TriangleMesh(verts, tris)


# ---------------------------------------------------------------------------
# Writers


def _write_rows(fh, line: str, a: np.ndarray):
    """Writes ``line % row`` for each row of a, one ``%`` per 4,096 rows so
    that a is never held whole as Python objects; ``%`` reads Python floats
    (``%r`` is a float's repr, ``%.9g`` round-trips a float32's)."""
    for i in range(0, len(a), 4096):
        block = a[i:i + 4096]
        fh.write(line * len(block) % tuple(block.ravel().tolist()))


def write_obj(mesh: TriangleMesh, path):
    """Triangle OBJ of the float32 vertices ``write_ply`` stores, each
    coordinate at ``%.9g``, which parses back to the same float32."""
    with open(path, "w") as fh:
        _write_rows(fh, "v %.9g %.9g %.9g\n",
                    mesh.vertices.astype(np.float32))
        _write_rows(fh, "f %d %d %d\n", mesh.triangles + 1)
        if not len(mesh.vertices) + len(mesh.triangles):
            fh.write("\n")                  # no lines: one empty line


def write_ply(mesh: TriangleMesh, path):
    """Binary little-endian PLY."""
    header = "\n".join([
        "ply",
        "format binary_little_endian 1.0",
        f"element vertex {len(mesh.vertices)}",
        "property float x",
        "property float y",
        "property float z",
        f"element face {len(mesh.triangles)}",
        "property list uchar int vertex_indices",
        "end_header",
    ]) + "\n"
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(mesh.vertices.astype("<f4").tobytes())
        if len(mesh.triangles):
            counts = np.full((len(mesh.triangles), 1), 3, dtype=np.uint8)
            faces = mesh.triangles.astype("<i4")
            rec = np.empty(len(faces), dtype=[("n", "u1"), ("idx", "<i4", 3)])
            rec["n"] = counts[:, 0]
            rec["idx"] = faces
            fh.write(rec.tobytes())


def write_lines_obj(g: TrussGraph, path):
    """Line-segment OBJ of the bare graph for visualization."""
    with open(path, "w") as fh:
        _write_rows(fh, "v %r %r %r\n", g.positions)
        _write_rows(fh, "l %d %d\n", g.elements + 1)
        if not g.num_nodes + g.num_elements:
            fh.write("\n")                  # no lines: one empty line
