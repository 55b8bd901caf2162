"""Integer-isocurve truss extraction.

The perturbed parametrization maps the mesh into texture space; nodes are
preimages of integer-grid points and elements connect grid neighbors. In 2D
(triangle complexes, also reused for the volume boundary) nodes come from
edge crossings of integer levels plus in-face double-integer points; in 3D
they come from face crossings of double-integer curves plus in-tet
triple-integer points. Everything is keyed so that shared geometry is
computed once, which keeps positions bit-identical across adjacent cells and
the output deterministic.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError
from .mesh import TetMesh
from .param import Parametrization

# Absolute parameter-space tolerance for integer tests and interval shrinking.
PARAM_TOL = 1e-9

# Spatial coincidence tolerance for node merging, meters.
MERGE_TOL = 1e-9

TAG_RANK = {
    "edge_hit": 0,
    "face_hit": 1,
    "interior_grid": 2,
    "boundary": 3,
    "feature": 4,
}

INTERIOR_FAMILIES = ("iso1", "iso2", "iso3")


class ExtractionWarning(UserWarning):
    pass


def row_norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of (k, 3) x, bitwise equal to
    ``np.linalg.norm`` of that row alone (``axis=1`` sums in another order)."""
    return np.sqrt((x[:, None, :] @ x[:, :, None])[:, 0, 0])


@dataclass
class TrussGraph:
    positions: np.ndarray            # (N, 3) meters
    params: np.ndarray               # (N, P) parameter values at nodes
    tags: list[str]                  # provenance per node
    elements: np.ndarray             # (E, 2) node index pairs, low first
    families: list[str]              # per element

    @property
    def num_nodes(self) -> int:
        return len(self.positions)

    @property
    def num_elements(self) -> int:
        return len(self.elements)

    def element_lengths(self) -> np.ndarray:
        d = self.positions[self.elements[:, 0]] - self.positions[self.elements[:, 1]]
        return row_norms(d)

    def copy(self) -> "TrussGraph":
        return TrussGraph(
            self.positions.copy(), self.params.copy(), list(self.tags),
            self.elements.copy(), list(self.families),
        )


def empty_graph(param_width: int = 3) -> TrussGraph:
    return TrussGraph(
        positions=np.zeros((0, 3)),
        params=np.zeros((0, param_width)),
        tags=[],
        elements=np.zeros((0, 2), dtype=np.int64),
        families=[],
    )


class _Builder:
    """Accumulates nodes (deduplicated by structural key) and elements."""

    def __init__(self, param_width: int):
        self.param_width = param_width
        self.key_to_id: dict = {}
        self.positions: list[np.ndarray] = []
        self.params: list[np.ndarray] = []
        self.tags: list[str] = []
        self.elements: dict = {}

    def add_node(self, key, pos, par, tag: str) -> int:
        nid = self.key_to_id.get(key)
        if nid is None:
            nid = len(self.positions)
            self.key_to_id[key] = nid
            self.positions.append(np.asarray(pos, dtype=float))
            self.params.append(np.asarray(par, dtype=float))
            self.tags.append(tag)
        elif TAG_RANK[tag] > TAG_RANK[self.tags[nid]]:
            self.tags[nid] = tag
        return nid

    def upgrade_tag(self, nid: int, tag: str):
        if TAG_RANK[tag] > TAG_RANK[self.tags[nid]]:
            self.tags[nid] = tag

    def add_element(self, i: int, j: int, family: str):
        if i == j:
            return
        key = (min(i, j), max(i, j), family)
        self.elements[key] = True

    def finalize(self) -> TrussGraph:
        n = len(self.positions)
        if n == 0:
            return empty_graph(self.param_width)
        g = TrussGraph(
            positions=np.vstack(self.positions),
            params=np.vstack(self.params),
            tags=list(self.tags),
            elements=np.array(
                [(k[0], k[1]) for k in self.elements], dtype=np.int64
            ).reshape(-1, 2),
            families=[k[2] for k in self.elements],
        )
        g = _coincidence_merge(g)
        _upgrade_grid_tags(g)
        return _canonical_order(g)


def _upgrade_grid_tags(g: TrussGraph):
    """Nodes whose every parameter is integral are grid nodes regardless of
    how they were discovered (a grid point can sit on a mesh edge exactly)."""
    if g.num_nodes == 0:
        return
    integral = (np.abs(g.params - np.round(g.params)) <= PARAM_TOL).all(axis=1)
    for i in np.nonzero(integral)[0]:
        if TAG_RANK[g.tags[i]] < TAG_RANK["interior_grid"]:
            g.tags[i] = "interior_grid"


def _canonical_order(g: TrussGraph) -> TrussGraph:
    """Sort nodes by parameter values, then position, then discovery index;
    sort elements by node ids then family."""
    n = g.num_nodes
    if n == 0:
        return g
    keys = [np.arange(n)]
    keys += [g.positions[:, c] for c in (2, 1, 0)]
    keys += [g.params[:, c] for c in range(g.params.shape[1] - 1, -1, -1)]
    order = np.lexsort(tuple(keys))
    inv = np.empty(n, dtype=np.int64)
    inv[order] = np.arange(n)

    positions = g.positions[order]
    params = g.params[order]
    tags = [g.tags[i] for i in order]
    if g.num_elements:
        elements = inv[g.elements]
        elements = np.sort(elements, axis=1)
        fam_idx = np.array(
            [(_family_sort_key(f)) for f in g.families], dtype=np.int64
        )
        eorder = np.lexsort((fam_idx, elements[:, 1], elements[:, 0]))
        elements = elements[eorder]
        families = [g.families[i] for i in eorder]
    else:
        elements = g.elements
        families = []
    return TrussGraph(positions, params, tags, elements, families)


_FAMILY_ORDER = {"iso1": 0, "iso2": 1, "iso3": 2, "boundary": 3, "feature": 4}


def _family_sort_key(f: str) -> int:
    return _FAMILY_ORDER.get(f, 99)


def _coincidence_merge(g: TrussGraph) -> TrussGraph:
    """Union nodes within MERGE_TOL of each other (spatial hash + 27-cell
    neighborhood); representative is the highest-rank tag, then lowest id."""
    n = g.num_nodes
    if n == 0:
        return g
    parent = np.arange(n)

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    cells: dict[tuple, list[int]] = {}
    grid = np.floor(g.positions / MERGE_TOL).astype(np.int64)
    for i in range(n):
        cells.setdefault(tuple(grid[i]), []).append(i)
    offsets = [
        (dx, dy, dz)
        for dx in (-1, 0, 1) for dy in (-1, 0, 1) for dz in (-1, 0, 1)
    ]
    for i in range(n):
        ci = grid[i]
        for off in offsets:
            bucket = cells.get((ci[0] + off[0], ci[1] + off[1], ci[2] + off[2]))
            if not bucket:
                continue
            for j in bucket:
                if j <= i:
                    continue
                if np.linalg.norm(g.positions[i] - g.positions[j]) <= MERGE_TOL:
                    union(i, j)

    roots = np.array([find(i) for i in range(n)])
    uniq_roots = np.unique(roots)
    if len(uniq_roots) == n:
        return g

    # Representative per group: highest tag rank, then lowest index.
    rep: dict[int, int] = {}
    for i in range(n):
        r = roots[i]
        cur = rep.get(r)
        if cur is None or (TAG_RANK[g.tags[i]], -i) > (TAG_RANK[g.tags[cur]], -cur):
            rep[r] = i
    new_id = {r: k for k, r in enumerate(uniq_roots)}
    positions = np.vstack([g.positions[rep[r]] for r in uniq_roots])
    params = np.vstack([g.params[rep[r]] for r in uniq_roots])
    tags = [g.tags[rep[r]] for r in uniq_roots]

    remap = np.array([new_id[roots[i]] for i in range(n)], dtype=np.int64)
    elements: dict = {}
    for (a, b), fam in zip(g.elements, g.families):
        na, nb = remap[a], remap[b]
        if na == nb:
            continue                      # merged endpoints: degenerate
        elements[(min(na, nb), max(na, nb), fam)] = True
    return TrussGraph(
        positions, params, tags,
        np.array([(k[0], k[1]) for k in elements], dtype=np.int64).reshape(-1, 2),
        [k[2] for k in elements],
    )


# ---------------------------------------------------------------------------
# Perturbation


def perturb_parametrization(p: Parametrization, epsilon: float = 1e-7,
                            neighbors: list[np.ndarray] | None = None,
                            mesh: TetMesh | None = None) -> Parametrization:
    """Move near-integer vertex values off the integers.

    Values within PARAM_TOL of an integer move by -epsilon, or +epsilon when
    the vertex value is a 1-ring minimum of that component (ties count as
    minima, so flat integer-level patches are lifted off the level rather
    than split into spurious sheets). All other values are bit-unchanged.
    """
    if p.phi_tilde is None:
        raise NumericalError("normalize_and_scale must run before perturbation")
    if neighbors is None:
        if mesh is None:
            raise NumericalError("need mesh or precomputed neighbor lists")
        neighbors = mesh.vertex_neighbors()
    phi = p.phi_tilde.copy()
    near = np.abs(phi - np.round(phi)) < PARAM_TOL
    for c in range(phi.shape[1]):
        idx = np.nonzero(near[:, c])[0]
        for v in idx:
            col = p.phi_tilde[:, c]
            is_min = (col[v] <= col[neighbors[v]]).all()
            phi[v, c] = col[v] + epsilon if is_min else col[v] - epsilon
    frac = np.abs(phi - np.round(phi))
    if (frac < PARAM_TOL).any():
        raise NumericalError("perturbation failed to clear all near-integer values")
    out = Parametrization(phi=p.phi, beta=p.beta, rho=p.rho)
    out.phi_tilde = phi
    return out


def check_perturbed(params: np.ndarray):
    frac = np.abs(params - np.round(params))
    if (frac < PARAM_TOL).any():
        raise NumericalError(
            "parameter values within 1e-9 of an integer; run the perturbation first"
        )


def _integer_range(lo: float, hi: float, shrink: float = 0.0):
    """Integers strictly inside (lo, hi), both bounds shrunk inward."""
    a = math.floor(lo + shrink) + 1
    b = math.ceil(hi - shrink) - 1
    return range(a, b + 1)


# ---------------------------------------------------------------------------
# 2D extraction engine


def _unique_edges(faces: np.ndarray):
    e = np.concatenate([faces[:, [0, 1]], faces[:, [1, 2]], faces[:, [2, 0]]])
    e = np.sort(e, axis=1)
    uniq, counts = np.unique(e, axis=0, return_counts=True)
    return uniq, counts


def _edge_crossings_2d(builder, vertices, params, edges, columns, tag,
                       edge_points: dict):
    """Nodes where one traced column hits an integer on a mesh edge.

    edge_points maps (a, b) -> list of (t, node_id) for boundary chains.
    """
    for a, b in edges:
        pa_row, pb_row = params[a], params[b]
        for c in columns:
            pa, pb = pa_row[c], pb_row[c]
            lo, hi = (pa, pb) if pa <= pb else (pb, pa)
            for m in _integer_range(lo, hi):
                if abs(pa - m) < PARAM_TOL or abs(pb - m) < PARAM_TOL:
                    raise NumericalError(
                        "isocurve through a vertex after perturbation"
                    )
                t = (m - pa) / (pb - pa)
                pos = vertices[a] + t * (vertices[b] - vertices[a])
                par = pa_row + t * (pb_row - pa_row)
                par = par.copy()
                par[c] = float(m)
                nid = builder.add_node(("E2", int(a), int(b), int(c), int(m)),
                                       pos, par, tag)
                edge_points.setdefault((int(a), int(b)), []).append((float(t), nid))


def _face_pass_2d(builder, faces, params, trace_col, other_col, node_tag,
                  family):
    """Trace integer isocurves of trace_col through each face, inserting
    double-integer in-face nodes and chaining elements along each curve."""
    for fidx, tri in enumerate(faces):
        vals = params[tri][:, trace_col]
        lo, hi = float(vals.min()), float(vals.max())
        for m in _integer_range(lo, hi):
            hit_ids = []
            for (ia, ib) in ((0, 1), (1, 2), (2, 0)):
                a, b = int(tri[ia]), int(tri[ib])
                pa, pb = params[a][trace_col], params[b][trace_col]
                if (pa - m) * (pb - m) < 0.0:
                    aa, bb = (a, b) if a < b else (b, a)
                    hit_ids.append(
                        builder.key_to_id[("E2", aa, bb, int(trace_col), int(m))]
                    )
            if len(hit_ids) != 2:
                raise NumericalError(
                    f"isocurve level {m} crosses face {fidx} at "
                    f"{len(hit_ids)} edges; expected 2"
                )
            n0, n1 = hit_ids
            q0 = builder.params[n0][other_col]
            q1 = builder.params[n1][other_col]
            if q0 > q1:
                n0, n1 = n1, n0
                q0, q1 = q1, q0
            chain = [(q0, n0)]
            for q in _integer_range(q0, q1, shrink=PARAM_TOL):
                t = (q - q0) / (q1 - q0)
                pos = builder.positions[n0] + t * (
                    builder.positions[n1] - builder.positions[n0]
                )
                par = builder.params[n0] + t * (
                    builder.params[n1] - builder.params[n0]
                )
                par = par.copy()
                par[trace_col] = float(m)
                par[other_col] = float(q)
                clo, chi = sorted((trace_col, other_col))
                key = ("F2", int(fidx), clo, int(round(par[clo])),
                       chi, int(round(par[chi])))
                nid = builder.add_node(key, pos, par, node_tag)
                chain.append((float(q), nid))
            chain.append((q1, n1))
            chain.sort(key=lambda item: item[0])
            for (qa, na), (qb, nb) in zip(chain[:-1], chain[1:]):
                builder.add_element(na, nb, family)


def _boundary_chains_2d(builder, vertices, params, boundary_edges, edge_points,
                        family="boundary", node_tag="boundary",
                        include_endpoints=True):
    """Chain nodes along each given mesh edge in edge-parameter order."""
    for a, b in boundary_edges:
        a, b = int(a), int(b)
        pts = list(edge_points.get((a, b), []))
        for t, nid in pts:
            builder.upgrade_tag(nid, node_tag)
        if include_endpoints:
            na = builder.add_node(("V", a), vertices[a], params[a], node_tag)
            nb = builder.add_node(("V", b), vertices[b], params[b], node_tag)
            pts += [(0.0, na), (1.0, nb)]
        pts.sort(key=lambda item: (item[0], item[1]))
        for (_, na), (_, nb) in zip(pts[:-1], pts[1:]):
            builder.add_element(na, nb, family)


def _warn_closed_loops(builder, seed_ids):
    """Isocurve elements unreachable from boundary seeds form closed loops."""
    adj: dict[int, list[int]] = {}
    iso_elems = [k for k in builder.elements if k[2] in INTERIOR_FAMILIES]
    for eidx, (i, j, _f) in enumerate(iso_elems):
        adj.setdefault(i, []).append(eidx)
        adj.setdefault(j, []).append(eidx)
    visited = set()
    stack = [s for s in seed_ids if s in adj]
    seen_nodes = set(stack)
    while stack:
        node = stack.pop()
        for eidx in adj.get(node, ()):
            if eidx in visited:
                continue
            visited.add(eidx)
            i, j, _f = iso_elems[eidx]
            for other in (i, j):
                if other not in seen_nodes:
                    seen_nodes.add(other)
                    stack.append(other)
    leftover = len(iso_elems) - len(visited)
    if leftover:
        warnings.warn(
            f"{leftover} isocurve element(s) lie on closed loops",
            ExtractionWarning,
        )


def extract_2d(vertices: np.ndarray, faces: np.ndarray, params: np.ndarray,
               pair: tuple[int, int] = (0, 1)) -> TrussGraph:
    """Integer-isocurve graph of a (possibly open) triangle complex.

    vertices: (n, 3) positions; faces: (f, 3); params: (n, P) perturbed
    values; pair: the two parameter columns to trace. Interior curves get
    iso-families named by the varying column; chains along the complex's
    boundary edges get family "boundary".
    """
    vertices = np.asarray(vertices, dtype=float)
    faces = np.asarray(faces, dtype=np.int64)
    params = np.asarray(params, dtype=float)
    ci, cj = pair
    check_perturbed(params[:, [ci, cj]])

    builder = _Builder(params.shape[1])
    edges, counts = _unique_edges(faces)
    edge_points: dict = {}
    _edge_crossings_2d(builder, vertices, params, edges, (ci, cj), "edge_hit",
                       edge_points)
    _face_pass_2d(builder, faces, params, ci, cj, "interior_grid",
                  f"iso{cj + 1}")
    _face_pass_2d(builder, faces, params, cj, ci, "interior_grid",
                  f"iso{ci + 1}")

    boundary_edges = edges[counts == 1]
    seed_ids = []
    for a, b in boundary_edges:
        for _t, nid in edge_points.get((int(a), int(b)), []):
            seed_ids.append(nid)
    _boundary_chains_2d(builder, vertices, params, boundary_edges, edge_points)
    if len(boundary_edges):
        _warn_closed_loops(builder, seed_ids)
    return builder.finalize()


# ---------------------------------------------------------------------------
# 3D extraction

_PAIRS_3D = ((0, 1), (0, 2), (1, 2))


def extract_3d(mesh: TetMesh, p: Parametrization) -> TrussGraph:
    """Trace double-integer curves through tets; nodes at face crossings and
    triple-integer interior points, elements along each curve between them.
    """
    if p.phi_tilde is None:
        raise NumericalError("normalize_and_scale must run before extraction")
    params = np.asarray(p.phi_tilde, dtype=float)
    check_perturbed(params)
    verts = mesh.vertices

    builder = _Builder(3)
    face_cache: dict = {}           # key -> None | (pos, par)
    tangential = 0
    inconsistent_tets = 0

    for tidx, tet in enumerate(mesh.tets):
        tet = [int(v) for v in tet]
        tet_faces = [tuple(sorted(f)) for f in (
            (tet[0], tet[1], tet[2]),
            (tet[0], tet[1], tet[3]),
            (tet[0], tet[2], tet[3]),
            (tet[1], tet[2], tet[3]),
        )]
        bad_tet = False
        for (i, j) in _PAIRS_3D:
            k = 3 - i - j
            vi = params[tet, i]
            vj = params[tet, j]
            for a in _integer_range(vi.min(), vi.max()):
                for b in _integer_range(vj.min(), vj.max()):
                    hits = []
                    for trip in tet_faces:
                        key = ("F3", trip, i, int(a), j, int(b))
                        if key in face_cache:
                            entry = face_cache[key]
                        else:
                            entry = _face_hit(verts, params, trip, i, a, j, b)
                            face_cache[key] = entry
                        if entry is not None:
                            hits.append((key, entry))
                    if len(hits) == 0:
                        continue
                    if len(hits) == 1:
                        tangential += 1
                        continue
                    if len(hits) > 2:
                        bad_tet = True
                        continue
                    (key0, (pos0, par0)), (key1, (pos1, par1)) = hits
                    n0 = builder.add_node(key0, pos0, par0, "face_hit")
                    n1 = builder.add_node(key1, pos1, par1, "face_hit")
                    c0, c1 = par0[k], par1[k]
                    if c0 > c1:
                        n0, n1 = n1, n0
                        c0, c1 = c1, c0
                        pos0, pos1 = pos1, pos0
                    chain = [(c0, n0)]
                    for nk in _integer_range(c0, c1, shrink=PARAM_TOL):
                        t = (nk - c0) / (c1 - c0)
                        pos = pos0 + t * (pos1 - pos0)
                        par = np.empty(3)
                        par[i], par[j], par[k] = float(a), float(b), float(nk)
                        trip_key = tuple(int(round(par[c])) for c in range(3))
                        nid = builder.add_node(("G3", tidx) + trip_key, pos,
                                               par, "interior_grid")
                        chain.append((float(nk), nid))
                    chain.append((c1, n1))
                    chain.sort(key=lambda item: item[0])
                    for (ca, na), (cb, nb) in zip(chain[:-1], chain[1:]):
                        builder.add_element(na, nb, f"iso{k + 1}")
        if bad_tet:
            inconsistent_tets += 1

    if inconsistent_tets > 0.01 * mesh.num_tets:
        raise NumericalError(
            f"inconsistent face intersections in {inconsistent_tets} tets "
            f"(> 1% of {mesh.num_tets})"
        )
    if inconsistent_tets:
        warnings.warn(
            f"{inconsistent_tets} tet(s) had inconsistent face intersections",
            ExtractionWarning,
        )
    if tangential:
        warnings.warn(
            f"{tangential} tangential curve-face touch(es) skipped",
            ExtractionWarning,
        )
    return builder.finalize()


def _face_hit(verts, params, trip, i, a, j, b):
    """Intersection of the curve {phi_i = a, phi_j = b} with one face, or
    None. trip is a sorted vertex triple, so every tet sharing the face
    computes bit-identical results."""
    p, q, r = trip
    M = np.array([
        [params[q, i] - params[p, i], params[r, i] - params[p, i]],
        [params[q, j] - params[p, j], params[r, j] - params[p, j]],
    ])
    rhs = np.array([a - params[p, i], b - params[p, j]])
    det = M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]
    if det == 0.0:
        return None
    v = (M[1, 1] * rhs[0] - M[0, 1] * rhs[1]) / det
    w = (M[0, 0] * rhs[1] - M[1, 0] * rhs[0]) / det
    u = 1.0 - v - w
    if not (u > 0.0 and v > 0.0 and w > 0.0):
        return None
    pos = u * verts[p] + v * verts[q] + w * verts[r]
    par = u * params[p] + v * params[q] + w * params[r]
    par = par.copy()
    par[i] = float(a)
    par[j] = float(b)
    return pos, par


# ---------------------------------------------------------------------------
# Boundary extraction


def extract_boundary(mesh: TetMesh, p: Parametrization,
                     features: np.ndarray | None = None) -> TrussGraph:
    """Surface truss: the three pairwise 2D extractions on the boundary
    complex (all nodes tagged boundary, elements family "boundary"), plus
    chains along feature edges (tagged/family "feature").
    """
    if p.phi_tilde is None:
        raise NumericalError("normalize_and_scale must run before extraction")
    params = np.asarray(p.phi_tilde, dtype=float)
    check_perturbed(params)
    surface = mesh.boundary
    faces = surface.triangles
    verts = mesh.vertices

    builder = _Builder(3)
    edges, counts = _unique_edges(faces)
    if len(edges) and counts.max(initial=0) > 2:
        raise NumericalError("boundary complex is not manifold")
    edge_points: dict = {}
    _edge_crossings_2d(builder, verts, params, edges, (0, 1, 2), "boundary",
                       edge_points)
    for (ci, cj) in _PAIRS_3D:
        _face_pass_2d(builder, faces, params, ci, cj, "boundary", "boundary")
        _face_pass_2d(builder, faces, params, cj, ci, "boundary", "boundary")

    if features is not None and len(features):
        feature_set = np.asarray(features, dtype=np.int64)
        feature_set = np.sort(feature_set, axis=1)
        _boundary_chains_2d(builder, verts, params, feature_set, edge_points,
                            family="feature", node_tag="feature",
                            include_endpoints=True)
    return builder.finalize()


# ---------------------------------------------------------------------------
# Merge


def merge_graphs(parts: list[TrussGraph]) -> TrussGraph:
    """Concatenate graphs, merge coincident nodes, drop duplicate elements."""
    parts = [g for g in parts if g.num_nodes]
    if not parts:
        return empty_graph()
    width = parts[0].params.shape[1]
    for g in parts:
        if g.params.shape[1] != width:
            raise NumericalError("cannot merge graphs with different parameter widths")
    positions = np.vstack([g.positions for g in parts])
    params = np.vstack([g.params for g in parts])
    tags = [t for g in parts for t in g.tags]
    offsets = np.cumsum([0] + [g.num_nodes for g in parts][:-1])
    elements = []
    families = []
    for g, off in zip(parts, offsets):
        if g.num_elements:
            elements.append(g.elements + off)
            families.extend(g.families)
    elements = (np.vstack(elements) if elements
                else np.zeros((0, 2), dtype=np.int64))
    merged = TrussGraph(positions, params, tags, elements, families)
    merged = _coincidence_merge(merged)
    _upgrade_grid_tags(merged)
    return _canonical_order(merged)
