"""Integer-isocurve truss extraction, as array code.

The input is the perturbed parametrization, a plain (n, 3) array with one
row per mesh vertex: ``perturb_parametrization(phi_tilde, mesh.tets)``
moves param's phi_tilde off the integers, and ``extract_3d`` and
``extract_boundary`` read the result.

Nodes are preimages of integer-grid points under the perturbed
parametrization; elements connect grid neighbors. 3D: every candidate (tet,
a, b), with integers a, b strictly inside the tet's range of a column pair
(i, j), is listed at once, and its curve {phi_i = a, phi_j = b} is solved
against the tet's four faces as a batch of 2x2 barycentric systems on each
face's sorted vertex triple, so both tets of a face get the same bits. One
hit is a tangential touch, more than two mark the tet inconsistent, and two
bound a chain through the triple-integer points between them. Boundary: on
the volume's boundary triangles, the edge crossings of every column's
integer levels, then per face, column and level a chain through the in-face
points where a second column is integral too; each feature edge chains its
crossings from one end vertex to the other.

Each node occurrence has an integer key: face triple, pair and (a, b); tet
and grid point; edge, column and level; face and grid point; or vertex.
Occurrences are listed in discovery order, and equal keys are one node,
numbered and placed by its first occurrence (an in-face node by the first
pass that finds it, ci -> cj before cj -> ci) and tagged with its highest
rank. Nodes within MERGE_TOL then merge: a sweep over their projections on
a generic direction, in a window slightly wider than MERGE_TOL so rounding
drops no pair, proposes candidates, and a pair merges when ``row_norms`` of
its difference is <= MERGE_TOL. A group keeps its highest-ranked, then
lowest-numbered node. The canonical order makes the output independent of
discovery order.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .mesh import TetMesh, pieces, unique_rows

# Absolute parameter-space tolerance for integer tests and interval shrinking.
PARAM_TOL = 1e-9

# Spatial coincidence tolerance for node merging, meters.
MERGE_TOL = 1e-9

TAG_RANK = {
    "face_hit": 0,
    "interior_grid": 1,
    "boundary": 2,
    "feature": 3,
}
_TAGS = tuple(sorted(TAG_RANK, key=TAG_RANK.get))

# Element families: the isocurves of each parameter column inside the
# volume, then the surface isocurves and the feature-edge chains.
FAMILIES = ("iso1", "iso2", "iso3", "boundary", "feature")
INTERIOR_FAMILIES = FAMILIES[:3]


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


def empty_graph() -> TrussGraph:
    return TrussGraph(
        positions=np.zeros((0, 3)),
        params=np.zeros((0, 3)),
        tags=[],
        elements=np.zeros((0, 2), dtype=np.int64),
        families=[],
    )


# ---------------------------------------------------------------------------
# Array helpers


def _lattice(lo, hi, shrink: float = 0.0):
    """First integer strictly inside (lo + shrink, hi - shrink), and how
    many there are, elementwise."""
    first = np.floor(lo + shrink) + 1.0
    count = np.maximum(np.ceil(hi - shrink) - first, 0.0)
    return first.astype(np.int64), count.astype(np.int64)


def _spread(count: np.ndarray):
    """For items with the given counts: the item of each slot, and the
    slot's index within its item."""
    item = np.repeat(np.arange(len(count)), count)
    start = np.cumsum(count) - count
    return item, np.arange(len(item)) - start[item]


def _key(kind: int, *cols) -> np.ndarray:
    """Integer node keys: the kind, then the given columns, zero-padded."""
    cols = np.broadcast_arrays(kind, *cols, *[0] * (6 - len(cols)))
    return np.column_stack(cols).astype(np.int64)


def _first_seen(keys: np.ndarray):
    """Number the distinct key rows in order of first appearance: each
    row's number, and the index where each number first appears."""
    _, first, inverse, _ = unique_rows(keys)
    order = np.argsort(first)        # its inverse permutation numbers them
    return np.argsort(order)[inverse], first[order]


def _chain_links(lo, hi, inner, count):
    """Links along chains: chain c runs from occurrence lo[c] through its
    count[c] consecutive entries of inner to hi[c]. Returns the (e, 2)
    links and each link's chain."""
    chain, s = _spread(count + 1)
    idx = (np.cumsum(count) - count)[chain] + s
    ext = np.append(inner, 0)
    near = np.where(s == 0, lo[chain], ext[idx - 1])
    far = np.where(s == count[chain], hi[chain], ext[idx])
    return np.column_stack([near, far]), chain


def _raw_graph(keys, positions, params, ranks, links, families, names):
    """The unmerged graph of node occurrences listed in discovery order:
    equal keys are one node, placed by its first occurrence and tagged with
    its highest rank; links between occurrences are elements of family
    ``names[families]``, without self-links or repeats."""
    if not len(keys):
        return empty_graph()
    node, first = _first_seen(keys)
    rank = np.zeros(len(first), dtype=np.int64)
    np.maximum.at(rank, node, ranks)
    ends = node[links]
    keep = ends[:, 0] != ends[:, 1]
    rows = unique_rows(np.column_stack([np.sort(ends[keep], axis=1),
                                        families[keep]]))[0]
    return TrussGraph(positions[first], params[first],
                      [_TAGS[r] for r in rank], rows[:, :2].copy(),
                      [names[f] for f in rows[:, 2]])


def _finalize(g: TrussGraph) -> TrussGraph:
    g = _coincidence_merge(g)
    _upgrade_grid_tags(g)
    return _canonical_order(g)


def _upgrade_grid_tags(g: TrussGraph):
    """Nodes whose every parameter is integral are grid nodes regardless of
    how they were discovered (a grid point can sit on a mesh edge exactly)."""
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
    keys = [np.arange(n)] + [g.positions[:, c] for c in (2, 1, 0)]
    keys += [g.params[:, c] for c in range(g.params.shape[1] - 1, -1, -1)]
    order = np.lexsort(tuple(keys))
    inv = np.empty(n, dtype=np.int64)
    inv[order] = np.arange(n)
    elements = np.sort(inv[g.elements], axis=1)
    fam = np.array([_FAMILY_ORDER[f] for f in g.families], dtype=np.int64)
    eorder = np.lexsort((fam, elements[:, 1], elements[:, 0]))
    return TrussGraph(g.positions[order], g.params[order],
                      [g.tags[i] for i in order], elements[eorder],
                      [g.families[i] for i in eorder])


_FAMILY_ORDER = {f: i for i, f in enumerate(FAMILIES)}


# A generic unit direction: nodes spread along it even when they fill an
# axis-aligned plane, which keeps the sweep's windows short.
_SWEEP = np.array([1.0, np.sqrt(2.0), np.sqrt(3.0)]) / np.sqrt(6.0)


def _merge_candidates(positions: np.ndarray):
    """Node pairs (i, j) whose projections on _SWEEP lie within MERGE_TOL
    plus a bound on the projection's rounding, so that no pair within
    MERGE_TOL is missed."""
    n = len(positions)
    proj = positions @ _SWEEP
    order = np.argsort(proj, kind="stable")
    s = proj[order]
    slack = 16.0 * np.finfo(float).eps * np.abs(positions).sum(axis=1).max()
    end = np.searchsorted(s, s + (MERGE_TOL + slack), side="right")
    src, off = _spread(end - np.arange(n) - 1)
    return order[src], order[src + 1 + off]


def _coincidence_merge(g: TrussGraph) -> TrussGraph:
    """Merge nodes within MERGE_TOL of each other; each group keeps its
    highest-rank tag, then lowest index. Groups are numbered by their lowest
    index; merged elements that collapse or repeat are dropped."""
    n = g.num_nodes
    if n == 0:
        return g
    i, j = _merge_candidates(g.positions)
    close = row_norms(g.positions[i] - g.positions[j]) <= MERGE_TOL
    if not close.any():
        return g
    ngroups, group = pieces(n, np.column_stack([i[close], j[close]]))
    rank = np.array([TAG_RANK[t] for t in g.tags])
    by_group = np.lexsort((np.arange(n), -rank, group))
    rep = by_group[np.searchsorted(group[by_group], np.arange(ngroups))]

    ends = group[g.elements]
    keep = ends[:, 0] != ends[:, 1]
    names, fam = np.unique(np.array(g.families, dtype=str),
                           return_inverse=True)
    rows = np.column_stack([np.sort(ends[keep], axis=1), fam[keep]])
    once = _first_seen(rows)[1]
    return TrussGraph(
        g.positions[rep], g.params[rep], [g.tags[r] for r in rep],
        rows[once, :2].copy(), [str(names[f]) for f in rows[once, 2]],
    )


# ---------------------------------------------------------------------------
# Perturbation


def perturb_parametrization(phi_tilde: np.ndarray, cells: np.ndarray,
                            epsilon: float = 1e-7) -> np.ndarray:
    """Move near-integer vertex values off the integers.

    Values within PARAM_TOL of an integer move by -epsilon, or +epsilon when
    the vertex value is a 1-ring minimum of that component (ties count as
    minima, so flat integer-level patches are lifted off the level rather
    than split into spurious sheets). A vertex's 1-ring is every vertex that
    shares a row of ``cells`` (the mesh's tets) with it; a vertex in no cell
    has an empty ring, which counts as a minimum. All other values are
    bit-unchanged.
    """
    x = np.asarray(phi_tilde, dtype=float)
    cells = np.asarray(cells, dtype=np.int64)
    a, b = np.nonzero(~np.eye(cells.shape[1], dtype=bool))
    ring_min = np.full_like(x, np.inf)
    np.minimum.at(ring_min, cells[:, a].ravel(), x[cells[:, b].ravel()])
    near = np.abs(x - np.round(x)) < PARAM_TOL
    phi = np.where(near, np.where(x <= ring_min, x + epsilon, x - epsilon), x)
    frac = np.abs(phi - np.round(phi))
    if (frac < PARAM_TOL).any():
        raise NumericalError("perturbation failed to clear all near-integer values")
    return phi


def check_perturbed(params: np.ndarray):
    if not np.isfinite(params).all():
        raise NumericalError("non-finite parameter values")
    frac = np.abs(params - np.round(params))
    if (frac < PARAM_TOL).any():
        raise NumericalError(
            "parameter values within 1e-9 of an integer; run the perturbation first"
        )


# ---------------------------------------------------------------------------
# Surface engine


class _Complex2D:
    """Node occurrences and links of the integer isocurves of all three
    columns on a triangle complex.

    The first occurrences are the edge crossings, in (edge, column, level)
    order, tagged boundary; each face pass and the feature chains append
    their own; ``edges`` and ``face_edges`` are as in ``SurfaceMesh``."""

    def __init__(self, vertices, faces, edges, face_edges, params):
        self.vertices, self.faces, self.params = vertices, faces, params
        self.edges, self.face_edges = edges, face_edges
        self.occ = ([], [], [], [])            # keys, positions, params, ranks
        self.links, self.families = [], []
        self.count = 0

        pa, pb = params[self.edges[:, 0]], params[self.edges[:, 1]]
        first, count = _lattice(np.minimum(pa, pb), np.maximum(pa, pb))
        block, r = _spread(count.ravel())
        e, c = np.divmod(block, 3)
        level = first.ravel()[block] + r
        pa, pb = pa.ravel()[block], pb.ravel()[block]
        a, b = self.edges[e, 0], self.edges[e, 1]
        t = (level - pa) / (pb - pa)
        pos = vertices[a] + t[:, None] * (vertices[b] - vertices[a])
        par = params[a] + t[:, None] * (params[b] - params[a])
        par[np.arange(len(par)), c] = level
        keys = _key(0, a, b, c, level)
        self.add(keys, pos, par, "boundary")
        self.cross = (keys, pos, par, t)
        self.level_first = first
        self.level_start = (np.cumsum(count.ravel())
                            - count.ravel()).reshape(count.shape)
        self.edge_count = count.sum(axis=1)

    def add(self, keys, positions, params, tag) -> int:
        """Append occurrences; return the index of the first."""
        for store, x in zip(self.occ, (keys, positions, params,
                                       np.full(len(keys), TAG_RANK[tag]))):
            store.append(x)
        self.count += len(keys)
        return self.count - len(keys)

    def link(self, lo, hi, inner, count, family):
        links, _ = _chain_links(lo, hi, inner, count)
        self.links.append(links)
        self.families.append(np.full(len(links), family))

    def graph(self):
        return _raw_graph(*(np.concatenate(x) for x in self.occ),
                          np.vstack(self.links), np.concatenate(self.families),
                          FAMILIES[3:])

    def face_pass(self, trace, other):
        """Trace the integer levels of column ``trace`` through each face:
        a chain between the level's two edge crossings through the in-face
        points where ``other`` is integral too."""
        vals = self.params[self.faces, trace]
        first, count = _lattice(vals.min(axis=1), vals.max(axis=1))
        f, r = _spread(count)
        level = first[f] + r
        va = vals[f] - level[:, None]
        crosses = va * np.roll(va, -1, axis=1) < 0.0     # two sides each
        sides = (crosses.argmax(axis=1), 2 - crosses[:, ::-1].argmax(axis=1))
        n0, n1 = (self.level_start[e, trace] + level
                  - self.level_first[e, trace]
                  for e in (self.face_edges[f, s] for s in sides))
        _, cross_pos, cross_par, _ = self.cross
        q0, q1 = cross_par[n0, other], cross_par[n1, other]
        swap = q0 > q1
        lo, hi = np.where(swap, n1, n0), np.where(swap, n0, n1)
        qlo, qhi = np.where(swap, q1, q0), np.where(swap, q0, q1)

        qfirst, qcount = _lattice(qlo, qhi, PARAM_TOL)
        seg, s = _spread(qcount)
        q = qfirst[seg] + s
        t = (q - qlo[seg]) / (qhi[seg] - qlo[seg])
        p0, p1 = cross_pos[lo[seg]], cross_pos[hi[seg]]
        pos = p0 + t[:, None] * (p1 - p0)
        a0, a1 = cross_par[lo[seg]], cross_par[hi[seg]]
        par = a0 + t[:, None] * (a1 - a0)
        rows = np.arange(len(q))
        par[rows, trace] = level[seg]
        par[rows, other] = q
        lvl = (level[seg], q) if trace < other else (q, level[seg])
        keys = _key(1, f[seg], min(trace, other), lvl[0], max(trace, other),
                    lvl[1])
        inner = self.add(keys, pos, par, "boundary") + rows
        self.link(lo, hi, inner, qcount, 0)

    def feature_chains(self, chain_edges):
        """Chains along the given sorted edges through their crossings in
        (t, node) order, from one end vertex to the other; every node on
        them is tagged feature."""
        nv = len(self.vertices)
        code = self.edges[:, 0] * nv + self.edges[:, 1]
        want = chain_edges[:, 0] * nv + chain_edges[:, 1]
        e = np.minimum(np.searchsorted(code, want), len(code) - 1)
        count = np.where(code[e] == want, self.edge_count[e], 0)
        chain, s = _spread(count)
        occ = self.level_start[e[chain], 0] + s
        # By t; the sort is stable, so ties stay in node order.
        occ = occ[np.lexsort((self.cross[3][occ], chain))]
        # Re-adding a crossing's key raises its tag to feature.
        inner = self.add(*(x[occ] for x in self.cross[:3]), "feature")
        ends = chain_edges.reshape(-1)
        lo = self.add(_key(2, ends), self.vertices[ends], self.params[ends],
                      "feature") + 2 * np.arange(len(chain_edges))
        self.link(lo, lo + 1, inner + np.arange(len(occ)), count, 1)


# ---------------------------------------------------------------------------
# 3D extraction

_PAIRS_3D = ((0, 1), (0, 2), (1, 2))
_PAIR_I = np.array([i for i, _ in _PAIRS_3D])
_PAIR_J = np.array([j for _, j in _PAIRS_3D])
# A tet's faces as local vertex triples, in the order they are tried.
_TET_FACES = np.array([(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])


def extract_3d(mesh: TetMesh, params: np.ndarray) -> TrussGraph:
    """Trace double-integer curves through tets; nodes at face crossings and
    triple-integer interior points, elements along each curve between them.
    params: (n, 3) perturbed parametrization, one row per mesh vertex.
    """
    params = np.asarray(params, dtype=float)
    check_perturbed(params)
    verts = mesh.vertices

    # Candidate lattice: (tet, pair, a, b) in discovery order.
    vals = params[mesh.tets]
    first, count = _lattice(vals.min(axis=1), vals.max(axis=1))
    nb = count[:, _PAIR_J].ravel()
    block, r = _spread(count[:, _PAIR_I].ravel() * nb)
    tet, pair = np.divmod(block, 3)
    a = first[:, _PAIR_I].ravel()[block] + r // nb[block]
    b = first[:, _PAIR_J].ravel()[block] + r % nb[block]
    i, j = _PAIR_I[pair][:, None], _PAIR_J[pair][:, None]

    # Each candidate curve against the tet's four faces.
    tri = np.sort(mesh.tets[:, _TET_FACES], axis=2)[tet]
    P, Q, R = tri[..., 0], tri[..., 1], tri[..., 2]
    m00, m01 = params[Q, i] - params[P, i], params[R, i] - params[P, i]
    m10, m11 = params[Q, j] - params[P, j], params[R, j] - params[P, j]
    r0, r1 = a[:, None] - params[P, i], b[:, None] - params[P, j]
    det = m00 * m11 - m01 * m10
    with np.errstate(divide="ignore", invalid="ignore"):
        v = (m11 * r0 - m01 * r1) / det
        w = (m00 * r1 - m10 * r0) / det
        u = 1.0 - v - w
    hit = (det != 0.0) & (u > 0.0) & (v > 0.0) & (w > 0.0)
    hits = hit.sum(axis=1)
    tangential = int((hits == 1).sum())
    # A curve through face edges only (u, v, w >= 0, one of them 0) is lost.
    on_edge = (det != 0.0) & (np.minimum(np.minimum(u, v), w) == 0.0)
    edge_only = int(((hits == 0) & on_edge.any(axis=1)).sum())
    inconsistent_tets = len(np.unique(tet[hits > 2]))
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
    if edge_only:
        warnings.warn(f"{edge_only} curve candidate(s) dropped: their only "
                      "face hits lie on face edges", ExtractionWarning)

    # Two-hit candidates: both face hits, in face order, and the chain's
    # triple-integer points between them.
    c = np.nonzero(hits == 2)[0]
    tet, pair, a, b = tet[c], pair[c], a[c], b[c]
    i, j = i[c, 0], j[c, 0]
    k = 3 - i - j
    rows = np.arange(len(c))
    face_keys, face_pos, face_par = [], [], []
    for f in (hit[c].argmax(axis=1), 3 - hit[c, ::-1].argmax(axis=1)):
        uu, vv, ww = (x[c, f][:, None] for x in (u, v, w))
        p_, q_, r_ = P[c, f], Q[c, f], R[c, f]
        face_pos.append(uu * verts[p_] + vv * verts[q_] + ww * verts[r_])
        par = uu * params[p_] + vv * params[q_] + ww * params[r_]
        par[rows, i] = a
        par[rows, j] = b
        face_par.append(par)
        face_keys.append(_key(0, p_, q_, r_, pair, a, b))
    c0, c1 = face_par[0][rows, k], face_par[1][rows, k]
    swap = c0 > c1
    lo_c, hi_c = np.where(swap, c1, c0), np.where(swap, c0, c1)
    lo_pos = np.where(swap[:, None], face_pos[1], face_pos[0])
    hi_pos = np.where(swap[:, None], face_pos[0], face_pos[1])

    kfirst, kcount = _lattice(lo_c, hi_c, PARAM_TOL)
    cand, s = _spread(kcount)
    nk = kfirst[cand] + s
    t = (nk - lo_c[cand]) / (hi_c[cand] - lo_c[cand])
    grid_pos = lo_pos[cand] + t[:, None] * (hi_pos[cand] - lo_pos[cand])
    grid = np.empty((len(cand), 3), dtype=np.int64)
    at = np.arange(len(cand))
    grid[at, i[cand]] = a[cand]
    grid[at, j[cand]] = b[cand]
    grid[at, k[cand]] = nk

    # Occurrences: first face hits, second face hits, grid points; put in
    # discovery order, [first hit, second hit, grid points...] per candidate.
    n2 = len(c)
    disc = np.lexsort((np.concatenate([np.zeros(n2), np.ones(n2), 2 + s]),
                       np.concatenate([rows, rows, cand])))
    where = np.empty_like(disc)
    where[disc] = np.arange(len(disc))
    keys = np.vstack(face_keys + [_key(1, tet[cand], *grid.T)])[disc]
    pos = np.vstack(face_pos + [grid_pos])[disc]
    par = np.vstack(face_par + [grid])[disc]
    ranks = np.repeat([TAG_RANK["face_hit"], TAG_RANK["interior_grid"]],
                      [2 * n2, len(cand)])[disc]
    links, chain = _chain_links(np.where(swap, n2 + rows, rows),
                                np.where(swap, rows, n2 + rows),
                                2 * n2 + at, kcount)
    return _finalize(_raw_graph(keys, pos, par, ranks, where[links], k[chain],
                                INTERIOR_FAMILIES))


# ---------------------------------------------------------------------------
# Boundary extraction


def extract_boundary(mesh: TetMesh, params: np.ndarray,
                     features: np.ndarray | None = None) -> TrussGraph:
    """Surface truss: the integer isocurves of the three column pairs on
    the boundary complex (all nodes tagged boundary, elements family
    "boundary"), plus chains along feature edges (tagged/family "feature").
    params: (n, 3) perturbed parametrization, as for ``extract_3d``.
    """
    params = np.asarray(params, dtype=float)
    check_perturbed(params)
    b = mesh.boundary
    cx = _Complex2D(mesh.vertices, b.triangles, b.edges, b.face_edges, params)
    for (ci, cj) in _PAIRS_3D:
        cx.face_pass(ci, cj)
        cx.face_pass(cj, ci)
    if features is not None and len(features):
        features = np.sort(np.asarray(features, dtype=np.int64), axis=1)
        cx.feature_chains(features)
    return _finalize(cx.graph())


# ---------------------------------------------------------------------------
# Merge


def merge_graphs(parts: list[TrussGraph]) -> TrussGraph:
    """Concatenate graphs, merge coincident nodes, drop duplicate elements."""
    parts = [g for g in parts if g.num_nodes]
    if not parts:
        return empty_graph()
    offsets = np.cumsum([0] + [g.num_nodes for g in parts[:-1]])
    return _finalize(TrussGraph(
        np.vstack([g.positions for g in parts]),
        np.vstack([g.params for g in parts]),
        [t for g in parts for t in g.tags],
        np.vstack([g.elements + off for g, off in zip(parts, offsets)]),
        [f for g in parts for f in g.families],
    ))
