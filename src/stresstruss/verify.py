"""A-posteriori structural verification of an extracted truss.

Elements are linear 3D frames (axial + torsion + Euler-Bernoulli bending,
6 DOF per node); extracted graphs are rarely fully triangulated, so
pin-jointed bars would form mechanisms. Node-level boundary conditions are
derived from the volumetric ones by selector matching with a nearest-node
fallback. The capacity factor scales the load template until the combined
|axial| + |bending| stress reaches yield, exact by linearity.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import MatrixRankWarning, spsolve

from .errors import ConfigError, NumericalError
from .extract import TrussGraph
from .fem import BoundaryConditions, Material
from .postprocess import resolve_radii


@dataclass
class TrussModel:
    graph: TrussGraph
    material: Material
    radii: np.ndarray          # (E,) m
    areas: np.ndarray          # (E,) m^2
    moments: np.ndarray        # (E,) m^4, second moment about any diameter
    fixed: np.ndarray          # (N, 6) bool, True = DOF constrained
    loads: np.ndarray          # (N, 6) applied force/moment


@dataclass
class FrameResult:
    displacements: np.ndarray  # (N, 6)
    reactions: np.ndarray      # (N, 6)
    axial_force: np.ndarray    # (E,) N, tension positive
    axial_stress: np.ndarray   # (E,) Pa
    bending_stress: np.ndarray  # (E,) Pa, max fiber stress over both ends


def _selector_center(selector) -> np.ndarray:
    if callable(selector):
        raise ConfigError(
            "callable selector matched no truss nodes and has no center "
            "for nearest-node fallback"
        )
    kind = selector.get("type")
    if kind == "box":
        lo = np.asarray(selector["min"], dtype=float)
        hi = np.asarray(selector["max"], dtype=float)
        return 0.5 * (lo + hi)
    if kind == "sphere":
        return np.asarray(selector["center"], dtype=float)
    raise ConfigError(f"selector type {kind!r} has no geometric center")


def _select_nodes(positions: np.ndarray, selector) -> np.ndarray:
    """Node indices matched by a volumetric-style selector; an empty match
    falls back to the single node nearest the selector's center."""
    if callable(selector):
        mask = np.asarray([bool(selector(p)) for p in positions])
        idx = np.nonzero(mask)[0]
    elif isinstance(selector, dict):
        kind = selector.get("type")
        if kind == "box":
            lo = np.asarray(selector["min"], dtype=float)
            hi = np.asarray(selector["max"], dtype=float)
            mask = ((positions >= lo) & (positions <= hi)).all(axis=1)
            idx = np.nonzero(mask)[0]
        elif kind == "sphere":
            c = np.asarray(selector["center"], dtype=float)
            r = float(selector["radius"])
            idx = np.nonzero(
                np.linalg.norm(positions - c, axis=1) <= r
            )[0]
        elif kind == "indices":
            idx = np.asarray(selector["values"], dtype=np.int64)
            if len(idx) and (idx.min() < 0 or idx.max() >= len(positions)):
                raise ConfigError("node index selector out of range")
        else:
            raise ConfigError(f"unknown selector type: {kind!r}")
    else:
        raise ConfigError("selector must be a dict or a callable")
    if len(idx) == 0:
        center = _selector_center(selector)
        idx = np.array([int(np.argmin(
            np.linalg.norm(positions - center, axis=1)
        ))])
    return idx


def build_truss_model(graph: TrussGraph, material: Material, radius_policy,
                      bcs: BoundaryConditions) -> TrussModel:
    """Map volumetric boundary conditions onto the truss graph.

    Dirichlet: matched nodes get their selected translations clamped;
    rotations are clamped too when all three translations are (a fully fixed
    anchor). Neumann: the total force is split equally over matched nodes.
    Gravity adds half of each element's weight to both endpoints.
    """
    radii = resolve_radii(graph.families, radius_policy)
    areas = np.pi * radii ** 2
    moments = np.pi * radii ** 4 / 4.0
    n = graph.num_nodes
    fixed = np.zeros((n, 6), dtype=bool)
    loads = np.zeros((n, 6))

    for d in bcs.dirichlet:
        if np.any(np.asarray(d.value, dtype=float) != 0.0):
            raise ConfigError(
                "nonzero prescribed displacements are not supported in "
                "truss verification"
            )
        nodes = _select_nodes(graph.positions, d.selector)
        axes = np.asarray(d.axes, dtype=bool)
        for c in range(3):
            if axes[c]:
                fixed[nodes, c] = True
        if axes.all():
            fixed[nodes, 3:] = True
    for nm in bcs.neumann:
        nodes = _select_nodes(graph.positions, nm.selector)
        share = np.asarray(nm.force, dtype=float) / len(nodes)
        loads[nodes, :3] += share
    if bcs.gravity is not None and material.density > 0.0:
        gacc = np.asarray(bcs.gravity, dtype=float)
        lengths = graph.element_lengths()
        for eidx, (a, b) in enumerate(graph.elements):
            w = material.density * areas[eidx] * lengths[eidx] * gacc / 2.0
            loads[a, :3] += w
            loads[b, :3] += w

    nfixed = int(fixed.sum())
    if nfixed < 6:
        raise ConfigError(
            f"need at least 6 constrained scalar DOFs, got {nfixed}"
        )
    return TrussModel(graph, material, radii, areas, moments, fixed, loads)


def _local_stiffness(ea_l, gj_l, ei, length):
    k = np.zeros((12, 12))
    k[np.ix_((0, 6), (0, 6))] = ea_l * np.array([[1.0, -1.0], [-1.0, 1.0]])
    k[np.ix_((3, 9), (3, 9))] = gj_l * np.array([[1.0, -1.0], [-1.0, 1.0]])
    L = length
    c = ei / L ** 3
    kz = c * np.array([
        [12.0, 6 * L, -12.0, 6 * L],
        [6 * L, 4 * L * L, -6 * L, 2 * L * L],
        [-12.0, -6 * L, 12.0, -6 * L],
        [6 * L, 2 * L * L, -6 * L, 4 * L * L],
    ])
    k[np.ix_((1, 5, 7, 11), (1, 5, 7, 11))] = kz
    ky = c * np.array([
        [12.0, -6 * L, -12.0, -6 * L],
        [-6 * L, 4 * L * L, 6 * L, 2 * L * L],
        [-12.0, 6 * L, 12.0, 6 * L],
        [-6 * L, 2 * L * L, 6 * L, 4 * L * L],
    ])
    k[np.ix_((2, 4, 8, 10), (2, 4, 8, 10))] = ky
    return k


def _element_frames(model: TrussModel):
    """Per element: (length, Lambda) with Lambda rows the local axes."""
    out = []
    g = model.graph
    for a, b in g.elements:
        axis = g.positions[b] - g.positions[a]
        length = float(np.linalg.norm(axis))
        if length <= 0.0:
            raise NumericalError("zero-length element in truss model")
        u = axis / length
        e = np.zeros(3)
        e[int(np.argmin(np.abs(u)))] = 1.0
        e1 = np.cross(u, e)
        e1 /= np.linalg.norm(e1)
        e2 = np.cross(u, e1)
        out.append((length, np.vstack([u, e1, e2])))
    return out


def _assemble(model: TrussModel, frames):
    mat = model.material
    E = mat.young_modulus
    G = E / (2.0 * (1.0 + mat.poisson_ratio))
    n = model.graph.num_nodes
    rows, cols, vals = [], [], []
    for eidx, (a, b) in enumerate(model.graph.elements):
        length, lam = frames[eidx]
        A = model.areas[eidx]
        inertia = model.moments[eidx]
        torsion = 2.0 * inertia                     # circular section
        k_loc = _local_stiffness(E * A / length, G * torsion / length,
                                 E * inertia, length)
        T = np.zeros((12, 12))
        for blk in range(4):
            T[3 * blk:3 * blk + 3, 3 * blk:3 * blk + 3] = lam
        k_glob = T.T @ k_loc @ T
        k_glob = 0.5 * (k_glob + k_glob.T)
        dofs = np.concatenate([6 * int(a) + np.arange(6),
                               6 * int(b) + np.arange(6)])
        for i in range(12):
            rows.extend(dofs)
            cols.extend([dofs[i]] * 12)
            vals.extend(k_glob[:, i])
    K = sp.coo_matrix((vals, (rows, cols)), shape=(6 * n, 6 * n)).tocsr()
    return ((K + K.T) * 0.5).tocsr()


def _mechanism_error(kff, free_dofs):
    nf = kff.shape[0]
    scale = float(np.max(np.abs(kff.diagonal()))) if nf else 1.0
    if nf <= 9000:
        w, v = np.linalg.eigh(kff.toarray())
    else:
        from scipy.sparse.linalg import eigsh
        w, v = eigsh(kff.tocsc(), k=min(12, nf - 1), which="SA")
    null = np.nonzero(w < 1e-9 * max(scale, 1.0))[0]
    nodes = set()
    for m in null:
        mode = np.abs(v[:, m])
        for d in np.nonzero(mode > 0.3 * mode.max())[0]:
            nodes.add(int(free_dofs[d] // 6))
    listed = sorted(nodes)
    shown = ", ".join(str(i) for i in listed[:12])
    if len(listed) > 12:
        shown += f", ... ({len(listed) - 12} more)"
    return NumericalError(
        f"mechanism: zero-energy mode involving nodes [{shown}]"
    )


def frame_fem(model: TrussModel) -> FrameResult:
    g = model.graph
    n = g.num_nodes
    frames = _element_frames(model)
    K = _assemble(model, frames)
    f = model.loads.ravel()
    fixed = model.fixed.ravel()
    free = np.nonzero(~fixed)[0]
    kff = K[free][:, free].tocsc()
    ff = f[free]

    d = np.zeros(6 * n)
    with warnings.catch_warnings():
        warnings.simplefilter("error", MatrixRankWarning)
        try:
            sol = spsolve(kff, ff)
        except (MatrixRankWarning, RuntimeError):
            raise _mechanism_error(kff, free) from None
    if np.any(~np.isfinite(sol)):
        raise _mechanism_error(kff, free)
    resid = np.linalg.norm(kff @ sol - ff)
    if resid > 1e-8 * (1.0 + np.linalg.norm(ff)):
        raise _mechanism_error(kff, free)
    d[free] = sol

    reactions = (K @ d - f).reshape(n, 6)
    ne = g.num_elements
    axial_force = np.zeros(ne)
    axial_stress = np.zeros(ne)
    bending_stress = np.zeros(ne)
    for eidx, (a, b) in enumerate(g.elements):
        length, lam = frames[eidx]
        T = np.zeros((12, 12))
        for blk in range(4):
            T[3 * blk:3 * blk + 3, 3 * blk:3 * blk + 3] = lam
        d_elem = np.concatenate([d[6 * int(a):6 * int(a) + 6],
                                 d[6 * int(b):6 * int(b) + 6]])
        u_loc = T @ d_elem
        mat = model.material
        E = mat.young_modulus
        G = E / (2.0 * (1.0 + mat.poisson_ratio))
        inertia = model.moments[eidx]
        k_loc = _local_stiffness(E * model.areas[eidx] / length,
                                 G * 2.0 * inertia / length,
                                 E * inertia, length)
        f_loc = k_loc @ u_loc
        axial_force[eidx] = f_loc[6]
        axial_stress[eidx] = f_loc[6] / model.areas[eidx]
        m1 = np.hypot(f_loc[4], f_loc[5])
        m2 = np.hypot(f_loc[10], f_loc[11])
        bending_stress[eidx] = (max(m1, m2) * model.radii[eidx] / inertia
                                if inertia > 0.0 else 0.0)
    return FrameResult(d.reshape(n, 6), reactions, axial_force,
                       axial_stress, bending_stress)


def load_factor(model: TrussModel, result: FrameResult) -> float:
    """Factor on the solved load at which max |axial| + |bending| stress
    reaches yield; exact, since the response is linear in the load."""
    combined = np.abs(result.axial_stress) + np.abs(result.bending_stress)
    peak = float(combined.max()) if len(combined) else 0.0
    if peak <= 0.0:
        raise NumericalError("load does not stress structure")
    return model.material.yield_strength / peak


def capacity(model: TrussModel, template: np.ndarray | None = None) -> float:
    """Load factor at which max |axial| + |bending| stress reaches yield."""
    if template is not None:
        model = replace(model, loads=np.asarray(template, dtype=float))
    return load_factor(model, frame_fem(model))


def write_report(path, model: TrussModel, result: FrameResult,
                 lambda_star: float):
    """Structured text report: per-element utilization, the critical
    element, and the capacity factor."""
    g = model.graph
    yield_s = model.material.yield_strength
    combined = np.abs(result.axial_stress) + np.abs(result.bending_stress)
    lines = [
        "truss verification report",
        f"nodes {g.num_nodes} elements {g.num_elements}",
        f"yield_strength {yield_s:.6e}",
        "element family length_m area_m2 sigma_axial_pa sigma_bending_pa "
        "utilization",
    ]
    lengths = g.element_lengths()
    for eidx in range(g.num_elements):
        lines.append(
            f"{eidx} {g.families[eidx]} {lengths[eidx]:.6e} "
            f"{model.areas[eidx]:.6e} {result.axial_stress[eidx]:+.6e} "
            f"{result.bending_stress[eidx]:.6e} "
            f"{combined[eidx] / yield_s:.6e}"
        )
    if g.num_elements:
        worst = int(np.argmax(combined))
        lines.append(f"max_stress_element {worst} "
                     f"combined {combined[worst]:.6e}")
    lines.append(f"lambda_star {lambda_star:.9e}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
