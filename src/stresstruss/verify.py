"""A-posteriori structural verification of an extracted truss.

Elements are linear 3D frames (axial + torsion + Euler-Bernoulli bending,
6 DOF per node); extracted graphs are rarely fully triangulated, so
pin-jointed bars would form mechanisms. Node-level boundary conditions are
derived from the volumetric ones by selector matching with a nearest-node
fallback, which warns (``BoundaryWarning``). The capacity factor scales the
load template until the combined |axial| + |bending| stress reaches yield,
exact by linearity. Given a stage's ``record`` dict, ``frame_fem`` writes
its frame system and the members' volume there.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from itertools import chain

import numpy as np

from . import selectors
from .errors import ConfigError, NumericalError
from .extract import TrussGraph, row_norms
from .fem import (BoundaryConditions, Material, free_rigid_motions,
                  solve_lu, solve_supported)
from .mesh import assemble, pieces
from .postprocess import perp_basis, resolve_radii


class BoundaryWarning(UserWarning):
    pass


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


def _nodes_or_nearest(positions: np.ndarray, selector: dict) -> np.ndarray:
    """Nodes the selector matches; an empty box or sphere match falls back,
    with a BoundaryWarning, to the single node nearest the selector's
    center."""
    idx = selectors.select(positions, selector)
    if len(idx) == 0:
        dist = np.linalg.norm(positions - selectors.center(selector), axis=1)
        idx = np.array([int(np.argmin(dist))])
        warnings.warn(
            f"{selector['type']} selector matched no truss node; using the "
            f"nearest node {idx[0]}", BoundaryWarning)
    return idx


def check_supports(bcs: BoundaryConditions) -> None:
    """ConfigError if a Dirichlet entry prescribes a nonzero displacement:
    the truss model only clamps the nodes its supports match."""
    if any(np.any(np.asarray(d.value, dtype=float) != 0.0)
           for d in bcs.dirichlet):
        raise ConfigError("nonzero prescribed displacements are not "
                          "supported in truss verification")


def build_truss_model(graph: TrussGraph, material: Material, radius_policy,
                      bcs: BoundaryConditions) -> TrussModel:
    """Map volumetric boundary conditions onto the truss graph.

    Dirichlet: matched nodes get their selected translations clamped;
    rotations are clamped too when all three translations are (a fully fixed
    anchor). Neumann: the total force is split equally over matched nodes.
    Gravity adds half of each element's weight to both endpoints.
    """
    if graph.num_elements == 0:
        raise NumericalError("empty truss: the graph has no members (at rho "
                             "<= 1 no integer isocurve crosses the mesh)")
    radii = resolve_radii(graph.families, radius_policy)
    areas = np.pi * radii ** 2
    moments = np.pi * radii ** 4 / 4.0
    n = graph.num_nodes
    fixed = np.zeros((n, 6), dtype=bool)
    loads = np.zeros((n, 6))

    check_supports(bcs)
    for d in bcs.dirichlet:
        nodes = _nodes_or_nearest(graph.positions, d.selector)
        axes = np.asarray(d.axes, dtype=bool)
        fixed[np.ix_(nodes, np.flatnonzero(axes))] = True
        if axes.all():
            fixed[nodes, 3:] = True
    for nm in bcs.neumann:
        nodes = _nodes_or_nearest(graph.positions, nm.selector)
        share = np.asarray(nm.force, dtype=float) / len(nodes)
        loads[nodes, :3] += share
    if bcs.gravity is not None and material.density > 0.0:
        gacc = np.asarray(bcs.gravity, dtype=float)
        weight = material.density * areas * graph.element_lengths()
        w = weight[:, None] * gacc / 2.0
        # Summed in element order a0, b0, a1, b1, ...
        np.add.at(loads[:, :3], graph.elements.ravel(), np.repeat(w, 2, axis=0))

    nfixed = int(fixed.sum())
    if nfixed < 6:
        raise ConfigError(
            f"need at least 6 constrained scalar DOFs, got {nfixed}"
        )
    return TrussModel(graph, material, radii, areas, moments, fixed, loads)


_PAIR = np.array([[1.0, -1.0], [-1.0, 1.0]])
_FLIP = np.array([1.0, -1.0, 1.0, -1.0])


def _local_stiffness(ea_l, gj_l, ei, length):
    """(E, 12, 12) local stiffness of circular-section frame elements."""
    k = np.zeros((len(length), 12, 12))
    k[:, [[0], [6]], [0, 6]] = ea_l[:, None, None] * _PAIR
    k[:, [[3], [9]], [3, 9]] = gj_l[:, None, None] * _PAIR
    L = length
    # float_power rounds as the scalar L ** 3 does; ** on an array does not.
    c = ei / np.float_power(L, 3)
    c12, c6, c4, c2 = c * 12.0, c * (6 * L), c * (4 * L * L), c * (2 * L * L)
    kz = np.stack([c12, c6, -c12, c6,
                   c6, c4, -c6, c2,
                   -c12, -c6, c12, -c6,
                   c6, c2, -c6, c4], axis=1).reshape(-1, 4, 4)
    z, y = np.array([1, 5, 7, 11]), np.array([2, 4, 8, 10])
    k[:, z[:, None], z] = kz
    k[:, y[:, None], y] = kz * _FLIP[:, None] * _FLIP   # rotations flip sign
    return k


def _element_frames(model: TrussModel):
    """Member lengths (E,) and frames (E, 3, 3), rows the local axes."""
    g = model.graph
    axis = g.positions[g.elements[:, 1]] - g.positions[g.elements[:, 0]]
    lengths = row_norms(axis)
    if np.any(lengths <= 0.0):
        raise NumericalError("zero-length element in truss model")
    u = axis / lengths[:, None]
    return lengths, np.stack([u, *perp_basis(u)], axis=1)


def _element_stiffness(model: TrussModel, lengths):
    E, G = model.material.young_modulus, model.material.lame[1]
    torsion = 2.0 * model.moments                   # circular section
    return _local_stiffness(E * model.areas / lengths, G * torsion / lengths,
                            E * model.moments, lengths)


def _assemble(model: TrussModel, lam, k_loc):
    n, ne = model.graph.num_nodes, len(lam)
    # T^T k T with T = diag(Lambda x 4), one 3x3 block at a time.
    k_glob = lam.transpose(0, 2, 1)[:, None] @ k_loc.reshape(ne, 4, 3, 12)
    k_glob = (k_glob.reshape(ne, 12, 4, 3) @ lam[:, None]).reshape(ne, 12, 12)
    k_glob = 0.5 * (k_glob + k_glob.transpose(0, 2, 1))
    dofs = (6 * model.graph.elements[:, :, None]
            + np.arange(6)).reshape(-1, 12)
    return assemble(k_glob, dofs, 6 * n)


def frame_fem(model: TrussModel, *, record: dict | None = None
              ) -> FrameResult:
    """Static solve; ``record`` gets the free-DOF system under ``systems``,
    as solve_lu appends it, and the members' ``member_volume``."""
    g = model.graph
    n = g.num_nodes
    lengths, lam = _element_frames(model)
    if record is not None:
        record["member_volume"] = float(model.areas @ lengths)
    # Members are rigidly joined, so only a piece its supports do not hold
    # can move without strain.
    members = np.column_stack([pieces(n, g.elements)[1], np.arange(n)])
    loose = free_rigid_motions(g.positions, members, model.fixed)[0]
    if len(loose):
        shown = ", ".join(str(i) for i in loose[:12])
        if len(loose) > 12:
            shown += f", ... ({len(loose) - 12} more)"
        raise NumericalError(
            f"mechanism: zero-energy mode involving nodes [{shown}]"
        )
    k_loc = _element_stiffness(model, lengths)
    K = _assemble(model, lam, k_loc)
    f = model.loads.ravel()
    held = np.nonzero(model.fixed.ravel())[0]
    d = solve_supported(K, f, held, np.zeros(len(held)),
                        lambda A, b: solve_lu(A, b, "frame stiffness",
                                              record))

    reactions = (K @ d - f).reshape(n, 6)
    ne = g.num_elements
    # einsum rounds each 3-term sum as T @ d_elem does; a stacked @ does not.
    u_loc = np.einsum("eij,ebj->ebi", lam,
                      d.reshape(n, 6)[g.elements].reshape(ne, 4, 3))
    f_loc = (k_loc @ u_loc.reshape(ne, 12, 1))[:, :, 0]
    axial_force = f_loc[:, 6]
    axial_stress = axial_force / model.areas
    moment = np.maximum(np.hypot(f_loc[:, 4], f_loc[:, 5]),
                        np.hypot(f_loc[:, 10], f_loc[:, 11]))
    inertia = model.moments
    with np.errstate(divide="ignore", invalid="ignore"):
        bending_stress = np.where(inertia > 0.0,
                                  moment * model.radii / inertia, 0.0)
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
    text = (
        "truss verification report\n"
        f"nodes {g.num_nodes} elements {g.num_elements}\n"
        f"yield_strength {yield_s:.6e}\n"
        "element family length_m area_m2 sigma_axial_pa sigma_bending_pa "
        "utilization\n"
    )
    rows = zip(range(g.num_elements), g.families,
               g.element_lengths().tolist(), model.areas.tolist(),
               result.axial_stress.tolist(), result.bending_stress.tolist(),
               (combined / yield_s).tolist())
    text += ("%d %s %.6e %.6e %+.6e %.6e %.6e\n" * g.num_elements
             % tuple(chain.from_iterable(rows)))
    if g.num_elements:
        worst = int(np.argmax(combined))
        text += f"max_stress_element {worst} combined {combined[worst]:.6e}\n"
    text += f"lambda_star {lambda_star:.9e}\n"
    with open(path, "w") as fh:
        fh.write(text)
