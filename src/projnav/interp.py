"""Interpolation of smooth divergence-free fields into the velocity space.

The composite operator works in two stages: nodal quadratic interpolation,
then a correction built from tangential edge bubbles that restores the
vertex moments of the divergence.  The correction only touches edge
midpoint dofs, so membership in the zero-trace space is a purely
combinatorial question about which edges carry nonzero coefficients.

Coefficients of the correction are exact integrals for piecewise
polynomial inputs up to degree 9 per cell (the analytic path uses a
degree-10 rule; discrete quadratic inputs are exact already at degree 5).
"""

from dataclasses import dataclass

import numpy as np

from . import fem
from .fem import FieldP2Vector, DEFAULT_RULE
from .mesh import mesh_metrics
from .quadrature import triangle_rule

__all__ = [
    "AnalyticVectorField", "InterpError",
    "lagrange_p2", "edge_bubble", "edge_bubble_residuals",
    "divergence_correct", "pi_n",
    "pi_n_convergence_study", "linf_estimate",
]

ANALYTIC_RULE = triangle_rule(10)

_LOCAL_EDGE_VERTICES = ((1, 2), (0, 2), (0, 1))


class InterpError(ValueError):
    pass


@dataclass
class AnalyticVectorField:
    """A smooth vector field given by callbacks.

    value(points) -> (m, 2); gradient(points) -> (m, 2, 2) with entry
    [., i, j] = d v_i / d x_j.  ``support`` is an optional bounding box
    (xmin, xmax, ymin, ymax) outside of which the field vanishes.
    """

    value: callable
    gradient: callable = None
    support: tuple = None
    divergence_free: bool = False


def lagrange_p2(v, space):
    """Nodal interpolation: coefficients are the field values at the nodes."""
    value = v.value if isinstance(v, AnalyticVectorField) else v
    nodes = space.node_coordinates()
    return FieldP2Vector(space, np.asarray(value(nodes), dtype=float))


def _edge_bubbles(mesh, i, j):
    """Midpoint dofs (m,) and vectors (m, 2) 3 (y_j - y_i) / |patch| of the
    tangential bubbles of the oriented edges (i[k], j[k])."""
    e = mesh.edge_indices(i, j)
    tangent = mesh.vertices[j] - mesh.vertices[i]
    return mesh.n_vertices + e, 3.0 * tangent / mesh.edge_patch_area[e, None]


def edge_bubble(space, edge_pair):
    """Normalized tangential bubble of the oriented edge (i, j).

    A pure midpoint field: the only nonzero dof sits at the midpoint of
    {i, j} and carries the vector 3 (y_j - y_i) / |patch|; the vertex
    moments of its divergence are +1 at i and -1 at j.
    """
    i, j = edge_pair
    dof, vec = _edge_bubbles(space.mesh, [i], [j])
    field = FieldP2Vector(space)
    field.coeffs[dof] = vec
    return field


def edge_bubble_residuals(space):
    """Largest residuals of the edge-bubble lemmas over every edge {i < j}.

    "bij": max |(div b_ij, phi_k) - (delta_ik - delta_jk)| over all edges and
    vertices k; "antisymmetry": max |b_ij + b_ji| over all edges and dofs.
    A bubble only lives on the cells that hold its dof, so each moment is
    computed on those cells alone and summed per (edge, vertex); every
    other vertex moment is exactly zero.
    """
    mesh = space.mesh
    nv = mesh.n_vertices
    edge = np.arange(mesh.n_edges)
    i, j = mesh.edges.T
    dof, vec = _edge_bubbles(mesh, i, j)
    dof_rev, vec_rev = _edge_bubbles(mesh, j, i)
    antisymmetry = np.where((dof == dof_rev)[:, None], np.abs(vec + vec_rev),
                            np.maximum(np.abs(vec), np.abs(vec_rev)))

    # one item per (cell c, local edge l): the bubble of edge
    # cell_edges[c, l] on c, in slot 3 + l; a bubble whose dof is not its
    # edge's midpoint is zero there, so it fails "bij"
    owner = mesh.cell_edges.ravel()
    cell, slot = np.divmod(np.arange(len(owner)), 3)
    local = np.zeros((len(owner), 6, 2))
    local[np.arange(len(owner)), 3 + slot] = (
        vec[owner] * (dof[owner] == nv + owner)[:, None])
    moments = fem.cell_div_moments(mesh, local, cell)

    # sum per (edge, vertex); the endpoints enter with a zero moment so an
    # edge whose bubble misses its own cells still meets its +1 and -1
    keys = np.concatenate([(owner[:, None] * nv + mesh.cells[cell]).ravel(),
                           edge * nv + i, edge * nv + j])
    keys, slot_of = np.unique(keys, return_inverse=True)
    m = moments.size
    total = np.bincount(slot_of, np.concatenate([moments.ravel(),
                                                 np.zeros(2 * len(edge))]),
                        len(keys))
    target = np.bincount(slot_of[m:], np.repeat([1.0, -1.0], len(edge)),
                         len(keys))
    return {"bij": float(np.abs(total - target).max()),
            "antisymmetry": float(antisymmetry.max())}


def _edge_coefficients(space, values_at_rule, rule):
    """Integrals (w, phi_j grad phi_i - phi_i grad phi_j) per canonical edge.

    ``values_at_rule``: (..., nc, nq, 2) samples of w at the rule points;
    the result is (..., ne), one row of coefficients per leading index.
    """
    mesh = space.mesh
    t = fem._tables(mesh, rule)
    # m[..., c, k, i] = reference-cell integral of phi_k w . grad phi_i
    wgrad = values_at_rule @ t.p1grad.transpose(0, 2, 1)   # (..., nc, nq, 3)
    m = (t.weights * t.p1val) @ wgrad                      # (..., nc, 3, 3)
    p, q = np.array(_LOCAL_EDGE_VERTICES).T
    # integrand w . (phi_q grad phi_p - phi_p grad phi_q) on each cell
    integ = (m[..., q, p] - m[..., p, q]) * mesh.cell_areas[:, None]
    sign = np.where(mesh.cells[:, p] < mesh.cells[:, q], 1.0, -1.0)
    rows = (sign * integ).reshape(-1, 3 * mesh.n_cells)   # one per field
    ne = mesh.n_edges
    keys = np.arange(len(rows))[:, None] * ne + mesh.cell_edges.ravel()
    return np.bincount(keys.ravel(), rows.ravel()).reshape(
        values_at_rule.shape[:-3] + (ne,))


def _correction_from_coefficients(space, coeffs):
    """(..., n_scalar, 2) dofs of the bubble fields of ``coeffs`` (..., ne)."""
    mesh = space.mesh
    lo = mesh.vertices[mesh.edges[:, 0]]
    hi = mesh.vertices[mesh.edges[:, 1]]
    out = np.zeros(coeffs.shape[:-1] + (space.n_scalar, 2))
    out[..., mesh.n_vertices:, :] = (
        coeffs[..., None] * 3.0 * (lo - hi) / mesh.edge_patch_area[:, None])
    return out


def _values_at(v, points):
    """Values (..., 2) of an analytic field at the points (..., 2)."""
    return (np.asarray(v.value(points.reshape(-1, 2)), dtype=float)
            .reshape(points.shape))


def divergence_correct(w, space):
    """Edge-bubble field whose divergence has the same vertex moments as w.

    w is a FieldP2Vector or an (..., n_scalar, 2) array of P2 coefficients,
    for which the result is such an array too.  w must vanish on the
    boundary: a field with any nonzero non-interior dof is rejected.  w is
    integrated with DEFAULT_RULE.
    """
    coeffs = w.coeffs if isinstance(w, FieldP2Vector) else np.asarray(
        w, dtype=float)
    if np.any(coeffs[..., ~space.interior_mask, :] != 0.0):
        raise InterpError(
            "divergence correction requires vanishing boundary trace")
    vals = fem._tables(space.mesh, DEFAULT_RULE).p2val.T @ space.local(coeffs)
    out = _correction_from_coefficients(
        space, _edge_coefficients(space, vals, DEFAULT_RULE))
    return out if isinstance(w, np.ndarray) else FieldP2Vector(space, out)


def _nodal_and_rule_values(v, space):
    """v at the nodes and the ANALYTIC_RULE points; v is divergence free."""
    if not isinstance(v, AnalyticVectorField) or not v.divergence_free:
        raise InterpError("input must be declared divergence free")
    t = fem._tables(space.mesh, ANALYTIC_RULE)
    return _values_at(v, space.node_coordinates()), _values_at(v, t.points)


def pi_n(v, space):
    """Divergence-preserving interpolation of a smooth divergence-free field.

    Returns (field, status).  status == "corrected" when the bubble
    correction is admissible: the nodal interpolant has exactly zero
    boundary dofs and every nonzero correction coefficient sits on a
    non-boundary edge.  Otherwise the result is the zero field and
    status == "zeroed".
    """
    return _pi_n(space, *_nodal_and_rule_values(v, space))


def _pi_n(space, at_nodes, at_rule):
    mesh = space.mesh
    wl = FieldP2Vector(space, at_nodes)
    rvals = at_rule - fem.p2_values_at(wl, ANALYTIC_RULE)
    coeffs = _edge_coefficients(space, rvals, ANALYTIC_RULE)

    lagrange_ok = wl.in_velocity_space()
    boundary_coeffs = coeffs[mesh.boundary_edges]
    bubbles_ok = bool(np.all(boundary_coeffs == 0.0))
    if not (lagrange_ok and bubbles_ok):
        return FieldP2Vector(space), "zeroed"
    correction = _correction_from_coefficients(space, coeffs)
    out = FieldP2Vector(space, wl.coeffs + correction)
    return out, "corrected"


def _field_at_samples(field):
    """(nc, nq+6, 2) values at the ANALYTIC_RULE points, then at the six
    nodes of each cell in ``gdof`` order."""
    vals_q = fem.p2_values_at(field, ANALYTIC_RULE)            # (nc, nq, 2)
    return np.concatenate([vals_q, field.space.local(field.coeffs)], axis=1)


def _max_norm(vals):
    return float(np.sqrt((vals ** 2).sum(axis=-1)).max())


def linf_estimate(field):
    """Max Euclidean magnitude over the per-cell quadrature and nodal points."""
    return _max_norm(_field_at_samples(field))


def _gradient_errors(field, v):
    """(max gradient error, H1 error) of field - v at ANALYTIC_RULE points."""
    mesh = field.space.mesh
    t = fem._tables(mesh, ANALYTIC_RULE)
    # in place, so two (nc, nq, 2, 2) arrays are live, not four
    gerr = fem.p2_gradients_at(field, ANALYTIC_RULE)
    gerr -= np.asarray(v.gradient(t.points.reshape(-1, 2))).reshape(gerr.shape)
    err_max = float(np.abs(gerr).max())
    cell = np.square(gerr, out=gerr).sum(axis=(2, 3)) @ t.weights
    return err_max, float(np.sqrt(cell @ mesh.cell_areas))


def pi_n_convergence_study(v, spaces):
    """Interpolation errors of the corrected operator over a mesh sequence.

    Returns one dict per space with keys
    n, h, status, err_linf, err_w1inf, err_h1, e_norm, observed_order
    (order from the previous row's W1-inf error; nan on the first row)
    and field (the interpolant).
    """
    rows = []
    prev = None
    for space in spaces:
        h, _ = mesh_metrics(space.mesh)
        at_nodes, at_rule = _nodal_and_rule_values(v, space)
        field, status = _pi_n(space, at_nodes, at_rule)
        samples = _field_at_samples(field)
        err_linf = _max_norm(samples - np.concatenate(
            [at_rule, space.local(at_nodes)], axis=1))
        err_ginf, err_h1 = _gradient_errors(field, v)
        err_w1inf = err_linf + err_ginf
        order = float("nan")
        if prev is not None and err_w1inf > 0.0 and prev[1] > 0.0:
            order = np.log(prev[1] / err_w1inf) / np.log(prev[0] / h)
        rows.append({
            "n": round(1.0 / (h / np.sqrt(2.0))) if h > 0 else 0,
            "h": h,
            "status": status,
            "err_linf": err_linf,
            "err_w1inf": err_w1inf,
            "err_h1": err_h1,
            "e_norm": fem.h1_seminorm(field) + _max_norm(samples),
            "observed_order": order,
            "field": field,
        })
        prev = (h, err_w1inf)
    return rows
