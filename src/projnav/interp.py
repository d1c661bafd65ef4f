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
    "pi_n_convergence_study", "sample_points", "linf_estimate",
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

    def check_divergence_free(self, points, tol=1e-12):
        g = np.asarray(self.gradient(points))
        tr = g[:, 0, 0] + g[:, 1, 1]
        scale = max(1.0, float(np.abs(g).max()))
        return float(np.abs(tr).max()) <= tol * scale

    def check_support(self, points, tol=0.0):
        """Value must vanish (to tol) at sample points outside the box."""
        if self.support is None:
            return True
        xmin, xmax, ymin, ymax = self.support
        pts = np.asarray(points)
        outside = ((pts[:, 0] < xmin) | (pts[:, 0] > xmax)
                   | (pts[:, 1] < ymin) | (pts[:, 1] > ymax))
        if not outside.any():
            return True
        vals = np.asarray(self.value(pts[outside]))
        return float(np.abs(vals).max()) <= tol


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

    # the (cell, local slot) places of every dof, grouped by dof
    places = np.argsort(space.gdof.ravel(), kind="stable")
    count = np.bincount(space.gdof.ravel(), minlength=space.n_scalar)
    start = np.cumsum(count) - count
    # one item per (bubble, place of its dof)
    n = count[dof]
    owner = np.repeat(edge, n)
    rank = np.arange(n.sum()) - np.repeat(np.cumsum(n) - n, n)
    cell, slot = np.divmod(places[start[dof][owner] + rank], 6)
    local = np.zeros((len(owner), 6, 2))
    local[np.arange(len(owner)), slot] = vec[owner]
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

    ``values_at_rule``: (nc, nq, 2) samples of w at the rule points.
    """
    mesh = space.mesh
    t = fem._tables(mesh, rule)
    coeffs = np.zeros(mesh.n_edges)
    wq = t.weights
    for l, (p, q) in enumerate(_LOCAL_EDGE_VERTICES):
        # integrand w . (phi_q grad phi_p - phi_p grad phi_q) on each cell
        integ = (np.einsum("q,cqx,cx->c", wq * t.p1val[q], values_at_rule, t.p1grad[:, p, :])
                 - np.einsum("q,cqx,cx->c", wq * t.p1val[p], values_at_rule, t.p1grad[:, q, :]))
        integ *= mesh.cell_areas
        gi = mesh.cells[:, p]
        gj = mesh.cells[:, q]
        sign = np.where(gi < gj, 1.0, -1.0)
        np.add.at(coeffs, mesh.cell_edges[:, l], sign * integ)
    return coeffs


def _correction_from_coefficients(space, coeffs):
    mesh = space.mesh
    field = FieldP2Vector(space)
    lo = mesh.vertices[mesh.edges[:, 0]]
    hi = mesh.vertices[mesh.edges[:, 1]]
    field.coeffs[mesh.n_vertices:] = (
        coeffs[:, None] * 3.0 * (lo - hi) / mesh.edge_patch_area[:, None])
    return field


def _boundary_node_values(w, space):
    mesh = space.mesh
    nodes = space.node_coordinates()
    idx = np.concatenate([mesh.boundary_vertices,
                          mesh.n_vertices + mesh.boundary_edges])
    if isinstance(w, AnalyticVectorField):
        return np.asarray(w.value(nodes[idx]), dtype=float)
    return w.coeffs[idx]


def divergence_correct(w, space, rule=None):
    """Edge-bubble field whose divergence has the same vertex moments as w.

    w must vanish on the boundary: a discrete field with any nonzero
    non-interior dof, or an analytic field with nonzero boundary node
    values, is rejected.
    """
    if isinstance(w, FieldP2Vector):
        if not w.in_velocity_space():
            raise InterpError(
                "divergence correction requires vanishing boundary trace")
        if rule is None:
            rule = DEFAULT_RULE
        vals = fem.p2_values_at(w, rule)
    else:
        bvals = _boundary_node_values(w, space)
        scale = 1.0 + float(np.abs(np.asarray(
            w.value(space.node_coordinates()))).max())
        if np.abs(bvals).max() > 1e-12 * scale:
            raise InterpError(
                "divergence correction requires vanishing boundary trace")
        if rule is None:
            rule = ANALYTIC_RULE
        t = fem._tables(space.mesh, rule)
        vals = np.asarray(w.value(t.points.reshape(-1, 2)), dtype=float)
        vals = vals.reshape(space.mesh.n_cells, len(rule), 2)
    coeffs = _edge_coefficients(space, vals, rule)
    return _correction_from_coefficients(space, coeffs)


def pi_n(v, space, rule=None):
    """Divergence-preserving interpolation of a smooth divergence-free field.

    Returns (field, status).  status == "corrected" when the bubble
    correction is admissible: the nodal interpolant has exactly zero
    boundary dofs and every nonzero correction coefficient sits on a
    non-boundary edge.  Otherwise the result is the zero field and
    status == "zeroed".
    """
    if not isinstance(v, AnalyticVectorField) or not v.divergence_free:
        raise InterpError("input must be declared divergence free")
    if rule is None:
        rule = ANALYTIC_RULE
    mesh = space.mesh
    wl = lagrange_p2(v, space)
    t = fem._tables(mesh, rule)
    rvals = (np.asarray(v.value(t.points.reshape(-1, 2)), dtype=float)
             .reshape(mesh.n_cells, len(rule), 2)
             - fem.p2_values_at(wl, rule))
    coeffs = _edge_coefficients(space, rvals, rule)

    lagrange_ok = wl.in_velocity_space()
    boundary_coeffs = coeffs[mesh.boundary_edges]
    bubbles_ok = bool(np.all(boundary_coeffs == 0.0))
    if not (lagrange_ok and bubbles_ok):
        return FieldP2Vector(space), "zeroed"
    correction = _correction_from_coefficients(space, coeffs)
    out = FieldP2Vector(space, wl.coeffs + correction.coeffs)
    return out, "corrected"


def sample_points(mesh, rule=ANALYTIC_RULE):
    """Per-cell sample points: the rule points plus the six nodes, (nc, nq+6, 2)."""
    t = fem._tables(mesh, rule)
    corners = mesh.vertices[mesh.cells]
    mids = 0.5 * (np.roll(corners, -1, axis=1) + np.roll(corners, -2, axis=1))
    return np.concatenate([t.points, corners, mids], axis=1)


def _field_at_samples(field, rule=ANALYTIC_RULE):
    space = field.space
    vals_q = fem.p2_values_at(field, rule)                     # (nc, nq, 2)
    local = field.coeffs[space.gdof]                           # (nc, 6, 2)
    # node order must match sample_points: 3 corners then midpoints opposite
    # local vertices 0, 1, 2
    return np.concatenate([vals_q, local[:, :3], local[:, 3:]], axis=1)


def linf_estimate(field, rule=ANALYTIC_RULE):
    """Max Euclidean magnitude over the per-cell quadrature and nodal points."""
    vals = _field_at_samples(field, rule)
    return float(np.sqrt((vals ** 2).sum(axis=-1)).max())


def _w1inf_errors(field, v, rule=ANALYTIC_RULE):
    """(value error, gradient error, H1 error) of field - v, sampled."""
    mesh = field.space.mesh
    pts = sample_points(mesh, rule)
    flat = pts.reshape(-1, 2)
    vals = _field_at_samples(field, rule) - np.asarray(v.value(flat)).reshape(pts.shape)
    err_linf = float(np.sqrt((vals ** 2).sum(axis=-1)).max())

    t = fem._tables(mesh, rule)
    gdisc = fem.p2_gradients_at(field, rule)
    gexact = np.asarray(v.gradient(t.points.reshape(-1, 2))).reshape(gdisc.shape)
    gerr = gdisc - gexact
    err_ginf = float(np.abs(gerr).max())
    cell = np.einsum("q,cqxj,cqxj->c", t.weights, gerr, gerr)
    err_h1 = float(np.sqrt(cell @ mesh.cell_areas))
    return err_linf, err_ginf, err_h1


def pi_n_convergence_study(v, spaces, rule=None):
    """Interpolation errors of the corrected operator over a mesh sequence.

    Returns one dict per space with keys
    n, h, status, err_linf, err_w1inf, err_h1, e_norm, observed_order
    (order from the previous row's W1-inf error; nan on the first row)
    and field (the interpolant).
    """
    if rule is None:
        rule = ANALYTIC_RULE
    rows = []
    prev = None
    for space in spaces:
        h, _ = mesh_metrics(space.mesh)
        field, status = pi_n(v, space, rule)
        err_linf, err_ginf, err_h1 = _w1inf_errors(field, v, rule)
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
            "e_norm": fem.h1_seminorm(field) + linf_estimate(field, rule),
            "observed_order": order,
            "field": field,
        })
        prev = (h, err_w1inf)
    return rows
