"""Reference forms that only the tests use.

``l2_inner`` evaluates fields at the points of a triangle rule and sums
cell by cell, independently of the assembled matrices the scheme applies;
``assemble_convection_unsplit`` is the other side of the identity the
skew-symmetric convection form satisfies, and ``convection_blocks_einsum``
its one-sided element blocks from the physical basis gradients;
``mms_forcing_expanded`` is the manufactured forcing written term by
term; ``assemble_grad_coupling_coo`` builds the gradient coupling from its
triplets, without an element pattern; ``edge_bubble_residuals_by_edge``
checks the edge-bubble lemmas one bubble at a time over the whole mesh.
``eval_basis``, ``patch_stats``, ``check_divergence_free`` and
``check_support`` evaluate a basis, an edge patch or an analytic field at
single points.
"""

import numpy as np

from projnav.fem import (DEFAULT_RULE, FieldP2Vector, SpaceP1,
                         _cell_geometry, _convection_oneside, _tables,
                         div_moments, p1_reference_values,
                         p2_reference_dlambda, p2_reference_values,
                         p2_values_at)
from projnav.interp import edge_bubble
from projnav.mesh import MeshError
from projnav.sparse import CsrMatrix


def p1_values_at(field, rule=DEFAULT_RULE):
    """(nc, nq) values of a P1 scalar field at the rule points of each cell."""
    mesh = field.space.mesh
    t = _tables(mesh, rule)
    local = field.coeffs[mesh.cells]                # (nc, 3)
    return np.einsum("ca,aq->cq", local, t.p1val)


def l2_inner(field_a, field_b, rule=DEFAULT_RULE):
    """L2 inner product of two P2 vector fields or two P1 scalar fields."""
    if field_a.space.mesh is not field_b.space.mesh:
        raise ValueError("fields live on different meshes")
    mesh = field_a.space.mesh
    t = _tables(mesh, rule)
    if isinstance(field_a, FieldP2Vector):
        va = p2_values_at(field_a, rule)
        vb = p2_values_at(field_b, rule)
        cell = np.einsum("q,cqx,cqx->c", t.weights, va, vb)
    else:
        va = p1_values_at(field_a, rule=rule)
        vb = p1_values_at(field_b, rule=rule)
        cell = np.einsum("q,cq,cq->c", t.weights, va, vb)
    return float(cell @ mesh.cell_areas)


def convection_blocks_einsum(space, wind):
    """``fem._convection_oneside`` contracted against the stored physical
    P2 gradients, quadrature point by quadrature point."""
    mesh = space.mesh
    t = _tables(mesh, DEFAULT_RULE)
    wq = t.p2val.T @ wind.coeffs[space.gdof]                  # (nc, nq, 2)
    adv = np.einsum("cqx,cbqx->cqb", wq, t.p2grad)            # (nc, nq, 6)
    elem = t.p2val_w @ adv
    elem *= mesh.cell_areas[:, None, None]
    return elem


def mms_forcing_expanded(points, t):
    """``mms.forcing`` from u*, its partial derivatives and the powers of
    the one-dimensional profile g(s) = s^2 (1 - s)^2, term by term."""
    p = np.asarray(points, dtype=float)
    x, y = p[..., 0], p[..., 1]
    s, c = np.sin(t), np.cos(t)

    def g(z):
        return z * z * (1.0 - z) ** 2

    def dg(z):
        return 2.0 * z - 6.0 * z ** 2 + 4.0 * z ** 3

    def d2g(z):
        return 2.0 - 12.0 * z + 12.0 * z ** 2

    def d3g(z):
        return -12.0 + 24.0 * z

    gx, gy = g(x), g(y)
    dgx, dgy = dg(x), dg(y)
    d2gx, d2gy = d2g(x), d2g(y)
    d3gx, d3gy = d3g(x), d3g(y)

    u1 = s * gx * dgy
    u2 = -s * dgx * gy
    du1dx = s * dgx * dgy
    du1dy = s * gx * d2gy
    du2dx = -s * d2gx * gy
    du2dy = -s * dgx * dgy

    f1 = (c * gx * dgy
          + u1 * du1dx + u2 * du1dy
          - s * (d2gx * dgy + gx * d3gy)
          + s)
    f2 = (-c * dgx * gy
          + u1 * du2dx + u2 * du2dy
          + s * (d3gx * gy + dgx * d2gy))
    return np.stack([f1, f2], axis=-1)


def assemble_convection_unsplit(space, wind):
    """The right-hand form of the convection identity:
    ((wind . grad) phi_j, phi_i) + (1/2) (div wind phi_j, phi_i).

    Cross-checks the half-difference form against the identity it
    satisfies for exact integration.
    """
    mesh = space.mesh
    t = _tables(mesh, DEFAULT_RULE)
    elem = _convection_oneside(space, wind)
    divw = np.einsum("cax,caqx->cq", wind.coeffs[space.gdof], t.p2grad)
    elem2 = np.einsum("q,cq,bq,aq->cab", t.weights, divw, t.p2val, t.p2val)
    elem = elem + 0.5 * elem2 * mesh.cell_areas[:, None, None]
    return space.pattern.assemble(elem)


def assemble_grad_coupling_coo(space2, space1):
    """``fem.assemble_grad_coupling`` from one (row, col, value) triplet per
    element entry, component by component, summed by
    ``CsrMatrix.from_coo``."""
    mesh = space2.mesh
    t = _tables(mesh, DEFAULT_RULE)
    ints = np.einsum("q,aq->a", t.weights, t.p2val)
    elem = np.einsum("c,a,cix->caix", mesh.cell_areas, ints, t.p1grad)
    n2 = space2.n_scalar
    gdof = space2.gdof
    rows, cols, vals = [], [], []
    for x in range(2):
        rows.append((gdof[:, :, None] + x * n2).repeat(3, axis=2).ravel())
        cols.append(np.broadcast_to(mesh.cells[:, None, :],
                                    gdof.shape + (3,)).ravel())
        vals.append(elem[:, :, :, x].ravel())
    return CsrMatrix.from_coo(np.concatenate(rows), np.concatenate(cols),
                              np.concatenate(vals), (2 * n2, space1.ndof))


def edge_bubble_residuals_by_edge(space):
    """The edge-bubble lemma residuals of ``interp.edge_bubble_residuals``,
    from one full-mesh ``div_moments`` per edge and dense comparisons."""
    mesh = space.mesh
    space1 = SpaceP1(mesh)
    report = {"bij": 0.0, "antisymmetry": 0.0}
    for e in range(mesh.n_edges):
        i, j = mesh.edges[e]
        b = edge_bubble(space, (i, j))
        moments = div_moments(b, space1)
        expected = np.zeros(space1.ndof)
        expected[i] = 1.0
        expected[j] = -1.0
        report["bij"] = max(report["bij"],
                            float(np.abs(moments - expected).max()))
        b_rev = edge_bubble(space, (j, i))
        report["antisymmetry"] = max(
            report["antisymmetry"],
            float(np.abs(b.coeffs + b_rev.coeffs).max()))
    return report


def eval_basis(space, cell, bary):
    """Values and physical gradients of the local basis at one barycentric
    point: 3 of each for a P1 space, 6 for a P2 space."""
    bary = np.asarray(bary, dtype=float).reshape(1, 3)
    if np.any(bary < -1e-12) or abs(bary.sum() - 1.0) > 1e-12:
        raise ValueError("barycentric point outside the reference triangle")
    gl = _cell_geometry(space.mesh)[cell]
    if isinstance(space, SpaceP1):
        return p1_reference_values(bary)[:, 0], gl.copy()
    dlam = p2_reference_dlambda(bary)[:, 0, :]
    return p2_reference_values(bary)[:, 0], dlam @ gl


def patch_stats(mesh, edge):
    """(card, area, diameter) of the patch of cells sharing the given edge."""
    if not 0 <= edge < mesh.n_edges:
        raise MeshError(f"edge index {edge} out of range")
    cells = mesh.edge_cells[edge]
    pts = mesh.vertices[np.unique(mesh.cells[cells])]
    diff = pts[:, None, :] - pts[None, :, :]
    diam = float(np.sqrt((diff ** 2).sum(axis=2)).max())
    return len(cells), float(mesh.edge_patch_area[edge]), diam


def check_divergence_free(field, points, tol=1e-12):
    """Whether the trace of an ``AnalyticVectorField``'s gradient vanishes
    at ``points``, relative to the largest gradient entry (at least 1)."""
    g = np.asarray(field.gradient(points))
    tr = g[:, 0, 0] + g[:, 1, 1]
    scale = max(1.0, float(np.abs(g).max()))
    return float(np.abs(tr).max()) <= tol * scale


def check_support(field, points, tol=0.0):
    """Whether an ``AnalyticVectorField`` vanishes (to ``tol``) at the
    ``points`` outside its support box; True without a box."""
    if field.support is None:
        return True
    xmin, xmax, ymin, ymax = field.support
    pts = np.asarray(points)
    outside = ((pts[:, 0] < xmin) | (pts[:, 0] > xmax)
               | (pts[:, 1] < ymin) | (pts[:, 1] > ymax))
    if not outside.any():
        return True
    vals = np.asarray(field.value(pts[outside]))
    return float(np.abs(vals).max()) <= tol
