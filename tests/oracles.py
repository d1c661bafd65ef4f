"""Reference forms that only the tests use.

``l2_inner`` evaluates fields at the points of a triangle rule and sums
cell by cell, independently of the assembled matrices the scheme applies;
``assemble_convection_unsplit`` is the other side of the identity the
skew-symmetric convection form satisfies.  ``p2_gradient_table`` is the
per-cell table of physical P2 basis gradients that ``fem`` evaluates
through reference tables instead; ``p2_gradients_einsum``,
``stiffness_blocks_einsum``, ``cell_div_moments_einsum`` and
``convection_blocks_einsum`` contract it against the coefficients.
``mms_forcing_expanded``, ``mms_velocity_expanded`` and
``mms_velocity_gradient_expanded`` write the manufactured fields term by
term in the powers of g(s) = s^2 (1 - s)^2; ``b3_pow`` is the cubic
B-spline and its derivatives in powers of t, piece by piece.  ``assemble_grad_coupling_coo`` builds the gradient
coupling from its triplets, without an element pattern;
``element_pattern_unique`` builds the maps of ``fem.ElementPattern`` from
``np.unique`` over the entry keys, as the pattern did before its one
stable sort;
``from_coo_rows_cols`` and ``spgemm_chunked`` are the earlier
``CsrMatrix.from_coo`` and ``sparse._spgemm``: a stable sort that permutes
row and column copies, and products expanded in row chunks of ``a``.
``edge_bubble_residuals_by_edge`` checks the edge-bubble lemmas one
bubble at a time over the whole mesh.  ``edge_numbering_unique_rows``
numbers a mesh's edges as rows of ``np.unique(axis=0)``;
``piddiv_gaps_by_field`` runs the divergence-preservation trials one
field at a time; ``sample_points`` forms the per-cell sample points of the
interpolation study from the cell corners, and ``linf_estimate`` is the
largest field magnitude over the study's samples on every cell.
``eval_basis``, ``patch_stats``, ``check_divergence_free`` and
``check_support`` evaluate a basis, an edge patch or an analytic field at
single points.  ``l2l2_velocity_error_reduce``,
``mms_velocity_stacked``, ``write_vtk_fields_each_block`` and
``time_translate_cuts`` are the earlier forms of
``scheme.l2l2_velocity_error``, ``mms.velocity``, ``vtk.write_vtk_fields``
and ``time_translate_diagnostic`` below: fancy-index gathers, a length-2
``sum`` reduce, all four of g, g', g'', g''' with ``np.stack``, every
block formatted in full, and one term per interval between the points
where t or t + tau crosses the time grid.  ``diagnostics_csv_writer``,
``mms_csv_fstring`` and ``interp_study_csv_fstring`` are the writers of
``diagnostics.csv``, ``mms.csv`` and ``interp_study.csv`` that
``scheme.csv_text`` replaced: a ``csv.writer`` and one f-string per row.
``gap_l2l2``, ``time_translate_diagnostic`` and ``hierarchy_sizes`` are
run and hierarchy summaries that only the tests read.
``moment_vector_fresh``, ``composite_norm_sq_fresh`` and
``step_audit_fresh`` are the scheme's right-hand side moments, composite
norm and energy audit with every product formed afresh, as they were
before each state carried the products of its velocity.
"""

import csv
import io

import numpy as np

from projnav.fem import (CompositeVelocity, DEFAULT_RULE, FieldP2Vector,
                         SpaceP1,
                         _cell_geometry, _convection_oneside, _tables,
                         div_moments, p1_reference_values,
                         p2_reference_dlambda, p2_reference_values,
                         p2_values_at)
from projnav.interp import ANALYTIC_RULE, divergence_correct, edge_bubble
from projnav.mesh import MeshError
from projnav.mms import _g_derivatives
from projnav.quadrature import gauss_legendre_01
from projnav.scheme import DIAGNOSTICS_HEADER, StepDiagnostics
from projnav.sparse import CsrMatrix
from projnav.vtk import _SUBTRIANGLES, _centroid_bary, _lines, _write


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


def p2_gradient_table(mesh, rule=DEFAULT_RULE):
    """(nc, 6, nq, 2) physical gradients of the P2 basis at the rule
    points of every cell."""
    dlam = p2_reference_dlambda(rule.points)                  # (6, nq, 3)
    return np.einsum("aqi,cix->caqx", dlam, _cell_geometry(mesh))


def p2_gradients_einsum(field, rule=DEFAULT_RULE):
    """``fem.p2_gradients_at`` contracted against ``p2_gradient_table``."""
    local = field.coeffs[field.space.gdof]
    return np.einsum("cax,caqj->cqxj", local,
                     p2_gradient_table(field.space.mesh, rule))


def stiffness_blocks_einsum(space):
    """The symmetrized, area-scaled element blocks of
    ``fem.assemble_stiffness_p2``, quadrature point by quadrature point."""
    mesh = space.mesh
    g = p2_gradient_table(mesh)
    elem = np.einsum("q,caqx,cbqx->cab", DEFAULT_RULE.weights, g, g)
    elem = 0.5 * (elem + elem.transpose(0, 2, 1))
    return elem * mesh.cell_areas[:, None, None]


def cell_div_moments_einsum(mesh, local, cells=slice(None)):
    """``fem.cell_div_moments`` contracted against ``p2_gradient_table``."""
    t = _tables(mesh, DEFAULT_RULE)
    divu = np.einsum("cax,caqx->cq", local, p2_gradient_table(mesh)[cells])
    return np.einsum("c,q,cq,aq->ca", mesh.cell_areas[cells], t.weights,
                     divu, t.p1val)


def convection_blocks_einsum(space, wind):
    """``fem._convection_oneside`` contracted against the physical P2
    gradients, quadrature point by quadrature point."""
    mesh = space.mesh
    t = _tables(mesh, DEFAULT_RULE)
    wq = t.p2val.T @ wind.coeffs[space.gdof]                  # (nc, nq, 2)
    adv = np.einsum("cqx,cbqx->cqb", wq, p2_gradient_table(mesh))
    elem = t.p2val_w @ adv
    elem *= mesh.cell_areas[:, None, None]
    return elem


def _g(z):
    return z * z * (1.0 - z) ** 2


def _dg(z):
    return 2.0 * z - 6.0 * z ** 2 + 4.0 * z ** 3


def _d2g(z):
    return 2.0 - 12.0 * z + 12.0 * z ** 2


def _d3g(z):
    return -12.0 + 24.0 * z


def mms_velocity_expanded(points, t):
    """``mms.velocity`` from the powers of g."""
    p = np.asarray(points, dtype=float)
    x, y = p[..., 0], p[..., 1]
    s = np.sin(t)
    return np.stack([s * _g(x) * _dg(y), -s * _dg(x) * _g(y)], axis=-1)


def mms_velocity_gradient_expanded(points, t):
    """``mms.velocity_gradient`` from the powers of g."""
    p = np.asarray(points, dtype=float)
    x, y = p[..., 0], p[..., 1]
    s = np.sin(t)
    out = np.empty(p.shape[:-1] + (2, 2))
    out[..., 0, 0] = s * _dg(x) * _dg(y)
    out[..., 0, 1] = s * _g(x) * _d2g(y)
    out[..., 1, 0] = -s * _d2g(x) * _g(y)
    out[..., 1, 1] = -s * _dg(x) * _dg(y)
    return out


def mms_forcing_expanded(points, t):
    """``mms.forcing`` from u*, its partial derivatives and the powers of
    the one-dimensional profile g(s) = s^2 (1 - s)^2, term by term."""
    p = np.asarray(points, dtype=float)
    x, y = p[..., 0], p[..., 1]
    s, c = np.sin(t), np.cos(t)
    gx, gy = _g(x), _g(y)
    dgx, dgy = _dg(x), _dg(y)
    d2gx, d2gy = _d2g(x), _d2g(y)
    d3gx, d3gy = _d3g(x), _d3g(y)

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


# the cubic B-spline on [0, 4] and its first two derivatives, piece by
# piece on [0, 1), [1, 2), [2, 3) and [3, 4], in powers of t; the integer
# constants let a piece take an exact Fraction as well as an array
B3_PIECES = (
    (lambda t: t ** 3 / 6,
     lambda t: (-3 * t ** 3 + 12 * t ** 2 - 12 * t + 4) / 6,
     lambda t: (3 * t ** 3 - 24 * t ** 2 + 60 * t - 44) / 6,
     lambda t: (4 - t) ** 3 / 6),
    (lambda t: t ** 2 / 2,
     lambda t: (-9 * t ** 2 + 24 * t - 12) / 6,
     lambda t: (9 * t ** 2 - 48 * t + 60) / 6,
     lambda t: -(4 - t) ** 2 / 2),
    (lambda t: t,
     lambda t: 4 - 3 * t,
     lambda t: 3 * t - 8,
     lambda t: 4 - t),
)


def b3_pow(t, derivative=0):
    """The cubic B-spline on [0, 4] (or its first or second derivative)
    from ``B3_PIECES``, every piece evaluated at every point."""
    t = np.asarray(t, dtype=float)
    return np.select(
        [(t >= 0) & (t < 1), (t >= 1) & (t < 2), (t >= 2) & (t < 3),
         (t >= 3) & (t <= 4)],
        [piece(t) for piece in B3_PIECES[derivative]], 0.0)


def assemble_convection_unsplit(space, wind):
    """The right-hand form of the convection identity:
    ((wind . grad) phi_j, phi_i) + (1/2) (div wind phi_j, phi_i).

    Cross-checks the half-difference form against the identity it
    satisfies for exact integration.
    """
    mesh = space.mesh
    t = _tables(mesh, DEFAULT_RULE)
    elem = _convection_oneside(space, wind)
    divw = np.einsum("cax,caqx->cq", wind.coeffs[space.gdof],
                     p2_gradient_table(mesh))
    elem2 = np.einsum("q,cq,bq,aq->cab", t.weights, divw, t.p2val, t.p2val)
    elem = elem + 0.5 * elem2 * mesh.cell_areas[:, None, None]
    return space.pattern.assemble(elem)


def element_pattern_unique(rows, cols, shape):
    """(indptr, indices, first, slot) of ``fem.ElementPattern(rows, cols,
    shape)`` from ``np.unique(return_index=True, return_inverse=True)``;
    ``slot`` is flat, in ``elem.ravel()`` order."""
    nrows, ncols = shape
    keys, first, slot = np.unique(
        rows[:, :, None] * ncols + cols[:, None, :],
        return_index=True, return_inverse=True)
    indptr = np.searchsorted(keys, ncols * np.arange(nrows + 1))
    return indptr, keys % ncols, first, slot.reshape(-1)


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


def from_coo_rows_cols(rows, cols, vals, shape):
    """``CsrMatrix.from_coo``: row and column copies permuted by a stable
    sort of the keys, duplicates found by comparing both, and the rows
    counted with ``bincount``."""
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    vals = np.asarray(vals, dtype=float)
    order = np.argsort(rows * shape[1] + cols, kind="stable")
    rows, cols, vals = rows[order], cols[order], vals[order]
    if len(rows):
        new = np.empty(len(rows), dtype=bool)
        new[0] = True
        new[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
        starts = np.where(new)[0]
        vals = np.add.reduceat(vals, starts)
        rows, cols = rows[starts], cols[starts]
    indptr = np.zeros(shape[0] + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=shape[0]), out=indptr[1:])
    return CsrMatrix(indptr, cols, vals, shape)


def spgemm_chunked(a, b, chunk):
    """a @ b expanded as COO products in row chunks of ``a`` of about
    ``chunk`` products; ``from_coo_rows_cols`` sums each chunk's
    duplicates, and the chunks are stitched together."""
    rows = a.row_indices()
    blen = np.diff(b.indptr)[a.indices]
    cum = np.zeros(a.shape[0] + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, weights=blen, minlength=a.shape[0])
              .astype(np.int64), out=cum[1:])
    cuts = np.concatenate([
        [0], np.searchsorted(cum, np.arange(chunk, cum[-1], chunk)),
        [a.shape[0]]])
    indptr = [np.zeros(1, dtype=np.int64)]
    indices, data = [], []
    for r0, r1 in zip(cuts[:-1], cuts[1:]):
        if r1 == r0:
            continue
        e0, e1 = a.indptr[r0], a.indptr[r1]
        length = blen[e0:e1]
        ends = np.cumsum(length)
        pos = (np.repeat(b.indptr[a.indices[e0:e1]] - ends + length, length)
               + np.arange(ends[-1] if len(ends) else 0))
        part = from_coo_rows_cols(
            np.repeat(rows[e0:e1] - r0, length), b.indices[pos],
            np.repeat(a.data[e0:e1], length) * b.data[pos],
            (r1 - r0, b.shape[1]))
        indptr.append(part.indptr[1:] + indptr[-1][-1])
        indices.append(part.indices)
        data.append(part.data)
    return CsrMatrix(np.concatenate(indptr), np.concatenate(indices or [[]]),
                     np.concatenate(data or [[]]), (a.shape[0], b.shape[1]))


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


def edge_numbering_unique_rows(mesh):
    """edges, cell_edges, boundary_edges and edge_patch_area of ``mesh``
    with the edges numbered as the rows of ``np.unique(axis=0)`` over the
    sorted vertex pairs of every cell's three edges."""
    cells = mesh.cells
    raw = np.concatenate([cells[:, [1, 2]], cells[:, [0, 2]],
                          cells[:, [0, 1]]])
    raw.sort(axis=1)
    edges, inverse = np.unique(raw, axis=0, return_inverse=True)
    inverse = inverse.ravel()
    cell_edges = inverse.reshape(3, len(cells)).T.copy()
    area = np.zeros(len(edges))
    np.add.at(area, cell_edges.ravel(), np.repeat(mesh.cell_areas, 3))
    return {"edges": edges, "cell_edges": cell_edges,
            "boundary_edges": np.flatnonzero(np.bincount(inverse) == 1),
            "edge_patch_area": area}


def piddiv_gaps_by_field(space2, rng, count):
    """(count, nv) gaps div_moments(divergence_correct(w)) - div_moments(w)
    of ``count`` random interior fields w, drawn and corrected one at a
    time."""
    space1 = SpaceP1(space2.mesh)
    gaps = []
    for _ in range(count):
        field = FieldP2Vector(space2)
        field.coeffs[space2.interior_dofs] = rng.standard_normal(
            (len(space2.interior_dofs), 2))
        corrected = divergence_correct(field, space2)
        gaps.append(div_moments(corrected, space1)
                    - div_moments(field, space1))
    return np.array(gaps)


def sample_points(mesh):
    """(nc, nq+6, 2) per-cell sample points: the ANALYTIC_RULE points, the
    corners, then the midpoints opposite local vertices 0, 1, 2 formed
    from the corners."""
    t = _tables(mesh, ANALYTIC_RULE)
    corners = mesh.vertices[mesh.cells]
    mids = 0.5 * (np.roll(corners, -1, axis=1) + np.roll(corners, -2, axis=1))
    return np.concatenate([t.points, corners, mids], axis=1)


def linf_estimate(field):
    """Max Euclidean magnitude of a P2 vector field over the ANALYTIC_RULE
    points and the six nodes of every cell, with a length-2 ``sum``."""
    vals = np.concatenate([p2_values_at(field, ANALYTIC_RULE),
                           field.space.local(field.coeffs)], axis=1)
    return float(np.sqrt((vals ** 2).sum(axis=-1)).max())


def l2l2_velocity_error_reduce(result, exact, which="u"):
    """``scheme.l2l2_velocity_error`` with fancy-index gathers and the
    squared difference summed by ``.sum(axis=2)``."""
    mesh = result.ops.space2.mesh
    t = _tables(mesh, DEFAULT_RULE)
    pts = t.points.reshape(-1, 2)
    tg, wg = gauss_legendre_01(3)
    total = 0.0
    for n in range(result.config.n_steps):
        if which == "u":
            u = result.u_history[n]
            vals = t.p2val.T @ u.p2_part.coeffs[u.p2_part.space.gdof]
            vals = vals - u.scale * u.grad_part_cell_gradients()[:, None, :]
        else:
            ut = result.u_history[n + 1].p2_part
            vals = t.p2val.T @ ut.coeffs[ut.space.gdof]
        for g in range(3):
            tau = (n + tg[g]) * result.dt
            diff = vals - np.asarray(exact(pts, tau)).reshape(vals.shape)
            cell = (diff * diff).sum(axis=2) @ t.weights
            total += result.dt * wg[g] * float(cell @ mesh.cell_areas)
    return float(np.sqrt(total))


def time_translate_cuts(result, tau):
    """``time_translate_diagnostic`` summed over the intervals on
    which the integrand is constant: those between the points where t or
    t + tau crosses the time grid."""
    dt, n = result.dt, result.config.n_steps
    ut = [u.p2_part.coeffs for u in result.u_history[1:]]
    cuts = np.concatenate([dt * np.arange(n + 1), dt * np.arange(n + 1) - tau])
    cuts = np.unique(np.clip(cuts, 0.0, result.config.t_final - tau))
    total = 0.0
    for a, b in zip(cuts[:-1], cuts[1:]):
        mid = 0.5 * (a + b)
        i = min(int(mid / dt), n - 1)
        j = min(int((mid + tau) / dt), n - 1)
        total += (b - a) * result.ops.l2_norm_sq_p2(ut[j] - ut[i])
    return float(total)


def mms_velocity_stacked(points, t):
    """``mms.velocity`` through all four of ``_g_derivatives`` and
    ``np.stack``."""
    p = np.asarray(points, dtype=float)
    gx, dgx, _, _ = _g_derivatives(p[..., 0])
    gy, dgy, _, _ = _g_derivatives(p[..., 1])
    s = np.sin(t)
    return np.stack([s * gx * dgy, -s * dgx * gy], axis=-1)


def write_vtk_fields_each_block(path, space2, u_tilde=None, u=None,
                                pressure=None):
    """``vtk.write_vtk_fields`` formatting every block in full: each point
    vector block, and the grad_part rows repeated four times."""
    mesh = space2.mesh
    points = space2.node_coordinates()
    gdof = space2.gdof
    nsub = 4 * mesh.n_cells
    with open(path, "w") as fh:
        _write(fh, "# vtk DataFile Version 2.0", "projnav fields", "ASCII",
               "DATASET UNSTRUCTURED_GRID", f"POINTS {len(points)} double",
               _lines("%.17g %.17g 0", points))
        _write(fh, f"CELLS {nsub} {4 * nsub}",
               _lines("3 %d %d %d", gdof[:, _SUBTRIANGLES].reshape(-1, 3)))
        _write(fh, f"CELL_TYPES {nsub}", "\n".join(["5"] * nsub))
        point_blocks = []
        if u_tilde is not None:
            point_blocks.append(("u_tilde", u_tilde.coeffs))
        if u is not None:
            point_blocks.append(("u_p2_part", u.p2_part.coeffs))
        if pressure is not None:
            vals = np.empty(space2.n_scalar)
            vals[:mesh.n_vertices] = pressure.coeffs
            vals[mesh.n_vertices:] = 0.5 * (
                pressure.coeffs[mesh.edges[:, 0]]
                + pressure.coeffs[mesh.edges[:, 1]])
            point_blocks.append(("pressure", vals))
        if point_blocks:
            _write(fh, f"POINT_DATA {len(points)}")
            for name, data in point_blocks:
                if data.ndim == 2:
                    _write(fh, f"VECTORS {name} double",
                           _lines("%.17g %.17g 0", data))
                else:
                    _write(fh, f"SCALARS {name} double 1",
                           "LOOKUP_TABLE default",
                           _lines("%.17g", data[:, None]))
        if u is not None:
            grads = u.grad_part_cell_gradients()
            p2v = p2_reference_values(_centroid_bary())
            centers = np.einsum("cax,as->csx", u.p2_part.coeffs[gdof], p2v)
            _write(fh, f"CELL_DATA {nsub}", "VECTORS grad_part double",
                   _lines("%.17g %.17g 0",
                          np.repeat(-u.scale * grads, 4, axis=0)))
            corrected = centers - u.scale * grads[:, None, :]
            _write(fh, "VECTORS u_corrected double",
                   _lines("%.17g %.17g 0", corrected.reshape(-1, 2)))


def diagnostics_csv_writer(diagnostics):
    """``scheme.diagnostics_csv`` through ``csv.writer``."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(DIAGNOSTICS_HEADER)
    for d in diagnostics:
        n, t, *rest = d.row()
        writer.writerow([n, f"{t:.17g}"] + [f"{v:.17g}" if isinstance(v, float)
                                            else str(v) for v in rest])
    return buf.getvalue()


def mms_csv_fstring(rows):
    """``mms.csv`` of the rows of ``cli.cmd_mms``, one f-string per row."""
    text = "n,h,N,dt,err_u,err_ut,order_u\n"
    for r in rows:
        text += (f"{r['n']},{r['h']:.17g},{r['N']},{r['dt']:.17g},"
                 f"{r['err_u']:.17g},{r['err_ut']:.17g},{r['order_u']:.17g}\n")
    return text


def interp_study_csv_fstring(rows):
    """``interp_study.csv`` of ``pi_n_convergence_study`` rows, one
    f-string per row."""
    text = "n,h,status,err_linf,err_w1inf,err_h1,e_norm,observed_order\n"
    for r in rows:
        text += (f"{r['n']},{r['h']:.17g},{r['status']},"
                 f"{r['err_linf']:.17g},{r['err_w1inf']:.17g},"
                 f"{r['err_h1']:.17g},{r['e_norm']:.17g},"
                 f"{r['observed_order']:.17g}\n")
    return text


def gap_l2l2(result):
    """|u_N - ut_N| in L2(0,T;L2): both reconstructions are piecewise
    constant in time, u_N from the left value and ut_N from the right one,
    so the squared gap is dt * sum of the per-step gap norms."""
    dt = result.dt
    return float(np.sqrt(sum(dt * d.gap_l2 ** 2 for d in result.diagnostics)))


def time_translate_diagnostic(result, tau):
    """integral_0^{T-tau} |ut_N(t+tau) - ut_N(t)|^2 dt, exactly.

    With tau = (k + theta) dt, 0 <= theta < 1, and ut_i the prediction
    of step i + 1, the piecewise constant ut_N makes the integral
    dt [(1 - theta) sum_{i<N-k} |ut_{i+k} - ut_i|^2
        + theta sum_{i<N-k-1} |ut_{i+k+1} - ut_i|^2].
    """
    config = result.config
    if not 0.0 < tau < config.t_final:
        raise ValueError("tau must lie strictly between 0 and the final time")
    if not result.u_history:
        raise ValueError("run must store fields for the translate diagnostic")
    dt, n = result.dt, config.n_steps
    k, theta = divmod(tau / dt, 1.0)
    ut = [u.p2_part.coeffs for u in result.u_history[1:]]

    def shifted(m):
        return sum(result.ops.l2_norm_sq_p2(ut[i + m] - ut[i])
                   for i in range(n - m))

    return float(dt * ((1.0 - theta) * shifted(int(k))
                       + theta * shifted(int(k) + 1)))


def hierarchy_sizes(hierarchy):
    """Unknowns per level of a ``SmoothedAggregation``, finest first."""
    return ([r.shape[1] for r in hierarchy.restrict]
            + [len(hierarchy.coarse_inverse)])


def _componentwise_fresh(mat, coeffs):
    return (coeffs[:, 0] @ mat.matvec(coeffs[:, 0])
            + coeffs[:, 1] @ mat.matvec(coeffs[:, 1]))


def composite_norm_sq_fresh(ops, u):
    """|a - s grad g|^2 of a composite velocity, each product formed
    here."""
    s = u.scale
    g = u.grad_part.coeffs
    cross = u.p2_part.flat() @ ops.grad.matvec(g)
    return (_componentwise_fresh(ops.mass, u.p2_part.coeffs)
            - 2.0 * s * cross + s * s * (g @ ops.lap.matvec(g)))


def moment_vector_fresh(ops, u):
    """(u, phi_i e_x), (u, phi_i e_y) of a composite velocity, component
    blocked, each product formed here."""
    c = u.p2_part.coeffs
    out = np.concatenate([ops.mass.matvec(c[:, 0]), ops.mass.matvec(c[:, 1])])
    return out - u.scale * ops.grad.matvec(u.grad_part.coeffs)


def step_audit_fresh(ops, prev, new, load, dt):
    """The diagnostics of the step from state ``prev`` to state ``new``
    under ``load``, with the formulas of ``scheme.step`` and every product
    formed here: a ``StepDiagnostics`` with the iteration counts zero."""
    ut = new.u_tilde
    gap = CompositeVelocity(
        FieldP2Vector(ops.space2, ut.coeffs - prev.u.p2_part.coeffs),
        prev.u.grad_part, -prev.u.scale)
    u_sq = composite_norm_sq_fresh(ops, new.u)
    gradp_sq = float(new.p.coeffs @ ops.lap.matvec(new.p.coeffs))
    gap_sq = composite_norm_sq_fresh(ops, gap)
    ut_h1_sq = _componentwise_fresh(ops.stiffness, ut.coeffs)
    work = float(load @ ut.flat())
    lhs = ((u_sq - prev.u_sq) / (2.0 * dt)
           + dt * (gradp_sq - prev.gradp_sq) / 2.0
           + gap_sq / (2.0 * dt) + ut_h1_sq)
    return StepDiagnostics(
        n=new.n, t=new.t,
        energy_residual=abs(lhs - work) / max(1.0, abs(work)),
        u_l2=float(np.sqrt(max(u_sq, 0.0))),
        ut_l2=float(np.sqrt(max(_componentwise_fresh(ops.mass, ut.coeffs),
                                0.0))),
        ut_h1=float(np.sqrt(max(ut_h1_sq, 0.0))),
        gradp_l2=float(np.sqrt(max(gradp_sq, 0.0))),
        gap_l2=float(np.sqrt(max(gap_sq, 0.0))), pred_iters=0, corr_iters=0)
