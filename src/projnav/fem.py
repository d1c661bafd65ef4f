"""Taylor-Hood spaces on triangles and assembly of every form the scheme uses.

Velocity: continuous piecewise quadratics, vector valued, with scalar dofs
at vertices and edge midpoints (vertex dofs first, then edge dofs).
Pressure: continuous piecewise affines at vertices, with an optional zero
mean constraint enforced through the nodal integration weights.

All operators acting on a single velocity component (mass, stiffness,
convection) are assembled as scalar matrices and applied per component;
the pressure-gradient coupling stacks the two component blocks.
One degree-5 rule integrates every form of the time scheme exactly
(the worst integrand, wind times gradient times test function, has
degree 5).
"""

from functools import cached_property

import numpy as np

from .quadrature import gauss_legendre_01, triangle_rule
from .sparse import CsrMatrix

__all__ = [
    "SpaceP1", "SpaceP2Vector",
    "FieldP1Scalar", "FieldP2Vector", "CompositeVelocity",
    "DEFAULT_RULE",
    "assemble_mass_p2", "assemble_stiffness_p2", "assemble_convection",
    "assemble_grad_coupling", "assemble_pressure_laplacian",
    "assemble_mass_p1", "assemble_load",
    "h1_seminorm", "weak_div_moments", "cell_div_moments", "div_moments",
    "p2_values_at", "p2_gradients_at",
]

DEFAULT_RULE = triangle_rule(5)


# ---------------------------------------------------------------------------
# reference bases

def p1_reference_values(bary):
    """P1 values at barycentric points: identity, shape (3, nq)."""
    return np.asarray(bary, dtype=float).T.copy()


def p2_reference_values(bary):
    """P2 nodal values at barycentric points, shape (6, nq).

    Local numbering: 0..2 vertices, 3+l midpoint of the edge opposite
    vertex l.
    """
    lam = np.asarray(bary, dtype=float).T  # (3, nq)
    out = np.empty((6, len(lam[0])))
    for i in range(3):
        out[i] = lam[i] * (2.0 * lam[i] - 1.0)
    pairs = ((1, 2), (0, 2), (0, 1))
    for l, (a, b) in enumerate(pairs):
        out[3 + l] = 4.0 * lam[a] * lam[b]
    return out


def p2_reference_dlambda(bary):
    """Derivatives of the P2 basis w.r.t. the barycentric coordinates, (6, nq, 3)."""
    lam = np.asarray(bary, dtype=float).T
    nq = lam.shape[1]
    out = np.zeros((6, nq, 3))
    for i in range(3):
        out[i, :, i] = 4.0 * lam[i] - 1.0
    pairs = ((1, 2), (0, 2), (0, 1))
    for l, (a, b) in enumerate(pairs):
        out[3 + l, :, a] = 4.0 * lam[b]
        out[3 + l, :, b] = 4.0 * lam[a]
    return out


def _cell_geometry(mesh):
    """Per-cell P1 hat gradients (nc, 3, 2); ``_tables(mesh,
    DEFAULT_RULE).p1grad`` is the copy every rule's tables share."""
    p0 = mesh.vertices[mesh.cells[:, 0]]
    p1 = mesh.vertices[mesh.cells[:, 1]]
    p2 = mesh.vertices[mesh.cells[:, 2]]
    det = 2.0 * mesh.cell_areas
    grads = np.empty((mesh.n_cells, 3, 2))
    # rows of the inverse Jacobian of x = p0 + [p1-p0, p2-p0] (xi, eta)
    grads[:, 1, 0] = (p2[:, 1] - p0[:, 1]) / det
    grads[:, 1, 1] = -(p2[:, 0] - p0[:, 0]) / det
    grads[:, 2, 0] = -(p1[:, 1] - p0[:, 1]) / det
    grads[:, 2, 1] = (p1[:, 0] - p0[:, 0]) / det
    grads[:, 0] = -grads[:, 1] - grads[:, 2]
    return grads


class _Tables:
    """Basis values of one mesh at the points of one rule; P2 gradients go
    through the reference tables D, S and T and the hat gradients p1grad,
    grad phi_a = sum_i d phi_a / d lambda_i grad lambda_i."""

    def __init__(self, mesh, rule):
        self.weights = rule.weights
        nq = len(self.weights)
        self.p1val = p1_reference_values(rule.points)           # (3, nq)
        self.p2val = p2_reference_values(rule.points)           # (6, nq)
        self.p2val_w = rule.weights * self.p2val                # (6, nq)
        dlam = p2_reference_dlambda(rule.points)                # (6, nq, 3)
        self.p1grad = (_cell_geometry(mesh) if rule is DEFAULT_RULE
                       else _tables(mesh, DEFAULT_RULE).p1grad)  # (nc, 3, 2)
        # D[(i, q), a] = d phi_a / d lambda_i (q)
        self.D = dlam.transpose(2, 1, 0).reshape(3 * nq, 6)
        # S[(i, j), (a, b)] = sum_q w_q d phi_a / d lambda_i d phi_b / d lambda_j
        self.S = np.einsum("q,aqi,bqj->ijab", rule.weights, dlam,
                           dlam).reshape(9, 36)
        # T[(q, i), (a, b)] = w_q phi_a(q) d phi_b / d lambda_i (q)
        self.T = np.einsum("aq,bqi->qiab", self.p2val_w,
                           dlam).reshape(3 * nq, 36)
        corners = mesh.vertices[mesh.cells]                     # (nc, 3, 2)
        self.points = rule.physical_points(corners)             # (nc, nq, 2)


def _tables(mesh, rule):
    cache = getattr(mesh, "_fem_tables", None)
    if cache is None:
        cache = {}
        mesh._fem_tables = cache
    key = (rule.degree, len(rule))
    if key not in cache:
        cache[key] = _Tables(mesh, rule)
    return cache[key]


# ---------------------------------------------------------------------------
# spaces and fields

class SpaceP1:
    """Continuous piecewise-affine scalars; one dof per vertex."""

    def __init__(self, mesh, zero_mean=False):
        self.mesh = mesh
        self.zero_mean = zero_mean
        self.ndof = mesh.n_vertices

    @cached_property
    def pattern(self):
        return ElementPattern(self.mesh.cells, self.mesh.cells,
                              (self.ndof, self.ndof))

    def mass_row_weights(self):
        """Integration weight of each nodal basis function, sum = |Omega|."""
        w = np.zeros(self.ndof)
        np.add.at(w, self.mesh.cells.ravel(),
                  np.repeat(self.mesh.cell_areas / 3.0, 3))
        return w


class SpaceP2Vector:
    """Continuous piecewise-quadratic vectors; scalar dofs at vertices then
    edge midpoints, two components per scalar dof.

    A scalar dof is interior iff its node lies strictly inside the domain:
    vertex dofs at interior vertices, midpoint dofs on non-boundary edges.
    """

    def __init__(self, mesh):
        self.mesh = mesh
        self.n_scalar = mesh.n_vertices + mesh.n_edges
        mask = np.zeros(self.n_scalar, dtype=bool)
        mask[: mesh.n_vertices][mesh.interior_vertices] = True
        mask[mesh.n_vertices:][~mesh.is_boundary_edge] = True
        self.interior_mask = mask
        self.interior_dofs = np.where(mask)[0]
        # local-to-global scalar dof map per cell, (nc, 6)
        self.gdof = np.hstack([mesh.cells, mesh.n_vertices + mesh.cell_edges])

    @cached_property
    def pattern(self):
        return ElementPattern(self.gdof, self.gdof,
                              (self.n_scalar, self.n_scalar))

    def node_coordinates(self):
        v, e = self.mesh.vertices, self.mesh.edges
        return np.vstack([v, 0.5 * (v[e[:, 0]] + v[e[:, 1]])])

    def local(self, coeffs):
        """(..., nc, 6, 2) cell-local copies of (..., n_scalar, 2) values;
        ``np.take`` gathers them several times faster than fancy indexing."""
        return np.take(coeffs, self.gdof, axis=-2)


class FieldP1Scalar:
    def __init__(self, space, coeffs=None):
        self.space = space
        if coeffs is None:
            coeffs = np.zeros(space.ndof)
        self.coeffs = np.asarray(coeffs, dtype=float)
        if self.coeffs.shape != (space.ndof,):
            raise ValueError("P1 coefficient vector has wrong length")


class FieldP2Vector:
    def __init__(self, space, coeffs=None):
        self.space = space
        if coeffs is None:
            coeffs = np.zeros((space.n_scalar, 2))
        self.coeffs = np.asarray(coeffs, dtype=float)
        if self.coeffs.shape != (space.n_scalar, 2):
            raise ValueError("P2 coefficient array must be (n_scalar, 2)")

    def flat(self):
        """Component-blocked vector [all x; all y]."""
        return np.concatenate([self.coeffs[:, 0], self.coeffs[:, 1]])

    def in_velocity_space(self):
        """True if all non-interior dofs vanish (membership in H^1_0 x P2)."""
        return not self.coeffs[~self.space.interior_mask].any()


class CompositeVelocity:
    """u = p2_part - scale * grad(grad_part); the corrected velocity.

    The gradient part is a piecewise-constant vector per cell, so u is
    discontinuous and is never collapsed onto a nodal field; every use goes
    through moments or cellwise sampling.
    """

    def __init__(self, p2_part, grad_part, scale):
        if p2_part.space.mesh is not grad_part.space.mesh:
            raise ValueError("composite parts must share a mesh")
        self.p2_part = p2_part
        self.grad_part = grad_part
        self.scale = float(scale)

    def grad_part_cell_gradients(self):
        """(nc, 2) gradient of the P1 increment on each cell."""
        mesh = self.p2_part.space.mesh
        gl = _tables(mesh, DEFAULT_RULE).p1grad
        q = self.grad_part.coeffs[mesh.cells]                   # (nc, 3)
        return np.einsum("ci,cix->cx", q, gl)

    def values_at(self):
        """(nc, nq, 2) cellwise values at the points of DEFAULT_RULE."""
        vals = p2_values_at(self.p2_part)
        g = self.grad_part_cell_gradients()             # (nc, 2)
        return vals - self.scale * g[:, None, :]


# ---------------------------------------------------------------------------
# pointwise evaluation

def p2_values_at(field, rule=DEFAULT_RULE):
    """(nc, nq, 2) values of a P2 vector field at the rule points of each cell."""
    t = _tables(field.space.mesh, rule)
    return t.p2val.T @ field.space.local(field.coeffs)


def p2_gradients_at(field, rule=DEFAULT_RULE):
    """(nc, nq, 2, 2) gradients d u_x / d x_j at the rule points."""
    t = _tables(field.space.mesh, rule)
    return _local_gradients(t, field.space.local(field.coeffs), t.p1grad)


def _local_gradients(t, local, gl):
    """(m, nq, 2, 2) gradients d u_x / d x_j at the points of ``t`` from the
    local P2 coefficients (m, 6, 2) and hat gradients (m, 3, 2) of m cells:
    two small products per cell, the second the sum over the three hats,
    so a cell's values do not depend on which other cells are passed."""
    dl = (t.D @ local).reshape(len(local), 3, -1)   # d u_x / d lambda_i
    return (dl.transpose(0, 2, 1) @ gl).reshape(len(local), -1, 2, 2)


# ---------------------------------------------------------------------------
# assembly

class ElementPattern:
    """CSR pattern of the forms over one pair of element dof maps.

    Element block k couples the row dofs ``rows[k]`` with the column dofs
    ``cols[k]``.  One stable sort of the entries' keys gives every map:
    ``slot[k, a, b]`` is the place of ``elem[k, a, b]`` in ``csr.data``,
    ``first`` the first entry of each place in ``elem.ravel()`` order, and
    ``rest``/``rest_slot`` the other entries and their places, so an
    assembly is two gathers and one ``bincount``.  For a form over one dof
    map (``rows`` is ``cols``), ``transpose`` is the permutation of the
    stored entries that maps A.data to (A^T).data.
    """

    def __init__(self, rows, cols, shape):
        nrows, ncols = shape
        # key row * ncols + col of every element entry, in elem.ravel() order
        keys = (rows[:, :, None] * ncols + cols[:, None, :]).reshape(-1)
        perm = np.argsort(keys, kind="stable")
        keys = keys[perm]
        new = np.concatenate([[True], keys[1:] != keys[:-1]])
        # int32 halves the largest arrays a space keeps
        place = np.cumsum(new, dtype=np.int32) - 1
        self.slot = np.empty(rows.shape + cols.shape[1:], dtype=np.int32)
        self.slot.reshape(-1)[perm] = place
        # index arrays, not masks: gathers through them are several times
        # faster; the other entries stay grouped by place, in elem order
        starts, rest = np.flatnonzero(new), np.flatnonzero(~new)
        self.first, self.rest = (perm[i].astype(np.int32) for i in (starts, rest))
        self.rest_slot = place[rest]
        keys = keys[starts]
        indptr = np.searchsorted(keys, ncols * np.arange(nrows + 1))
        self.csr = CsrMatrix(indptr, keys % ncols, np.zeros(len(keys)),
                             shape)

    @cached_property
    def transpose(self):
        # entry (a, b) of a block is entry (b, a) of its transpose (intp:
        # numpy converts an int32 index array on every use)
        return self.slot.transpose(0, 2, 1).reshape(-1)[self.first].astype(np.intp)

    def assemble(self, elem):
        """CSR matrix from element blocks, one per row of the dof maps."""
        # each place sums as its first entry + (the others in cell order),
        # as add.reduceat over sorted triplets does, so both give the same
        # floats (for up to 8 entries per place, where it sums in sequence)
        vals = elem.reshape(-1)
        return self.csr.with_data(vals[self.first] + np.bincount(
            self.rest_slot, weights=vals[self.rest],
            minlength=self.csr.nnz))


def assemble_mass_p2(space):
    """Scalar P2 mass matrix (applied identically to each component)."""
    mesh = space.mesh
    t = _tables(mesh, DEFAULT_RULE)
    mref = np.einsum("q,aq,bq->ab", t.weights, t.p2val, t.p2val)
    mref = 0.5 * (mref + mref.T)
    elem = mesh.cell_areas[:, None, None] * mref[None, :, :]
    return space.pattern.assemble(elem)


def assemble_stiffness_p2(space):
    """Scalar P2 stiffness matrix (grad-grad)."""
    mesh = space.mesh
    t = _tables(mesh, DEFAULT_RULE)
    # elem[c, a, b] = sum_ij (grad lambda_i . grad lambda_j) S[(i, j), (a, b)]
    gl = t.p1grad
    elem = ((gl @ gl.transpose(0, 2, 1)).reshape(-1, 9) @ t.S).reshape(-1, 6, 6)
    elem = 0.5 * (elem + elem.transpose(0, 2, 1))
    elem *= mesh.cell_areas[:, None, None]
    return space.pattern.assemble(elem)


def _convection_oneside(space, wind):
    """B[i, j] = integral (wind . grad phi_j) phi_i, as element blocks.

    With grad phi_b = sum_i d phi_b / d lambda_i grad lambda_i, the wind
    enters only through v[c, q, i] = wind(q) . grad lambda_i on cell c, and
    all blocks are one matrix product of v with the reference table T.
    """
    mesh = space.mesh
    t = _tables(mesh, DEFAULT_RULE)
    nc = mesh.n_cells
    wq = t.p2val.T @ space.local(wind.coeffs)                 # (nc, nq, 2)
    v = wq @ t.p1grad.transpose(0, 2, 1)                      # (nc, nq, 3)
    elem = (v.reshape(nc, -1) @ t.T).reshape(nc, 6, 6)
    elem *= mesh.cell_areas[:, None, None]
    return elem


def assemble_convection(space, wind):
    """Skew-symmetric convection matrix for a given P2 wind.

    Assembles B[i,j] = ((wind . grad) phi_j, phi_i) and returns
    (B - B^T)/2.  The split happens after B is summed into CSR form, so
    C[i,j] = -C[j,i] holds bitwise and v^T C v vanishes to rounding for
    every v.
    """
    # a non-finite wind gives non-finite data, left to the caller's
    # check, not a warning
    with np.errstate(invalid="ignore", over="ignore"):
        b = space.pattern.assemble(_convection_oneside(space, wind))
        half = 0.5 * b.data
        return b.with_data(half - half[space.pattern.transpose])


def assemble_grad_coupling(space2, space1):
    """G with (G q) . v_flat = (grad q, v) for all P1 q and P2 vector v.

    Shape (2 * n_scalar, n_vertices); rows are component blocked.
    G^T v_flat returns the weak-divergence moments ((v, grad phi_k))_k.
    """
    mesh = space2.mesh
    t = _tables(mesh, DEFAULT_RULE)
    ints = np.einsum("q,aq->a", t.weights, t.p2val)           # reference integrals
    # elem[x, c, a, i] = |K| * int_ref(phi_a) * d lambda_i / d x
    elem = np.einsum("c,a,cix->xcai", mesh.cell_areas, ints, t.p1grad)
    # each component's block is the P2 pattern's vertex columns, below
    # n_vertices, and its element blocks are the P2 blocks' first 3 of 6
    # columns: the vertex dofs lead every cell and the mesh
    p = space2.pattern
    keep = p.csr.indices < space1.ndof
    place = np.cumsum(keep, dtype=np.int32) - 1
    moved = keep[p.rest_slot]
    first, rest = (e // 6 * 3 + e % 6 for e in (p.first[keep], p.rest[moved]))
    rest_slot = place[p.rest_slot[moved]]
    # summed as ElementPattern.assemble sums, so the bits are the same
    gx, gy = (v[first] + np.bincount(rest_slot, v[rest], len(first))
              for v in elem.reshape(2, -1))
    indptr = np.append(0, place + 1)[p.csr.indptr]
    return CsrMatrix(np.append(indptr, indptr[1:] + len(first)),
                     np.tile(p.csr.indices[keep], 2), np.concatenate([gx, gy]),
                     (2 * space2.n_scalar, space1.ndof))


def assemble_pressure_laplacian(space1):
    """P1 grad-grad matrix; symmetric positive semidefinite, kernel = constants."""
    mesh = space1.mesh
    gl = _tables(mesh, DEFAULT_RULE).p1grad
    elem = np.einsum("c,cix,cjx->cij", mesh.cell_areas, gl, gl)
    elem = 0.5 * (elem + elem.transpose(0, 2, 1))
    return space1.pattern.assemble(elem)


def assemble_mass_p1(space1):
    """P1 mass matrix, |K| (1 + delta_ij) / 12 on each cell K."""
    ref = (1.0 + np.eye(3)) / 12.0
    return space1.pattern.assemble(space1.mesh.cell_areas[:, None, None] * ref)


def assemble_load(space2, f, t_a, t_b):
    """Moments of the time average of f over [t_a, t_b] against the P2 basis.

    f(points, t) maps (m, 2) coordinates and a time to (m, 2) values; the
    time average uses a 3-point Gauss rule (exact through t^5), the space
    integral DEFAULT_RULE.  Returns the component blocked vector of length
    2 * n_scalar.
    """
    if not t_a < t_b:
        raise ValueError("need t_a < t_b")
    mesh = space2.mesh
    t = _tables(mesh, DEFAULT_RULE)
    pts = t.points.reshape(-1, 2)
    tg, wg = gauss_legendre_01(3)
    favg = np.zeros((len(pts), 2))
    for g in range(3):
        favg += wg[g] * np.asarray(f(pts, t_a + (t_b - t_a) * tg[g]), dtype=float)
    favg = favg.reshape(t.points.shape)
    # a non-finite load is reported by the caller, not as a warning
    with np.errstate(invalid="ignore", over="ignore"):
        cellvec = mesh.cell_areas[:, None, None] * (t.p2val_w @ favg)
    dofs = space2.gdof.ravel()
    return np.concatenate([
        np.bincount(dofs, weights=cellvec[:, :, x].ravel(),
                    minlength=space2.n_scalar) for x in range(2)])


# ---------------------------------------------------------------------------
# norms and moments

def h1_seminorm(field):
    """L2 norm of the gradient of a P2 vector field."""
    g = p2_gradients_at(field)
    cell = (g * g).sum(axis=(2, 3)) @ DEFAULT_RULE.weights
    return float(np.sqrt(cell @ field.space.mesh.cell_areas))


def weak_div_moments(u, space1, grad, lap=None):
    """((u, grad phi_k))_k over all P1 nodal functions, from the pair's
    ``grad`` and, for a composite u, ``lap`` (as ``SchemeOperators``).

    Zero for every member of the discrete weakly divergence free space.
    """
    space2 = u.p2_part.space if isinstance(u, CompositeVelocity) else u.space
    if space2.mesh is not space1.mesh:
        raise ValueError("fields live on different meshes")
    if isinstance(u, CompositeVelocity):
        return grad.rmatvec(u.p2_part.flat()) - u.scale * lap.matvec(u.grad_part.coeffs)
    return grad.rmatvec(u.flat())


def cell_div_moments(mesh, local, cells=slice(None)):
    """(m, 3) moments (div u, lambda_a)_K against the three vertex hats of
    each cell K, for local P2 coefficients ``local`` (m, 6, 2) on the cells
    ``cells`` (every cell by default; indices may repeat)."""
    t = _tables(mesh, DEFAULT_RULE)
    g = _local_gradients(t, local, t.p1grad[cells])
    divu = g[..., 0, 0] + g[..., 1, 1]                          # (m, nq)
    # one (1, nq) x (nq, 3) product per cell, again independent of the others
    moments = (divu[:, None, :] @ (t.weights * t.p1val).T)[:, 0]
    return mesh.cell_areas[cells, None] * moments


def div_moments(field, space1):
    """((div u, phi_k))_k for a P2 vector field; quadrature exact.

    Differs from ``weak_div_moments`` by the boundary flux when the field
    does not vanish on the boundary.
    """
    mesh = field.space.mesh
    cell = cell_div_moments(mesh, field.space.local(field.coeffs))
    out = np.zeros(space1.ndof)
    np.add.at(out, mesh.cells.ravel(), cell.ravel())
    return out
