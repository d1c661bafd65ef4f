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
    "DEFAULT_RULE", "eval_basis",
    "assemble_mass_p2", "assemble_stiffness_p2", "assemble_convection",
    "assemble_grad_coupling", "assemble_pressure_laplacian", "assemble_load",
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
    """Per-cell P1 hat gradients, cached on the mesh (immutable)."""
    cached = getattr(mesh, "_p1_grads", None)
    if cached is not None:
        return cached
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
    mesh._p1_grads = grads
    return grads


class _Tables:
    """Basis values/gradients of one mesh at the points of one rule."""

    def __init__(self, mesh, rule):
        self.rule = rule
        self.weights = rule.weights
        self.p1val = p1_reference_values(rule.points)           # (3, nq)
        self.p2val = p2_reference_values(rule.points)           # (6, nq)
        self.p2val_w = rule.weights * self.p2val                # (6, nq)
        dlam = p2_reference_dlambda(rule.points)                # (6, nq, 3)
        gl = _cell_geometry(mesh)                               # (nc, 3, 2)
        self.p1grad = gl
        self.p2grad = np.einsum("aqi,cix->caqx", dlam, gl)      # (nc, 6, nq, 2)
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
        return ElementPattern(self.mesh.cells, self.ndof)

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

    ncomp = 2

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
        return ElementPattern(self.gdof, self.n_scalar)

    def node_coordinates(self):
        return np.vstack([self.mesh.vertices, self.mesh.edge_midpoints()])


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

    def in_velocity_space(self, tol=0.0):
        """True if all non-interior dofs vanish (membership in H^1_0 x P2)."""
        outside = self.coeffs[~self.space.interior_mask]
        return bool(np.all(np.abs(outside) <= tol))


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
        gl = _cell_geometry(self.p2_part.space.mesh)
        q = self.grad_part.coeffs[self.p2_part.space.mesh.cells]  # (nc, 3)
        return np.einsum("ci,cix->cx", q, gl)

    def values_at(self, rule=DEFAULT_RULE):
        """(nc, nq, 2) cellwise values at the points of a rule."""
        vals = p2_values_at(self.p2_part, rule)
        g = self.grad_part_cell_gradients()             # (nc, 2)
        return vals - self.scale * g[:, None, :]


# ---------------------------------------------------------------------------
# pointwise evaluation

def eval_basis(space, cell, bary):
    """Values and physical gradients of the local basis at one barycentric point.

    P1 spaces return 3 values and gradients, P2 spaces 6.
    """
    bary = np.asarray(bary, dtype=float).reshape(1, 3)
    if np.any(bary < -1e-12) or abs(bary.sum() - 1.0) > 1e-12:
        raise ValueError("barycentric point outside the reference triangle")
    gl = _cell_geometry(space.mesh)[cell]
    if isinstance(space, SpaceP1):
        vals = p1_reference_values(bary)[:, 0]
        return vals, gl.copy()
    vals = p2_reference_values(bary)[:, 0]
    dlam = p2_reference_dlambda(bary)[:, 0, :]
    return vals, dlam @ gl


def p2_values_at(field, rule=DEFAULT_RULE):
    """(nc, nq, 2) values of a P2 vector field at the rule points of each cell."""
    t = _tables(field.space.mesh, rule)
    local = field.coeffs[field.space.gdof]          # (nc, 6, 2)
    return np.einsum("cax,aq->cqx", local, t.p2val)


def p2_gradients_at(field, rule=DEFAULT_RULE):
    """(nc, nq, 2, 2) gradients d u_x / d x_j at the rule points."""
    t = _tables(field.space.mesh, rule)
    local = field.coeffs[field.space.gdof]
    return np.einsum("cax,caqj->cqxj", local, t.p2grad)


# ---------------------------------------------------------------------------
# assembly

class ElementPattern:
    """CSR pattern of the square forms over one cell dof map, built once.

    ``slot`` maps each entry of ``elem.ravel()`` to its place in
    ``csr.data``, so an assembly is one ``bincount``; ``transpose`` is the
    permutation of the stored entries that maps A.data to (A^T).data.
    """

    def __init__(self, dofmap, ndof):
        nl = dofmap.shape[1]
        # key row * ndof + col of every element entry, in elem.ravel() order
        keys, first, slot = np.unique(
            np.repeat(dofmap * ndof, nl, axis=1) + np.tile(dofmap, (1, nl)),
            return_index=True, return_inverse=True)
        # int32 halves the two largest arrays a space keeps
        self.first = first.astype(np.int32)
        self.slot = slot.reshape(-1).astype(np.int32)
        indptr = np.searchsorted(keys, ndof * np.arange(ndof + 1))
        self.csr = CsrMatrix(indptr, keys % ndof, np.zeros(len(keys)),
                             (ndof, ndof))

    @cached_property
    def transpose(self):
        return self.csr.transpose_order()

    def assemble(self, elem):
        """CSR matrix from (nc, nl, nl) element blocks."""
        # each slot sums as its first entry + (the others in cell order),
        # the grouping of CsrMatrix.from_coo, so both give the same floats
        # (for up to 8 entries per slot, where reduceat sums in sequence)
        vals = elem.reshape(-1).copy()
        first = vals[self.first]
        vals[self.first] = 0.0
        return self.csr.with_data(
            first + np.bincount(self.slot, weights=vals,
                                minlength=self.csr.nnz))


def assemble_mass_p2(space, rule=DEFAULT_RULE):
    """Scalar P2 mass matrix (applied identically to each component)."""
    mesh = space.mesh
    t = _tables(mesh, rule)
    mref = np.einsum("q,aq,bq->ab", t.weights, t.p2val, t.p2val)
    mref = 0.5 * (mref + mref.T)
    elem = mesh.cell_areas[:, None, None] * mref[None, :, :]
    return space.pattern.assemble(elem)


def assemble_stiffness_p2(space, rule=DEFAULT_RULE):
    """Scalar P2 stiffness matrix (grad-grad)."""
    mesh = space.mesh
    t = _tables(mesh, rule)
    elem = np.einsum("q,caqx,cbqx->cab", t.weights, t.p2grad, t.p2grad)
    elem = 0.5 * (elem + elem.transpose(0, 2, 1))
    elem *= mesh.cell_areas[:, None, None]
    return space.pattern.assemble(elem)


def _convection_oneside(space, wind, rule):
    """B[i, j] = integral (wind . grad phi_j) phi_i, as element blocks."""
    mesh = space.mesh
    t = _tables(mesh, rule)
    wq = t.p2val.T @ wind.coeffs[space.gdof]                  # (nc, nq, 2)
    adv = np.einsum("cqx,cbqx->cqb", wq, t.p2grad)            # (nc, nq, 6)
    elem = t.p2val_w @ adv
    elem *= mesh.cell_areas[:, None, None]
    return elem


def assemble_convection(space, wind, rule=DEFAULT_RULE):
    """Skew-symmetric convection matrix for a given P2 wind.

    Assembles B[i,j] = ((wind . grad) phi_j, phi_i) and returns
    (B - B^T)/2.  The split happens after B is summed into CSR form, so
    C[i,j] = -C[j,i] holds bitwise and v^T C v vanishes to rounding for
    every v.
    """
    b = space.pattern.assemble(_convection_oneside(space, wind, rule))
    half = 0.5 * b.data
    return b.with_data(half - half[space.pattern.transpose])


def assemble_grad_coupling(space2, space1, rule=DEFAULT_RULE):
    """G with (G q) . v_flat = (grad q, v) for all P1 q and P2 vector v.

    Shape (2 * n_scalar, n_vertices); rows are component blocked.
    G^T v_flat returns the weak-divergence moments ((v, grad phi_k))_k.
    """
    mesh = space2.mesh
    t = _tables(mesh, rule)
    ints = np.einsum("q,aq->a", t.weights, t.p2val)           # reference integrals
    # elem[c, a, i, x] = |K| * int_ref(phi_a) * d lambda_i / d x
    elem = np.einsum("c,a,cix->caix", mesh.cell_areas, ints, t.p1grad)
    n2 = space2.n_scalar
    gdof = space2.gdof
    rows = []
    cols = []
    vals = []
    for x in range(2):
        rows.append((gdof[:, :, None] + x * n2).repeat(3, axis=2).ravel())
        cols.append(np.broadcast_to(mesh.cells[:, None, :],
                                    gdof.shape + (3,)).ravel())
        vals.append(elem[:, :, :, x].ravel())
    return CsrMatrix.from_coo(np.concatenate(rows), np.concatenate(cols),
                              np.concatenate(vals), (2 * n2, space1.ndof))


def assemble_pressure_laplacian(space1, rule=DEFAULT_RULE):
    """P1 grad-grad matrix; symmetric positive semidefinite, kernel = constants."""
    mesh = space1.mesh
    gl = _cell_geometry(mesh)
    elem = np.einsum("c,cix,cjx->cij", mesh.cell_areas, gl, gl)
    elem = 0.5 * (elem + elem.transpose(0, 2, 1))
    return space1.pattern.assemble(elem)


def assemble_load(space2, f, t_a, t_b, rule=DEFAULT_RULE, time_points=3):
    """Moments of the time average of f over [t_a, t_b] against the P2 basis.

    f(points, t) maps (m, 2) coordinates and a time to (m, 2) values; the
    time average uses a Gauss rule (default 3 points, exact through t^5),
    the space integral the global triangle rule.  Returns the component
    blocked vector of length 2 * n_scalar.
    """
    if not t_a < t_b:
        raise ValueError("need t_a < t_b")
    mesh = space2.mesh
    t = _tables(mesh, rule)
    pts = t.points.reshape(-1, 2)
    tg, wg = gauss_legendre_01(time_points)
    favg = np.zeros((len(pts), 2))
    for g in range(time_points):
        favg += wg[g] * np.asarray(f(pts, t_a + (t_b - t_a) * tg[g]), dtype=float)
    favg = favg.reshape(mesh.n_cells, len(rule), 2)
    # a non-finite load is reported by the caller, not as a warning
    with np.errstate(invalid="ignore", over="ignore"):
        cellvec = mesh.cell_areas[:, None, None] * (t.p2val_w @ favg)
    dofs = space2.gdof.ravel()
    return np.concatenate([
        np.bincount(dofs, weights=cellvec[:, :, x].ravel(),
                    minlength=space2.n_scalar) for x in range(2)])


# ---------------------------------------------------------------------------
# norms and moments

def h1_seminorm(field, rule=DEFAULT_RULE):
    """L2 norm of the gradient of a P2 vector field."""
    g = p2_gradients_at(field, rule)
    t = _tables(field.space.mesh, rule)
    cell = np.einsum("q,cqxj,cqxj->c", t.weights, g, g)
    return float(np.sqrt(cell @ field.space.mesh.cell_areas))


def weak_div_moments(u, space1, grad=None, lap=None):
    """((u, grad phi_k))_k over all P1 nodal functions.

    Zero for every member of the discrete weakly divergence free space.
    """
    space2 = u.p2_part.space if isinstance(u, CompositeVelocity) else u.space
    if space2.mesh is not space1.mesh:
        raise ValueError("fields live on different meshes")
    if grad is None:
        grad = assemble_grad_coupling(space2, space1)
    if isinstance(u, CompositeVelocity):
        if lap is None:
            lap = assemble_pressure_laplacian(space1)
        return grad.rmatvec(u.p2_part.flat()) - u.scale * lap.matvec(u.grad_part.coeffs)
    return grad.rmatvec(u.flat())


def cell_div_moments(mesh, local, cells=slice(None), rule=DEFAULT_RULE):
    """(m, 3) moments (div u, lambda_a)_K against the three vertex hats of
    each cell K, for local P2 coefficients ``local`` (m, 6, 2) on the cells
    ``cells`` (every cell by default; indices may repeat)."""
    t = _tables(mesh, rule)
    divu = np.einsum("cax,caqx->cq", local, t.p2grad[cells])
    return np.einsum("c,q,cq,aq->ca", mesh.cell_areas[cells], t.weights, divu,
                     t.p1val)


def div_moments(field, space1, rule=DEFAULT_RULE):
    """((div u, phi_k))_k for a P2 vector field; quadrature exact.

    Differs from ``weak_div_moments`` by the boundary flux when the field
    does not vanish on the boundary.
    """
    mesh = field.space.mesh
    cell = cell_div_moments(mesh, field.coeffs[field.space.gdof], rule=rule)
    out = np.zeros(space1.ndof)
    np.add.at(out, mesh.cells.ravel(), cell.ravel())
    return out
