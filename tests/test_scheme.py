import dataclasses
from fractions import Fraction
from math import factorial, prod

import numpy as np
import pytest

from projnav import mms, scheme, sparse
from projnav.fem import (FieldP1Scalar, FieldP2Vector, SpaceP1, SpaceP2Vector,
                         assemble_convection, assemble_load, p2_values_at,
                         weak_div_moments)
from projnav.interp import lagrange_p2, pi_n
from projnav.mesh import (build_from_arrays, build_pathological_mesh,
                          build_structured_unit_square)
from projnav.scheme import (SchemeConfig, SchemeError, SchemeOperators,
                            correct, diagnostics_csv, initialize,
                            l2l2_velocity_error, predict, run, step)
from projnav.sparse import (CsrMatrix, SmoothedAggregation, bicgstab_solve,
                            cg_solve)

from oracles import (composite_norm_sq_fresh, gap_l2l2, hierarchy_sizes,
                     l2_inner, l2l2_velocity_error_reduce, moment_vector_fresh,
                     p1_values_at, step_audit_fresh, time_translate_cuts,
                     time_translate_diagnostic)


def zero_u0(pts):
    return np.zeros((len(pts), 2))


def zero_f(pts, t):
    return np.zeros((len(pts), 2))


@pytest.fixture(scope="module")
def setup4():
    mesh = build_structured_unit_square(4)
    s2 = SpaceP2Vector(mesh)
    s1 = SpaceP1(mesh, zero_mean=True)
    return s2, s1, SchemeOperators(s2, s1)


def prediction_precond(ops, config):
    """The prediction hierarchy that ``run`` builds for ``config``."""
    return ops.prediction_precond(config.dt)


# ---------------------------------------------------------------------------
# initialization

def test_initialize_zero_data(setup4):
    s2, s1, ops = setup4
    state = initialize(s2, s1, zero_u0, ops=ops)
    assert np.abs(state.u.p2_part.coeffs).max() == 0.0
    assert np.abs(state.p.coeffs).max() == 0.0
    assert np.abs(state.u_tilde.coeffs).max() == 0.0


def test_initialize_fixed_point_on_discretely_divfree_field():
    mesh = build_structured_unit_square(8)
    s2 = SpaceP2Vector(mesh)
    s1 = SpaceP1(mesh, zero_mean=True)
    ops = SchemeOperators(s2, s1)
    field, status = pi_n(mms.spline_bump_field(), s2)
    assert status == "corrected"
    state = initialize(s2, s1, field, ops=ops)
    assert np.abs(state.u.grad_part.coeffs).max() <= 1e-9
    assert np.array_equal(state.u.p2_part.coeffs, field.coeffs)


def test_initialize_gradient_data_projected_out(setup4):
    s2, s1, ops = setup4

    def u0(pts):
        # gradient of the affine function 2x + y
        out = np.empty((len(pts), 2))
        out[:, 0] = 2.0
        out[:, 1] = 1.0
        return out

    state = initialize(s2, s1, u0, ops=ops)
    moments = weak_div_moments(state.u, s1, grad=ops.grad, lap=ops.lap)
    assert np.abs(moments).max() <= 1e-11
    w = lagrange_p2(u0, s2)
    norm_before = np.sqrt(l2_inner(w, w))
    norm_after = np.sqrt(max(ops.composite_norm_sq(state.u), 0.0))
    assert norm_after <= norm_before + 1e-12


# ---------------------------------------------------------------------------
# prediction

def test_predict_zero_state_zero_forcing(setup4):
    s2, s1, ops = setup4
    config = SchemeConfig(n_steps=4, t_final=1.0)
    state = initialize(s2, s1, zero_u0, ops=ops)
    load = assemble_load(s2, zero_f, 0.0, config.dt)
    ut, _, _ = predict(state, load, ops, config,
                       prediction_precond(ops, config))
    assert np.abs(ut.coeffs).max() == 0.0


class LamPoly:
    """Polynomial in the barycentric coordinates of one triangle, with
    exact rational coefficients keyed by exponent triples."""

    def __init__(self, terms):
        self.terms = {k: v for k, v in terms.items() if v}

    @staticmethod
    def lift(value):
        if isinstance(value, LamPoly):
            return value
        return LamPoly({(0, 0, 0): Fraction(value)})

    @staticmethod
    def lam(k):
        return LamPoly({tuple(int(i == k) for i in range(3)): Fraction(1)})

    def __add__(self, other):
        terms = dict(self.terms)
        for k, v in LamPoly.lift(other).terms.items():
            terms[k] = terms.get(k, 0) + v
        return LamPoly(terms)

    __radd__ = __add__

    def __neg__(self):
        return LamPoly({k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        return self + (-LamPoly.lift(other))

    def __mul__(self, other):
        terms = {}
        for ka, va in self.terms.items():
            for kb, vb in LamPoly.lift(other).terms.items():
                k = tuple(a + b for a, b in zip(ka, kb))
                terms[k] = terms.get(k, 0) + va * vb
        return LamPoly(terms)

    __rmul__ = __mul__

    def diff(self, i):
        """Partial derivative with respect to lambda_i."""
        terms = {}
        for k, v in self.terms.items():
            if k[i]:
                e = list(k)
                e[i] -= 1
                terms[tuple(e)] = v * k[i]
        return LamPoly(terms)

    def integral(self, area):
        """Exact integral over the triangle:
        int_K lambda^alpha = 2 |K| alpha! / (|alpha| + 2)!."""
        total = Fraction(0)
        for k, v in self.terms.items():
            total += (v * 2 * area * prod(factorial(a) for a in k)
                      / factorial(sum(k) + 2))
        return total


def rational_heat_step_oracle(mesh, dt, forcing_xy):
    """Backward-Euler heat step from zero data, built independently.

    Assembles mass/stiffness/load by exact rational integration of
    barycentric monomials over each physical triangle (the vertex
    coordinates are read as exact rationals), then solves the dense
    interior system per component.  Returns the full coefficient array
    (boundary rows zero).
    """
    n_vert = mesh.n_vertices
    n_scalar = n_vert + mesh.n_edges
    mass = np.zeros((n_scalar, n_scalar))
    stiff = np.zeros((n_scalar, n_scalar))
    load = np.zeros((n_scalar, 2))
    lam = [LamPoly.lam(k) for k in range(3)]
    pairs = ((1, 2), (0, 2), (0, 1))
    basis = [lam[i] * (2 * lam[i] - 1) for i in range(3)]
    basis += [4 * lam[a] * lam[b] for a, b in pairs]

    for c in range(mesh.n_cells):
        tri = mesh.cells[c]
        px = [Fraction(float(v)) for v in mesh.vertices[tri, 0]]
        py = [Fraction(float(v)) for v in mesh.vertices[tri, 1]]
        det = ((px[1] - px[0]) * (py[2] - py[0])
               - (px[2] - px[0]) * (py[1] - py[0]))
        area = abs(det) / 2
        # grad lambda_i = (y_j - y_k, x_k - x_j) / det, (i, j, k) cyclic
        glam = [((py[(i + 1) % 3] - py[(i + 2) % 3]) / det,
                 (px[(i + 2) % 3] - px[(i + 1) % 3]) / det)
                for i in range(3)]
        x = sum((lam[k] * px[k] for k in range(3)), LamPoly({}))
        y = sum((lam[k] * py[k] for k in range(3)), LamPoly({}))
        fx, fy = forcing_xy(x, y)
        gdofs = list(tri) + [n_vert + e for e in mesh.cell_edges[c]]
        dbasis = [[b.diff(k) for k in range(3)] for b in basis]

        for a in range(6):
            load[gdofs[a], 0] += float((fx * basis[a]).integral(area))
            load[gdofs[a], 1] += float((fy * basis[a]).integral(area))
            for b in range(6):
                mass[gdofs[a], gdofs[b]] += float(
                    (basis[a] * basis[b]).integral(area))
                grad_grad = sum(
                    (dbasis[a][k] * dbasis[b][m]
                     * (glam[k][0] * glam[m][0] + glam[k][1] * glam[m][1])
                     for k in range(3) for m in range(3)), LamPoly({}))
                stiff[gdofs[a], gdofs[b]] += float(grad_grad.integral(area))

    interior = np.zeros(n_scalar, dtype=bool)
    interior[mesh.interior_vertices] = True
    interior[n_vert:][~mesh.is_boundary_edge] = True
    idx = np.where(interior)[0]
    system = mass[np.ix_(idx, idx)] / dt + stiff[np.ix_(idx, idx)]
    out = np.zeros((n_scalar, 2))
    for comp in range(2):
        out[idx, comp] = np.linalg.solve(system, load[idx, comp])
    return out


def test_first_step_matches_independent_heat_oracle():
    # from zero data the first prediction has zero wind and zero pressure
    # gradient, so it is a plain backward-Euler viscous step
    mesh = build_structured_unit_square(2)
    s2 = SpaceP2Vector(mesh)
    s1 = SpaceP1(mesh, zero_mean=True)
    ops = SchemeOperators(s2, s1)
    dt = 0.25

    def f(pts, t):
        return np.stack([pts[:, 0] * pts[:, 1], pts[:, 0] ** 2 - 0.3],
                        axis=-1)

    config = SchemeConfig(n_steps=4, t_final=1.0)
    state = initialize(s2, s1, zero_u0, ops=ops)
    load = assemble_load(s2, f, 0.0, dt)
    ut, _, _ = predict(state, load, ops, config,
                       prediction_precond(ops, config))

    oracle = rational_heat_step_oracle(mesh, dt,
                                       lambda x, y: (x * y, x * x - 0.3))
    assert np.abs(ut.coeffs - oracle).max() <= 1e-10


def test_prediction_energy_identity(setup4):
    # testing the prediction equation with its own solution balances
    # kinetic energy, dissipation, pressure work and forcing work
    s2, s1, ops = setup4
    config = SchemeConfig(n_steps=10, t_final=1.0)
    state = initialize(s2, s1, zero_u0, ops=ops)
    precond = prediction_precond(ops, config)
    for _ in range(2):
        state, _ = step(state, mms.forcing, ops, config, precond)
    load = assemble_load(s2, mms.forcing, state.t, state.t + config.dt)
    ut, _, _ = predict(state, load, ops, config, precond)
    dt = config.dt
    ut_sq = ops.l2_norm_sq_p2(ut.coeffs)
    un_sq = ops.composite_norm_sq(state.u)
    gap_sq = ops.gap_norm_sq(ut, state.u)
    h1_sq = ops.h1_seminorm_sq_p2(ut.coeffs)
    gradp_work = float(ops.grad.matvec(state.p.coeffs) @ ut.flat())
    work = float(load @ ut.flat())
    lhs = (ut_sq - un_sq + gap_sq) / (2 * dt) + h1_sq + gradp_work
    assert abs(lhs - work) <= 1e-9 * max(1.0, abs(work))


@pytest.mark.parametrize("which", ["structured", "irregular"])
def test_prediction_system_matches_dense_reference(setup4, irregular_mesh,
                                                   which, rng):
    if which == "structured":
        s2, _, ops = setup4
    else:
        s2 = SpaceP2Vector(irregular_mesh)
        ops = SchemeOperators(s2, SpaceP1(irregular_mesh, zero_mean=True))
    dt = 0.1
    idx = s2.interior_dofs
    mass = ops.mass.to_dense()
    stiff = ops.stiffness.to_dense()
    wind = FieldP2Vector(s2, rng.standard_normal((s2.n_scalar, 2)))
    conv = assemble_convection(s2, wind)
    for c, dense_c in ((None, 0.0), (conv, conv.to_dense())):
        system = ops.prediction_system(dt, c)
        expected = ((1 / dt) * mass + (stiff + dense_c))[np.ix_(idx, idx)]
        assert system.shape == (len(idx), len(idx))
        assert np.array_equal(system.to_dense(), expected)


def _ops_for(which, irregular_mesh):
    mesh = (build_structured_unit_square(8) if which == "structured"
            else irregular_mesh)
    return SchemeOperators(SpaceP2Vector(mesh), SpaceP1(mesh))


@pytest.mark.parametrize("which", ["structured", "irregular"])
def test_prediction_system_is_bitwise_symmetric(which, irregular_mesh):
    # the prediction hierarchy takes it as given, without its symmetric part
    system = _ops_for(which, irregular_mesh).prediction_system(0.1)
    transposed, order = system.transpose()
    assert np.array_equal(transposed.indices, system.indices)
    assert np.array_equal(system.data, system.data[order])


@pytest.mark.parametrize("which", ["structured", "irregular"])
def test_p1_embedding_reproduces_piecewise_affine_fields(which,
                                                         irregular_mesh, rng):
    # a continuous piecewise-affine field vanishing on the boundary is its
    # own P2 interpolant: P q, evaluated with the P2 basis, is q evaluated
    # with the P1 basis at every quadrature point of every cell
    ops = _ops_for(which, irregular_mesh)
    mesh = ops.space2.mesh
    q = FieldP1Scalar(ops.space1)
    q.coeffs[mesh.interior_vertices] = rng.standard_normal(
        len(mesh.interior_vertices))
    u = FieldP2Vector(ops.space2)
    u.coeffs[ops.interior, 0] = ops.p1_embedding().matvec(
        q.coeffs[mesh.interior_vertices])
    expected = p1_values_at(q)
    assert (np.abs(p2_values_at(u)[:, :, 0] - expected).max()
            <= 1e-14 * np.abs(expected).max())
    # and, node by node, the interpolant: vertex values, then the mean of
    # the two ends at each interior edge midpoint
    nodes = np.concatenate([q.coeffs,
                            q.coeffs[mesh.edges].mean(axis=1)])
    assert np.array_equal(u.coeffs[ops.interior, 0], nodes[ops.interior])


@pytest.mark.parametrize("which", ["structured", "irregular"])
def test_p1_embedding_galerkin_stiffness_is_the_p1_laplacian(which,
                                                             irregular_mesh):
    ops = _ops_for(which, irregular_mesh)
    inner = ops.space2.mesh.interior_vertices
    p = ops.p1_embedding().to_dense()
    assert p.shape == (len(ops.interior), len(inner))
    k2 = ops.stiffness.to_dense()[np.ix_(ops.interior, ops.interior)]
    lap = ops.lap.to_dense()[np.ix_(inner, inner)]
    assert np.abs(p.T @ k2 @ p - lap).max() <= 1e-12 * np.abs(lap).max()


@pytest.mark.parametrize("dt", [1 / 64, 0.5])
@pytest.mark.parametrize("which", [4, 16, 32, "irregular"])
def test_prediction_hierarchy_coarsens_through_the_embedding(
        which, dt, irregular_mesh, monkeypatch):
    # the first level restricts by P^T, unsmoothed, to the assembled P1
    # M1/dt + K1 on the interior vertices, which is P^T (M/dt + K) P
    mesh = (irregular_mesh if which == "irregular"
            else build_structured_unit_square(which))
    ops = SchemeOperators(SpaceP2Vector(mesh), SpaceP1(mesh))
    given = []

    def recording(a, nested=None):
        given.append(nested)
        return SmoothedAggregation(a, nested)

    monkeypatch.setattr(scheme, "SmoothedAggregation", recording)
    hierarchy = ops.prediction_precond(dt)
    p = ops.p1_embedding().to_dense()
    [(embedding, coarse)] = given
    assert np.array_equal(embedding.to_dense(), p)
    galerkin = p.T @ ops.prediction_system(dt).to_dense() @ p
    assert (np.abs(coarse.to_dense() - galerkin).max()
            <= 1e-14 * np.abs(galerkin).max())
    # at n = 4 the prediction system is the dense coarsest level itself
    sizes = hierarchy_sizes(hierarchy)
    assert (len(sizes) > 1) == (len(ops.interior) > sparse.COARSE_SIZE)
    if len(sizes) > 1:
        assert sizes[:2] == [len(ops.interior), len(mesh.interior_vertices)]
        assert np.array_equal(hierarchy.restrict[0].to_dense(), p.T)
        assert np.array_equal(hierarchy.matrices[1].to_dense(),
                              coarse.to_dense())


def test_prediction_hierarchy_forms_no_product_of_the_p2_system(
        monkeypatch):
    # the P1 level is assembled, not a Galerkin product; aggregation
    # below it still multiplies the P1 level's matrices
    mesh = build_structured_unit_square(16)
    ops = SchemeOperators(SpaceP2Vector(mesh), SpaceP1(mesh))
    rows = []
    spgemm = sparse._spgemm

    def recording(a, b):
        rows.extend([a.shape[0], b.shape[0]])
        return spgemm(a, b)

    monkeypatch.setattr(sparse, "_spgemm", recording)
    ops.prediction_precond(0.5)
    assert rows and len(ops.interior) not in rows


def _column_strip(k, height):
    """(0, 1) x (0, height) cut into k columns, each into two triangles:
    no vertex is interior, and the 2k - 1 interior edges carry every
    interior velocity dof."""
    xs = np.linspace(0.0, 1.0, k + 1)
    verts = np.vstack([np.column_stack([xs, np.zeros(k + 1)]),
                       np.column_stack([xs, np.full(k + 1, height)])])
    i = np.arange(k)
    cells = np.concatenate([np.stack([i, i + 1, k + 2 + i], axis=1),
                            np.stack([i, k + 2 + i, k + 1 + i], axis=1)])
    return build_from_arrays(verts, cells)


def test_prediction_hierarchy_without_interior_vertex_aggregates(rng):
    # the embedding has no column, so aggregation makes the first coarse
    # level, as in a hierarchy built without it; coarsening to the empty
    # P1 space would leave every dof to the smoother (about 150 iterations
    # instead of 13 to 16)
    mesh = _column_strip(200, 0.1)
    s2 = SpaceP2Vector(mesh)
    ops = SchemeOperators(s2, SpaceP1(mesh))
    assert len(ops.interior) == 399 and ops.p1_embedding().shape == (399, 0)
    dt = 0.1
    hierarchy = ops.prediction_precond(dt)
    aggregated = SmoothedAggregation(ops.prediction_system(dt))
    assert hierarchy_sizes(hierarchy) == hierarchy_sizes(aggregated)
    wind = FieldP2Vector(s2, mms.velocity(s2.node_coordinates(), 0.7))
    system = ops.prediction_system(dt, assemble_convection(s2, wind))
    rhs = rng.standard_normal(system.shape[0])
    _, report = bicgstab_solve(system, rhs, precond=hierarchy)
    _, reference = bicgstab_solve(system, rhs, precond=aggregated)
    assert report.converged
    assert report.iterations <= min(reference.iterations, 20)


def test_step_makes_no_from_coo_call(monkeypatch):
    calls = []
    from_coo = CsrMatrix.from_coo.__func__

    def counting(cls, *args, **kwargs):
        calls.append(1)
        return from_coo(cls, *args, **kwargs)

    monkeypatch.setattr(CsrMatrix, "from_coo", classmethod(counting))
    # 169 P1 and 529 interior P2 dofs: both hierarchies have a level above
    # the dense coarsest one, whose Galerkin products go through from_coo
    mesh = build_structured_unit_square(12)
    s2 = SpaceP2Vector(mesh)
    s1 = SpaceP1(mesh, zero_mean=True)
    ops = SchemeOperators(s2, s1)
    assert calls == []      # every fem assembly is a bincount into a pattern
    config = SchemeConfig(n_steps=2, t_final=1.0)
    state = initialize(s2, s1, mms.initial_velocity, ops=ops)
    precond = prediction_precond(ops, config)
    assert len(hierarchy_sizes(precond)) > 1
    assert len(hierarchy_sizes(ops.pressure_precond)) > 1
    assert calls            # the hierarchies are built
    calls.clear()
    state, _ = step(state, mms.forcing, ops, config, precond)
    state, _ = step(state, mms.forcing, ops, config, precond)
    assert calls == []


# ---------------------------------------------------------------------------
# correction

def test_correct_fixes_divfree_prediction():
    mesh = build_structured_unit_square(8)
    s2 = SpaceP2Vector(mesh)
    s1 = SpaceP1(mesh, zero_mean=True)
    ops = SchemeOperators(s2, s1)
    config = SchemeConfig(n_steps=4, t_final=1.0)
    state = initialize(s2, s1, zero_u0, ops=ops)
    ut, status = pi_n(mms.spline_bump_field(), s2)
    assert status == "corrected"
    p_new, u_new, _ = correct(state, ut, ops, config)
    assert np.abs(u_new.grad_part.coeffs).max() <= 1e-9
    assert np.abs(p_new.coeffs).max() <= 1e-9


def test_correct_pythagoras(setup4):
    s2, s1, ops = setup4
    config = SchemeConfig(n_steps=10, t_final=1.0)
    state = initialize(s2, s1, zero_u0, ops=ops)
    precond = prediction_precond(ops, config)
    for _ in range(3):
        state, _ = step(state, mms.forcing, ops, config, precond)
    load = assemble_load(s2, mms.forcing, state.t, state.t + config.dt)
    ut, _, _ = predict(state, load, ops, config, precond)
    p_new, u_new, _ = correct(state, ut, ops, config)
    dt = config.dt
    dp = u_new.grad_part.coeffs
    ut_sq = ops.l2_norm_sq_p2(ut.coeffs)
    u_sq = ops.composite_norm_sq(u_new)
    grad_dp_sq = ops.gradp_norm_sq(dp)
    cross = float(weak_div_moments(u_new, s1, grad=ops.grad, lap=ops.lap) @ dp)
    assert abs(cross) <= 1e-12 * max(1.0, ut_sq)
    assert abs(ut_sq - u_sq - dt ** 2 * grad_dp_sq - 2 * dt * cross) \
        <= 1e-12 * max(1.0, ut_sq)


def test_correct_moments_small_every_input(setup4, rng):
    s2, s1, ops = setup4
    config = SchemeConfig(n_steps=4, t_final=1.0)
    state = initialize(s2, s1, zero_u0, ops=ops)
    ut = FieldP2Vector(s2)
    ut.coeffs[s2.interior_dofs] = rng.standard_normal(
        (len(s2.interior_dofs), 2))
    _, u_new, _ = correct(state, ut, ops, config)
    moments = weak_div_moments(u_new, s1, grad=ops.grad, lap=ops.lap)
    assert np.abs(moments).max() <= 1e-10


# ---------------------------------------------------------------------------
# full steps and runs

def test_zero_data_stays_zero(setup4):
    s2, s1, ops = setup4
    config = SchemeConfig(n_steps=5, t_final=1.0)
    result = run(s2, s1, zero_u0, zero_f, config, ops=ops)
    for d in result.diagnostics:
        assert d.u_l2 == 0.0
        assert d.energy_residual <= 1e-14


def test_energy_identity_on_mms(setup4):
    s2, s1, ops = setup4
    config = SchemeConfig(n_steps=10, t_final=1.0)
    result = run(s2, s1, mms.initial_velocity, mms.forcing, config, ops=ops)
    assert max(d.energy_residual for d in result.diagnostics) <= 1e-8


def test_weak_divergence_and_pressure_mean_every_step(setup4):
    s2, s1, ops = setup4
    config = SchemeConfig(n_steps=6, t_final=1.0)
    w = ops.p1_weights
    state = initialize(s2, s1, mms.initial_velocity, ops=ops)
    precond = prediction_precond(ops, config)
    for _ in range(config.n_steps):
        state, _ = step(state, mms.forcing, ops, config, precond)
        p_norm = max(float(np.linalg.norm(state.p.coeffs)), 1e-30)
        assert abs(w @ state.p.coeffs) <= 1e-12 * p_norm
        moments = weak_div_moments(state.u, s1, grad=ops.grad, lap=ops.lap)
        assert np.abs(moments).max() <= 1e-10


def test_determinism_bit_identical(setup4):
    s2, s1, ops = setup4
    config = SchemeConfig(n_steps=4, t_final=1.0)
    r1 = run(s2, s1, mms.initial_velocity, mms.forcing, config, ops=ops)
    r2 = run(s2, s1, mms.initial_velocity, mms.forcing, config, ops=ops)
    assert diagnostics_csv(r1.diagnostics) == diagnostics_csv(r2.diagnostics)
    assert np.array_equal(r1.state.u_tilde.coeffs, r2.state.u_tilde.coeffs)
    assert np.array_equal(r1.state.p.coeffs, r2.state.p.coeffs)


def test_run_single_step_equals_step_call(setup4):
    s2, s1, ops = setup4
    config = SchemeConfig(n_steps=1, t_final=0.3)
    result = run(s2, s1, mms.initial_velocity, mms.forcing, config, ops=ops)
    state0 = initialize(s2, s1, mms.initial_velocity, ops=ops)
    state1, diag = step(state0, mms.forcing, ops, config,
                        prediction_precond(ops, config))
    assert np.array_equal(result.state.u_tilde.coeffs, state1.u_tilde.coeffs)
    assert result.diagnostics[0].energy_residual == diag.energy_residual


def test_state_carries_the_audited_norms(setup4):
    # the audit reads the previous state's norms from the state; they are
    # the very floats a recomputation gives
    s2, s1, ops = setup4
    config = SchemeConfig(n_steps=3, t_final=1.0)
    state = initialize(s2, s1, mms.initial_velocity, ops=ops)
    precond = prediction_precond(ops, config)
    for k in range(config.n_steps + 1):
        if k:
            state, _ = step(state, mms.forcing, ops, config, precond)
        assert state.u_sq == ops.composite_norm_sq(state.u)
        assert state.gradp_sq == ops.gradp_norm_sq(state.p.coeffs)


def test_global_energy_bound_reported(setup4):
    s2, s1, ops = setup4
    config = SchemeConfig(n_steps=8, t_final=1.0)
    result = run(s2, s1, mms.initial_velocity, mms.forcing, config, ops=ops)
    norms = [d.u_l2 for d in result.diagnostics]
    assert all(np.isfinite(v) for v in norms)
    # boundedness along the run (the data are smooth and small)
    assert max(norms) <= 10.0


def test_gap_ratio_under_time_refinement():
    mesh = build_structured_unit_square(8)
    s2 = SpaceP2Vector(mesh)
    s1 = SpaceP1(mesh, zero_mean=True)
    ops = SchemeOperators(s2, s1)
    gaps = {}
    for n_steps in (8, 16):
        config = SchemeConfig(n_steps=n_steps, t_final=1.0)
        result = run(s2, s1, mms.initial_velocity, mms.forcing, config,
                     ops=ops)
        gaps[n_steps] = gap_l2l2(result)
    assert gaps[8] / gaps[16] >= np.sqrt(2.0) * 0.9


def test_solver_failure_aborts_with_step_index(setup4, monkeypatch):
    s2, s1, ops = setup4
    # at n=4 the preconditioner is a dense pseudo-inverse of M/dt + K,
    # which solves step 1 (no convection yet) in one iteration; an
    # iteration budget of 0 leaves the cold guess unsolved.  Only the
    # prediction solves get that budget, so the initial projection solves
    solve = scheme.bicgstab_solve

    def starved(*args, **kw):
        with monkeypatch.context() as m:
            m.setattr(sparse, "ITERS_PER_UNKNOWN", 0)
            m.setattr(sparse, "MIN_ITERS", 0)
            return solve(*args, **kw)

    monkeypatch.setattr(scheme, "bicgstab_solve", starved)
    config = SchemeConfig(n_steps=3, t_final=1.0)
    with pytest.raises(SchemeError) as err:
        run(s2, s1, mms.initial_velocity, mms.forcing, config, ops=ops)
    assert err.value.step_index == 1
    assert str(err.value).startswith(
        "prediction solve failed at step 1 (component 0, residual ")
    assert err.value.report.iterations == 0
    assert not err.value.report.converged


def test_energy_bound_fails_the_first_step_above_it():
    # loose solves: step 1 leaves 1.9e-9 and step 2 1.8e-8
    mesh = build_structured_unit_square(16)
    s2, s1 = SpaceP2Vector(mesh), SpaceP1(mesh)
    ops = SchemeOperators(s2, s1)
    config = SchemeConfig(n_steps=8, t_final=1.0, pred_tol=1e-2,
                          corr_tol=1e-2)
    precond = ops.prediction_precond(config.dt)
    state = initialize(s2, s1, mms.initial_velocity, ops=ops,
                       tol=config.corr_tol)
    state, diag = step(state, mms.forcing, ops, config, precond)
    assert diag.energy_residual <= scheme.ENERGY_BOUND
    with pytest.raises(SchemeError) as err:
        step(state, mms.forcing, ops, config, precond)
    assert err.value.step_index == 2
    assert str(err.value).startswith("energy identity residual ")
    assert str(err.value).endswith(" exceeds 1e-08 at step 2")


def _recording_solves(monkeypatch):
    """Route both scheme solvers through wrappers that keep (solver name,
    matrix, rhs, keywords, solution, report) of every call."""
    calls = []

    def recording(name, solve):
        def wrapped(a, rhs, **kwargs):
            x, report = solve(a, rhs, **kwargs)
            calls.append((name, a, rhs, kwargs, x, report))
            return x, report
        return wrapped

    monkeypatch.setattr(scheme, "bicgstab_solve",
                        recording("bicgstab", scheme.bicgstab_solve))
    monkeypatch.setattr(scheme, "cg_solve", recording("cg", scheme.cg_solve))
    return calls


def test_energy_residual_is_the_solves_defect(monkeypatch):
    # tolerances of 1e-6 stop every solve by the tol rule, far above
    # rounding, so the audit reads the defect the solves leave:
    # sum_c r_c . ut_c + dt r_q . (p^n + q)
    calls = _recording_solves(monkeypatch)
    mesh = build_structured_unit_square(12)
    s2, s1 = SpaceP2Vector(mesh), SpaceP1(mesh)
    ops = SchemeOperators(s2, s1)
    config = SchemeConfig(n_steps=6, t_final=1.0, pred_tol=1e-6,
                          corr_tol=1e-6)
    precond = prediction_precond(ops, config)
    state = initialize(s2, s1, mms.initial_velocity, ops=ops,
                       tol=config.corr_tol)
    q_only = []
    for _ in range(config.n_steps):
        calls.clear()
        new, diag = step(state, mms.forcing, ops, config, precond)
        assert [c[0] for c in calls] == ["bicgstab", "bicgstab", "cg"]
        pred = sum((rhs - a @ x) @ x for _, a, rhs, _, x, _ in calls[:2])
        _, lap, rhs, _, q, report = calls[2]
        r_q = rhs - lap @ q
        proj = config.dt * (r_q @ (state.p.coeffs + q))
        scale = max(1.0, abs(new.work))
        defect = abs(pred + proj) / scale
        assert diag.energy_residual > 1e3 * np.finfo(float).eps
        assert abs(diag.energy_residual - defect) <= 1e-2 * defect
        q_only.append(abs(pred + config.dt * (r_q @ q)) / scale / defect)
        state = new
    # without p^n the projection's share is off on some step
    assert max(abs(np.log(q_only))) > np.log(1.5)


def test_step_budgets_the_energy_defect(monkeypatch):
    # the initial projection has no audit and no budget; each prediction
    # component gets a quarter of ENERGY_TARGET max(1, |work|) of the step
    # before, the projection half of it, scaled by 1/dt for its residual
    calls = _recording_solves(monkeypatch)
    mesh = build_structured_unit_square(6)
    s2, s1 = SpaceP2Vector(mesh), SpaceP1(mesh)
    ops = SchemeOperators(s2, s1)
    config = SchemeConfig(n_steps=2, t_final=1.0)
    precond = prediction_precond(ops, config)
    state = initialize(s2, s1, mms.initial_velocity, ops=ops)
    assert calls[0][3].get("energy") is None
    assert state.work == 0.0
    for _ in range(config.n_steps):
        calls.clear()
        new, _ = step(state, mms.forcing, ops, config, precond)
        budget = scheme.ENERGY_TARGET * max(1.0, abs(state.work))
        for _, _, _, kwargs, _, _ in calls[:2]:
            assert kwargs["energy"] == (0.25 * budget, None)
        proj_budget, shift = calls[2][3]["energy"]
        assert proj_budget == 0.5 * budget / config.dt
        assert shift is state.p.coeffs
        assert new.work == float(assemble_load(
            s2, mms.forcing, state.t, new.t) @ new.u_tilde.flat())
        state = new


def test_divergence_bound_fails_the_first_step_above_it():
    # a loose projection alone leaves the energy balance (CG's residual is
    # orthogonal to its iterate on a cold step 1) but not the moments
    mesh = build_structured_unit_square(16)
    s2, s1 = SpaceP2Vector(mesh), SpaceP1(mesh)
    ops = SchemeOperators(s2, s1)
    config = SchemeConfig(n_steps=8, t_final=1.0, corr_tol=0.1)
    state = initialize(s2, s1, mms.initial_velocity, ops=ops)
    with pytest.raises(SchemeError) as err:
        step(state, mms.forcing, ops, config, prediction_precond(ops, config))
    assert err.value.step_index == 1
    assert str(err.value).startswith("weak-divergence moment ")
    assert str(err.value).endswith(" exceeds 1e-06 at step 1")


def test_divergence_gate_reads_the_corrected_moments(monkeypatch):
    # the gate's moments are those of weak_div_moments on u^{n+1}: with
    # the bound just above the step's own value the step passes, just
    # below it fails
    mesh = build_structured_unit_square(16)
    s2, s1 = SpaceP2Vector(mesh), SpaceP1(mesh)
    ops = SchemeOperators(s2, s1)
    config = SchemeConfig(n_steps=4, t_final=1.0, corr_tol=1e-3)
    precond = prediction_precond(ops, config)
    state = initialize(s2, s1, mms.initial_velocity, ops=ops)
    new, _ = step(state, mms.forcing, ops, config, precond)
    moments = weak_div_moments(new.u, s1, grad=ops.grad, lap=ops.lap)
    ut_moments = weak_div_moments(new.u_tilde, s1, grad=ops.grad)
    value = np.abs(moments).max() / max(1.0, np.abs(ut_moments).max())
    assert value > 1e3 * np.finfo(float).eps
    monkeypatch.setattr(scheme, "DIVERGENCE_BOUND", value * (1 + 1e-6))
    step(state, mms.forcing, ops, config, precond)
    monkeypatch.setattr(scheme, "DIVERGENCE_BOUND", value * (1 - 1e-6))
    with pytest.raises(SchemeError, match="at step 1$"):
        step(state, mms.forcing, ops, config, precond)


# ---------------------------------------------------------------------------
# trajectory diagnostics

def test_time_translate_zero_for_constant_trajectory(setup4):
    s2, s1, ops = setup4
    config = SchemeConfig(n_steps=4, t_final=1.0, store_fields=True)
    result = run(s2, s1, zero_u0, zero_f, config, ops=ops)
    assert time_translate_diagnostic(result, 0.3) == 0.0


def test_time_translate_two_step_closed_form(setup4):
    s2, s1, ops = setup4
    config = SchemeConfig(n_steps=2, t_final=1.0, store_fields=True)
    result = run(s2, s1, mms.initial_velocity, mms.forcing, config, ops=ops)
    tau = result.dt
    d = (result.u_history[2].p2_part.coeffs
         - result.u_history[1].p2_part.coeffs)
    expected = (config.t_final - tau) * ops.l2_norm_sq_p2(d)
    got = time_translate_diagnostic(result, tau)
    assert abs(got - expected) <= 1e-12 * max(1.0, expected)


def _translate_sampled(result, tau, m=20000):
    """The time-translate integral by the midpoint rule on m points."""
    dt, n = result.dt, result.config.n_steps
    ut = [u.p2_part.coeffs for u in result.u_history[1:]]
    total = 0.0
    for t in (np.arange(m) + 0.5) * (result.config.t_final - tau) / m:
        i = min(int(t / dt), n - 1)
        j = min(int((t + tau) / dt), n - 1)
        if i != j:
            total += result.ops.l2_norm_sq_p2(ut[j] - ut[i])
    return total * (result.config.t_final - tau) / m


def test_time_translate_matches_brute_force(setup4):
    s2, s1, ops = setup4
    config = SchemeConfig(n_steps=5, t_final=1.0, store_fields=True)
    result = run(s2, s1, mms.initial_velocity, mms.forcing, config, ops=ops)
    tau = 0.23
    exact = time_translate_diagnostic(result, tau)
    total = _translate_sampled(result, tau)
    assert abs(exact - total) <= 5e-3 * max(exact, 1e-30)


@pytest.fixture(scope="module")
def translate_runs(setup4):
    s2, s1, ops = setup4
    return {n: run(s2, s1, mms.initial_velocity, mms.forcing,
                   SchemeConfig(n_steps=n, t_final=1.0, store_fields=True),
                   ops=ops) for n in (2, 5, 8)}


@pytest.mark.parametrize("n", [2, 5, 8])
def test_time_translate_on_and_just_below_the_grid(translate_runs, n):
    # tau = k dt (theta = 0) and tau just below (k + 1) dt (theta near 1),
    # against the cut enumeration and the sampled integral
    result = translate_runs[n]
    dt = result.dt
    taus = [k * dt for k in range(1, n)]
    taus += [(k + 1 - 1e-9) * dt for k in range(n)]
    for tau in taus:
        got = time_translate_diagnostic(result, tau)
        assert got > 0.0
        assert abs(got - time_translate_cuts(result, tau)) <= 1e-12 * got
        assert abs(got - _translate_sampled(result, tau, 2000)) <= 5e-3 * got


def test_time_translate_rejects_bad_tau(setup4):
    s2, s1, ops = setup4
    config = SchemeConfig(n_steps=2, t_final=1.0, store_fields=True)
    result = run(s2, s1, zero_u0, zero_f, config, ops=ops)
    with pytest.raises(ValueError):
        time_translate_diagnostic(result, 1.5)
    with pytest.raises(ValueError):
        time_translate_diagnostic(result, 0.0)


def test_l2l2_error_rejects_an_unknown_trajectory(setup4):
    s2, s1, ops = setup4
    config = SchemeConfig(n_steps=2, t_final=1.0, store_fields=True)
    result = run(s2, s1, zero_u0, zero_f, config, ops=ops)
    with pytest.raises(ValueError, match="which"):
        l2l2_velocity_error(result, mms.velocity, which="uu")


@pytest.mark.parametrize("which", ["u", "ut"])
def test_l2l2_error_needs_stored_fields(setup4, which):
    s2, s1, ops = setup4
    config = SchemeConfig(n_steps=2, t_final=1.0)
    result = run(s2, s1, zero_u0, zero_f, config, ops=ops)
    with pytest.raises(ValueError, match="store fields"):
        l2l2_velocity_error(result, mms.velocity, which=which)


@pytest.fixture(scope="module")
def stored_mms_runs(irregular_mesh):
    runs = {}
    for name, mesh in (("irregular", irregular_mesh),
                       ("structured8", build_structured_unit_square(8))):
        s2, s1 = SpaceP2Vector(mesh), SpaceP1(mesh)
        config = SchemeConfig(n_steps=4, t_final=1.0, store_fields=True)
        runs[name] = run(s2, s1, mms.initial_velocity, mms.forcing, config)
    return runs


@pytest.mark.parametrize("name", ["irregular", "structured8"])
@pytest.mark.parametrize("which", ["u", "ut"])
def test_l2l2_error_bitwise_equals_the_reduce_form(stored_mms_runs, name,
                                                   which):
    # sq[..., 0] + sq[..., 1] is the length-2 reduce's own a0 + a1
    result = stored_mms_runs[name]
    got = l2l2_velocity_error(result, mms.velocity, which=which)
    assert got > 0.0
    assert got == l2l2_velocity_error_reduce(result, mms.velocity, which)


# ---------------------------------------------------------------------------
# pathological meshes

@pytest.mark.parametrize("n_cells", [1, 3])
def test_scheme_runs_on_all_boundary_cell_meshes(n_cells):
    mesh = build_pathological_mesh(n_cells=n_cells)
    s2 = SpaceP2Vector(mesh)
    s1 = SpaceP1(mesh, zero_mean=True)
    config = SchemeConfig(n_steps=10, t_final=1.0)
    result = run(s2, s1, mms.initial_velocity, mms.forcing, config)
    assert len(result.diagnostics) == 10
    assert all(np.isfinite(d.u_l2) for d in result.diagnostics)


def test_single_triangle_velocity_space_is_trivial():
    mesh = build_pathological_mesh(n_cells=1)
    s2 = SpaceP2Vector(mesh)
    assert len(s2.interior_dofs) == 0


def test_smallest_structured_mesh_runs():
    mesh = build_structured_unit_square(1)
    s2 = SpaceP2Vector(mesh)
    assert len(s2.interior_dofs) == 1       # the diagonal midpoint
    s1 = SpaceP1(mesh, zero_mean=True)
    config = SchemeConfig(n_steps=3, t_final=1.0)
    result = run(s2, s1, mms.initial_velocity, mms.forcing, config)
    assert max(d.energy_residual for d in result.diagnostics) <= 1e-8


def test_unforced_flow_dissipates():
    # with zero forcing the energy identity forces the kinetic energy of
    # the corrected velocity to decrease monotonically
    mesh = build_structured_unit_square(8)
    s2 = SpaceP2Vector(mesh)
    s1 = SpaceP1(mesh, zero_mean=True)

    def u0(pts):
        return mms.velocity(pts, np.pi / 2.0)

    config = SchemeConfig(n_steps=6, t_final=0.3)
    result = run(s2, s1, u0, zero_f, config)
    norms = [d.u_l2 for d in result.diagnostics]
    assert norms[0] > 0.0
    for a, b in zip(norms, norms[1:]):
        assert b < a


# ---------------------------------------------------------------------------
# AMG-preconditioned solves

def _perturbed_mesh(n, seed):
    """Structured n x n mesh, interior vertices moved by a seeded offset
    below a quarter cell (as the irregular_mesh fixture)."""
    base = build_structured_unit_square(n)
    verts = base.vertices.copy()
    inner = base.interior_vertices
    verts[inner] += (np.random.default_rng(seed).uniform(
        -1.0, 1.0, size=(len(inner), 2)) * 0.25 / n)
    return build_from_arrays(verts, base.cells)


@pytest.mark.parametrize("which", ["structured", "irregular", "irregular16",
                                   "all_boundary_cell1", "all_boundary_cell3",
                                   "structured12"])
def test_preconditioned_solves_agree_with_plain(which, irregular_mesh, rng):
    mesh = {
        "structured": lambda: build_structured_unit_square(16),
        "irregular": lambda: irregular_mesh,
        "irregular16": lambda: _perturbed_mesh(16, 7),
        "all_boundary_cell1": lambda: build_pathological_mesh(n_cells=1),
        "all_boundary_cell3": lambda: build_pathological_mesh(n_cells=3),
        "structured12": lambda: build_structured_unit_square(12),
    }[which]()
    s2 = SpaceP2Vector(mesh)
    s1 = SpaceP1(mesh, zero_mean=True)
    ops = SchemeOperators(s2, s1)
    dt = 0.1
    wind = FieldP2Vector(s2, mms.velocity(s2.node_coordinates(), 0.7))
    system = ops.prediction_system(dt, assemble_convection(s2, wind))
    rhs = rng.standard_normal(system.shape[0])
    amg = ops.prediction_precond(dt)
    x_plain, plain = bicgstab_solve(system, rhs)
    x_amg, report = bicgstab_solve(system, rhs, precond=amg)
    assert plain.converged and report.converged
    assert report.iterations <= plain.iterations
    assert (np.linalg.norm(x_amg - x_plain)
            <= 1e-9 * max(np.linalg.norm(x_plain), 1e-300))

    q = rng.standard_normal(s1.ndof)
    rhs = ops.lap.matvec(q)
    w = ops.p1_weights
    q_plain, plain = cg_solve(ops.lap, rhs, mean_weights=w)
    q_amg, report = cg_solve(ops.lap, rhs, mean_weights=w,
                             precond=ops.pressure_precond)
    assert plain.converged and report.converged
    assert np.abs(w @ q_amg) <= 1e-14 * w.sum() * np.abs(q_amg).max()
    assert np.linalg.norm(q_amg - q_plain) <= 1e-9 * np.linalg.norm(q_plain)


def test_prediction_iterations_flat_under_refinement():
    per_component = []
    for n in (8, 16, 32):
        mesh = build_structured_unit_square(n)
        s2 = SpaceP2Vector(mesh)
        s1 = SpaceP1(mesh, zero_mean=True)
        config = SchemeConfig(n_steps=2, t_final=1.0)
        result = run(s2, s1, mms.initial_velocity, mms.forcing, config)
        per_component.append(
            sum(d.pred_iters for d in result.diagnostics) / 4.0)
    # unpreconditioned, about 80, 160 and 300
    assert max(per_component) <= 1.5 * min(per_component)
    assert max(per_component) <= 40


def test_multilevel_runs_write_identical_diagnostics():
    texts = []
    for _ in range(2):
        mesh = _perturbed_mesh(12, 3)
        s2 = SpaceP2Vector(mesh)
        s1 = SpaceP1(mesh, zero_mean=True)
        ops = SchemeOperators(s2, s1)
        config = SchemeConfig(n_steps=3, t_final=0.3)
        result = run(s2, s1, mms.initial_velocity, mms.forcing, config,
                     ops=ops)
        assert len(hierarchy_sizes(ops.pressure_precond)) >= 2
        texts.append(diagnostics_csv(result.diagnostics))
    assert texts[0] == texts[1]


def test_solves_go_through_the_scheme_module_names(monkeypatch):
    # the benchmark's tracer wraps projnav.scheme.bicgstab_solve and
    # projnav.scheme.cg_solve; a direct call elsewhere would escape it
    calls = []

    def counting(name, solve):
        def wrapped(*args, **kwargs):
            calls.append((name, kwargs.get("precond") is not None))
            return solve(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(scheme, "bicgstab_solve",
                        counting("bicgstab", scheme.bicgstab_solve))
    monkeypatch.setattr(scheme, "cg_solve", counting("cg", scheme.cg_solve))
    mesh = build_structured_unit_square(3)
    s2 = SpaceP2Vector(mesh)
    s1 = SpaceP1(mesh, zero_mean=True)
    config = SchemeConfig(n_steps=2, t_final=1.0)
    run(s2, s1, mms.initial_velocity, mms.forcing, config)
    assert calls == [("cg", True)] + [("bicgstab", True)] * 2 + [
        ("cg", True)] + [("bicgstab", True)] * 2 + [("cg", True)]


def test_warm_started_step_takes_fewer_iterations():
    # n = 12 is the coarsest structured mesh whose pressure hierarchy has
    # two levels; on one dense level every projection takes one iteration
    mesh = build_structured_unit_square(12)
    s2 = SpaceP2Vector(mesh)
    s1 = SpaceP1(mesh, zero_mean=True)
    ops = SchemeOperators(s2, s1)
    k = scheme.GUESS_HISTORY
    config = SchemeConfig(n_steps=k + 2, t_final=0.005 * (k + 2))
    state = initialize(s2, s1, mms.initial_velocity, ops=ops)
    assert state.ut_history == () and state.dp_history == ()
    precond = prediction_precond(ops, config)
    states = [state]
    for _ in range(config.n_steps):
        state, _ = step(state, mms.forcing, ops, config, precond)
        states.append(state)
    inner = ops.interior
    # each history holds the last k solutions, newest first
    for n, cur in enumerate(states[1:], start=1):
        assert (len(cur.ut_history) == len(cur.a_ut_history)
                == len(cur.dp_history) == min(n, k))
        for back, (ut, dp) in enumerate(zip(cur.ut_history,
                                            cur.dp_history)):
            assert np.array_equal(ut, states[n - back].u_tilde.coeffs[inner])
            assert np.array_equal(dp, states[n - back].p.coeffs
                                  - states[n - back - 1].p.coeffs)

    cold = dataclasses.replace(state, ut_history=(), dp_history=())
    load = assemble_load(s2, mms.forcing, state.t, state.t + config.dt)
    ut, warm_pred, _ = predict(state, load, ops, config, precond)
    ut_cold, cold_pred, _ = predict(cold, load, ops, config, precond)
    assert warm_pred < cold_pred
    # the carried products left beside an emptied history are not read
    bare = dataclasses.replace(cold, a_ut_history=(), lap_dp_history=())
    ut_bare, bare_pred, _ = predict(bare, load, ops, config, precond)
    assert bare_pred == cold_pred
    assert np.array_equal(ut_bare.coeffs, ut_cold.coeffs)
    scale = np.abs(ut_cold.coeffs).max()
    assert np.abs(ut.coeffs - ut_cold.coeffs).max() <= 1e-10 * scale
    p, _, warm_corr = correct(state, ut, ops, config)
    p_cold, _, cold_corr = correct(cold, ut, ops, config)
    assert warm_corr < cold_corr
    assert (np.abs(p.coeffs - p_cold.coeffs).max()
            <= 1e-10 * np.abs(p_cold.coeffs).max())


@pytest.mark.parametrize("key, value", [
    ("pred_tol", float("nan")), ("pred_tol", -1.0), ("pred_tol", 0.0),
    ("pred_tol", 1.0), ("corr_tol", float("nan")), ("corr_tol", 0.0),
    ("corr_tol", 2.0), ("t_final", float("inf")), ("t_final", float("nan")),
    ("t_final", 0.0), ("t_final", -1.0)])
def test_config_rejects_a_bad_tolerance_or_time(key, value):
    # each would otherwise reach a solve (a nan or nonpositive tolerance
    # ends as a numerical failure at step 1) or run with no finite dt
    with pytest.raises(ValueError, match=key):
        SchemeConfig(**{"n_steps": 2, "t_final": 1.0, key: value})


def test_config_accepts_the_open_ranges():
    config = SchemeConfig(n_steps=1, t_final=1e300, pred_tol=0.999,
                          corr_tol=1e-300)
    assert config.dt == 1e300


def test_step_carries_the_laplacian_of_each_pressure_increment(setup4):
    s2, s1, ops = setup4
    config = SchemeConfig(n_steps=scheme.GUESS_HISTORY + 1, t_final=0.05)
    state = initialize(s2, s1, mms.initial_velocity, ops=ops)
    assert state.lap_dp_history == ()
    precond = prediction_precond(ops, config)
    for n in range(1, config.n_steps + 1):
        state, _ = step(state, mms.forcing, ops, config, precond)
        assert (len(state.lap_dp_history) == len(state.dp_history)
                == min(n, scheme.GUESS_HISTORY))
        for dp, lap_dp in zip(state.dp_history, state.lap_dp_history):
            assert np.array_equal(lap_dp, ops.lap.matvec(dp))


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def test_step_carries_the_product_of_each_prediction(setup4):
    # each product in a_ut_history is that of its solution with the
    # system of the step that solved it, as the guess would form it
    s2, s1, ops = setup4
    config = SchemeConfig(n_steps=scheme.GUESS_HISTORY + 2, t_final=0.05)
    state = initialize(s2, s1, mms.initial_velocity, ops=ops)
    precond = prediction_precond(ops, config)
    states = [state]
    for _ in range(config.n_steps):
        state, _ = step(state, mms.forcing, ops, config, precond)
        states.append(state)
    # the system of step k, from the prediction of the step before it
    systems = [None] + [ops.prediction_system(config.dt, assemble_convection(
        s2, before.u_tilde)) for before in states[:-1]]
    for n, cur in enumerate(states):
        assert (len(cur.a_ut_history) == len(cur.ut_history)
                == min(n, scheme.GUESS_HISTORY))
        for back, (ut, a_ut) in enumerate(zip(cur.ut_history,
                                              cur.a_ut_history)):
            for c in range(2):
                assert _same_bits(a_ut[:, c],
                                  systems[n - back] @ ut[:, c])


def test_carried_products_keep_every_audit_bit(irregular_mesh, monkeypatch):
    # the audit, the right-hand sides and the stored norms read products
    # carried from the step that formed them; each equals, as bytes, what
    # forming every product afresh gives
    s2 = SpaceP2Vector(irregular_mesh)
    s1 = SpaceP1(irregular_mesh, zero_mean=True)
    ops = SchemeOperators(s2, s1)
    config = SchemeConfig(n_steps=scheme.GUESS_HISTORY + 3, t_final=0.1)
    dt = config.dt
    rhs_seen = []

    def recording(solve):
        def wrapped(a, rhs, **kwargs):
            rhs_seen.append(rhs)
            return solve(a, rhs, **kwargs)
        return wrapped

    monkeypatch.setattr(scheme, "bicgstab_solve",
                        recording(scheme.bicgstab_solve))
    monkeypatch.setattr(scheme, "cg_solve", recording(scheme.cg_solve))
    state = initialize(s2, s1, mms.initial_velocity, ops=ops)
    precond = prediction_precond(ops, config)
    n2, idx = s2.n_scalar, ops.interior
    for _ in range(config.n_steps):
        rhs_seen.clear()
        load = assemble_load(s2, mms.forcing, state.t, state.t + dt)
        new, diag = step(state, mms.forcing, ops, config, precond)
        fresh = step_audit_fresh(ops, state, new, load, dt)
        for name in scheme.DIAGNOSTICS_HEADER[2:8]:
            assert _same_bits(getattr(diag, name), getattr(fresh, name)), name
        assert _same_bits(new.u_sq, composite_norm_sq_fresh(ops, new.u))
        rhs_flat = (moment_vector_fresh(ops, state.u) / dt + load
                    - ops.grad.matvec(state.p.coeffs))
        assert len(rhs_seen) == 3
        for c in range(2):
            assert _same_bits(rhs_seen[c], rhs_flat[c * n2:(c + 1) * n2][idx])
        assert _same_bits(rhs_seen[2],
                          ops.grad.rmatvec(new.u_tilde.flat()) / dt)
        state = new


def test_stored_fields_hold_no_carried_products(setup4):
    # the carried products live on the state alone: the fields a run
    # keeps for every step hold their coefficients and nothing else
    s2, s1, ops = setup4
    config = SchemeConfig(n_steps=4, t_final=0.1, store_fields=True)
    result = run(s2, s1, mms.initial_velocity, mms.forcing, config, ops=ops)
    assert result.state.u_products is not None
    assert len(result.u_history) == config.n_steps + 1
    for u in result.u_history:
        assert set(vars(u)) == {"p2_part", "grad_part", "scale"}
        for part in (u.p2_part, u.grad_part):
            assert set(vars(part)) == {"space", "coeffs"}
