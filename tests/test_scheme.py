import dataclasses
from fractions import Fraction
from math import factorial, prod

import numpy as np
import pytest

from projnav import mms, scheme
from projnav.fem import (FieldP2Vector, SpaceP1, SpaceP2Vector,
                         assemble_convection, assemble_load, weak_div_moments)
from projnav.interp import pi_n
from projnav.mesh import (build_from_arrays, build_pathological_mesh,
                          build_structured_unit_square)
from projnav.scheme import (SchemeConfig, SchemeError, SchemeOperators,
                            correct, diagnostics_csv, gap_l2l2, initialize,
                            predict, run, step, time_translate_diagnostic)
from projnav.sparse import (CsrMatrix, SmoothedAggregation, bicgstab_solve,
                            cg_solve)

from oracles import l2_inner


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
    return SmoothedAggregation(ops.prediction_system(config.dt))


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
    w = scheme.interpolate_p2(s2, u0)
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
    ut, _ = predict(state, load, ops, config, prediction_precond(ops, config))
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
    ut, _ = predict(state, load, ops, config, prediction_precond(ops, config))

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
    ut, _ = predict(state, load, ops, config, precond)
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


def test_step_makes_no_from_coo_call(monkeypatch):
    calls = []
    from_coo = CsrMatrix.from_coo.__func__

    def counting(cls, *args, **kwargs):
        calls.append(1)
        return from_coo(cls, *args, **kwargs)

    monkeypatch.setattr(CsrMatrix, "from_coo", classmethod(counting))
    mesh = build_structured_unit_square(3)
    s2 = SpaceP2Vector(mesh)
    s1 = SpaceP1(mesh, zero_mean=True)
    ops = SchemeOperators(s2, s1)
    config = SchemeConfig(n_steps=2, t_final=1.0)
    state = initialize(s2, s1, mms.initial_velocity, ops=ops)
    precond = prediction_precond(ops, config)
    assert calls            # the patterns, coupling and hierarchies are built
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
    ut, _ = predict(state, load, ops, config, precond)
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


def test_solver_failure_aborts_with_step_index(setup4):
    s2, s1, ops = setup4
    # at n=4 the preconditioner is a dense inverse of M/dt + K, which
    # solves step 1 (no convection yet) in one iteration
    config = SchemeConfig(n_steps=3, t_final=1.0, max_iter=0)
    with pytest.raises(SchemeError) as err:
        run(s2, s1, mms.initial_velocity, mms.forcing, config, ops=ops)
    assert err.value.step_index == 1


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
    d = result.u_tilde_history[1].coeffs - result.u_tilde_history[0].coeffs
    expected = (config.t_final - tau) * ops.l2_norm_sq_p2(d)
    got = time_translate_diagnostic(result, tau)
    assert abs(got - expected) <= 1e-12 * max(1.0, expected)


def test_time_translate_matches_brute_force(setup4):
    s2, s1, ops = setup4
    config = SchemeConfig(n_steps=5, t_final=1.0, store_fields=True)
    result = run(s2, s1, mms.initial_velocity, mms.forcing, config, ops=ops)
    tau = 0.23
    exact = time_translate_diagnostic(result, tau)
    m = 20000
    dt = result.dt
    total = 0.0
    for t in (np.arange(m) + 0.5) * (config.t_final - tau) / m:
        i = min(int(t / dt), config.n_steps - 1)
        j = min(int((t + tau) / dt), config.n_steps - 1)
        if i != j:
            d = (result.u_tilde_history[j].coeffs
                 - result.u_tilde_history[i].coeffs)
            total += ops.l2_norm_sq_p2(d)
    total *= (config.t_final - tau) / m
    assert abs(exact - total) <= 5e-3 * max(exact, 1e-30)


def test_time_translate_rejects_bad_tau(setup4):
    s2, s1, ops = setup4
    config = SchemeConfig(n_steps=2, t_final=1.0, store_fields=True)
    result = run(s2, s1, zero_u0, zero_f, config, ops=ops)
    with pytest.raises(ValueError):
        time_translate_diagnostic(result, 1.5)
    with pytest.raises(ValueError):
        time_translate_diagnostic(result, 0.0)


# ---------------------------------------------------------------------------
# pathological meshes

@pytest.mark.parametrize("n_cells", [1, 3])
def test_scheme_runs_on_all_boundary_cell_meshes(n_cells):
    mesh = build_pathological_mesh("all_boundary_cell", n_cells=n_cells)
    s2 = SpaceP2Vector(mesh)
    s1 = SpaceP1(mesh, zero_mean=True)
    config = SchemeConfig(n_steps=10, t_final=1.0)
    result = run(s2, s1, mms.initial_velocity, mms.forcing, config)
    assert len(result.diagnostics) == 10
    assert all(np.isfinite(d.u_l2) for d in result.diagnostics)


def test_single_triangle_velocity_space_is_trivial():
    mesh = build_pathological_mesh("all_boundary_cell", n_cells=1)
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
                                   "boundary_strip"])
def test_preconditioned_solves_agree_with_plain(which, irregular_mesh, rng):
    mesh = {
        "structured": lambda: build_structured_unit_square(16),
        "irregular": lambda: irregular_mesh,
        "irregular16": lambda: _perturbed_mesh(16, 7),
        "all_boundary_cell1": lambda: build_pathological_mesh(
            "all_boundary_cell", n_cells=1),
        "all_boundary_cell3": lambda: build_pathological_mesh(
            "all_boundary_cell", n_cells=3),
        "boundary_strip": lambda: build_pathological_mesh(
            "boundary_strip", n=12),
    }[which]()
    s2 = SpaceP2Vector(mesh)
    s1 = SpaceP1(mesh, zero_mean=True)
    ops = SchemeOperators(s2, s1)
    dt = 0.1
    wind = FieldP2Vector(s2, mms.velocity(s2.node_coordinates(), 0.7))
    system = ops.prediction_system(dt, assemble_convection(s2, wind))
    rhs = rng.standard_normal(system.shape[0])
    amg = SmoothedAggregation(ops.prediction_system(dt))
    x_plain, plain = bicgstab_solve(system, rhs)
    x_amg, report = bicgstab_solve(system, rhs, precond=amg)
    assert plain.converged and report.converged
    assert report.iterations <= plain.iterations
    assert (np.linalg.norm(x_amg - x_plain)
            <= 1e-9 * max(np.linalg.norm(x_plain), 1e-300))

    q = rng.standard_normal(s1.ndof)
    rhs = ops.lap.matvec(q)
    w = ops.p1_weights
    q_plain, plain = cg_solve(ops.lap, rhs, deflate_constants=True,
                              mean_weights=w)
    q_amg, report = cg_solve(ops.lap, rhs, deflate_constants=True,
                             mean_weights=w, precond=ops.pressure_precond)
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
        assert len(ops.pressure_precond.sizes) >= 2
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
    config = SchemeConfig(n_steps=4, t_final=0.02)
    state = initialize(s2, s1, mms.initial_velocity, ops=ops)
    assert state.ut_guess is None and state.dp_guess is None
    precond = prediction_precond(ops, config)
    states = [state]
    for _ in range(config.n_steps):
        state, _ = step(state, mms.forcing, ops, config, precond)
        states.append(state)
    inner = ops.interior
    # step 2 starts from ut^1, every later step from 2 ut^n - ut^(n-1)
    assert np.array_equal(states[1].ut_guess,
                          states[1].u_tilde.coeffs[inner])
    for prev, cur in zip(states[1:], states[2:]):
        assert np.array_equal(cur.ut_guess,
                              2.0 * cur.u_tilde.coeffs[inner]
                              - prev.u_tilde.coeffs[inner])
        assert np.array_equal(cur.dp_guess, cur.p.coeffs - prev.p.coeffs)

    cold = dataclasses.replace(state, ut_guess=None, dp_guess=None)
    load = assemble_load(s2, mms.forcing, state.t, state.t + config.dt)
    ut, warm_pred = predict(state, load, ops, config, precond)
    ut_cold, cold_pred = predict(cold, load, ops, config, precond)
    assert warm_pred < cold_pred
    scale = np.abs(ut_cold.coeffs).max()
    assert np.abs(ut.coeffs - ut_cold.coeffs).max() <= 1e-10 * scale
    p, _, warm_corr = correct(state, ut, ops, config)
    p_cold, _, cold_corr = correct(cold, ut, ops, config)
    assert warm_corr < cold_corr
    assert (np.abs(p.coeffs - p_cold.coeffs).max()
            <= 1e-10 * np.abs(p_cold.coeffs).max())
