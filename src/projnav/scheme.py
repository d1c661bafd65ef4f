"""Incremental pressure-correction time loop with per-step audits.

Each step solves the viscous prediction system (one scalar solve per
velocity component, both with the same matrix) carrying the previous
pressure gradient, then a pressure-increment Poisson projection.  The
corrected velocity is kept as a composite object (quadratic part minus
dt times a piecewise-constant increment gradient) and never collapsed
onto a nodal field.

Diagnostics record every term of the exact per-step energy balance

    (|u^{n+1}|^2 - |u^n|^2) / (2 dt) + dt (|grad p^{n+1}|^2 - |grad p^n|^2) / 2
    + |ut^{n+1} - u^n|^2 / (2 dt) + |ut^{n+1}|_{H1}^2 = <f^{n+1}, ut^{n+1}>

whose residual is what the solves leave,
sum_c r_c . ut_c + dt r_q . p^{n+1}, with r_c the residual of prediction
component c, r_q that of the projection and p^{n+1} = p^n + q before
re-centring.  Each solve of a step may stop once its share of that defect
is within the step's budget (``_energy_budget``).  ``step`` fails a step
whose relative residual exceeds ENERGY_BOUND, or whose corrected velocity
keeps weak-divergence moments above DIVERGENCE_BOUND.

From the second step on, both solves start from the combination of their
last GUESS_HISTORY solutions whose carried products with the systems they
solved best fit the step's right-hand side (``sparse.projected_guess``):
the right-hand sides change slowly from step to step, so the guess leaves
the Krylov solvers only a few decades to gain.
"""

from dataclasses import dataclass, field as dataclass_field, fields
from functools import cached_property

import numpy as np

from .fem import (FieldP1Scalar, FieldP2Vector, CompositeVelocity,
                  DEFAULT_RULE, assemble_convection, assemble_grad_coupling,
                  assemble_load, assemble_mass_p1, assemble_mass_p2,
                  assemble_pressure_laplacian, assemble_stiffness_p2,
                  p2_values_at, rule_points)
from .interp import lagrange_p2
from .quadrature import gauss_legendre_01
from .sparse import (CsrMatrix, SmoothedAggregation, SolverError,
                     bicgstab_solve, cg_solve, projected_guess)

__all__ = [
    "SchemeConfig", "SchemeState", "StepDiagnostics", "SchemeError",
    "SchemeOperators", "RunResult",
    "initialize", "predict", "correct", "step", "run",
    "l2l2_velocity_error",
    "csv_text", "diagnostics_csv", "DIAGNOSTICS_HEADER", "ENERGY_BOUND",
    "DIVERGENCE_BOUND", "ENERGY_TARGET",
]

# earlier solutions each solve's starting guess combines; their products
# are carried, so a column costs least-squares work, no matvec.  On
# ns-long (seed 1, before the energy stop) 4/6/8/10 of them took the
# summed prediction iterations to 2 364/1 592/1 379/1 333
GUESS_HISTORY = 6

# largest relative energy residual a step may leave, for any solver
# tolerance; the default 1e-12 solves leave ~1e-17 to ~1e-14
ENERGY_BOUND = 1e-8
# energy defect the solves of one step aim at, relative to max(1, |work|)
# of the step before: half for the projection, a quarter per prediction
# component
ENERGY_TARGET = 1e-15
# largest weak-divergence moment of a corrected velocity, relative to
# max(1, the largest moment of the prediction it corrects); the moments
# are dt times the projection's residual, linear in it where the energy
# residual is quadratic, so 1e-2 solves (2.5e-7 on step 1 at n = 16) pass
# and the default ones leave ~1e-16
DIVERGENCE_BOUND = 1e-6


class SchemeError(RuntimeError):
    def __init__(self, message, step_index=None, report=None):
        super().__init__(message)
        self.step_index = step_index
        self.report = report


@dataclass
class SchemeConfig:
    n_steps: int
    t_final: float
    pred_tol: float = 1e-12
    corr_tol: float = 1e-12
    skip_convection: bool = False
    store_fields: bool = False

    def __post_init__(self):
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        for key, top in ("t_final", np.inf), ("pred_tol", 1), ("corr_tol", 1):
            if not 0.0 < getattr(self, key) < top:
                raise ValueError(f"{key} must lie in (0, {top:g})")

    @property
    def dt(self):
        return self.t_final / self.n_steps


@dataclass
class SchemeState:
    """The fields after step ``n``, and the earlier solutions the next
    step's solves start from, newest first and at most GUESS_HISTORY of
    each: ``ut_history`` holds the interior prediction coefficients, each
    (m, 2), ``a_ut_history`` their products with the systems that solved
    them, ``dp_history`` the pressure increments and ``lap_dp_history``
    their Laplacians.  Empty histories (``initialize``'s) give cold solves.
    ``u_products`` are ``SchemeOperators.products`` of u (None: formed when
    read).  ``u_sq`` and ``gradp_sq`` are |u|^2 and |grad p|^2, which the
    next step's energy audit reads, and ``work`` the step's <f, ut>, which
    sizes the next step's solver budgets.  Each product is formed once and
    carried here, never on the fields, which ``run`` may keep."""
    n: int
    t: float
    u_tilde: FieldP2Vector
    u: CompositeVelocity
    p: FieldP1Scalar
    u_sq: float
    gradp_sq: float
    work: float = 0.0
    u_products: tuple = None
    ut_history: tuple = ()
    a_ut_history: tuple = ()
    dp_history: tuple = ()
    lap_dp_history: tuple = ()


@dataclass
class StepDiagnostics:
    n: int
    t: float
    energy_residual: float
    u_l2: float
    ut_l2: float
    ut_h1: float
    gradp_l2: float
    gap_l2: float
    pred_iters: int
    corr_iters: int

    def row(self):
        return tuple(getattr(self, name) for name in DIAGNOSTICS_HEADER)


DIAGNOSTICS_HEADER = tuple(f.name for f in fields(StepDiagnostics))


def _solve(solver, a, rhs, history, products, step_index, what,
           component=None, **options):
    """Solve a x = rhs with ``solver``, as the caller looks it up, from the
    combination of ``history`` whose carried ``products`` best fit rhs;
    ``options`` go to the solver.  Returns (x, iterations).  A rejected or
    unconverged solve raises SchemeError naming ``what``, ``step_index``
    and any velocity ``component``."""
    x0 = projected_guess(history, products, rhs)
    try:
        x, report = solver(a, rhs, x0=x0, **options)
    except SolverError as err:
        raise SchemeError(f"{what} solve rejected at step {step_index}: "
                          f"{err}", step_index) from err
    if not report.converged:
        part = "" if component is None else f"component {component}, "
        raise SchemeError(
            f"{what} solve failed at step {step_index} "
            f"({part}residual {report.residual:.3e})", step_index, report)
    return x, report.iterations


def _interior_block(a, mask):
    """(keep, pattern): the stored entries of ``a`` in rows and columns
    where ``mask`` holds, and their CSR pattern (zero values) on those
    dofs, numbered in order, so ``a.data[keep]`` is in the pattern's
    order."""
    rows, cols = a.row_indices(), a.indices
    keep = mask[rows] & mask[cols]
    local = np.cumsum(mask) - 1
    m = np.count_nonzero(mask)
    indptr = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(np.bincount(local[rows[keep]], minlength=m), out=indptr[1:])
    return keep, CsrMatrix(indptr, local[cols[keep]], np.zeros(indptr[-1]),
                           (m, m))


class SchemeOperators:
    """Time-independent operators of one (mesh, spaces) pair, and every
    product, norm and projection the scheme computes from them."""

    def __init__(self, space2, space1):
        if space2.mesh is not space1.mesh:
            raise ValueError("velocity and pressure spaces must share a mesh")
        self.space2 = space2
        self.space1 = space1
        self.mass = assemble_mass_p2(space2)
        self.stiffness = assemble_stiffness_p2(space2)
        self.grad = assemble_grad_coupling(space2, space1)
        self.lap = assemble_pressure_laplacian(space1)
        self.p1_weights = space1.mass_row_weights()
        self.interior = space2.interior_dofs
        # the P2 pattern, which mass, stiffness and every convection
        # matrix share, on the interior dofs
        self._keep, self._interior = _interior_block(self.mass,
                                                     space2.interior_mask)

    def prediction_system(self, dt, conv=None):
        """M/dt + K (+ C) on the interior dofs, as one CSR matrix."""
        # grouped as M/dt + (K + C); another grouping moves the last bits
        # of every run's output
        kc = self.stiffness.data
        if conv is not None:
            kc = kc + conv.data
        return self._interior.with_data(
            ((1.0 / dt) * self.mass.data + kc)[self._keep])

    def p1_embedding(self):
        """The interior P1 functions inside the interior P2 ones, as a CSR
        matrix P (interior P2 dofs x interior vertices): a vertex dof
        takes 1 from its vertex, an edge midpoint dof 0.5 from each
        interior end of its edge.  The midpoint of an interior edge with
        both ends on the boundary (one at two corners of a structured
        square) gets an empty row: the smoother alone reaches it.  Built
        per call and not kept (at n = 64, 1.3 ms against 0.55 MiB held
        for the operators' lifetime); the hierarchy holds its transpose."""
        mesh = self.space2.mesh
        n_inner = len(mesh.interior_vertices)
        col = np.full(mesh.n_vertices, -1, dtype=np.int64)
        col[mesh.interior_vertices] = np.arange(n_inner)
        # edges are stored as sorted vertex pairs and col is increasing on
        # the interior vertices, so each midpoint row stays sorted; a -1
        # marks a boundary end, which contributes nothing
        ends = col[mesh.edges[~mesh.is_boundary_edge]]
        reached = ends >= 0
        indptr = np.zeros(len(self.interior) + 1, dtype=np.int64)
        np.cumsum(np.concatenate([np.ones(n_inner, dtype=np.int64),
                                  reached.sum(axis=1)]), out=indptr[1:])
        return CsrMatrix(
            indptr, np.concatenate([np.arange(n_inner), ends[reached]]),
            np.concatenate([np.ones(n_inner),
                            np.full(np.count_nonzero(reached), 0.5)]),
            (len(self.interior), n_inner))

    def prediction_precond(self, dt):
        """AMG hierarchy of M/dt + K whose first coarse level is the P1
        space (``p1_embedding``), with the P1 M1/dt + K1 on the interior
        vertices as its matrix: P1 is nested in P2, so that is the
        Galerkin product P^T (M/dt + K) P up to rounding.  ``run`` builds
        one per run and drops it on return.  M1, like the embedding, is
        assembled here and not kept: held on the operators, it raised the
        ``ns-large`` peak RSS by 1.3 MiB."""
        # the vertex dofs lead the P2 ones
        inner = self.space2.interior_mask[:self.space1.ndof]
        keep, pattern = _interior_block(self.lap, inner)
        mass = assemble_mass_p1(self.space1)
        coarse = pattern.with_data(
            ((1.0 / dt) * mass.data + self.lap.data)[keep])
        return SmoothedAggregation(self.prediction_system(dt),
                                   (self.p1_embedding(), coarse))

    @cached_property
    def pressure_precond(self):
        """AMG hierarchy of the P1 Laplacian, built on the first projection
        and kept: it does not depend on the time step."""
        return SmoothedAggregation(self.lap)

    def project(self, w, scale, tol, step_index=0, history=(), products=(),
                energy=None, moments=None):
        """Discrete Helmholtz projection of a P2 field onto the weakly
        divergence free space: u = w - scale grad q with
        (grad q, grad r) = (w, grad r) / scale for every P1 r.

        The solve starts from the combination of the earlier solutions in
        ``history`` whose residual, through their carried Laplacian
        ``products``, is smallest (empty: zero), and ``energy`` goes to
        ``cg_solve`` (None: tol alone).  ``moments`` are the caller's
        G^T w (None: formed here).  Returns (u, q, iterations); q has zero
        weighted mean.  A rejected or unconverged solve raises SchemeError
        naming ``step_index``.
        """
        if moments is None:
            moments = self.grad.rmatvec(w.flat())
        q, iters = _solve(cg_solve, self.lap, moments / scale, history,
                          products, step_index, "projection", tol=tol,
                          mean_weights=self.p1_weights,
                          precond=self.pressure_precond, energy=energy)
        u = CompositeVelocity(w, FieldP1Scalar(self.space1, q), scale)
        return u, q, iters

    @staticmethod
    def _blocked(mat, coeffs):
        """A c of each component, component blocked."""
        return np.concatenate([mat.matvec(coeffs[:, 0]),
                               mat.matvec(coeffs[:, 1])])

    def l2_norm_sq_p2(self, coeffs, mass_c=None):
        """|c|^2 from M c, component blocked (None: formed here)."""
        m = self._blocked(self.mass, coeffs) if mass_c is None else mass_c
        n = len(coeffs)
        return coeffs[:, 0] @ m[:n] + coeffs[:, 1] @ m[n:]

    def h1_seminorm_sq_p2(self, coeffs):
        k_c = self._blocked(self.stiffness, coeffs)
        n = len(coeffs)
        return coeffs[:, 0] @ k_c[:n] + coeffs[:, 1] @ k_c[n:]

    def gradp_norm_sq(self, pcoeffs):
        return float(pcoeffs @ self.lap.matvec(pcoeffs))

    def products(self, u):
        """(M a, G g, L g) of a composite velocity a - s grad g, M a
        component blocked: what its norm, moments and next gap read."""
        g = u.grad_part.coeffs
        return (self._blocked(self.mass, u.p2_part.coeffs),
                self.grad.matvec(g), self.lap.matvec(g))

    def composite_norm_sq(self, u, products=None):
        """Exact |a - s grad g|^2 of a composite velocity, as
        |a|^2 - 2 s (a, grad g) + s^2 |grad g|^2 (each term quadrature
        exact), from its ``products`` (None: formed here)."""
        mass_a, grad_g, lap_g = products or self.products(u)
        s = u.scale
        return (self.l2_norm_sq_p2(u.p2_part.coeffs, mass_a)
                - 2.0 * s * (u.p2_part.flat() @ grad_g)
                + s * s * (u.grad_part.coeffs @ lap_g))

    def moment_vector(self, u, products=None):
        """(u, phi_i e_x), (u, phi_i e_y) of a composite velocity,
        component blocked, from its ``products`` (None: formed here)."""
        mass_a, grad_g, _ = products or self.products(u)
        return mass_a - u.scale * grad_g

    def gap_norm_sq(self, ut_next, u_prev, products=None):
        """|ut^{n+1} - u^n|^2 with the composite split, quadrature exact;
        ``products`` are those of u^n (None: formed here)."""
        diff = ut_next.coeffs - u_prev.p2_part.coeffs
        return self.composite_norm_sq(
            CompositeVelocity(FieldP2Vector(self.space2, diff),
                              u_prev.grad_part, -u_prev.scale),
            products and (self._blocked(self.mass, diff),) + products[1:])


def initialize(space2, space1, u0, ops=None, tol=1e-12):
    """Initial state: ut=0, p=0, u = projection of the u0 interpolant.

    The projection onto the weakly divergence free space is the discrete
    Helmholtz split u = w - grad p0 of ``SchemeOperators.project``, solved
    to ``tol`` alone: no energy balance is audited at step 0.  A non-finite
    interpolant raises SchemeError at step 0.
    """
    if ops is None:
        ops = SchemeOperators(space2, space1)
    w = u0 if isinstance(u0, FieldP2Vector) else lagrange_p2(u0, space2)
    if not np.isfinite(w.coeffs).all():
        raise SchemeError("non-finite initial velocity at step 0", 0)
    u, _, _ = ops.project(w, 1.0, tol)
    p = FieldP1Scalar(space1)
    # an overflow is reported by the first step's audit, not as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        products = ops.products(u)
        u_sq = ops.composite_norm_sq(u, products)
    return SchemeState(n=0, t=0.0, u_tilde=FieldP2Vector(space2), u=u, p=p,
                       u_sq=u_sq, gradp_sq=ops.gradp_norm_sq(p.coeffs),
                       u_products=products)


def _energy_budget(state):
    """Energy defect the solves of the step after ``state`` may leave."""
    return ENERGY_TARGET * max(1.0, abs(state.work))


def predict(state, load, ops, config, precond):
    """Viscous prediction solve; returns (ut^{n+1}, solver iterations,
    A x), x its interior coefficients and A this step's system.

    ``precond`` is the hierarchy ``ops.prediction_precond(config.dt)``;
    each component's solve starts from the combination of that component
    in ``state.ut_history`` whose products (``state.a_ut_history``) best
    fit this step's right-hand side, and may stop once r_c . ut_c is
    within a quarter of the step's energy budget."""
    dt = config.dt
    space2 = ops.space2
    idx = ops.interior
    n2 = space2.n_scalar

    conv = (None if config.skip_convection
            else assemble_convection(space2, state.u_tilde))
    system = ops.prediction_system(dt, conv)

    rhs_flat = (ops.moment_vector(state.u, state.u_products) / dt
                + load - ops.grad.matvec(state.p.coeffs))
    ut = FieldP2Vector(space2)
    a_ut = np.empty((len(idx), 2))
    energy = (0.25 * _energy_budget(state), None)
    iters = 0
    for comp in range(2):
        rhs = rhs_flat[comp * n2:(comp + 1) * n2][idx]
        x, k = _solve(bicgstab_solve, system, rhs,
                      [h[:, comp] for h in state.ut_history],
                      [h[:, comp] for h in state.a_ut_history], state.n + 1,
                      "prediction", comp, tol=config.pred_tol, precond=precond,
                      energy=energy)
        iters += k
        ut.coeffs[idx, comp] = x
        a_ut[:, comp] = system @ x
    return ut, iters, a_ut


def correct(state, ut_next, ops, config, moments=None):
    """Pressure increment Poisson solve, started from the combination of
    ``state.dp_history`` whose residual is smallest and allowed to stop
    once dt r_q . (p^n + q) is within half of the step's energy budget,
    and velocity correction; ``moments`` (G^T ut) go to ``project``."""
    dt = config.dt
    u_new, dp, iters = ops.project(
        ut_next, dt, config.corr_tol, state.n + 1, state.dp_history,
        state.lap_dp_history, (0.5 * _energy_budget(state) / dt,
                               state.p.coeffs), moments)
    p_new = state.p.coeffs + dp
    p_new = p_new - (ops.p1_weights @ p_new) / ops.p1_weights.sum()
    return FieldP1Scalar(ops.space1, p_new), u_new, iters


def step(state, f, ops, config, precond):
    """One prediction/correction step with the energy audit; a non-finite
    load vector or energy audit, an energy residual above ENERGY_BOUND or
    a weak-divergence moment above DIVERGENCE_BOUND raises SchemeError
    naming the step.  ``precond`` is passed to ``predict``."""
    dt = config.dt
    t_next = state.t + dt
    load = assemble_load(ops.space2, f, state.t, t_next)
    if not np.isfinite(load).all():
        raise SchemeError(f"non-finite load vector at step {state.n + 1}",
                          state.n + 1)
    ut_next, pred_iters, a_ut = predict(state, load, ops, config, precond)
    # the moments (u^{n+1}, grad phi_k) = (ut, grad phi_k) - dt lap dp
    ut_moments = ops.grad.rmatvec(ut_next.flat())
    p_next, u_next, corr_iters = correct(state, ut_next, ops, config,
                                         ut_moments)
    dp = p_next.coeffs - state.p.coeffs
    lap_dp = ops.lap @ dp

    # an overflow (s * s for a huge dt) is reported as a SchemeError
    # below, not as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        divergence = (np.max(np.abs(ut_moments - dt * lap_dp), initial=0.0)
                      / max(1.0, np.max(np.abs(ut_moments), initial=0.0)))
        products = ops.products(u_next)
        u_sq = ops.composite_norm_sq(u_next, products)
        gradp_sq = ops.gradp_norm_sq(p_next.coeffs)
        gap_sq = ops.gap_norm_sq(ut_next, state.u, state.u_products)
        ut_h1_sq = ops.h1_seminorm_sq_p2(ut_next.coeffs)
        work = float(load @ ut_next.flat())
        lhs = ((u_sq - state.u_sq) / (2.0 * dt)
               + dt * (gradp_sq - state.gradp_sq) / 2.0
               + gap_sq / (2.0 * dt) + ut_h1_sq)
        residual = abs(lhs - work) / max(1.0, abs(work))

    diag = StepDiagnostics(
        n=state.n + 1, t=t_next, energy_residual=residual,
        u_l2=float(np.sqrt(max(u_sq, 0.0))),
        ut_l2=float(np.sqrt(max(ops.l2_norm_sq_p2(ut_next.coeffs,
                                                  products[0]), 0.0))),
        ut_h1=float(np.sqrt(max(ut_h1_sq, 0.0))),
        gradp_l2=float(np.sqrt(max(gradp_sq, 0.0))),
        gap_l2=float(np.sqrt(max(gap_sq, 0.0))),
        pred_iters=pred_iters, corr_iters=corr_iters)
    if not np.isfinite(diag.row()).all():
        raise SchemeError(f"non-finite energy audit at step {state.n + 1}",
                          state.n + 1)
    if not residual <= ENERGY_BOUND:
        raise SchemeError(f"energy identity residual {residual:.3e} exceeds "
                          f"{ENERGY_BOUND:g} at step {state.n + 1}",
                          state.n + 1)
    if not divergence <= DIVERGENCE_BOUND:
        raise SchemeError(f"weak-divergence moment {divergence:.3e} exceeds "
                          f"{DIVERGENCE_BOUND:g} at step {state.n + 1}",
                          state.n + 1)
    keep = GUESS_HISTORY - 1
    new_state = SchemeState(
        n=state.n + 1, t=t_next, u_tilde=ut_next, u=u_next, p=p_next,
        u_sq=u_sq, gradp_sq=gradp_sq, work=work, u_products=products,
        ut_history=(ut_next.coeffs[ops.interior],) + state.ut_history[:keep],
        a_ut_history=(a_ut,) + state.a_ut_history[:keep],
        dp_history=(dp,) + state.dp_history[:keep],
        lap_dp_history=(lap_dp,) + state.lap_dp_history[:keep])
    return new_state, diag


@dataclass
class RunResult:
    state: SchemeState
    diagnostics: list
    config: SchemeConfig
    ops: SchemeOperators
    # u after steps 0 .. N; the prediction of step n is u_history[n].p2_part
    u_history: list = dataclass_field(default_factory=list)

    @property
    def dt(self):
        return self.config.dt


def run(space2, space1, u0, f, config, ops=None):
    """Full time loop; histories are stored when config.store_fields is set.

    The prediction solves are preconditioned by one AMG hierarchy of
    M/dt + K (``SchemeOperators.prediction_precond``), built here and
    dropped on return."""
    if ops is None:
        ops = SchemeOperators(space2, space1)
    state = initialize(space2, space1, u0, ops=ops, tol=config.corr_tol)
    result = RunResult(state=state, diagnostics=[], config=config, ops=ops)
    if config.store_fields:
        result.u_history.append(state.u)
    precond = ops.prediction_precond(config.dt)
    for _ in range(config.n_steps):
        state, diag = step(state, f, ops, config, precond)
        result.diagnostics.append(diag)
        if config.store_fields:
            result.u_history.append(state.u)
    result.state = state
    return result


def l2l2_velocity_error(result, exact, which="u"):
    """L2(0,T;L2) distance between a stored trajectory and an exact field.

    ``exact(points, t)`` returns (m, 2).  which="u" compares the corrected
    velocity (left-value reconstruction), which="ut" the predicted one
    (right-value reconstruction).  Each step is integrated with
    DEFAULT_RULE in space and a 3-point Gauss rule in time.  Any other
    ``which``, or a run that did not store that trajectory, raises
    ValueError.
    """
    if which not in ("u", "ut"):
        raise ValueError(f'which must be "u" or "ut", not {which!r}')
    if not result.u_history:
        raise ValueError("run must store fields for error evaluation")
    ops = result.ops
    mesh = ops.space2.mesh
    pts = rule_points(mesh).reshape(-1, 2)
    dt = result.dt
    tg, wg = gauss_legendre_01(3)
    total = 0.0
    for n in range(result.config.n_steps):
        if which == "u":
            vals = result.u_history[n].values_at()
        else:
            vals = p2_values_at(result.u_history[n + 1].p2_part)
        for g in range(3):
            tau = (n + tg[g]) * dt
            diff = vals - np.asarray(exact(pts, tau)).reshape(vals.shape)
            # two adds, not a length-2 reduce: the same bits, far faster
            sq = diff * diff
            cell = (sq[..., 0] + sq[..., 1]) @ DEFAULT_RULE.weights
            total += dt * wg[g] * float(cell @ mesh.cell_areas)
    return float(np.sqrt(total))


def csv_text(header, rows):
    """CSV text of the ``header`` line and ``rows``: floats at 17
    significant digits, which read back to the same bits, every other
    value with ``str``.  No value may hold a comma, quote or newline."""
    lines = [header] + [[f"{v:.17g}" if isinstance(v, float) else str(v)
                         for v in row] for row in rows]
    return "".join(",".join(line) + "\n" for line in lines)


def diagnostics_csv(diagnostics):
    return csv_text(DIAGNOSTICS_HEADER, (d.row() for d in diagnostics))
