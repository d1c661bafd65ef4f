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

whose residual is limited only by the solver tolerances.
"""

import csv
import io
from dataclasses import dataclass, field as dataclass_field
from functools import cached_property

import numpy as np

from .fem import (FieldP1Scalar, FieldP2Vector, CompositeVelocity,
                  assemble_convection, assemble_grad_coupling, assemble_load,
                  assemble_mass_p2, assemble_pressure_laplacian,
                  assemble_stiffness_p2)
from .sparse import (CsrMatrix, SmoothedAggregation, SolverError,
                     bicgstab_solve, cg_solve)

__all__ = [
    "SchemeConfig", "SchemeState", "StepDiagnostics", "SchemeError",
    "SchemeOperators", "RunResult", "interpolate_p2",
    "initialize", "predict", "correct", "step", "run",
    "gap_l2l2", "l2l2_velocity_error", "time_translate_diagnostic",
    "diagnostics_csv", "DIAGNOSTICS_HEADER",
]

DIAGNOSTICS_HEADER = ("n", "t", "energy_residual", "u_l2", "ut_l2", "ut_h1",
                      "gradp_l2", "gap_l2", "pred_iters", "corr_iters")


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
    max_iter: int = None
    skip_convection: bool = False
    store_fields: bool = False

    def __post_init__(self):
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        if not self.t_final > 0.0:
            raise ValueError("t_final must be positive")

    @property
    def dt(self):
        return self.t_final / self.n_steps


@dataclass
class SchemeState:
    """The fields after step ``n``, and the starting guesses of the next
    step's solves (None: start from zero): ``ut_guess`` for the interior
    prediction coefficients, (m, 2), and ``dp_guess`` for the pressure
    increment."""
    n: int
    t: float
    u_tilde: FieldP2Vector
    u: CompositeVelocity
    p: FieldP1Scalar
    ut_guess: np.ndarray = None
    dp_guess: np.ndarray = None


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
        return (self.n, self.t, self.energy_residual, self.u_l2, self.ut_l2,
                self.ut_h1, self.gradp_l2, self.gap_l2, self.pred_iters,
                self.corr_iters)


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
        # restriction of the P2 pattern, which mass, stiffness and every
        # convection matrix share, to interior rows and columns; the
        # interior dofs are sorted, so the kept entries stay in CSR order
        mask = space2.interior_mask
        rows, cols = self.mass.row_indices(), self.mass.indices
        self._keep = mask[rows] & mask[cols]
        local = np.cumsum(mask) - 1
        m = len(self.interior)
        indptr = np.zeros(m + 1, dtype=np.int64)
        np.cumsum(np.bincount(local[rows[self._keep]], minlength=m),
                  out=indptr[1:])
        self._interior = CsrMatrix(indptr, local[cols[self._keep]],
                                   np.zeros(indptr[-1]), (m, m))

    def prediction_system(self, dt, conv=None):
        """M/dt + K (+ C) on the interior dofs, as one CSR matrix."""
        # grouped as M/dt + (K + C); another grouping moves the last bits
        # of every run's output
        kc = self.stiffness.data
        if conv is not None:
            kc = kc + conv.data
        return self._interior.with_data(
            ((1.0 / dt) * self.mass.data + kc)[self._keep])

    @cached_property
    def pressure_precond(self):
        """AMG hierarchy of the P1 Laplacian, built on the first projection
        and kept: it does not depend on the time step."""
        return SmoothedAggregation(self.lap, constant_kernel=True)

    def project(self, w, scale, tol, max_iter=None, step_index=0, q0=None):
        """Discrete Helmholtz projection of a P2 field onto the weakly
        divergence free space: u = w - scale grad q with
        (grad q, grad r) = (w, grad r) / scale for every P1 r.

        ``q0`` is the starting guess of the solve (None: zero).  Returns
        (u, q, iterations); q has zero weighted mean.  A rejected or
        unconverged solve raises SchemeError naming ``step_index``.
        """
        rhs = self.grad.rmatvec(w.flat()) / scale
        try:
            q, report = cg_solve(self.lap, rhs, tol=tol, max_iter=max_iter,
                                 deflate_constants=True,
                                 mean_weights=self.p1_weights,
                                 precond=self.pressure_precond, x0=q0)
        except SolverError as err:
            raise SchemeError(f"projection solve rejected at step "
                              f"{step_index}: {err}", step_index) from err
        if not report.converged:
            raise SchemeError(
                f"projection solve failed at step {step_index} "
                f"(residual {report.residual:.3e})", step_index, report)
        u = CompositeVelocity(w, FieldP1Scalar(self.space1, q), scale)
        return u, q, report.iterations

    @staticmethod
    def _componentwise(mat, coeffs):
        """sum over both components of c^T A c."""
        return (coeffs[:, 0] @ mat.matvec(coeffs[:, 0])
                + coeffs[:, 1] @ mat.matvec(coeffs[:, 1]))

    def l2_norm_sq_p2(self, coeffs):
        return self._componentwise(self.mass, coeffs)

    def h1_seminorm_sq_p2(self, coeffs):
        return self._componentwise(self.stiffness, coeffs)

    def gradp_norm_sq(self, pcoeffs):
        return float(pcoeffs @ self.lap.matvec(pcoeffs))

    def composite_norm_sq(self, u):
        """Exact |a - s grad g|^2 of a composite velocity, as
        |a|^2 - 2 s (a, grad g) + s^2 |grad g|^2 (each term quadrature
        exact)."""
        s = u.scale
        g = u.grad_part.coeffs
        cross = u.p2_part.flat() @ self.grad.matvec(g)
        return (self.l2_norm_sq_p2(u.p2_part.coeffs) - 2.0 * s * cross
                + s * s * (g @ self.lap.matvec(g)))

    def moment_vector(self, u):
        """(u, phi_i e_x), (u, phi_i e_y) of a composite velocity,
        component blocked."""
        c = u.p2_part.coeffs
        out = np.concatenate([self.mass.matvec(c[:, 0]),
                              self.mass.matvec(c[:, 1])])
        return out - u.scale * self.grad.matvec(u.grad_part.coeffs)

    def gap_norm_sq(self, ut_next, u_prev):
        """|ut^{n+1} - u^n|^2 with the composite split, quadrature exact."""
        return self.composite_norm_sq(CompositeVelocity(
            FieldP2Vector(self.space2, ut_next.coeffs - u_prev.p2_part.coeffs),
            u_prev.grad_part, -u_prev.scale))


def interpolate_p2(space, u0):
    """Nodal interpolation of an analytic vector field onto the P2 space."""
    vals = np.asarray(u0(space.node_coordinates()), dtype=float)
    return FieldP2Vector(space, vals)


def initialize(space2, space1, u0, ops=None, tol=1e-12):
    """Initial state: ut=0, p=0, u = projection of the u0 interpolant.

    The projection onto the weakly divergence free space is the discrete
    Helmholtz split u = w - grad p0 of ``SchemeOperators.project``.  A
    non-finite interpolant raises SchemeError at step 0.
    """
    if ops is None:
        ops = SchemeOperators(space2, space1)
    w = u0 if isinstance(u0, FieldP2Vector) else interpolate_p2(space2, u0)
    if not np.isfinite(w.coeffs).all():
        raise SchemeError("non-finite initial velocity at step 0", 0)
    u, _, _ = ops.project(w, 1.0, tol)
    return SchemeState(n=0, t=0.0, u_tilde=FieldP2Vector(space2),
                       u=u, p=FieldP1Scalar(space1))


def predict(state, load, ops, config, precond):
    """Viscous prediction solve; returns (ut^{n+1}, solver iterations).

    ``precond`` is a ``SmoothedAggregation`` hierarchy of
    ``ops.prediction_system(config.dt)``; each component's solve starts
    from ``state.ut_guess``."""
    dt = config.dt
    space2 = ops.space2
    idx = ops.interior
    n2 = space2.n_scalar

    conv = (None if config.skip_convection
            else assemble_convection(space2, state.u_tilde))
    system = ops.prediction_system(dt, conv)

    rhs_flat = (ops.moment_vector(state.u) / dt
                + load - ops.grad.matvec(state.p.coeffs))
    ut = FieldP2Vector(space2)
    iters = 0
    for comp in range(2):
        rhs = rhs_flat[comp * n2:(comp + 1) * n2][idx]
        x0 = None if state.ut_guess is None else state.ut_guess[:, comp]
        x, report = bicgstab_solve(system, rhs, tol=config.pred_tol,
                                   max_iter=config.max_iter, precond=precond,
                                   x0=x0)
        iters += report.iterations
        if not report.converged:
            raise SchemeError(
                f"prediction solve failed at step {state.n + 1} "
                f"(component {comp}, residual {report.residual:.3e})",
                state.n + 1, report)
        ut.coeffs[idx, comp] = x
    return ut, iters


def correct(state, ut_next, ops, config):
    """Pressure increment Poisson solve, started from ``state.dp_guess``,
    and velocity correction."""
    u_new, dp, iters = ops.project(ut_next, config.dt, config.corr_tol,
                                   config.max_iter, state.n + 1,
                                   q0=state.dp_guess)
    p_new = state.p.coeffs + dp
    p_new = p_new - (ops.p1_weights @ p_new) / ops.p1_weights.sum()
    return FieldP1Scalar(ops.space1, p_new), u_new, iters


def step(state, f, ops, config, precond):
    """One prediction/correction step with the energy audit; a non-finite
    load vector or energy audit raises SchemeError naming the step.
    ``precond`` is passed to ``predict``."""
    dt = config.dt
    t_next = state.t + dt
    load = assemble_load(ops.space2, f, state.t, t_next)
    if not np.isfinite(load).all():
        raise SchemeError(f"non-finite load vector at step {state.n + 1}",
                          state.n + 1)
    ut_next, pred_iters = predict(state, load, ops, config, precond)
    p_next, u_next, corr_iters = correct(state, ut_next, ops, config)

    # an overflow (s * s for a huge dt) is reported as a SchemeError
    # below, not as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        u_sq_prev = ops.composite_norm_sq(state.u)
        u_sq = ops.composite_norm_sq(u_next)
        gradp_sq_prev = ops.gradp_norm_sq(state.p.coeffs)
        gradp_sq = ops.gradp_norm_sq(p_next.coeffs)
        gap_sq = ops.gap_norm_sq(ut_next, state.u)
        ut_h1_sq = ops.h1_seminorm_sq_p2(ut_next.coeffs)
        work = float(load @ ut_next.flat())
        lhs = ((u_sq - u_sq_prev) / (2.0 * dt)
               + dt * (gradp_sq - gradp_sq_prev) / 2.0
               + gap_sq / (2.0 * dt) + ut_h1_sq)
        residual = abs(lhs - work) / max(1.0, abs(work))

    diag = StepDiagnostics(
        n=state.n + 1, t=t_next, energy_residual=residual,
        u_l2=float(np.sqrt(max(u_sq, 0.0))),
        ut_l2=float(np.sqrt(max(ops.l2_norm_sq_p2(ut_next.coeffs), 0.0))),
        ut_h1=float(np.sqrt(max(ut_h1_sq, 0.0))),
        gradp_l2=float(np.sqrt(max(gradp_sq, 0.0))),
        gap_l2=float(np.sqrt(max(gap_sq, 0.0))),
        pred_iters=pred_iters, corr_iters=corr_iters)
    if not np.isfinite(diag.row()).all():
        raise SchemeError(f"non-finite energy audit at step {state.n + 1}",
                          state.n + 1)
    # the next prediction starts from the linear extrapolation
    # 2 ut^{n+1} - ut^n, or from ut^1 after the first step, whose ut^0 is
    # initialize's zero placeholder; the next projection from this
    # step's increment (its constant is in the solve's kernel)
    guess = ut_next.coeffs[ops.interior]
    if state.n > 0:
        guess = 2.0 * guess - state.u_tilde.coeffs[ops.interior]
    new_state = SchemeState(n=state.n + 1, t=t_next, u_tilde=ut_next,
                            u=u_next, p=p_next, ut_guess=guess,
                            dp_guess=p_next.coeffs - state.p.coeffs)
    return new_state, diag


@dataclass
class RunResult:
    state: SchemeState
    diagnostics: list
    config: SchemeConfig
    ops: SchemeOperators
    u_tilde_history: list = dataclass_field(default_factory=list)
    u_history: list = dataclass_field(default_factory=list)

    @property
    def dt(self):
        return self.config.dt


def run(space2, space1, u0, f, config, ops=None):
    """Full time loop; histories are stored when config.store_fields is set.

    The prediction solves are preconditioned by one AMG hierarchy of
    M/dt + K, built here and dropped on return."""
    if ops is None:
        ops = SchemeOperators(space2, space1)
    state = initialize(space2, space1, u0, ops=ops, tol=config.corr_tol)
    result = RunResult(state=state, diagnostics=[], config=config, ops=ops)
    if config.store_fields:
        result.u_history.append(state.u)
    precond = SmoothedAggregation(ops.prediction_system(config.dt))
    for _ in range(config.n_steps):
        state, diag = step(state, f, ops, config, precond)
        result.diagnostics.append(diag)
        if config.store_fields:
            result.u_tilde_history.append(state.u_tilde)
            result.u_history.append(state.u)
    result.state = state
    return result


def gap_l2l2(result):
    """|u_N - ut_N| in L2(0,T;L2): both reconstructions are piecewise
    constant in time, u_N from the left value and ut_N from the right one,
    so the squared gap is dt * sum of the per-step gap norms."""
    dt = result.dt
    return float(np.sqrt(sum(dt * d.gap_l2 ** 2 for d in result.diagnostics)))


def l2l2_velocity_error(result, exact, which="u", time_points=3):
    """L2(0,T;L2) distance between a stored trajectory and an exact field.

    ``exact(points, t)`` returns (m, 2).  which="u" compares the corrected
    velocity (left-value reconstruction), which="ut" the predicted one
    (right-value reconstruction).
    """
    from .fem import p2_values_at, DEFAULT_RULE, _tables
    if not result.u_history and which == "u":
        raise ValueError("run must store fields for error evaluation")
    ops = result.ops
    mesh = ops.space2.mesh
    t = _tables(mesh, DEFAULT_RULE)
    pts = t.points.reshape(-1, 2)
    dt = result.dt
    tg, wg = np.polynomial.legendre.leggauss(time_points)
    tg = 0.5 * (tg + 1.0)
    wg = 0.5 * wg
    total = 0.0
    for n in range(result.config.n_steps):
        if which == "u":
            vals = result.u_history[n].values_at(DEFAULT_RULE)
        else:
            vals = p2_values_at(result.u_tilde_history[n], DEFAULT_RULE)
        for g in range(time_points):
            tau = (n + tg[g]) * dt
            diff = vals - np.asarray(exact(pts, tau)).reshape(vals.shape)
            cell = np.einsum("q,cqx,cqx->c", t.weights, diff, diff)
            total += dt * wg[g] * float(cell @ mesh.cell_areas)
    return float(np.sqrt(total))


def time_translate_diagnostic(result, tau):
    """integral_0^{T-tau} |ut_N(t+tau) - ut_N(t)|^2 dt, exactly.

    The integrand is piecewise constant between the points where t or
    t+tau crosses the time grid, so the integral is a finite sum.
    """
    config = result.config
    big_t = config.t_final
    if not 0.0 < tau < big_t:
        raise ValueError("tau must lie strictly between 0 and the final time")
    if not result.u_tilde_history:
        raise ValueError("run must store fields for the translate diagnostic")
    dt = result.dt
    n = config.n_steps
    cuts = np.concatenate([dt * np.arange(n + 1), dt * np.arange(n + 1) - tau])
    cuts = np.unique(np.clip(cuts, 0.0, big_t - tau))
    ops = result.ops
    norm_cache = {}

    def seg_norm_sq(i, j):
        key = (min(i, j), max(i, j))
        if key not in norm_cache:
            d = (result.u_tilde_history[key[1]].coeffs
                 - result.u_tilde_history[key[0]].coeffs)
            norm_cache[key] = ops.l2_norm_sq_p2(d)
        return norm_cache[key]

    total = 0.0
    for a, b in zip(cuts[:-1], cuts[1:]):
        if b - a <= 0.0:
            continue
        mid = 0.5 * (a + b)
        i = min(int(mid / dt), n - 1)
        j = min(int((mid + tau) / dt), n - 1)
        if i != j:
            total += (b - a) * seg_norm_sq(i, j)
    return float(total)


def diagnostics_csv(diagnostics):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(DIAGNOSTICS_HEADER)
    for d in diagnostics:
        n, t, *rest = d.row()
        writer.writerow([n, f"{t:.17g}"] + [f"{v:.17g}" if isinstance(v, float)
                                            else str(v) for v in rest])
    return buf.getvalue()
