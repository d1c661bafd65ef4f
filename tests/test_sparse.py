import numpy as np
import pytest

from projnav.fem import (FieldP2Vector, SpaceP1, SpaceP2Vector,
                         assemble_convection, assemble_pressure_laplacian)
from projnav.mesh import build_from_arrays, build_structured_unit_square
from projnav.mms import velocity
from projnav.scheme import SchemeOperators
from projnav.sparse import (CsrMatrix, SmoothedAggregation, SolverError,
                            bicgstab_solve, cg_solve)


def random_csr(rng, m, n, density=0.2):
    k = max(1, int(density * m * n))
    rows = rng.integers(0, m, size=k)
    cols = rng.integers(0, n, size=k)
    vals = rng.standard_normal(k)
    return CsrMatrix.from_coo(rows, cols, vals, (m, n))


def test_from_coo_sums_duplicates():
    a = CsrMatrix.from_coo([0, 0, 1], [1, 1, 0], [2.0, 3.0, 4.0], (2, 2))
    dense = a.to_dense()
    assert dense[0, 1] == 5.0
    assert dense[1, 0] == 4.0
    assert a.nnz == 2


def test_column_indices_strictly_increasing(rng):
    a = random_csr(rng, 15, 12)
    for i in range(15):
        row = a.indices[a.indptr[i]:a.indptr[i + 1]]
        assert np.all(np.diff(row) > 0)


def test_constructor_rejects_unsorted_columns():
    with pytest.raises(ValueError, match="strictly"):
        CsrMatrix([0, 2], [1, 0], [1.0, 2.0], (1, 2))
    with pytest.raises(ValueError, match="strictly"):
        CsrMatrix([0, 2], [1, 1], [1.0, 2.0], (1, 2))


def test_matvec_and_rmatvec_match_dense(rng):
    a = random_csr(rng, 13, 9)
    dense = a.to_dense()
    x = rng.standard_normal(9)
    y = rng.standard_normal(13)
    assert np.allclose(a.matvec(x), dense @ x)
    assert np.allclose(a.rmatvec(y), dense.T @ y)


def test_with_data_shares_pattern(rng):
    a = random_csr(rng, 7, 7)
    b = a.with_data(2.0 * a.data)
    assert b.indices is a.indices and b.indptr is a.indptr
    assert np.array_equal(b.to_dense(), 2.0 * a.to_dense())
    with pytest.raises(ValueError, match="nnz"):
        a.with_data(np.ones(a.nnz + 1))


def test_cg_identity_single_iteration():
    eye = CsrMatrix.from_coo(range(5), range(5), np.ones(5), (5, 5))
    rhs = np.zeros(5)
    rhs[0] = 1.0
    x, report = cg_solve(eye, rhs, tol=1e-12)
    assert report.converged
    assert report.iterations == 1
    assert np.allclose(x, rhs)


def test_cg_recovers_zero_mean_solution():
    mesh = build_structured_unit_square(4)
    space = SpaceP1(mesh)
    lap = assemble_pressure_laplacian(space)
    w = space.mass_row_weights()
    rng = np.random.default_rng(7)
    q = rng.standard_normal(space.ndof)
    q -= (w @ q) / w.sum()
    rhs = lap.matvec(q)
    x, report = cg_solve(lap, rhs, tol=1e-12, deflate_constants=True,
                         mean_weights=w)
    assert report.converged
    assert np.abs(x - q).max() <= 1e-9
    # re-verify the residual outside the solver
    assert np.linalg.norm(lap.matvec(x) - rhs) <= 1e-12 * np.linalg.norm(rhs) * 10


def test_cg_rejects_inconsistent_rhs():
    mesh = build_structured_unit_square(2)
    lap = assemble_pressure_laplacian(SpaceP1(mesh))
    rhs = np.ones(lap.shape[0])
    with pytest.raises(SolverError, match="singular system inconsistent"):
        cg_solve(lap, rhs, tol=1e-12, deflate_constants=True)


def test_cg_iteration_bound_on_spd(rng):
    m = 25
    b = rng.standard_normal((m, m))
    spd = b.T @ b + m * np.eye(m)
    rows, cols = np.nonzero(spd)
    a = CsrMatrix.from_coo(rows, cols, spd[rows, cols], (m, m))
    rhs = rng.standard_normal(m)
    x, report = cg_solve(a, rhs, tol=1e-12)
    assert report.converged
    assert report.iterations <= m + 5
    assert np.linalg.norm(a.matvec(x) - rhs) <= 1e-11 * np.linalg.norm(rhs)


def test_bicgstab_agrees_with_cg(rng):
    m = 30
    b = rng.standard_normal((m, m))
    spd = b.T @ b + m * np.eye(m)
    rows, cols = np.nonzero(spd)
    a = CsrMatrix.from_coo(rows, cols, spd[rows, cols], (m, m))
    rhs = rng.standard_normal(m)
    tol = 1e-12
    x_cg, rep_cg = cg_solve(a, rhs, tol=tol)
    x_bi, rep_bi = bicgstab_solve(a, rhs, tol=tol)
    assert rep_cg.converged and rep_bi.converged
    # both residuals are <= tol |b|; the solution gap is bounded by the
    # condition number (modest here) times 2 tol, padded by a decade
    assert np.linalg.norm(x_cg - x_bi) <= 1e-10 * np.linalg.norm(x_cg)


def test_bicgstab_near_identity(rng):
    m = 20
    n = np.triu(rng.standard_normal((m, m)), k=1) * 0.01
    mat = np.eye(m) + n
    rows, cols = np.nonzero(mat)
    a = CsrMatrix.from_coo(rows, cols, mat[rows, cols], (m, m))
    rhs = rng.standard_normal(m)
    x, report = bicgstab_solve(a, rhs, tol=1e-12)
    assert report.converged
    assert np.linalg.norm(a.matvec(x) - rhs) <= 1e-12 * np.linalg.norm(rhs)


def test_bicgstab_zero_rhs():
    eye = CsrMatrix.from_coo(range(4), range(4), np.ones(4), (4, 4))
    x, report = bicgstab_solve(eye, np.zeros(4))
    assert report.iterations == 0
    assert report.converged
    assert np.all(x == 0.0)


def test_empty_system():
    a = CsrMatrix.from_coo([], [], [], (0, 0))
    x, report = bicgstab_solve(a, np.zeros(0))
    assert report.converged and len(x) == 0
    x, report = cg_solve(a, np.zeros(0))
    assert report.converged and len(x) == 0


def test_nonconvergence_reported(rng):
    m = 40
    b = rng.standard_normal((m, m))
    spd = b.T @ b + 0.01 * np.eye(m)
    rows, cols = np.nonzero(spd)
    a = CsrMatrix.from_coo(rows, cols, spd[rows, cols], (m, m))
    rhs = rng.standard_normal(m)
    x, report = cg_solve(a, rhs, tol=1e-14, max_iter=2)
    assert not report.converged
    assert report.residual > 1e-14



def dense_csr(mat):
    rows, cols = np.nonzero(np.ones_like(mat))
    return CsrMatrix.from_coo(rows, cols, mat[rows, cols], mat.shape)


def test_matvec_empty_rows_are_zero(rng):
    mat = rng.standard_normal((6, 5))
    mat[[0, 3, 5]] = 0.0
    rows, cols = np.nonzero(mat)
    a = CsrMatrix.from_coo(rows, cols, mat[rows, cols], mat.shape)
    x = rng.standard_normal(5)
    assert np.allclose(a.matvec(x), mat @ x, rtol=0, atol=1e-14)
    assert np.array_equal(a.matvec(x)[[0, 3, 5]], np.zeros(3))


def test_bicgstab_counts_breakdown_on_skew_matrix():
    # r0 . A r0 = 0 for every r0 when A is skew
    skew = dense_csr(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    _, report = bicgstab_solve(skew, np.array([1.0, 0.0]))
    assert not report.converged
    assert report.breakdowns >= 1


def test_true_residual_polish_counts_restart():
    # ill conditioned (condition 1e4) and a tight tolerance: the recursive
    # residual reaches the target before the true one does
    restarts = []
    for seed in range(3):
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.standard_normal((10, 10)))
        spd = (q * np.logspace(0.0, 4.0, 10)) @ q.T
        a = dense_csr(0.5 * (spd + spd.T))
        rhs = rng.standard_normal(10)
        for solve in (cg_solve, bicgstab_solve):
            x, report = solve(a, rhs, tol=1e-13, max_iter=5000)
            if report.converged:
                res = np.linalg.norm(rhs - a.matvec(x))
                assert res <= 1e-13 * np.linalg.norm(rhs)
                restarts.append(report.restarts)
    assert max(restarts) >= 1


def _p1_laplacian(n):
    space = SpaceP1(build_structured_unit_square(n))
    return assemble_pressure_laplacian(space), space.mass_row_weights()


def test_vcycle_linear_and_symmetric_on_laplacian(rng):
    lap, _ = _p1_laplacian(48)
    amg = SmoothedAggregation(lap, constant_kernel=True)
    assert len(amg.sizes) >= 3
    x, y = rng.standard_normal((2, lap.shape[0]))
    vx, vy = amg.vcycle(lap, x), amg.vcycle(lap, y)
    combo = amg.vcycle(lap, 2.5 * x - 0.75 * y)
    scale = np.abs(vx).max() + np.abs(vy).max()
    assert np.abs(combo - (2.5 * vx - 0.75 * vy)).max() <= 1e-13 * scale
    assert abs(y @ vx - x @ vy) <= 1e-13 * abs(y @ vx)


def _two_square_mesh(n):
    """Two disjoint structured n x n unit squares, side by side."""
    a = build_structured_unit_square(n)
    return build_from_arrays(
        np.vstack([a.vertices, a.vertices + [2.0, 0.0]]),
        np.vstack([a.cells, a.cells + a.n_vertices]))


@pytest.mark.parametrize("n", [3, 12])
def test_pcg_on_two_component_laplacian(n, rng):
    # the kernel holds one constant per component; at n=3 the Laplacian is
    # itself the coarsest level, at n=12 a Galerkin product is
    space = SpaceP1(_two_square_mesh(n))
    lap = assemble_pressure_laplacian(space)
    w = space.mass_row_weights()
    amg = SmoothedAggregation(lap, constant_kernel=True)
    assert len(amg.sizes) == (1 if n == 3 else 2)
    assert np.isfinite(amg.coarse_inverse).all()
    half = lap.shape[0] // 2
    x, y = rng.standard_normal((2, lap.shape[0]))
    assert abs(y @ amg.vcycle(lap, x) - x @ amg.vcycle(lap, y)) <= (
        1e-13 * abs(y @ amg.vcycle(lap, x)))
    q = rng.standard_normal(lap.shape[0])
    rhs = lap.matvec(q)
    q_plain, plain = cg_solve(lap, rhs, deflate_constants=True,
                              mean_weights=w)
    q_amg, report = cg_solve(lap, rhs, deflate_constants=True,
                             mean_weights=w, precond=amg)
    assert plain.converged and report.converged
    assert report.iterations <= 30
    # the solutions agree up to one constant per component
    diff = q_amg - q_plain
    for part in (diff[:half], diff[half:]):
        assert np.ptp(part) <= 1e-9 * np.linalg.norm(q_plain)


def test_hierarchy_is_deterministic_and_coarsens():
    lap, _ = _p1_laplacian(32)
    a, b = (SmoothedAggregation(lap, constant_kernel=True) for _ in range(2))
    assert a.sizes == b.sizes
    assert all(2 * coarse <= fine
               for fine, coarse in zip(a.sizes, a.sizes[1:]))
    for ra, rb in zip(a.restrict, b.restrict):
        assert np.array_equal(ra.indptr, rb.indptr)
        assert np.array_equal(ra.indices, rb.indices)
        assert np.array_equal(ra.data, rb.data)
    assert np.array_equal(a.coarse_inverse, b.coarse_inverse)


def test_pcg_laplacian_iterations_flat():
    iters = []
    for n in (8, 16, 32, 64):
        lap, w = _p1_laplacian(n)
        q = np.cos(7.0 * np.arange(lap.shape[0]))
        rhs = lap.matvec(q - (w @ q) / w.sum())
        _, report = cg_solve(lap, rhs, deflate_constants=True,
                             mean_weights=w,
                             precond=SmoothedAggregation(
                                 lap, constant_kernel=True))
        assert report.converged
        iters.append(report.iterations)
    assert max(iters) <= 30


# ---------------------------------------------------------------------------
# warm starts

def _warm_start_solves():
    """(solve, recursion target / tol, system, hierarchy, keywords) for a
    prediction system with convection and for the P1 Laplacian, on a
    16 x 16 mesh."""
    mesh = build_structured_unit_square(16)
    s1 = SpaceP1(mesh, zero_mean=True)
    s2 = SpaceP2Vector(mesh)
    ops = SchemeOperators(s2, s1)
    wind = FieldP2Vector(s2, velocity(s2.node_coordinates(), 0.7))
    system = ops.prediction_system(0.05, assemble_convection(s2, wind))
    return [
        (bicgstab_solve, 0.1, system,
         SmoothedAggregation(ops.prediction_system(0.05)), {}),
        (cg_solve, 0.5, ops.lap, ops.pressure_precond,
         {"deflate_constants": True, "mean_weights": ops.p1_weights}),
    ]


def _zero_mean_solution(system, kwargs, rng):
    x = rng.standard_normal(system.shape[0])
    w = kwargs.get("mean_weights")
    return x if w is None else x - (w @ x) / w.sum()


def test_warm_start_from_the_solution_takes_no_iteration(rng):
    for solve, _, system, amg, kwargs in _warm_start_solves():
        x = _zero_mean_solution(system, kwargs, rng)
        rhs = system.matvec(x)
        y, report = solve(system, rhs, precond=amg, x0=x, **kwargs)
        assert report.converged
        assert report.iterations == 0
        assert np.abs(y - x).max() <= 1e-15 * np.abs(x).max()


@pytest.mark.parametrize("scale", [0.9e-12, 1e-6])
def test_warm_start_meets_the_cold_target(scale, rng):
    # a guess whose residual is 0.9 tol |b| passes a check at tol but not
    # the recursion's target: it must still be iterated on
    tol = 1e-12
    for solve, factor, system, amg, kwargs in _warm_start_solves():
        x = _zero_mean_solution(system, kwargs, rng)
        rhs = system.matvec(x)
        norm_b = np.linalg.norm(rhs)
        dx = _zero_mean_solution(system, kwargs, rng)
        dx *= scale * norm_b / np.linalg.norm(system.matvec(dx))
        _, cold = solve(system, rhs, tol=tol, precond=amg, **kwargs)
        y, warm = solve(system, rhs, tol=tol, precond=amg, x0=x + dx,
                        **kwargs)
        assert cold.converged and warm.converged
        assert 1 <= warm.iterations < cold.iterations
        assert (np.linalg.norm(rhs - system.matvec(y))
                <= factor * tol * norm_b)
