import numpy as np
import pytest

from projnav import sparse
from projnav.fem import (FieldP2Vector, SpaceP1, SpaceP2Vector,
                         assemble_convection, assemble_pressure_laplacian)
from projnav.mesh import build_from_arrays, build_structured_unit_square
from projnav.mms import velocity
from projnav.scheme import SchemeOperators
from projnav.sparse import (CsrMatrix, SmoothedAggregation, SolverError,
                            bicgstab_solve, cg_solve, projected_guess)

from oracles import from_coo_rows_cols, hierarchy_sizes, spgemm_chunked


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


def _same_bits(a, b):
    return (a.dtype == b.dtype and a.shape == b.shape
            and a.tobytes() == b.tobytes())


@pytest.mark.parametrize("m, n, kept", [(9, 7, 40), (5, 1, 3), (0, 0, 0),
                                        (4, 6, 0)])
def test_from_coo_matches_the_row_column_oracle_bitwise(m, n, kept, rng):
    # 9 to 12 duplicates of each kept key, shuffled, with values of many
    # magnitudes: each sum is longer than numpy's 8-way unrolled reduce,
    # and its bits depend on the order the terms are added in
    keys = np.repeat(rng.choice(m * n, kept, replace=False),
                     rng.integers(9, 13, kept))
    keys = rng.permutation(keys)
    vals = rng.standard_normal(len(keys)) * 10.0 ** rng.uniform(-8, 8,
                                                                len(keys))
    a = CsrMatrix.from_coo(keys // max(n, 1), keys % max(n, 1), vals, (m, n))
    b = from_coo_rows_cols(keys // max(n, 1), keys % max(n, 1), vals, (m, n))
    assert a.shape == b.shape and a.nnz == kept
    for name in ("indptr", "indices", "data"):
        assert _same_bits(getattr(a, name), getattr(b, name))


@pytest.mark.parametrize("n", [16, "irregular"])
def test_hierarchies_match_the_chunked_product_bitwise(n, irregular_mesh,
                                                      monkeypatch):
    # the chunked product, at 64 terms a chunk, cuts each Galerkin product
    # at n = 16 (2 858 to 4 998 terms) into dozens of chunks; on the
    # irregular 4 x 4 mesh both hierarchies are one dense level
    mesh = (irregular_mesh if n == "irregular"
            else build_structured_unit_square(n))

    def hierarchies():
        ops = SchemeOperators(SpaceP2Vector(mesh), SpaceP1(mesh))
        return ops.prediction_precond(0.05), ops.pressure_precond

    one_pass = hierarchies()
    terms = []

    def chunked(a, b):
        terms.append(np.diff(b.indptr)[a.indices].sum())
        return spgemm_chunked(a, b, 64)

    monkeypatch.setattr(sparse, "_spgemm", chunked)
    monkeypatch.setattr(CsrMatrix, "from_coo", classmethod(
        lambda cls, *args: from_coo_rows_cols(*args)))
    for new, old in zip(one_pass, hierarchies()):
        assert hierarchy_sizes(new) == hierarchy_sizes(old)
        for a, b in zip(new.matrices + new.restrict,
                        old.matrices + old.restrict):
            for name in ("indptr", "indices", "data"):
                assert _same_bits(getattr(a, name), getattr(b, name))
        assert all(map(_same_bits, new.dinv, old.dinv))
        assert _same_bits(new.coarse_inverse, old.coarse_inverse)
    assert len(terms) == (0 if n == "irregular" else 4)
    assert all(t > 40 * 64 for t in terms)


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


def test_transpose_matches_dense(rng):
    # a rectangular matrix, and one with empty rows (the midpoints of the
    # interior edges between two boundary vertices)
    mesh = build_structured_unit_square(4)
    embedding = SchemeOperators(SpaceP2Vector(mesh),
                                SpaceP1(mesh)).p1_embedding()
    assert np.any(np.diff(embedding.indptr) == 0)
    for a in (random_csr(rng, 13, 9), embedding):
        t, order = a.transpose()
        assert t.shape == a.shape[::-1]
        assert np.array_equal(t.to_dense(), a.to_dense().T)
        assert np.array_equal(t.data, a.data[order])


def test_hierarchy_rejects_an_unsymmetric_pattern():
    n = sparse.COARSE_SIZE + 1
    a = CsrMatrix.from_coo(np.r_[np.arange(n), np.arange(1, n)],
                           np.r_[np.arange(n), np.arange(n - 1)],
                           np.r_[np.full(n, 2.0), np.full(n - 1, -1.0)],
                           (n, n))
    with pytest.raises(ValueError, match="not structurally symmetric"):
        SmoothedAggregation(a)


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
    x, report = cg_solve(lap, rhs, tol=1e-12, mean_weights=w)
    assert report.converged
    assert np.abs(x - q).max() <= 1e-9
    # re-verify the residual outside the solver
    assert np.linalg.norm(lap.matvec(x) - rhs) <= 1e-12 * np.linalg.norm(rhs) * 10


def test_cg_rejects_inconsistent_rhs():
    lap, w = _p1_laplacian(2)
    rhs = np.ones(lap.shape[0])
    with pytest.raises(SolverError, match="singular system inconsistent"):
        cg_solve(lap, rhs, tol=1e-12, mean_weights=w)


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


def test_nonconvergence_reported(rng, monkeypatch):
    monkeypatch.setattr(sparse, "ITERS_PER_UNKNOWN", 0)
    monkeypatch.setattr(sparse, "MIN_ITERS", 2)
    m = 40
    b = rng.standard_normal((m, m))
    spd = b.T @ b + 0.01 * np.eye(m)
    rows, cols = np.nonzero(spd)
    a = CsrMatrix.from_coo(rows, cols, spd[rows, cols], (m, m))
    rhs = rng.standard_normal(m)
    x, report = cg_solve(a, rhs, tol=1e-14)
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


@pytest.mark.parametrize("solve, mat", [
    # r0 . A r0 = 0 for every r0 when A is skew
    (bicgstab_solve, [[0.0, 1.0], [-1.0, 0.0]]),
    # p . A p < 0 for every p
    (cg_solve, [[-1.0]]),
], ids=["bicgstab", "cg"])
def test_solve_stops_at_the_second_breakdown(solve, mat):
    a = dense_csr(np.array(mat))
    rhs = np.zeros(a.shape[0])
    rhs[0] = 1.0
    _, report = solve(a, rhs)
    assert not report.converged
    assert report.breakdowns == 2


def test_true_residual_polish_counts_restart(monkeypatch):
    monkeypatch.setattr(sparse, "MIN_ITERS", 5000)
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
            x, report = solve(a, rhs, tol=1e-13)
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
    amg = SmoothedAggregation(lap)
    assert len(hierarchy_sizes(amg)) >= 3
    x, y = rng.standard_normal((2, lap.shape[0]))
    vx, vy = amg.vcycle(x), amg.vcycle(y)
    combo = amg.vcycle(2.5 * x - 0.75 * y)
    scale = np.abs(vx).max() + np.abs(vy).max()
    assert np.abs(combo - (2.5 * vx - 0.75 * vy)).max() <= 1e-13 * scale
    assert abs(y @ vx - x @ vy) <= 1e-13 * abs(y @ vx)


def _dense_vcycle(amg, r):
    """One V-cycle of ``amg`` for A x = r, written with dense matrices:
    each level's R, its prolongation R^T, its matrix and smoother."""
    mats = [m.to_dense() for m in amg.matrices]

    def cycle(k, r):
        if k == len(amg.restrict):
            return amg.coarse_inverse @ r
        restrict = amg.restrict[k].to_dense()
        x = amg.dinv[k] * r
        x = x + restrict.T @ cycle(k + 1, restrict @ (r - mats[k] @ x))
        return x + amg.dinv[k] * (r - mats[k] @ x)

    return cycle(0, r)


@pytest.mark.parametrize("hierarchy, n, levels", [
    ("pressure", 8, 1), ("pressure", 16, 2),
    ("prediction", 8, 2), ("prediction", 16, 3),
    ("prediction", "irregular", 1)])
def test_vcycle_matches_a_dense_vcycle(hierarchy, n, levels, irregular_mesh,
                                       rng):
    # linearity and symmetry hold for any multiple of the prolongation;
    # this pins its values
    mesh = (irregular_mesh if n == "irregular"
            else build_structured_unit_square(n))
    ops = SchemeOperators(SpaceP2Vector(mesh), SpaceP1(mesh))
    if hierarchy == "pressure":
        a, amg = ops.lap, ops.pressure_precond
    else:
        a, amg = ops.prediction_system(0.05), ops.prediction_precond(0.05)
    assert len(hierarchy_sizes(amg)) == levels
    r = rng.standard_normal(a.shape[0])
    ref = _dense_vcycle(amg, r)
    assert (np.linalg.norm(amg.vcycle(r) - ref)
            <= 1e-13 * np.linalg.norm(ref))


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
    amg = SmoothedAggregation(lap)
    assert len(hierarchy_sizes(amg)) == (1 if n == 3 else 2)
    assert np.isfinite(amg.coarse_inverse).all()
    half = lap.shape[0] // 2
    x, y = rng.standard_normal((2, lap.shape[0]))
    assert abs(y @ amg.vcycle(x) - x @ amg.vcycle(y)) <= (
        1e-13 * abs(y @ amg.vcycle(x)))
    q = rng.standard_normal(lap.shape[0])
    rhs = lap.matvec(q)
    q_plain, plain = cg_solve(lap, rhs, mean_weights=w)
    q_amg, report = cg_solve(lap, rhs, mean_weights=w, precond=amg)
    assert plain.converged and report.converged
    assert report.iterations <= 30
    # the solutions agree up to one constant per component
    diff = q_amg - q_plain
    for part in (diff[:half], diff[half:]):
        assert np.ptp(part) <= 1e-9 * np.linalg.norm(q_plain)


def test_plain_hierarchy_preconditions_singular_laplacian():
    # the coarsest level of the P1 Laplacian is singular; its
    # pseudo-inverse needs no knowledge of the kernel
    lap, w = _p1_laplacian(16)
    amg = SmoothedAggregation(lap)
    assert hierarchy_sizes(amg) == [289, 41]
    assert np.abs(amg.coarse_inverse).max() <= 10.0
    q = np.cos(7.0 * np.arange(lap.shape[0]))
    rhs = lap.matvec(q - (w @ q) / w.sum())
    _, report = cg_solve(lap, rhs, mean_weights=w, precond=amg)
    assert report.converged
    assert report.iterations <= 30


def test_two_level_hierarchy_on_two_component_laplacian():
    space = SpaceP1(_two_square_mesh(12))
    lap = assemble_pressure_laplacian(space)
    amg = SmoothedAggregation(lap)
    assert hierarchy_sizes(amg) == [338, 53]
    # no aggregate spans both squares, so each square's constant restricts
    # to the indicator of its aggregates, a kernel vector of the coarsest
    # matrix that its pseudo-inverse annihilates
    half = lap.shape[0] // 2
    restrict = amg.restrict[0]
    for part in (slice(None, half), slice(half, None)):
        ones = np.zeros(lap.shape[0])
        ones[part] = 1.0
        kernel = (restrict.matvec(ones) != 0.0).astype(float)
        assert 0 < kernel.sum() < len(kernel)
        assert np.abs(amg.coarse_inverse @ kernel).max() <= 1e-12


def test_hierarchy_is_deterministic_and_coarsens():
    lap, _ = _p1_laplacian(32)
    a, b = (SmoothedAggregation(lap) for _ in range(2))
    sizes = hierarchy_sizes(a)
    assert sizes == hierarchy_sizes(b)
    assert all(2 * coarse <= fine for fine, coarse in zip(sizes, sizes[1:]))
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
        _, report = cg_solve(lap, rhs, mean_weights=w,
                             precond=SmoothedAggregation(lap))
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
        (bicgstab_solve, 0.1, system, ops.prediction_precond(0.05), {}),
        (cg_solve, 0.5, ops.lap, ops.pressure_precond,
         {"mean_weights": ops.p1_weights}),
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


@pytest.mark.parametrize("tol", [1e-4, 1e-8, 1e-12])
def test_bicgstab_warm_start_goes_one_check_past_the_target(tol):
    # a warm start from zero runs the cold solve's recursion; it goes one
    # check past the first one that meets the target, so it ends below the
    # cold solve's residual, at most one iteration later
    _, _, system, amg, _ = _warm_start_solves()[0]
    m = system.shape[0]
    rhs = system.matvec(np.sin(np.arange(1.0, m + 1)))
    _, cold = bicgstab_solve(system, rhs, tol=tol, precond=amg)
    _, warm = bicgstab_solve(system, rhs, tol=tol, precond=amg,
                             x0=np.zeros(m))
    assert cold.converged and warm.converged
    assert warm.residual < cold.residual
    assert cold.iterations <= warm.iterations <= cold.iterations + 1


def test_bicgstab_warm_start_stops_where_the_energy_clause_holds():
    # at tol 1e-9 BiCGStab's target is the guard, so with an unbounded
    # budget a check that meets the target meets the energy clause too: a
    # warm start from zero stops where the cold solve does
    _, _, system, amg, _ = _warm_start_solves()[0]
    m = system.shape[0]
    rhs = system.matvec(np.sin(np.arange(1.0, m + 1)))
    x, cold = bicgstab_solve(system, rhs, tol=1e-9, precond=amg,
                             energy=(np.inf, None))
    y, warm = bicgstab_solve(system, rhs, tol=1e-9, precond=amg,
                             x0=np.zeros(m), energy=(np.inf, None))
    assert cold.converged and warm.converged
    assert warm.iterations == cold.iterations
    assert np.array_equal(x, y)


def test_bicgstab_warm_start_past_a_vanishing_half_step(rng):
    # on 2 I the first half step leaves s = 0 exactly; a warm start goes on
    # to the full step, where A s_hat vanishes too, and keeps the half step
    m = 20
    two = CsrMatrix(np.arange(m + 1), np.arange(m), np.full(m, 2.0), (m, m))
    rhs = rng.standard_normal(m)
    x, report = bicgstab_solve(two, rhs, x0=np.zeros(m))
    assert report.converged and report.iterations == 1
    assert report.breakdowns == 0
    assert np.array_equal(x, 0.5 * rhs)


def test_projected_guess_minimizes_the_residual(rng):
    m = 40
    a = CsrMatrix.from_coo(
        np.concatenate([np.arange(m), rng.integers(0, m, 120)]),
        np.concatenate([np.arange(m), rng.integers(0, m, 120)]),
        np.concatenate([np.full(m, 4.0), rng.standard_normal(120)]), (m, m))
    rhs = rng.standard_normal(m)
    basis = [rng.standard_normal(m) for _ in range(5)]
    x0 = projected_guess(basis, [a @ v for v in basis], rhs)
    r = rhs - a.matvec(x0)
    assert np.linalg.norm(r) <= np.linalg.norm(rhs)
    # least squares: the residual is orthogonal to every a v
    for v in basis:
        av = a.matvec(v)
        assert abs(av @ r) <= 1e-12 * np.linalg.norm(av) * np.linalg.norm(r)


def test_projected_guess_from_a_span_holding_the_solution(rng):
    for solve, _, system, amg, kwargs in _warm_start_solves():
        x = _zero_mean_solution(system, kwargs, rng)
        v = _zero_mean_solution(system, kwargs, rng)
        rhs = system.matvec(x)
        # the constant column is in the Laplacian's kernel: a rank
        # deficient a X
        basis = [x + 2.0 * v, v, np.ones(len(x))]
        y, report = solve(system, rhs, precond=amg,
                          x0=projected_guess(basis, [system @ v
                                                     for v in basis], rhs),
                          **kwargs)
        assert report.converged
        assert report.iterations == 0
        assert np.abs(y - x).max() <= 1e-12 * np.abs(x).max()


def test_projected_guess_from_an_empty_basis_is_a_cold_start(rng):
    rhs = rng.standard_normal(6)
    assert projected_guess((), (), rhs) is None
    assert projected_guess([], [], rhs) is None
    # products carried for solutions no longer in the basis are not read
    assert projected_guess((), [rng.standard_normal(6)], rhs) is None


def test_projected_guess_takes_carried_products_bitwise(rng):
    # the fit reads the carried products and forms none: each may come
    # from its own matrix, as the prediction's do from each step's system,
    # and a right-hand side in their span gives that combination of the
    # solutions
    m = 40
    basis = [rng.standard_normal(m) for _ in range(5)]
    products = [random_csr(rng, m, m) @ v for v in basis]
    rhs = rng.standard_normal(m)
    assert np.array_equal(
        projected_guess(basis, products, rhs),
        np.column_stack(basis) @ np.linalg.lstsq(np.column_stack(products),
                                                 rhs, rcond=None)[0])
    c = rng.standard_normal(5)
    guess = projected_guess(basis, products, np.column_stack(products) @ c)
    assert np.abs(guess - np.column_stack(basis) @ c).max() <= 1e-10


def _counting(system):
    """A copy of ``system`` that counts the products it forms and keeps
    whether each vector it was given had a nonzero entry."""
    counted = system.with_data(system.data)
    counted.calls = 0
    counted.nonzero = []

    def matvec(x):
        counted.calls += 1
        counted.nonzero.append(bool(np.any(x)))
        return system.matvec(x)

    counted.matvec = matvec
    return counted


def test_an_accepted_guess_costs_one_product(rng):
    # the true residual that accepts a guess is the one reported; only
    # CG's re-centre, which moves x, forms it again
    for solve, _, system, amg, kwargs in _warm_start_solves():
        x = _zero_mean_solution(system, kwargs, rng)
        counted = _counting(system)
        _, report = solve(counted, system.matvec(x), precond=amg, x0=x,
                          **kwargs)
        assert report.converged and report.iterations == 0
        assert counted.calls == (2 if "mean_weights" in kwargs else 1)


@pytest.mark.parametrize("cycles", [1, sparse.MAX_CYCLES])
def test_reported_residual_is_that_of_the_returned_solution(cycles, rng,
                                                            monkeypatch):
    # with one recursion allowed the loop ends by running out of cycles,
    # after x has moved, so the residual must be formed again
    monkeypatch.setattr(sparse, "MAX_CYCLES", cycles)
    for solve, _, system, amg, kwargs in _warm_start_solves():
        rhs = system.matvec(_zero_mean_solution(system, kwargs, rng))
        for x0 in (None, _zero_mean_solution(system, kwargs, rng)):
            x, report = solve(system, rhs, precond=amg, x0=x0, **kwargs)
            r = rhs - system.matvec(x)
            if "mean_weights" in kwargs:
                r = r - r.sum() / len(r)
            assert report.residual == np.sqrt(r @ r) / np.sqrt(rhs @ rhs)


def test_cold_solve_forms_no_product_with_zero(rng):
    # a cold start's residual is rhs itself.  On 2 I each solver ends in
    # one (half) iteration: one product there and one for the true
    # residual, where a product with the zero start would make three
    m = 20
    two = CsrMatrix(np.arange(m + 1), np.arange(m), np.full(m, 2.0), (m, m))
    rhs = rng.standard_normal(m)
    for solve in (cg_solve, bicgstab_solve):
        counted = _counting(two)
        x, report = solve(counted, rhs)
        assert report.converged and report.iterations == 1
        assert np.array_equal(x, 0.5 * rhs)
        assert counted.calls == 2
    for solve, _, system, amg, kwargs in _warm_start_solves():
        counted = _counting(system)
        _, report = solve(counted, system.matvec(rng.standard_normal(
            system.shape[0])), precond=amg, **kwargs)
        assert report.converged and all(counted.nonzero)


# ---------------------------------------------------------------------------
# the energy stop

def _true_residual(system, rhs, x, kwargs):
    r = rhs - system.matvec(x)
    return r - r.sum() / len(r) if "mean_weights" in kwargs else r


def test_energy_stop_reports_converged_above_tol(rng):
    # tol 1e-13 is below the guard, so a budget every iterate meets stops
    # each solve at the first check under the guard
    tol = 1e-13
    for solve, _, system, amg, kwargs in _warm_start_solves():
        rhs = system.matvec(_zero_mean_solution(system, kwargs, rng))
        _, plain = solve(system, rhs, tol=tol, precond=amg, **kwargs)
        y, report = solve(system, rhs, tol=tol, precond=amg,
                          energy=(np.inf, None), **kwargs)
        assert plain.converged and report.converged
        assert tol < report.residual <= sparse.ENERGY_GUARD
        assert report.iterations < plain.iterations
        r = _true_residual(system, rhs, y, kwargs)
        assert report.residual == np.sqrt(r @ r) / np.sqrt(rhs @ rhs)


def test_energy_stop_measures_the_shifted_defect(rng):
    # a budget the defect r.x meets stops the solve early; with a shift
    # that makes r.(x + shift) miss it, and with a zero budget, the solve
    # is the plain one, bit for bit
    tol = 1e-13
    for solve, _, system, amg, kwargs in _warm_start_solves():
        rhs = system.matvec(_zero_mean_solution(system, kwargs, rng))
        budget = 1e-6 * (rhs @ rhs)
        plain, _ = solve(system, rhs, tol=tol, precond=amg, **kwargs)
        y, report = solve(system, rhs, tol=tol, precond=amg,
                          energy=(budget, None), **kwargs)
        r = _true_residual(system, rhs, y, kwargs)
        assert report.converged and report.residual > tol
        assert abs(r @ y) <= budget
        for energy in ((budget, 1e30 * rhs), (0.0, None)):
            x, _ = solve(system, rhs, tol=tol, precond=amg, energy=energy,
                         **kwargs)
            assert np.array_equal(x, plain)


def test_energy_stop_accepts_a_guess_within_budget(rng):
    # the energy stop holds at any check: a guess within the guard and the
    # budget, but above the tol rule's target, takes no iteration
    tol = 1e-13
    for solve, _, system, amg, kwargs in _warm_start_solves():
        x = _zero_mean_solution(system, kwargs, rng)
        rhs = system.matvec(x)
        dx = _zero_mean_solution(system, kwargs, rng)
        dx *= 1e-11 * np.linalg.norm(rhs) / np.linalg.norm(system.matvec(dx))
        _, plain = solve(system, rhs, tol=tol, precond=amg, x0=x + dx,
                         **kwargs)
        _, report = solve(system, rhs, tol=tol, precond=amg, x0=x + dx,
                          energy=(np.inf, None), **kwargs)
        assert plain.iterations >= 1
        assert report.converged and report.iterations == 0


def test_bicgstab_energy_stop_ends_at_a_half_step(rng):
    # on a diagonal within 1e-12 of 2 I the first half step leaves a
    # residual under the guard but above the tol target: the energy stop
    # ends there, before the full step's second product
    m = 20
    diag = 2.0 + 1e-12 * rng.standard_normal(m)
    counted = _counting(CsrMatrix(np.arange(m + 1), np.arange(m), diag,
                                  (m, m)))
    _, report = bicgstab_solve(counted, rng.standard_normal(m), tol=1e-14,
                               energy=(np.inf, None))
    assert report.converged and report.iterations == 1
    assert 1e-14 < report.residual <= sparse.ENERGY_GUARD
    assert counted.calls == 2
