import numpy as np
import pytest

from projnav.fem import SpaceP1, assemble_pressure_laplacian
from projnav.mesh import build_structured_unit_square
from projnav.sparse import CsrMatrix, SolverError, bicgstab_solve, cg_solve


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

