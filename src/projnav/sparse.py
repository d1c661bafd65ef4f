"""CSR matrices and the two iterative solvers used by the time scheme.

The correction (pressure Poisson) system is symmetric positive semidefinite
with the constants in its kernel; ``cg_solve`` handles it by deflating the
constant direction every iteration and re-centering the result with
mass-row weights.  The prediction system is nonsymmetric (skew convection
part) and goes through ``bicgstab_solve``.
"""

import copy
from dataclasses import dataclass

import numpy as np

__all__ = ["CsrMatrix", "SolverReport", "SolverError",
           "cg_solve", "bicgstab_solve"]


class SolverError(RuntimeError):
    pass


@dataclass
class SolverReport:
    iterations: int
    residual: float
    converged: bool


class CsrMatrix:
    """Compressed sparse row matrix (float64 values, int64 indices)."""

    def __init__(self, indptr, indices, data, shape):
        self.indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        self.indices = np.ascontiguousarray(indices, dtype=np.int64)
        self.data = np.ascontiguousarray(data, dtype=float)
        self.shape = (int(shape[0]), int(shape[1]))
        if len(self.indptr) != self.shape[0] + 1:
            raise ValueError("indptr length must be nrows + 1")
        if np.any(np.diff(self.indptr) < 0):
            raise ValueError("row offsets must be nondecreasing")
        # row index of every stored entry, for vectorized matvec
        self._rows = np.repeat(np.arange(self.shape[0], dtype=np.int64),
                               np.diff(self.indptr))
        if self.nnz:
            same_row = self._rows[1:] == self._rows[:-1]
            if np.any(same_row & (np.diff(self.indices) <= 0)):
                raise ValueError(
                    "column indices must increase strictly within each row")

    @classmethod
    def from_coo(cls, rows, cols, vals, shape):
        """Build from triplets; duplicate entries are summed."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=float)
        order = np.lexsort((cols, rows))
        rows, cols, vals = rows[order], cols[order], vals[order]
        if len(rows):
            new = np.empty(len(rows), dtype=bool)
            new[0] = True
            new[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
            starts = np.where(new)[0]
            vals = np.add.reduceat(vals, starts)
            rows, cols = rows[starts], cols[starts]
        indptr = np.zeros(shape[0] + 1, dtype=np.int64)
        np.add.at(indptr, rows + 1, 1)
        np.cumsum(indptr, out=indptr)
        return cls(indptr, cols, vals, shape)

    @property
    def nnz(self):
        return len(self.data)

    def matvec(self, x):
        x = np.asarray(x, dtype=float)
        if not self.nnz:
            return np.zeros(self.shape[0])
        return np.bincount(self._rows, weights=self.data * x[self.indices],
                           minlength=self.shape[0])

    def __matmul__(self, x):
        return self.matvec(x)

    def rmatvec(self, x):
        """Transpose matvec A^T x."""
        x = np.asarray(x, dtype=float)
        if not self.nnz:
            return np.zeros(self.shape[1])
        return np.bincount(self.indices, weights=self.data * x[self._rows],
                           minlength=self.shape[1])

    def with_data(self, data):
        """A matrix on the same pattern (index arrays shared), new values."""
        if len(data) != self.nnz:
            raise ValueError("data length must equal nnz")
        out = copy.copy(self)
        out.data = np.ascontiguousarray(data, dtype=float)
        return out

    def to_dense(self):
        out = np.zeros(self.shape)
        np.add.at(out, (self._rows, self.indices), self.data)
        return out


def _deflate(v):
    return v - v.mean()


def cg_solve(a, rhs, tol=1e-12, max_iter=None, deflate_constants=False,
             mean_weights=None):
    """Conjugate gradients for SPD (or, with deflation, SPSD) systems.

    With ``deflate_constants`` the right-hand side must be orthogonal to
    the constant vector (checked); iterates are projected off the constant
    direction every iteration and the result is finally re-centered to a
    zero weighted mean using ``mean_weights`` (integration weights of the
    nodal basis; plain mean if omitted).

    Convergence is judged on the recursive residual but re-verified on the
    true one; if rounding drift leaves the true residual above tolerance,
    the iteration restarts from the current iterate (a few times at most).
    """
    rhs = np.asarray(rhs, dtype=float)
    m = len(rhs)
    if max_iter is None:
        max_iter = max(10 * m, 100)
    norm_b = np.linalg.norm(rhs)
    if deflate_constants and m > 0:
        # the 1e-14 floor keeps roundoff-level right-hand sides (for
        # example moments of an already divergence free field) from being
        # flagged as genuinely inconsistent data
        along = abs(rhs.sum()) / np.sqrt(m)
        if along > tol * max(norm_b, 1e-300) and along > 1e-14:
            raise SolverError(
                f"singular system inconsistent: rhs component along constants "
                f"{along:.3e} exceeds tol*|rhs|")
    if m == 0 or norm_b == 0.0:
        return np.zeros(m), SolverReport(0, 0.0, True)

    def true_residual(x):
        r = rhs - (a @ x)
        return _deflate(r) if deflate_constants else r

    x = np.zeros(m)
    k = 0
    for _ in range(4):
        r = true_residual(x)
        if np.linalg.norm(r) <= tol * norm_b:
            break
        p = r.copy()
        rr = r @ r
        while k < max_iter:
            ap = a @ p
            pap = p @ ap
            if pap <= 0.0:
                break
            alpha = rr / pap
            x += alpha * p
            r -= alpha * ap
            if deflate_constants:
                x = _deflate(x)
                r = _deflate(r)
            k += 1
            rr_new = r @ r
            if np.sqrt(rr_new) <= 0.5 * tol * norm_b:
                break
            p = r + (rr_new / rr) * p
            rr = rr_new
        if k >= max_iter:
            break

    if deflate_constants:
        w = np.ones(m) if mean_weights is None else np.asarray(mean_weights, dtype=float)
        x = x - (w @ x) / w.sum()
    res = np.linalg.norm(true_residual(x))
    return x, SolverReport(k, res / norm_b, res <= tol * norm_b)


def bicgstab_solve(a, rhs, tol=1e-12, max_iter=None):
    """BiCGStab with true-residual verification.

    A rho-breakdown restarts the recursion once from the current iterate
    and fails if it recurs.  Independently, when the recursive residual
    reaches the target but the true residual has drifted above it, the
    cycle restarts from the freshly computed true residual (bounded number
    of polish cycles); this is what makes 1e-12 relative tolerances
    attainable on the stiffer prediction systems.
    """
    rhs = np.asarray(rhs, dtype=float)
    m = len(rhs)
    if max_iter is None:
        max_iter = max(10 * m, 100)
    norm_b = np.linalg.norm(rhs)
    if m == 0 or norm_b == 0.0:
        return np.zeros(m), SolverReport(0, 0.0, True)

    x = np.zeros(m)
    k = 0
    breakdowns = 0
    best = np.inf
    stalls = 0
    for _ in range(8):
        r = rhs - (a @ x)
        rn = np.linalg.norm(r)
        if rn <= tol * norm_b:
            break
        if rn >= 0.9 * best:
            stalls += 1
            if stalls >= 2:
                break
        else:
            stalls = 0
            best = rn
        if k >= max_iter or breakdowns > 1:
            break
        r0 = r.copy()
        rho = r0 @ r
        p = r.copy()
        target = 0.1 * tol * norm_b
        while k < max_iter:
            ap = a @ p
            denom = r0 @ ap
            if abs(denom) < 1e-300:
                breakdowns += 1
                break
            alpha = rho / denom
            s = r - alpha * ap
            if np.linalg.norm(s) <= target:
                x += alpha * p
                r = s
                k += 1
                break
            as_ = a @ s
            asas = as_ @ as_
            if asas < 1e-300:
                breakdowns += 1
                break
            omega = (as_ @ s) / asas
            x += alpha * p + omega * s
            r = s - omega * as_
            k += 1
            if np.linalg.norm(r) <= target:
                break
            rho_new = r0 @ r
            if abs(rho_new) < 1e-300 or abs(omega) < 1e-300:
                breakdowns += 1
                break
            beta = (rho_new / rho) * (alpha / omega)
            rho = rho_new
            p = r + beta * (p - omega * ap)

    res = np.linalg.norm(rhs - (a @ x))
    return x, SolverReport(k, res / norm_b, res <= tol * norm_b)

