"""CSR matrices, a smoothed-aggregation AMG preconditioner and the two
preconditioned Krylov solvers used by the time scheme.

The correction (pressure Poisson) system is symmetric positive semidefinite
with the constants in its kernel; ``cg_solve`` handles it by deflating the
constant direction every iteration and re-centering the result with
mass-row weights.  The prediction system is nonsymmetric (skew convection
part) and goes through ``bicgstab_solve``.  Both take an optional
``SmoothedAggregation`` hierarchy built on a symmetric matrix, applied as
one symmetric V-cycle per preconditioner call.
"""

import copy
from dataclasses import dataclass

import numpy as np

__all__ = ["CsrMatrix", "SolverReport", "SolverError", "SmoothedAggregation",
           "cg_solve", "bicgstab_solve"]


class SolverError(RuntimeError):
    pass


@dataclass
class SolverReport:
    """``restarts`` counts the recursions started again from a fresh true
    residual after the first one; ``breakdowns`` the recursions stopped by
    a vanishing denominator."""
    iterations: int
    residual: float
    converged: bool
    restarts: int = 0
    breakdowns: int = 0


class CsrMatrix:
    """Compressed sparse row matrix (float64 values, int64 indices)."""

    def __init__(self, indptr, indices, data, shape):
        self.indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        self.indices = np.ascontiguousarray(indices, dtype=np.int64)
        self.data = np.ascontiguousarray(data, dtype=float)
        self.shape = (int(shape[0]), int(shape[1]))
        if len(self.indptr) != self.shape[0] + 1:
            raise ValueError("indptr length must be nrows + 1")
        counts = np.diff(self.indptr)
        if np.any(counts < 0):
            raise ValueError("row offsets must be nondecreasing")
        if self.nnz:
            rows = self.row_indices()
            same_row = rows[1:] == rows[:-1]
            if np.any(same_row & (np.diff(self.indices) <= 0)):
                raise ValueError(
                    "column indices must increase strictly within each row")
        # matvec sums each row as one reduceat segment; reduceat needs
        # increasing starts below nnz, so empty rows are left out of it
        self._nonempty = None if counts.all() else np.flatnonzero(counts)

    @classmethod
    def from_coo(cls, rows, cols, vals, shape):
        """Build from triplets; duplicate entries are summed."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=float)
        # a stable sort keeps duplicates in input order, so their sum
        # has one fixed grouping
        order = np.argsort(rows * shape[1] + cols, kind="stable")
        rows, cols, vals = rows[order], cols[order], vals[order]
        if len(rows):
            new = np.empty(len(rows), dtype=bool)
            new[0] = True
            new[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
            starts = np.where(new)[0]
            vals = np.add.reduceat(vals, starts)
            rows, cols = rows[starts], cols[starts]
        indptr = np.zeros(shape[0] + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=shape[0]), out=indptr[1:])
        return cls(indptr, cols, vals, shape)

    @property
    def nnz(self):
        return len(self.data)

    def row_indices(self):
        """Row index of every stored entry (computed, not kept)."""
        return np.repeat(np.arange(self.shape[0], dtype=np.int64),
                         np.diff(self.indptr))

    def transpose_order(self):
        """Permutation of the stored entries that maps A.data to
        (A^T).data, for a structurally symmetric square pattern."""
        n = self.shape[0]
        rows = self.row_indices()
        keys = rows * n + self.indices
        transposed = self.indices * n + rows
        order = np.searchsorted(keys, transposed)
        if not np.array_equal(np.take(keys, order, mode="clip"), transposed):
            raise ValueError("pattern is not structurally symmetric")
        return order

    def matvec(self, x):
        x = np.asarray(x, dtype=float)
        prod = self.data * x[self.indices]
        if self._nonempty is None:
            return np.add.reduceat(prod, self.indptr[:-1])
        out = np.zeros(self.shape[0])
        out[self._nonempty] = np.add.reduceat(prod,
                                              self.indptr[self._nonempty])
        return out

    def __matmul__(self, x):
        return self.matvec(x)

    def rmatvec(self, x):
        """Transpose matvec A^T x."""
        x = np.asarray(x, dtype=float)
        if not self.nnz:
            return np.zeros(self.shape[1])
        return np.bincount(
            self.indices,
            weights=self.data * np.repeat(x, np.diff(self.indptr)),
            minlength=self.shape[1])

    def with_data(self, data):
        """A matrix on the same pattern (index arrays shared), new values."""
        if len(data) != self.nnz:
            raise ValueError("data length must equal nnz")
        out = copy.copy(self)
        out.data = np.ascontiguousarray(data, dtype=float)
        return out

    def diagonal(self):
        rows = self.row_indices()
        on = rows == self.indices
        out = np.zeros(min(self.shape))
        out[rows[on]] = self.data[on]
        return out

    def to_dense(self):
        out = np.zeros(self.shape)
        np.add.at(out, (self.row_indices(), self.indices), self.data)
        return out


# ---------------------------------------------------------------------------
# smoothed aggregation

# a_ij is a strong connection when |a_ij| >= STRENGTH sqrt(a_ii a_jj)
STRENGTH = 0.08
# levels are coarsened until at most this many unknowns remain, which are
# then solved with a dense inverse
COARSE_SIZE = 160
# products expanded at once in a sparse matrix product; the expansion
# arrays of one chunk stay near 128 KiB each
PRODUCT_CHUNK = 1 << 14
POWER_ITERATIONS = 20


def _hash_priority(n):
    """Distinct pseudo-random 32-bit priorities, one per index, that depend
    on the index alone (Knuth's multiplicative hash)."""
    return (np.arange(n, dtype=np.int64) * 2654435761) % (1 << 32)


def _aggregate(indptr, indices):
    """Aggregate id of every node of a symmetric graph with self loops.

    Roots form a distance-2 maximal independent set, found in rounds: a
    node joins when its key is the largest in its distance-2 neighbourhood
    and is dropped when a root lies there (Bell, Dalton & Olson, SIAM J.
    Sci. Comput. 34, 2012).  Each other node joins the aggregate of a root
    or of an aggregated neighbour, preferring the highest aggregate id.
    Isolated nodes (no neighbour but themselves) stay out of every
    aggregate, with id -1: the smoother alone resolves them.
    """
    n = len(indptr) - 1
    starts = indptr[:-1]
    prio = _hash_priority(n)
    # state 0 dropped, 1 undecided, 2 root, in the key's high bits
    state = np.where(np.diff(indptr) > 1, 1, 0)
    while True:
        undecided = state == 1
        if not undecided.any():
            break
        key = (state << 32) | prio
        top = key
        for _ in range(2):
            top = np.maximum.reduceat(top[indices], starts)
        state[undecided & (top == key)] = 2
        state[undecided & ((top >> 32) == 2)] = 0
    roots = np.flatnonzero(state == 2)
    agg = np.full(n, -1, dtype=np.int64)
    agg[roots] = np.arange(len(roots))
    for _ in range(2):
        near = np.maximum.reduceat(agg[indices], starts)
        agg = np.where(agg < 0, near, agg)
    return agg, len(roots)


def _components(adjacent):
    """Connected component of every node of a symmetric boolean adjacency
    matrix with a true diagonal, numbered 0, 1, ... in order of each
    component's lowest node."""
    n = len(adjacent)
    label = np.arange(n)
    while True:
        # each node takes the lowest label among its neighbours
        new = np.where(adjacent, label, n).min(axis=1)
        if np.array_equal(new, label):
            return np.unique(label, return_inverse=True)[1]
        label = new


def _spgemm(a, b):
    """a @ b, expanded as COO products in row chunks of ``a``; each chunk's
    duplicates are summed by ``CsrMatrix.from_coo``."""
    rows = a.row_indices()
    blen = np.diff(b.indptr)[a.indices]
    cum = np.zeros(a.shape[0] + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, weights=blen, minlength=a.shape[0])
              .astype(np.int64), out=cum[1:])
    cuts = np.concatenate([
        [0], np.searchsorted(cum, np.arange(PRODUCT_CHUNK, cum[-1],
                                            PRODUCT_CHUNK)), [a.shape[0]]])
    indptr = [np.zeros(1, dtype=np.int64)]
    indices, data = [], []
    for r0, r1 in zip(cuts[:-1], cuts[1:]):
        if r1 == r0:
            continue
        e0, e1 = a.indptr[r0], a.indptr[r1]
        length = blen[e0:e1]
        ends = np.cumsum(length)
        pos = (np.repeat(b.indptr[a.indices[e0:e1]] - ends + length, length)
               + np.arange(ends[-1] if len(ends) else 0))
        part = CsrMatrix.from_coo(
            np.repeat(rows[e0:e1] - r0, length), b.indices[pos],
            np.repeat(a.data[e0:e1], length) * b.data[pos],
            (r1 - r0, b.shape[1]))
        indptr.append(part.indptr[1:] + indptr[-1][-1])
        indices.append(part.indices)
        data.append(part.data)
    return CsrMatrix(np.concatenate(indptr), np.concatenate(indices or [[]]),
                     np.concatenate(data or [[]]), (a.shape[0], b.shape[1]))


def _jacobi_spectral_radius(a, dinv):
    """Estimate of rho(D^-1 A) for symmetric positive (semi)definite A:
    the Rayleigh quotient x.Ax / x.Dx after POWER_ITERATIONS steps of the
    power method from a fixed start vector."""
    x = np.sin(np.arange(1, a.shape[0] + 1, dtype=float))
    rho = 0.0
    for _ in range(POWER_ITERATIONS):
        ax = a @ x
        rho = (x @ ax) / (x @ (x / dinv))
        y = dinv * ax
        norm = np.linalg.norm(y)
        if norm == 0.0:
            break
        x = y / norm
    return rho


class SmoothedAggregation:
    """Smoothed-aggregation AMG hierarchy of the symmetric part of a matrix
    with a structurally symmetric pattern and a positive diagonal (Vanek,
    Mandel & Brezina, Computing 56, 1996).

    Each level aggregates the strength graph, smooths the piecewise
    constant tentative prolongator with one damped Jacobi step, omega =
    (4/3)/rho(D^-1 A), and forms the coarse matrix P^T A P.  The coarsest
    level, at most COARSE_SIZE unknowns, is a dense inverse; with
    ``constant_kernel`` (a matrix whose kernel is the constants of each
    connected component of its graph, which prolongation preserves) one
    rank-one constant term per component regularizes it.

    ``vcycle(a, r)`` applies one V-cycle with one damped-Jacobi sweep
    before and one after each coarse correction, so it is symmetric when
    ``a`` is.  The finest level smooths with ``a``, the matrix being
    solved, which may differ from the build matrix by a part with zero
    diagonal (the skew convection), so no copy of it is kept.
    """

    def __init__(self, a, constant_kernel=False):
        self.dinv = []           # per level: omega / diag, the smoother
        self.restrict = []       # per level: R = P^T
        self.restrict_rows = []  # per level: the row of each entry of R
        self.coarse = []         # the matrices of levels 1 .. L-1
        level = a
        while level.shape[0] > COARSE_SIZE:
            # the symmetric part, exactly, so the strength graph is
            # symmetric; a no-op on a symmetric matrix
            level = level.with_data(
                0.5 * (level.data + level.data[level.transpose_order()]))
            if self.restrict:
                self.coarse.append(level)
            diag = level.diagonal()
            if not np.all(diag > 0.0):
                raise ValueError("smoothed aggregation needs a positive "
                                 "diagonal")
            rows = level.row_indices()
            strong = ((np.abs(level.data) >= STRENGTH * np.sqrt(
                diag[rows] * diag[level.indices])) | (rows == level.indices))
            gptr = np.zeros(level.shape[0] + 1, dtype=np.int64)
            np.cumsum(np.bincount(rows[strong], minlength=level.shape[0]),
                      out=gptr[1:])
            # at most n/2 aggregates: a root and its strong neighbours are
            # not shared with another root
            agg, n_agg = _aggregate(gptr, level.indices[strong])
            dinv = 1.0 / diag
            omega = (4.0 / 3.0) / _jacobi_spectral_radius(level, dinv)
            n = level.shape[0]
            # P = (I - omega D^-1 A) P_tent, P_tent[i, agg[i]] = 1
            cols = agg[level.indices]
            kept = cols >= 0
            p = CsrMatrix.from_coo(
                np.concatenate([rows[kept], np.flatnonzero(agg >= 0)]),
                np.concatenate([cols[kept], agg[agg >= 0]]),
                np.concatenate([-omega * (dinv[rows] * level.data)[kept],
                                np.ones(np.count_nonzero(agg >= 0))]),
                (n, n_agg))
            r = CsrMatrix.from_coo(p.indices, p.row_indices(), p.data,
                                   (n_agg, n))
            level = _spgemm(r, _spgemm(level, p))
            self.dinv.append(omega * dinv)
            self.restrict.append(r)
            self.restrict_rows.append(r.row_indices())
        dense = level.to_dense()
        dense = 0.5 * (dense + dense.T)
        if constant_kernel and len(dense):
            # per component c of n_c unknowns, trace / (n n_c) on its
            # block lifts its constant to the mean diagonal
            comp = _components(dense != 0.0)
            scale = np.trace(dense) / (len(dense) * np.bincount(comp)[comp])
            dense += np.where(comp[:, None] == comp, scale, 0.0)
        self.coarse_inverse = np.linalg.inv(dense)

    @property
    def sizes(self):
        """Unknowns per level, finest first."""
        return ([r.shape[1] for r in self.restrict]
                + [len(self.coarse_inverse)])

    def vcycle(self, a, r):
        """One V-cycle for a x = r from x = 0."""
        return self._cycle([a] + self.coarse, 0, r)

    def _cycle(self, matrices, k, r):
        if k == len(self.restrict):
            return self.coarse_inverse @ r
        a, dinv, restrict = matrices[k], self.dinv[k], self.restrict[k]
        x = dinv * r
        y = self._cycle(matrices, k + 1, restrict @ (r - a @ x))
        # prolongation P y = R^T y, summed into the fine unknowns
        x += np.bincount(restrict.indices,
                         weights=restrict.data * y[self.restrict_rows[k]],
                         minlength=len(x))
        x += dinv * (r - a @ x)
        return x


# ---------------------------------------------------------------------------
# Krylov solvers

def _deflate(v):
    return v - v.mean()


def _norm(v):
    # the same bits as np.linalg.norm for real 1-d input, without its
    # per-call overhead
    return np.sqrt(v @ v)


def _preconditioner(a, precond):
    if precond is None:
        return lambda r: r
    return lambda r: precond.vcycle(a, r)


def cg_solve(a, rhs, tol=1e-12, max_iter=None, deflate_constants=False,
             mean_weights=None, precond=None, x0=None):
    """Preconditioned conjugate gradients for SPD (or, with deflation,
    SPSD) systems; ``precond`` is a ``SmoothedAggregation`` hierarchy of
    ``a`` (None: no preconditioning), ``x0`` the starting guess (None:
    zero).

    With ``deflate_constants`` the right-hand side must be orthogonal to
    the constant vector (checked); residuals and preconditioned residuals
    are projected off the constant direction every iteration and the
    result is finally re-centered to a zero weighted mean using
    ``mean_weights`` (integration weights of the nodal basis; plain mean
    if omitted).

    Convergence is judged on the recursive residual but re-verified on the
    true one; if rounding drift leaves the true residual above tolerance,
    the iteration restarts from the current iterate (a few times at most).
    A guess is accepted without iterating only when its true residual
    meets the recursion's own target, 0.5 tol, so that a warm start never
    stops looser than a cold solve would.
    """
    rhs = np.asarray(rhs, dtype=float)
    m = len(rhs)
    if max_iter is None:
        max_iter = max(10 * m, 100)
    norm_b = _norm(rhs)
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
    deflate = _deflate if deflate_constants else (lambda v: v)
    apply = _preconditioner(a, precond)

    x = np.zeros(m) if x0 is None else np.array(x0, dtype=float)
    target = 0.5 * tol * norm_b
    k = 0
    cycles = breakdowns = 0
    for _ in range(4):
        r = deflate(rhs - (a @ x))
        if _norm(r) <= (target if cycles == 0 else tol * norm_b):
            break
        cycles += 1
        z = deflate(apply(r))
        p = z.copy()
        rz = r @ z
        while k < max_iter:
            ap = a @ p
            pap = p @ ap
            if pap <= 0.0:
                breakdowns += 1
                break
            alpha = rz / pap
            # x drifts along the constants only by rounding; the final
            # re-centre removes that
            x += alpha * p
            r = deflate(r - alpha * ap)
            k += 1
            if _norm(r) <= target:
                break
            z = deflate(apply(r))
            rz_new = r @ z
            p = z + (rz_new / rz) * p
            rz = rz_new
        if k >= max_iter:
            break

    if deflate_constants:
        w = np.ones(m) if mean_weights is None else np.asarray(mean_weights, dtype=float)
        x = x - (w @ x) / w.sum()
    res = _norm(deflate(rhs - (a @ x)))
    return x, SolverReport(k, res / norm_b, res <= tol * norm_b,
                           max(cycles - 1, 0), breakdowns)


def bicgstab_solve(a, rhs, tol=1e-12, max_iter=None, precond=None, x0=None):
    """Right-preconditioned BiCGStab with true-residual verification;
    ``precond`` is a ``SmoothedAggregation`` hierarchy built on (the
    symmetric part of) ``a`` (None: no preconditioning), ``x0`` the
    starting guess (None: zero).

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
    norm_b = _norm(rhs)
    if m == 0 or norm_b == 0.0:
        return np.zeros(m), SolverReport(0, 0.0, True)
    apply = _preconditioner(a, precond)

    x = np.zeros(m) if x0 is None else np.array(x0, dtype=float)
    target = 0.1 * tol * norm_b
    # a warm start goes on past the first check that meets the target and
    # stops at the next one: the half step that ends a cold solve starts
    # above the target, the one that ends a warm start at or below it, so
    # at the same contraction a warm start never ends looser
    extra = x0 is not None
    k = 0
    cycles = breakdowns = 0
    best = np.inf
    stalls = 0
    for _ in range(8):
        r = rhs - (a @ x)
        rn = _norm(r)
        if rn <= (target if cycles == 0 else tol * norm_b):
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
        cycles += 1
        r0 = r.copy()
        rho = r0 @ r
        p = r.copy()
        while k < max_iter:
            p_hat = apply(p)
            ap = a @ p_hat
            denom = r0 @ ap
            if abs(denom) < 1e-300:
                breakdowns += 1
                break
            alpha = rho / denom
            s = r - alpha * ap
            sn = _norm(s)
            if sn <= target:
                # an exactly vanishing s leaves no half step to take
                if not extra or sn == 0.0:
                    x += alpha * p_hat
                    r = s
                    k += 1
                    break
                extra = False
            s_hat = apply(s)
            as_ = a @ s_hat
            asas = as_ @ as_
            if asas < 1e-300:
                breakdowns += 1
                break
            omega = (as_ @ s) / asas
            x += alpha * p_hat + omega * s_hat
            r = s - omega * as_
            k += 1
            if _norm(r) <= target:
                if not extra:
                    break
                extra = False
            rho_new = r0 @ r
            if abs(rho_new) < 1e-300 or abs(omega) < 1e-300:
                breakdowns += 1
                break
            beta = (rho_new / rho) * (alpha / omega)
            rho = rho_new
            p = r + beta * (p - omega * ap)

    res = _norm(rhs - (a @ x))
    return x, SolverReport(k, res / norm_b, res <= tol * norm_b,
                           max(cycles - 1, 0), breakdowns)
