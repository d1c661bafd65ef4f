"""CSR matrices, a smoothed-aggregation AMG preconditioner, the two
preconditioned Krylov solvers used by the time scheme and the starting
guess those solvers take from earlier solutions.

The correction (pressure Poisson) system is symmetric positive semidefinite
with the constants in its kernel; ``cg_solve`` handles it by deflating the
constant direction every iteration and re-centering the result with
mass-row weights.  The prediction system is nonsymmetric (skew convection
part) and goes through ``bicgstab_solve``.  Each solver holds only its
recursion and the residual share it aims at (CG 0.5 tol, BiCGStab 0.1
tol); one driver, ``_krylov``, gives both the same restarts and one stop
test, on that share or on the energy defect a caller budgets.  Both take
an optional ``SmoothedAggregation`` hierarchy, applied as one symmetric
V-cycle that smooths with the hierarchy's own matrices.
``projected_guess`` starts a solve from the combination of earlier
solutions whose carried products best fit its right-hand side.
ITERS_PER_UNKNOWN and MIN_ITERS set
the iteration budget of one solve.
"""

import copy
from dataclasses import dataclass

import numpy as np

__all__ = ["CsrMatrix", "SolverReport", "SolverError", "SmoothedAggregation",
           "cg_solve", "bicgstab_solve", "projected_guess"]


class SolverError(RuntimeError):
    pass


@dataclass
class SolverReport:
    """``residual`` is the true relative residual of the returned x, and
    ``converged`` says that ``_krylov``'s stop test or |r| <= tol |b| holds
    for it.  ``restarts`` counts the recursions started again from a fresh
    true residual after the first one; ``breakdowns`` the recursions
    stopped by a vanishing denominator (in CG, a nonpositive one)."""
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
        ncols = shape[1]
        key = (np.asarray(rows, dtype=np.int64) * ncols
               + np.asarray(cols, dtype=np.int64))
        # a stable sort keeps duplicates in input order, so their sum
        # has one fixed grouping
        order = np.argsort(key, kind="stable")
        key, vals = key[order], np.asarray(vals, dtype=float)[order]
        if len(key):
            starts = np.flatnonzero(np.concatenate(([True],
                                                    key[1:] != key[:-1])))
            vals = np.add.reduceat(vals, starts)
            key = key[starts]
        return cls(np.searchsorted(key, ncols * np.arange(shape[0] + 1)),
                   key % ncols, vals, shape)

    @property
    def nnz(self):
        return len(self.data)

    def row_indices(self):
        """Row index of every stored entry (computed, not kept)."""
        return np.repeat(np.arange(self.shape[0], dtype=np.int64),
                         np.diff(self.indptr))

    def transpose(self):
        """(A^T, order): A^T, and the permutation of the stored entries
        that maps A.data to (A^T).data."""
        # a stable sort keeps each column's entries in increasing row order
        order = np.argsort(self.indices, kind="stable")
        indptr = np.searchsorted(self.indices[order],
                                 np.arange(self.shape[1] + 1))
        return CsrMatrix(indptr, self.row_indices()[order], self.data[order],
                         self.shape[::-1]), order

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
# then solved with a dense pseudo-inverse
COARSE_SIZE = 160
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


def _spgemm(a, b):
    """a @ b in one expand-sort-compress pass (Bell, Dalton & Olson, SIAM
    J. Sci. Comput. 34, 2012): every product a_ik b_kj is one triplet, and
    ``CsrMatrix.from_coo`` sums the duplicates."""
    length = np.diff(b.indptr)[a.indices]
    ends = np.cumsum(length)
    pos = (np.repeat(b.indptr[a.indices] - ends + length, length)
           + np.arange(length.sum()))
    return CsrMatrix.from_coo(
        np.repeat(a.row_indices(), length), b.indices[pos],
        np.repeat(a.data, length) * b.data[pos], (a.shape[0], b.shape[1]))


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


def _smoothed_prolongator(a, diag, omega):
    """P = (I - omega D^-1 A) P_tent, P_tent[i, agg[i]] = 1, over the
    aggregates of the strength graph of the symmetric matrix ``a`` with
    diagonal ``diag``."""
    rows = a.row_indices()
    dinv = 1.0 / diag
    strong = ((np.abs(a.data) >= STRENGTH * np.sqrt(
        diag[rows] * diag[a.indices])) | (rows == a.indices))
    gptr = np.zeros(a.shape[0] + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows[strong], minlength=a.shape[0]), out=gptr[1:])
    # at most n/2 aggregates: a root and its strong neighbours are not
    # shared with another root
    agg, n_agg = _aggregate(gptr, a.indices[strong])
    cols = agg[a.indices]
    kept = cols >= 0
    return CsrMatrix.from_coo(
        np.concatenate([rows[kept], np.flatnonzero(agg >= 0)]),
        np.concatenate([cols[kept], agg[agg >= 0]]),
        np.concatenate([-omega * (dinv[rows] * a.data)[kept],
                        np.ones(np.count_nonzero(agg >= 0))]),
        (a.shape[0], n_agg))


class SmoothedAggregation:
    """Smoothed-aggregation AMG hierarchy of the symmetric part of a matrix
    with a structurally symmetric pattern and a positive diagonal (Vanek,
    Mandel & Brezina, Computing 56, 1996).

    Each level aggregates the strength graph, smooths the piecewise
    constant tentative prolongator with one damped Jacobi step, omega =
    (4/3)/rho(D^-1 A), and forms the coarse matrix P^T A P.  The coarsest
    level, at most COARSE_SIZE unknowns, is a dense pseudo-inverse, so a
    singular matrix such as a Laplacian whose kernel holds one constant per
    connected component needs no regularization.

    ``nested``, a pair (P, P^T A P) whose prolongator P has at least one
    column, replaces the first level's aggregation and Galerkin product: P
    is used unsmoothed, with R = P^T, and aggregation starts on the given
    coarse matrix.  A nested coarse space, such as the P1 functions inside
    P2, makes this p-multigrid (Helenbrook, Mavriplis & Atkins, AIAA
    2003-3989), and its matrix is the one the coarse space assembles.  The
    symmetric part of ``a`` is not formed then, so ``a`` must be symmetric.
    A P with no column, such as the embedding of a mesh without an interior
    vertex, leaves the first level to aggregation.  A matrix of at most
    COARSE_SIZE unknowns is inverted densely either way.

    ``matrices`` holds the matrix of every level above the coarsest,
    finest first, and ``vcycle(r)`` smooths with them: one damped-Jacobi
    sweep before and one after each coarse correction, so the cycle is
    symmetric.
    """

    def __init__(self, a, nested=None):
        self.matrices = []       # per level: the matrix it smooths
        self.dinv = []           # per level: omega / diag, the smoother
        self.restrict = []       # per level: R = P^T
        if nested is not None and not nested[0].shape[1]:
            nested = None
        level = a
        while level.shape[0] > COARSE_SIZE:
            if nested is None:
                # the symmetric part, exactly, so the strength graph is
                # symmetric; a no-op on a symmetric matrix
                t, order = level.transpose()
                if not (np.array_equal(t.indptr, level.indptr)
                        and np.array_equal(t.indices, level.indices)):
                    raise ValueError("pattern is not structurally symmetric")
                level = level.with_data(0.5 * (level.data + level.data[order]))
            diag = level.diagonal()
            if not np.all(diag > 0.0):
                raise ValueError("smoothed aggregation needs a positive "
                                 "diagonal")
            dinv = 1.0 / diag
            omega = (4.0 / 3.0) / _jacobi_spectral_radius(level, dinv)
            p, coarse = nested or (_smoothed_prolongator(level, diag, omega),
                                   None)
            nested = None
            r, _ = p.transpose()
            self.matrices.append(level)
            self.dinv.append(omega * dinv)
            self.restrict.append(r)
            level = _spgemm(r, _spgemm(level, p)) if coarse is None else coarse
        dense = level.to_dense()
        self.coarse_inverse = np.linalg.pinv(0.5 * (dense + dense.T))

    def vcycle(self, r):
        """One V-cycle for A x = r from x = 0, A the finest matrix."""
        return self._cycle(0, r)

    def _cycle(self, k, r):
        if k == len(self.restrict):
            return self.coarse_inverse @ r
        a, dinv, restrict = self.matrices[k], self.dinv[k], self.restrict[k]
        x = dinv * r
        x += restrict.rmatvec(self._cycle(k + 1, restrict @ (r - a @ x)))
        x += dinv * (r - a @ x)
        return x


# ---------------------------------------------------------------------------
# Krylov solvers

# recursions one solve may start, each from a fresh true residual
MAX_CYCLES = 8
# iterations one solve may take in all: ITERS_PER_UNKNOWN each, >= MIN_ITERS
ITERS_PER_UNKNOWN = 10
MIN_ITERS = 100
# an energy stop also needs |r| <= ENERGY_GUARD |rhs|: a small r.x can come
# from r nearly orthogonal to x rather than from a small r.  Warm and cold
# solves of one step then agree to about 1e-10; at 1e-9 they did not
ENERGY_GUARD = 1e-10


def _deflate(v):
    # the same bits as v - v.mean(), without numpy's Python-level _mean
    return v - v.sum() / len(v)


def _norm(v):
    # the same bits as np.linalg.norm for real 1-d input, without its
    # per-call overhead
    return np.sqrt(v @ v)


def projected_guess(basis, products, rhs):
    """Starting guess X c for a solve with right-hand side ``rhs`` from
    earlier solutions, the columns of X (``basis``, a sequence of
    vectors), with c minimizing |rhs - P c|_2 (Fischer, "Projection
    techniques for iterative solution of Ax = b with successive right-hand
    sides", CMAME 163, 1998).  The columns of P (``products``) are the
    products the caller carries, each formed once: A x_j with the matrix
    A_j that x_j solved.  For a fixed matrix that is the guess of least
    residual; for a slowly changing one A_j x_j ~ b_j, so the fit
    extrapolates the earlier right-hand sides.

    c = 0 is feasible, so the fit's residual is at most |rhs| up to
    rounding.  An empty basis returns None, the solvers' cold start.
    """
    if not basis:
        return None
    return (np.column_stack(basis)
            @ np.linalg.lstsq(np.column_stack(products), rhs, rcond=None)[0])


def _krylov(cycle, a, rhs, tol, x0, share, mean_weights=None, energy=None):
    """The restart loop of both solvers, with their ``tol``, ``x0``,
    ``mean_weights`` and ``energy``.

    One predicate, ``stop(x, r, rn)``, ends a solve at every check: a
    guess, each step of a recursion and the true residual after it.  For
    the iterate x with residual r of norm rn it returns "energy" when,
    given ``energy`` = (budget, shift), rn <= ENERGY_GUARD |rhs| and
    |r . (x + shift)| <= budget (shift None: zero), the defect the solve
    leaves in the caller's energy balance (a posteriori stopping: Arioli,
    Numer. Math. 97, 2004); else "target" when rn <= ``share`` tol |rhs|;
    else "".  Only the first clause reads x, which may be a function
    forming it.

    ``cycle(x, r, stop, budget)`` runs one recursion from the true
    residual r of x until ``stop`` holds and returns its iterations (at
    most ``budget``) and whether a breakdown stopped it.  It updates x in
    place and no other vector, so it starts from r without a copy.  A true
    residual that misses the stop, left there by rounding, starts the next
    recursion.  The loop stops after MAX_CYCLES recursions,
    ITERS_PER_UNKNOWN iterations per unknown (at least MIN_ITERS), two
    breakdowns, or two restarts in a row that gain less than 10 % on the
    best true residual.  With ``mean_weights`` every true residual is
    taken off the constants and the result re-centred to zero weighted
    mean.  The report's ``residual`` is |r|/|rhs| of the returned x, and
    ``converged`` says that ``stop`` or |r| <= tol |rhs| holds.
    """
    rhs = np.asarray(rhs, dtype=float)
    m = len(rhs)
    max_iter = max(ITERS_PER_UNKNOWN * m, MIN_ITERS)
    norm_b = _norm(rhs)
    if m == 0 or norm_b == 0.0:
        return np.zeros(m), SolverReport(0, 0.0, True)
    deflate = (lambda v: v) if mean_weights is None else _deflate
    x = np.zeros(m) if x0 is None else np.array(x0, dtype=float)
    # a cold start's residual is rhs itself: no product with zero
    r = deflate(rhs if x0 is None else rhs - (a @ x))
    rn = _norm(r)
    target, guard = share * tol * norm_b, ENERGY_GUARD * norm_b

    def stop(x, r, rn):
        if energy is not None and rn <= guard:
            budget, shift = energy
            if callable(x):
                x = x()
            defect = r @ x if shift is None else r @ x + r @ shift
            if abs(defect) <= budget:
                return "energy"
        return "target" if rn <= target else ""

    k = cycles = breakdowns = stalls = 0
    best = np.inf
    for _ in range(MAX_CYCLES):
        if stop(x, r, rn):
            break
        if rn >= 0.9 * best:
            stalls += 1
            if stalls >= 2:
                break
        else:
            stalls, best = 0, rn
        if k >= max_iter or breakdowns > 1:
            break
        cycles += 1
        steps, broke = cycle(x, r, stop, max_iter - k)
        k += steps
        breakdowns += broke
        r = deflate(rhs - (a @ x))
        rn = _norm(r)
    if mean_weights is not None:
        w = np.asarray(mean_weights, dtype=float)
        x = x - (w @ x) / w.sum()
        r = deflate(rhs - (a @ x))
        rn = _norm(r)
    converged = bool(rn <= tol * norm_b or stop(x, r, rn))
    return x, SolverReport(k, rn / norm_b, converged, max(cycles - 1, 0),
                           breakdowns)


def cg_solve(a, rhs, tol=1e-12, mean_weights=None, precond=None, x0=None,
             energy=None):
    """Preconditioned conjugate gradients for SPD systems, or, with
    ``mean_weights``, for SPSD ones with the constants in their kernel;
    ``precond`` is a ``SmoothedAggregation`` hierarchy (None: no
    preconditioning), ``x0`` the starting guess (None: zero), ``energy``
    the budget and shift of ``_krylov``'s energy stop (None: none).

    With ``mean_weights`` the right-hand side must be orthogonal to the
    constant vector (checked), and residuals and preconditioned residuals
    are taken off the constants every iteration.  Each recursion aims at
    0.5 tol |rhs|; the restarts are ``_krylov``'s.
    """
    rhs = np.asarray(rhs, dtype=float)
    if mean_weights is not None and len(rhs):
        # the 1e-14 floor keeps roundoff-level right-hand sides (for
        # example moments of an already divergence free field) from being
        # flagged as genuinely inconsistent data
        along = abs(rhs.sum()) / np.sqrt(len(rhs))
        if along > tol * max(_norm(rhs), 1e-300) and along > 1e-14:
            raise SolverError(
                f"singular system inconsistent: rhs component along constants "
                f"{along:.3e} exceeds tol*|rhs|")
    deflate = (lambda v: v) if mean_weights is None else _deflate
    apply = (lambda r: r) if precond is None else precond.vcycle

    def cycle(x, r, stop, budget):
        z = deflate(apply(r))
        p = z
        rz = r @ z
        k = 0
        while k < budget:
            ap = a @ p
            pap = p @ ap
            if pap <= 0.0:
                return k, True
            alpha = rz / pap
            # x drifts along the constants only by rounding; the final
            # re-centre removes that
            x += alpha * p
            r = deflate(r - alpha * ap)
            k += 1
            if stop(x, r, _norm(r)):
                break
            z = deflate(apply(r))
            rz_new = r @ z
            p = z + (rz_new / rz) * p
            rz = rz_new
        return k, False

    return _krylov(cycle, a, rhs, tol, x0, 0.5, mean_weights, energy)


def bicgstab_solve(a, rhs, tol=1e-12, precond=None, x0=None, energy=None):
    """Right-preconditioned BiCGStab; ``precond`` is a
    ``SmoothedAggregation`` hierarchy (None: no preconditioning), ``x0``
    the starting guess (None: zero), ``energy`` the budget and shift of
    ``_krylov``'s energy stop (None: none).

    Each recursion aims at 0.1 tol |rhs|; the restarts, which make 1e-12
    relative tolerances attainable on the stiffer prediction systems, are
    ``_krylov``'s.
    """
    apply = (lambda r: r) if precond is None else precond.vcycle
    # a warm start goes on past the first check that meets the target alone
    # and stops at the next check that holds: the half step that ends a
    # cold solve starts above the target, the one that ends a warm start at
    # or below it, so at the same contraction a warm start never ends looser
    extra = x0 is not None

    def cycle(x, r, stop, budget):
        def ends(x, r, rn):
            nonlocal extra
            held = stop(x, r, rn)
            if held == "target" and extra:
                extra = held = False
            return held

        r0 = p = r
        rho = r0 @ r
        k = 0
        while k < budget:
            p_hat = apply(p)
            ap = a @ p_hat
            denom = r0 @ ap
            if abs(denom) < 1e-300:
                return k, True
            alpha = rho / denom
            s = r - alpha * ap
            if ends(lambda: x + alpha * p_hat, s, _norm(s)):
                x += alpha * p_hat
                return k + 1, False
            s_hat = apply(s)
            as_ = a @ s_hat
            asas = as_ @ as_
            # a vanishing A s_hat leaves r = s for every omega: omega = 0
            # takes the half step, and the recursion breaks down below
            omega = (as_ @ s) / asas if asas >= 1e-300 else 0.0
            x += alpha * p_hat + omega * s_hat
            r = s - omega * as_
            k += 1
            if ends(x, r, _norm(r)):
                break
            rho_new = r0 @ r
            if abs(rho_new) < 1e-300 or abs(omega) < 1e-300:
                return k, True
            beta = (rho_new / rho) * (alpha / omega)
            rho = rho_new
            p = r + beta * (p - omega * ap)
        return k, False

    return _krylov(cycle, a, rhs, tol, x0, 0.1, energy=energy)
