"""Dense bounded-variable dual simplex for the RMD linear program.

Solves min 1'(t+ + t-) s.t. G (t+ - t-) - s = M, -lam <= s <= lam, t+- >= 0,
over the columns z = (t+, t-, s) of A = [G, -G, -I]: p rows, 3p columns.
A is never formed: G is symmetric, so a column of A, and a row of B^-1 A, is
read off G, a unit vector or a row of B^-1.  The slack basis (t = 0) is dual
feasible as the costs are >= 0, and its inverse is known (-I).  The column
layout stays in here: the result carries t = t+ - t-, and the pivot budget
is ``MAX_ITERS``.

Each pivot follows the dual simplex with bounded variables (Vanderbei,
*Linear Programming: Foundations and Extensions*): the basic variable
furthest outside its bounds leaves at the bound it violates, and the dual
ratio test picks the entering column that keeps every reduced cost of the
right sign; an empty ratio test certifies the primal infeasible.  B^-1 gets
eta (product-form) updates and is refactorized periodically, and once more
before an optimum is returned if the updates let the basic solution drift.
The refactorization runs on one OpenBLAS thread: from p = 100 OpenBLAS
splits the LU across its threads, and the result's bits depend on how many.
After a long run of degenerate pivots (zero dual step) pricing switches to
Bland's rule, the lowest-index infeasible basic variable leaves and the
lowest-index column among ratio ties enters, which guarantees termination.
"""

from __future__ import annotations

import ctypes
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from functools import cache
from pathlib import Path

import numpy as np

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
ITERATION_LIMIT = "iteration_limit"
MAX_ITERS = 100_000  # pivot budget of one solve


class SolverError(RuntimeError):
    """The simplex could not finish: numerical trouble or a spent iteration budget."""


# Primal feasibility, pivot and ratio-tie tolerances.  The RMD layer
# certifies the returned point independently.
_PRIMAL_TOL = 1e-9
_PIV_TOL = 1e-10
_TIE_TOL = 1e-9
_REFACTOR_EVERY = 64
_STALL_LIMIT_FACTOR = 4


@cache
def _openblas_thread_calls():
    """(get, set) of numpy's bundled OpenBLAS thread count; no-ops where either is absent."""
    for path in Path(np.__file__).parent.parent.glob("numpy.libs/libscipy_openblas*.so"):
        lib = ctypes.CDLL(str(path))
        with suppress(AttributeError):  # a build without the 64-bit-integer symbols
            get, put = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            return get, put
    return (lambda: 0), (lambda count: None)


@contextmanager
def _one_blas_thread():
    """Run the block on one OpenBLAS thread, then restore the caller's count."""
    get, put = _openblas_thread_calls()
    before = get()
    put(1)
    try:
        yield
    finally:
        put(before)


@dataclass
class LpResult:
    t: np.ndarray  # t+ - t-
    status: str
    iterations: int
    y: np.ndarray | None = None  # row duals c_B' B^-1 of the final basis
    refactorizations: int = 0
    bland_switches: int = 0  # times a degenerate stall turned on Bland's rule


def solve_standard_form(G, M, lam):
    """Solve the RMD LP of a symmetric ``G`` by the dual simplex method.

    ``t`` is read off a basic solution (a vertex when "optimal"), ``y`` are
    the row duals.  "infeasible" means the dual ratio test proved there is no
    feasible point, "iteration_limit" that ``MAX_ITERS`` pivots were spent
    (the incumbent, primal infeasible, is returned as-is).
    """
    G, M = np.ascontiguousarray(G, dtype=float), np.asarray(M, dtype=float)
    p = M.shape[0]
    n = 3 * p
    c = np.zeros(n)
    c[:2 * p] = 1.0
    lo, hi = np.zeros(n), np.full(n, np.inf)
    lo[2 * p:], hi[2 * p:] = -lam, lam
    can_enter = hi > lo  # fixed columns (s when lam = 0) never enter

    basis = np.arange(2 * p, n)
    B_inv, x_B = -np.eye(p), -M
    lo_B, hi_B = lo[2 * p:].copy(), hi[2 * p:].copy()
    x_N = np.zeros(n)  # values of the nonbasic columns, 0 on basic ones
    # +1 for a column that may enter from its lower bound, -1 from its upper
    # and 0 for one that may not (basic or fixed); the t+- start nonbasic.
    sign = c.copy()
    d = c.copy()  # reduced costs; the entries of basic columns are never read

    iterations = since_refactor = stall = refactorizations = bland_switches = 0
    bland = False
    stall_limit = _STALL_LIMIT_FACTOR * (p + 10)
    while True:
        if since_refactor >= _REFACTOR_EVERY:
            B_inv, x_B, d = _refactorize(G, M, c, basis, x_N)
            since_refactor = 0
            refactorizations += 1
        infeas = np.maximum(lo_B - x_B, x_B - hi_B)
        if bland:
            rows = (infeas > _PRIMAL_TOL).nonzero()[0]
            r = rows[basis[rows].argmin()] if rows.size else -1
        else:
            r = int(infeas.argmax())
            r = r if infeas[r] > _PRIMAL_TOL else -1
        if r < 0:
            z = x_N.copy()  # the basic solution, to check it still solves A z = M
            z[basis] = x_B
            drift = np.abs(G @ (z[:p] - z[p:2 * p]) - z[2 * p:] - M).max()
            if since_refactor and drift > _PRIMAL_TOL:
                # eta updates drifted on an ill-conditioned basis: price the
                # freshly factorized basic solution before calling it optimal
                since_refactor = _REFACTOR_EVERY
                continue
            status = OPTIMAL
            break
        if iterations >= MAX_ITERS:
            status = ITERATION_LIMIT
            break

        # The leaving variable moves to the bound it violates; its dual
        # step has the sign that keeps its reduced cost valid there.
        leave = basis[r]
        to_upper = x_B[r] > hi_B[r]
        target = hi_B[r] if to_upper else lo_B[r]
        alpha = _pricing_row(B_inv[r], G)
        signed = alpha if to_upper else -alpha
        cand = (sign * signed > _PIV_TOL).nonzero()[0]
        if cand.size == 0:
            status = INFEASIBLE
            break
        ratios = np.maximum(d[cand] / signed[cand], 0.0)
        t0 = np.minimum.reduce(ratios)
        near = cand[ratios <= t0 + _TIE_TOL * (1.0 + t0)]
        # Among near-ties prefer the largest pivot element (stability);
        # Bland takes the lowest index.
        q = near[0] if bland or near.size == 1 else near[np.abs(alpha[near]).argmax()]

        col = _column(B_inv, G, q)
        pivot = col[r]
        step = (x_B[r] - target) / pivot
        x_B -= step * col
        x_B[r] = x_N[q] + step
        theta = d[q] / alpha[q]
        d -= theta * alpha
        d[leave] = -theta

        row = B_inv[r] / pivot
        B_inv -= col[:, None] * row
        B_inv[r] = row
        basis[r] = q
        lo_B[r], hi_B[r] = lo[q], hi[q]
        x_N[q], x_N[leave] = 0.0, target
        sign[q] = 0.0
        sign[leave] = (-1.0 if to_upper else 1.0) if can_enter[leave] else 0.0
        iterations += 1
        since_refactor += 1

        if abs(theta) <= _PIV_TOL:
            stall += 1
            if stall > stall_limit:
                bland_switches += not bland
                bland = True
        else:
            stall = 0
            bland = False

    z = x_N  # every column's value once the basic ones are written in
    z[basis] = x_B
    return LpResult(z[:p] - z[p:2 * p], status, iterations, c[basis] @ B_inv,
                    refactorizations, bland_switches)


def _pricing_row(v, G):
    """v'A for a row vector ``v`` of length p."""
    u = v @ G
    return np.concatenate((u, -u, -v))


def _column(B_inv, G, q):
    """B^-1 A_q: A_q is G_q, -G_q or -e_i."""
    p = G.shape[0]
    if q >= 2 * p:
        return -B_inv[:, q - 2 * p]
    # G is symmetric: its row is its column
    return B_inv @ (G[q] if q < p else -G[q - p])


def _refactorize(G, M, c, basis, x_N):
    """Fresh B^-1, basic values and reduced costs of ``basis``."""
    p = G.shape[0]
    try:
        with _one_blas_thread():
            B_inv = np.linalg.inv(_basis_matrix(G, basis))
    except np.linalg.LinAlgError:
        raise SolverError("simplex: singular basis at refactorization") from None
    d = c - _pricing_row(c[basis] @ B_inv, G)
    # Nonbasic t+- sit at 0, so M - A x_N is M + s_N.
    return B_inv, B_inv @ (M + x_N[2 * p:]), d


def _basis_matrix(G, basis):
    """The columns A_q of ``basis``, read off G: G_q, -G_q or -e_i."""
    p = G.shape[0]
    B = G[:, basis % p] * np.where(basis < p, 1.0, -1.0) + 0.0  # +0.0 zeros, as I @ G_q has
    slack = (basis >= 2 * p).nonzero()[0]
    B[:, slack] = -0.0
    B[basis[slack] - 2 * p, slack] = -1.0
    return B
