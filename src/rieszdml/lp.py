"""Dense bounded-variable dual simplex for the RMD linear program.

Solves min 1'(t+ + t-) s.t. G (t+ - t-) - s = M, -lam <= s <= lam, t+- >= 0,
plus the budget row 1'(t+ + t-) + s0 = B, s0 >= 0 when B is finite, over the
columns z = (t+, t-, s[, s0]) of A = [G, -G, -I].  A is never formed: G is
symmetric, so a column of A, and a row of B^-1 A, is read off G, a unit
vector or a row of B^-1.  The slack basis (t = 0) is dual feasible as the
costs are >= 0, and its inverse is known (-I, +1 on the budget row).

Each pivot follows the dual simplex with bounded variables (Vanderbei,
*Linear Programming: Foundations and Extensions*): the basic variable
furthest outside its bounds leaves at the bound it violates, and the dual
ratio test picks the entering column that keeps every reduced cost of the
right sign; an empty ratio test certifies the primal infeasible.  B^-1 gets
eta (product-form) updates and is refactorized periodically.  After a long
run of degenerate pivots (zero dual step) pricing switches to Bland's rule,
the lowest-index infeasible basic variable leaves and the lowest-index
column among ratio ties enters, which guarantees termination.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
ITERATION_LIMIT = "iteration_limit"


class SolverError(RuntimeError):
    """The simplex could not finish: numerical trouble or a spent iteration budget."""


# Primal feasibility, pivot and ratio-tie tolerances.  The RMD layer
# certifies the returned point independently.
_PRIMAL_TOL = 1e-9
_PIV_TOL = 1e-10
_TIE_TOL = 1e-9
_REFACTOR_EVERY = 64
_STALL_LIMIT_FACTOR = 4


@dataclass
class LpResult:
    z: np.ndarray  # (t+, t-, s[, s0])
    objective: float
    status: str
    iterations: int
    y: np.ndarray | None = None  # row duals c_B' B^-1 of the final basis
    refactorizations: int = 0
    bland_switches: int = 0  # times a degenerate stall turned on Bland's rule


def solve_standard_form(G, M, lam, l1_bound, max_iters=100_000):
    """Solve the RMD LP of a symmetric ``G`` by the dual simplex method.

    ``z`` is a basic solution (a vertex when "optimal"), ``y`` the row duals.
    "infeasible" means the dual ratio test proved there is no feasible point,
    "iteration_limit" that ``max_iters`` pivots were spent (the incumbent,
    primal infeasible, is returned as-is).
    """
    G, M = np.ascontiguousarray(G, dtype=float), np.asarray(M, dtype=float)
    p = M.shape[0]
    budget = math.isfinite(l1_bound)
    m, n = p + budget, 3 * p + budget
    c = np.zeros(n)
    c[:2 * p] = 1.0
    lo, hi = np.zeros(n), np.full(n, np.inf)
    lo[2 * p:3 * p], hi[2 * p:3 * p] = -lam, lam
    can_enter = hi > lo  # fixed columns (s when lam = 0) never enter
    b = np.append(M, l1_bound) if budget else M

    basis = np.arange(2 * p, n)
    B_inv, x_B = -np.eye(m), -b
    if budget:
        B_inv[p, p], x_B[p] = 1.0, l1_bound
    lo_B, hi_B = lo[2 * p:].copy(), hi[2 * p:].copy()
    x_N = np.zeros(n)  # values of the nonbasic columns, 0 on basic ones
    # +1 for a column that may enter from its lower bound, -1 from its upper
    # and 0 for one that may not (basic or fixed); the t+- start nonbasic.
    sign = c.copy()
    d = c.copy()  # reduced costs; the entries of basic columns are never read

    iterations = since_refactor = stall = refactorizations = bland_switches = 0
    bland = False
    stall_limit = _STALL_LIMIT_FACTOR * (m + 10)
    while True:
        infeas = np.maximum(lo_B - x_B, x_B - hi_B)
        if bland:
            rows = (infeas > _PRIMAL_TOL).nonzero()[0]
            r = rows[basis[rows].argmin()] if rows.size else -1
        else:
            r = int(infeas.argmax())
            r = r if infeas[r] > _PRIMAL_TOL else -1
        if r < 0:
            status = OPTIMAL
            break
        if iterations >= max_iters:
            status = ITERATION_LIMIT
            break

        # The leaving variable moves to the bound it violates; its dual
        # step has the sign that keeps its reduced cost valid there.
        leave = basis[r]
        to_upper = x_B[r] > hi_B[r]
        target = hi_B[r] if to_upper else lo_B[r]
        alpha = _pricing_row(B_inv[r], G, budget)
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

        col = _column(B_inv, G, q, budget)
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
        if since_refactor >= _REFACTOR_EVERY:
            B_inv, x_B, d = _refactorize(G, b, c, basis, x_N)
            since_refactor = 0
            refactorizations += 1

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
    return LpResult(z, float(c @ z), status, iterations, c[basis] @ B_inv,
                    refactorizations, bland_switches)


def _pricing_row(v, G, budget):
    """v'A for a row vector ``v`` of length m."""
    if not budget:
        u = v @ G
        return np.concatenate((u, -u, -v))
    u, w = v[:-1] @ G, v[-1]
    return np.concatenate((u + w, w - u, -v[:-1], (w,)))


def _column(B_inv, G, q, budget):
    """B^-1 A_q: A_q is G_q, -G_q (plus 1 on the budget row), -e_i or e_p."""
    p = G.shape[0]
    if q >= 2 * p:
        return -B_inv[:, q - 2 * p] if q < 3 * p else B_inv[:, p].copy()
    # G is symmetric: its row is its column
    col = B_inv[:, :p] @ (G[q] if q < p else -G[q - p])
    if budget:
        col += B_inv[:, p]
    return col


def _refactorize(G, b, c, basis, x_N):
    """Fresh B^-1, basic values and reduced costs of ``basis``."""
    p, budget = G.shape[0], basis.size > G.shape[0]
    eye = np.eye(basis.size)
    try:
        B_inv = np.linalg.inv(np.column_stack([_column(eye, G, q, budget) for q in basis]))
    except np.linalg.LinAlgError:
        raise SolverError("simplex: singular basis at refactorization") from None
    d = c - _pricing_row(c[basis] @ B_inv, G, budget)
    # Nonbasic t+- and s0 sit at 0, so b - A x_N is b + (s_N, 0).
    return B_inv, B_inv @ (b + x_N[2 * p:]), d
