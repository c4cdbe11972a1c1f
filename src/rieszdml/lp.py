"""Dense bounded-variable dual simplex for small/medium linear programs.

Solves

    min c'z  subject to  A z = b,  lo <= z <= hi,

with A dense, starting from a basis the caller supplies.  That basis must be
dual feasible: every nonbasic column starts at its (finite) lower bound with
a reduced cost c_j - A_j'y >= 0, where y = c_B' B^-1.  When c >= 0 and the
slack columns form the basis this holds at once, so no phase 1, artificial
columns or basis seeding are needed.

Each pivot follows the dual simplex with bounded variables (Vanderbei,
*Linear Programming: Foundations and Extensions*): the basic variable
furthest outside its bounds leaves at the bound it violates, and the dual
ratio test picks the entering column that keeps every reduced cost of the
right sign.  An empty ratio test proves the dual unbounded, so the primal is
certified infeasible.

The basis inverse is kept explicitly and updated with eta (product-form)
steps; it is refactorized periodically for numerical hygiene.  After a long
run of degenerate pivots (zero dual step) pricing switches to Bland's rule,
the lowest-index infeasible basic variable leaves and the lowest-index
column among ratio ties enters, which guarantees termination.
"""

from __future__ import annotations

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
    z: np.ndarray
    objective: float
    status: str
    iterations: int
    y: np.ndarray | None = None  # row duals c_B' B^-1 of the final basis


def solve_standard_form(A, b, c, lo, hi, basis, max_iters=100_000):
    """Solve min c'z s.t. Az = b, lo <= z <= hi by the dual simplex method.

    ``basis`` lists one column per row and must be dual feasible (see the
    module docstring); the other columns start at their lower bounds.
    Returns an LpResult whose ``z`` is a basic solution (a vertex when
    status is "optimal") and whose ``y`` holds the row duals.  ``status`` is
    "infeasible" when the dual ratio test proves there is no feasible point,
    "iteration_limit" when ``max_iters`` pivots were spent (the incumbent,
    primal infeasible, is returned as-is).
    """
    A = np.ascontiguousarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    basis = np.array(basis, dtype=int)
    m, n = A.shape
    nonbasic = np.ones(n, dtype=bool)
    nonbasic[basis] = False
    if not np.all(np.isfinite(lo[nonbasic])):
        raise ValueError("nonbasic columns must start at a finite lower bound")
    x = np.where(nonbasic, lo, 0.0)
    at_upper = np.zeros(n, dtype=bool)
    can_enter = hi > lo  # fixed columns never enter
    B_inv, d = _refactorize(A, b, c, basis, x)
    if np.any(d[nonbasic & can_enter] < -_PRIMAL_TOL):
        raise ValueError("starting basis is not dual feasible")

    iterations = since_refactor = stall = 0
    bland = False
    stall_limit = _STALL_LIMIT_FACTOR * (m + 10)
    while True:
        x_B = x[basis]
        below = lo[basis] - x_B
        above = x_B - hi[basis]
        infeas = np.maximum(below, above)
        rows = np.flatnonzero(infeas > _PRIMAL_TOL)
        if rows.size == 0:
            status = OPTIMAL
            break
        r = rows[np.argmin(basis[rows])] if bland else rows[np.argmax(infeas[rows])]
        if iterations >= max_iters:
            status = ITERATION_LIMIT
            break

        # The leaving variable moves to the bound it violates; its dual
        # step has the sign that keeps its reduced cost valid there.
        leave = basis[r]
        to_upper = above[r] > 0.0
        target = hi[leave] if to_upper else lo[leave]
        alpha = B_inv[r] @ A
        signed = alpha if to_upper else -alpha
        ok = np.where(at_upper, signed < -_PIV_TOL, signed > _PIV_TOL)
        cand = np.flatnonzero(nonbasic & can_enter & ok)
        if cand.size == 0:
            status = INFEASIBLE
            break
        ratios = np.maximum(d[cand] / signed[cand], 0.0)
        t0 = ratios.min()
        near = cand[ratios <= t0 + _TIE_TOL * (1.0 + t0)]
        # Among near-ties prefer the largest pivot element (stability);
        # Bland takes the lowest index.
        q = near[0] if bland else near[np.argmax(np.abs(alpha[near]))]

        col = B_inv @ A[:, q]
        step = (x[leave] - target) / col[r]
        x[basis] -= step * col
        x[q] += step
        x[leave] = target
        theta = d[q] / alpha[q]
        d -= theta * alpha
        d[q] = 0.0
        d[leave] = -theta

        row = B_inv[r] / col[r]
        B_inv -= np.outer(col, row)
        B_inv[r] = row
        basis[r] = q
        nonbasic[q] = False
        nonbasic[leave] = True
        at_upper[q] = False
        at_upper[leave] = to_upper
        iterations += 1
        since_refactor += 1
        if since_refactor >= _REFACTOR_EVERY:
            B_inv, d = _refactorize(A, b, c, basis, x)
            since_refactor = 0

        if abs(theta) <= _PIV_TOL:
            stall += 1
            if stall > stall_limit:
                bland = True
        else:
            stall = 0
            bland = False

    y = c[basis] @ B_inv
    return LpResult(x, float(c @ x), status, iterations, y)


def _refactorize(A, b, c, basis, x):
    """Fresh B^-1, basic values (written into ``x``) and reduced costs."""
    try:
        B_inv = np.linalg.inv(A[:, basis])
    except np.linalg.LinAlgError:
        raise SolverError("simplex: singular basis at refactorization") from None
    x[basis] = 0.0
    x[basis] = B_inv @ (b - A @ x)
    d = c - (c[basis] @ B_inv) @ A
    d[basis] = 0.0
    return B_inv, d
