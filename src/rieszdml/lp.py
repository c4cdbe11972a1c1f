"""Dense two-phase revised simplex for small/medium linear programs.

Solves the standard form

    min c'z  subject to  A z = b,  z >= 0,

with A dense and of full row rank (every problem built by this package
carries an identity slack block, so rank deficiency cannot occur).

The basis inverse is kept explicitly and updated with eta (product-form)
steps; it is refactorized periodically for numerical hygiene.  Pricing is
Dantzig (most negative reduced cost) with an automatic switch to Bland's
rule after a long degenerate stall, which guarantees termination.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
ITERATION_LIMIT = "iteration_limit"


class SolverError(RuntimeError):
    """The simplex could not finish: numerical trouble or a spent iteration budget."""


# Reduced-cost / ratio-test tolerances.  The RMD layer re-checks
# feasibility of the returned point independently.
_RC_TOL = 1e-9
_PIV_TOL = 1e-10
_REFACTOR_EVERY = 64
_STALL_LIMIT_FACTOR = 4


@dataclass
class LpResult:
    z: np.ndarray
    objective: float
    status: str
    iterations: int


def solve_standard_form(A, b, c, max_iters=100_000):
    """Solve min c'z s.t. Az = b, z >= 0 by the two-phase simplex method.

    Returns an LpResult whose ``z`` is a basic solution (a vertex when
    status is "optimal").  ``status`` is "infeasible" when phase 1 proves
    there is no feasible point, "iteration_limit" when ``max_iters`` pivots
    were spent (the incumbent is returned as-is).
    """
    A = np.ascontiguousarray(A, dtype=float)
    b = np.asarray(b, dtype=float).copy()
    c = np.asarray(c, dtype=float)
    m, n = A.shape

    # Orient rows so b >= 0, then start from an identity basis of
    # artificial columns; slack-like columns of A replace artificials
    # below whenever they already form a feasible unit column.
    flip = b < 0
    if np.any(flip):
        A = A.copy()
        A[flip] *= -1.0
        b[flip] *= -1.0

    state = _SimplexState(A, b, n_orig=n, max_iters=max_iters)

    status = state.run_phase1()
    if status is not None:
        return LpResult(state.extract(n), float("nan"), status, state.iterations)

    status = state.run_phase2(c)
    z = state.extract(n)
    obj = float(c @ z)
    if status is not None:
        return LpResult(z, obj, status, state.iterations)
    return LpResult(z, obj, OPTIMAL, state.iterations)


class _SimplexState:
    """Revised simplex working set: basis, its inverse, current point."""

    def __init__(self, A, b, n_orig, max_iters):
        m = A.shape[0]
        self.m = m
        self.n_orig = n_orig
        self.max_iters = max_iters
        self.iterations = 0

        # Work matrix includes one artificial column per row; artificial
        # j occupies column n_orig + j.
        self.A = np.hstack([A, np.eye(m)])
        self.b = b
        self.basis = np.arange(n_orig, n_orig + m)
        self.B_inv = np.eye(m)
        self.x_B = b.copy()
        self._since_refactor = 0

    # -- basis maintenance -------------------------------------------------

    def refactorize(self):
        self.B_inv = np.linalg.inv(self.A[:, self.basis])
        self.x_B = self.B_inv @ self.b
        self._since_refactor = 0

    def _pivot(self, q, r, d):
        """Bring column q into the basis at row r; d = B_inv @ A[:, q]."""
        piv = d[r]
        row = self.B_inv[r] / piv
        self.B_inv -= np.outer(d, row)
        self.B_inv[r] = row
        t = self.x_B[r] / piv
        self.x_B -= t * d
        self.x_B[r] = t
        self.basis[r] = q
        self._since_refactor += 1
        if self._since_refactor >= _REFACTOR_EVERY:
            self.refactorize()

    def _ratio_test(self, d):
        """Leaving row for direction d; returns -1 if unbounded."""
        pos = d > _PIV_TOL
        if not np.any(pos):
            return -1
        idx = np.flatnonzero(pos)
        ratios = self.x_B[idx] / d[idx]
        t0 = ratios.min()
        # Among near-ties prefer the largest pivot element (stability).
        near = idx[ratios <= t0 + 1e-9 * (1.0 + abs(t0))]
        return near[np.argmax(np.abs(d[near]))]

    def _ratio_test_bland(self, d):
        pos = d > _PIV_TOL
        if not np.any(pos):
            return -1
        idx = np.flatnonzero(pos)
        ratios = self.x_B[idx] / d[idx]
        t0 = ratios.min()
        near = idx[ratios <= t0 + 1e-9 * (1.0 + abs(t0))]
        # Bland: smallest entering-variable index among ties.
        return near[np.argmin(self.basis[near])]

    # -- core loop ----------------------------------------------------------

    def _minimize(self, cost, allowed_cols):
        """Simplex iterations for the given cost vector.

        ``allowed_cols`` marks columns eligible to enter.  Returns None on
        optimality, ITERATION_LIMIT if the pivot budget ran out.
        """
        m = self.m
        stall = 0
        bland = False
        stall_limit = _STALL_LIMIT_FACTOR * (m + 10)
        while True:
            if self.iterations >= self.max_iters:
                return ITERATION_LIMIT
            y = cost[self.basis] @ self.B_inv
            rc = cost - y @ self.A
            rc[~allowed_cols] = np.inf
            rc[self.basis] = np.inf
            if bland:
                eligible = np.flatnonzero(rc < -_RC_TOL)
                if eligible.size == 0:
                    return None
                q = eligible[0]
            else:
                q = int(np.argmin(rc))
                if rc[q] >= -_RC_TOL:
                    return None
            d = self.B_inv @ self.A[:, q]
            r = self._ratio_test_bland(d) if bland else self._ratio_test(d)
            if r < 0:
                # Unbounded direction.  Phase-1 and l1 objectives are
                # bounded below, so this only signals numerical trouble.
                raise SolverError("simplex: unbounded direction encountered")
            step = self.x_B[r] / d[r]
            self._pivot(q, r, d)
            self.iterations += 1
            if step <= _PIV_TOL:
                stall += 1
                if stall > stall_limit:
                    bland = True
            else:
                stall = 0
                bland = False

    # -- phases ---------------------------------------------------------

    def run_phase1(self):
        m, n = self.m, self.n_orig
        # Use slack-like unit columns of A directly where feasible so the
        # artificial count (and phase-1 work) stays small.
        self._seed_basis_from_unit_columns()
        art = self.basis >= n
        if not np.any(art):
            return None
        cost = np.zeros(n + m)
        cost[n:] = 1.0
        allowed = np.ones(n + m, dtype=bool)
        allowed[n:] = False  # artificials never re-enter
        status = self._minimize(cost, allowed)
        if status is not None:
            return status
        phase1_obj = float(self.x_B[self.basis >= n].sum()) if np.any(self.basis >= n) else 0.0
        if phase1_obj > 1e-7 * (1.0 + np.abs(self.b).max()):
            return INFEASIBLE
        self._expel_artificials()
        return None

    def _seed_basis_from_unit_columns(self):
        """Replace artificials with original unit columns (slacks) where possible."""
        m, n = self.m, self.n_orig
        A = self.A[:, :n]
        col_abs = np.abs(A)
        col_sums = col_abs.sum(axis=0)
        used_rows = np.zeros(m, dtype=bool)
        basis = self.basis.copy()
        # A column is a unit column for row i if its only nonzero is A[i, j] == 1.
        cand = np.flatnonzero((col_sums > 0))
        for j in cand:
            col = A[:, j]
            nz = np.flatnonzero(col)
            if nz.size != 1:
                continue
            i = nz[0]
            if used_rows[i] or col[i] != 1.0:
                continue
            if self.b[i] < 0:
                continue
            basis[i] = j
            used_rows[i] = True
        self.basis = basis
        self.refactorize()

    def _expel_artificials(self):
        """Pivot out artificials basic at zero; A has full row rank."""
        m, n = self.m, self.n_orig
        for r in range(m):
            if self.basis[r] < n:
                continue
            row = self.B_inv[r] @ self.A[:, :n]
            row[self.basis[self.basis < n]] = 0.0
            cand = np.flatnonzero(np.abs(row) > 1e-8)
            if cand.size == 0:
                # Cannot happen with an identity slack block; be defensive.
                raise SolverError("simplex: redundant row with basic artificial")
            q = cand[np.argmax(np.abs(row[cand]))]
            d = self.B_inv @ self.A[:, q]
            self._pivot(q, r, d)

    def run_phase2(self, c):
        m, n = self.m, self.n_orig
        cost = np.zeros(n + m)
        cost[:n] = c
        allowed = np.ones(n + m, dtype=bool)
        allowed[n:] = False
        return self._minimize(cost, allowed)

    def extract(self, n):
        z = np.zeros(self.A.shape[1])
        z[self.basis] = self.x_B
        # Clip the tiny negative dust a finished pivot sequence can leave.
        np.clip(z, 0.0, None, out=z)
        return z[:n]
