"""Regularized minimum distance problems: min ||t||_1 s.t. ||G t - M||_inf <= lambda.

The residual convention is g(t) = G_hat t - M_hat, so the sup-norm constraint
reads ``|(G_hat t - M_hat)_j| <= lambda`` for every j, with an optional
l1-budget ||t||_1 <= B (B = inf drops it).  Two instantiations are exposed:

* ``estimate_blp``   -- G_hat = E_A[b b'],  M_hat = E_A[Y b]   (sparse regression)
* ``estimate_riesz`` -- G_hat = E_A[b b'],  M_hat = E_A[m(X, b)] (sparse Riesz representer)

Both, and the cross-fitted folds in ``dml``, reach the solver through
``fit_rmd``, which picks lambda from the fitting sample and solves one
instance exactly with ``lp.solve_standard_form``, a dual simplex on the p-row
LP  G (t+ - t-) - s = M, |s| <= lambda, t+- >= 0  (plus a budget row when B
is finite) that pivots on G itself and starts from the slack basis t = 0.
Every optimum is certified outside the solver: its residuals are re-checked
and its duality gap is computed from G_hat, M_hat, lambda, B and the row
duals alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from . import lp
from .dictionaries import design_matrix
from .functional import m_hat_vector

OPTIMAL = lp.OPTIMAL
INFEASIBLE = lp.INFEASIBLE
ITERATION_LIMIT = lp.ITERATION_LIMIT
NUMERICAL_FAILURE = "numerical_failure"
SolverError = lp.SolverError

MAX_ITERS = 100_000  # pivot budget of one simplex solve
FEAS_TOL = 1e-7  # slack allowed in the residual, l1-budget and duality-gap checks


class RmdInfeasibleError(RuntimeError):
    """Raised when an RMD fit required by a pipeline is certified infeasible."""


@dataclass
class RmdProblem:
    """Data of one RMD instance; G_hat is symmetrized on construction."""

    G_hat: np.ndarray
    M_hat: np.ndarray
    lam: float
    l1_bound: float = np.inf

    def __post_init__(self):
        G = np.asarray(self.G_hat, dtype=float)
        M = np.asarray(self.M_hat, dtype=float)
        if G.size == 0:
            raise ValueError("G_hat is empty: an RMD problem needs a p x p Gram with p >= 1")
        if G.ndim != 2 or G.shape[0] != G.shape[1]:
            raise ValueError("G_hat must be square")
        if M.shape != (G.shape[0],):
            raise ValueError("M_hat length must match G_hat")
        if not (np.all(np.isfinite(G)) and np.all(np.isfinite(M))):
            raise ValueError("non-finite entries in RMD problem")
        if np.abs(G - G.T).max() > 1e-10 * (1.0 + np.abs(G).max()):
            raise ValueError("G_hat is not symmetric")
        self.G_hat = 0.5 * (G + G.T)
        self.M_hat = M
        self.lam = float(self.lam)
        if not np.isfinite(self.lam) or self.lam < 0.0:
            raise ValueError("lambda must be finite and >= 0")
        self.l1_bound = float(self.l1_bound)
        if not self.l1_bound > 0.0:
            raise ValueError("l1_bound must be positive (inf drops the constraint)")

    @property
    def p(self):
        return self.M_hat.shape[0]


@dataclass
class RmdSolution:
    t_hat: np.ndarray
    l1_norm: float
    max_residual: float
    status: str
    iterations: int
    gap: float  # ||t||_1 minus a certified lower bound; nan unless the simplex finished


@dataclass(frozen=True)
class LambdaRule:
    """How lambda is picked from the fitting sample.

    ``fixed(value)`` uses the value as-is.  ``gaussian_quantile(c, alpha)``
    sets lambda = c * PhiInv(1 - alpha / (2 p)) / sqrt(|A|), the usual
    moderate-deviation surrogate scaling like 1/sqrt(n).
    """

    method: str = "gaussian_quantile"
    value: float = 0.0
    c: float = 1.1
    alpha: float = 0.05

    @classmethod
    def fixed(cls, value):
        return cls(method="fixed", value=float(value))

    @classmethod
    def gaussian_quantile(cls, c=1.1, alpha=0.05):
        return cls(method="gaussian_quantile", c=float(c), alpha=float(alpha))

    def lam(self, n_rows, p):
        if self.method == "fixed":
            out = float(self.value)
        elif self.method == "gaussian_quantile":
            out = self.c * NormalDist().inv_cdf(1.0 - self.alpha / (2.0 * p)) / np.sqrt(n_rows)
        else:
            raise ValueError(f"unknown lambda rule {self.method!r}")
        if not np.isfinite(out) or out < 0.0:
            raise ValueError("lambda rule produced an invalid value")
        return out


def _duality_gap(prob, l1, y):
    """||t||_1 minus a lower bound on the optimum, from the row duals ``y``.

    The dual of the RMD LP is max M'y - lambda ||y||_1 - B mu subject to
    ||G y||_inf <= 1 + mu, mu >= 0, with mu the dual of the budget row.  Any
    (y, mu) divided by max(1, ||G y||_inf - mu) is feasible, so the bound
    holds whatever ``y`` the solver returned.
    """
    p = prob.p
    bounded = np.isfinite(prob.l1_bound)
    mu = max(-y[p], 0.0) if bounded else 0.0
    y = y[:p]
    scale = max(1.0, np.abs(prob.G_hat @ y).max(initial=0.0) - mu)
    dual = prob.M_hat @ y - prob.lam * np.abs(y).sum() - (prob.l1_bound * mu if bounded else 0.0)
    return l1 - dual / scale


def solve_rmd(prob):
    """Solve one RMD instance; the answer is certified outside the solver.

    ``status`` is "optimal" only when the returned point passes an
    independent residual check and its duality gap is closed;
    "numerical_failure" when the simplex finished but either check failed;
    "infeasible" only when the LP is certified infeasible (possible when
    l1_bound is below the minimal feasible l1 norm, or when M_hat is
    unreachable within lambda for a singular G_hat).
    """
    res = lp.solve_standard_form(prob.G_hat, prob.M_hat, prob.lam, prob.l1_bound,
                                 max_iters=MAX_ITERS)
    p = prob.p
    t = res.z[:p] - res.z[p:2 * p]
    status = res.status
    max_resid = float(np.abs(prob.G_hat @ t - prob.M_hat).max(initial=0.0))
    l1 = float(np.abs(t).sum())
    gap = float("nan")
    if status == OPTIMAL:
        gap = float(_duality_gap(prob, l1, res.y))
        feasible = max_resid <= prob.lam + FEAS_TOL and l1 <= prob.l1_bound + FEAS_TOL
        if not (feasible and gap <= FEAS_TOL * (1.0 + l1)):
            status = NUMERICAL_FAILURE
    if status == INFEASIBLE:
        t = np.zeros(p)
        l1 = 0.0
        max_resid = float(np.abs(prob.M_hat).max())
    return RmdSolution(t_hat=t, l1_norm=l1, max_residual=max_resid,
                       status=status, iterations=res.iterations, gap=gap)


def gram_and_moments(B, y=None):
    """G_hat = E_A[b b'] and, when ``y`` is given, M_hat = E_A[Y b].

    ``B`` holds the rows b(X_i), i in A, and ``y`` the matching outcomes.
    """
    n = B.shape[0]
    G = B.T @ B / n
    return G, (None if y is None else B.T @ y / n)


def fit_rmd(G, M, rule, n_rows, l1_bound=np.inf):
    """Solve the RMD instance (G_hat, M_hat) at the lambda ``rule`` picks.

    ``n_rows`` is the size of the fitting sample G_hat and M_hat average
    over.  Returns (RmdSolution, lambda).
    """
    if n_rows < 2:
        raise ValueError("need at least 2 rows to fit")
    lam = rule.lam(n_rows, M.shape[0])
    return solve_rmd(RmdProblem(G, M, lam, l1_bound)), lam


def estimate_blp(data, rows, dictionary, rule, l1_bound=np.inf):
    """Sparse best-linear-predictor fit on the given rows.

    Returns (beta_hat, RmdSolution); the solution's max_residual equals
    ||E_A[b (Y - b'beta_hat)]||_inf.
    """
    rows = np.asarray(rows, dtype=int)
    G, M = gram_and_moments(design_matrix(dictionary, data, rows), data.outcome[rows])
    sol, _ = fit_rmd(G, M, rule, rows.size, l1_bound)
    return sol.t_hat, sol


def estimate_riesz(data, rows, dictionary, functional, rule, l1_bound=np.inf):
    """Sparse Riesz-representer fit on the given rows.

    Returns (rho_hat, RmdSolution); the solution's max_residual equals
    ||E_A[m(X, b)] - G_hat rho_hat||_inf.
    """
    rows = np.asarray(rows, dtype=int)
    functional.check_compatible(dictionary, data)
    G, _ = gram_and_moments(design_matrix(dictionary, data, rows))
    M = m_hat_vector(functional, dictionary, data, rows)
    sol, _ = fit_rmd(G, M, rule, rows.size, l1_bound)
    return sol.t_hat, sol
