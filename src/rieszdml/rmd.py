"""Regularized minimum distance problems: min ||t||_1 s.t. ||G t - M||_inf <= lambda.

The residual convention is g(t) = G_hat t - M_hat, so the sup-norm constraint
reads ``|(G_hat t - M_hat)_j| <= lambda`` for every j, with an optional
l1-budget ||t||_1 <= B (B = inf drops it).  Two instantiations are exposed:

* ``estimate_blp``   -- G_hat = E_A[b b'],  M_hat = E_A[Y b]   (sparse regression)
* ``estimate_riesz`` -- G_hat = E_A[b b'],  M_hat = E_A[m(X, b)] (sparse Riesz representer)

Each instance is checked once, where it enters.  ``solve_rmd`` trusts its
arrays: G_hat square, finite and symmetric bit for bit, M_hat finite.  Input
from outside the library (``rmd-solve``) goes through ``check_problem``, which
names the value at fault and symmetrizes G_hat.  The fits and folds divide the
block sums of ``gram_and_moments`` by |A| and enter through ``fit_rmd``, which
checks only what such means can get wrong.  ``solve_rmd`` solves one instance
exactly with ``lp.solve_standard_form``, a dual simplex on the p-row LP
G (t+ - t-) - s = M, |s| <= lambda, t+- >= 0 that pivots on G and starts from
t = 0; ``lp`` owns its statuses, pivot budget and ``SolverError``, and this
module adds "numerical_failure" for an answer that fails its certificate,
which is checked outside the solver from G_hat, M_hat, lambda and the row
duals alone.  The budget B never enters the LP; it only decides feasibility.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from . import lp
from .dictionaries import SettingError, design_matrix

NUMERICAL_FAILURE = "numerical_failure"
FEAS_TOL = 1e-7  # slack allowed in the residual, l1-budget and duality-gap checks


class RmdInfeasibleError(RuntimeError):
    """Raised when an RMD fit required by a pipeline is certified infeasible."""


@dataclass
class RmdSolution:
    """The record of one RMD fit: its coefficients, certificate and lambda."""

    t_hat: np.ndarray
    l1_norm: float
    max_residual: float
    status: str
    iterations: int
    gap: float  # ||t||_1 minus a certified lower bound; nan unless the simplex finished
    lam: float


@dataclass(frozen=True)
class LambdaRule:
    """How lambda is picked from the fitting sample.

    ``fixed(value)`` uses the value as-is.  ``gaussian_quantile(c, alpha)``
    sets lambda = c * PhiInv(1 - alpha / (2 p)) / sqrt(|A|), the usual
    moderate-deviation surrogate scaling like 1/sqrt(n).  A rule is checked
    when it is built: value and c must be finite and >= 0, alpha in (0, 1),
    so every lambda it picks is finite and >= 0.
    """

    method: str = "gaussian_quantile"
    value: float = 0.0
    c: float = 1.1
    alpha: float = 0.05

    def __post_init__(self):
        if self.method not in ("fixed", "gaussian_quantile"):
            raise SettingError("method", f"unknown lambda rule {self.method!r}")
        for field, ok, expected in (("value", 0.0 <= self.value < np.inf, "finite and >= 0"),
                                    ("c", 0.0 <= self.c < np.inf, "finite and >= 0"),
                                    ("alpha", 0.0 < self.alpha < 1.0, "in (0, 1)")):
            if not ok:
                raise SettingError(field, f"lambda rule {field} must be {expected}, "
                                             f"got {getattr(self, field)!r}")

    @classmethod
    def fixed(cls, value):
        return cls(method="fixed", value=float(value))

    @classmethod
    def gaussian_quantile(cls, **params):  # c and alpha; an unset one keeps the field's default
        return cls(method="gaussian_quantile", **{k: float(v) for k, v in params.items()})

    def lam(self, n_rows, p):
        """lambda for ``n_rows`` >= 1 fitting rows and ``p`` >= 1 features.

        The quantile rule fails only when 1 - alpha / (2 p) rounds to 1 or c
        times the quantile overflows, so ``lam(1, p)`` checks it for every n.
        """
        if self.method == "fixed":
            return float(self.value)
        level = 1.0 - self.alpha / (2.0 * p)
        if level == 1.0:
            raise SettingError("alpha", f"lambda rule alpha = {self.alpha!r} is too small "
                                           f"for p = {p}: 1 - alpha / (2 p) rounds to 1")
        out = self.c * NormalDist().inv_cdf(level) / np.sqrt(n_rows)
        if not np.isfinite(out):
            raise SettingError("c", f"lambda rule c = {self.c!r} overflows lambda at p = {p}")
        return out


def check_problem(G_hat, M_hat, lam, l1_bound=np.inf):
    """Check an RMD instance from outside the library; return (G, M, lam, l1_bound), G
    symmetrized, for ``solve_rmd``.  A fault raises ``SettingError`` naming its argument."""
    G, M = np.asarray(G_hat, dtype=float), np.asarray(M_hat, dtype=float)
    if G.size == 0:
        raise SettingError("G_hat", "G_hat is empty: an RMD problem needs a p x p Gram with p >= 1")
    if G.ndim != 2 or G.shape[0] != G.shape[1]:
        raise SettingError("G_hat", "G_hat must be square")
    if M.shape != (G.shape[0],):
        raise SettingError("M_hat", "M_hat length must match G_hat")
    for field, values in (("G_hat", G), ("M_hat", M)):
        if not np.all(np.isfinite(values)):
            raise SettingError(field, f"non-finite entries in {field}")
    half = 0.5 * G  # halved first: G - G' and G + G' may overflow
    if np.abs(half - half.T).max() > 0.5e-10 * (1.0 + np.abs(G).max()):
        raise SettingError("G_hat", "G_hat is not symmetric")
    lam = float(lam)
    if not np.isfinite(lam) or lam < 0.0:
        raise SettingError("lam", "lambda must be finite and >= 0")
    l1_bound = float(l1_bound)
    if not l1_bound > 0.0:
        raise SettingError("l1_bound", "l1_bound must be positive (inf drops the constraint)")
    return half + half.T, M, lam, l1_bound


def _lower_bound(G, M, lam, y):
    """A lower bound on min ||t||_1 s.t. ||G t - M||_inf <= lambda, from any ``y``.

    The dual of the RMD LP is max M'y - lambda ||y||_1 s.t. ||G y||_inf <= 1,
    and ``y`` divided by max(1, ||G y||_inf) is dual feasible, so by weak
    duality the bound holds whatever ``y`` the solver returned.
    """
    scale = max(1.0, np.abs(G @ y).max(initial=0.0))
    return (M @ y - lam * np.abs(y).sum()) / scale


def solve_rmd(G, M, lam, l1_bound=np.inf):
    """Solve one RMD instance; the answer is certified outside the solver.

    The LP is always solved without the l1 budget: the objective is ||t||_1
    itself, so a budget never changes the optimum, it only decides
    feasibility.  ``status`` is "optimal" only when the returned point passes
    an independent residual and budget check and its duality gap is closed;
    "numerical_failure" when the simplex finished but a check failed;
    "infeasible" when the certified lower bound on ||t||_1 exceeds l1_bound,
    or when the dual simplex proves M_hat unreachable within lambda (possible
    for a singular G_hat).
    """
    res = lp.solve_standard_form(G, M, lam)
    t, status = res.t, res.status
    max_resid = float(np.abs(G @ t - M).max(initial=0.0))
    l1 = float(np.abs(t).sum())
    gap = float("nan")
    if status == lp.OPTIMAL:
        lower = float(_lower_bound(G, M, lam, res.y))
        if lower > l1_bound + FEAS_TOL:
            status = lp.INFEASIBLE
        else:
            gap = l1 - lower
            feasible = max_resid <= lam + FEAS_TOL and l1 <= l1_bound + FEAS_TOL
            if not (feasible and gap <= FEAS_TOL * (1.0 + l1)):
                status = NUMERICAL_FAILURE
    if status == lp.INFEASIBLE:
        t, l1, max_resid = np.zeros(M.shape[0]), 0.0, float(np.abs(M).max())
    return RmdSolution(t_hat=t, l1_norm=l1, max_residual=max_resid,
                       status=status, iterations=res.iterations, gap=gap, lam=lam)


def gram_and_moments(B, y=None, Mx=None):
    """Row sums over one block A of rows: (sum b b', sum Y b, sum m(X, b)).

    ``B`` holds b(X_i), i in A, one row each, and ``y`` and ``Mx`` the matching
    outcomes and m(X_i, b); a sum whose rows are not given is None.  The features
    are column-major, so a fold's row block is a strided view that BLAS reads
    without a copy and each column sum is contiguous.  The sums
    add across disjoint blocks, and dividing them by |A| gives G_hat = E_A[b b'],
    E_A[Y b] and E_A[m(X, b)].
    """
    return B.T @ B, (None if y is None else B.T @ y), (None if Mx is None else Mx.sum(axis=0))


def fit_rmd(G, M, rule, n_rows, l1_bound=np.inf):
    """Solve the RMD instance (G_hat, M_hat) at the lambda ``rule`` picks.

    G_hat and M_hat are the library's means over ``n_rows`` rows of b(X) and the caller checked
    ``l1_bound``, so only the means' finiteness is checked.  The RmdSolution carries ``lam``.
    """
    if n_rows < 2:
        raise ValueError("need at least 2 rows to fit")
    lam = rule.lam(n_rows, M.shape[0])
    if not (np.isfinite(G).all() and np.isfinite(M).all()):
        raise ValueError("non-finite entries in RMD problem")
    return solve_rmd(G, M, float(lam), float(l1_bound))


def estimate_blp(data, rows, dictionary, rule):
    """Sparse best-linear-predictor fit on the given rows.

    Returns (beta_hat, RmdSolution); the solution's max_residual equals
    ||E_A[b (Y - b'beta_hat)]||_inf.
    """
    rows = np.asarray(rows, dtype=int)
    BB, By, _ = gram_and_moments(design_matrix(dictionary, data, rows), data.outcome[rows])
    sol = fit_rmd(BB / rows.size, By / rows.size, rule, rows.size)
    return sol.t_hat, sol


def estimate_riesz(data, rows, dictionary, functional, rule):
    """Sparse Riesz-representer fit on the given rows.

    Returns (rho_hat, RmdSolution); the solution's max_residual equals
    ||E_A[m(X, b)] - G_hat rho_hat||_inf.
    """
    rows = np.asarray(rows, dtype=int)
    functional.check_compatible(dictionary, data)
    if rows.size == 0:
        raise ValueError("empty row index set")
    B, Mx = functional.features(dictionary, data.covariates[rows])
    BB, _, m_sum = gram_and_moments(B, Mx=Mx)
    sol = fit_rmd(BB / rows.size, m_sum / rows.size, rule, rows.size)
    return sol.t_hat, sol
