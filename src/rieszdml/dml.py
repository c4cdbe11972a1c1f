"""Cross-fitted debiased estimation of E m(X, gamma) with a regularized Riesz representer.

The orthogonal score is

    psi(W; theta, beta, rho) = theta - m(X, b)'beta - rho'b(X) (Y - b(X)'beta),

whose root over a fold is available in closed form because psi is linear in
theta.  Every term of psi comes from two per-observation arrays, B = b(X)
and Mx = m(X, b), which every caller here gets from the functional's one
``features(dictionary, X)`` method.

The folds are ``make_fold_plan``'s K sorted arrays of rows, near-equal slices
of one seeded permutation.  The nuisances on a fold complement A see the data
only through the row sums sum b b', sum Y b and sum m(X, b), which add across
folds.  ``dml_estimate`` concatenates the folds' rows, makes one features
call on the rows in that order and sums each fold's contiguous block with
``rmd.gram_and_moments``; a complement's sums are the sum of the other K - 1
blocks, so no fold gathers its complement.
The fold's own rows give its score contributions (``_fold_contributions``)
and its own block its score-derivative sums (``_derivative_sums``).  The
estimator is the unweighted average of the per-fold roots, with a
cross-fitted plug-in variance and Gaussian confidence interval.

``dml_estimate``'s settings are ``EstimatorConfig``'s fields, and each fold fit receives
that checked record.  Folds run in order, so results are bit-reproducible.
``dml_estimate`` runs numpy's OpenBLAS on one thread, since an estimate's blocks are too
small for two, and restores the caller's count; two threads calling it at once may leave it at 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate
from statistics import NormalDist

import numpy as np

from .dictionaries import check_int, pow2_scale
from .lp import INFEASIBLE, ITERATION_LIMIT, SolverError, _one_blas_thread
from .rmd import (NUMERICAL_FAILURE, LambdaRule, RmdInfeasibleError, RmdSolution, SettingError,
                  fit_rmd, gram_and_moments)


@dataclass(frozen=True)
class EstimatorConfig:
    """Everything dml_estimate needs besides the data and the seed, under its keyword names.

    Built, it defaults ``rule`` to ``LambdaRule()`` and ``riesz_rule`` to ``rule``, then
    checks K (an integer >= 2), alpha, each rule at the dictionary's p and the functional
    against the dictionary, once, raising a ``SettingError`` that names the bad field.
    """

    dictionary: object
    functional: object
    K: int = 5
    rule: LambdaRule | None = None
    riesz_rule: LambdaRule | None = None
    alpha: float = 0.05
    plugin_only: bool = False
    # The frozen benchmark passes l1_bound=est.l1_bound (perfbench/workloads.py), so the field
    # stays, accepting only inf; ROADMAP direction 5b deletes it together with that keyword.
    l1_bound: float = np.inf

    def __post_init__(self):
        object.__setattr__(self, "rule", self.rule or LambdaRule())
        object.__setattr__(self, "riesz_rule", self.riesz_rule or self.rule)
        object.__setattr__(self, "K", check_int("K", self.K, 2))
        if not (0.0 < self.alpha < 1.0 and 1.0 - self.alpha / 2.0 < 1.0):
            raise SettingError("alpha", "alpha must lie in (0, 1), with 1 - alpha / 2 below 1 "
                                        f"in floating point, got {self.alpha!r}")
        for name in ("rule", "riesz_rule"):
            try:  # a rule that picks lambda at one row picks it at any n
                getattr(self, name).lam(1, self.dictionary.output_dim)
            except SettingError as exc:
                raise SettingError(f"{name}.{exc.field}", str(exc)) from None
        if self.l1_bound != np.inf:
            raise SettingError("l1_bound", f"l1_bound must be inf, got {self.l1_bound!r}")
        try:
            self.functional.check_compatible(self.dictionary)
        except ValueError as exc:
            raise SettingError("functional", str(exc)) from None


def make_fold_plan(n, K, seed):
    """K seeded folds of {0..n-1} whose sizes differ by at most one, as sorted row arrays.

    Fold k is the k-th of K near-equal slices of one seeded permutation;
    deterministic given (n, K, seed).
    """
    K = check_int("K", K, 2)
    if n < 2 * K:
        raise SettingError("K", f"need n >= 2K observations for K = {K} folds, got n = {n}")
    perm = np.random.default_rng(check_int("seed", seed, 0)).permutation(n)
    edges = np.linspace(0, n, K + 1).astype(int)
    return [np.sort(perm[a:b]) for a, b in zip(edges, edges[1:])]


# -- score function and derivatives -----------------------------------------

def _fold_contributions(B, Mx, y, beta, rho):
    """Per-row m'beta + rho'b (y - b'beta); psi = theta minus this."""
    return Mx @ beta + (B @ rho) * (y - B @ beta)


def _derivative_sums(sums, beta, rho):
    """Row sums of d psi / d beta = -m + (rho'b) b and d psi / d rho = -b (y - b'beta).

    ``sums`` is (sum b b', sum Y b, sum m(X, b)) over the rows, as
    ``gram_and_moments`` returns it; both derivatives are linear in those.
    """
    BB, By, m_sum = sums
    return BB @ rho - m_sum, BB @ beta - By


def _point_features(w, dictionary, functional):
    """(B, Mx, y) as one-row arrays for the single observation w = (y, x)."""
    y, x = w
    B, Mx = functional.features(dictionary, np.asarray(x, dtype=float).reshape(1, -1))
    return B, Mx, np.array([y], dtype=float)


def score_psi(w, theta, beta, rho, dictionary, functional):
    """psi at one observation w = (y, x)."""
    B, Mx, y = _point_features(w, dictionary, functional)
    return float(theta - _fold_contributions(B, Mx, y, beta, rho)[0])


def score_derivatives(w, theta, beta, rho, dictionary, functional):
    """(d psi / d beta, d psi / d rho) at one observation.

    d_beta psi = -m(x, b) + (rho'b) b  and  d_rho psi = -b (y - b'beta);
    these are the calculus derivatives of psi as written above, used for
    diagnostics and finite-difference checks.
    """
    B, Mx, y = _point_features(w, dictionary, functional)
    return _derivative_sums(gram_and_moments(B, y, Mx), beta, rho)


@dataclass
class FoldRecord:
    """One fold's root and the two RMD fits behind it, each with its lambda."""

    fold: int
    n_eval: int
    n_train: int
    theta: float
    blp: RmdSolution
    riesz: RmdSolution

    def summary(self):
        return {
            "fold": self.fold,
            "n_eval": self.n_eval,
            "n_train": self.n_train,
            "theta": self.theta,
            "lambda_blp": self.blp.lam,
            "lambda_riesz": self.riesz.lam,
            "blp_l1": self.blp.l1_norm,
            "blp_residual": self.blp.max_residual,
            "riesz_l1": self.riesz.l1_norm,
            "riesz_residual": self.riesz.max_residual,
        }


@dataclass
class DmlResult:
    theta_hat: float
    sigma_hat: float
    ci: tuple
    alpha: float
    K: int
    n: int
    per_fold: list
    orthogonality: tuple  # (sup|E_n d_beta psi|, sup|E_n d_rho psi|)
    lambda_used: dict  # {"blp": ..., "riesz": ...} (per-fold means)
    seed: int
    warnings: list = field(default_factory=list)

    def summary(self):
        return {
            "theta_hat": self.theta_hat,
            "sigma_hat": self.sigma_hat,
            "ci": [self.ci[0], self.ci[1]],
            "alpha": self.alpha,
            "K": self.K,
            "n": self.n,
            "per_fold": [rec.summary() for rec in self.per_fold],
            "orthogonality": {
                "d_beta_sup": self.orthogonality[0],
                "d_rho_sup": self.orthogonality[1],
            },
            "lambda_used": dict(self.lambda_used),
            "seed": self.seed,
            "warnings": list(self.warnings),
        }


def fit_and_score_fold(B, Mx, y, complement, est, fold_id=0):
    """Fit nuisances on the fold complement, evaluate the fold estimate on the fold.

    ``B``, ``Mx`` and ``y`` hold b(X), m(X, b) and Y for the fold's own rows
    only.  ``complement`` is (n_A, sum b b', sum Y b, sum m(X, b)) over the
    complement A, so the nuisance fits never see an evaluation row.  ``est`` is the
    checked ``EstimatorConfig``; under its ``plugin_only`` the Riesz fit is a "not_fitted"
    solution with rho = 0 and lambda 0.  Returns the record and per-row score contributions.
    """
    if B.shape[0] == 0:
        raise ValueError("empty fold")
    n_train, BB, By, m_sum = complement
    G = BB / n_train
    blp = _require_solved(fit_rmd(G, By / n_train, est.rule, n_train), "BLP", fold_id)
    if est.plugin_only:
        riesz = RmdSolution(np.zeros(B.shape[1]), 0.0, 0.0, "not_fitted", 0, np.nan, 0.0)
    else:
        riesz = _require_solved(fit_rmd(G, m_sum / n_train, est.riesz_rule, n_train),
                                "Riesz", fold_id)

    contrib = _fold_contributions(B, Mx, y, blp.t_hat, riesz.t_hat)
    record = FoldRecord(fold=fold_id, n_eval=int(B.shape[0]), n_train=int(n_train),
                        theta=float(contrib.mean()), blp=blp, riesz=riesz)
    return record, contrib


def _require_solved(sol, which, fold_id):
    """``sol`` itself when it is certified optimal; otherwise the typed failure."""
    if sol.status == INFEASIBLE:
        raise RmdInfeasibleError(f"{which} RMD fit certified infeasible in fold {fold_id}")
    if sol.status == ITERATION_LIMIT:
        raise SolverError(f"{which} RMD fit hit the iteration limit in fold {fold_id}")
    if sol.status == NUMERICAL_FAILURE:
        raise SolverError(f"{which} RMD fit failed its feasibility or duality-gap "
                          f"certificate in fold {fold_id}")
    return sol


def _mean_lambda(lams):
    """The mean of the per-fold lambdas over ``pow2_scale`` of the largest: np.mean's bits
    wherever that is finite and normal, since the division is exact, and finite whenever each is."""
    scale = pow2_scale(np.abs(lams).max())
    return float(np.mean(np.divide(lams, scale)) * scale)


def dml_estimate(data, dictionary, functional, seed=0, **settings):
    """Cross-fitted estimate with standard error and Gaussian confidence interval.

    ``settings`` are ``EstimatorConfig``'s fields (K, rule, riesz_rule, alpha, plugin_only),
    defaults included.  ``rule`` drives the BLP lambda and, unless
    ``riesz_rule`` is given, the Riesz lambda as well.  ``plugin_only`` forces rho_hat = 0
    (no debiasing term); it exists as a comparison baseline for simulation studies.
    The K folds are ``make_fold_plan(n, K, seed)``, so the result is deterministic given
    (data, config, seed).  Before any fit, the settings are checked as an
    ``EstimatorConfig`` and K against n by ``make_fold_plan``.
    """
    est = EstimatorConfig(dictionary, functional, **settings)
    functional.check_compatible(dictionary, data)
    n = data.n
    fold_rows = make_fold_plan(n, est.K, seed)

    with _one_blas_thread():
        # Sort the rows by fold: fold k is the contiguous block folds[k - 1] of the
        # sorted rows, and order maps each sorted row back to its original row.
        order = np.concatenate(fold_rows)
        edges = [0, *accumulate(rows.size for rows in fold_rows)]
        folds = [slice(a, b) for a, b in zip(edges, edges[1:])]
        B, Mx = functional.features(dictionary, data.covariates[order])
        y = data.outcome[order]
        blocks = [gram_and_moments(B[f], y[f], Mx[f]) for f in folds]

        records = []
        contribs = np.empty(n)
        d_beta_sum = np.zeros(B.shape[1])
        d_rho_sum = np.zeros(B.shape[1])
        for k, f in enumerate(folds, start=1):
            # the other blocks added in fold order, not the total minus this one: nothing cancels
            others = blocks[:k - 1] + blocks[k:]
            complement = (n - (f.stop - f.start),
                          *(sum(parts[1:], parts[0]) for parts in zip(*others)))
            record, contrib = fit_and_score_fold(B[f], Mx[f], y[f], complement, est, fold_id=k)
            records.append(record)
            contribs[order[f]] = contrib
            d_beta, d_rho = _derivative_sums(blocks[k - 1], record.blp.t_hat, record.riesz.t_hat)
            d_beta_sum += d_beta
            d_rho_sum += d_rho

    theta_hat = float(np.mean([rec.theta for rec in records]))
    psi = theta_hat - contribs
    sigma_hat = float(np.sqrt(np.mean(psi ** 2)))

    warn_list = []
    if sigma_hat == 0.0:
        warn_list.append("degenerate score: psi is constant across observations; zero-width CI")
    z = NormalDist().inv_cdf(1.0 - est.alpha / 2.0)
    half = z * sigma_hat / np.sqrt(n)
    ci = (theta_hat - half, theta_hat + half)

    orthogonality = (
        float(np.abs(d_beta_sum / n).max()),
        float(np.abs(d_rho_sum / n).max()),
    )
    lambda_used = {
        "blp": _mean_lambda([rec.blp.lam for rec in records]),
        "riesz": _mean_lambda([rec.riesz.lam for rec in records]),
    }
    return DmlResult(
        theta_hat=theta_hat,
        sigma_hat=sigma_hat,
        ci=ci,
        alpha=est.alpha,
        K=est.K,
        n=n,
        per_fold=records,
        orthogonality=orthogonality,
        lambda_used=lambda_used,
        seed=seed,
        warnings=warn_list,
    )


def orthogonality_report(data, dictionary, functional, beta_hat, rho_hat):
    """Sup-norms of the averaged score derivatives at (beta_hat, rho_hat).

    Returns (||E_n d_beta psi||_inf, ||E_n d_rho psi||_inf) over all rows of
    ``data``.
    """
    B, Mx = functional.features(dictionary, data.covariates)
    d_beta, d_rho = _derivative_sums(gram_and_moments(B, data.outcome, Mx), beta_hat, rho_hat)
    return float(np.abs(d_beta / data.n).max()), float(np.abs(d_rho / data.n).max())
