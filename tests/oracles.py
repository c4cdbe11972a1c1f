"""Independent oracles used by the tests.

``lp_vertex_oracle`` enumerates every basic solution of the standard-form LP
behind an RMD instance and returns the optimal l1 value (or None when no
feasible basis exists).  It shares no code with the simplex backend.

``true_riesz_rows`` is the closed-form Riesz representer of the simulation
designs that have one, and ``monte_carlo_theta`` the plain Monte Carlo mean
of m(X, gamma*) that the exact targets of ``true_theta_info`` must match.

``highs_l1`` is the optimal l1 norm of an RMD instance from scipy's HiGHS.

``PerTermPolynomialDictionary`` and ``PerTermFourierDictionary`` write one
column per term, the way ``src/`` did before it wrote column blocks; they
are the reference the block forms must match bit for bit.

``reference_dml`` is the cross-fitted estimator written the slow, plain way,
the reference ``dml_estimate`` must match as a whole.
"""

import math
from itertools import combinations
from types import SimpleNamespace

import numpy as np
from scipy.optimize import linprog
from scipy.stats import norm

from rieszdml import (
    AteLogisticDgp,
    AverageDerivative,
    AverageTreatmentEffect,
    PolicyShift,
    SparseLinearDgp,
    check_problem,
    solve_rmd,
)
from rieszdml.dictionaries import Dictionary, _check_rows


def rmd_standard_form(G, M, lam, l1_bound=np.inf):
    """Standard form min c'z, Az = b, z >= 0 of one RMD instance."""
    p = len(M)
    bounded = np.isfinite(l1_bound)
    m = 2 * p + (1 if bounded else 0)
    ncols = 4 * p + (1 if bounded else 0)
    A = np.zeros((m, ncols))
    A[:p, :p] = G
    A[:p, p:2 * p] = -G
    A[:p, 2 * p:3 * p] = np.eye(p)
    A[p:2 * p, :p] = -G
    A[p:2 * p, p:2 * p] = G
    A[p:2 * p, 3 * p:4 * p] = np.eye(p)
    b = np.concatenate([M + lam, lam - M])
    if bounded:
        A[2 * p, :2 * p] = 1.0
        A[2 * p, 4 * p] = 1.0
        b = np.append(b, l1_bound)
    c = np.zeros(ncols)
    c[:2 * p] = 1.0
    return A, b, c


def lp_vertex_oracle(G, M, lam, l1_bound=np.inf):
    """Brute-force optimum of the RMD LP by basic-solution enumeration."""
    A, b, c = rmd_standard_form(np.asarray(G, float), np.asarray(M, float),
                                float(lam), float(l1_bound))
    m, ncols = A.shape
    bases = np.array(list(combinations(range(ncols), m)))
    mats = A[:, bases].transpose(1, 0, 2)  # (N, m, m)
    dets = np.linalg.det(mats)
    solvable = np.abs(dets) > 1e-10
    N = len(bases)
    sols = np.zeros((N, m))
    if solvable.any():
        rhs = np.broadcast_to(b[:, None], (int(solvable.sum()), m, 1)).copy()
        sols[solvable] = np.linalg.solve(mats[solvable], rhs)[..., 0]
    exact = np.zeros(N, dtype=bool)
    if solvable.any():
        resid = np.einsum("nij,nj->ni", mats[solvable], sols[solvable]) - b
        exact[solvable] = np.all(np.abs(resid) < 1e-7, axis=1)
    feasible = solvable & exact & np.all(sols >= -1e-9, axis=1)
    if not feasible.any():
        return None
    objs = np.einsum("nj,nj->n", c[bases], sols)
    return float(objs[feasible].min())


def highs_l1(G, M, lam, l1_bound=np.inf):
    """Optimal l1 norm from scipy's HiGHS on the 2p-inequality form, or None if infeasible."""
    p = len(M)
    A_ub = np.vstack([np.hstack([G, -G]), np.hstack([-G, G])])
    b_ub = np.concatenate([M + lam, lam - M])
    if np.isfinite(l1_bound):
        A_ub = np.vstack([A_ub, np.ones(2 * p)])
        b_ub = np.append(b_ub, l1_bound)
    res = linprog(np.ones(2 * p), A_ub=A_ub, b_ub=b_ub, bounds=(0, None), method="highs")
    assert res.status in (0, 2), res.message
    return res.fun if res.status == 0 else None


def fd_jacobian(func, x, h=1e-5):
    """Central finite differences of a vector-valued function, (p, d)."""
    x = np.asarray(x, dtype=float)
    f0 = np.asarray(func(x))
    out = np.zeros((f0.shape[0], x.shape[0]))
    for k in range(x.shape[0]):
        xp = x.copy()
        xm = x.copy()
        xp[k] += h
        xm[k] -= h
        out[:, k] = (np.asarray(func(xp)) - np.asarray(func(xm))) / (2.0 * h)
    return out


def jacobian(dictionary, x):
    """Jacobian of b at x, (p, d): column k is the production derivative along e_k."""
    X = np.asarray(x, dtype=float)[np.newaxis, :]
    return np.column_stack([dictionary.directional_gradient_rows(X, e)[0]
                            for e in np.eye(dictionary.input_dim)])


class PerTermPolynomialDictionary(Dictionary):
    def __init__(self, input_dim, degree, with_interactions=False):
        self.input_dim = int(input_dim)
        self.degree = int(degree)
        self.with_interactions = bool(with_interactions)
        d = self.input_dim
        # terms: ("const",), ("pow", k, g), ("pair", j, k)
        terms = [("const",)]
        for g in range(1, self.degree + 1):
            for k in range(d):
                terms.append(("pow", k, g))
            if g == 2 and self.with_interactions:
                for j in range(d):
                    for k in range(j + 1, d):
                        terms.append(("pair", j, k))
        self.terms = tuple(terms)
        self.output_dim = len(terms)

    def evaluate_rows(self, X):
        X = _check_rows(X, self.input_dim)
        n = X.shape[0]
        out = np.empty((n, self.output_dim))
        for col, term in enumerate(self.terms):
            if term[0] == "const":
                out[:, col] = 1.0
            elif term[0] == "pow":
                _, k, g = term
                out[:, col] = X[:, k] ** g
            else:
                _, j, k = term
                out[:, col] = X[:, j] * X[:, k]
        return out

    def directional_gradient_rows(self, X, a):
        X = _check_rows(X, self.input_dim)
        a = np.asarray(a, dtype=float)
        n = X.shape[0]
        out = np.zeros((n, self.output_dim))
        for col, term in enumerate(self.terms):
            if term[0] == "pow":
                _, k, g = term
                if a[k] != 0.0:
                    out[:, col] = a[k] * g * X[:, k] ** (g - 1)
            elif term[0] == "pair":
                _, j, k = term
                out[:, col] = a[j] * X[:, k] + a[k] * X[:, j]
        return out


class PerTermFourierDictionary(Dictionary):
    def __init__(self, input_dim, order):
        self.input_dim = int(input_dim)
        self.order = int(order)
        self.output_dim = 1 + 2 * self.input_dim * self.order

    def _freqs(self):
        # columns after the constant: for k in coords, for j in 1..order:
        # cos(j pi x_k), sin(j pi x_k)
        for k in range(self.input_dim):
            for j in range(1, self.order + 1):
                yield k, j

    def evaluate_rows(self, X):
        X = _check_rows(X, self.input_dim)
        n = X.shape[0]
        out = np.empty((n, self.output_dim))
        out[:, 0] = 1.0
        col = 1
        for k, j in self._freqs():
            arg = j * np.pi * X[:, k]
            out[:, col] = np.cos(arg)
            out[:, col + 1] = np.sin(arg)
            col += 2
        return out

    def directional_gradient_rows(self, X, a):
        X = _check_rows(X, self.input_dim)
        a = np.asarray(a, dtype=float)
        n = X.shape[0]
        out = np.zeros((n, self.output_dim))
        col = 1
        for k, j in self._freqs():
            w = j * np.pi
            arg = w * X[:, k]
            out[:, col] = -a[k] * w * np.sin(arg)
            out[:, col + 1] = a[k] * w * np.cos(arg)
            col += 2
        return out


def reference_m_rows(dictionary, functional, X):
    """m(x_i, b) row by row, from the functional's definition rather than its ``features``."""
    if isinstance(functional, AverageDerivative):
        return dictionary.directional_gradient_rows(X, functional.direction)
    if isinstance(functional, PolicyShift):
        S, c = functional.transport_matrix, functional.shift
        shifted = np.array([S @ x + c for x in X])
        return dictionary.evaluate_rows(shifted) - dictionary.evaluate_rows(X)
    if isinstance(functional, AverageTreatmentEffect):
        treated, untreated = X.copy(), X.copy()
        treated[:, functional.treatment_col] = 1.0
        untreated[:, functional.treatment_col] = 0.0
        return dictionary.evaluate_rows(treated) - dictionary.evaluate_rows(untreated)
    raise TypeError(f"no reference m for {type(functional).__name__}")


def reference_fit(G, M, rule, n_rows):
    """One RMD fit at the lambda ``rule`` picks, its optimal l1 norm checked against HiGHS."""
    sol = solve_rmd(*check_problem(G, M, rule.lam(n_rows, len(M))))
    assert sol.status == "optimal", sol.status
    expect = highs_l1(G, M, sol.lam)
    assert math.isclose(sol.l1_norm, expect, rel_tol=1e-7, abs_tol=1e-12), (sol.l1_norm, expect)
    return sol


def reference_folds(n, K, seed):
    """The K folds: fold k holds the k-th of K near-equal slices of one seeded permutation."""
    perm = np.random.default_rng(seed).permutation(n)
    edges = np.linspace(0, n, K + 1).astype(int)
    fold_of = np.empty(n, dtype=int)
    for k in range(K):
        fold_of[perm[edges[k]:edges[k + 1]]] = k
    return [np.flatnonzero(fold_of == k) for k in range(K)]


def reference_dml(data, dictionary, functional, K, rule, alpha=0.05, seed=0):
    """The cross-fitted estimate of E m(X, gamma) on the folds ``reference_folds`` draws.

    Each fold's nuisances are fitted on the means G = E_A[b b'], E_A[Y b] and
    E_A[m(X, b)] over its gathered complement rows A; its theta is the mean
    of m'beta + rho'b (Y - b'beta) over its own rows.  ``dictionary`` should
    be a per-term reference, and m comes from ``reference_m_rows``.
    """
    X, Y, n = data.covariates, data.outcome, data.n
    B = dictionary.evaluate_rows(X)
    Mx = reference_m_rows(dictionary, functional, X)
    contributions = np.empty(n)
    fold_theta, blp, riesz = [], [], []
    for rows in reference_folds(n, K, seed):
        rest = np.setdiff1d(np.arange(n), rows)
        B_A = B[rest]
        G = B_A.T @ B_A / rest.size
        beta = reference_fit(G, B_A.T @ Y[rest] / rest.size, rule, rest.size)
        rho = reference_fit(G, Mx[rest].mean(axis=0), rule, rest.size)
        fit = B[rows] @ beta.t_hat
        contributions[rows] = Mx[rows] @ beta.t_hat + (B[rows] @ rho.t_hat) * (Y[rows] - fit)
        fold_theta.append(contributions[rows].mean())
        blp.append(beta)
        riesz.append(rho)
    theta = np.mean(fold_theta)
    sigma = np.sqrt(np.mean((theta - contributions) ** 2))
    half = norm.ppf(1.0 - alpha / 2.0) * sigma / np.sqrt(n)
    return SimpleNamespace(theta_hat=theta, sigma_hat=sigma, ci=(theta - half, theta + half),
                           fold_theta=fold_theta, blp=blp, riesz=riesz)


class NoClosedFormError(ValueError):
    """No closed-form Riesz representer for this (dgp, functional)."""


def true_riesz_rows(dgp, functional, X):
    """alpha*(x_i) per row, for the (dgp, functional) pairs with closed forms."""
    X = np.asarray(X, dtype=float)
    if isinstance(dgp, AteLogisticDgp) and isinstance(functional, AverageTreatmentEffect):
        D = X[:, 0]
        pi = dgp.propensity(X[:, 1:])
        return D / pi - (1.0 - D) / (1.0 - pi)
    if isinstance(dgp, SparseLinearDgp) and isinstance(functional, AverageDerivative):
        if dgp.x_dist != "normal":
            raise NoClosedFormError("score-based Riesz representer requires normal covariates")
        return X @ functional.direction
    if isinstance(dgp, SparseLinearDgp) and isinstance(functional, PolicyShift):
        S, c = functional.transport_matrix, functional.shift
        if np.array_equal(S, np.eye(S.shape[0])) and not np.any(c):
            return np.zeros(X.shape[0])
        if dgp.x_dist != "normal":
            raise NoClosedFormError("density-ratio representer requires normal covariates")
        return _gaussian_shift_density_ratio(X, S, c) - 1.0
    raise NoClosedFormError(
        f"no closed-form Riesz representer for ({type(dgp).__name__}, {type(functional).__name__})"
    )


def monte_carlo_theta(dgp, functional, draws, seed):
    """(mean, se) of m(X, gamma*) over ``draws`` fresh rows of a SparseLinearDgp's covariate law."""
    rng = np.random.default_rng(seed)
    shape = (draws, dgp.d)
    X = rng.standard_normal(shape) if dgp.x_dist == "normal" else rng.uniform(-1.0, 1.0, shape)
    if isinstance(functional, PolicyShift):
        S, c = functional.transport_matrix, functional.shift
        vals = dgp.gamma_values(X @ S.T + c) - dgp.gamma_values(X)
    else:
        vals = dgp.dictionary.directional_gradient_rows(X, functional.direction) @ dgp.beta_star
    return vals.mean(), vals.std() / np.sqrt(draws)


def _gaussian_shift_density_ratio(X, S, c):
    """density of N(c, SS') over density of N(0, I), evaluated row-wise."""
    cov = S @ S.T
    sign, logdet = np.linalg.slogdet(cov)
    if sign <= 0:
        raise NoClosedFormError("transport matrix must be nonsingular for the density ratio")
    diff = X - c
    sol = np.linalg.solve(cov, diff.T).T
    log_num = -0.5 * np.einsum("ij,ij->i", diff, sol) - 0.5 * logdet
    log_den = -0.5 * np.einsum("ij,ij->i", X, X)
    return np.exp(log_num - log_den)
