import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from rieszdml import (
    AverageDerivative,
    AverageTreatmentEffect,
    Dataset,
    IdentityDictionary,
    PolicyShift,
    PolynomialDictionary,
    TreatmentInteractedDictionary,
    estimate_blp,
    estimate_riesz,
    solve_rmd,
)
from rieszdml import lp, rmd
from rieszdml.rmd import LambdaRule, RmdProblem

from oracles import highs_l1, lp_vertex_oracle


def random_problem(rng, p, lam_scale=0.4, allow_bound=True):
    A = rng.standard_normal((p + 2, p))
    G = A.T @ A / (p + 2)
    M = rng.standard_normal(p)
    lam = float(abs(rng.standard_normal()) * lam_scale)
    B = np.inf
    if allow_bound and rng.random() < 0.3:
        B = float(abs(rng.standard_normal()) * 2.0 + 0.5)
    return RmdProblem(G, M, lam, B)


# -- solve_rmd examples -------------------------------------------------------

def test_identity_soft_threshold_example():
    sol = solve_rmd(RmdProblem(np.eye(3), np.array([0.9, 0.1, 0.0]), 0.2))
    np.testing.assert_allclose(sol.t_hat, [0.7, 0.0, 0.0], atol=1e-12)
    assert sol.status == "optimal"


def test_large_lambda_gives_zero():
    rng = np.random.default_rng(0)
    for _ in range(10):
        prob = random_problem(rng, 4, allow_bound=False)
        prob = RmdProblem(prob.G_hat, prob.M_hat, np.abs(prob.M_hat).max() + 0.1)
        sol = solve_rmd(prob)
        np.testing.assert_allclose(sol.t_hat, 0.0)
        assert sol.status == "optimal"


def test_invertible_gram_zero_lambda():
    G = np.array([[1.0, 0.5], [0.5, 1.0]])
    M = np.array([1.0, 1.0])
    sol = solve_rmd(RmdProblem(G, M, 0.0))
    # unique solution of G t = M, cross-checked by the vertex oracle
    oracle = lp_vertex_oracle(G, M, 0.0)
    np.testing.assert_allclose(sol.t_hat, [2.0 / 3.0, 2.0 / 3.0], atol=1e-10)
    assert sol.l1_norm == pytest.approx(oracle, abs=1e-10)


def test_soft_threshold_law_100_random():
    rng = np.random.default_rng(100)
    for _ in range(100):
        p = int(rng.integers(1, 12))
        M = rng.standard_normal(p) * 2.0
        lam = float(abs(rng.standard_normal()))
        sol = solve_rmd(RmdProblem(np.eye(p), M, lam))
        expect = np.sign(M) * np.maximum(np.abs(M) - lam, 0.0)
        assert sol.status == "optimal"
        assert np.abs(sol.t_hat - expect).max() <= 1e-10


def test_oracle_equivalence_100_random():
    rng = np.random.default_rng(42)
    for i in range(100):
        p = int(rng.integers(1, 5))
        prob = random_problem(rng, p)
        oracle = lp_vertex_oracle(prob.G_hat, prob.M_hat, prob.lam, prob.l1_bound)
        sol = solve_rmd(prob)
        if oracle is None:
            assert sol.status == "infeasible", i
        else:
            assert sol.status == "optimal", (i, sol.status)
            assert sol.l1_norm == pytest.approx(oracle, abs=1e-6)


def test_homogeneity_of_optimal_value():
    rng = np.random.default_rng(3)
    for _ in range(20):
        prob = random_problem(rng, 5, allow_bound=False)
        c = float(rng.uniform(0.2, 5.0))
        base = solve_rmd(prob)
        scaled = solve_rmd(RmdProblem(prob.G_hat, c * prob.M_hat, c * prob.lam))
        assert scaled.l1_norm == pytest.approx(c * base.l1_norm, rel=1e-9, abs=1e-9)


def test_feasibility_postcheck_direct():
    rng = np.random.default_rng(17)
    for _ in range(50):
        prob = random_problem(rng, 8)
        sol = solve_rmd(prob)
        if sol.status != "optimal":
            continue
        resid = np.abs(prob.G_hat @ sol.t_hat - prob.M_hat).max()
        assert resid <= prob.lam + 1e-7
        assert sol.l1_norm <= prob.l1_bound + 1e-7
        assert sol.max_residual == pytest.approx(resid, abs=1e-12)


def test_restricted_set_membership_when_t0_feasible():
    # noiseless data: beta* satisfies the population equations exactly
    rng = np.random.default_rng(8)
    p = 6
    X = rng.standard_normal((80, p))
    beta_star = np.zeros(p)
    beta_star[:2] = [1.0, -0.5]
    y = X @ beta_star
    G = X.T @ X / 80
    M = X.T @ y / 80
    for lam in [0.0, 0.05, 0.2]:
        # beta* is feasible at every lambda here since G beta* = M exactly
        assert np.abs(G @ beta_star - M).max() <= lam + 1e-12
        sol = solve_rmd(RmdProblem(G, M, lam))
        assert sol.l1_norm <= np.abs(beta_star).sum() + 1e-7


def test_degenerate_gram_duplicated_columns():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((30, 3))
    X = np.hstack([X, X[:, :1]])  # duplicated dictionary column
    G = X.T @ X / 30
    M = X.T @ (X[:, 0] + 0.2 * rng.standard_normal(30)) / 30
    sol = solve_rmd(RmdProblem(G, M, 0.1))
    assert sol.status == "optimal"
    assert np.abs(G @ sol.t_hat - M).max() <= 0.1 + 1e-7


def _assert_matches_highs(prob):
    sol = solve_rmd(prob)
    assert sol.status == "optimal"
    assert sol.gap <= 1e-7 * (1.0 + sol.l1_norm)
    assert sol.l1_norm == pytest.approx(highs_l1(prob.G_hat, prob.M_hat, prob.lam, prob.l1_bound),
                                        rel=1e-7)


def test_refactorization_path_rank_deficient_gram():
    # p = 250 dictionary columns from 127 rows, the last a copy of the first:
    # the rank-deficient Gram takes the simplex past _REFACTOR_EVERY pivots.
    rng = np.random.default_rng(1)
    n, p = 127, 250
    X = rng.standard_normal((n, p - 1))
    X = np.hstack([X, X[:, :1]])
    y = X[:, :5] @ np.array([1.0, -0.8, 0.5, 0.3, -0.2]) + rng.standard_normal(n)
    prob = RmdProblem(X.T @ X / n, X.T @ y / n, 0.25 * np.sqrt(np.log(p) / n))
    res = lp.solve_standard_form(prob.G_hat, prob.M_hat, prob.lam)
    assert res.iterations > lp._REFACTOR_EVERY and res.refactorizations > 0
    _assert_matches_highs(prob)


def test_bland_path_duplicated_columns(monkeypatch):
    # Every column appears twice, so tied dual constraints make degenerate
    # pivots; a stall limit of 0 turns Bland's rule on at the first of them.
    rng = np.random.default_rng(2501)
    X = rng.integers(-2, 3, size=(3, 8)) / 2.0
    X[:, 4:] = X[:, :4]
    prob = RmdProblem(X.T @ X / 3, X.T @ rng.integers(-2, 3, size=3) / 3, 0.125)
    monkeypatch.setattr(lp, "_STALL_LIMIT_FACTOR", 0)
    res = lp.solve_standard_form(prob.G_hat, prob.M_hat, prob.lam)
    assert res.bland_switches > 0
    _assert_matches_highs(prob)


def test_drifted_basic_solution_is_refactorized_before_optimal():
    # lambda = 0 on a singular, ill-conditioned Gram (t ~ 5e4 from M ~ 0.25):
    # after 8 eta updates the basic solution misses G t = M by 4e-7, which the
    # certificate rejects; one refactorization brings it to 5e-12.
    G = np.array([[0, 0, 0, 0, 0, 0], [0, 13, 7, -11, 5, 4], [0, 7, 13, 1, -1, 11],
                  [0, -11, 1, 25, -3, 0], [0, 5, -1, -3, 23, 9], [0, 4, 11, 0, 9, 19]]) / 24.0
    prob = RmdProblem(G, np.array([0, 0, 0, 0, 0, 0.25]), 0.0)
    res = lp.solve_standard_form(prob.G_hat, prob.M_hat, prob.lam)
    assert res.status == "optimal" and res.refactorizations == 1
    sol = solve_rmd(prob)
    assert sol.status == "optimal" and sol.max_residual <= 1e-9


def test_iteration_limit_status(monkeypatch):
    rng = np.random.default_rng(9)
    prob = random_problem(rng, 10, allow_bound=False)
    monkeypatch.setattr(rmd, "MAX_ITERS", 1)
    sol = solve_rmd(prob)
    assert sol.status == "iteration_limit"


def test_problem_validation():
    with pytest.raises(ValueError):
        RmdProblem(np.array([[1.0, 0.5], [0.0, 1.0]]), np.zeros(2), 0.1)  # asymmetric
    with pytest.raises(ValueError):
        RmdProblem(np.eye(2), np.zeros(2), -0.1)
    with pytest.raises(ValueError):
        RmdProblem(np.eye(2), np.array([np.nan, 0.0]), 0.1)
    with pytest.raises(ValueError):
        RmdProblem(np.eye(2), np.zeros(2), 0.1, l1_bound=0.0)
    with pytest.raises(ValueError):
        RmdProblem(np.eye(2), np.zeros(3), 0.1)


def test_problem_rejects_empty_gram():
    with pytest.raises(ValueError, match="G_hat is empty"):
        RmdProblem(np.zeros((0, 0)), np.zeros(0), 0.1)


def test_uncertified_optimum_is_numerical_failure(monkeypatch):
    # G = I, M = (1, 0), lambda = 0.5: the optimum is t = (0.5, 0), l1 0.5.
    prob = RmdProblem(np.eye(2), np.array([1.0, 0.0]), 0.5)
    z_optimal = np.array([0.5, 0.0, 0.0, 0.0, 0.5, 0.0])
    z_infeasible = np.zeros(6)  # residual 1 > lambda
    z_gap_open = np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0])  # feasible, l1 1 > 0.5
    y_optimal = np.array([1.0, 0.0])

    def claims_optimal(z, y):
        return lambda G, M, lam, max_iters: lp.LpResult(z, lp.OPTIMAL, 1, y)

    for z, y, expect in [(z_optimal, y_optimal, "optimal"),
                         (z_infeasible, y_optimal, "numerical_failure"),
                         (z_gap_open, y_optimal, "numerical_failure"),
                         (z_optimal, np.zeros(2), "numerical_failure")]:
        monkeypatch.setattr(lp, "solve_standard_form", claims_optimal(z, y))
        sol = solve_rmd(prob)
        assert sol.status == expect, (z, y)
    assert sol.gap == pytest.approx(0.5)


# -- differential test against HiGHS ------------------------------------------------

@pytest.mark.parametrize("p", [30, 80, 160, 250])
@pytest.mark.parametrize("budget", [None, 1.5, 0.5])
def test_differential_against_highs(p, budget):
    # Realistic Dantzig instances: a sparse regression Gram at n = 2p rows.
    # ``budget`` scales the unconstrained optimum into an l1_bound: 1.5 leaves
    # it slack, 0.5 makes the LP infeasible.  Objectives are compared, not t,
    # since Dantzig LPs can have tied optima.
    rng = np.random.default_rng(p)
    n = 2 * p
    X = rng.standard_normal((n, p))
    y = X[:, :5] @ np.array([1.0, -0.8, 0.5, 0.3, -0.2]) + rng.standard_normal(n)
    G, M = X.T @ X / n, X.T @ y / n
    lam = 0.5 * np.sqrt(np.log(p) / n)
    l1_bound = np.inf
    if budget is not None:
        l1_bound = budget * solve_rmd(RmdProblem(G, M, lam)).l1_norm
    sol = solve_rmd(RmdProblem(G, M, lam, l1_bound))
    expect = highs_l1(G, M, lam, l1_bound)
    if expect is None:
        assert sol.status == "infeasible"
        return
    assert sol.status == "optimal"
    assert sol.l1_norm == pytest.approx(expect, rel=1e-7)
    assert sol.gap <= 1e-7 * (1.0 + sol.l1_norm)


def test_budget_at_the_optimum_is_feasible():
    # The budget ||t||_1 <= B with B the certified unbudgeted optimum, l1 ~ 4438.46.
    rng = np.random.default_rng(12)
    X = rng.standard_normal((31, 30))
    G, M, lam = X.T @ X / 31, rng.standard_normal(30), 0.05
    l1_bound = solve_rmd(RmdProblem(G, M, lam)).l1_norm
    sol = solve_rmd(RmdProblem(G, M, lam, l1_bound))
    assert sol.status == "optimal"
    assert sol.l1_norm == pytest.approx(highs_l1(G, M, lam, l1_bound), rel=1e-7)


# -- property tests ------------------------------------------------------------------
# Problems are drawn on a coarse grid so that degenerate vertices, tied ratios
# and singular Grams come up often.

@st.composite
def rmd_problems(draw, bounded=True):
    p = draw(st.integers(1, 6))
    k = draw(st.integers(1, p + 3))
    X = np.array(draw(st.lists(st.integers(-4, 4), min_size=k * p, max_size=k * p)),
                 dtype=float).reshape(k, p) / 2.0
    M = np.array(draw(st.lists(st.integers(-8, 8), min_size=p, max_size=p)), dtype=float) / 4.0
    lam = draw(st.integers(0, 8)) / 8.0
    l1_bound = np.inf
    if bounded and draw(st.booleans()):
        l1_bound = draw(st.integers(1, 16)) / 4.0
    return RmdProblem(X.T @ X / k, M, lam, l1_bound)


@settings(max_examples=50, deadline=None)
@given(prob=rmd_problems(), a=st.floats(0.1, 10.0))
def test_property_positive_homogeneity(prob, a):
    base = solve_rmd(prob)
    scaled = solve_rmd(RmdProblem(prob.G_hat, a * prob.M_hat, a * prob.lam, a * prob.l1_bound))
    assert scaled.status == base.status
    assert scaled.l1_norm == pytest.approx(a * base.l1_norm, rel=1e-9, abs=1e-9)


@settings(max_examples=50, deadline=None)
@given(prob=rmd_problems(), data=st.data())
def test_property_permutation_invariance(prob, data):
    perm = np.array(data.draw(st.permutations(range(prob.p))))
    base = solve_rmd(prob)
    permuted = solve_rmd(RmdProblem(prob.G_hat[np.ix_(perm, perm)], prob.M_hat[perm],
                                    prob.lam, prob.l1_bound))
    assert permuted.status == base.status
    assert permuted.l1_norm == pytest.approx(base.l1_norm, rel=1e-9, abs=1e-9)


@settings(max_examples=50, deadline=None)
@given(prob=rmd_problems(bounded=False), extra=st.integers(0, 4))
def test_property_large_lambda_gives_zero(prob, extra):
    lam = np.abs(prob.M_hat).max() + extra / 4.0
    sol = solve_rmd(RmdProblem(prob.G_hat, prob.M_hat, lam))
    assert sol.status == "optimal"
    assert np.all(sol.t_hat == 0.0)


@settings(max_examples=50, deadline=None)
@given(prob=rmd_problems())
def test_property_optimum_is_certified(prob):
    sol = solve_rmd(prob)
    assert sol.status in ("optimal", "infeasible")
    if sol.status == "optimal":
        assert np.abs(prob.G_hat @ sol.t_hat - prob.M_hat).max() <= prob.lam + 1e-7
        assert sol.l1_norm <= prob.l1_bound + 1e-7
        assert sol.gap <= 1e-7 * (1.0 + sol.l1_norm)


@st.composite
def sample_gram_problems(draw):
    """Sample Grams with one row more than columns: ill-conditioned, many pivots."""
    p = draw(st.integers(2, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    X = rng.standard_normal((p + 1, p))
    return RmdProblem(X.T @ X / (p + 1), rng.standard_normal(p), draw(st.sampled_from([0.05, 0.2])))


@settings(max_examples=50, deadline=None)
@given(prob=st.one_of(rmd_problems(bounded=False), sample_gram_problems()),
       slack=st.integers(0, 8))
def test_property_slack_budget_keeps_the_fit(prob, slack):
    # The objective is ||t||_1 itself, so a budget at or above the optimum
    # cannot change the fitted coefficients.
    free = solve_rmd(prob)
    l1_bound = free.l1_norm + slack / 4.0
    assume(free.status == "optimal" and l1_bound > 0.0)
    sol = solve_rmd(RmdProblem(prob.G_hat, prob.M_hat, prob.lam, l1_bound))
    assert sol.status == "optimal"
    assert sol.t_hat.tobytes() == free.t_hat.tobytes()


# -- lambda rules ----------------------------------------------------------------

def test_lambda_rules():
    assert LambdaRule.fixed(0.3).lam(100, 10) == 0.3
    rule = LambdaRule.gaussian_quantile(c=1.1, alpha=0.05)
    expect = 1.1 * norm.ppf(1.0 - 0.05 / 20.0) / np.sqrt(400.0)
    assert rule.lam(400, 10) == pytest.approx(expect, rel=1e-12)
    with pytest.raises(ValueError):
        LambdaRule(method="nope").lam(10, 2)
    with pytest.raises(ValueError):
        LambdaRule.fixed(-1.0).lam(10, 2)


# -- estimate_blp ----------------------------------------------------------------

def test_blp_noiseless_feasibility_and_l1():
    rng = np.random.default_rng(31)
    p = 8
    X = rng.standard_normal((100, p))
    beta_star = np.zeros(p)
    beta_star[:3] = [1.0, -0.4, 0.2]
    data = Dataset(X @ beta_star, X)
    dic = IdentityDictionary(p)
    beta_hat, sol = estimate_blp(data, np.arange(100), dic, LambdaRule.fixed(0.1))
    G = X.T @ X / 100
    M = X.T @ data.outcome / 100
    assert np.abs(G @ beta_hat - M).max() <= 0.1 + 1e-7
    assert np.abs(beta_hat).sum() <= np.abs(beta_star).sum() + 1e-7


def test_blp_zero_outcome():
    rng = np.random.default_rng(32)
    X = rng.standard_normal((50, 4))
    data = Dataset(np.zeros(50), X)
    for lam in [0.0, 0.5]:
        beta_hat, sol = estimate_blp(data, np.arange(50), IdentityDictionary(4),
                                     LambdaRule.fixed(lam))
        np.testing.assert_allclose(beta_hat, 0.0)


def test_blp_monte_carlo_frozen_regression():
    # n=200, p=10, Y = X1 + 0.5 X2 + N(0, 0.1^2), gaussian_quantile(c=1.1, 0.05).
    # The l1-minimal solution shrinks each active coordinate by about
    # lambda = 0.2183, so the realized error is ~0.288; frozen below.  The
    # dense least-squares oracle pins the unregularized error for contrast.
    rng = np.random.default_rng(12345)
    n, p = 200, 10
    X = rng.standard_normal((n, p))
    beta_star = np.zeros(p)
    beta_star[:2] = [1.0, 0.5]
    y = X @ beta_star + 0.1 * rng.standard_normal(n)
    data = Dataset(y, X)
    rule = LambdaRule.gaussian_quantile(c=1.1, alpha=0.05)
    beta_hat, sol = estimate_blp(data, np.arange(n), IdentityDictionary(p), rule)
    err = np.linalg.norm(beta_hat - beta_star)
    assert sol.status == "optimal"
    assert err <= 0.29  # frozen from the fixed-seed run (realized 0.28834...)
    beta_ols = np.linalg.lstsq(X, y, rcond=None)[0]
    err_ols = np.linalg.norm(beta_ols - beta_star)
    assert err_ols <= 0.05
    # shrinkage decomposition sanity: Dantzig error ~ OLS error + ~lambda per active coord
    lam = rule.lam(n, p)
    assert err <= err_ols + np.sqrt(2.0) * lam + 0.05


# -- estimate_riesz ---------------------------------------------------------------

def _ate_data(n, pi, seed):
    rng = np.random.default_rng(seed)
    D = (rng.random(n) < pi).astype(float)
    Z = rng.standard_normal(n)
    y = rng.standard_normal(n)
    return Dataset(y, np.column_stack([D, Z]), treatment_col=0)


def test_riesz_policy_identity_zero():
    rng = np.random.default_rng(41)
    X = rng.standard_normal((60, 3))
    data = Dataset(rng.standard_normal(60), X)
    dic = PolynomialDictionary(3, degree=2)
    f = PolicyShift(np.eye(3), np.zeros(3))
    rho_hat, sol = estimate_riesz(data, np.arange(60), dic, f, LambdaRule.fixed(0.0))
    np.testing.assert_allclose(rho_hat, 0.0)


def test_riesz_large_lambda_zero():
    rng = np.random.default_rng(43)
    X = rng.standard_normal((60, 3))
    data = Dataset(rng.standard_normal(60), X)
    dic = IdentityDictionary(3)
    f = AverageDerivative(np.array([1.0, 0.0, 0.0]))
    rho_hat, sol = estimate_riesz(data, np.arange(60), dic, f, LambdaRule.fixed(2.0))
    np.testing.assert_allclose(rho_hat, 0.0)


def test_riesz_saturated_ate_closed_form():
    # D independent of Z with P(D=1) = pi und b(d, z) = (1, d): the population
    # system E[b b'] rho = (0, 1)' has the hand-solved solution
    # rho = (-1/(1-pi), 1/(pi(1-pi))), i.e. alpha(d) = d/pi - (1-d)/(1-pi).
    pi = 0.4
    rho_pop = np.array([-1.0 / (1.0 - pi), 1.0 / (pi * (1.0 - pi))])
    G_pop = np.array([[1.0, pi], [pi, pi]])
    np.testing.assert_allclose(G_pop @ rho_pop, [0.0, 1.0], atol=1e-12)
    assert rho_pop[0] + rho_pop[1] == pytest.approx(1.0 / pi)
    assert rho_pop[0] == pytest.approx(-1.0 / (1.0 - pi))

    data = _ate_data(10_000, pi, seed=99)
    inner = PolynomialDictionary(1, degree=0)  # constant-only inner: b = (1, d)
    dic = TreatmentInteractedDictionary(inner, treatment_index=0)
    rho_hat, sol = estimate_riesz(data, np.arange(data.n), dic,
                                  AverageTreatmentEffect(0), LambdaRule.fixed(0.005))
    assert sol.status == "optimal"
    assert np.abs(rho_hat - rho_pop).max() <= 0.1


def test_estimate_requires_two_rows():
    data = _ate_data(10, 0.5, seed=1)
    with pytest.raises(ValueError):
        estimate_blp(data, [0], IdentityDictionary(2), LambdaRule.fixed(0.1))
