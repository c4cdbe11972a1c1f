import numpy as np
import pytest
from hypothesis import given, settings
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
from rieszdml import lp
from rieszdml.rmd import LambdaRule, SettingError, check_problem, fit_rmd

from oracles import highs_l1, lp_vertex_oracle


def random_problem(rng, p, lam_scale=0.4, rank_deficient=False):
    A = rng.standard_normal((p + 2, p))
    if rank_deficient:  # G's last row a copy of its first, so M may be out of reach
        A[:, -1] = A[:, 0]
    G = A.T @ A / (p + 2)
    M = rng.standard_normal(p)
    lam = float(abs(rng.standard_normal()) * lam_scale)
    return check_problem(G, M, lam)


# -- solve_rmd examples -------------------------------------------------------

def test_identity_soft_threshold_example():
    sol = solve_rmd(*check_problem(np.eye(3), np.array([0.9, 0.1, 0.0]), 0.2))
    np.testing.assert_allclose(sol.t_hat, [0.7, 0.0, 0.0], atol=1e-12)
    assert sol.status == "optimal"


def test_large_lambda_gives_zero():
    rng = np.random.default_rng(0)
    for _ in range(10):
        G, M, _ = random_problem(rng, 4)
        sol = solve_rmd(*check_problem(G, M, np.abs(M).max() + 0.1))
        np.testing.assert_allclose(sol.t_hat, 0.0)
        assert sol.status == "optimal"


def test_invertible_gram_zero_lambda():
    G = np.array([[1.0, 0.5], [0.5, 1.0]])
    M = np.array([1.0, 1.0])
    sol = solve_rmd(*check_problem(G, M, 0.0))
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
        sol = solve_rmd(*check_problem(np.eye(p), M, lam))
        expect = np.sign(M) * np.maximum(np.abs(M) - lam, 0.0)
        assert sol.status == "optimal"
        assert np.abs(sol.t_hat - expect).max() <= 1e-10


def test_oracle_equivalence_100_random():
    rng = np.random.default_rng(42)
    for i in range(100):
        p = int(rng.integers(1, 5))
        prob = random_problem(rng, p, rank_deficient=rng.random() < 0.3)
        oracle = lp_vertex_oracle(*prob)
        sol = solve_rmd(*prob)
        if oracle is None:
            assert sol.status == "infeasible", i
        else:
            assert sol.status == "optimal", (i, sol.status)
            assert sol.l1_norm == pytest.approx(oracle, abs=1e-6)


def test_homogeneity_of_optimal_value():
    rng = np.random.default_rng(3)
    for _ in range(20):
        G, M, lam = random_problem(rng, 5)
        c = float(rng.uniform(0.2, 5.0))
        base = solve_rmd(G, M, lam)
        scaled = solve_rmd(*check_problem(G, c * M, c * lam))
        assert scaled.l1_norm == pytest.approx(c * base.l1_norm, rel=1e-9, abs=1e-9)


def test_feasibility_postcheck_direct():
    rng = np.random.default_rng(17)
    for _ in range(50):
        G, M, lam = random_problem(rng, 8, rank_deficient=rng.random() < 0.3)
        sol = solve_rmd(G, M, lam)
        if sol.status != "optimal":
            continue
        resid = np.abs(G @ sol.t_hat - M).max()
        assert resid <= lam + 1e-7
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
        sol = solve_rmd(*check_problem(G, M, lam))
        assert sol.l1_norm <= np.abs(beta_star).sum() + 1e-7


def test_degenerate_gram_duplicated_columns():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((30, 3))
    X = np.hstack([X, X[:, :1]])  # duplicated dictionary column
    G = X.T @ X / 30
    M = X.T @ (X[:, 0] + 0.2 * rng.standard_normal(30)) / 30
    sol = solve_rmd(*check_problem(G, M, 0.1))
    assert sol.status == "optimal"
    assert np.abs(G @ sol.t_hat - M).max() <= 0.1 + 1e-7


def _assert_matches_highs(prob):
    sol = solve_rmd(*prob)
    assert sol.status == "optimal"
    assert sol.gap <= 1e-7 * (1.0 + sol.l1_norm)
    assert sol.l1_norm == pytest.approx(highs_l1(*prob), rel=1e-7)


def test_refactorization_path_rank_deficient_gram():
    # p = 250 dictionary columns from 127 rows, the last a copy of the first:
    # the rank-deficient Gram takes the simplex past _REFACTOR_EVERY pivots.
    rng = np.random.default_rng(1)
    n, p = 127, 250
    X = rng.standard_normal((n, p - 1))
    X = np.hstack([X, X[:, :1]])
    y = X[:, :5] @ np.array([1.0, -0.8, 0.5, 0.3, -0.2]) + rng.standard_normal(n)
    prob = check_problem(X.T @ X / n, X.T @ y / n, 0.25 * np.sqrt(np.log(p) / n))
    res = lp.solve_standard_form(*prob)
    assert res.iterations > lp._REFACTOR_EVERY and res.refactorizations > 0
    _assert_matches_highs(prob)


def test_bland_path_duplicated_columns(monkeypatch):
    # Every column appears twice, so tied dual constraints make degenerate
    # pivots; a stall limit of 0 turns Bland's rule on at the first of them.
    rng = np.random.default_rng(2501)
    X = rng.integers(-2, 3, size=(3, 8)) / 2.0
    X[:, 4:] = X[:, :4]
    prob = check_problem(X.T @ X / 3, X.T @ rng.integers(-2, 3, size=3) / 3, 0.125)
    monkeypatch.setattr(lp, "_STALL_LIMIT_FACTOR", 0)
    res = lp.solve_standard_form(*prob)
    assert res.bland_switches > 0
    _assert_matches_highs(prob)


def test_drifted_basic_solution_is_refactorized_before_optimal():
    # lambda = 0 on a singular, ill-conditioned Gram (t ~ 5e4 from M ~ 0.25):
    # after 8 eta updates the basic solution misses G t = M by 4e-7, which the
    # certificate rejects; one refactorization brings it to 5e-12.
    G = np.array([[0, 0, 0, 0, 0, 0], [0, 13, 7, -11, 5, 4], [0, 7, 13, 1, -1, 11],
                  [0, -11, 1, 25, -3, 0], [0, 5, -1, -3, 23, 9], [0, 4, 11, 0, 9, 19]]) / 24.0
    prob = check_problem(G, np.array([0, 0, 0, 0, 0, 0.25]), 0.0)
    res = lp.solve_standard_form(*prob)
    assert res.status == "optimal" and res.refactorizations == 1
    sol = solve_rmd(*prob)
    assert sol.status == "optimal" and sol.max_residual <= 1e-9


def test_basis_matrix_is_the_column_products_bit_for_bit():
    # _refactorize reads the basis matrix off G; it must equal the columns B^-1 A_q at
    # B^-1 = I that the pivots use, signed zeros included, for t+, t- and slack columns
    rng = np.random.default_rng(11)
    for p in (3, 50, 250):
        X = rng.standard_normal((p + 2, p))
        grid = rng.integers(-2, 3, size=(p, p)).astype(float)  # exact zeros, of both signs
        grid[0, -1] = -0.0
        for G in (X.T @ X, grid + grid.T):
            kinds = [0, p, 2 * p]  # one t+, one t- and one slack column, then any others
            others = rng.permutation(np.setdiff1d(np.arange(3 * p), kinds))
            basis = np.concatenate((kinds, others))[:p]
            expect = np.column_stack([lp._column(np.eye(p), G, q) for q in basis])
            assert lp._basis_matrix(G, basis).tobytes() == expect.tobytes()


def test_iteration_limit_status(monkeypatch):
    rng = np.random.default_rng(9)
    prob = random_problem(rng, 10)
    monkeypatch.setattr(lp, "MAX_ITERS", 1)
    sol = solve_rmd(*prob)
    assert sol.status == "iteration_limit"


def test_problem_validation():
    # each fault is a SettingError (a ValueError) naming the value at fault; checks run
    # in this order: G empty or not square, M's length, finiteness, symmetry, lambda
    G, M, asym = np.eye(2), np.zeros(2), np.array([[1.0, 0.5], [0.0, 1.0]])
    for args, field in [((np.zeros((0, 0)), np.zeros(0), 0.1), "G_hat"),
                        ((np.ones(3), M, 0.1), "G_hat"),
                        ((np.ones((2, 3)), M, 0.1), "G_hat"),
                        ((asym, M, 0.1), "G_hat"),
                        ((np.array([[np.inf, 0.0], [0.0, 1.0]]), M, 0.1), "G_hat"),
                        ((G, np.zeros(3), 0.1), "M_hat"),
                        ((G, np.array([np.nan, 0.0]), 0.1), "M_hat"),
                        ((G, M, -0.1), "lam"),
                        ((G, M, np.nan), "lam"),
                        ((G, M, np.inf), "lam"),
                        ((asym, np.zeros(3), -0.1), "M_hat"),
                        ((asym, np.array([np.nan, 0.0]), -0.1), "M_hat"),
                        ((asym, M, -0.1), "G_hat")]:
        with pytest.raises(SettingError) as info:
            check_problem(*args)
        assert isinstance(info.value, ValueError) and info.value.field == field, (args, field)


def test_check_problem_returns_what_solve_rmd_takes():
    # G is symmetrized as half + half', so it is symmetric bit for bit; lambda is a float
    G = np.array([[1.0, 0.5], [0.5 + 1e-12, 1.0]])
    G_out, M_out, lam = check_problem(G, [1, 0], 1)
    np.testing.assert_array_equal(G_out, G_out.T)
    np.testing.assert_array_equal(G_out, 0.5 * G + 0.5 * G.T)
    assert M_out.dtype == float and M_out.tolist() == [1.0, 0.0]
    assert type(lam) is float and lam == 1.0


@pytest.mark.filterwarnings("error")
def test_problem_symmetry_check_does_not_overflow():
    # G - G' overflows here; the halves' difference does not
    with pytest.raises(ValueError, match="G_hat is not symmetric"):
        check_problem([[1.0, 1e308], [-1e308, 1.0]], np.zeros(2), 0.1)


def test_fit_rmd_solves_the_instance_rmd_problem_would():
    # fit_rmd skips check_problem; on a Gram the library summed it solves the same instance
    rng = np.random.default_rng(5)
    X = rng.standard_normal((40, 6))
    G, M = X.T @ X / 40, X.T @ (X[:, 0] - 0.5 * X[:, 1] + rng.standard_normal(40)) / 40
    rule = LambdaRule.gaussian_quantile(c=0.5)
    G_zero = G.copy()  # a feature that is 0 on every row cannot reach M_0 = 1
    G_zero[0] = G_zero[:, 0] = 0.0
    for G, M, status in ((G, M, "optimal"), (G_zero, np.append(1.0, M[1:]), "infeasible")):
        sol = fit_rmd(G, M, rule, 40)
        assert sol.status == status and type(sol.lam) is float
        checked = check_problem(G, M, rule.lam(40, 6))
        np.testing.assert_equal(vars(sol), vars(solve_rmd(*checked)))


@pytest.mark.parametrize("G, M, n_rows, message", [
    (np.eye(2), np.zeros(2), 1, "need at least 2 rows"),
    (np.array([[np.inf, 0.0], [0.0, 1.0]]), np.zeros(2), 10, "non-finite entries"),
    (np.eye(2), np.array([np.nan, 0.0]), 10, "non-finite entries"),
], ids=["one_row", "G_inf", "M_nan"])
def test_fit_rmd_checks_what_summed_means_can_get_wrong(G, M, n_rows, message):
    with pytest.raises(ValueError, match=message):
        fit_rmd(G, M, LambdaRule.fixed(0.1), n_rows)


def test_problem_rejects_empty_gram():
    with pytest.raises(ValueError, match="G_hat is empty"):
        check_problem(np.zeros((0, 0)), np.zeros(0), 0.1)


def test_uncertified_optimum_is_numerical_failure(monkeypatch):
    # G = I, M = (1, 0), lambda = 0.5: the optimum is t = (0.5, 0), l1 0.5.
    prob = check_problem(np.eye(2), np.array([1.0, 0.0]), 0.5)
    t_optimal = np.array([0.5, 0.0])
    t_infeasible = np.zeros(2)  # residual 1 > lambda
    t_gap_open = np.array([1.0, 0.0])  # feasible, l1 1 > 0.5
    y_optimal = np.array([1.0, 0.0])

    def claims_optimal(t, y):
        return lambda G, M, lam: lp.LpResult(t, lp.OPTIMAL, 1, y)

    for t, y, expect in [(t_optimal, y_optimal, "optimal"),
                         (t_infeasible, y_optimal, "numerical_failure"),
                         (t_gap_open, y_optimal, "numerical_failure"),
                         (t_optimal, np.zeros(2), "numerical_failure")]:
        monkeypatch.setattr(lp, "solve_standard_form", claims_optimal(t, y))
        sol = solve_rmd(*prob)
        assert sol.status == expect, (t, y)
    assert sol.gap == pytest.approx(0.5)


# -- differential test against HiGHS ------------------------------------------------

@pytest.mark.parametrize("p", [30, 80, 160, 250])
def test_differential_against_highs(p):
    # Realistic Dantzig instances: a sparse regression Gram at n = 2p rows.
    # Objectives are compared, not t, since Dantzig LPs can have tied optima.
    rng = np.random.default_rng(p)
    n = 2 * p
    X = rng.standard_normal((n, p))
    y = X[:, :5] @ np.array([1.0, -0.8, 0.5, 0.3, -0.2]) + rng.standard_normal(n)
    _assert_matches_highs(check_problem(X.T @ X / n, X.T @ y / n, 0.5 * np.sqrt(np.log(p) / n)))


@pytest.mark.parametrize("duplicated", [False, True], ids=["distinct", "duplicated_column"])
def test_differential_against_highs_more_columns_than_rows(duplicated):
    # The paper's regime p > n: p = 400 dictionary columns from n_A = 100 rows, so the
    # Gram has rank at most 100; the second case also repeats the first, active, column last.
    rng = np.random.default_rng(400)
    n, p = 100, 400
    X = rng.standard_normal((n, p))
    if duplicated:
        X[:, -1] = X[:, 0]
    y = X[:, :5] @ np.array([1.0, -0.8, 0.5, 0.3, -0.2]) + rng.standard_normal(n)
    _assert_matches_highs(check_problem(X.T @ X / n, X.T @ y / n, 0.5 * np.sqrt(np.log(p) / n)))


# -- property tests ------------------------------------------------------------------
# Problems are drawn on a coarse grid so that degenerate vertices, tied ratios
# and singular Grams come up often.

@st.composite
def rmd_problems(draw):
    p = draw(st.integers(1, 6))
    k = draw(st.integers(1, p + 3))
    X = np.array(draw(st.lists(st.integers(-4, 4), min_size=k * p, max_size=k * p)),
                 dtype=float).reshape(k, p) / 2.0
    M = np.array(draw(st.lists(st.integers(-8, 8), min_size=p, max_size=p)), dtype=float) / 4.0
    lam = draw(st.integers(0, 8)) / 8.0
    return check_problem(X.T @ X / k, M, lam)


@settings(max_examples=50, deadline=None)
@given(prob=rmd_problems(), a=st.floats(0.1, 10.0))
def test_property_positive_homogeneity(prob, a):
    G, M, lam = prob
    base = solve_rmd(G, M, lam)
    scaled = solve_rmd(*check_problem(G, a * M, a * lam))
    assert scaled.status == base.status
    assert scaled.l1_norm == pytest.approx(a * base.l1_norm, rel=1e-9, abs=1e-9)


@settings(max_examples=50, deadline=None)
@given(prob=rmd_problems(), data=st.data())
def test_property_permutation_invariance(prob, data):
    G, M, lam = prob
    perm = np.array(data.draw(st.permutations(range(len(M)))))
    base = solve_rmd(G, M, lam)
    permuted = solve_rmd(*check_problem(G[np.ix_(perm, perm)], M[perm], lam))
    assert permuted.status == base.status
    assert permuted.l1_norm == pytest.approx(base.l1_norm, rel=1e-9, abs=1e-9)


@settings(max_examples=50, deadline=None)
@given(prob=rmd_problems(), extra=st.integers(0, 4))
def test_property_large_lambda_gives_zero(prob, extra):
    G, M, _ = prob
    sol = solve_rmd(*check_problem(G, M, np.abs(M).max() + extra / 4.0))
    assert sol.status == "optimal"
    assert np.all(sol.t_hat == 0.0)


@settings(max_examples=50, deadline=None)
@given(prob=rmd_problems())
def test_property_optimum_is_certified(prob):
    sol = solve_rmd(*prob)
    assert sol.status in ("optimal", "infeasible")
    if sol.status == "optimal":
        G, M, lam = prob
        assert np.abs(G @ sol.t_hat - M).max() <= lam + 1e-7
        assert sol.gap <= 1e-7 * (1.0 + sol.l1_norm)


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


def test_estimate_riesz_rejects_an_empty_row_set():
    data = _ate_data(10, 0.5, seed=1)
    dic = TreatmentInteractedDictionary(PolynomialDictionary(1, degree=1), treatment_index=0)
    with pytest.raises(ValueError, match="empty row index set"):
        estimate_riesz(data, [], dic, AverageTreatmentEffect(0), LambdaRule.fixed(0.1))
