import ctypes
import os
import platform
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rieszdml
from rieszdml import (
    AverageDerivative,
    AverageTreatmentEffect,
    Dataset,
    FourierDictionary,
    IdentityDictionary,
    PolicyShift,
    PolynomialDictionary,
    EstimatorConfig,
    RmdInfeasibleError,
    TreatmentInteractedDictionary,
    dml_estimate,
    fit_and_score_fold,
    make_fold_plan,
    orthogonality_report,
    score_derivatives,
    score_psi,
)
from rieszdml import dml, lp, rmd
from rieszdml.rmd import LambdaRule, gram_and_moments
from rieszdml.rmd import SettingError

from oracles import PerTermFourierDictionary, PerTermPolynomialDictionary, reference_dml


def small_setup(seed=0, n=60, p=4, noise=0.3):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p))
    beta_star = np.zeros(p)
    beta_star[:2] = [1.0, -0.5]
    y = X @ beta_star + noise * rng.standard_normal(n)
    a = np.zeros(p)
    a[0] = 1.0
    return Dataset(y, X), IdentityDictionary(p), AverageDerivative(a), beta_star


# -- fold plans ----------------------------------------------------------------

def test_fold_plan_balance_and_partition():
    blocks = make_fold_plan(23, 5, seed=1)
    assert len(blocks) == 5
    np.testing.assert_array_equal(np.sort(np.concatenate(blocks)), np.arange(23))
    for rows in blocks:
        np.testing.assert_array_equal(rows, np.sort(rows))
    sizes = [rows.size for rows in blocks]
    assert max(sizes) - min(sizes) <= 1
    # deterministic under seed
    for rows, again in zip(blocks, make_fold_plan(23, 5, seed=1)):
        np.testing.assert_array_equal(rows, again)


def test_fold_plan_validation():
    with pytest.raises(ValueError, match="n >= 2K"):
        make_fold_plan(9, 5, seed=0)
    with pytest.raises(ValueError, match="K >= 2"):
        make_fold_plan(10, 1, seed=0)


@pytest.mark.parametrize("n, K, seed, expected", [
    (11, 3, 4, [[0, 1, 8], [2, 7, 9, 10], [3, 4, 5, 6]]),
    (12, 5, 20, [[8, 9], [0, 4], [3, 6, 11], [2, 7], [1, 5, 10]]),
])
def test_fold_plan_keeps_its_seeded_assignment(n, K, seed, expected):
    # every estimate moves if a seed starts assigning rows to other folds
    blocks = make_fold_plan(n, K, seed)
    assert [rows.tolist() for rows in blocks] == expected


# -- score function -------------------------------------------------------------

def test_score_psi_zero_case():
    data, dic, f, _ = small_setup()
    w = (data.outcome[0], data.covariates[0])
    assert score_psi(w, 0.0, np.zeros(4), np.zeros(4), dic, f) == 0.0


def test_score_psi_arithmetic_example():
    # b(x) = (1, x), x = 2, Y = 3, beta = (1, 1), rho = (0, 1), m = (0, 1):
    # psi = 5 - (0,1)'(1,1) - (0,1)'b * (3 - (1,2)'(1,1)) = 5 - 1 - 0 = 4
    dic = PolynomialDictionary(1, degree=1)
    f = AverageDerivative(np.array([1.0]))
    w = (3.0, np.array([2.0]))
    np.testing.assert_allclose(m := f.features(dic, [w[1]])[1][0], [0.0, 1.0])
    assert score_psi(w, 5.0, np.array([1.0, 1.0]), np.array([0.0, 1.0]), dic, f) == pytest.approx(4.0)


def test_score_mean_zero_at_population_truth():
    # identity dictionary over standard normal X: G = I, so beta0 = beta* and
    # rho0 = a solve the population equations with zero slack
    rng = np.random.default_rng(77)
    n, p = 100_000, 3
    X = rng.standard_normal((n, p))
    beta_star = np.array([1.0, 0.5, 0.0])
    y = X @ beta_star + rng.standard_normal(n)
    dic = IdentityDictionary(p)
    a = np.array([1.0, 0.0, 0.0])
    f = AverageDerivative(a)
    theta0 = 1.0
    m = f.features(dic, X)[1]
    psi = theta0 - m @ beta_star - (X @ a) * (y - X @ beta_star)
    tol = 3.0 * psi.std() / np.sqrt(n)
    assert abs(psi.mean()) <= tol


def test_score_derivatives_formulas_and_fd():
    rng = np.random.default_rng(5)
    dic = PolynomialDictionary(2, degree=2)
    f = AverageDerivative(np.array([1.0, -0.5]))
    for _ in range(10):
        x = rng.standard_normal(2)
        y = rng.standard_normal()
        beta = rng.standard_normal(dic.output_dim)
        rho = rng.standard_normal(dic.output_dim)
        theta = rng.standard_normal()
        d_beta, d_rho = score_derivatives((y, x), theta, beta, rho, dic, f)
        b = dic.evaluate_rows(x[None])[0]
        m = f.features(dic, [x])[1][0]
        np.testing.assert_allclose(d_beta, -m + (rho @ b) * b, rtol=1e-12)
        np.testing.assert_allclose(d_rho, -b * (y - b @ beta), rtol=1e-12)
        # central finite differences, relative tolerance 1e-6
        h = 1e-6
        for j in range(dic.output_dim):
            bp, bm = beta.copy(), beta.copy()
            bp[j] += h
            bm[j] -= h
            fd = (score_psi((y, x), theta, bp, rho, dic, f)
                  - score_psi((y, x), theta, bm, rho, dic, f)) / (2 * h)
            assert fd == pytest.approx(d_beta[j], rel=1e-6, abs=1e-6)
            rp, rm = rho.copy(), rho.copy()
            rp[j] += h
            rm[j] -= h
            fd = (score_psi((y, x), theta, beta, rp, dic, f)
                  - score_psi((y, x), theta, beta, rm, dic, f)) / (2 * h)
            assert fd == pytest.approx(d_rho[j], rel=1e-6, abs=1e-6)


def test_score_derivatives_special_cases():
    data, dic, f, beta_star = small_setup(noise=0.0)
    w = (data.outcome[3], data.covariates[3])
    # rho = 0 kills the second term of d_beta
    d_beta, _ = score_derivatives(w, 0.0, beta_star, np.zeros(4), dic, f)
    np.testing.assert_allclose(d_beta, -f.features(dic, [w[1]])[1][0])
    # exact fit kills d_rho
    _, d_rho = score_derivatives(w, 0.0, beta_star, np.ones(4), dic, f)
    np.testing.assert_allclose(d_rho, 0.0, atol=1e-12)


# -- fold estimates --------------------------------------------------------------

def fold_inputs(data, dic, f, rows):
    """The fold's own (B, Mx, y) and its complement statistics, built directly."""
    B, Mx = f.features(dic, data.covariates)
    y = data.outcome
    rest = np.setdiff1d(np.arange(data.n), rows)
    return B[rows], Mx[rows], y[rows], (rest.size, *gram_and_moments(B[rest], y[rest], Mx[rest]))


def test_fit_and_score_fold_plugin_when_rho_zero():
    data, dic, f, _ = small_setup()
    rows = np.arange(20)
    rule = LambdaRule.fixed(0.1)
    rec, _ = fit_and_score_fold(*fold_inputs(data, dic, f, rows), rule, rule, plugin_only=True)
    np.testing.assert_array_equal(rec.riesz.t_hat, 0.0)
    m = f.features(dic, data.covariates[rows])[1]
    assert rec.theta == pytest.approx(float((m @ rec.blp.t_hat).mean()), rel=1e-12)


def test_fit_and_score_fold_exact_beta_noiseless():
    # lambda = 0 on noiseless data recovers beta*, so the Riesz correction vanishes
    data, dic, f, beta_star = small_setup(noise=0.0)
    inputs = fold_inputs(data, dic, f, np.arange(25))
    rule = LambdaRule.fixed(0.0)
    with_corr, _ = fit_and_score_fold(*inputs, rule, LambdaRule.fixed(0.05))
    plugin, _ = fit_and_score_fold(*inputs, rule, rule, plugin_only=True)
    np.testing.assert_allclose(with_corr.blp.t_hat, beta_star, atol=1e-12)
    assert np.abs(with_corr.riesz.t_hat).sum() > 0.5
    assert with_corr.theta == pytest.approx(plugin.theta, rel=1e-12)


def test_fit_and_score_fold_is_exact_root():
    data, dic, f, _ = small_setup(noise=0.5)
    rows = np.arange(30)
    rule = LambdaRule.fixed(0.05)
    rec, contrib = fit_and_score_fold(*fold_inputs(data, dic, f, rows), rule, rule)
    assert contrib.shape == (rows.size,)
    psi_mean = np.mean([
        score_psi((data.outcome[i], data.covariates[i]), rec.theta,
                  rec.blp.t_hat, rec.riesz.t_hat, dic, f)
        for i in rows
    ])
    assert abs(psi_mean) <= 1e-12


def test_fit_and_score_fold_empty_fold():
    data, dic, f, _ = small_setup()
    B, Mx, y, complement = fold_inputs(data, dic, f, np.arange(0))
    rule = LambdaRule.fixed(0.1)
    with pytest.raises(ValueError, match="empty fold"):
        fit_and_score_fold(B, Mx, y, complement, rule, rule)


# -- the estimator ----------------------------------------------------------------

def test_dml_per_fold_mean_and_ci():
    data, dic, f, _ = small_setup(n=120, noise=0.5)
    res = dml_estimate(data, dic, f, K=4, rule=LambdaRule.fixed(0.08), seed=3)
    assert res.theta_hat == pytest.approx(np.mean([rec.theta for rec in res.per_fold]), abs=1e-12)
    lo, hi = res.ci
    assert lo <= res.theta_hat <= hi
    assert np.isfinite(res.sigma_hat) and res.sigma_hat > 0
    assert len(res.per_fold) == 4
    assert res.lambda_used["blp"] == pytest.approx(0.08)


@pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5, -0.1, np.nan])
def test_dml_rejects_alpha_outside_the_unit_interval(alpha):
    # unchecked, 1.5 gives an inverted interval, 1.0 a zero-width one and nan nan bounds
    data, dic, f, _ = small_setup(n=100)
    with pytest.raises(ValueError, match="alpha must lie in"):
        dml_estimate(data, dic, f, K=2, alpha=alpha)


def test_dml_checks_alpha_before_any_fit(monkeypatch):
    # 1 - 1e-300 / 2 rounds to 1, so the quantile would fail only after all ten fits
    calls = []
    real = rmd.solve_rmd
    monkeypatch.setattr(rmd, "solve_rmd", lambda prob: calls.append(prob) or real(prob))
    data, dic, f, _ = small_setup(n=100)
    with pytest.raises(SettingError, match="alpha must lie in") as info:
        dml_estimate(data, dic, f, K=5, alpha=1e-300)
    assert info.value.field == "alpha" and calls == []


@pytest.mark.parametrize("settings, field", [
    ({"K": 1}, "K"),
    ({"l1_bound": 0.0}, "l1_bound"),
    ({"l1_bound": np.nan}, "l1_bound"),
    ({"alpha": 7.0}, "alpha"),
    ({"rule": LambdaRule.gaussian_quantile(alpha=1e-300)}, "rule.alpha"),
    ({"riesz_rule": LambdaRule.gaussian_quantile(c=1e308, alpha=1e-12)}, "riesz_rule.c"),
    ({"functional": AverageDerivative(np.ones(3))}, "functional"),
], ids=["K=1", "l1_bound=0", "l1_bound=nan", "alpha=7", "rule_alpha_rounds",
        "riesz_rule_c_overflows", "direction_length"])
def test_estimator_config_names_the_setting_out_of_range(settings, field):
    _, dic, f, _ = small_setup()
    with pytest.raises(SettingError) as info:
        EstimatorConfig(**{"dictionary": dic, "functional": f, **settings})
    assert info.value.field == field


@pytest.mark.parametrize("seed", [-1, 1.5, "7", None])
def test_fold_plan_refuses_a_seed_that_is_no_integer_at_least_zero(seed):
    with pytest.raises(SettingError) as info:
        make_fold_plan(10, 2, seed)
    assert info.value.field == "seed"


def test_dml_checks_the_seed_before_any_fit(monkeypatch):
    calls = []
    monkeypatch.setattr(rmd, "solve_rmd", lambda prob: calls.append(prob))
    data, dic, f, _ = small_setup(n=100)
    with pytest.raises(SettingError) as info:
        dml_estimate(data, dic, f, K=2, seed=1.5)
    assert info.value.field == "seed" and calls == []


def test_estimator_config_defaults_the_riesz_rule_to_the_rule():
    _, dic, f, _ = small_setup()
    rule = LambdaRule.fixed(0.1)
    assert EstimatorConfig(dic, f).rule == LambdaRule.gaussian_quantile()
    assert EstimatorConfig(dic, f, rule=rule).riesz_rule is rule


def test_dml_exact_root_per_fold():
    data, dic, f, _ = small_setup(n=80, noise=0.4)
    res = dml_estimate(data, dic, f, K=4, rule=LambdaRule.fixed(0.1), seed=9)
    for rec, rows in zip(res.per_fold, make_fold_plan(data.n, 4, seed=9)):
        psi_mean = np.mean([
            score_psi((data.outcome[i], data.covariates[i]), rec.theta,
                      rec.blp.t_hat, rec.riesz.t_hat, dic, f) for i in rows
        ])
        assert abs(psi_mean) <= 1e-12


def test_dml_degenerate_sigma_zero_outcome():
    rng = np.random.default_rng(2)
    X = rng.standard_normal((40, 3))
    data = Dataset(np.zeros(40), X)
    dic = IdentityDictionary(3)
    f = AverageDerivative(np.array([1.0, 0.0, 0.0]))
    res = dml_estimate(data, dic, f, K=2, rule=LambdaRule.fixed(0.05), seed=0)
    assert res.sigma_hat == 0.0
    assert res.ci == (res.theta_hat, res.theta_hat)
    assert any("degenerate" in w for w in res.warnings)


def test_dml_permutation_invariance(monkeypatch):
    data, dic, f, _ = small_setup(n=90, noise=0.6, seed=12)
    res = dml_estimate(data, dic, f, K=3, rule=LambdaRule.fixed(0.1), seed=5)
    rng = np.random.default_rng(8)
    perm = rng.permutation(90)
    data_p = Dataset(data.outcome[perm], data.covariates[perm])
    # the same folds, as rows of the permuted data: row i of data_p is row perm[i]
    where = np.argsort(perm)
    blocks_p = [np.sort(where[rows]) for rows in make_fold_plan(90, 3, seed=5)]
    monkeypatch.setattr(dml, "make_fold_plan", lambda n, K, seed: blocks_p)
    res_p = dml_estimate(data_p, dic, f, K=3, rule=LambdaRule.fixed(0.1), seed=5)
    assert res_p.theta_hat == pytest.approx(res.theta_hat, abs=1e-12)


def test_dml_scaling_in_outcome():
    # scaling Y by c > 0 and the BLP lambda by c (Riesz lambda unchanged)
    # scales theta_hat by c when the LP optima are unique
    data, dic, f, _ = small_setup(n=100, noise=0.5, seed=21)
    lam_b, lam_r = 0.09, 0.07
    c = 3.5
    res = dml_estimate(data, dic, f, K=4, rule=LambdaRule.fixed(lam_b),
                       riesz_rule=LambdaRule.fixed(lam_r), seed=2)
    data_c = Dataset(c * data.outcome, data.covariates)
    res_c = dml_estimate(data_c, dic, f, K=4, rule=LambdaRule.fixed(c * lam_b),
                         riesz_rule=LambdaRule.fixed(lam_r), seed=2)
    assert res_c.theta_hat == pytest.approx(c * res.theta_hat, rel=1e-10)


def test_fold_fits_ignore_the_fold_outcomes():
    # cross-fitting hygiene: a fold's nuisance fits never see its own outcomes
    data, dic, f, _ = small_setup(n=90, noise=0.5, seed=3)
    rule = LambdaRule.fixed(0.08)
    res = dml_estimate(data, dic, f, K=3, rule=rule, seed=6)
    for k, rows in enumerate(make_fold_plan(data.n, 3, seed=6), start=1):
        y = data.outcome.copy()
        y[rows] = 10.0 + np.arange(rows.size) ** 2
        moved = dml_estimate(Dataset(y, data.covariates), dic, f, K=3, rule=rule, seed=6)
        for which in ("blp", "riesz"):
            a, b = getattr(res.per_fold[k - 1], which), getattr(moved.per_fold[k - 1], which)
            np.testing.assert_array_equal(a.t_hat, b.t_hat)
            assert (a.l1_norm, a.max_residual, a.status, a.iterations, a.lam) == \
                   (b.l1_norm, b.max_residual, b.status, b.iterations, b.lam)
            assert a.gap == b.gap or (np.isnan(a.gap) and np.isnan(b.gap))
        assert moved.per_fold[k - 1].theta != res.per_fold[k - 1].theta


@pytest.mark.parametrize("f", [
    pytest.param(AverageDerivative(np.array([1.0, 0.0, -0.5])), id="average_derivative"),
    pytest.param(PolicyShift(0.8 * np.eye(3), np.array([0.2, 0.0, 0.0])), id="policy_shift"),
])
def test_fold_complement_statistics_match_direct_sums(monkeypatch, f):
    data = small_setup(n=103, p=3, noise=0.5, seed=4)[0]
    dic = PolynomialDictionary(3, degree=2)
    calls = []
    real = dml.fit_and_score_fold

    def spy(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(dml, "fit_and_score_fold", spy)
    dml_estimate(data, dic, f, K=5, rule=LambdaRule.fixed(0.1), seed=2)
    B, Mx = f.features(dic, data.covariates)
    y = data.outcome
    assert len(calls) == 5
    blocks = make_fold_plan(data.n, 5, seed=2)
    for k, ((args, kwargs), own) in enumerate(zip(calls, blocks), start=1):
        assert kwargs["fold_id"] == k
        rest = np.setdiff1d(np.arange(data.n), own)
        np.testing.assert_array_equal(args[2], y[own])
        np.testing.assert_allclose(args[0], B[own], rtol=1e-13)
        n_train, BB, By, m_sum = args[3]
        assert n_train == rest.size
        Br = B[rest]
        np.testing.assert_allclose(BB, Br.T @ Br, rtol=1e-13)
        np.testing.assert_allclose(By, Br.T @ y[rest], rtol=1e-13)
        np.testing.assert_allclose(m_sum, Mx[rest].sum(axis=0), rtol=1e-13)


def test_infeasible_fold_names_the_fold():
    data, dic, f, _ = small_setup(n=50, noise=0.5)
    with pytest.raises(RmdInfeasibleError, match="fold 1"):
        dml_estimate(data, dic, f, K=2, rule=LambdaRule.fixed(0.0),
                     l1_bound=1e-9, seed=0)


class BlasThreadRecorder(AverageDerivative):
    """An average derivative that records OpenBLAS's thread count when its features are taken."""

    def __init__(self, direction, get_threads):
        super().__init__(direction)
        self.get_threads, self.seen = get_threads, []

    def features(self, dictionary, X):
        self.seen.append(self.get_threads())
        return super().features(dictionary, X)


def test_estimate_runs_blas_on_one_thread_and_restores_the_callers_count():
    get, put = lp._openblas_thread_calls()
    if not isinstance(get, ctypes._CFuncPtr):
        pytest.skip("numpy's bundled OpenBLAS or its thread-count symbols not found")
    data, dic, _, _ = small_setup(n=50, noise=0.5)
    f = BlasThreadRecorder(np.eye(4)[0], get)
    caller = get()
    try:
        put(2)
        dml_estimate(data, dic, f, K=2, rule=LambdaRule.fixed(0.1), seed=0)
        assert f.seen == [1]
        assert get() == 2
        with pytest.raises(RmdInfeasibleError):
            dml_estimate(data, dic, f, K=2, rule=LambdaRule.fixed(0.0), l1_bound=1e-9, seed=0)
        assert f.seen == [1, 1]
        assert get() == 2
    finally:
        put(caller)


def test_dml_plugin_only_forces_zero_rho():
    data, dic, f, _ = small_setup(n=80, noise=0.4)
    res = dml_estimate(data, dic, f, K=2, rule=LambdaRule.fixed(0.1), seed=1,
                       plugin_only=True)
    for rec in res.per_fold:
        np.testing.assert_allclose(rec.riesz.t_hat, 0.0)
        assert rec.riesz.l1_norm == 0.0


class CountingDictionary:
    """A dictionary that counts its row-wise evaluations and derivatives."""

    def __init__(self, inner):
        self.inner = inner
        self.rows = 0
        self.calls = 0
        self.derivative_rows = 0

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def evaluate_rows(self, X):
        self.calls += 1
        self.rows += len(X)
        return self.inner.evaluate_rows(X)

    def directional_gradient_rows(self, X, a):
        self.derivative_rows += len(X)
        return self.inner.directional_gradient_rows(X, a)


def test_dml_evaluates_features_once_per_dataset():
    data, dic, f, _ = small_setup(n=100, noise=0.4)
    cdic = CountingDictionary(dic)
    res = dml_estimate(data, cdic, f, K=5, rule=LambdaRule.fixed(0.1), seed=4)
    assert (cdic.calls, cdic.rows, cdic.derivative_rows) == (1, data.n, data.n)
    plain = dml_estimate(data, dic, f, K=5, rule=LambdaRule.fixed(0.1), seed=4)
    assert res.theta_hat == plain.theta_hat


def test_policy_shift_dml_evaluates_dictionary_on_2n_rows():
    # b(X) once, reused in b(SX + c) - b(X), plus b(SX + c): 2n rows in all
    data, _, _, _ = small_setup(n=100, p=2, noise=0.4)
    dic = PolynomialDictionary(2, degree=2)
    f = PolicyShift(0.9 * np.eye(2), np.array([0.1, 0.0]))
    cdic = CountingDictionary(dic)
    res = dml_estimate(data, cdic, f, K=5, rule=LambdaRule.fixed(0.1), seed=4)
    assert (cdic.calls, cdic.rows) == (2, 2 * data.n)
    plain = dml_estimate(data, dic, f, K=5, rule=LambdaRule.fixed(0.1), seed=4)
    assert res.theta_hat == plain.theta_hat


def _ate_data(n):
    rng = np.random.default_rng(8)
    t = (rng.random(n) < 0.5).astype(float)
    Z = rng.standard_normal((n, 2))
    y = Z[:, 0] + t + 0.3 * rng.standard_normal(n)
    return Dataset(y, np.column_stack([t, Z]), treatment_col=0)


def test_ate_dml_evaluates_inner_dictionary_once():
    data = _ate_data(n=120)
    inner = CountingDictionary(PolynomialDictionary(2, degree=2))
    dic = TreatmentInteractedDictionary(inner, treatment_index=0)
    res = dml_estimate(data, dic, AverageTreatmentEffect(0), K=5,
                       rule=LambdaRule.fixed(0.05), seed=2)
    assert (inner.calls, inner.rows) == (1, data.n)
    assert np.isfinite(res.theta_hat)


def test_ate_riesz_fit_evaluates_inner_dictionary_once():
    from rieszdml import estimate_riesz

    data = _ate_data(n=120)
    inner = CountingDictionary(PolynomialDictionary(2, degree=2))
    dic = TreatmentInteractedDictionary(inner, treatment_index=0)
    rows = np.arange(0, data.n, 2)
    estimate_riesz(data, rows, dic, AverageTreatmentEffect(0), LambdaRule.fixed(0.05))
    assert (inner.calls, inner.rows) == (1, rows.size)


FAMILIES = ["polynomial", "fourier", "identity", "treatment_interacted"]


def _family_case(family):
    """(data, dictionary, functional) of one dictionary family at n = 120."""
    if family == "treatment_interacted":
        dic = TreatmentInteractedDictionary(PolynomialDictionary(2, degree=2), treatment_index=0)
        return _ate_data(n=120), dic, AverageTreatmentEffect(0)
    data, _, f, _ = small_setup(n=120, p=3, seed=8)
    dic = {"polynomial": PolynomialDictionary(3, degree=2, with_interactions=True),
           "fourier": FourierDictionary(3, order=2),
           "identity": IdentityDictionary(3)}[family]
    return data, dic, f


@pytest.mark.parametrize("K", [2, 5])
@pytest.mark.parametrize("family", FAMILIES)
def test_complement_grams_are_exactly_symmetric(monkeypatch, family, K):
    # each fold's G is B'B of one product plus block sums in a fixed order,
    # so it is symmetric bit for bit, not only to rounding
    data, dic, f = _family_case(family)
    grams = []
    real = dml.fit_rmd

    def spy(G, *args):
        grams.append(G)
        return real(G, *args)

    monkeypatch.setattr(dml, "fit_rmd", spy)
    dml_estimate(data, dic, f, K=K, rule=LambdaRule.fixed(0.1))
    assert len(grams) == 2 * K
    for G in grams:
        assert np.array_equal(G, G.T)


@pytest.mark.parametrize("fit", ["estimate_blp", "estimate_riesz"])
@pytest.mark.parametrize("family", FAMILIES)
def test_library_fit_grams_are_exactly_symmetric(monkeypatch, family, fit):
    # estimate_blp and estimate_riesz also hand fit_rmd one B'B / |A|, which it
    # solves without symmetrizing
    data, dic, f = _family_case(family)
    grams = []
    real = rmd.fit_rmd

    def spy(G, *args):
        grams.append(G)
        return real(G, *args)

    monkeypatch.setattr(rmd, "fit_rmd", spy)
    rows, rule = np.arange(1, data.n, 3), LambdaRule.fixed(0.1)
    if fit == "estimate_blp":
        rmd.estimate_blp(data, rows, dic, rule)
    else:
        rmd.estimate_riesz(data, rows, dic, f, rule)
    assert len(grams) == 1
    assert np.array_equal(grams[0], grams[0].T)


@pytest.mark.parametrize("plugin_only, fits_per_fold", [(False, 2), (True, 1)],
                         ids=["debiased", "plugin_only"])
def test_estimate_solves_fold_grams_without_rmd_problem_checks(monkeypatch, plugin_only,
                                                               fits_per_fold):
    # an estimate checks the Grams it sums in fit_rmd; RmdProblem re-checks and
    # symmetrizes only instances built outside the library
    data, dic, f, _ = small_setup(n=120, p=3, seed=8)
    checked, solved = [], []
    real = rmd.solve_rmd

    def spy(prob):
        solved.append(prob)
        return real(prob)

    monkeypatch.setattr(rmd.RmdProblem, "__post_init__", lambda prob: checked.append(prob))
    monkeypatch.setattr(rmd, "solve_rmd", spy)
    K = 3
    dml_estimate(data, dic, f, K=K, rule=LambdaRule.fixed(0.1), plugin_only=plugin_only)
    assert checked == []
    assert len(solved) == fits_per_fold * K


# Two identical n = 8000 ate_logistic estimates in a fresh interpreter; prints
# the minor page faults of the second.  Its n x p arrays are larger than
# glibc's dynamic malloc thresholds settle at, so unless the thresholds are
# pinned each estimate faults about 2000 fresh pages in.
_REPEATED_ESTIMATE = """
import resource
import numpy as np
from rieszdml import (AteLogisticDgp, AverageTreatmentEffect, PolynomialDictionary,
                      TreatmentInteractedDictionary, dml_estimate)
from rieszdml.rmd import LambdaRule

z_coefs = np.zeros(19)
z_coefs[:3] = [0.8, -0.6, 0.4]
dgp = AteLogisticDgp(d_z=19, outcome_coefs=z_coefs, tau=1.0, propensity_coefs=0.75 * z_coefs)
data = dgp.generate(8000, seed=3)
dic = TreatmentInteractedDictionary(PolynomialDictionary(19, degree=1), treatment_index=0)
thetas = []
for _ in range(2):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    thetas.append(dml_estimate(data, dic, AverageTreatmentEffect(0), K=5,
                               rule=LambdaRule.gaussian_quantile(), seed=4).theta_hat)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
assert thetas[0] == thetas[1], thetas
print(faults)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the malloc thresholds that rieszdml pins are glibc's")
def test_repeated_estimate_reuses_freed_pages():
    src = os.path.dirname(os.path.dirname(rieszdml.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _REPEATED_ESTIMATE],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 200, proc.stdout


def test_dml_k2_vs_k5_coverage():
    # same seed and DGP, two fold counts: both CIs cover theta* in >= 90%
    # of 200 replications
    from rieszdml import EstimatorConfig, SparseLinearDgp, run_monte_carlo

    p = 20
    dic = IdentityDictionary(p)
    beta = np.zeros(p)
    beta[:3] = [1.0, -0.6, 0.4]
    dgp = SparseLinearDgp(dic, beta, "normal", noise_sd=1.5)
    a = np.zeros(p)
    a[0] = 1.0
    f = AverageDerivative(a)
    for K in (2, 5):
        est = EstimatorConfig(dic, f, K=K,
                              rule=LambdaRule.gaussian_quantile(c=1.0, alpha=0.05))
        rep = run_monte_carlo(dgp, est, R=200, n=4000, seed=33, workers=2)
        assert rep.coverage >= 0.90, (K, rep.coverage)


# -- against the reference estimator -------------------------------------------------

_REFERENCE_CASES = [(family, functional)
                    for family in ("polynomial", "fourier", "identity")
                    for functional in ("average_derivative", "policy_shift")]
_REFERENCE_CASES += [("treatment_interacted", functional)
                     for functional in ("ate", "average_derivative", "policy_shift")]


def reference_case(draw, family, functional):
    """(data, dictionary, its per-term reference, functional) for a small random design."""
    n = draw(st.integers(40, 120))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if family == "treatment_interacted":
        t = (rng.random(n) < 0.5).astype(float)
        X = np.column_stack([t, rng.uniform(-1.0, 1.0, (n, 2))])
        data = Dataset(2.0 * t + X[:, 1] + 0.3 * rng.standard_normal(n), X, treatment_col=0)
        degree = draw(st.integers(1, 2))
        dic = TreatmentInteractedDictionary(PolynomialDictionary(2, degree), treatment_index=0)
        ref = TreatmentInteractedDictionary(PerTermPolynomialDictionary(2, degree),
                                            treatment_index=0)
        f = {"ate": AverageTreatmentEffect(0),
             "average_derivative": AverageDerivative(np.array([0.0, 1.0, -0.5])),
             "policy_shift": PolicyShift(np.diag([1.0, 0.8, 0.9]), np.array([0.0, 0.1, 0.0]))}
        return data, dic, ref, f[functional]
    X = rng.uniform(-1.0, 1.0, (n, 2))
    data = Dataset(1.0 + 2.0 * X[:, 0] - X[:, 1] ** 2 + 0.3 * rng.standard_normal(n), X)
    if family == "polynomial":
        degree = draw(st.integers(1, 3))
        pairs = degree >= 2 and draw(st.booleans())
        dic = PolynomialDictionary(2, degree, with_interactions=pairs)
        ref = PerTermPolynomialDictionary(2, degree, with_interactions=pairs)
    elif family == "fourier":
        order = draw(st.integers(1, 2))
        dic, ref = FourierDictionary(2, order), PerTermFourierDictionary(2, order)
    else:
        dic = ref = IdentityDictionary(2)
    if functional == "average_derivative":
        f = AverageDerivative(draw(st.sampled_from([np.array([1.0, 0.0]), np.array([0.5, -1.0])])))
    else:
        f = PolicyShift(0.8 * np.eye(2), np.array([0.1, 0.0]))
    return data, dic, ref, f


@pytest.mark.parametrize("K", [2, 3, 5])
@pytest.mark.parametrize("family, functional", _REFERENCE_CASES)
@settings(max_examples=3, deadline=None)
@given(draws=st.data())
def test_dml_estimate_matches_the_reference_estimator(family, functional, K, draws):
    data, dic, ref_dic, f = reference_case(draws.draw, family, functional)
    seed = draws.draw(st.integers(0, 1000))
    rule = LambdaRule.gaussian_quantile(c=draws.draw(st.sampled_from([0.5, 1.1])))
    res = dml_estimate(data, dic, f, K=K, rule=rule, seed=seed)
    ref = reference_dml(data, ref_dic, f, K, rule, seed=seed)

    def close(actual, expected):
        np.testing.assert_allclose(actual, expected, rtol=1e-10, atol=0)

    close(res.theta_hat, ref.theta_hat)
    close(res.sigma_hat, ref.sigma_hat)
    close(res.ci, ref.ci)
    close([rec.theta for rec in res.per_fold], ref.fold_theta)
    close([rec.blp.l1_norm for rec in res.per_fold], [sol.l1_norm for sol in ref.blp])
    close([rec.riesz.l1_norm for rec in res.per_fold], [sol.l1_norm for sol in ref.riesz])


# -- orthogonality diagnostics -----------------------------------------------------

def test_orthogonality_same_sample_bounded_by_lambda():
    from rieszdml import estimate_blp, estimate_riesz

    data, dic, f, _ = small_setup(n=100, noise=0.5, seed=31)
    rows = np.arange(data.n)
    lam = 0.12
    beta_hat, _ = estimate_blp(data, rows, dic, LambdaRule.fixed(lam))
    rho_hat, _ = estimate_riesz(data, rows, dic, f, LambdaRule.fixed(lam))
    d_beta_sup, d_rho_sup = orthogonality_report(data, dic, f, beta_hat, rho_hat)
    assert d_beta_sup <= lam + 1e-7
    assert d_rho_sup <= lam + 1e-7


def test_orthogonality_zero_outcome_case():
    rng = np.random.default_rng(14)
    X = rng.standard_normal((50, 3))
    data = Dataset(np.zeros(50), X)
    dic = IdentityDictionary(3)
    f = AverageDerivative(np.array([1.0, 0.0, 0.0]))
    d_beta_sup, d_rho_sup = orthogonality_report(data, dic, f, np.zeros(3), np.zeros(3))
    m_bar = f.features(dic, X)[1].mean(axis=0)
    assert d_beta_sup == pytest.approx(np.abs(m_bar).max())
    assert d_rho_sup == 0.0


def test_orthogonality_population_at_truth():
    # with lambda0 = 0 population moments the report converges to (0, 0)
    rng = np.random.default_rng(15)
    n, p = 400_000, 3
    X = rng.standard_normal((n, p))
    beta_star = np.array([1.0, -0.5, 0.0])
    y = X @ beta_star + rng.standard_normal(n)
    data = Dataset(y, X)
    dic = IdentityDictionary(p)
    a = np.array([1.0, 0.0, 0.0])
    d_beta_sup, d_rho_sup = orthogonality_report(data, dic, AverageDerivative(a),
                                                 beta_star, a)
    band = 5.0 / np.sqrt(n)
    assert d_beta_sup <= band
    assert d_rho_sup <= band
