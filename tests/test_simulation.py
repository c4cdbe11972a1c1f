import csv
import os

import numpy as np
import pytest

from oracles import (NoClosedFormError, PerTermPolynomialDictionary, monte_carlo_theta,
                     true_riesz_rows)
from rieszdml import (
    AteLogisticDgp,
    AverageDerivative,
    AverageTreatmentEffect,
    EstimatorConfig,
    FourierDictionary,
    IdentityDictionary,
    PolicyShift,
    PolynomialDictionary,
    SparseLinearDgp,
    TreatmentInteractedDictionary,
    dense_decay_dgp,
    estimate_riesz,
    run_monte_carlo,
    true_theta_info,
)
from rieszdml import dml, simulation
from rieszdml.rmd import LambdaRule
from rieszdml.rmd import SettingError
from rieszdml.simulation import rep_seeds


def sparse_linear(p=4, noise=1.0, x_dist="normal"):
    dic = IdentityDictionary(p)
    beta = np.zeros(p)
    beta[:2] = [1.0, 0.5]
    return SparseLinearDgp(dic, beta, x_dist, noise)


def ate_dgp(d_z=3, tau=1.0, noise=1.0):
    oc = np.zeros(d_z)
    oc[:2] = [0.8, -0.5]
    pc = np.zeros(d_z)
    pc[:2] = [0.7, -0.3]
    return AteLogisticDgp(d_z, oc, tau, pc, noise)


# -- generation ------------------------------------------------------------------

def test_generate_deterministic_under_seed():
    dgp = sparse_linear()
    d1 = dgp.generate(50, seed=11)
    d2 = dgp.generate(50, seed=11)
    np.testing.assert_array_equal(d1.outcome, d2.outcome)
    np.testing.assert_array_equal(d1.covariates, d2.covariates)
    d3 = dgp.generate(50, seed=12)
    assert not np.array_equal(d1.outcome, d3.outcome)


def test_generate_noiseless_exact():
    dgp = sparse_linear(noise=0.0)
    data = dgp.generate(40, seed=0)
    np.testing.assert_array_equal(data.outcome, dgp.gamma_values(data.covariates))


def test_ate_dgp_sets_treatment_and_overlap():
    dgp = ate_dgp()
    data = dgp.generate(20_000, seed=5)
    assert data.treatment_col == 0
    D = data.covariates[:, 0]
    assert set(np.unique(D)) <= {0.0, 1.0}
    # empirical treated share within a 5-sigma binomial band of E[pi(Z)]
    rng = np.random.default_rng(123)
    Z = rng.standard_normal((1_000_000, dgp.d_z))
    p_bar = dgp.propensity(Z).mean()
    band = 5.0 * np.sqrt(p_bar * (1 - p_bar) / data.n)
    assert abs(D.mean() - p_bar) <= band
    pi = dgp.propensity(data.covariates[:, 1:])
    assert pi.min() >= 0.05 - 1e-12 and pi.max() <= 0.95 + 1e-12


def test_dense_decay_coefficients():
    dgp = dense_decay_dgp(d=5, decay=1.5, noise_sd=1.0, scale=2.0)
    assert isinstance(dgp.dictionary, PolynomialDictionary)
    assert dgp.dictionary.degree == 2
    p = dgp.dictionary.output_dim
    expect = 2.0 * np.arange(1, p, dtype=float) ** -1.5
    np.testing.assert_allclose(dgp.beta_star[1:], expect)
    assert dgp.beta_star[0] == 0.0


def test_dgp_validation():
    with pytest.raises(ValueError):
        SparseLinearDgp(IdentityDictionary(2), np.ones(3))
    with pytest.raises(ValueError):
        SparseLinearDgp(IdentityDictionary(2), np.ones(2), x_dist="cauchy")
    with pytest.raises(ValueError):
        sparse_linear().generate(1, seed=0)


def test_dgp_copies_and_freezes_its_coefficient_vectors():
    beta, oc, pc = np.array([1.0, 0.5]), np.array([0.8, -0.5]), np.array([0.7, -0.3])
    dgp, ate = SparseLinearDgp(IdentityDictionary(2), beta), AteLogisticDgp(2, oc, 1.0, pc)
    for caller, own in ((beta, dgp.beta_star), (oc, ate.outcome_coefs), (pc, ate.propensity_coefs)):
        kept = own.copy()
        caller[:] = np.nan  # the caller's array stays writable ...
        np.testing.assert_array_equal(own, kept)  # ... and the DGP keeps what it checked
        assert not own.flags.writeable


# -- true theta ------------------------------------------------------------------

def test_true_theta_constant_derivative():
    # gamma(x) = x1 + 0.5 x2 has average derivative 1 in direction e1
    dgp = sparse_linear()
    f = AverageDerivative(np.array([1.0, 0.0, 0.0, 0.0]))
    info = true_theta_info(dgp, f)
    assert info.value == 1.0 and info.method == "analytic" and info.se == 0.0


def test_true_theta_polynomial_moments():
    # gamma(x) = x^2 over N(0,1): E[2x] = 0; over U[-1,1]: 0 as well;
    # gamma(x) = x^3: E[3 x^2] = 3 (normal) and 1 (uniform)
    dic = PolynomialDictionary(1, degree=3)
    beta = np.array([0.0, 0.0, 0.0, 1.0])
    f = AverageDerivative(np.array([1.0]))
    normal, uniform = (SparseLinearDgp(dic, beta, x_dist, 1.0) for x_dist in ("normal", "uniform"))
    assert true_theta_info(normal, f).value == pytest.approx(3.0)
    assert true_theta_info(uniform, f).value == pytest.approx(1.0)


def test_true_theta_ate_additive():
    assert true_theta_info(ate_dgp(tau=2.5), AverageTreatmentEffect(0)).value == 2.5


def test_true_theta_policy_identity_zero():
    dgp = sparse_linear()
    f = PolicyShift(np.eye(4), np.zeros(4))
    info = true_theta_info(dgp, f)
    assert info.value == 0.0 and info.method == "analytic"


def test_true_theta_policy_shift_of_the_policy_study_is_exact():
    # gamma = x1 + 0.5 x1^2 over N(0, I_3), x -> x + (0.3, 0, 0):
    # E[0.3 + 0.5 (0.6 X_1 + 0.09)] = 0.3 + 0.045
    dic = PolynomialDictionary(3, degree=2)
    beta = np.zeros(dic.output_dim)
    beta[1] = 1.0
    beta[dic.power_columns(2).start] = 0.5
    info = true_theta_info(SparseLinearDgp(dic, beta, "normal", 1.0),
                           PolicyShift(np.eye(3), np.array([0.3, 0.0, 0.0])))
    assert info.method == "analytic" and info.se == 0.0
    assert info.value == pytest.approx(0.345, rel=1e-15)


def test_true_theta_shift_of_a_square_is_c_squared_on_both_designs():
    # gamma(x) = x^2, shift c: E[(x+c)^2 - x^2] = 2 c E[x] + c^2 = c^2 for both
    # the standard normal and uniform[-1, 1] designs
    dic = PolynomialDictionary(1, degree=2)
    beta = np.array([0.0, 0.0, 1.0])
    c = 0.3
    f = PolicyShift(np.eye(1), np.array([c]))
    for x_dist in ("normal", "uniform"):
        info = true_theta_info(SparseLinearDgp(dic, beta, x_dist, 1.0), f)
        assert info.method == "analytic"
        assert info.value == pytest.approx(c ** 2, abs=1e-10)


def test_true_theta_two_dimensional_shift_of_a_square_is_exact():
    # a two-dimensional shift: E[(X_1 + 0.1)^2 - X_1^2] = 0.01
    dic = PolynomialDictionary(2, degree=2)
    beta = np.zeros(dic.output_dim)
    beta[3] = 1.0  # gamma = x1^2 (basis: 1, x1, x2, x1^2, x2^2)
    assert dic.power_columns(2).start == 3
    np.testing.assert_array_equal(dic.evaluate_rows(np.array([[3.0, 5.0]]))[0], [1, 3, 5, 9, 25])
    dgp = SparseLinearDgp(dic, beta, "normal", 1.0)
    f = PolicyShift(np.eye(2), np.array([0.1, 0.0]))
    info = true_theta_info(dgp, f)
    assert info.method == "analytic" and info.se == 0.0
    assert info.value == pytest.approx(0.01, rel=1e-14)


def test_true_theta_average_derivative_on_an_interacted_dictionary_is_exact():
    # b(x) = (z, t z) with beta = (1, 0): gamma = z, so dgamma/dz = 1 everywhere
    dic = TreatmentInteractedDictionary(IdentityDictionary(1))
    dgp = SparseLinearDgp(dic, np.array([1.0, 0.0]), "normal", 1.0)
    info = true_theta_info(dgp, AverageDerivative(np.array([0.0, 1.0])))
    assert info.method == "analytic"
    assert info.value == 1.0


def test_true_theta_rejects_mismatched_pairs():
    with pytest.raises(ValueError):
        true_theta_info(ate_dgp(), AverageDerivative(np.array([1.0, 0.0, 0.0, 0.0])))
    # a dictionary without a closed-form mean, for either functional
    dgp = SparseLinearDgp(PerTermPolynomialDictionary(2, 2), np.ones(5))
    for f in (AverageDerivative(np.array([1.0, 0.0])), PolicyShift(np.eye(2), np.ones(2))):
        with pytest.raises(ValueError, match="no closed-form target on a PerTermPolynomial"):
            true_theta_info(dgp, f)


@pytest.mark.parametrize("x_dist", ["normal", "uniform"])
def test_true_theta_interaction_columns_match_monte_carlo(x_dist):
    # every column of a degree-3 dictionary with interactions carries weight;
    # a pair column x_j x_k has mean derivative a_j E[X_k] + a_k E[X_j] = 0
    dic = PolynomialDictionary(3, degree=3, with_interactions=True)
    pairs = slice(dic.power_columns(2).stop, dic.power_columns(3).start)
    np.testing.assert_array_equal(dic.evaluate_rows(np.array([[2.0, 3.0, 5.0]]))[0, pairs], [6, 10, 15])
    beta = np.linspace(-1.0, 1.5, dic.output_dim)
    f = AverageDerivative(np.array([1.0, -0.5, 0.3]))
    dgp = SparseLinearDgp(dic, beta, x_dist, 1.0)
    info = true_theta_info(dgp, f)
    assert info.method == "analytic"
    mean, se = monte_carlo_theta(dgp, f, 400_000, seed=7)
    assert abs(info.value - mean) <= 4.0 * se


# a non-diagonal transport of R^3 and a shift
_S = np.array([[0.9, 0.3, 0.0], [-0.2, 1.1, 0.4], [0.1, 0.0, 0.8]])
_C = np.array([0.3, -0.2, 0.1])
_EXACT_CASES = {
    "polynomial": (PolynomialDictionary(3, degree=3, with_interactions=True), PolicyShift(_S, _C)),
    "fourier": (FourierDictionary(3, order=2), PolicyShift(_S, _C)),
    "identity": (IdentityDictionary(3), PolicyShift(_S, _C)),
    # the t half of (b_in(z), t b_in(z)) averages to 0: E t = 0 and t is independent of z
    "interacted_derivative": (TreatmentInteractedDictionary(
        PolynomialDictionary(2, degree=3, with_interactions=True)),
        AverageDerivative(np.array([0.0, 1.0, -0.5]))),
}


@pytest.mark.parametrize("x_dist", ["normal", "uniform"])
@pytest.mark.parametrize("case", sorted(_EXACT_CASES))
def test_true_theta_matches_the_monte_carlo_oracle(case, x_dist):
    dic, f = _EXACT_CASES[case]
    dgp = SparseLinearDgp(dic, np.linspace(-1.0, 1.5, dic.output_dim), x_dist, 1.0)
    info = true_theta_info(dgp, f)
    assert info.method == "analytic" and info.se == 0.0
    mean, se = monte_carlo_theta(dgp, f, 200_000, seed=3)
    assert abs(info.value - mean) <= 4.0 * se, (info.value, mean, se)


@pytest.mark.parametrize("x_dist", ["normal", "uniform"])
def test_true_theta_polynomial_shift_matches_tensor_gauss_quadrature(x_dist):
    # an 8-node Gauss rule per coordinate integrates every polynomial of degree <= 15 exactly
    if x_dist == "normal":
        x, w = np.polynomial.hermite_e.hermegauss(8)
        w = w / np.sqrt(2.0 * np.pi)
    else:
        x, w = np.polynomial.legendre.leggauss(8)
        w = w / 2.0
    X = np.stack(np.meshgrid(x, x, x, indexing="ij"), axis=-1).reshape(-1, 3)
    W = np.einsum("i,j,k->ijk", w, w, w).ravel()
    dic = PolynomialDictionary(3, degree=6, with_interactions=True)
    dgp = SparseLinearDgp(dic, np.linspace(-1.0, 1.5, dic.output_dim), x_dist, 1.0)
    expect = W @ (dgp.gamma_values(X @ _S.T + _C) - dgp.gamma_values(X))
    assert true_theta_info(dgp, PolicyShift(_S, _C)).value == pytest.approx(expect, rel=1e-12)


# -- true Riesz representers ------------------------------------------------------

def test_true_riesz_ate_inverse_propensity():
    dgp = ate_dgp()
    z = np.array([0.4, -0.2, 0.1])
    pi = dgp.propensity(z[np.newaxis, :])[0]
    f = AverageTreatmentEffect(0)
    treated, control = np.concatenate([[1.0], z]), np.concatenate([[0.0], z])
    assert true_riesz_rows(dgp, f, treated[np.newaxis])[0] == pytest.approx(1.0 / pi)
    assert true_riesz_rows(dgp, f, control[np.newaxis])[0] == pytest.approx(-1.0 / (1.0 - pi))


def test_true_riesz_gaussian_score():
    dgp = sparse_linear(x_dist="normal")
    f = AverageDerivative(np.array([1.0, 0.0, 0.0, 0.0]))
    x = np.array([0.7, -1.0, 0.2, 0.0])
    assert true_riesz_rows(dgp, f, x[np.newaxis])[0] == pytest.approx(0.7)


def test_true_riesz_uniform_has_no_closed_form():
    dgp = sparse_linear(x_dist="uniform")
    f = AverageDerivative(np.array([1.0, 0.0, 0.0, 0.0]))
    with pytest.raises(NoClosedFormError):
        true_riesz_rows(dgp, f, np.zeros((1, 4)))


def test_true_riesz_policy_identity_zero():
    dgp = sparse_linear()
    f = PolicyShift(np.eye(4), np.zeros(4))
    assert true_riesz_rows(dgp, f, np.ones(4)[np.newaxis])[0] == 0.0


def test_true_riesz_density_ratio_satisfies_riesz_identity():
    # E[alpha(X) gamma(X)] must equal E[gamma(SX + c) - gamma(X)]
    dic = PolynomialDictionary(2, degree=2)
    beta = np.zeros(dic.output_dim)
    beta[1] = 1.0
    beta[3] = 0.5  # gamma = x1 + 0.5 x1^2
    dgp = SparseLinearDgp(dic, beta, "normal", 1.0)
    S = np.array([[0.9, 0.1], [0.0, 1.0]])
    c = np.array([0.2, -0.1])
    f = PolicyShift(S, c)
    rng = np.random.default_rng(17)
    X = rng.standard_normal((2_000_000, 2))
    alpha = true_riesz_rows(dgp, f, X)
    g = dgp.gamma_values(X)
    lhs = (alpha * g).mean()
    lhs_se = (alpha * g).std() / np.sqrt(X.shape[0])
    rhs = dgp.gamma_values(X @ S.T + c).mean() - g.mean()
    assert abs(lhs - rhs) <= 5.0 * lhs_se


def test_doubly_robust_identity_ate():
    # E[alpha*(X)(Y - gamma*(X)) + gamma*(1,Z) - gamma*(0,Z)] = tau
    dgp = ate_dgp(tau=1.0)
    data = dgp.generate(1_000_000, seed=31)
    X = data.covariates
    f = AverageTreatmentEffect(0)
    alpha = true_riesz_rows(dgp, f, X)
    gamma = dgp.tau * X[:, 0] + X[:, 1:] @ dgp.outcome_coefs  # covariates are (D, Z)
    vals = alpha * (data.outcome - gamma) + dgp.tau
    se = vals.std() / np.sqrt(data.n)
    assert abs(vals.mean() - 1.0) <= 4.0 * se


# -- Monte Carlo harness -----------------------------------------------------------

def quick_estimator(dgp, plugin_only=False, rule=None):
    a = np.zeros(dgp.dictionary.input_dim)
    a[0] = 1.0
    return EstimatorConfig(
        dictionary=dgp.dictionary,
        functional=AverageDerivative(a),
        K=2,
        rule=rule or LambdaRule.fixed(0.05),
        plugin_only=plugin_only,
    )


def test_run_monte_carlo_single_rep_echo():
    dgp = sparse_linear()
    rep = run_monte_carlo(dgp, quick_estimator(dgp), R=1, n=60, seed=4, workers=1)
    assert rep.R == 1 and len(rep.per_rep) == 1
    r = rep.per_rep[0]
    assert rep.bias == pytest.approx(r["theta_hat"] - rep.theta_star)
    assert rep.rmse == pytest.approx(abs(r["theta_hat"] - rep.theta_star))
    assert rep.coverage in (0.0, 1.0)


def test_run_monte_carlo_noiseless_exact_recovery():
    dgp = sparse_linear(noise=0.0)
    est = quick_estimator(dgp, rule=LambdaRule.fixed(0.0))
    rep = run_monte_carlo(dgp, est, R=5, n=60, seed=9, workers=1)
    assert rep.failures == 0
    assert abs(rep.bias) <= 1e-6
    assert rep.rmse <= 1e-6


def test_run_monte_carlo_deterministic_and_worker_independent():
    dgp = sparse_linear(noise=0.8)
    est = quick_estimator(dgp)
    rep1 = run_monte_carlo(dgp, est, R=6, n=60, seed=13, workers=1)
    rep2 = run_monte_carlo(dgp, est, R=6, n=60, seed=13, workers=1)
    assert rep1.summary() == rep2.summary()
    rep3 = run_monte_carlo(dgp, est, R=6, n=60, seed=13, workers=2)
    assert rep1.summary() == rep3.summary()


def test_run_monte_carlo_records_failures():
    dgp = sparse_linear(noise=0.5)
    est = EstimatorConfig(
        dictionary=dgp.dictionary,
        functional=AverageDerivative(np.array([1.0, 0.0, 0.0, 0.0])),
        K=2,
        rule=LambdaRule.fixed(0.0),
        l1_bound=1e-12,
    )
    rep = run_monte_carlo(dgp, est, R=3, n=50, seed=1, workers=1)
    assert rep.failures == 3
    assert all(r["status"] == "failed" for r in rep.per_rep)
    assert all("fold" in r["error"] for r in rep.per_rep)
    assert np.isnan(rep.bias)


def test_run_monte_carlo_propagates_programming_errors(monkeypatch):
    def broken_fold(*args, **kwargs):
        raise TypeError("bug inside dml_estimate")

    monkeypatch.setattr(dml, "fit_and_score_fold", broken_fold)
    dgp = sparse_linear(noise=0.5)
    with pytest.raises(TypeError, match="bug inside dml_estimate"):
        run_monte_carlo(dgp, quick_estimator(dgp), R=2, n=50, seed=1, workers=1)


def test_write_csv_round_trips_a_quoted_error(tmp_path, monkeypatch):
    calls = []

    def fail_first(*args, **kwargs):
        calls.append(None)
        if len(calls) == 1:
            raise ValueError('bad fold, "quoted" reason')
        return real(*args, **kwargs)

    real = simulation.dml_estimate
    monkeypatch.setattr(simulation, "dml_estimate", fail_first)
    dgp = sparse_linear(noise=0.5)
    rep = run_monte_carlo(dgp, quick_estimator(dgp), R=2, n=50, seed=1, workers=1)
    path = tmp_path / "reps.csv"
    rep.write_csv(path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["rep", "status", "theta_hat", "sigma_hat", "ci_lo", "ci_hi", "covered",
                       "error"]
    assert rows[1] == ["0", "failed", "", "", "", "", "", 'ValueError: bad fold, "quoted" reason']
    ok = rep.per_rep[1]
    assert rows[2][:2] == ["1", "ok"] and float(rows[2][2]) == ok["theta_hat"]
    assert rows[2][6:] == [str(ok["covered"]), ""]


def test_report_invariants():
    dgp = sparse_linear(noise=0.7)
    rep = run_monte_carlo(dgp, quick_estimator(dgp), R=8, n=80, seed=3, workers=1)
    assert 0.0 <= rep.coverage <= 1.0
    assert rep.rmse >= abs(rep.bias) - 1e-15


def test_rep_seeds_documented_rule():
    assert rep_seeds(7, 3) == rep_seeds(7, 3)
    assert rep_seeds(7, 3) != rep_seeds(7, 4)
    assert rep_seeds(8, 3) != rep_seeds(7, 3)


@pytest.mark.parametrize("R, n, workers, seed, field", [
    (4, 6, 1, 0, "n"), (0, 60, 1, 0, "R"), (4, 60, 0, 0, "workers"), (4, 60, 1, -1, "seed"),
    (4, 60, 1, 1.5, "seed"), (4, 60, 1, None, "seed"),
], ids=["n_below_2K", "R=0", "workers=0", "seed=-1", "seed=1.5", "seed=None"])
def test_run_monte_carlo_refuses_a_bad_study_before_any_replication(monkeypatch, R, n,
                                                                    workers, seed, field):
    started = []
    monkeypatch.setattr(simulation, "true_theta_info", lambda *args: started.append(args))
    monkeypatch.setattr(simulation, "_replicate", lambda task: started.append(task))
    dgp = sparse_linear()
    est = EstimatorConfig(dgp.dictionary, AverageDerivative(np.array([1.0, 0, 0, 0])), K=5)
    with pytest.raises(SettingError) as info:
        run_monte_carlo(dgp, est, R=R, n=n, seed=seed, workers=workers)
    assert info.value.field == field and started == []


@pytest.mark.parametrize("build, field", [
    (lambda: SparseLinearDgp(IdentityDictionary(2), [1.0]), "beta_star"),
    (lambda: SparseLinearDgp(IdentityDictionary(2), [1.0, np.inf]), "beta_star"),
    (lambda: SparseLinearDgp(IdentityDictionary(2), [1.0, 0.0], "cauchy"), "x_dist"),
    (lambda: SparseLinearDgp(IdentityDictionary(2), [1.0, 0.0], noise_sd=-1.0), "noise_sd"),
    (lambda: AteLogisticDgp(0, [], 1.0, []), "d_z"),
    (lambda: AteLogisticDgp(2, [1.0], 1.0, [0.5, 0.0]), "outcome_coefs"),
    (lambda: AteLogisticDgp(2, [1.0, 0.0], 1.0, [0.5]), "propensity_coefs"),
    (lambda: AteLogisticDgp(2, [1.0, 0.0], 1.0, [np.nan, 0.0]), "propensity_coefs"),
    (lambda: AteLogisticDgp(2, [1.0, 0.0], np.nan, [0.5, 0.0]), "tau"),
    (lambda: AteLogisticDgp(2, [1.0, 0.0], 1.0, [0.5, 0.0], noise_sd=np.inf), "noise_sd"),
    (lambda: dense_decay_dgp(3, decay=-400.0), "decay"),
    (lambda: dense_decay_dgp(3, decay=1.0, scale=np.inf), "scale"),
    (lambda: dense_decay_dgp(3, decay=-1.0, scale=1e308), "scale"),
    (lambda: dense_decay_dgp(0, decay=1.0), "input_dim"),
], ids=["beta_star_length", "beta_star_inf", "x_dist", "sparse_noise_sd", "d_z",
        "outcome_coefs_length", "propensity_coefs_length", "propensity_coefs_nan", "tau",
        "ate_noise_sd", "decay_overflows", "scale_inf", "scale_overflows", "dense_d"])
def test_dgp_names_the_parameter_out_of_range(build, field):
    with pytest.raises(SettingError) as info:
        build()
    assert info.value.field == field


def test_default_workers_count_only_usable_cpus(monkeypatch):
    from rieszdml.simulation import resolve_workers

    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert resolve_workers() == 1
    assert resolve_workers(3) == 1
    # a request below the cap is kept
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    assert resolve_workers(2) == 2
    assert resolve_workers(8) == 4
    assert resolve_workers() == 4


@pytest.mark.parametrize("workers", [0, -3])
def test_run_monte_carlo_rejects_worker_count_below_one(workers):
    dgp = sparse_linear()
    with pytest.raises(ValueError, match=f"got {workers}"):
        run_monte_carlo(dgp, quick_estimator(dgp), R=2, n=40, seed=1, workers=workers)


def test_riesz_fit_mse_decreases_with_n():
    # well-specified sparse design: alpha*(x) = x1 lies in the span
    dgp = sparse_linear(p=10, noise=1.0)
    a = np.zeros(10)
    a[0] = 1.0
    f = AverageDerivative(a)
    rule = LambdaRule.gaussian_quantile()
    mse = {}
    for n in (500, 2000, 8000):
        errs = []
        for rep in range(6):
            data = dgp.generate(n, seed=1000 * n + rep)
            rho_hat, _ = estimate_riesz(data, np.arange(n), dgp.dictionary, f, rule)
            fitted = data.covariates @ rho_hat
            alpha_true = true_riesz_rows(dgp, f, data.covariates)
            errs.append(np.mean((fitted - alpha_true) ** 2))
        mse[n] = np.mean(errs)
    assert mse[500] > mse[2000] > mse[8000]
