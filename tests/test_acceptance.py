"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
complete.  The Monte Carlo studies read the bundled experiment configs in
configs/experiments/ so that the tested designs and the shipped ones cannot
drift apart.
"""

import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import rieszdml
from rieszdml import (
    AverageDerivative,
    IdentityDictionary,
    SparseLinearDgp,
    estimate_blp,
    estimate_riesz,
    orthogonality_report,
    score_derivatives,
    score_psi,
    solve_rmd,
)
from rieszdml.cli import Config, build_dgp, build_estimator, build_functional
from rieszdml.rmd import LambdaRule, RmdProblem
from rieszdml.simulation import run_monte_carlo

from oracles import lp_vertex_oracle

HERE = os.path.dirname(__file__)
PKG = os.path.dirname(HERE)
EXPERIMENTS = os.path.join(PKG, "configs", "experiments")

WORKERS = 2


def announce(criterion, ok, detail):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def load_study(name):
    cfg = Config.load(os.path.join(EXPERIMENTS, name))
    dgp = build_dgp(cfg)
    if cfg.get_str("simulation.dgp") == "ate_logistic":
        from rieszdml import AverageTreatmentEffect, TreatmentInteractedDictionary
        from rieszdml.cli import build_dictionary

        dictionary = build_dictionary(cfg, dgp.d_z + 1, treatment_index=0)
        functional = AverageTreatmentEffect(0)
    else:
        dictionary = dgp.dictionary
        functional = build_functional(cfg, dictionary.input_dim)
    est = build_estimator(cfg, dictionary, functional)
    R = cfg.get_int("simulation.replications", required=True)
    n = cfg.get_int("simulation.n", required=True)
    seed = cfg.get_int("seed", default=0)
    return dgp, est, R, n, seed


def test_criterion_1_rmd_oracle_equivalence():
    rng = np.random.default_rng(42)
    start = time.monotonic()
    worst = 0.0
    for i in range(100):
        p = int(rng.integers(1, 5))
        A = rng.standard_normal((p + 2, p))
        G = A.T @ A / (p + 2)
        M = rng.standard_normal(p)
        lam = float(abs(rng.standard_normal()) * 0.4)
        B = np.inf if rng.random() < 0.7 else float(abs(rng.standard_normal()) * 2.0 + 0.5)
        oracle = lp_vertex_oracle(G, M, lam, B)
        sol = solve_rmd(RmdProblem(G, M, lam, B))
        if oracle is None:
            assert sol.status == "infeasible", i
        else:
            assert sol.status == "optimal", i
            worst = max(worst, abs(sol.l1_norm - oracle))
    elapsed = time.monotonic() - start
    ok = worst <= 1e-6 and elapsed < 10.0
    announce(1, ok, f"100 instances p<=4, max |l1 - oracle| = {worst:.2e}, {elapsed:.2f} s")


def test_criterion_2_soft_threshold_exactness():
    rng = np.random.default_rng(7)
    start = time.monotonic()
    worst = 0.0
    for _ in range(100):
        p = int(rng.integers(1, 15))
        M = 2.0 * rng.standard_normal(p)
        lam = float(abs(rng.standard_normal()))
        sol = solve_rmd(RmdProblem(np.eye(p), M, lam))
        closed_form = np.sign(M) * np.maximum(np.abs(M) - lam, 0.0)
        worst = max(worst, float(np.abs(sol.t_hat - closed_form).max()))
    elapsed = time.monotonic() - start
    ok = worst <= 1e-10 and elapsed < 1.0
    announce(2, ok, f"100 random (M, lambda) with G = I, max error = {worst:.2e}, {elapsed:.2f} s")


def test_criterion_3_feasibility_and_restricted_set():
    p = 12
    dic = IdentityDictionary(p)
    beta_star = np.zeros(p)
    beta_star[:3] = [1.0, -0.8, 0.5]
    rho_star = np.zeros(p)
    rho_star[0] = 1.0  # Riesz representer of the e1-average-derivative, G = I
    dgp = SparseLinearDgp(dic, beta_star, "normal", 1.5)
    f = AverageDerivative(rho_star.copy())
    rule = LambdaRule.gaussian_quantile(c=1.1, alpha=0.05)
    n = 400
    worst_slack = -np.inf
    l1_checks = 0
    for rep in range(30):
        data = dgp.generate(n, seed=500 + rep)
        rows = np.arange(n)
        B = data.covariates
        G = B.T @ B / n
        lam = rule.lam(n, p)

        beta_hat, sol_b = estimate_blp(data, rows, dic, rule)
        assert sol_b.status == "optimal"
        resid = np.abs(G @ beta_hat - B.T @ data.outcome / n).max()
        worst_slack = max(worst_slack, resid - lam)
        if np.abs(G @ beta_star - B.T @ data.outcome / n).max() <= lam:
            assert np.abs(beta_hat).sum() <= np.abs(beta_star).sum() + 1e-7
            l1_checks += 1

        rho_hat, sol_r = estimate_riesz(data, rows, dic, f, rule)
        assert sol_r.status == "optimal"
        M = f.m_rows(dic, B).mean(axis=0)
        resid = np.abs(G @ rho_hat - M).max()
        worst_slack = max(worst_slack, resid - lam)
        if np.abs(G @ rho_star - M).max() <= lam:
            assert np.abs(rho_hat).sum() <= np.abs(rho_star).sum() + 1e-7
            l1_checks += 1
    ok = worst_slack <= 1e-7 and l1_checks >= 20
    announce(3, ok, f"60 fits: max feasibility slack = {worst_slack:.2e}, "
                    f"{l1_checks} restricted-set checks (t0 feasible)")


def test_criterion_4_orthogonality_and_score_derivatives():
    rng = np.random.default_rng(19)
    p = 8
    dic = IdentityDictionary(p)
    a = np.zeros(p)
    a[0] = 1.0
    f = AverageDerivative(a)
    lam = 0.15
    worst_orth = -np.inf
    for rep in range(20):
        beta_star = np.zeros(p)
        beta_star[:3] = rng.standard_normal(3)
        dgp = SparseLinearDgp(dic, beta_star, "normal", 1.0)
        data = dgp.generate(300, seed=900 + rep)
        rows = np.arange(300)
        beta_hat, _ = estimate_blp(data, rows, dic, LambdaRule.fixed(lam))
        rho_hat, _ = estimate_riesz(data, rows, dic, f, LambdaRule.fixed(lam))
        d_beta_sup, d_rho_sup = orthogonality_report(data, dic, f, beta_hat, rho_hat)
        worst_orth = max(worst_orth, d_beta_sup - lam, d_rho_sup - lam)

    worst_fd = 0.0
    for _ in range(20):
        x = rng.standard_normal(p)
        y = rng.standard_normal()
        beta = rng.standard_normal(p)
        rho = rng.standard_normal(p)
        theta = rng.standard_normal()
        d_beta, d_rho = score_derivatives((y, x), theta, beta, rho, dic, f)
        h = 1e-6
        for j in range(p):
            for vec, grad in ((beta, d_beta), (rho, d_rho)):
                vp, vm = vec.copy(), vec.copy()
                vp[j] += h
                vm[j] -= h
                if vec is beta:
                    fd = (score_psi((y, x), theta, vp, rho, dic, f)
                          - score_psi((y, x), theta, vm, rho, dic, f)) / (2 * h)
                else:
                    fd = (score_psi((y, x), theta, beta, vp, dic, f)
                          - score_psi((y, x), theta, beta, vm, dic, f)) / (2 * h)
                rel = abs(fd - grad[j]) / max(1.0, abs(grad[j]))
                worst_fd = max(worst_fd, rel)
    ok = worst_orth <= 1e-7 and worst_fd <= 1e-6
    announce(4, ok, f"same-sample sup-norm slack = {worst_orth:.2e}, "
                    f"worst FD mismatch = {worst_fd:.2e}")


def test_criterion_5_gaussian_coverage():
    dgp, est, R, n, seed = load_study("coverage_sparse_linear.cfg")
    assert R == 500 and n == 500 and est.K == 5
    assert dgp.dictionary.output_dim == 50
    assert int((dgp.beta_star != 0).sum()) == 3
    start = time.monotonic()
    rep = run_monte_carlo(dgp, est, R=R, n=n, seed=seed, workers=WORKERS)
    elapsed = time.monotonic() - start
    se_bar = rep.mean_sigma / np.sqrt(n)
    ok = (0.90 <= rep.coverage <= 0.98
          and abs(rep.bias) <= 0.3 * se_bar
          and rep.failures == 0
          and elapsed < 600.0)
    announce(5, ok, f"coverage = {rep.coverage:.3f} (want [0.90, 0.98]), "
                    f"|bias| = {abs(rep.bias):.4f} vs 0.3*SE = {0.3 * se_bar:.4f}, "
                    f"{elapsed:.0f} s")


def test_criterion_6_ate_oracle_agreement():
    dgp, est, R, n, seed = load_study("ate_logistic.cfg")
    assert R == 200 and n == 2000
    assert est.dictionary.output_dim == 40
    rep = run_monte_carlo(dgp, est, R=R, n=n, seed=seed, workers=WORKERS)
    mean_theta = rep.bias + rep.theta_star
    ok = (0.90 <= rep.coverage <= 0.98
          and abs(mean_theta - 1.0) <= 0.05
          and rep.failures == 0)
    announce(6, ok, f"coverage = {rep.coverage:.3f}, |mean(theta) - 1| = "
                    f"{abs(mean_theta - 1.0):.4f} (want <= 0.05)")


def test_criterion_7_dense_nuisance_debiasing():
    dgp, est, R, n, seed = load_study("dense_decay.cfg")
    rep = run_monte_carlo(dgp, est, R=R, n=n, seed=seed, workers=WORKERS)
    dgp_p, est_p, R_p, n_p, seed_p = load_study("dense_decay_plugin.cfg")
    assert est_p.plugin_only
    rep_plug = run_monte_carlo(dgp_p, est_p, R=R_p, n=n_p, seed=seed_p, workers=WORKERS)
    ok = (0.88 <= rep.coverage <= 0.98
          and rep_plug.coverage < 0.85
          and rep.failures == 0)
    announce(7, ok, f"debiased coverage = {rep.coverage:.3f} (want [0.88, 0.98]); "
                    f"plug-in (rho = 0) coverage = {rep_plug.coverage:.3f} (want < 0.85)")


def test_criterion_8_root_n_rmse_trend():
    rmse = {}
    for n in (500, 2000, 8000):
        dgp, est, R, n_cfg, seed = load_study(f"rmse_scaling_n{n}.cfg")
        assert n_cfg == n and R == 200
        rep = run_monte_carlo(dgp, est, R=R, n=n, seed=seed, workers=WORKERS)
        assert rep.failures == 0
        rmse[n] = rep.rmse
    r1 = rmse[500] / rmse[2000]
    r2 = rmse[2000] / rmse[8000]
    ok = 1.6 <= r1 <= 2.6 and 1.6 <= r2 <= 2.6
    announce(8, ok, f"RMSE = {rmse[500]:.4f} / {rmse[2000]:.4f} / {rmse[8000]:.4f}, "
                    f"per-4x factors = {r1:.2f}, {r2:.2f} (want [1.6, 2.6])")


def test_criterion_9_cli_determinism(tmp_path):
    # the CLI processes import the same rieszdml as this test process
    src = os.path.dirname(os.path.dirname(rieszdml.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=path)

    def run_twice(args):
        outs = []
        for _ in range(2):
            proc = subprocess.run([sys.executable, "-m", "rieszdml.cli", *args],
                                  capture_output=True, env=env, cwd=PKG)
            assert proc.returncode == 0, proc.stderr.decode()
            outs.append(proc.stdout)
        return outs[0] == outs[1]

    (tmp_path / "G.txt").write_text("1 0.5\n0.5 1\n")
    (tmp_path / "M.txt").write_text("0.9 -0.4\n")
    sim_cfg = tmp_path / "sim.cfg"
    sim_cfg.write_text("\n".join([
        "simulation.dgp = sparse_linear",
        "simulation.n = 120",
        "simulation.replications = 4",
        "simulation.d = 6",
        "simulation.noise_sd = 1.0",
        "simulation.beta_star = 0,1,0.5,0,0,0,0",
        "dictionary.kind = polynomial",
        "dictionary.degree = 1",
        "functional.type = average_derivative",
        "functional.direction = 1,0,0,0,0,0",
        "estimator.k_folds = 2",
        "simulation.workers = 2",
        "seed = 19",
    ]))
    checks = {
        "estimate": run_twice(["estimate",
                               "--data", os.path.join(PKG, "configs", "examples", "ate_small.csv"),
                               "--config", os.path.join(PKG, "configs", "examples", "ate_estimate.cfg")]),
        "simulate": run_twice(["simulate", "--config", str(sim_cfg)]),
        "rmd-solve": run_twice(["rmd-solve", "--g-matrix", str(tmp_path / "G.txt"),
                                "--m-vector", str(tmp_path / "M.txt"), "--lambda", "0.2"]),
    }
    ok = all(checks.values())
    announce(9, ok, "byte-identical reruns: " +
             ", ".join(f"{k}={'yes' if v else 'NO'}" for k, v in checks.items()))
