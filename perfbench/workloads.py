"""The benchmark's workloads: set-up, one operation, and its correctness check.

An op is one replication (generate -> dml_estimate) in the ``mc_*``
workloads, one ``run_monte_carlo`` batch in ``mc_pool2`` and one
``rieszdml estimate`` process in ``cli_estimate``.  Every op reports how many
replications or estimates it completed and how many of them failed a check.
See NOTES.md for why each workload exists.
"""

import json
import math
import os
import subprocess
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

SPARSE_CFG = "configs/experiments/coverage_sparse_linear.cfg"
ATE_CFG = "configs/experiments/ate_logistic.cfg"
CLI_DATA = "configs/examples/ate_small.csv"
CLI_CFG = "configs/examples/ate_estimate.cfg"
GOLDEN = "tests/golden/ate_estimate.json"

# name -> (kind, config, simulation.n override, workers, replications per op)
SPECS = {
    "mc_sparse_p50": ("mc", SPARSE_CFG, None, 1, 1),
    "mc_ate_n8000": ("mc", ATE_CFG, 8000, 1, 1),
    "mc_pool2": ("mc", SPARSE_CFG, None, 2, 24),
    "cli_estimate": ("cli", CLI_CFG, None, 1, 1),
}

GOLDEN_REL_TOL = 1e-9


def child_env():
    """The caller's environment with src/ importable; thread settings untouched."""
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def setup(name, seed=None):
    """Build the workload named ``name``; returns an object with ``op(i)``."""
    kind = SPECS[name][0]
    return McWorkload(name, seed) if kind == "mc" else CliWorkload(seed)


class McWorkload:
    """Replications of a bundled Monte Carlo study, built the way ``simulate`` builds it."""

    def __init__(self, name, seed):
        from rieszdml import cli, simulation

        _, cfg_path, n_override, workers, reps = SPECS[name]
        self.timings = {}
        t = time.perf_counter()
        cfg = cli.Config.load(os.path.join(ROOT, cfg_path))
        self.timings["config_ms"] = (time.perf_counter() - t) * 1e3
        dgp = cli.build_dgp(cfg)
        if isinstance(dgp, simulation.AteLogisticDgp):
            dictionary = cli.build_dictionary(cfg, dgp.d_z + 1, treatment_index=0)
            functional = simulation.AverageTreatmentEffect(0)
        else:
            dictionary = dgp.dictionary
            functional = cli.build_functional(cfg, dictionary.input_dim)
        self.est = cli.build_estimator(cfg, dictionary, functional)
        self.dgp = dgp
        self.n = n_override or cfg.get_int("simulation.n", required=True)
        self.seed = cfg.get_int("seed", default=0) if seed is None else int(seed)
        t = time.perf_counter()
        self.theta_star = simulation.true_theta_info(dgp, functional).value
        self.timings["true_theta_s"] = time.perf_counter() - t
        self.workers = workers
        self.reps = reps
        self.thetas = {}  # batch index -> per-replication theta_hat (pool only)

    def replicate(self, seed, rep):
        """One replication through the public API; returns (theta_hat, ok)."""
        from rieszdml import dml, simulation

        data_seed, fold_seed = simulation.rep_seeds(seed, rep)
        est = self.est
        data = self.dgp.generate(self.n, data_seed)
        res = dml.dml_estimate(
            data, est.dictionary, est.functional, K=est.K, rule=est.rule,
            riesz_rule=est.riesz_rule, l1_bound=est.l1_bound, alpha=est.alpha,
            seed=fold_seed, plugin_only=est.plugin_only,
        )
        return res.theta_hat, _in_own_ci(res.theta_hat, res.ci[0], res.ci[1])

    def batch_seed(self, i):
        return int(np.random.SeedSequence([self.seed, i]).generate_state(1)[0])

    def op(self, i):
        """Op ``i``; returns (replications done, replications failed)."""
        from rieszdml import simulation

        if self.workers == 1:
            try:
                _, ok = self.replicate(self.seed, i)
            except (ArithmeticError, RuntimeError, ValueError):
                ok = False
            return 1, 0 if ok else 1
        report = simulation.run_monte_carlo(self.dgp, self.est, R=self.reps, n=self.n,
                                            seed=self.batch_seed(i), workers=self.workers)
        bad = sum(1 for r in report.per_rep if not (
            r["status"] == "ok" and _in_own_ci(r["theta_hat"], r["ci_lo"], r["ci_hi"])))
        self.thetas[i] = [r["theta_hat"] for r in report.per_rep]
        return self.reps, bad

    def verify_pool(self, i):
        """Replications of pool batch ``i`` whose theta_hat differs from a serial re-run."""
        seed = self.batch_seed(i)
        return sum(1 for rep, theta in enumerate(self.thetas[i])
                   if self.replicate(seed, rep)[0] != theta)


def _in_own_ci(theta, lo, hi):
    return theta is not None and math.isfinite(theta) and lo <= theta <= hi


class CliWorkload:
    """Fresh ``rieszdml estimate`` processes on the bundled example.

    The input is fixed, because the bundled golden file pins its output; the
    seed is accepted and unused.
    """

    workers = 1

    def __init__(self, seed):
        from rieszdml import cli

        self.timings = {}
        t = time.perf_counter()
        cfg = cli.Config.load(os.path.join(ROOT, CLI_CFG))
        self.timings["config_ms"] = (time.perf_counter() - t) * 1e3
        t = time.perf_counter()
        data = cli.load_csv(os.path.join(ROOT, CLI_DATA), cfg.get_str("data.outcome"),
                            cfg.get_str("data.treatment"))
        self.timings["load_csv_ms"] = (time.perf_counter() - t) * 1e3
        dictionary = cli.build_dictionary(cfg, data.d, treatment_index=data.treatment_col or 0)
        functional = cli.build_functional(cfg, data.d, treatment_col=data.treatment_col)
        cli.build_estimator(cfg, dictionary, functional)
        with open(os.path.join(ROOT, GOLDEN)) as fh:
            self.golden = json.load(fh)
        self.env = child_env()
        self.args = ["estimate", "--data", os.path.join(ROOT, CLI_DATA),
                     "--config", os.path.join(ROOT, CLI_CFG)]

    def op(self, i, spans_path=None):
        """One CLI run; with ``spans_path`` it runs under the span recorder."""
        if spans_path is None:
            cmd = [sys.executable, "-m", "rieszdml.cli"] + self.args
        else:
            cmd = [sys.executable, os.path.join(HERE, "cli_op.py"), spans_path] + self.args
        proc = subprocess.run(cmd, env=self.env, cwd=ROOT, capture_output=True, text=True,
                              timeout=120)
        ok = proc.returncode == 0 and _matches(_parse(proc.stdout), self.golden)
        return 1, 0 if ok else 1


def _parse(text):
    try:
        return json.loads(text)
    except ValueError:
        return None


def _matches(got, want):
    """Structural equality with floats compared at relative tolerance 1e-9."""
    if isinstance(want, dict):
        return (isinstance(got, dict) and got.keys() == want.keys()
                and all(_matches(got[k], want[k]) for k in want))
    if isinstance(want, list):
        return (isinstance(got, list) and len(got) == len(want)
                and all(_matches(g, w) for g, w in zip(got, want)))
    if isinstance(want, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        return abs(got - want) <= GOLDEN_REL_TOL * max(abs(got), abs(want))
    return type(got) is type(want) and got == want
