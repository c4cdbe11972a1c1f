import json
import os
import subprocess
import sys

import numpy as np
import pytest

import rieszdml
from rieszdml.cli import run

HERE = os.path.dirname(__file__)
PKG = os.path.dirname(HERE)
EXAMPLE_CSV = os.path.join(PKG, "configs", "examples", "ate_small.csv")
EXAMPLE_CFG = os.path.join(PKG, "configs", "examples", "ate_estimate.cfg")
GOLDEN = os.path.join(HERE, "golden", "ate_estimate.json")


def write(path, text):
    path.write_text(text)
    return str(path)


def run_cli(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def error_line(err):
    """The single-line JSON error object on stderr."""
    assert err.endswith("\n") and err.count("\n") == 1
    payload = json.loads(err)
    assert isinstance(payload, dict) and "error" in payload
    return payload


# -- rmd-solve -------------------------------------------------------------------

def test_rmd_solve_large_lambda_zero(tmp_path, capsys):
    g = write(tmp_path / "G.txt", "1 0 0\n0 1 0\n0 0 1\n")
    m = write(tmp_path / "M.txt", "0.4 -0.2 0.1\n")
    code, out, err = run_cli(capsys, "rmd-solve", "--g-matrix", g, "--m-vector", m,
                             "--lambda", "0.5")
    assert code == 0
    payload = json.loads(out)
    assert payload["t_hat"] == [0.0, 0.0, 0.0]
    assert payload["status"] == "optimal"


def test_rmd_solve_known_solution(tmp_path, capsys):
    g = write(tmp_path / "G.txt", "1 0.5\n0.5 1\n")
    m = write(tmp_path / "M.txt", "1 1\n")
    code, out, _ = run_cli(capsys, "rmd-solve", "--g-matrix", g, "--m-vector", m,
                           "--lambda", "0")
    assert code == 0
    payload = json.loads(out)
    np.testing.assert_allclose(payload["t_hat"], [2.0 / 3.0, 2.0 / 3.0], atol=1e-10)


def test_rmd_solve_reports_closed_gap(tmp_path, capsys):
    rng = np.random.default_rng(4)
    A = rng.standard_normal((8, 5))
    np.savetxt(tmp_path / "G.txt", A.T @ A / 8, fmt="%.17g")
    np.savetxt(tmp_path / "M.txt", rng.standard_normal(5), fmt="%.17g")
    g, m = str(tmp_path / "G.txt"), str(tmp_path / "M.txt")
    code, out, _ = run_cli(capsys, "rmd-solve", "--g-matrix", g, "--m-vector", m,
                           "--lambda", "0.1")
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "optimal"
    assert payload["iterations"] > 0
    assert abs(payload["gap"]) <= 1e-7 * (1.0 + np.abs(payload["t_hat"]).sum())


def test_rmd_solve_bad_input(tmp_path, capsys):
    g = write(tmp_path / "G.txt", "1 0\nnot numbers\n")
    m = write(tmp_path / "M.txt", "1 1\n")
    code, out, err = run_cli(capsys, "rmd-solve", "--g-matrix", g, "--m-vector", m,
                             "--lambda", "0.1")
    assert code == 2
    assert "error" in json.loads(err.strip())


# -- estimate ---------------------------------------------------------------------

def test_estimate_matches_golden(capsys):
    code, out, _ = run_cli(capsys, "estimate", "--data", EXAMPLE_CSV,
                           "--config", EXAMPLE_CFG)
    assert code == 0
    got = json.loads(out)
    golden = json.load(open(GOLDEN))
    assert np.isfinite(got["theta_hat"])
    assert got["theta_hat"] == pytest.approx(golden["theta_hat"], rel=1e-9)
    assert got["ci"][0] == pytest.approx(golden["ci"][0], rel=1e-9)
    assert got["ci"][1] == pytest.approx(golden["ci"][1], rel=1e-9)
    assert got["sigma_hat"] == pytest.approx(golden["sigma_hat"], rel=1e-9)


def test_estimate_config_roundtrip(capsys):
    code, out, _ = run_cli(capsys, "estimate", "--data", EXAMPLE_CSV,
                           "--config", EXAMPLE_CFG)
    assert code == 0
    payload = json.loads(out)
    cfg_lines = {}
    for line in open(EXAMPLE_CFG):
        body = line.split("#", 1)[0].strip()
        if body:
            k, v = body.split("=", 1)
            cfg_lines[k.strip()] = v.strip()
    assert payload["config"] == cfg_lines


def test_estimate_missing_outcome_column(tmp_path, capsys):
    cfg = write(tmp_path / "c.cfg", "\n".join([
        "dictionary.kind = identity",
        "functional.type = average_derivative",
        "functional.direction = 1,0",
        "data.outcome = nope",
        "seed = 1",
    ]))
    csv = write(tmp_path / "d.csv", "y,x1,x2\n" + "\n".join(
        f"{i % 3},{i * 0.1},{i * 0.2}" for i in range(20)))
    code, out, err = run_cli(capsys, "estimate", "--data", csv, "--config", cfg)
    assert code == 2
    payload = json.loads(err.strip())
    assert payload["key"] == "data.outcome"
    assert "nope" in payload["error"]


def test_estimate_missing_treatment_column_names_its_key(tmp_path, capsys):
    # the outcome name "t" is a substring of the error message, which must
    # not make the error blame data.outcome
    cfg = write(tmp_path / "c.cfg", "data.outcome = t\ndata.treatment = treat\n")
    csv = write(tmp_path / "d.csv", "t,x1,x2\n" + "\n".join(
        f"{i % 3},{i * 0.1},{i * 0.2}" for i in range(20)))
    code, out, err = run_cli(capsys, "estimate", "--data", csv, "--config", cfg)
    assert code == 2 and out == ""
    payload = error_line(err)
    assert payload["key"] == "data.treatment"
    assert "treat" in payload["error"]


@pytest.mark.parametrize("failure", ["iteration_limit", "unbounded"])
def test_estimate_solver_failure_exit_code(monkeypatch, capsys, failure):
    from rieszdml import lp

    def failing_solve(G, M, lam, l1_bound, max_iters=100_000):
        if failure == "unbounded":
            raise lp.SolverError("simplex: unbounded direction encountered")
        return lp.LpResult(np.zeros(3 * len(M)), 0.0, lp.ITERATION_LIMIT, max_iters)

    monkeypatch.setattr(lp, "solve_standard_form", failing_solve)
    code, out, err = run_cli(capsys, "estimate", "--data", EXAMPLE_CSV,
                             "--config", EXAMPLE_CFG)
    assert code == 4 and out == ""
    message = error_line(err)["error"]
    assert ("iteration limit in fold 1" if failure == "iteration_limit"
            else "unbounded direction") in message


def test_estimate_uncertified_optimum_exit_code(monkeypatch, capsys):
    from rieszdml import lp

    def uncertified_solve(G, M, lam, l1_bound, max_iters=100_000):
        # claims t = 0 optimal, which leaves the BLP residual above lambda
        return lp.LpResult(np.zeros(3 * len(M)), 0.0, lp.OPTIMAL, 0, np.zeros(len(M)))

    monkeypatch.setattr(lp, "solve_standard_form", uncertified_solve)
    code, out, err = run_cli(capsys, "estimate", "--data", EXAMPLE_CSV,
                             "--config", EXAMPLE_CFG)
    assert code == 4 and out == ""
    assert "BLP RMD fit failed its feasibility or duality-gap certificate in fold 1" \
        in error_line(err)["error"]


def test_estimate_unknown_config_key(tmp_path, capsys):
    cfg = write(tmp_path / "c.cfg", "freq = 3\n")
    code, _, err = run_cli(capsys, "estimate", "--data", EXAMPLE_CSV, "--config", cfg)
    assert code == 2
    assert json.loads(err.strip())["key"] == "freq"


def test_estimate_infeasible_exit_code(tmp_path, capsys):
    rng = np.random.default_rng(0)
    rows = "\n".join(f"{rng.normal() + 1},{rng.normal()},{rng.normal()}" for _ in range(30))
    csv = write(tmp_path / "d.csv", "y,x1,x2\n" + rows)
    cfg = write(tmp_path / "c.cfg", "\n".join([
        "dictionary.kind = identity",
        "functional.type = average_derivative",
        "functional.direction = 1,0",
        "data.outcome = y",
        "estimator.k_folds = 2",
        "estimator.lambda_method = fixed",
        "estimator.lambda_value = 0",
        "estimator.l1_bound = 1e-9",
        "seed = 1",
    ]))
    code, out, err = run_cli(capsys, "estimate", "--data", csv, "--config", cfg)
    assert code == 3
    assert "fold" in json.loads(err.strip())["error"]


def test_estimate_rejects_bad_k(tmp_path, capsys):
    cfg = write(tmp_path / "c.cfg", "\n".join([
        "dictionary.kind = identity",
        "functional.type = average_derivative",
        "functional.direction = 1,0,0,0,0",
        "data.outcome = y",
        "estimator.k_folds = 1",
    ]))
    code, _, err = run_cli(capsys, "estimate", "--data", EXAMPLE_CSV, "--config", cfg)
    assert code == 2
    assert json.loads(err.strip())["key"] == "estimator.k_folds"


# -- simulate ---------------------------------------------------------------------

def simulate_cfg(tmp_path, extra=""):
    return write(tmp_path / "sim.cfg", "\n".join([
        "simulation.dgp = sparse_linear",
        "simulation.n = 80",
        "simulation.replications = 3",
        "simulation.d = 4",
        "simulation.noise_sd = 0.5",
        "simulation.beta_star = 0,1,0.5,0,0",  # basis order: const, x1..x4
        "dictionary.kind = polynomial",
        "dictionary.degree = 1",
        "functional.type = average_derivative",
        "functional.direction = 1,0,0,0",
        "estimator.k_folds = 2",
        "simulation.workers = 1",
        "seed = 5",
    ]) + ("\n" + extra if extra else ""))


def test_simulate_end_to_end(tmp_path, capsys):
    cfg = simulate_cfg(tmp_path)
    csv_out = str(tmp_path / "reps.csv")
    json_out = str(tmp_path / "report.json")
    code, out, _ = run_cli(capsys, "simulate", "--config", cfg,
                           "--output", json_out, "--csv", csv_out)
    assert code == 0
    payload = json.loads(out)
    assert payload["R"] == 3
    assert payload["theta_star"] == 1.0
    assert len(payload["per_rep"]) == 3
    assert payload["failures"] == 0
    assert 0.0 <= payload["coverage"] <= 1.0
    assert payload["config"]["simulation.dgp"] == "sparse_linear"
    # file output matches stdout bytes
    assert open(json_out).read() == out
    lines = open(csv_out).read().strip().split("\n")
    assert len(lines) == 4  # header + 3 reps
    assert lines[0].startswith("rep,status,theta_hat")


def test_simulate_rejects_non_integer_thread_cap(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("RIESZ_DML_THREADS", "two")
    code, out, err = run_cli(capsys, "simulate", "--config", simulate_cfg(tmp_path))
    assert code == 2 and out == ""
    assert "RIESZ_DML_THREADS" in error_line(err)["error"]


def test_simulate_deterministic_bytes(tmp_path, capsys):
    cfg = simulate_cfg(tmp_path)
    code1, out1, _ = run_cli(capsys, "simulate", "--config", cfg)
    code2, out2, _ = run_cli(capsys, "simulate", "--config", cfg)
    assert code1 == code2 == 0
    assert out1 == out2


def test_estimate_deterministic_bytes(capsys):
    code1, out1, _ = run_cli(capsys, "estimate", "--data", EXAMPLE_CSV,
                             "--config", EXAMPLE_CFG)
    code2, out2, _ = run_cli(capsys, "estimate", "--data", EXAMPLE_CSV,
                             "--config", EXAMPLE_CFG)
    assert code1 == code2 == 0
    assert out1 == out2


# -- output files, strict JSON and import cost --------------------------------------

def _reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


def test_rmd_solve_stdout_is_strict_json(tmp_path, capsys):
    # G = I, M = (1, 0), lambda = 0.5: the optimum has l1 norm 0.5, so no
    # --l1-bound leaves l1_bound infinite and --l1-bound 0.1 is infeasible (gap nan).
    g = write(tmp_path / "G.txt", "1 0\n0 1\n")
    m = write(tmp_path / "M.txt", "1 0\n")
    base = ["rmd-solve", "--g-matrix", g, "--m-vector", m, "--lambda", "0.5"]
    code, out, _ = run_cli(capsys, *base)
    assert code == 0
    assert json.loads(out, parse_constant=_reject_constant)["l1_bound"] is None
    code, out, _ = run_cli(capsys, *base, "--l1-bound", "0.1")
    assert code == 0
    payload = json.loads(out, parse_constant=_reject_constant)
    assert payload["status"] == "infeasible" and payload["gap"] is None


def test_estimate_unwritable_output_is_config_error(tmp_path, capsys):
    bad = str(tmp_path / "missing" / "x.json")
    code, out, err = run_cli(capsys, "estimate", "--data", EXAMPLE_CSV,
                             "--config", EXAMPLE_CFG, "--output", bad)
    assert code == 2
    assert np.isfinite(json.loads(out)["theta_hat"])  # stdout comes before --output
    assert "--output" in error_line(err)["error"]


@pytest.mark.parametrize("flag", ["--output", "--csv"])
def test_simulate_unwritable_file_is_config_error(tmp_path, capsys, flag):
    bad = str(tmp_path / "missing" / "x")
    code, out, err = run_cli(capsys, "simulate", "--config", simulate_cfg(tmp_path), flag, bad)
    assert code == 2
    assert json.loads(out)["R"] == 3
    assert flag in error_line(err)["error"]


def test_rmd_solve_unwritable_output_is_config_error(tmp_path, capsys):
    g = write(tmp_path / "G.txt", "1 0\n0 1\n")
    m = write(tmp_path / "M.txt", "1 0\n")
    code, out, err = run_cli(capsys, "rmd-solve", "--g-matrix", g, "--m-vector", m,
                             "--lambda", "0.5", "--output", str(tmp_path / "missing" / "x"))
    assert code == 2
    assert json.loads(out)["status"] == "optimal"
    assert "--output" in error_line(err)["error"]


def test_simulate_rejects_zero_replications(tmp_path, capsys):
    cfg = tmp_path / "sim.cfg"
    simulate_cfg(tmp_path)
    cfg.write_text(cfg.read_text().replace("replications = 3", "replications = 0"))
    code, out, err = run_cli(capsys, "simulate", "--config", str(cfg))
    assert code == 2 and out == ""
    assert error_line(err)["key"] == "simulation.replications"


def test_cli_import_leaves_process_pool_unloaded():
    src = os.path.dirname(os.path.dirname(rieszdml.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, rieszdml.cli; print('concurrent.futures.process' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
