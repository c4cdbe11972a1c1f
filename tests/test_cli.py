import codecs
import contextlib
import csv
import ctypes
import dataclasses
import io
import json
import os
import pathlib
import subprocess
import sys
import tempfile
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rieszdml
from rieszdml import cli, jsonio, lp
from rieszdml.cli import run
from rieszdml.simulation import MonteCarloReport

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


# -- usage ---------------------------------------------------------------------

@pytest.mark.parametrize("argv, named", [
    (["estimate", "--config", EXAMPLE_CFG], "the following arguments are required: --data"),
    (["rmd-solve", "--g-matrix", "G.txt", "--m-vector", "M.txt", "--lambda", "abc"],
     "argument --lambda: invalid float value: 'abc'"),
    (["fit", "--config", EXAMPLE_CFG], "invalid choice: 'fit'"),
], ids=["missing-data", "lambda-not-a-number", "unknown-subcommand"])
def test_usage_error_is_one_json_line(capsys, argv, named):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    payload = error_line(err)
    assert named in payload["error"] and "key" not in payload, payload


def test_help_prints_usage_on_stdout(capsys):
    code, out, err = run_cli(capsys, "estimate", "--help")
    assert code == 0 and err == ""
    assert out.startswith("usage: rieszdml estimate") and "--data DATA" in out


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
    # a file that does not parse is an error naming its flag and its path
    for flag, g_text, m_text in (("--g-matrix", "1 0\nnot numbers\n", "1 1\n"),
                                 ("--m-vector", "1 0\n0 1\n", "1 1 x\n")):
        g = write(tmp_path / "G.txt", g_text)
        m = write(tmp_path / "M.txt", m_text)
        code, out, err = run_cli(capsys, "rmd-solve", "--g-matrix", g, "--m-vector", m,
                                 "--lambda", "0.1")
        assert code == 2 and out == ""
        path = g if flag == "--g-matrix" else m
        assert f"cannot read {flag} file {path}: " in error_line(err)["error"], err


@pytest.mark.filterwarnings("error")
def test_rmd_solve_empty_gram_is_config_error(tmp_path, capsys):
    g = write(tmp_path / "G.txt", "")
    m = write(tmp_path / "M.txt", "")
    code, out, err = run_cli(capsys, "rmd-solve", "--g-matrix", g, "--m-vector", m,
                             "--lambda", "0.1")
    assert code == 2 and out == ""
    assert "G_hat is empty" in error_line(err)["error"]


@pytest.mark.filterwarnings("error")
def test_rmd_solve_gram_near_float_max_keeps_the_output_contract(tmp_path, capsys):
    m = write(tmp_path / "M.txt", "1 1\n")
    g = write(tmp_path / "G.txt", "1e308 0\n0 1\n")  # G + G' overflows
    code, out, err = run_cli(capsys, "rmd-solve", "--g-matrix", g, "--m-vector", m,
                             "--lambda", "0.1")
    assert code == 0 and err == ""
    assert json.loads(out)["status"] == "optimal"
    g = write(tmp_path / "G.txt", "1 1e308\n-1e308 1\n")  # G - G' overflows
    code, out, err = run_cli(capsys, "rmd-solve", "--g-matrix", g, "--m-vector", m,
                             "--lambda", "0.1")
    assert code == 2 and out == ""
    assert f"--g-matrix {g}" in error_line(err)["error"]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("flag, g_text, m_text, extra", [
    ("--lambda", "1 0\n0 1\n", "1 0\n", ["--lambda", "-1"]),
    ("--lambda", "1 0\n0 1\n", "1 0\n", ["--lambda", "nan"]),
    ("--l1-bound", "1 0\n0 1\n", "1 0\n", ["--lambda", "0.1", "--l1-bound", "0"]),
    ("--g-matrix", "1 0.5\n0 1\n", "1 0\n", ["--lambda", "0.1"]),
    ("--m-vector", "1 0\n0 1\n", "1 nan\n", ["--lambda", "0.1"]),
    ("--m-vector", "1 0\n0 1\n", "1 0 0\n", ["--lambda", "0.1"]),
], ids=["lambda-negative", "lambda-nan", "l1-bound-zero", "g-asymmetric", "m-non-finite",
        "m-mis-sized"])
def test_rmd_solve_bad_problem_names_the_flag_at_fault(tmp_path, capsys, flag, g_text, m_text,
                                                       extra):
    g = write(tmp_path / "G.txt", g_text)
    m = write(tmp_path / "M.txt", m_text)
    code, out, err = run_cli(capsys, "rmd-solve", "--g-matrix", g, "--m-vector", m, *extra)
    assert code == 2 and out == ""
    named = {"--g-matrix": f"--g-matrix {g}: ", "--m-vector": f"--m-vector {m}: "}
    assert error_line(err)["error"].startswith(named.get(flag, f"{flag}: ")), err


@pytest.mark.filterwarnings("error")
def test_rmd_solve_overflow_names_both_files(tmp_path, capsys):
    # each entry is finite, but the simplex divides M's 1e305 by G's 1e-5 pivot
    g = write(tmp_path / "G.txt", "1e-5 0\n0 1\n")
    m = write(tmp_path / "M.txt", "1e305 0\n")
    code, out, err = run_cli(capsys, "rmd-solve", "--g-matrix", g, "--m-vector", m,
                             "--lambda", "0")
    assert code == 2 and out == ""
    assert error_line(err) == {"error": f"cannot solve the RMD problem in --g-matrix {g} and "
                                        f"--m-vector {m}: overflow encountered in scalar divide"}


# -- estimate ---------------------------------------------------------------------

def test_estimate_matches_golden(capsys):
    code, out, err = run_cli(capsys, "estimate", "--data", EXAMPLE_CSV,
                             "--config", EXAMPLE_CFG)
    assert code == 0 and err == ""
    got = json.loads(out)
    golden = json.loads(pathlib.Path(GOLDEN).read_text())
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
    for line in pathlib.Path(EXAMPLE_CFG).read_text().splitlines():
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

    def failing_solve(G, M, lam):
        if failure == "unbounded":
            raise lp.SolverError("simplex: unbounded direction encountered")
        return lp.LpResult(np.zeros(len(M)), lp.ITERATION_LIMIT, lp.MAX_ITERS)

    monkeypatch.setattr(lp, "solve_standard_form", failing_solve)
    code, out, err = run_cli(capsys, "estimate", "--data", EXAMPLE_CSV,
                             "--config", EXAMPLE_CFG)
    assert code == 4 and out == ""
    message = error_line(err)["error"]
    assert ("iteration limit in fold 1" if failure == "iteration_limit"
            else "unbounded direction") in message


def test_singular_basis_at_refactorization_is_a_solver_error(monkeypatch, capsys):
    # the real simplex refactorizes after every pivot and finds each basis singular
    monkeypatch.setattr(lp, "_REFACTOR_EVERY", 1)
    monkeypatch.setattr(lp, "_basis_matrix", lambda G, basis: np.zeros((len(basis),) * 2))
    message = "simplex: singular basis at refactorization"
    get, put = lp._openblas_thread_calls()
    caller = get()
    try:
        put(2)
        with pytest.raises(lp.SolverError, match=message):
            rieszdml.solve_rmd(np.eye(3), np.array([0.9, 0.1, 0.0]), 0.2)
        after = get()  # lp's own one-thread scope, outside dml_estimate's
    finally:
        put(caller)
    code, out, err = run_cli(capsys, "estimate", "--data", EXAMPLE_CSV,
                             "--config", EXAMPLE_CFG)
    assert code == 4 and out == ""
    assert message in error_line(err)["error"]
    if not isinstance(get, ctypes._CFuncPtr):
        pytest.skip("numpy's bundled OpenBLAS or its thread-count symbols not found")
    assert after == 2


def test_estimate_uncertified_optimum_exit_code(monkeypatch, capsys):
    from rieszdml import lp

    def uncertified_solve(G, M, lam):
        # claims t = 0 optimal, which leaves the BLP residual above lambda
        return lp.LpResult(np.zeros(len(M)), lp.OPTIMAL, 0, np.zeros(len(M)))

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


def example_entries():
    """The bundled example config as an ordered key -> value dict."""
    entries = {}
    with open(EXAMPLE_CFG) as fh:
        lines = fh.readlines()
    for line in lines:
        body = line.split("#", 1)[0].strip()
        if body:
            k, v = body.split("=", 1)
            entries[k.strip()] = v.strip()
    return entries


def write_cfg(path, entries):
    return write(path, "".join(f"{k} = {v}\n" for k, v in entries.items()))


def test_estimate_k_folds_above_n_over_2_names_its_key(tmp_path, capsys):
    cfg = write_cfg(tmp_path / "c.cfg", {**example_entries(), "estimator.k_folds": "200"})
    code, out, err = run_cli(capsys, "estimate", "--data", EXAMPLE_CSV, "--config", cfg)
    assert code == 2 and out == ""
    payload = error_line(err)
    assert payload["key"] == "estimator.k_folds" and "n = 300" in payload["error"]


def test_estimate_direction_length_mismatch_names_functional_type(tmp_path, capsys):
    cfg = write(tmp_path / "c.cfg", "\n".join([
        "dictionary.kind = identity",
        "functional.type = average_derivative",
        "functional.direction = 1,0",  # the example has 5 covariates
        "data.outcome = y",
    ]))
    code, out, err = run_cli(capsys, "estimate", "--data", EXAMPLE_CSV, "--config", cfg)
    assert code == 2 and out == ""
    payload = error_line(err)
    assert payload["key"] == "functional.type" and "direction length" in payload["error"]


def test_estimate_treatment_equal_to_outcome_names_its_key(tmp_path, capsys):
    cfg = write_cfg(tmp_path / "c.cfg", {**example_entries(), "data.treatment": "y"})
    code, out, err = run_cli(capsys, "estimate", "--data", EXAMPLE_CSV, "--config", cfg)
    assert code == 2 and out == ""
    payload = error_line(err)
    assert payload["key"] == "data.treatment" and "outcome" in payload["error"]


@pytest.mark.filterwarnings("error")
def test_estimate_lambda_near_float_max_is_reported(tmp_path, capsys):
    # Five folds at lambda = 1e308: the plain mean of the per-fold lambdas overflows.
    entries = {**example_entries(), "estimator.lambda_method": "fixed",
               "estimator.lambda_value": "1e308"}
    del entries["estimator.lambda_c"], entries["estimator.lambda_alpha"]  # unread by fixed
    code, out, err = run_cli(capsys, "estimate", "--data", EXAMPLE_CSV,
                             "--config", write_cfg(tmp_path / "c.cfg", entries))
    assert code == 0 and err == ""
    assert json.loads(out)["lambda_used"]["blp"] == 1e308


@pytest.mark.filterwarnings("error")
def test_estimate_gram_overflow_names_the_data_file(tmp_path, capsys):
    rng = np.random.default_rng(0)
    rows = [f"{y!r},{1e200 * x1!r},{x2!r}" for y, x1, x2 in rng.standard_normal((40, 3)).tolist()]
    data = write(tmp_path / "big.csv", "\n".join(["y,x1,x2", *rows]) + "\n")
    cfg = write(tmp_path / "c.cfg", "\n".join([
        "dictionary.kind = identity",
        "functional.type = average_derivative",
        "functional.direction = 1,0",
        "data.outcome = y",
        "estimator.k_folds = 2",
    ]))
    code, out, err = run_cli(capsys, "estimate", "--data", data, "--config", cfg)
    assert code == 2 and out == ""
    assert data in error_line(err)["error"]


_STANDARDIZED_CFG = "\n".join([
    "dictionary.kind = identity",
    "functional.type = average_derivative",
    "functional.direction = 1,0",
    "data.outcome = y",
    "data.standardize = true",
])


@pytest.mark.filterwarnings("error")
def test_estimate_standardizes_a_column_whose_squares_overflow(tmp_path, capsys):
    # x1 near 1e200: its squares overflow, so a plain std is inf and x1 would turn to 0
    draws = np.random.default_rng(0).standard_normal((60, 3)).tolist()
    cfg = write(tmp_path / "c.cfg", _STANDARDIZED_CFG)
    outs = []
    for name, scale in (("big.csv", 1e200), ("scaled.csv", 1e200 / 2.0 ** 600)):
        rows = [f"{y!r},{scale * x1!r},{x2!r}" for y, x1, x2 in draws]
        data = write(tmp_path / name, "\n".join(["y,x1,x2", *rows]) + "\n")
        code, out, err = run_cli(capsys, "estimate", "--data", data, "--config", cfg)
        assert code == 0 and err == ""
        outs.append(out)
    # dividing x1 by 2^600 is exact and leaves its standardized values as they were
    assert outs[0] == outs[1]


@pytest.mark.filterwarnings("error")
def test_estimate_standardizes_a_column_near_the_float_maximum(tmp_path, capsys):
    # x1 holds 1.5e308 >= 2^1023, where a power-of-two scale of 2^e would itself be inf
    rows = np.random.default_rng(0).standard_normal((60, 3))
    rows[7, 1] = 1.5e308
    lines = [f"{y!r},{x1!r},{x2!r}" for y, x1, x2 in rows.tolist()]
    data = write(tmp_path / "max.csv", "\n".join(["y,x1,x2", *lines]) + "\n")
    # the derivative runs along x2: x1's other rows standardize to about 5e-308
    cfg = write(tmp_path / "c.cfg", _STANDARDIZED_CFG.replace("= 1,0", "= 0,1"))
    code, out, err = run_cli(capsys, "estimate", "--data", data, "--config", cfg)
    assert code == 0 and err == ""
    x1 = rows[:, 1]
    sd = np.std(x1 / 2.0 ** 1023, ddof=1) * 2.0 ** 1023
    ds = rieszdml.load_csv(data, outcome="y", standardize=True)
    np.testing.assert_array_equal(ds.covariates[:, 0], x1 / sd)


@pytest.mark.filterwarnings("error")
def test_estimate_standardize_refuses_a_column_whose_sd_overflows(tmp_path, capsys):
    # six rows of +-1.7e308 have a sample sd of about 1.86e308, past the float maximum
    data = write(tmp_path / "d.csv", "y,x1,x2\n" + "\n".join(
        f"{i % 2},{(-1) ** i * 1.7e308!r},{i * 0.2}" for i in range(6)))
    cfg = write(tmp_path / "c.cfg", _STANDARDIZED_CFG + "\nestimator.k_folds = 3")
    code, out, err = run_cli(capsys, "estimate", "--data", data, "--config", cfg)
    assert code == 2 and out == ""
    assert error_line(err)["error"] == (
        f"cannot load data file {data}: cannot standardize covariate column 'x1': "
        "its sample sd passes the float maximum")


def test_estimate_standardize_names_a_constant_column(tmp_path, capsys):
    data = write(tmp_path / "d.csv", "y,x1,x2\n" + "\n".join(
        f"{i % 3},1.5,{i * 0.2}" for i in range(20)))
    cfg = write(tmp_path / "c.cfg", _STANDARDIZED_CFG)
    code, out, err = run_cli(capsys, "estimate", "--data", data, "--config", cfg)
    assert code == 2 and out == ""
    assert error_line(err)["error"] == (f"cannot load data file {data}: "
                                        "cannot standardize constant covariate column 'x1'")


def test_interacted_inner_dictionary_names_the_inner_key(tmp_path, capsys):
    entries = {**example_entries(), "dictionary.inner.kind": "treatment_interacted"}
    code, out, err = run_cli(capsys, "estimate", "--data", EXAMPLE_CSV,
                             "--config", write_cfg(tmp_path / "c.cfg", entries))
    assert code == 2 and out == ""
    assert error_line(err)["key"] == "dictionary.inner.kind"


@pytest.mark.parametrize("settings_, key", [
    ({"dictionary.kind": "polynomial"}, "dictionary.degree"),
    ({"dictionary.kind": "fourier"}, "dictionary.order"),
    ({"dictionary.kind": "nope"}, "dictionary.kind"),
], ids=["polynomial_without_degree", "fourier_without_order", "unknown_kind"])
def test_dictionary_setting_names_its_key(tmp_path, capsys, settings_, key):
    cfg = write_cfg(tmp_path / "c.cfg", {
        **settings_,
        "functional.type": "average_derivative",
        "functional.direction": "0,1,0,0,0",
        "data.outcome": "y",
    })
    code, out, err = run_cli(capsys, "estimate", "--data", EXAMPLE_CSV, "--config", cfg)
    assert code == 2 and out == ""
    payload = error_line(err)
    assert payload["key"] == key and key in payload["error"]


def test_ragged_transport_matrix_names_its_key(tmp_path, capsys):
    cfg = write(tmp_path / "c.cfg", "\n".join([
        "dictionary.kind = identity",
        "functional.type = policy_shift",
        "functional.transport_s = 1,0;1",
        "data.outcome = y",
    ]))
    code, out, err = run_cli(capsys, "estimate", "--data", EXAMPLE_CSV, "--config", cfg)
    assert code == 2 and out == ""
    assert error_line(err)["key"] == "functional.transport_s"


# -- input errors: each is exit 2 with one JSON line, keyed where a key is to blame

@pytest.mark.parametrize("text, message, key", [
    ("data.outcome = y\nseed 7\n", ":2: expected 'key = value'", None),
    ("seed = 1\ndata.outcome = y\nseed = 2\n", ":3: duplicate config key 'seed'", "seed"),
], ids=["line_without_equals", "duplicate_key"])
def test_malformed_config_line_is_config_error(tmp_path, capsys, text, message, key):
    cfg = write(tmp_path / "c.cfg", text)
    code, out, err = run_cli(capsys, "estimate", "--data", EXAMPLE_CSV, "--config", cfg)
    assert code == 2 and out == ""
    payload = error_line(err)
    assert payload["error"].startswith(cfg + message), payload
    assert payload.get("key") == key


def test_unreadable_config_path_is_config_error(tmp_path, capsys):
    missing = str(tmp_path / "missing.cfg")
    code, out, err = run_cli(capsys, "estimate", "--data", EXAMPLE_CSV, "--config", missing)
    assert code == 2 and out == ""
    payload = error_line(err)
    assert payload["error"].startswith(f"cannot read config file {missing}") and "key" not in payload


@pytest.mark.parametrize("text, message", [
    ("", "empty CSV file"),
    ("y,x1,x2\n", "no data rows"),
    ("y,x1,x2\n1,2,3\n4,5\n", ":3: expected 3 cells, got 2"),
    ("y,x,y\n1,2,3\n4,5,6\n", "column 'y' is named more than once"),
    ("y,x,x\n1,0,1\n4,1,0\n", "column 'x' is named more than once"),
], ids=["empty", "header_only", "ragged_row", "repeated_outcome", "repeated_covariate"])
def test_malformed_data_file_is_config_error(tmp_path, capsys, text, message):
    cfg = write(tmp_path / "c.cfg", "\n".join([
        "dictionary.kind = identity",
        "functional.type = average_derivative",
        "functional.direction = 1,0",
        "data.outcome = y",
    ]))
    data = write(tmp_path / "d.csv", text)
    code, out, err = run_cli(capsys, "estimate", "--data", data, "--config", cfg)
    assert code == 2 and out == ""
    payload = error_line(err)
    assert message in payload["error"] and data in payload["error"] and "key" not in payload


def test_blank_data_lines_are_skipped(tmp_path, capsys):
    header, *rows = pathlib.Path(EXAMPLE_CSV).read_text().splitlines()
    gappy = write(tmp_path / "gappy.csv", "\n".join([header, "", *rows[:150], "  ", *rows[150:], ""]))
    outs = [run_cli(capsys, "estimate", "--data", path, "--config", EXAMPLE_CFG)
            for path in (EXAMPLE_CSV, gappy)]
    assert outs[0][0] == 0 and outs[0] == outs[1]


@pytest.mark.parametrize("command", ["estimate", "rmd-solve"])
def test_input_files_saved_with_a_byte_order_mark_read_as_without(tmp_path, capsys, command):
    # Excel's "CSV UTF-8" starts the file with a UTF-8 BOM
    files = ({"--data": EXAMPLE_CSV, "--config": EXAMPLE_CFG} if command == "estimate" else
             {"--g-matrix": write(tmp_path / "G.txt", "1 0.5\n0.5 1\n"),
              "--m-vector": write(tmp_path / "M.txt", "1 0.3\n")})
    runs = []
    for prefix in (b"", codecs.BOM_UTF8):
        argv = [command] if command == "estimate" else [command, "--lambda", "0.1"]
        for flag, path in files.items():
            copy = tmp_path / f"{len(prefix)}_{os.path.basename(path)}"
            copy.write_bytes(prefix + pathlib.Path(path).read_bytes())
            argv += [flag, str(copy)]
        runs.append(run_cli(capsys, *argv))
    assert runs[0][0] == 0 and runs[0][2] == "" and runs[1] == runs[0]


def test_zero_l1_bound_names_its_key(tmp_path, capsys):
    cfg = write_cfg(tmp_path / "c.cfg", {**example_entries(), "estimator.l1_bound": "0"})
    code, out, err = run_cli(capsys, "estimate", "--data", EXAMPLE_CSV, "--config", cfg)
    assert code == 2 and out == ""
    payload = error_line(err)
    assert payload["key"] == "estimator.l1_bound" and "positive" in payload["error"]


def test_estimate_ate_without_treatment_names_data_treatment(tmp_path, capsys):
    entries = example_entries()
    del entries["data.treatment"]
    code, out, err = run_cli(capsys, "estimate", "--data", EXAMPLE_CSV,
                             "--config", write_cfg(tmp_path / "c.cfg", entries))
    assert code == 2 and out == ""
    assert error_line(err)["key"] == "data.treatment"


@pytest.mark.parametrize("command", ["estimate", "simulate"])
@pytest.mark.parametrize("settings_, key", [
    ({"estimator.lambda_c": "-1"}, "estimator.lambda_c"),
    ({"estimator.lambda_c": "nan"}, "estimator.lambda_c"),
    ({"estimator.lambda_alpha": "1.5"}, "estimator.lambda_alpha"),
    ({"estimator.lambda_alpha": "0"}, "estimator.lambda_alpha"),
    ({"estimator.lambda_method": "fixed", "estimator.lambda_value": "-0.1"},
     "estimator.lambda_value"),
    ({"estimator.lambda_method": "fixed", "estimator.lambda_value": "inf"},
     "estimator.lambda_value"),
    ({"estimator.riesz_lambda_c": "-0.5"}, "estimator.riesz_lambda_c"),
    ({"estimator.riesz_lambda_alpha": "1"}, "estimator.riesz_lambda_alpha"),
    ({"estimator.riesz_lambda_method": "fixed", "estimator.riesz_lambda_value": "-1"},
     "estimator.riesz_lambda_value"),
    # in range on their own, but 1 - alpha / (2p) rounds to 1 or c * quantile overflows
    ({"estimator.lambda_alpha": "1e-300"}, "estimator.lambda_alpha"),
    ({"estimator.riesz_lambda_c": "1e308"}, "estimator.riesz_lambda_c"),
], ids=["c_negative", "c_nan", "alpha_above_1", "alpha_zero", "value_negative",
        "value_inf", "riesz_c_negative", "riesz_alpha_one", "riesz_value_negative",
        "alpha_rounds_to_one", "riesz_c_overflows"])
def test_bad_lambda_setting_is_config_error(tmp_path, capsys, command, settings_, key):
    if command == "estimate":
        cfg = write_cfg(tmp_path / "c.cfg", {**example_entries(), **settings_})
        argv = ["estimate", "--data", EXAMPLE_CSV, "--config", cfg]
    else:
        extra = "\n".join(f"{k} = {v}" for k, v in settings_.items())
        argv = ["simulate", "--config", simulate_cfg(tmp_path, extra)]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    payload = error_line(err)
    assert payload["key"] == key and key in payload["error"]


# The estimate sweep: mutate the estimator.* keys of the bundled example and
# require either strict JSON on stdout (exit 0) or exactly one JSON error line
# on stderr (exit 2, 3 or 4), naming its key when the exit is 2.  Each key
# lists in-range, out-of-range and badly typed values.
_ESTIMATOR_VALUES = {
    "estimator.k_folds": ["2", "3", "10", "150", "151", "0", "1", "-3", "five", "2.5", "", "1e3"],
    "estimator.alpha": ["0.1", "0.5", "0", "1", "-0.2", "2", "1e-300", "nan", "inf", "x",
                        "0.1,0.2"],
    "estimator.lambda_method": ["fixed", "gaussian_quantile", "dantzig", "1"],
    "estimator.lambda_c": ["0", "0.5", "3", "1e6", "1e308", "-1", "nan", "inf", "-inf", "c"],
    "estimator.lambda_alpha": ["1e-12", "1e-300", "0.5", "0", "1", "-0.1", "nan", "a"],
    "estimator.lambda_value": ["0", "0.05", "1e6", "1e308", "-0.1", "nan", "inf", "v"],
    "estimator.riesz_lambda_method": ["fixed", "gaussian_quantile", "lasso", ""],
    "estimator.riesz_lambda_c": ["0", "2", "1e308", "-1", "inf", "c"],
    "estimator.riesz_lambda_alpha": ["0.2", "1e-300", "0", "1", "nan", "a"],
    "estimator.riesz_lambda_value": ["0", "0.1", "-1", "nan", "v"],
    "estimator.l1_bound": ["1e-9", "0.5", "1e6", "inf", "0", "-1", "nan", "big"],
    "estimator.plugin_only": ["true", "false", "yes", "0", "maybe", "2"],
}
_FLOAT_KEYS = sorted(k for k in _ESTIMATOR_VALUES
                     if k not in ("estimator.k_folds", "estimator.plugin_only")
                     and not k.endswith("_method"))
_FLIPPED = {"true": "false", "false": "true", "yes": "no", "no": "yes", "1": "0", "0": "1"}


def _estimate_applied(entries):
    """The estimator.* keys that the example applies, given its lambda rules."""
    keys = ["estimator.alpha", "estimator.k_folds", "estimator.l1_bound",
            "estimator.lambda_method", "estimator.plugin_only", "estimator.riesz_lambda_method"]
    for prefix in ("estimator.lambda", "estimator.riesz_lambda"):
        if entries.get(f"{prefix}_method") == "fixed":
            keys.append(f"{prefix}_value")
        else:
            keys += [f"{prefix}_c", f"{prefix}_alpha"]
    return keys


@st.composite
def _mutated(draw, base, values, float_keys, applied, ops=("drop", "set", "set")):
    """``base`` after 1 to 4 mutations: drop a key, flip plugin_only, or set a key.

    Three in four sets pick a key that the config, as mutated so far, applies,
    so that an example stops at a bad value rather than at an unapplied key;
    the rest pick any swept key, which keeps the "not used" exit 2 in the sweep.
    """
    entries = dict(base)
    for _ in range(draw(st.integers(1, 4))):
        op = draw(st.sampled_from(ops))
        if op == "drop":
            entries.pop(draw(st.sampled_from(sorted(values))), None)
        elif op == "flip":
            key = "estimator.plugin_only"
            entries[key] = _FLIPPED.get(entries.get(key, "false").lower(), "true")
        else:
            pool = sorted(values) if draw(st.integers(0, 3)) == 0 else applied(entries)
            key = draw(st.sampled_from(pool))
            if key in float_keys and draw(st.booleans()):
                entries[key] = repr(draw(st.floats()))
            else:
                entries[key] = draw(st.sampled_from(values[key]))
    return entries


@settings(max_examples=200, deadline=None)
@given(entries=_mutated(example_entries(), _ESTIMATOR_VALUES, _FLOAT_KEYS, _estimate_applied,
                       ops=("drop", "flip", "set", "set")))
def test_estimate_config_sweep_keeps_the_output_contract(entries):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        cfg = write_cfg(pathlib.Path(tmp) / "c.cfg", entries)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(["estimate", "--data", EXAMPLE_CSV, "--config", cfg])
    if code == 0:
        assert isinstance(json.loads(out.getvalue(), parse_constant=_reject_constant), dict)
        return
    assert code in (2, 3, 4) and out.getvalue() == ""
    payload = error_line(err.getvalue())
    assert (code != 2) or payload["key"] in payload["error"], payload


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
    assert pathlib.Path(json_out).read_text() == out
    lines = pathlib.Path(csv_out).read_text().strip().split("\n")
    assert len(lines) == 4  # header + 3 reps
    assert lines[0].startswith("rep,status,theta_hat")


@pytest.mark.filterwarnings("error")
def test_simulate_oracle_target_near_1e160_keeps_the_output_contract(tmp_path, capsys):
    # theta* = beta'c = 1e159, whose square is past the float maximum, is reported finite
    cfg = write(tmp_path / "c.cfg", "\n".join([
        "simulation.dgp = sparse_linear", "simulation.n = 40", "simulation.replications = 2",
        "simulation.d = 2", "simulation.beta_star = 1e160,0", "dictionary.kind = identity",
        "functional.type = policy_shift", "functional.transport_c = 0.1,0",
        "simulation.workers = 1",
    ]))
    code, out, err = run_cli(capsys, "simulate", "--config", cfg)
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["theta_star_method"] == "analytic"
    assert np.isfinite(payload["theta_star"]) and np.isfinite(payload["theta_star_se"])


@pytest.mark.filterwarnings("error")
def test_simulate_oracle_target_near_the_float_maximum_is_reported(tmp_path, capsys):
    # theta* = beta'c = 1e308 >= 2^1023
    cfg = write(tmp_path / "c.cfg", "\n".join([
        "simulation.dgp = sparse_linear", "simulation.n = 40", "simulation.replications = 2",
        "simulation.d = 2", "simulation.beta_star = 1e308,0", "dictionary.kind = identity",
        "functional.type = policy_shift", "functional.transport_c = 1,0",
        "simulation.workers = 1",
    ]))
    code, out, err = run_cli(capsys, "simulate", "--config", cfg)
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["theta_star_method"] == "analytic"
    assert payload["theta_star"] == pytest.approx(1e308, rel=1e-12)


# S x squares past the float maximum, so E b(S X) is not finite
_SHIFT_OVERFLOW_CFG = "\n".join([
    "simulation.dgp = sparse_linear", "simulation.n = 40", "simulation.replications = 2",
    "simulation.d = 2", "simulation.beta_star = 0,1,0,0,0", "dictionary.kind = polynomial",
    "dictionary.degree = 2", "functional.type = policy_shift",
    "functional.transport_s = 1e200,0;0,1", "simulation.workers = 1",
])


@pytest.mark.filterwarnings("error")
def test_simulate_oracle_target_that_overflows_names_functional_type(tmp_path, monkeypatch,
                                                                      capsys):
    from rieszdml import simulation

    monkeypatch.setattr(simulation, "_replicate", None)  # the study stops before any replication
    cfg = write(tmp_path / "c.cfg", _SHIFT_OVERFLOW_CFG)
    code, out, err = run_cli(capsys, "simulate", "--config", cfg)
    assert code == 2 and out == ""
    payload = error_line(err)
    assert payload["key"] == "functional.type" and "not finite" in payload["error"], payload


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("beta_star, target", [("0,1,0,0,0", "nan"), ("0,0,0,1,0", "inf")],
                         ids=["zero_times_an_inf_square_is_nan", "an_inf_square_is_inf"])
def test_simulate_overflowing_target_is_refused_without_a_draw(tmp_path, monkeypatch, capsys,
                                                               beta_star, target):
    from rieszdml import simulation

    def draw_x(*args):
        raise AssertionError("the target of a study draws no covariates")

    monkeypatch.setattr(simulation, "_draw_x", draw_x)
    monkeypatch.setattr(simulation, "_replicate", None)  # the study stops before any replication
    cfg = write(tmp_path / "c.cfg", _SHIFT_OVERFLOW_CFG.replace("0,1,0,0,0", beta_star))
    code, out, err = run_cli(capsys, "simulate", "--config", cfg)
    assert code == 2 and out == ""
    assert error_line(err) == {"key": "functional.type", "error": (
        "functional.type: the target E m(X, gamma*) is not finite in floating point: "
        f"{target}")}


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


_NO_REPORT = dict.fromkeys(f.name for f in dataclasses.fields(MonteCarloReport))


@settings(deadline=None)
@given(x=st.floats())
def test_every_float_reads_back_to_its_own_bits(x):
    # JSON: a float, wrapped any way the CLI meets one, reads back as a float with
    # the same bits, and a NaN or infinity as null
    want = x.hex() if np.isfinite(x) else None
    for wrapped in (x, np.float64(x), np.array([x]), (x,), {"x": x}):
        got = json.loads(jsonio.dumps(wrapped), parse_constant=_reject_constant)
        while isinstance(got, (list, dict)):
            (got,) = got.values() if isinstance(got, dict) else got
        assert (got.hex() if type(got) is float else got) == want, (wrapped, got)
    # CSV: every cell reads back to the same bits with float()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "reps.csv")
        MonteCarloReport(**{**_NO_REPORT, "per_rep": [{"a": x, "b": np.float64(x)}]}
                         ).write_csv(path)
        with open(path, newline="") as fh:
            header, row = csv.reader(fh)
    assert header == ["a", "b"] and [float(cell).hex() for cell in row] == [x.hex()] * 2, row


@pytest.mark.parametrize("command, keys", [
    ("simulate", ["theta_star", "theta_star_se", "bias", "rmse", "coverage", "mean_ci_length",
                  "mean_sigma"]),
    ("rmd-solve", ["l1_norm", "max_residual", "gap", "lambda", "l1_bound"]),
], ids=["simulate", "rmd-solve"])
def test_float_fields_read_back_as_floats_when_they_are_whole(tmp_path, capsys, command, keys):
    # theta* = 1 with se 0, and an l1 budget of 50 around t = 0
    argv = (["simulate", "--config", simulate_cfg(tmp_path)] if command == "simulate" else
            ["rmd-solve", "--g-matrix", write(tmp_path / "G.txt", "1 0\n0 1\n"), "--m-vector",
             write(tmp_path / "M.txt", "0.25 -0.1\n"), "--lambda", "0.5", "--l1-bound", "50"])
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    payload = json.loads(out)
    assert {k: type(payload[k]) for k in keys} == dict.fromkeys(keys, float), payload
    assert all(type(t) is float for t in payload.get("t_hat", []))


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


@pytest.mark.parametrize("key, value", [("replications", "0"), ("workers", "0"),
                                        ("workers", "-1")],
                         ids=["replications=0", "workers=0", "workers=-1"])
def test_simulate_rejects_zero_replications(tmp_path, capsys, key, value):
    cfg = tmp_path / "sim.cfg"
    simulate_cfg(tmp_path)
    line = {"replications": "simulation.replications = 3\n", "workers": "simulation.workers = 1\n"}
    cfg.write_text(cfg.read_text().replace(line[key], f"simulation.{key} = {value}\n"))
    code, out, err = run_cli(capsys, "simulate", "--config", str(cfg))
    assert code == 2 and out == ""
    assert error_line(err)["key"] == f"simulation.{key}"


def test_simulate_rejects_n_below_2k(tmp_path, capsys):
    cfg = tmp_path / "sim.cfg"
    simulate_cfg(tmp_path, extra="estimator.k_folds = 5")
    cfg.write_text(cfg.read_text().replace("estimator.k_folds = 2\n", "")
                   .replace("simulation.n = 80", "simulation.n = 7"))
    code, out, err = run_cli(capsys, "simulate", "--config", str(cfg))
    assert code == 2 and out == ""
    payload = error_line(err)
    assert payload["key"] == "simulation.n" and "K = 5" in payload["error"]
    assert "simulation.n" in payload["error"]


# A small sparse_linear study: the base of the seed and DGP checks and the
# simulate sweep.
_STUDY = {
    "simulation.dgp": "sparse_linear",
    "simulation.n": "40",
    "simulation.replications": "2",
    "simulation.d": "4",
    "simulation.noise_sd": "0.5",
    "simulation.beta_star": "0,1,0.5,0,0",
    "dictionary.kind": "polynomial",
    "dictionary.degree": "1",
    "functional.type": "average_derivative",
    "functional.direction": "1,0,0,0",
    "estimator.k_folds": "2",
    "simulation.workers": "1",
    "seed": "5",
}
_ATE = {"simulation.dgp": "ate_logistic", "simulation.d_z": "2", "simulation.tau": "1",
        "simulation.outcome_coefs": "1,0", "simulation.propensity_coefs": "0.5,0"}


_DENSE = {"simulation.dgp": "dense_decay", "simulation.n": "40", "simulation.replications": "2",
          "simulation.d": "3", "simulation.decay": "1", "functional.type": "average_derivative",
          "functional.direction": "1,0,0", "estimator.k_folds": "2", "simulation.workers": "1",
          "seed": "5"}
_ATE_STUDY = {**_ATE, "simulation.n": "40", "simulation.replications": "2",
              "dictionary.kind": "treatment_interacted", "dictionary.inner.kind": "polynomial",
              "dictionary.inner.degree": "1", "estimator.k_folds": "2",
              "simulation.workers": "1", "seed": "5"}


@pytest.mark.parametrize("command, base, extra, key", [
    # a dense_decay study builds its own degree-2 polynomial design with normal X
    ("simulate", _DENSE, {"dictionary.kind": "fourier", "simulation.x_dist": "uniform"},
     "dictionary.kind"),
    # an ate_logistic study always estimates the ATE
    ("simulate", _ATE_STUDY, {"functional.type": "average_derivative"}, "functional.type"),
    ("simulate", _STUDY, {"data.outcome": "y"}, "data.outcome"),
    ("estimate", None, {"simulation.n": "40"}, "simulation.n"),
    # a fixed lambda rule reads only lambda_value, so the example's lambda_c goes unread
    ("estimate", None, {"estimator.lambda_method": "fixed", "estimator.lambda_value": "0.1"},
     "estimator.lambda_c"),
], ids=["dense_decay_dictionary", "ate_logistic_functional", "simulate_data_key",
        "estimate_simulation_key", "fixed_rule_lambda_c"])
def test_key_the_command_never_applies_is_config_error(tmp_path, capsys, command, base, extra,
                                                       key):
    if base is None:
        base = example_entries()
    argv = ["--data", EXAMPLE_CSV] if command == "estimate" else []
    code, out, _ = run_cli(capsys, command, *argv, "--config", write_cfg(tmp_path / "a.cfg", base))
    assert code == 0 and json.loads(out)["config"] == base  # every key of the base is applied

    entries = {**base, **extra}
    cfg = write_cfg(tmp_path / "c.cfg", entries)
    code, out, err = run_cli(capsys, command, *argv, "--config", cfg)
    assert code == 2 and out == ""
    payload = error_line(err)
    lineno = list(entries).index(key) + 1
    assert payload == {"error": f"{cfg}:{lineno}: config key {key!r} is not used by {command}",
                       "key": key}


class _Started(Exception):
    pass


@pytest.mark.parametrize("path", sorted(pathlib.Path(PKG, "configs").glob("**/*.cfg")),
                         ids=lambda p: p.stem)
def test_bundled_config_is_fully_read(monkeypatch, path):
    # the estimator stubs are reached only after every key was found applied
    def start(*args, **kwargs):
        raise _Started

    monkeypatch.setattr(cli, "dml_estimate", start)
    monkeypatch.setattr("rieszdml.simulation.run_monte_carlo", start)
    argv = ["estimate", "--data", EXAMPLE_CSV] if path.parent.name == "examples" else ["simulate"]
    with pytest.raises(_Started):
        run([*argv, "--config", str(path)])


# only the keys each DGP requires; every other parameter is left to the library
_REQUIRED = {
    "sparse_linear": {"simulation.dgp": "sparse_linear", "simulation.d": "2",
                      "simulation.beta_star": "0,1,0,0,0", "dictionary.kind": "polynomial",
                      "dictionary.degree": "2"},
    "dense_decay": {"simulation.dgp": "dense_decay", "simulation.d": "2", "simulation.decay": "1"},
    "ate_logistic": _ATE,
}


@pytest.mark.parametrize("kind", sorted(_REQUIRED))
def test_unset_keys_build_the_library_defaults(tmp_path, kind):
    from rieszdml import simulation
    from rieszdml.dml import EstimatorConfig
    from rieszdml.rmd import LambdaRule

    def fields(obj):
        out = dict(vars(obj))
        if "dictionary" in out:
            out["dictionary"] = vars(out["dictionary"])
        return out

    cfg = cli.Config.load(write_cfg(tmp_path / "c.cfg", _REQUIRED[kind]))
    default = {
        "sparse_linear": lambda: simulation.SparseLinearDgp(rieszdml.PolynomialDictionary(2, 2),
                                                            [0, 1, 0, 0, 0]),
        "dense_decay": lambda: simulation.dense_decay_dgp(2, 1.0),
        "ate_logistic": lambda: simulation.AteLogisticDgp(2, [1, 0], 1.0, [0.5, 0]),
    }[kind]()
    np.testing.assert_equal(fields(cli.build_dgp(cfg)), fields(default))

    dic, f = rieszdml.IdentityDictionary(2), rieszdml.AverageDerivative(np.array([1.0, 0.0]))
    assert vars(cli.build_estimator(cfg, dic, f)) == vars(EstimatorConfig(dic, f))
    cfg.entries["estimator.lambda_method"] = "gaussian_quantile"  # a rule with its method alone
    assert cli.build_lambda_rule(cfg) == LambdaRule()


@pytest.mark.parametrize("d, beta_star, direction, extra", [
    ("1", "0,0.5,0.8", "1", {}),
    ("2", "0,0.5,0.8,0.1,0.2", "1,0", {}),
    ("2", "0,0.5,0.8,0.1,0.2", "1,0", {"simulation.n": "200", "simulation.replications": "4",
                                       "simulation.noise_sd": "1", "estimator.k_folds": "5",
                                       "seed": "3"}),
], ids=["d1", "d2", "d2_n200_k5"])
def test_simulate_fourier_average_derivative_is_closed_form(tmp_path, capsys, d, beta_star,
                                                            direction, extra):
    # b(x) = (1, cos(pi x_1), sin(pi x_1), ...) over N(0, I): E[d/dx_1 sin(pi X_1)] =
    # pi e^{-pi^2 / 2}, and every other column's mean derivative along e_1 is 0
    entries = {**_STUDY, "simulation.d": d, "simulation.beta_star": beta_star,
               "dictionary.kind": "fourier", "dictionary.order": "1",
               "functional.direction": direction, **extra}
    del entries["dictionary.degree"]
    cfg = write_cfg(tmp_path / "sim.cfg", entries)
    code, out, err = run_cli(capsys, "simulate", "--config", cfg)
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["theta_star_method"] == "analytic"
    assert payload["theta_star"] == pytest.approx(np.pi * 0.8 * np.exp(-np.pi ** 2 / 2),
                                                  rel=0, abs=1e-10)


def test_ate_study_without_interacted_dictionary_names_dictionary_kind(tmp_path, capsys):
    entries = {**_ATE_STUDY, "dictionary.kind": "polynomial", "dictionary.degree": "1"}
    del entries["dictionary.inner.kind"], entries["dictionary.inner.degree"]
    code, out, err = run_cli(capsys, "simulate", "--config", write_cfg(tmp_path / "c.cfg", entries))
    assert code == 2 and out == ""
    payload = error_line(err)
    assert payload["key"] == "dictionary.kind" and "treatment-interacted" in payload["error"]


@pytest.mark.parametrize("base", [_STUDY, _DENSE], ids=["sparse_linear", "dense_decay"])
def test_simulate_ate_outside_the_ate_study_names_functional_type(tmp_path, capsys, base):
    # simulate applies no data.* key, so the error cannot name data.treatment
    entries = {**base, "functional.type": "ate"}
    del entries["functional.direction"]
    code, out, err = run_cli(capsys, "simulate", "--config", write_cfg(tmp_path / "c.cfg", entries))
    assert code == 2 and out == ""
    payload = error_line(err)
    assert payload["key"] == "functional.type"
    assert "simulation.dgp = ate_logistic" in payload["error"]


# gamma(x) = x^2 on d = 1: the shift x -> 0.9 x + 0.3 has
# E[(0.9 X + 0.3)^2 - X^2] = 0.81 + 0.09 - 1 = -0.1 under N(0, 1)
_SHIFT_STUDY = {**_STUDY, "simulation.d": "1", "simulation.beta_star": "0,0,1",
                "dictionary.degree": "2", "functional.type": "policy_shift"}
del _SHIFT_STUDY["functional.direction"]


@pytest.mark.parametrize("transport, value, method", [
    ({"functional.transport_s": "0.9", "functional.transport_c": "0.3"}, -0.1, "analytic"),
    ({}, 0.0, "analytic"),
], ids=["explicit", "identity_default"])
def test_simulate_policy_shift_from_config(tmp_path, capsys, transport, value, method):
    entries = {**_SHIFT_STUDY, **transport}
    code, out, err = run_cli(capsys, "simulate", "--config", write_cfg(tmp_path / "c.cfg", entries))
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["theta_star_method"] == method and payload["failures"] == 0
    assert payload["theta_star"] == pytest.approx(value, rel=0, abs=1e-10)
    assert payload["config"] == entries


def test_simulate_uniform_polynomial_average_derivative(tmp_path, capsys):
    # gamma(x) = x_1^3 over U[-1, 1]^2: E[3 X_1^2] = 1 (3 under N(0, I))
    entries = {**_STUDY, "simulation.d": "2", "simulation.x_dist": "uniform",
               "simulation.beta_star": "0,0,0,0,0,1,0", "dictionary.degree": "3",
               "functional.direction": "1,0"}
    code, out, err = run_cli(capsys, "simulate", "--config", write_cfg(tmp_path / "c.cfg", entries))
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["theta_star_method"] == "analytic" and payload["theta_star"] == 1.0
    assert payload["failures"] == 0 and np.isfinite(payload["bias"])


@pytest.mark.parametrize("command", ["estimate", "simulate"])
def test_negative_seed_is_config_error(tmp_path, capsys, command):
    if command == "estimate":
        cfg = write_cfg(tmp_path / "c.cfg", {**example_entries(), "seed": "-1"})
        argv = ["estimate", "--data", EXAMPLE_CSV, "--config", cfg]
    else:
        argv = ["simulate", "--config", write_cfg(tmp_path / "sim.cfg", {**_STUDY, "seed": "-1"})]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    payload = error_line(err)
    assert payload["key"] == "seed" and "seed" in payload["error"]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("settings_, param", [
    ({"simulation.noise_sd": "nan"}, "noise_sd"),
    ({"simulation.noise_sd": "inf"}, "noise_sd"),
    ({"simulation.beta_star": "0,nan,0.5,0,0"}, "beta_star"),
    ({"simulation.dgp": "dense_decay", "simulation.decay": "nan"}, "decay"),
    ({"simulation.dgp": "dense_decay", "simulation.decay": "-400"}, "decay"),
    ({"simulation.dgp": "dense_decay", "simulation.decay": "1", "simulation.scale": "inf"},
     "scale"),
    ({**_ATE, "simulation.tau": "nan"}, "tau"),
    ({**_ATE, "simulation.propensity_coefs": "inf,0"}, "propensity_coefs"),
], ids=["noise_sd_nan", "noise_sd_inf", "beta_star_nan", "decay_nan", "decay_overflows",
        "scale_inf", "tau_nan", "propensity_coefs_inf"])
def test_non_finite_dgp_parameter_is_config_error(tmp_path, capsys, settings_, param):
    cfg = write_cfg(tmp_path / "sim.cfg", {**_STUDY, **settings_})
    code, out, err = run_cli(capsys, "simulate", "--config", cfg)
    assert code == 2 and out == ""
    payload = error_line(err)
    assert payload["key"] == f"simulation.{param}" and param in payload["error"], payload


_POLICY_STUDY = {**_STUDY, "functional.type": "policy_shift"}
del _POLICY_STUDY["functional.direction"]


# Each parameter fault is reported under the key that set the parameter, and the
# message names that key: (base, changed entries, dropped keys, key).
@pytest.mark.parametrize("base, changes, drop, key", [
    (_STUDY, {"simulation.d": "0"}, (), "simulation.d"),
    (_STUDY, {"dictionary.degree": "-1"}, (), "dictionary.degree"),
    (_STUDY, {"dictionary.with_interactions": "true"}, (), "dictionary.with_interactions"),
    (_STUDY, {"dictionary.kind": "fourier", "dictionary.order": "0"}, ("dictionary.degree",),
     "dictionary.order"),
    (_STUDY, {"simulation.noise_sd": "-1"}, (), "simulation.noise_sd"),
    (_STUDY, {"simulation.beta_star": "0,1"}, (), "simulation.beta_star"),
    (_STUDY, {"functional.direction": "0,0,0,0"}, (), "functional.direction"),
    (_STUDY, {"functional.direction": "nan,0,0,0"}, (), "functional.direction"),
    (_POLICY_STUDY, {"functional.transport_c": "nan,0,0,0"}, (), "functional.transport_c"),
    (_POLICY_STUDY, {"functional.transport_c": "0,0"}, (), "functional.transport_c"),
    (_POLICY_STUDY, {"functional.transport_s": "1,0,0,0"}, (), "functional.transport_s"),
    (_POLICY_STUDY, {"functional.transport_s": "inf"}, (), "functional.transport_s"),
    # E b(S X + c) - E b(X) has no closed form on (b(z), t b(z))
    (_POLICY_STUDY, {"dictionary.kind": "treatment_interacted",
                     "dictionary.inner.kind": "polynomial", "dictionary.inner.degree": "1",
                     "simulation.beta_star": "0,1,0,0,0,0,0,0"},
     ("dictionary.degree",), "functional.type"),
    (_DENSE, {"simulation.d": "0"}, (), "simulation.d"),
    (_DENSE, {"simulation.decay": "-400"}, (), "simulation.decay"),
    (_DENSE, {"simulation.scale": "inf"}, (), "simulation.scale"),
    (_ATE_STUDY, {"simulation.d_z": "0"}, (), "simulation.d_z"),
    (_ATE_STUDY, {"simulation.outcome_coefs": "1"}, (), "simulation.outcome_coefs"),
    (_ATE_STUDY, {"simulation.propensity_coefs": "1"}, (), "simulation.propensity_coefs"),
    (_ATE_STUDY, {"dictionary.inner.degree": "-2"}, (), "dictionary.inner.degree"),
    (_ATE_STUDY, {"dictionary.kind": "identity"}, ("dictionary.inner.kind",
                                                   "dictionary.inner.degree"), "dictionary.kind"),
    (None, {"dictionary.inner.degree": "-2"}, (), "dictionary.inner.degree"),
    (None, {"dictionary.inner.kind": "fourier", "dictionary.inner.order": "0"},
     ("dictionary.inner.degree",), "dictionary.inner.order"),
    (None, {"data.outcome": "nope"}, (), "data.outcome"),
    (None, {"data.treatment": "nope"}, (), "data.treatment"),
    # in (0, 1), but 1 - alpha / 2 rounds to 1
    (None, {"estimator.alpha": "1e-300"}, (), "estimator.alpha"),
], ids=["d", "degree", "with_interactions", "order", "noise_sd", "beta_star_length",
        "direction_zero", "direction_nan", "transport_c_nan", "transport_c_length",
        "transport_s_not_square", "transport_s_inf", "interacted_policy_shift", "dense_d",
        "decay", "scale", "d_z", "outcome_coefs", "propensity_coefs", "ate_inner_degree",
        "ate_dictionary_kind", "inner_degree", "inner_order", "outcome_column",
        "treatment_column", "alpha_rounds_to_one"])
def test_parameter_fault_names_the_key_that_set_it(tmp_path, capsys, base, changes, drop, key):
    entries = {**(example_entries() if base is None else base), **changes}
    for k in drop:
        del entries[k]
    cfg = write_cfg(tmp_path / "c.cfg", entries)
    argv = ["simulate"] if base is not None else ["estimate", "--data", EXAMPLE_CSV]
    code, out, err = run_cli(capsys, *argv, "--config", cfg)
    assert code == 2 and out == ""
    payload = error_line(err)
    assert payload["key"] == key and key in payload["error"], payload


@pytest.mark.parametrize("header, kind", [("y,d", "treatment_interacted"), ("y", "identity")],
                         ids=["treatment_only", "no_covariate"])
def test_data_too_narrow_for_the_dictionary_names_the_data_file(tmp_path, capsys, header, kind):
    rows = [",".join(["1.5", "0", "1", "0"][:header.count(",") + 1]) for _ in range(20)]
    data = write(tmp_path / "narrow.csv", "\n".join([header, *rows]) + "\n")
    entries = {**example_entries(), "dictionary.kind": kind}
    if kind == "identity":
        del entries["dictionary.inner.kind"], entries["dictionary.inner.degree"]
        del entries["data.treatment"]
    code, out, err = run_cli(capsys, "estimate", "--data", data,
                             "--config", write_cfg(tmp_path / "c.cfg", entries))
    assert code == 2 and out == ""
    payload = error_line(err)
    assert data in payload["error"] and "input_dim" in payload["error"] and "key" not in payload


# The simulate sweep: mutate the simulation.* keys and seed of one of the three
# small studies (sparse_linear, dense_decay, ate_logistic).  Every list is
# bounded, so no example asks for a large n or R.
_SIMULATE_VALUES = {
    "simulation.dgp": ["sparse_linear", "dense_decay", "ate_logistic", "probit", ""],
    "simulation.n": ["40", "4", "3", "0", "-40", "40.0", "n", "1e2"],
    "simulation.replications": ["2", "1", "0", "-2", "two", "2.0"],
    "simulation.workers": ["1", "0", "-1", "2", "w", ""],
    "simulation.noise_sd": ["0.5", "0", "-0.5", "nan", "inf", "-inf", "1e300", "s"],
    "simulation.x_dist": ["normal", "uniform", "cauchy", ""],
    "simulation.beta_star": ["0,1,0.5,0,0", "1,1,1,1,1", "0,1", "nan,0,0,0,0", "0,inf,0,0,0",
                             "0,1e300,0,0,0", "b"],
    "simulation.d": ["4", "2", "1", "0", "-1", "d", "4.5"],
    "simulation.d_z": ["2", "0", "-1", "z"],
    "simulation.tau": ["1", "0", "-2.5", "nan", "inf", "1e300", "t"],
    "simulation.outcome_coefs": ["1,0", "0,0", "nan,0", "1", "o"],
    "simulation.propensity_coefs": ["0.5,0", "50,0", "inf,0", "1", "p"],
    "simulation.decay": ["1", "0", "-1", "-400", "1e308", "nan", "inf", "x"],
    "simulation.scale": ["1", "0", "-2", "1e300", "inf", "nan", "s"],
    "seed": ["0", "5", "4294967296", "18446744073709551616", "-1", "s", "1.5", "1e3"],
}
_SIMULATE_FLOAT_KEYS = ["simulation.decay", "simulation.noise_sd", "simulation.scale",
                        "simulation.tau"]


_DGP_KEYS = {  # the simulation.* keys each DGP reads besides n, R, workers and noise_sd
    "sparse_linear": ["simulation.beta_star", "simulation.d", "simulation.x_dist"],
    "dense_decay": ["simulation.d", "simulation.decay", "simulation.scale"],
    "ate_logistic": ["simulation.d_z", "simulation.outcome_coefs",
                     "simulation.propensity_coefs", "simulation.tau"],
}


def _simulate_applied(entries):
    """The swept keys that a study applies, given its DGP.

    ``simulation.dgp`` is left out: a new DGP leaves most of the study's keys
    unapplied, and the sweep already starts from each DGP's own study.
    """
    return ["seed", "simulation.n", "simulation.noise_sd", "simulation.replications",
            "simulation.workers", *_DGP_KEYS.get(entries.get("simulation.dgp"), [])]


@settings(max_examples=100, deadline=None)
@given(entries=st.sampled_from([_STUDY, _DENSE, _ATE_STUDY]).flatmap(
    lambda base: _mutated(base, _SIMULATE_VALUES, _SIMULATE_FLOAT_KEYS, _simulate_applied)))
def test_simulate_config_sweep_keeps_the_output_contract(entries):
    out, err = io.StringIO(), io.StringIO()
    # a dropped simulation.workers would otherwise start a process pool
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(os, "sched_getaffinity", lambda pid: {0}, create=True), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        cfg = write_cfg(pathlib.Path(tmp) / "c.cfg", entries)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(["simulate", "--config", cfg])
    assert caught == [], [str(w.message) for w in caught]
    if code == 0:
        assert isinstance(json.loads(out.getvalue(), parse_constant=_reject_constant), dict)
        assert err.getvalue() == ""
        return
    assert code in (2, 3, 4) and out.getvalue() == ""
    payload = error_line(err.getvalue())
    assert (code != 2) or payload["key"] in payload["error"], payload


def fresh_python(*args, **env):
    """(exit code, stdout, stderr) of ``python *args`` in a fresh interpreter
    with src/ importable, OPENBLAS_NUM_THREADS unset and ``env`` added."""
    src = os.path.dirname(os.path.dirname(rieszdml.__file__))
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    base["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *args], capture_output=True, env={**base, **env})
    return proc.returncode, proc.stdout, proc.stderr


# Each subcommand once in a fresh interpreter under ``python -W error``: a warning
# at import or start-up, or in a study's pool workers, is out of an in-process
# test's sight.  The study is the bundled plug-in study on its default pool.
@pytest.mark.parametrize("argv", [
    ["estimate", "--data", EXAMPLE_CSV, "--config", EXAMPLE_CFG],
    ["simulate", "--config", os.path.join(PKG, "configs", "experiments", "dense_decay_plugin.cfg")],
    ["rmd-solve", "--g-matrix", "{tmp}/G.txt", "--m-vector", "{tmp}/M.txt", "--lambda", "0.1"],
], ids=["estimate", "simulate", "rmd-solve"])
def test_cli_with_every_warning_an_error_exits_0_with_an_empty_stderr(tmp_path, argv):
    write(tmp_path / "G.txt", "1 0.5\n0.5 1\n")
    write(tmp_path / "M.txt", "1 1\n")
    code, out, err = fresh_python("-W", "error", "-m", "rieszdml.cli",
                                  *(arg.format(tmp=tmp_path) for arg in argv))
    assert (code, err) == (0, b""), err
    assert isinstance(json.loads(out, parse_constant=_reject_constant), dict)


def test_cli_import_leaves_process_pool_unloaded():
    code = "import sys, rieszdml.cli; print('concurrent.futures.process' in sys.modules)"
    assert fresh_python("-c", code) == (0, b"False\n", b"")


def test_cli_import_leaves_simulation_unloaded():
    code = "import sys, rieszdml.cli; print('rieszdml.simulation' in sys.modules)"
    assert fresh_python("-c", code) == (0, b"False\n", b"")


_LAZY_EXPORTS = """
import sys
import rieszdml
assert "numpy" not in sys.modules, "import rieszdml loaded numpy"
star = {}
exec("from rieszdml import *", star)
star.pop("__builtins__")
assert len(rieszdml.__all__) == 34 and sorted(star) == rieszdml.__all__, sorted(star)
for name, value in star.items():
    home = sys.modules[value.__module__]
    assert home.__name__.startswith("rieszdml.") and getattr(home, name) is value, name
    assert getattr(rieszdml, name) is value, name
assert set(rieszdml.__all__) <= set(dir(rieszdml))
try:
    rieszdml.no_such_export
except AttributeError as exc:
    assert "no_such_export" in str(exc)
else:
    raise AssertionError("an unknown name resolved")
print("ok")
"""


def test_package_exports_resolve_lazily_to_their_home_modules():
    assert fresh_python("-c", _LAZY_EXPORTS) == (0, b"ok\n", b"")


_CLI_BLAS_THREADS = "import rieszdml.cli; from rieszdml import lp; print(lp._openblas_thread_calls()[0]())"


@pytest.mark.parametrize("env, threads", [({}, b"1\n"), ({"OPENBLAS_NUM_THREADS": "2"}, b"2\n")],
                         ids=["unset", "set-to-2"])
def test_cli_starts_openblas_on_one_thread_unless_the_count_is_set(env, threads):
    if not isinstance(lp._openblas_thread_calls()[0], ctypes._CFuncPtr):
        pytest.skip("numpy's bundled OpenBLAS or its thread-count symbols not found")
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("OpenBLAS caps its thread count at the cores it may run on")
    assert fresh_python("-c", _CLI_BLAS_THREADS, **env) == (0, threads, b"")


def test_cli_import_after_numpy_leaves_the_environment_alone():
    code = "import os, numpy, rieszdml.cli; print('OPENBLAS_NUM_THREADS' in os.environ)"
    assert fresh_python("-c", code) == (0, b"False\n", b"")


def stdout_at_blas_threads(threads, *argv):
    code, out, err = fresh_python("-m", "rieszdml.cli", *argv, OPENBLAS_NUM_THREADS=threads)
    assert (code, err) == (0, b""), err
    return out


def test_estimate_stdout_does_not_depend_on_blas_threads():
    argv = ("estimate", "--data", EXAMPLE_CSV, "--config", EXAMPLE_CFG)
    one = stdout_at_blas_threads("1", *argv)
    for threads in ("2", "4"):
        assert stdout_at_blas_threads(threads, *argv) == one, threads


def test_rmd_solve_stdout_does_not_depend_on_blas_threads(tmp_path):
    # At p = 120 OpenBLAS threads the simplex's matrix-vector products (from
    # m n = 9216) and the LU of the refactorization after 64 pivots (from p = 100)
    rng = np.random.default_rng(5)
    A = rng.standard_normal((200, 120))
    y = A[:, :4] @ np.array([1.0, -0.5, 0.5, 0.25]) + rng.standard_normal(200)
    np.savetxt(tmp_path / "G.txt", A.T @ A / 200, fmt="%.17g")
    np.savetxt(tmp_path / "M.txt", A.T @ y / 200, fmt="%.17g")
    argv = ("rmd-solve", "--g-matrix", str(tmp_path / "G.txt"),
            "--m-vector", str(tmp_path / "M.txt"), "--lambda", "0.05")
    one = stdout_at_blas_threads("1", *argv)
    solution = json.loads(one)
    assert solution["status"] == "optimal" and solution["iterations"] > 64, solution
    assert one == stdout_at_blas_threads("2", *argv)
