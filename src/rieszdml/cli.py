"""Command-line interface: estimate | simulate | rmd-solve.

Configuration lives in a flat key-value file::

    # comments run to end of line
    dictionary.kind = identity
    functional.type = average_derivative
    functional.direction = 1, 0, 0
    estimator.k_folds = 5
    seed = 7

Values are scalars, comma-separated vectors, or semicolon-separated matrix
rows.  A key that the command does not apply is rejected (say a
``dictionary.*`` key in a ``dense_decay`` study, or ``lambda_c`` with a
``fixed`` lambda rule), so the ``config`` echoed in the JSON output holds
only applied keys.  Exit codes: 0 success, 2 configuration or usage error
(the message names the offending key or flag, such as a missing ``--data``),
3 RMD infeasibility, 4 solver failure (the simplex hit its iteration limit or
numerical trouble, or its optimum failed the feasibility or duality-gap
certificate).  Errors, usage errors included, are printed as single-line
JSON on stderr; ``--help`` prints usage on stdout and exits 0.  The result
goes to stdout first, then to the ``--output`` and ``--csv`` files, so a
file that cannot be written fails the run (exit 2) after stdout was
written.  Non-finite numbers are written as null.

The library checks each setting once (a constructor its arguments, ``dml.EstimatorConfig``,
``make_fold_plan``, ``run_monte_carlo``) and raises a ``SettingError`` whose ``field`` names it.
A builder passes a parameter only when its key is set, so an unset key gets the library's default.
A builder reports a parameter under the key it read for it, ``run`` maps a setting to its key,
and an error's message names its key; this module checks only types, choices and unread keys.
``rmd-solve`` reports a fault that ``rmd.check_problem`` finds under the flag that set it.

A process whose first numpy import comes from this module (``python -m
rieszdml.cli``, the ``rieszdml`` script) starts numpy's OpenBLAS on one
thread unless ``OPENBLAS_NUM_THREADS`` is already set: on the default count
a worker thread spins through start-up, which costs CPU and saves no time.
A process that imported numpy before this module keeps its threads and its
environment.
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings
from contextlib import contextmanager
from dataclasses import asdict

if "numpy" not in sys.modules:  # OpenBLAS reads the count once, when numpy loads it
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from . import jsonio
from .dictionaries import (FourierDictionary, IdentityDictionary, PolynomialDictionary,
                           TreatmentInteractedDictionary, load_csv)
from .dml import EstimatorConfig, dml_estimate
from .functional import AverageDerivative, AverageTreatmentEffect, PolicyShift
from .lp import SolverError
from .rmd import LambdaRule, RmdInfeasibleError, SettingError, check_problem, solve_rmd


class ConfigError(Exception):
    def __init__(self, message, key=None):
        super().__init__(message)
        self.key = key


# a key is "seed" or lies in one of these sections; the builders decide which keys apply
_SECTIONS = ("dictionary.", "functional.", "data.", "estimator.", "simulation.")
_BOOLEANS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


class Config:
    """Flat key-value config; its typed accessors name the key on failure and mark it read."""

    def __init__(self, path, entries, linenos):
        self.path = path
        self.entries = entries  # key -> value, in file order
        self.linenos = linenos  # key -> line number
        self.read = set()

    @classmethod
    def load(cls, path):
        entries, linenos = {}, {}
        try:
            with open(path, encoding="utf-8-sig") as fh:  # also reads a file saved with a BOM
                lines = fh.readlines()
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from None
        for lineno, line in enumerate(lines, start=1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            if "=" not in body:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, value = body.split("=", 1)
            key = key.strip()
            value = value.strip()
            if key != "seed" and not key.startswith(_SECTIONS):
                raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}", key=key)
            if key in entries:
                raise ConfigError(f"{path}:{lineno}: duplicate config key {key!r}", key=key)
            entries[key] = value
            linenos[key] = lineno
        return cls(path, entries, linenos)

    def has(self, key):
        return key in self.entries

    def raw(self, key, required=False):
        self.read.add(key)
        if required and key not in self.entries:
            raise ConfigError(f"missing required config key {key!r}", key=key)
        return self.entries.get(key)

    def get_str(self, key, required=False, choices=None):
        v = self.raw(key, required)
        if v is not None and choices is not None and v not in choices:
            raise ConfigError(f"config key {key!r} must be one of {sorted(choices)}, got {v!r}", key=key)
        return v

    def _typed(self, key, default, required, convert, expected):
        v = self.raw(key, required)
        if v is None:
            return default
        try:
            return convert(v)
        except (KeyError, ValueError):
            raise ConfigError(f"config key {key!r} must be {expected}, got {v!r}", key=key) from None

    def get_int(self, key, default=None, required=False):
        return self._typed(key, default, required, int, "an integer")

    def get_float(self, key, required=False):
        return self._typed(key, None, required, float, "a number")

    def get_bool(self, key, required=False):
        return self._typed(key, None, required, lambda v: _BOOLEANS[v.lower()], "true/false")

    def get_vector(self, key, required=False):
        return self._typed(key, None, required,
                           lambda v: np.array([float(tok) for tok in v.split(",")]),
                           "comma-separated numbers")

    def get_matrix(self, key, required=False):
        # numpy rejects ragged rows with a ValueError, which _typed reports
        return self._typed(key, None, required,
                           lambda v: np.array([[float(tok) for tok in row.split(",")]
                                               for row in v.split(";")]),
                           "semicolon-separated rows of numbers")

    def reject_unread(self, command):
        """Fail on the first key, in file order, that no accessor read."""
        for key in self.entries:
            if key not in self.read:
                raise ConfigError(f"{self.path}:{self.linenos[key]}: config key {key!r} "
                                  f"is not used by {command}", key=key)

    def echo(self):
        return dict(self.entries)


# -- builders -----------------------------------------------------------------

def _given(**params):
    """The parameters a key set; an unset key passes nothing, so the library's default applies."""
    return {name: value for name, value in params.items() if value is not None}


@contextmanager
def _keyed(cfg, prefix, **renames):
    """Report a ``SettingError`` on a parameter under its key, ``prefix`` + the parameter or its
    rename, if that key was read here; else the caller set the parameter (say ``input_dim``)."""
    try:
        yield
    except SettingError as exc:
        key = prefix + renames.get(exc.field, exc.field)
        if key not in cfg.read:
            raise
        raise ConfigError(str(exc), key) from None


def build_dictionary(cfg, input_dim, prefix="dictionary", treatment_index=0):
    kinds = {"polynomial", "fourier", "identity"}
    if prefix == "dictionary":  # an inner dictionary cannot itself be interacted
        kinds.add("treatment_interacted")
    kind = cfg.get_str(f"{prefix}.kind", required=True, choices=kinds)
    with _keyed(cfg, f"{prefix}."):
        if kind == "polynomial":
            return PolynomialDictionary(
                input_dim, cfg.get_int(f"{prefix}.degree", required=True),
                **_given(with_interactions=cfg.get_bool(f"{prefix}.with_interactions")))
        if kind == "fourier":
            return FourierDictionary(input_dim, cfg.get_int(f"{prefix}.order", required=True))
        if kind == "identity":
            return IdentityDictionary(input_dim)
        inner = build_dictionary(cfg, input_dim - 1, prefix=f"{prefix}.inner")
        return TreatmentInteractedDictionary(inner, treatment_index)


def build_functional(cfg, input_dim, treatment_col=None):
    kind = cfg.get_str("functional.type", required=True,
                       choices={"average_derivative", "policy_shift", "ate"})
    with _keyed(cfg, "functional.", transport_matrix="transport_s", shift="transport_c"):
        if kind == "average_derivative":
            return AverageDerivative(cfg.get_vector("functional.direction", required=True))
        if kind == "policy_shift":
            S = cfg.get_matrix("functional.transport_s")
            if S is None:
                S = np.eye(input_dim)
            c = cfg.get_vector("functional.transport_c")
            return PolicyShift(S, np.zeros(len(S)) if c is None else c)
    if treatment_col is None:
        raise ConfigError("functional.type = ate requires data.treatment", key="data.treatment")
    return AverageTreatmentEffect(treatment_col)


# the config key of each setting that a SettingError can name
_RULE_PREFIXES = {"rule": "estimator.lambda", "riesz_rule": "estimator.riesz_lambda"}
_RULE_FIELDS = ("method", "value", "c", "alpha")
_SETTING_KEYS = {"seed": "seed", "K": "estimator.k_folds", "alpha": "estimator.alpha",
                 "l1_bound": "estimator.l1_bound", "functional": "functional.type",
                 "R": "simulation.replications", "n": "simulation.n",
                 "workers": "simulation.workers",
                 **{f"{rule}.{f}": f"{prefix}_{f}" for rule, prefix in _RULE_PREFIXES.items()
                    for f in _RULE_FIELDS}}


def build_lambda_rule(cfg, name="rule"):
    """The lambda rule the keys of setting ``name`` spell out; None (the default) if none is set."""
    prefix = _RULE_PREFIXES[name]
    if not any(cfg.has(f"{prefix}_{f}") for f in _RULE_FIELDS):
        return None
    method = cfg.get_str(f"{prefix}_method", choices={"gaussian_quantile", "fixed"})
    with _keyed(cfg, f"{prefix}_"):
        if method == "fixed":
            return LambdaRule.fixed(cfg.get_float(f"{prefix}_value", required=True))
        return LambdaRule.gaussian_quantile(**_given(c=cfg.get_float(f"{prefix}_c"),
                                                     alpha=cfg.get_float(f"{prefix}_alpha")))


def build_estimator(cfg, dictionary, functional):
    """The estimator record the ``estimator.*`` keys spell out; the record checks each setting."""
    return EstimatorConfig(dictionary, functional, **_given(
        K=cfg.get_int("estimator.k_folds"),
        alpha=cfg.get_float("estimator.alpha"),
        rule=build_lambda_rule(cfg),
        riesz_rule=build_lambda_rule(cfg, "riesz_rule"),
        l1_bound=cfg.get_float("estimator.l1_bound"),
        plugin_only=cfg.get_bool("estimator.plugin_only"),
    ))


def build_dgp(cfg):
    from . import simulation  # imported here so that `estimate` loads no simulation code

    kind = cfg.get_str("simulation.dgp", required=True,
                       choices={"sparse_linear", "ate_logistic", "dense_decay"})
    noise = _given(noise_sd=cfg.get_float("simulation.noise_sd"))
    with _keyed(cfg, "simulation.", input_dim="d"):
        if kind == "sparse_linear":
            d = cfg.get_int("simulation.d", required=True)
            dictionary = build_dictionary(cfg, d)
            beta = cfg.get_vector("simulation.beta_star", required=True)
            x_dist = cfg.get_str("simulation.x_dist", choices={"normal", "uniform"})
            return simulation.SparseLinearDgp(dictionary, beta, **_given(x_dist=x_dist), **noise)
        if kind == "dense_decay":
            return simulation.dense_decay_dgp(
                d=cfg.get_int("simulation.d", required=True),
                decay=cfg.get_float("simulation.decay", required=True),
                **noise,
                **_given(scale=cfg.get_float("simulation.scale")),
            )
        d_z = cfg.get_int("simulation.d_z", required=True)
        return simulation.AteLogisticDgp(
            d_z=d_z,
            outcome_coefs=cfg.get_vector("simulation.outcome_coefs", required=True),
            tau=cfg.get_float("simulation.tau", required=True),
            propensity_coefs=cfg.get_vector("simulation.propensity_coefs", required=True),
            **noise,
        )


# -- subcommands ----------------------------------------------------------------

@contextmanager
def _writing(flag, path):
    """Turn a failure to write ``path`` into a configuration error naming ``flag``."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot write {flag} file {path}: {exc}") from None


def _emit(payload, output=None):
    text = jsonio.dumps(payload) + "\n"
    sys.stdout.write(text)
    if output:
        with _writing("--output", output), open(output, "w") as fh:
            fh.write(text)


def cmd_estimate(args):
    cfg = Config.load(args.config)
    outcome = cfg.get_str("data.outcome", required=True)
    treatment = cfg.get_str("data.treatment")
    try:
        with _keyed(cfg, "data."):  # a missing column: a ConfigError, not caught below
            data = load_csv(args.data, outcome, treatment,
                            **_given(standardize=cfg.get_bool("data.standardize")))
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot load data file {args.data}: {exc}") from None

    try:
        dictionary = build_dictionary(cfg, data.d, treatment_index=data.treatment_col or 0)
    except SettingError as exc:  # the parameter no key sets: input_dim, the data's width
        raise ConfigError(f"--data file {args.data} has too few covariates ({data.d}) for the "
                          f"dictionary: {exc}") from None
    functional = build_functional(cfg, data.d, treatment_col=data.treatment_col)
    est = build_estimator(cfg, dictionary, functional)
    options = _given(seed=cfg.get_int("seed"))
    cfg.reject_unread("estimate")
    try:
        # a SettingError is K against the data's n or the seed; any other failure is the data's
        with np.errstate(over="raise"):
            result = dml_estimate(data, **vars(est), **options)
    except SettingError:
        raise
    except (ValueError, FloatingPointError) as exc:
        raise ConfigError(f"cannot estimate from --data file {args.data}: {exc}") from None
    payload = result.summary()
    payload["config"] = cfg.echo()
    _emit(payload, args.output)
    return 0


def cmd_simulate(args):
    from . import simulation

    cfg = Config.load(args.config)
    dgp = build_dgp(cfg)
    if isinstance(dgp, simulation.AteLogisticDgp):
        # estimation is well-specified by construction: the estimator sees a
        # treatment-interacted dictionary over (D, Z) and targets the ATE
        dictionary = build_dictionary(cfg, dgp.d_z + 1, treatment_index=0)
        with _keyed(cfg, "dictionary.", functional="kind"):  # the study reads no functional.* key
            est = build_estimator(cfg, dictionary, AverageTreatmentEffect(0))
    else:
        if cfg.raw("functional.type") == "ate":  # a study has no data.treatment to name
            raise ConfigError("functional.type = ate needs the ATE study, "
                              "simulation.dgp = ate_logistic", key="functional.type")
        functional = build_functional(cfg, dgp.dictionary.input_dim)
        est = build_estimator(cfg, dgp.dictionary, functional)
    R = cfg.get_int("simulation.replications", required=True)
    n = cfg.get_int("simulation.n", required=True)
    options = _given(seed=cfg.get_int("seed"), workers=cfg.get_int("simulation.workers"))
    cfg.reject_unread("simulate")
    report = simulation.run_monte_carlo(dgp, est, R=R, n=n, config_echo=cfg.echo(), **options)
    _emit(report.summary(), args.output)
    if args.csv:
        with _writing("--csv", args.csv):
            report.write_csv(args.csv)
    return 0


def cmd_rmd_solve(args):
    flags = {"G_hat": f"--g-matrix {args.g_matrix}", "M_hat": f"--m-vector {args.m_vector}",
             "lam": "--lambda", "l1_bound": "--l1-bound"}
    arrays = []
    with warnings.catch_warnings():  # an empty file is reported as an empty Gram
        warnings.simplefilter("ignore", UserWarning)
        for flag, path, ndmin in (("--g-matrix", args.g_matrix, 2), ("--m-vector", args.m_vector, 1)):
            try:
                arrays.append(np.loadtxt(path, ndmin=ndmin, encoding="utf-8-sig"))
            except (OSError, ValueError) as exc:
                raise ConfigError(f"cannot read {flag} file {path}: {exc}") from None
    try:
        with np.errstate(over="raise"):
            G, M, lam, l1_bound = check_problem(*arrays, args.lambda_,
                                                **_given(l1_bound=args.l1_bound))
            solution = solve_rmd(G, M, lam, l1_bound)
    except SettingError as exc:
        raise ConfigError(f"{flags[exc.field]}: {exc}") from None
    except FloatingPointError as exc:
        raise ConfigError(f"cannot solve the RMD problem in --g-matrix {args.g_matrix} "
                          f"and --m-vector {args.m_vector}: {exc}") from None
    payload = asdict(solution)
    payload["lambda"] = payload.pop("lam")
    _emit({**payload, "l1_bound": l1_bound, "p": M.shape[0]}, args.output)
    return 0


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are configuration errors (exit 2, one JSON line)."""

    def error(self, message):
        raise ConfigError(message)


def build_parser():
    parser = _Parser(
        prog="rieszdml",
        description="Debiased estimation of linear functionals with regularized Riesz representers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_est = sub.add_parser("estimate", help="cross-fitted estimate from a CSV dataset")
    p_est.add_argument("--data", required=True, help="CSV file with a header row")
    p_est.add_argument("--config", required=True, help="flat key-value config file")
    p_est.add_argument("--output", help="also write the JSON result to this path")
    p_est.set_defaults(func=cmd_estimate)

    p_sim = sub.add_parser("simulate", help="Monte Carlo study on a known DGP")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--output", help="also write the JSON report to this path")
    p_sim.add_argument("--csv", help="write per-replication rows to this CSV path")
    p_sim.set_defaults(func=cmd_simulate)

    p_rmd = sub.add_parser("rmd-solve", help="solve one RMD problem from text files")
    p_rmd.add_argument("--g-matrix", required=True, help="dense row-major text matrix")
    p_rmd.add_argument("--m-vector", required=True, help="text vector")
    p_rmd.add_argument("--lambda", dest="lambda_", type=float, required=True)
    p_rmd.add_argument("--l1-bound", dest="l1_bound", type=float)
    p_rmd.add_argument("--output", help="also write the JSON solution to this path")
    p_rmd.set_defaults(func=cmd_rmd_solve)
    return parser


def run(argv):
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # --help has printed usage to stdout
        return int(exc.code or 0)
    except SettingError as exc:
        error, code = ConfigError(str(exc), _SETTING_KEYS.get(exc.field)), 2
    except ConfigError as exc:
        error, code = exc, 2
    except RmdInfeasibleError as exc:
        error, code = exc, 3
    except SolverError as exc:
        error, code = exc, 4
    message, key = str(error), getattr(error, "key", None)
    err = {"error": message if not key or key in message else f"{key}: {message}"}
    if key:
        err["key"] = key
    sys.stderr.write(jsonio.dumps(err) + "\n")
    return code


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
