"""Data-generating processes with known functionals and a Monte Carlo harness.

Three DGP families:

* ``SparseLinearDgp``  -- Y = b(X)'beta_star + noise on any dictionary, X
  iid standard normal or uniform[-1, 1].
* ``AteLogisticDgp``   -- binary treatment with logistic propensity (index
  clipped so the propensity stays inside [0.05, 0.95]) and additive effect:
  Y = tau D + Z'outcome_coefs + noise.
* ``dense_decay_dgp``  -- dense regression: coefficients j^(-decay) over all
  non-constant elements of a degree-2 polynomial dictionary, X standard
  normal.  The Riesz representer of a coordinate average derivative stays
  sparse here (the Gaussian score direction is a basis element), which is
  the dense-regression / sparse-representer regime.

``true_theta_info`` is exact for every design above: the target is a closed-form
moment of X (a policy shift's from E b(S X + c), by ``_mean_basis``), so its
standard error is 0.  A policy shift on a treatment-interacted dictionary has
no such form, and ``true_theta_info`` refuses it.

Replications of ``run_monte_carlo`` are independent; per-replication seeds
are derived as SeedSequence([seed, rep]), so results do not depend on
execution order and the harness may run replications across processes.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import asdict, dataclass

import numpy as np

from .dictionaries import (Dataset, FourierDictionary, IdentityDictionary, PolynomialDictionary,
                           TreatmentInteractedDictionary)
from .dml import check_seed, dml_estimate
from .functional import AverageDerivative, AverageTreatmentEffect, PolicyShift
from .lp import SolverError
from .rmd import RmdInfeasibleError, SettingError


_LOGIT_BOUND = float(np.log(0.95 / 0.05))  # propensity clipped to [0.05, 0.95]


def _draw_x(rng, n, d, x_dist):
    if x_dist == "normal":
        return rng.standard_normal((n, d))
    return rng.uniform(-1.0, 1.0, size=(n, d))


def _require_finite(name, value):
    if not np.isfinite(value).all():
        raise SettingError(name, f"{name} must be finite, got {np.asarray(value).tolist()}")


@dataclass(frozen=True)
class SparseLinearDgp:
    """Exact linear model on a dictionary: Y = b(X)'beta_star + sd * N(0,1)."""

    dictionary: object
    beta_star: np.ndarray
    x_dist: str = "normal"
    noise_sd: float = 1.0

    def __post_init__(self):
        beta = np.array(self.beta_star, dtype=float)
        if beta.shape != (self.dictionary.output_dim,):
            raise SettingError("beta_star", "beta_star must have output_dim = "
                                            f"{self.dictionary.output_dim} entries, got {beta.size}")
        _require_finite("beta_star", beta)
        if self.x_dist not in ("normal", "uniform"):
            raise SettingError("x_dist", f"unknown x_dist {self.x_dist!r}")
        if not 0.0 <= self.noise_sd < np.inf:
            raise SettingError("noise_sd", f"noise_sd must lie in [0, inf), got {self.noise_sd}")
        beta.setflags(write=False)
        object.__setattr__(self, "beta_star", beta)

    @property
    def d(self):
        return self.dictionary.input_dim

    def gamma_values(self, X):
        return self.dictionary.evaluate_rows(X) @ self.beta_star

    def generate(self, n, seed):
        rng = np.random.default_rng(seed)
        X = _draw_x(rng, n, self.d, self.x_dist)
        y = self.gamma_values(X) + self.noise_sd * rng.standard_normal(n)
        return Dataset(y, X)


@dataclass(frozen=True)
class AteLogisticDgp:
    """Binary treatment, logistic propensity with enforced overlap, additive effect."""

    d_z: int
    outcome_coefs: np.ndarray
    tau: float
    propensity_coefs: np.ndarray
    noise_sd: float = 1.0

    def __post_init__(self):
        if self.d_z < 1:
            raise SettingError("d_z", f"d_z must be >= 1, got {self.d_z!r}")
        for name in ("outcome_coefs", "propensity_coefs"):
            coefs = np.array(getattr(self, name), dtype=float)
            if coefs.shape != (self.d_z,):
                raise SettingError(name, f"{name} must have d_z = {self.d_z} entries, "
                                         f"got {coefs.size}")
            _require_finite(name, coefs)
            coefs.setflags(write=False)
            object.__setattr__(self, name, coefs)
        _require_finite("tau", self.tau)
        if not 0.0 <= self.noise_sd < np.inf:
            raise SettingError("noise_sd", f"noise_sd must lie in [0, inf), got {self.noise_sd}")

    def propensity(self, Z):
        index = np.clip(Z @ self.propensity_coefs, -_LOGIT_BOUND, _LOGIT_BOUND)
        return 1.0 / (1.0 + np.exp(-index))

    def generate(self, n, seed):
        rng = np.random.default_rng(seed)
        Z = rng.standard_normal((n, self.d_z))
        pi = self.propensity(Z)
        D = (rng.random(n) < pi).astype(float)
        y = self.tau * D + Z @ self.outcome_coefs + self.noise_sd * rng.standard_normal(n)
        X = np.hstack([D[:, np.newaxis], Z])
        return Dataset(y, X, treatment_col=0)


def dense_decay_dgp(d, decay, noise_sd=1.0, scale=1.0):
    """Dense-coefficient regression on a degree-2 polynomial dictionary.

    Coefficient j (over the non-constant basis elements, in basis order) is
    scale * j^(-decay); the constant gets 0.
    """
    _require_finite("decay", decay)  # decay = inf would give finite coefficients
    dictionary = PolynomialDictionary(d, degree=2)
    p = dictionary.output_dim
    beta = np.zeros(p)
    with np.errstate(over="ignore", invalid="ignore"):
        beta[1:] = np.arange(1, p, dtype=float) ** (-float(decay))
        if not np.isfinite(beta).all():
            raise SettingError("decay", f"decay = {decay!r} overflows j^(-decay) at p = {p}")
        beta[1:] *= scale
    if not np.isfinite(beta).all():
        raise SettingError("scale", f"scale = {scale!r} gives non-finite coefficients "
                                    f"scale * j^(-decay) at p = {p}")
    return SparseLinearDgp(dictionary, beta, "normal", noise_sd)


# -- true target values ------------------------------------------------------

@dataclass(frozen=True)
class TrueTheta:
    value: float
    se: float  # 0.0: every target is exact
    method: str  # "analytic", the one path


def _moment(x_dist, g):
    """E[X^g] for a single coordinate of the covariate distribution."""
    if g == 0:
        return 1.0
    if g % 2 == 1:
        return 0.0
    if x_dist == "normal":
        # (g-1)!! for even g
        out = 1.0
        for k in range(g - 1, 0, -2):
            out *= k
        return out
    return 1.0 / (g + 1.0)


def _mean_directional_derivative(dictionary, x_dist, a):
    """E[grad b(X) a] per basis element."""
    a = np.asarray(a, dtype=float)
    if isinstance(dictionary, IdentityDictionary):
        return a.copy()
    if isinstance(dictionary, PolynomialDictionary):
        # a pair column x_j x_k averages a_j E[X_k] + a_k E[X_j] = 0 under both laws
        out = np.zeros(dictionary.output_dim)
        for g in range(1, dictionary.degree + 1):
            out[dictionary.power_columns(g)] = a * g * _moment(x_dist, g - 1)
        return out
    if isinstance(dictionary, FourierDictionary):
        # E[sin(j pi X)] = 0, so the cos columns average to 0; sin(j pi x_k) averages
        # to a_k j pi E[cos(j pi X)], where E[cos(j pi X)] is e^{-j^2 pi^2 / 2} under
        # N(0, 1) and exactly 0 under U[-1, 1]
        out = np.zeros(dictionary.output_dim)
        if x_dist == "normal":
            w = dictionary.frequencies()
            dictionary.cos_sin(out)[..., 1] = np.outer(a, w * np.exp(-w ** 2 / 2))
        return out
    if not isinstance(dictionary, TreatmentInteractedDictionary):
        raise ValueError(f"no closed-form target on a {type(dictionary).__name__}")
    # (b_in(z), t b_in(z)): t is drawn independent of z with E t = 0, so the t half averages to 0
    inner = _mean_directional_derivative(dictionary.inner, x_dist,
                                         np.delete(a, dictionary.treatment_index))
    return np.concatenate([inner, np.zeros_like(inner)])


def _mean_basis(dictionary, x_dist, S, c):
    """E b(S X + c) per basis element, for a polynomial, Fourier or identity dictionary."""
    if isinstance(dictionary, IdentityDictionary):
        return c.copy()  # E X = 0
    out = np.empty(dictionary.output_dim)
    out[0] = 1.0
    if isinstance(dictionary, FourierDictionary):
        # E e^{i w (s'X + c)} = e^{i w c} phi(w s), with phi the real characteristic function of X
        w = dictionary.frequencies()
        u = S[:, np.newaxis, :] * w[:, np.newaxis]  # (d, order, d): w s_k
        phi = (np.exp(-u ** 2 / 2) if x_dist == "normal" else np.sinc(u / np.pi)).prod(axis=-1)
        cs = dictionary.cos_sin(out)
        cs[..., 0] = np.cos(np.outer(c, w)) * phi
        cs[..., 1] = np.sin(np.outer(c, w)) * phi
        return out
    if not isinstance(dictionary, PolynomialDictionary):
        raise ValueError(f"no closed-form target on a {type(dictionary).__name__}")
    # E[(s_l'X + c_l)^g] for each row s_l of S, adding one independent coordinate at a time by
    # the binomial convolution; the odd moments of X vanish under both laws
    G = dictionary.degree
    m = np.array([_moment(x_dist, h) for h in range(G + 1)])
    mom = c[:, np.newaxis] ** np.arange(G + 1)
    for s in S.T:
        sx = s[:, np.newaxis] ** np.arange(G + 1) * m  # E[(s_lk X_k)^h]
        mom = np.stack([sum(math.comb(g, h) * sx[:, h] * mom[:, g - h] for h in range(0, g + 1, 2))
                        for g in range(G + 1)], axis=1)
    for g in range(1, G + 1):
        out[dictionary.power_columns(g)] = mom[:, g]
    if dictionary.with_interactions:
        for j in range(dictionary.input_dim - 1):
            out[dictionary.pair_columns(j)] = m[2] * (S[j + 1:] @ S[j]) + c[j] * c[j + 1:]
    return out


def true_theta_info(dgp, functional):
    """The exact target E m(X, gamma*), with se 0.0 and method "analytic".

    An average derivative is the mean derivative of b, a policy shift
    E b(S X + c) - E b(X), both closed-form moments of X, and the ATE of the
    additive outcome is tau.  A policy shift on a treatment-interacted
    dictionary, and a target that is not finite in floating point, raise
    ``SettingError("functional")``.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, without a warning
        info = _true_theta(dgp, functional)
    if not np.isfinite(info.value):
        raise SettingError("functional", "the target E m(X, gamma*) is not finite in floating "
                                         f"point: {info.value}")
    return info


def _true_theta(dgp, functional):
    if isinstance(dgp, AteLogisticDgp):
        if isinstance(functional, AverageTreatmentEffect):
            # gamma(1, z) - gamma(0, z) = tau for the additive outcome
            return TrueTheta(float(dgp.tau), 0.0, "analytic")
        raise ValueError("AteLogisticDgp only pairs with the ATE functional")
    if not isinstance(dgp, SparseLinearDgp):
        raise ValueError(f"unsupported dgp {type(dgp).__name__}")

    dic, x_dist = dgp.dictionary, dgp.x_dist
    functional.check_compatible(dic)
    if isinstance(functional, AverageDerivative):
        mean_m = _mean_directional_derivative(dic, x_dist, functional.direction)
    elif isinstance(functional, PolicyShift):
        if isinstance(dic, TreatmentInteractedDictionary):
            raise SettingError("functional", "a policy shift on a treatment_interacted "
                                             "dictionary has no closed-form target")
        eye, zero = np.eye(dgp.d), np.zeros(dgp.d)
        mean_m = (_mean_basis(dic, x_dist, functional.transport_matrix, functional.shift)
                  - _mean_basis(dic, x_dist, eye, zero))
    else:
        raise ValueError(f"unsupported functional {type(functional).__name__} for this dgp")
    return TrueTheta(float(mean_m @ dgp.beta_star), 0.0, "analytic")


# -- Monte Carlo harness -----------------------------------------------------

@dataclass
class MonteCarloReport:
    R: int
    n: int
    theta_star: float
    theta_star_se: float
    theta_star_method: str
    bias: float
    rmse: float
    coverage: float
    mean_ci_length: float
    mean_sigma: float
    failures: int
    config: dict
    seed: int
    per_rep: list  # last, so the JSON report ends with the per-replication rows

    def summary(self):
        return asdict(self)

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(self.per_rep[0])  # _replicate's keys; R >= 1
            writer.writerows(r.values() for r in self.per_rep)


def rep_seeds(seed, rep):
    """Documented splitting rule: data and fold-plan seeds for one replication."""
    data_seed, fold_seed = np.random.SeedSequence([int(seed), int(rep)]).generate_state(2)
    return int(data_seed), int(fold_seed)


def _replicate(task):
    dgp, est, n, seed, rep, theta_star = task
    data_seed, fold_seed = rep_seeds(seed, rep)
    out = {"rep": rep, "status": "ok", "theta_hat": None, "sigma_hat": None,
           "ci_lo": None, "ci_hi": None, "covered": None, "error": None}
    try:
        with np.errstate(over="raise"):
            data = dgp.generate(n, data_seed)
            result = dml_estimate(data, **vars(est), seed=fold_seed)
        out.update(
            theta_hat=result.theta_hat,
            sigma_hat=result.sigma_hat,
            ci_lo=result.ci[0],
            ci_hi=result.ci[1],
            covered=bool(result.ci[0] <= theta_star <= result.ci[1]),
        )
    except (ValueError, FloatingPointError, RmdInfeasibleError, SolverError) as exc:
        out["status"] = "failed"
        out["error"] = f"{type(exc).__name__}: {exc}"
    return out


def resolve_workers(requested=None):
    """Pool processes, not BLAS threads: ``requested`` (default: all) capped at the usable CPUs."""
    if requested is not None and requested < 1:
        raise SettingError("workers", f"need workers >= 1, got {requested}")
    try:
        cap = len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity (macOS, Windows): all cores
        cap = os.cpu_count() or 1
    return cap if requested is None else min(int(requested), cap)


def run_monte_carlo(dgp, est, R, n, seed=0, workers=None, config_echo=None):
    """R independent replications of generate -> dml_estimate, aggregated.

    Replication r draws its data and fold-plan seeds from
    SeedSequence([seed, r]), so the report is bit-identical for a given
    (config, seed) regardless of ``workers``.  A replication whose data or
    solver fails or overflows (ValueError, RmdInfeasibleError, SolverError,
    FloatingPointError) is recorded as "failed"; any other exception
    propagates.  A bad R, n (< 2K), seed or workers raises ``SettingError`` before any work.
    """
    check_seed(seed)
    if R < 1:
        raise SettingError("R", f"need R >= 1 replications, got {R}")
    if n < 2 * est.K:
        raise SettingError("n", f"need n >= 2K observations for K = {est.K} folds, got n = {n}")
    workers = resolve_workers(workers)
    info = true_theta_info(dgp, est.functional)
    tasks = [(dgp, est, n, seed, rep, info.value) for rep in range(R)]
    if workers > 1 and R > 1:
        # imported here so that `estimate`, which never starts a pool, does not load it
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_rep = list(pool.map(_replicate, tasks, chunksize=max(1, R // (workers * 8))))
    else:
        per_rep = [_replicate(t) for t in tasks]

    ok = [r for r in per_rep if r["status"] == "ok"]
    failures = R - len(ok)
    if ok:
        thetas = np.array([r["theta_hat"] for r in ok])
        lengths = np.array([r["ci_hi"] - r["ci_lo"] for r in ok])
        sigmas = np.array([r["sigma_hat"] for r in ok])
        covered = np.array([r["covered"] for r in ok])
        bias = float(thetas.mean() - info.value)
        rmse = float(np.sqrt(np.mean((thetas - info.value) ** 2)))
        coverage = float(covered.mean())
        mean_len = float(lengths.mean())
        mean_sigma = float(sigmas.mean())
    else:
        bias = rmse = coverage = mean_len = mean_sigma = float("nan")
    return MonteCarloReport(
        R=R,
        n=n,
        theta_star=info.value,
        theta_star_se=info.se,
        theta_star_method=info.method,
        bias=bias,
        rmse=rmse,
        coverage=coverage,
        mean_ci_length=mean_len,
        mean_sigma=mean_sigma,
        failures=failures,
        per_rep=per_rep,
        config=dict(config_echo or {}),
        seed=seed,
    )
