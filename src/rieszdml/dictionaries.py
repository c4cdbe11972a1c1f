"""Basis dictionaries b : R^d -> R^p, their analytic derivatives, and datasets.

Four families are provided:

* ``PolynomialDictionary`` -- the constant, then one block of d columns
  x_1^g, ..., x_d^g per degree g (``power_columns(g)``).  With interactions
  the products x_j x_k, j < k lexicographic, sit between the squares and the
  cubes (``pair_columns(j)`` holds those of x_j).
* ``FourierDictionary`` -- the constant, then per coordinate k and per
  frequency j the pair cos(j pi x_k), sin(j pi x_k); ``cos_sin`` views these
  columns as (d, order, 2).  Inputs are assumed pre-scaled to [-1, 1]; no
  rescaling happens here.
* ``IdentityDictionary`` -- b(x) = x.
* ``TreatmentInteractedDictionary`` -- b(x) = (b_in(z), t * b_in(z)) where t
  is the (binary) treatment coordinate and z the remaining coordinates.
  Derivatives are taken with respect to z only; the treatment component of
  a direction is ignored.

A dictionary is its two row-wise methods: ``evaluate_rows(X)``, the (n, p)
array b(X), and ``directional_gradient_rows(X, a)``, the rows of
a' grad b(x_i) that the average derivative runs on.  Both arrays are
column-major (Fortran order), and each family writes them one block of whole
columns at a time: the estimator reads them only through per-fold Grams and
column sums, which then run over contiguous columns.  Everything else in
m(x, b), such as the ATE contrast b(1, z) - b(0, z), belongs to the
functional.

All objects are immutable after construction and safe to share across
workers; every operation is a pure function of its inputs.  A constructor
checks its own arguments and raises ``SettingError`` naming the one at fault;
the class lives here, in the module that every other module imports.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np


class SettingError(ValueError):
    """A setting is out of range; ``field`` names it (``degree``, ``K``, ``rule.c``, ...)."""

    def __init__(self, field, message):
        super().__init__(message)
        self.field = field


def pow2_scale(m):
    """2^(e-1) for m in [2^(e-1), 2^e), 0.5 for m = 0, elementwise; finite up to the float maximum.
    Dividing by it leaves every |x| <= m below 2 and is exact unless the quotient is subnormal."""
    return np.ldexp(1.0, np.frexp(m)[1] - 1)


def _check_rows(X, input_dim):
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != input_dim:
        raise ValueError(f"expected rows of width {input_dim}, got shape {X.shape}")
    if not np.all(np.isfinite(X)):
        raise ValueError("non-finite input")
    return X


class Dictionary:
    """Common surface: a subclass defines ``evaluate_rows`` and ``directional_gradient_rows``."""

    input_dim: int
    output_dim: int

    def evaluate_rows(self, X):
        """Row-wise evaluation: (n, d) -> (n, p)."""
        raise NotImplementedError

    def directional_gradient_rows(self, X, a):
        """Rows of (grad b(x_i)) a, shape (n, p)."""
        raise NotImplementedError

    def __repr__(self):
        return f"{type(self).__name__}(input_dim={self.input_dim}, output_dim={self.output_dim})"


class PolynomialDictionary(Dictionary):
    def __init__(self, input_dim, degree, with_interactions=False):
        if input_dim < 1:
            raise SettingError("input_dim", f"input_dim must be positive, got {input_dim}")
        if degree < 0:
            raise SettingError("degree", f"degree must be >= 0, got {degree}")
        if with_interactions and degree < 2:
            raise SettingError("with_interactions", "pairwise interactions require degree >= 2")
        self.input_dim = int(input_dim)
        self.degree = int(degree)
        self.with_interactions = bool(with_interactions)
        self.output_dim = self.power_columns(self.degree + 1).start  # one past the last column

    def power_columns(self, g):
        """The columns of x_1^g, ..., x_d^g."""
        d = self.input_dim
        pairs = d * (d - 1) // 2 if self.with_interactions and g > 2 else 0
        start = 1 + d * (g - 1) + pairs
        return slice(start, start + d)

    def pair_columns(self, j):
        """The columns of x_j x_k for k = j + 1, ..., d - 1 (with interactions only)."""
        d = self.input_dim
        start = self.power_columns(2).stop + j * (2 * d - j - 1) // 2
        return slice(start, start + d - 1 - j)

    def evaluate_rows(self, X):
        X = _check_rows(X, self.input_dim)
        out = np.empty((X.shape[0], self.output_dim), order="F")
        out[:, 0] = 1.0
        if self.degree:
            out[:, self.power_columns(1)] = X  # x**1 is x bit for bit; a copy is cheaper
        for g in range(2, self.degree + 1):
            np.power(X, g, out=out[:, self.power_columns(g)])
        if self.with_interactions:
            for j in range(self.input_dim - 1):
                np.multiply(X[:, j:j + 1], X[:, j + 1:], out=out[:, self.pair_columns(j)])
        return out

    def directional_gradient_rows(self, X, a):
        X = _check_rows(X, self.input_dim)
        a = np.asarray(a, dtype=float)
        out = np.zeros((X.shape[0], self.output_dim), order="F")
        moving = np.flatnonzero(a)  # the power columns of a zero a_k stay +0.0
        for g in range(1, self.degree + 1):
            out[:, self.power_columns(g).start + moving] = a[moving] * g * X[:, moving] ** (g - 1)
        if self.with_interactions:
            for j in range(self.input_dim - 1):
                np.add(a[j] * X[:, j + 1:], a[j + 1:] * X[:, j:j + 1],
                       out=out[:, self.pair_columns(j)])
        return out


class FourierDictionary(Dictionary):
    def __init__(self, input_dim, order):
        if input_dim < 1:
            raise SettingError("input_dim", f"input_dim must be positive, got {input_dim}")
        if order < 1:
            raise SettingError("order", f"order must be >= 1, got {order}")
        self.input_dim = int(input_dim)
        self.order = int(order)
        self.output_dim = 1 + 2 * self.input_dim * self.order

    def frequencies(self):
        """The angular frequencies pi, 2 pi, ..., order pi."""
        return np.arange(1, self.order + 1) * np.pi

    def cos_sin(self, out):
        """A view of the columns of ``out`` after the constant, shaped (..., d, order, 2)."""
        return out[..., 1:].reshape(*out.shape[:-1], self.input_dim, self.order, 2)

    def evaluate_rows(self, X):
        X = _check_rows(X, self.input_dim)
        out = np.empty((X.shape[0], self.output_dim), order="F")
        out[:, 0] = 1.0
        arg = X[:, :, np.newaxis] * self.frequencies()
        cs = self.cos_sin(out)
        np.cos(arg, out=cs[..., 0])
        np.sin(arg, out=cs[..., 1])
        return out

    def directional_gradient_rows(self, X, a):
        X = _check_rows(X, self.input_dim)
        a = np.asarray(a, dtype=float)
        out = np.zeros((X.shape[0], self.output_dim), order="F")
        w = self.frequencies()
        arg = X[:, :, np.newaxis] * w
        cs = self.cos_sin(out)
        np.multiply(np.outer(-a, w), np.sin(arg), out=cs[..., 0])
        np.multiply(np.outer(a, w), np.cos(arg), out=cs[..., 1])
        return out


class IdentityDictionary(Dictionary):
    def __init__(self, input_dim):
        if input_dim < 1:
            raise SettingError("input_dim", f"input_dim must be positive, got {input_dim}")
        self.input_dim = int(input_dim)
        self.output_dim = self.input_dim

    def evaluate_rows(self, X):
        return _check_rows(X, self.input_dim).copy(order="F")

    def directional_gradient_rows(self, X, a):
        X = _check_rows(X, self.input_dim)
        a = np.asarray(a, dtype=float)
        return np.broadcast_to(a, X.shape).copy(order="F")


class TreatmentInteractedDictionary(Dictionary):
    def __init__(self, inner, treatment_index=0):
        self.inner = inner
        self.input_dim = inner.input_dim + 1
        if not 0 <= treatment_index < self.input_dim:
            raise SettingError("treatment_index", f"treatment_index {treatment_index} out of range")
        self.treatment_index = int(treatment_index)
        self.output_dim = 2 * inner.output_dim

    def _split_rows(self, X):
        X = _check_rows(X, self.input_dim)
        t = X[:, self.treatment_index]
        # a leading treatment leaves z a view: one n x d copy fewer per call
        z = X[:, 1:] if self.treatment_index == 0 else np.delete(X, self.treatment_index, axis=1)
        return t, z

    def evaluate_rows(self, X):
        t, z = self._split_rows(X)
        return _interacted(t, self.inner.evaluate_rows(z))

    def directional_gradient_rows(self, X, a):
        # derivatives in z only: the treatment component of a is dropped
        t, z = self._split_rows(X)
        a_z = np.delete(np.asarray(a, dtype=float), self.treatment_index)
        return _interacted(t, self.inner.directional_gradient_rows(z, a_z))


def _interacted(t, inner):
    """(inner, t * inner) side by side, written into one preallocated array."""
    n, p = inner.shape
    out = np.empty((n, 2 * p), order="F")
    out[:, :p] = inner
    np.multiply(t[:, np.newaxis], inner, out=out[:, p:])
    return out


@dataclass(frozen=True)
class Dataset:
    """n observations of (Y, X), optionally with a designated binary treatment column."""

    outcome: np.ndarray
    covariates: np.ndarray
    treatment_col: int | None = None
    covariate_names: tuple | None = field(default=None, compare=False)

    def __post_init__(self):
        # views, so freezing them leaves the caller's arrays writable without a copy
        y = np.asarray(self.outcome, dtype=float).view()
        X = np.asarray(self.covariates, dtype=float).view()
        if X.ndim != 2:
            raise ValueError("covariates must be a 2-d array")
        if y.ndim != 1 or y.shape[0] != X.shape[0]:
            raise ValueError("outcome and covariates disagree on n")
        if y.shape[0] < 2:
            raise ValueError("need n >= 2 observations")
        if not (np.all(np.isfinite(y)) and np.all(np.isfinite(X))):
            raise ValueError("non-finite entries in dataset")
        if self.treatment_col is not None:
            tc = int(self.treatment_col)
            if not 0 <= tc < X.shape[1]:
                raise ValueError("treatment_col out of range")
            col = X[:, tc]
            if not np.all((col == 0.0) | (col == 1.0)):
                raise ValueError("treatment column must contain only 0 or 1")
        y.setflags(write=False)
        X.setflags(write=False)
        object.__setattr__(self, "outcome", y)
        object.__setattr__(self, "covariates", X)

    @property
    def n(self):
        return self.outcome.shape[0]

    @property
    def d(self):
        return self.covariates.shape[1]

    def standardized(self):
        """Rescale covariate columns to unit sample variance (ddof=1).

        The treatment column, if any, is left untouched so it stays binary.
        Columns are not centered.
        """
        X = np.array(self.covariates)
        scale = pow2_scale(np.abs(X).max(axis=0))
        with np.errstate(over="ignore"):  # an sd past the float maximum is refused below
            sd = (X / scale).std(axis=0, ddof=1) * scale
        for j in range(X.shape[1]):
            if self.treatment_col is not None and j == self.treatment_col:
                continue
            if not 0.0 < sd[j] < np.inf:
                name = self.covariate_names[j] if self.covariate_names else str(j)
                what = (f"constant covariate column {name!r}" if sd[j] == 0.0 else
                        f"covariate column {name!r}: its sample sd passes the float maximum")
                raise ValueError(f"cannot standardize {what}")
            X[:, j] /= sd[j]
        return Dataset(self.outcome, X, self.treatment_col, self.covariate_names)


def load_csv(path, outcome, treatment=None, standardize=False):
    """Read a headed CSV into a Dataset.

    The column named ``outcome`` becomes Y; all remaining columns become
    covariates in header order; ``treatment`` optionally names the binary
    treatment column.  A header that names a column twice, or any
    non-numeric cell, is a parse failure; a missing outcome or treatment
    column raises ``SettingError`` naming that role.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:  # a BOM is not part of the header
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"empty CSV file: {path}") from None
        header = [h.strip() for h in header]
        if len(set(header)) < len(header):
            name = next(h for i, h in enumerate(header) if h in header[:i])
            raise ValueError(f"{path}: column {name!r} is named more than once in the header")
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and row[0].strip() == ""):
                continue
            if len(row) != len(header):
                raise ValueError(f"{path}:{lineno}: expected {len(header)} cells, got {len(row)}")
            try:
                rows.append([float(cell) for cell in row])
            except ValueError:
                raise ValueError(f"{path}:{lineno}: non-numeric cell") from None
    if outcome not in header:
        raise SettingError("outcome", f"outcome column {outcome!r} not found in header")
    if treatment is not None and treatment not in header:
        raise SettingError("treatment", f"treatment column {treatment!r} not found in header")
    if treatment == outcome:
        raise SettingError("treatment", f"treatment column {treatment!r} is the outcome column")
    data = np.asarray(rows, dtype=float)
    if data.size == 0:
        raise ValueError(f"no data rows in {path}")
    y_idx = header.index(outcome)
    cov_names = [h for h in header if h != outcome]
    cov_idx = [i for i, h in enumerate(header) if h != outcome]
    tc = cov_names.index(treatment) if treatment is not None else None
    ds = Dataset(data[:, y_idx], data[:, cov_idx], tc, tuple(cov_names))
    if standardize:
        ds = ds.standardized()
    return ds


def design_matrix(dictionary, data, rows):
    """Stack b(X_i) for i in rows: (|rows|, p)."""
    rows = np.asarray(rows, dtype=int)
    if rows.size == 0:
        raise ValueError("empty row index set")
    return dictionary.evaluate_rows(data.covariates[rows])
