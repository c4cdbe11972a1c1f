"""Basis dictionaries b : R^d -> R^p, their analytic derivatives, and datasets.

Four families are provided:

* ``PolynomialDictionary`` -- constant, per-coordinate powers and (optionally)
  pairwise interactions, ordered constant first, then by total degree
  (within degree 2: squares in coordinate order, then products x_j x_k with
  j < k lexicographic).
* ``FourierDictionary`` -- constant, then cos/sin pairs per coordinate, per
  frequency: (1, cos(pi x_k), sin(pi x_k), cos(2 pi x_k), ...).  Inputs are
  assumed pre-scaled to [-1, 1]; no rescaling happens here.
* ``IdentityDictionary`` -- b(x) = x.
* ``TreatmentInteractedDictionary`` -- b(x) = (b_in(z), t * b_in(z)) where t
  is the (binary) treatment coordinate and z the remaining coordinates.
  Derivatives are taken with respect to z only; the treatment component of
  a direction is ignored, so the treatment column of the Jacobian is zero.
  ``evaluate_with_contrast`` also returns the ATE contrast
  b(1, z) - b(0, z) = (0, b_in(z)), from the same single inner evaluation.

Each family writes one derivative, the row-wise directional derivative
``directional_gradient_rows(X, a)`` that m(x, b) = a' grad b(x) runs on.
The per-point Jacobian ``gradient(x)`` is derived from it, column by column.

All objects are immutable after construction and safe to share across
workers; every operation is a pure function of its inputs.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np


def _check_point(x, input_dim):
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.shape[0] != input_dim:
        raise ValueError(f"expected a length-{input_dim} vector, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("non-finite input")
    return x


def _check_rows(X, input_dim):
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != input_dim:
        raise ValueError(f"expected rows of width {input_dim}, got shape {X.shape}")
    if not np.all(np.isfinite(X)):
        raise ValueError("non-finite input")
    return X


class Dictionary:
    """Common surface: evaluate and differentiate, row-wise and per point.

    A subclass defines ``evaluate_rows`` and ``directional_gradient_rows``;
    ``evaluate`` and ``gradient`` are per-point views of them.
    """

    kind = "abstract"
    input_dim: int
    output_dim: int

    def evaluate(self, x):
        """b(x) as a length-p vector."""
        x = _check_point(x, self.input_dim)
        return self.evaluate_rows(x[np.newaxis, :])[0]

    def evaluate_rows(self, X):
        """Row-wise evaluation: (n, d) -> (n, p)."""
        raise NotImplementedError

    def directional_gradient_rows(self, X, a):
        """Rows of (grad b(x_i)) a, shape (n, p)."""
        raise NotImplementedError

    def gradient(self, x):
        """Jacobian of b at x: entry (j, k) is db_j/dx_k, shape (p, d).

        Column k is the directional derivative along the k-th unit vector.
        """
        X = _check_point(x, self.input_dim)[np.newaxis, :]
        return np.column_stack([self.directional_gradient_rows(X, e)[0]
                                for e in np.eye(self.input_dim)])

    def __repr__(self):
        return f"{type(self).__name__}(input_dim={self.input_dim}, output_dim={self.output_dim})"


class PolynomialDictionary(Dictionary):
    kind = "polynomial"

    def __init__(self, input_dim, degree, with_interactions=False):
        if input_dim < 1:
            raise ValueError("input_dim must be positive")
        if degree < 0:
            raise ValueError("degree must be >= 0")
        if with_interactions and degree < 2:
            raise ValueError("pairwise interactions require degree >= 2")
        self.input_dim = int(input_dim)
        self.degree = int(degree)
        self.with_interactions = bool(with_interactions)
        d = self.input_dim
        # terms: ("const",), ("pow", k, g), ("pair", j, k)
        terms = [("const",)]
        for g in range(1, self.degree + 1):
            for k in range(d):
                terms.append(("pow", k, g))
            if g == 2 and self.with_interactions:
                for j in range(d):
                    for k in range(j + 1, d):
                        terms.append(("pair", j, k))
        self.terms = tuple(terms)
        self.output_dim = len(terms)

    def evaluate_rows(self, X):
        X = _check_rows(X, self.input_dim)
        n = X.shape[0]
        out = np.empty((n, self.output_dim))
        for col, term in enumerate(self.terms):
            if term[0] == "const":
                out[:, col] = 1.0
            elif term[0] == "pow":
                _, k, g = term
                out[:, col] = X[:, k] ** g
            else:
                _, j, k = term
                out[:, col] = X[:, j] * X[:, k]
        return out

    def directional_gradient_rows(self, X, a):
        X = _check_rows(X, self.input_dim)
        a = np.asarray(a, dtype=float)
        n = X.shape[0]
        out = np.zeros((n, self.output_dim))
        for col, term in enumerate(self.terms):
            if term[0] == "pow":
                _, k, g = term
                if a[k] != 0.0:
                    out[:, col] = a[k] * g * X[:, k] ** (g - 1)
            elif term[0] == "pair":
                _, j, k = term
                out[:, col] = a[j] * X[:, k] + a[k] * X[:, j]
        return out


class FourierDictionary(Dictionary):
    kind = "fourier"

    def __init__(self, input_dim, order):
        if input_dim < 1:
            raise ValueError("input_dim must be positive")
        if order < 1:
            raise ValueError("order must be >= 1")
        self.input_dim = int(input_dim)
        self.order = int(order)
        self.output_dim = 1 + 2 * self.input_dim * self.order

    def _freqs(self):
        # columns after the constant: for k in coords, for j in 1..order:
        # cos(j pi x_k), sin(j pi x_k)
        for k in range(self.input_dim):
            for j in range(1, self.order + 1):
                yield k, j

    def evaluate_rows(self, X):
        X = _check_rows(X, self.input_dim)
        n = X.shape[0]
        out = np.empty((n, self.output_dim))
        out[:, 0] = 1.0
        col = 1
        for k, j in self._freqs():
            arg = j * np.pi * X[:, k]
            out[:, col] = np.cos(arg)
            out[:, col + 1] = np.sin(arg)
            col += 2
        return out

    def directional_gradient_rows(self, X, a):
        X = _check_rows(X, self.input_dim)
        a = np.asarray(a, dtype=float)
        n = X.shape[0]
        out = np.zeros((n, self.output_dim))
        col = 1
        for k, j in self._freqs():
            w = j * np.pi
            arg = w * X[:, k]
            out[:, col] = -a[k] * w * np.sin(arg)
            out[:, col + 1] = a[k] * w * np.cos(arg)
            col += 2
        return out


class IdentityDictionary(Dictionary):
    kind = "identity"

    def __init__(self, input_dim):
        if input_dim < 1:
            raise ValueError("input_dim must be positive")
        self.input_dim = int(input_dim)
        self.output_dim = self.input_dim

    def evaluate_rows(self, X):
        return _check_rows(X, self.input_dim).copy()

    def directional_gradient_rows(self, X, a):
        X = _check_rows(X, self.input_dim)
        a = np.asarray(a, dtype=float)
        return np.tile(a, (X.shape[0], 1))


class TreatmentInteractedDictionary(Dictionary):
    kind = "treatment_interacted"

    def __init__(self, inner, treatment_index=0):
        self.inner = inner
        self.input_dim = inner.input_dim + 1
        if not 0 <= treatment_index < self.input_dim:
            raise ValueError("treatment_index out of range")
        self.treatment_index = int(treatment_index)
        self.output_dim = 2 * inner.output_dim

    def split_rows(self, X):
        X = _check_rows(X, self.input_dim)
        t = X[:, self.treatment_index]
        z = np.delete(X, self.treatment_index, axis=1)
        return t, z

    def evaluate_with_contrast(self, X):
        """(b(X), b(1, z) - b(0, z)) from one inner pass: (b_in, t b_in) and (0, b_in)."""
        t, z = self.split_rows(X)
        inner = self.inner.evaluate_rows(z)
        contrast = np.zeros((inner.shape[0], self.output_dim))
        contrast[:, inner.shape[1]:] = inner
        return _interacted(t, inner), contrast

    def evaluate_rows(self, X):
        return self.evaluate_with_contrast(X)[0]

    def directional_gradient_rows(self, X, a):
        # derivatives in z only: the treatment component of a is dropped
        t, z = self.split_rows(X)
        a_z = np.delete(np.asarray(a, dtype=float), self.treatment_index)
        return _interacted(t, self.inner.directional_gradient_rows(z, a_z))


def _interacted(t, inner):
    """(inner, t * inner) side by side, written into one preallocated array."""
    n, p = inner.shape
    out = np.empty((n, 2 * p))
    out[:, :p] = inner
    np.multiply(t[:, np.newaxis], inner, out=out[:, p:])
    return out


def make_dictionary(kind, input_dim, degree=None, order=None,
                    with_interactions=False, inner=None, treatment_index=0):
    """Factory used by config parsing; p is derived from (kind, input_dim)."""
    if kind == "polynomial":
        if degree is None:
            raise ValueError("polynomial dictionary needs a degree")
        return PolynomialDictionary(input_dim, degree, with_interactions)
    if kind == "fourier":
        if order is None:
            raise ValueError("fourier dictionary needs an order")
        return FourierDictionary(input_dim, order)
    if kind == "identity":
        return IdentityDictionary(input_dim)
    if kind == "treatment_interacted":
        if inner is None:
            raise ValueError("treatment_interacted dictionary needs an inner dictionary")
        dic = TreatmentInteractedDictionary(inner, treatment_index)
        if dic.input_dim != input_dim:
            raise ValueError(
                f"treatment_interacted over a {inner.input_dim}-dim inner dictionary "
                f"expects input_dim {dic.input_dim}, got {input_dim}"
            )
        return dic
    raise ValueError(f"unknown dictionary kind: {kind!r}")


@dataclass(frozen=True)
class Dataset:
    """n observations of (Y, X), optionally with a designated binary treatment column."""

    outcome: np.ndarray
    covariates: np.ndarray
    treatment_col: int | None = None
    covariate_names: tuple | None = field(default=None, compare=False)

    def __post_init__(self):
        y = np.asarray(self.outcome, dtype=float)
        X = np.asarray(self.covariates, dtype=float)
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
        sd = X.std(axis=0, ddof=1)
        for j in range(X.shape[1]):
            if self.treatment_col is not None and j == self.treatment_col:
                continue
            if sd[j] <= 0.0:
                name = self.covariate_names[j] if self.covariate_names else str(j)
                raise ValueError(f"cannot standardize constant covariate column {name!r}")
            X[:, j] /= sd[j]
        return Dataset(self.outcome, X, self.treatment_col, self.covariate_names)


def load_csv(path, outcome, treatment=None, standardize=False):
    """Read a headed CSV into a Dataset.

    The column named ``outcome`` becomes Y; all remaining columns become
    covariates in header order; ``treatment`` optionally names the binary
    treatment column.  Any non-numeric cell is a parse failure.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"empty CSV file: {path}") from None
        header = [h.strip() for h in header]
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
    # the second KeyError argument names the role of the missing column
    if outcome not in header:
        raise KeyError(f"outcome column {outcome!r} not found in header", "outcome")
    if treatment is not None and treatment not in header:
        raise KeyError(f"treatment column {treatment!r} not found in header", "treatment")
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
