"""Linear maps m(x, .) applied componentwise to a dictionary.

Three variants: the average derivative in a fixed direction, the policy
effect of an affine covariate shift x -> S x + c, and the average treatment
effect on a treatment-interacted dictionary.  Everything downstream only
relies on the componentwise vector m(x, b) = (m(x, b_1), ..., m(x, b_p)) and
on linearity: m(x, b'beta) = m(x, b)'beta.

Each functional defines one method, ``features(dictionary, X)``, which
returns b(X) and m(X, b) together; it is the only code that computes either
for the estimator, the RMD fits, the per-observation score and the
true-theta oracles, which read m(X, b) as its second array.  A dictionary
supplies only b(X) and a' grad b(X); the rest of m belongs here.  The policy
shift evaluates b(X) once and reuses it in b(S X + c) - b(X), and the
average treatment effect writes the contrast b(1, z) - b(0, z) =
(0, b_in(z)) from the first half of b(X), so one dictionary pass yields
both arrays.
"""

from __future__ import annotations

import numpy as np

from .dictionaries import SettingError, TreatmentInteractedDictionary, check_int


class Functional:
    def check_compatible(self, dictionary, data=None):
        """Raise ValueError when the (functional, dictionary, data) combination is invalid."""

    def features(self, dictionary, X):
        """(b(X), m(X, b)) for the rows of X, each of shape (n, p)."""
        raise NotImplementedError


class AverageDerivative(Functional):
    """m(x, g) = a' grad g(x)."""

    def __init__(self, direction):
        a = np.array(direction, dtype=float)  # a copy, so the caller cannot edit it past the check
        if a.ndim != 1 or not np.all(np.isfinite(a)) or not np.any(a):
            raise SettingError("direction", "direction must be a finite nonzero vector, "
                                            f"got {a.tolist()}")
        a.setflags(write=False)
        self.direction = a

    def check_compatible(self, dictionary, data=None):
        if self.direction.shape[0] != dictionary.input_dim:
            raise ValueError("direction length does not match dictionary input_dim")
        if isinstance(dictionary, TreatmentInteractedDictionary):
            if self.direction[dictionary.treatment_index] != 0.0:
                raise ValueError(
                    "derivative direction touches the treatment coordinate of a "
                    "treatment-interacted dictionary"
                )

    def features(self, dictionary, X):
        self.check_compatible(dictionary)
        return dictionary.evaluate_rows(X), dictionary.directional_gradient_rows(X, self.direction)


class PolicyShift(Functional):
    """m(x, g) = g(S x + c) - g(x) for the affine transport x -> S x + c.

    The transport must map the data into the dictionary's valid domain;
    that is the caller's responsibility (relevant for Fourier dictionaries,
    which assume inputs in [-1, 1]).
    """

    def __init__(self, transport_matrix, shift):
        # copies, so the caller cannot edit them past the checks
        S = np.array(transport_matrix, dtype=float)
        c = np.array(shift, dtype=float)
        if S.ndim != 2 or S.shape[0] != S.shape[1] or not np.all(np.isfinite(S)):
            raise SettingError("transport_matrix", "transport_matrix must be a finite square "
                                                   f"matrix, got {S.tolist()}")
        if c.shape != S.shape[:1] or not np.all(np.isfinite(c)):
            raise SettingError("shift", f"shift must be a finite vector of length {S.shape[0]}, "
                                        f"got {c.tolist()}")
        S.setflags(write=False)
        c.setflags(write=False)
        self.transport_matrix = S
        self.shift = c

    def check_compatible(self, dictionary, data=None):
        if self.transport_matrix.shape[0] != dictionary.input_dim:
            raise ValueError("transport dimension does not match dictionary input_dim")

    def features(self, dictionary, X):
        self.check_compatible(dictionary)
        B = dictionary.evaluate_rows(X)  # validates X
        X = np.asarray(X, dtype=float)
        return B, dictionary.evaluate_rows(X @ self.transport_matrix.T + self.shift) - B


class AverageTreatmentEffect(Functional):
    """m((t, z), g) = g(1, z) - g(0, z) on a treatment-interacted dictionary."""

    def __init__(self, treatment_col=0):
        self.treatment_col = check_int("treatment_col", treatment_col, 0)

    def check_compatible(self, dictionary, data=None):
        if not isinstance(dictionary, TreatmentInteractedDictionary):
            raise ValueError("ATE functional requires a treatment-interacted dictionary")
        if dictionary.treatment_index != self.treatment_col:
            raise ValueError(
                "ATE treatment_col does not match the dictionary's treatment coordinate"
            )
        if data is not None:
            if data.treatment_col is None:
                raise ValueError("ATE functional requires the dataset's treatment_col to be set")
            if data.treatment_col != self.treatment_col:
                raise ValueError("ATE treatment_col does not match the dataset's treatment_col")

    def features(self, dictionary, X):
        self.check_compatible(dictionary)
        B = dictionary.evaluate_rows(X)  # (b_in, t b_in)
        p = B.shape[1] // 2
        contrast = np.zeros_like(B)
        contrast[:, p:] = B[:, :p]
        return B, contrast


def m_hat_vector(functional, dictionary, data, rows):
    """Sample average of m(X_i, b) over i in rows."""
    rows = np.asarray(rows, dtype=int)
    if rows.size == 0:
        raise ValueError("empty row index set")
    return functional.features(dictionary, data.covariates[rows])[1].mean(axis=0)
