import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rieszdml import (
    Dataset,
    FourierDictionary,
    IdentityDictionary,
    PolynomialDictionary,
    TreatmentInteractedDictionary,
    design_matrix,
    load_csv,
)
from rieszdml import rmd
from rieszdml.dictionaries import SettingError

from oracles import (
    PerTermFourierDictionary,
    PerTermPolynomialDictionary,
    fd_jacobian,
    jacobian,
)


def all_kinds():
    inner = PolynomialDictionary(2, degree=2)
    return [
        PolynomialDictionary(3, degree=2),
        PolynomialDictionary(3, degree=3, with_interactions=True),
        FourierDictionary(2, order=2),
        IdentityDictionary(4),
        TreatmentInteractedDictionary(inner, treatment_index=0),
    ]


def dic_id(dic):
    """Test id from the class name: FourierDictionary(2, order=2) -> fourier9."""
    words = re.findall(r"[A-Z][a-z]*", type(dic).__name__)[:-1]
    return "_".join(words).lower() + str(dic.output_dim)


def test_polynomial_evaluate_1d():
    dic = PolynomialDictionary(1, degree=2)
    np.testing.assert_allclose(dic.evaluate_rows(np.array([[2.0]]))[0], [1.0, 2.0, 4.0])


def test_fourier_evaluate_at_zero():
    dic = FourierDictionary(1, order=1)
    np.testing.assert_allclose(dic.evaluate_rows(np.array([[0.0]]))[0], [1.0, 1.0, 0.0])


def test_identity_evaluate():
    dic = IdentityDictionary(3)
    x = np.array([0.5, -1.0, 2.0])
    np.testing.assert_allclose(dic.evaluate_rows(x[None])[0], x)


def test_polynomial_gradient_1d():
    dic = PolynomialDictionary(1, degree=2)
    g = jacobian(dic, np.array([2.0]))
    np.testing.assert_allclose(g[:, 0], [0.0, 1.0, 4.0])


def test_fourier_gradient_at_zero():
    dic = FourierDictionary(1, order=1)
    g = jacobian(dic, np.array([0.0]))
    np.testing.assert_allclose(g[:, 0], [0.0, 0.0, np.pi], atol=1e-15)


def test_constant_rows_have_zero_gradient():
    for dic in all_kinds():
        if isinstance(dic, IdentityDictionary):
            continue
        x = np.full(dic.input_dim, 0.3)
        if isinstance(dic, TreatmentInteractedDictionary):
            x[dic.treatment_index] = 1.0
        g = jacobian(dic, x)
        np.testing.assert_allclose(g[0], 0.0)


@pytest.mark.parametrize("dic", all_kinds(), ids=dic_id)
def test_gradient_matches_finite_differences(dic):
    rng = np.random.default_rng(5)
    for _ in range(5):
        x = rng.uniform(-0.9, 0.9, size=dic.input_dim)
        cols = list(range(dic.input_dim))
        if isinstance(dic, TreatmentInteractedDictionary):
            x[dic.treatment_index] = 1.0
            cols.remove(dic.treatment_index)
        g = jacobian(dic, x)
        fd = fd_jacobian(lambda v: dic.evaluate_rows(v[None])[0], x, h=1e-5)
        tol = 1e-4 * (1.0 + np.abs(g).max())
        assert np.abs(g[:, cols] - fd[:, cols]).max() <= tol
        if isinstance(dic, TreatmentInteractedDictionary):
            # derivative in the treatment coordinate is zero by convention
            np.testing.assert_allclose(g[:, dic.treatment_index], 0.0)


@pytest.mark.parametrize("dic", all_kinds(), ids=dic_id)
def test_directional_rows_match_gradient(dic):
    rng = np.random.default_rng(11)
    X = rng.uniform(-0.9, 0.9, size=(6, dic.input_dim))
    if isinstance(dic, TreatmentInteractedDictionary):
        X[:, dic.treatment_index] = [0.0, 1.0, 1.0, 0.0, 1.0, 0.0]
    for _ in range(3):
        a = rng.standard_normal(dic.input_dim)  # the treatment component is nonzero too
        rows = dic.directional_gradient_rows(X, a)
        for i in range(X.shape[0]):
            np.testing.assert_allclose(rows[i], jacobian(dic, X[i]) @ a,
                                       rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("dic", all_kinds(), ids=dic_id)
def test_output_dim_consistency(dic):
    x = np.full(dic.input_dim, 0.25)
    assert dic.evaluate_rows(x[None])[0].shape == (dic.output_dim,)
    assert jacobian(dic, x).shape == (dic.output_dim, dic.input_dim)
    X = np.tile(x, (4, 1))
    assert dic.evaluate_rows(X).shape == (4, dic.output_dim)


def test_polynomial_output_dim_formula():
    d, deg = 4, 3
    assert PolynomialDictionary(d, deg).output_dim == 1 + d * deg
    assert (PolynomialDictionary(d, deg, with_interactions=True).output_dim
            == 1 + d * deg + d * (d - 1) // 2)
    assert FourierDictionary(d, 2).output_dim == 1 + 2 * d * 2
    inner = PolynomialDictionary(3, degree=1)
    assert TreatmentInteractedDictionary(inner).output_dim == 2 * inner.output_dim
    with pytest.raises(ValueError):  # pairwise interactions need degree >= 2
        PolynomialDictionary(2, degree=1, with_interactions=True)


@pytest.mark.parametrize("build, field", [
    (lambda: PolynomialDictionary(0, degree=1), "input_dim"),
    (lambda: PolynomialDictionary(2, degree=-1), "degree"),
    (lambda: PolynomialDictionary(2, degree=1, with_interactions=True), "with_interactions"),
    (lambda: FourierDictionary(-1, order=1), "input_dim"),
    (lambda: FourierDictionary(2, order=0), "order"),
    (lambda: IdentityDictionary(0), "input_dim"),
    (lambda: TreatmentInteractedDictionary(IdentityDictionary(2), treatment_index=3),
     "treatment_index"),
], ids=["polynomial_input_dim", "degree", "with_interactions", "fourier_input_dim", "order",
        "identity_input_dim", "treatment_index"])
def test_constructor_names_the_parameter_out_of_range(build, field):
    with pytest.raises(SettingError) as info:
        build()
    assert info.value.field == field and isinstance(info.value, ValueError)


def test_setting_error_has_one_class_under_both_names():
    assert rmd.SettingError is SettingError


def test_first_element_is_constant():
    X = np.random.default_rng(0).uniform(-1, 1, size=(6, 2))
    np.testing.assert_allclose(PolynomialDictionary(2, 2).evaluate_rows(X)[:, 0], 1.0)
    np.testing.assert_allclose(FourierDictionary(2, 1).evaluate_rows(X)[:, 0], 1.0)


def test_treatment_interacted_layout():
    inner = PolynomialDictionary(1, degree=1)  # (1, z)
    dic = TreatmentInteractedDictionary(inner, treatment_index=0)
    np.testing.assert_allclose(dic.evaluate_rows(np.array([[1.0, 0.5]]))[0], [1.0, 0.5, 1.0, 0.5])
    np.testing.assert_allclose(dic.evaluate_rows(np.array([[0.0, 0.5]]))[0], [1.0, 0.5, 0.0, 0.0])


_ENTRIES = st.floats(-10.0, 10.0) | st.sampled_from([0.0, -0.0, 1.0, -1.0])
_BINARY = st.sampled_from([0.0, 1.0])


@st.composite
def block_and_per_term(draw):
    """A block-written dictionary and its per-term reference, both maybe treatment-interacted."""
    d = draw(st.integers(1, 4))
    if draw(st.booleans()):
        degree = draw(st.integers(0, 4))
        pairs = degree >= 2 and draw(st.booleans())
        dics = [PolynomialDictionary(d, degree, pairs), PerTermPolynomialDictionary(d, degree, pairs)]
    else:
        order = draw(st.integers(1, 4))
        dics = [FourierDictionary(d, order), PerTermFourierDictionary(d, order)]
    if draw(st.booleans()):
        t = draw(st.integers(0, d))
        dics = [TreatmentInteractedDictionary(dic, treatment_index=t) for dic in dics]
    return dics


def _same_bits(a, b):
    # array_equal alone would let -0.0 stand for +0.0
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


@settings(max_examples=300, deadline=None)
@given(dics=block_and_per_term(), data=st.data())
def test_block_dictionaries_match_per_term_reference(dics, data):
    block, ref = dics
    assert block.output_dim == ref.output_dim
    d = block.input_dim
    X = data.draw(arrays(float, (data.draw(st.integers(1, 5)), d), elements=_ENTRIES))
    if isinstance(block, TreatmentInteractedDictionary):
        X[:, block.treatment_index] = data.draw(arrays(float, len(X), elements=_BINARY))
    a = data.draw(arrays(float, d, elements=_ENTRIES))
    assert _same_bits(block.evaluate_rows(X), ref.evaluate_rows(X))
    assert _same_bits(block.directional_gradient_rows(X, a), ref.directional_gradient_rows(X, a))


def test_evaluate_rejects_bad_input():
    dic = PolynomialDictionary(2, degree=1)
    with pytest.raises(ValueError):
        dic.evaluate_rows(np.array([[1.0]]))
    with pytest.raises(ValueError):
        dic.evaluate_rows(np.array([[1.0, np.nan]]))
    with pytest.raises(ValueError):
        dic.directional_gradient_rows(np.array([[1.0, 2.0, 3.0]]), np.ones(3))


# -- design matrices ----------------------------------------------------------

def _dataset(X, y=None, treatment_col=None):
    if y is None:
        y = np.zeros(X.shape[0])
    return Dataset(y, X, treatment_col)


def test_design_matrix_identity():
    data = _dataset(np.array([[1.0, 0.0], [0.0, 1.0]]))
    D = design_matrix(IdentityDictionary(2), data, [0, 1])
    np.testing.assert_allclose(D, np.eye(2))


def test_design_matrix_polynomial():
    data = _dataset(np.array([[1.0], [2.0]]))
    D = design_matrix(PolynomialDictionary(1, 2), data, [0, 1])
    np.testing.assert_allclose(D, [[1.0, 1.0, 1.0], [1.0, 2.0, 4.0]])


def test_design_matrix_row_count_and_stacking():
    rng = np.random.default_rng(2)
    data = _dataset(rng.standard_normal((10, 3)))
    dic = PolynomialDictionary(3, 2, with_interactions=True)
    rows1, rows2 = np.arange(4), np.arange(4, 10)
    full = design_matrix(dic, data, np.arange(10))
    assert full.shape == (10, dic.output_dim)
    stacked = np.vstack([design_matrix(dic, data, rows1), design_matrix(dic, data, rows2)])
    np.testing.assert_allclose(full, stacked)


def test_design_matrix_empty_rows():
    data = _dataset(np.zeros((3, 2)))
    with pytest.raises(ValueError):
        design_matrix(IdentityDictionary(2), data, [])


# -- Dataset ------------------------------------------------------------------

def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(np.array([1.0]), np.array([[1.0]]))  # n < 2
    with pytest.raises(ValueError):
        Dataset(np.array([1.0, np.inf]), np.ones((2, 1)))
    with pytest.raises(ValueError):
        Dataset(np.zeros(2), np.array([[0.5], [0.0]]), treatment_col=0)
    ds = Dataset(np.zeros(2), np.array([[1.0], [0.0]]), treatment_col=0)
    assert ds.n == 2 and ds.d == 1
    with pytest.raises(ValueError):
        ds.covariates[0, 0] = 5.0  # immutable


@pytest.mark.parametrize("outcome, covariates, treatment_col, message", [
    (np.zeros(2), np.zeros(2), None, "covariates must be a 2-d array"),
    (np.zeros(3), np.zeros((2, 1)), None, "outcome and covariates disagree on n"),
    (np.zeros(2), np.zeros((2, 1)), 1, "treatment_col out of range"),
], ids=["covariates_1d", "n_mismatch", "treatment_col_out_of_range"])
def test_dataset_rejects_malformed_arrays(outcome, covariates, treatment_col, message):
    with pytest.raises(ValueError, match=message):
        Dataset(outcome, covariates, treatment_col)


def test_standardize_skips_treatment_column():
    rng = np.random.default_rng(0)
    Z = 3.0 * rng.standard_normal(50)
    D = (rng.random(50) < 0.5).astype(float)
    ds = Dataset(rng.standard_normal(50), np.column_stack([D, Z]), treatment_col=0)
    out = ds.standardized()
    assert np.allclose(out.covariates[:, 1].std(ddof=1), 1.0)
    np.testing.assert_allclose(out.covariates[:, 0], D)


# -- CSV ingestion --------------------------------------------------------------

def test_load_csv_roundtrip(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("y,x1,d,x2\n1.5,0.2,1,3.0\n-0.5,0.1,0,2.0\n2.5,0.0,1,1.0\n")
    ds = load_csv(path, outcome="y", treatment="d")
    assert ds.n == 3 and ds.d == 3
    assert ds.treatment_col == 1  # column order preserved minus the outcome
    np.testing.assert_allclose(ds.outcome, [1.5, -0.5, 2.5])
    np.testing.assert_allclose(ds.covariates[:, 1], [1.0, 0.0, 1.0])
    assert ds.covariate_names == ("x1", "d", "x2")


def test_load_csv_missing_column(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("y,x\n1,2\n3,4\n")
    with pytest.raises(SettingError) as info:
        load_csv(path, outcome="nope")
    assert info.value.field == "outcome"
    with pytest.raises(SettingError) as info:
        load_csv(path, outcome="y", treatment="nope")
    assert info.value.field == "treatment"


def test_load_csv_non_numeric_cell(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("y,x\n1,2\n3,oops\n")
    with pytest.raises(ValueError, match="non-numeric"):
        load_csv(path, outcome="y")


def test_load_csv_standardize(tmp_path):
    path = tmp_path / "data.csv"
    rng = np.random.default_rng(1)
    rows = "\n".join(f"{rng.normal()},{5 * rng.normal()}" for _ in range(40))
    path.write_text("y,x\n" + rows + "\n")
    ds = load_csv(path, outcome="y", standardize=True)
    assert np.isclose(ds.covariates[:, 0].std(ddof=1), 1.0)
