import numpy as np
import pytest

from rieszdml import (
    AverageDerivative,
    AverageTreatmentEffect,
    Dataset,
    FourierDictionary,
    IdentityDictionary,
    PolicyShift,
    PolynomialDictionary,
    TreatmentInteractedDictionary,
    m_hat_vector,
)
from rieszdml.dictionaries import SettingError


def ate_dictionary():
    return TreatmentInteractedDictionary(PolynomialDictionary(1, degree=1))


def test_average_derivative_equals_gradient_column():
    dic = PolynomialDictionary(1, degree=2)
    f = AverageDerivative(np.array([1.0]))
    np.testing.assert_allclose(f.features(dic, [[2.0]])[1][0], [0.0, 1.0, 4.0])


def test_policy_shift_identity_is_zero():
    for dic in [PolynomialDictionary(2, 2), FourierDictionary(2, 1), IdentityDictionary(2)]:
        f = PolicyShift(np.eye(2), np.zeros(2))
        x = np.array([0.3, -0.4])
        np.testing.assert_allclose(f.features(dic, [x])[1][0], 0.0)


def test_ate_componentwise_difference():
    dic = ate_dictionary()  # b(t, z) = (1, z, t, tz)
    f = AverageTreatmentEffect(0)
    np.testing.assert_allclose(
        f.features(dic, [[1.0, 0.5]])[1][0], [0.0, 0.0, 1.0, 0.5]
    )


def test_ate_matches_direct_evaluation():
    dic = TreatmentInteractedDictionary(PolynomialDictionary(2, degree=2))
    f = AverageTreatmentEffect(0)
    rng = np.random.default_rng(3)
    for _ in range(5):
        z = rng.standard_normal(2)
        x = np.concatenate([[1.0], z])
        direct = (dic.evaluate_rows(np.concatenate([[1.0], z])[None])[0]
                  - dic.evaluate_rows(np.concatenate([[0.0], z])[None])[0])
        np.testing.assert_allclose(f.features(dic, [x])[1][0], direct)


def test_m_hat_vector_single_row():
    dic = PolynomialDictionary(1, degree=2)
    f = AverageDerivative(np.array([1.0]))
    data = Dataset(np.zeros(2), np.array([[2.0], [0.0]]))
    np.testing.assert_allclose(
        m_hat_vector(f, dic, data, [0]), f.features(dic, [[2.0]])[1][0]
    )


def test_m_hat_vector_policy_identity_zero():
    dic = PolynomialDictionary(2, degree=2)
    f = PolicyShift(np.eye(2), np.zeros(2))
    data = Dataset(np.zeros(5), np.random.default_rng(0).standard_normal((5, 2)))
    np.testing.assert_allclose(m_hat_vector(f, dic, data, np.arange(5)), 0.0)


def test_m_hat_vector_average():
    dic = PolynomialDictionary(1, degree=2)
    f = AverageDerivative(np.array([1.0]))
    data = Dataset(np.zeros(2), np.array([[0.0], [2.0]]))
    np.testing.assert_allclose(m_hat_vector(f, dic, data, [0, 1]), [0.0, 1.0, 2.0])


def test_m_hat_vector_empty_rows():
    dic = PolynomialDictionary(1, degree=1)
    f = AverageDerivative(np.array([1.0]))
    data = Dataset(np.zeros(2), np.zeros((2, 1)))
    with pytest.raises(ValueError):
        m_hat_vector(f, dic, data, [])


def test_m_of_gamma_zero_beta():
    dic = PolynomialDictionary(2, degree=2)
    f = PolicyShift(np.eye(2), np.array([0.5, 0.0]))
    assert f.features(dic, [[0.1, 0.2]])[1][0] @ np.zeros(dic.output_dim) == 0.0


def test_m_of_gamma_ate_reads_tau():
    dic = ate_dictionary()
    f = AverageTreatmentEffect(0)
    tau = 2.5
    beta = np.array([0.0, 0.0, tau, 0.0])
    assert f.features(dic, [[0.0, 0.5]])[1][0] @ beta == pytest.approx(tau)


def test_m_of_gamma_derivative_of_square():
    dic = PolynomialDictionary(1, degree=2)
    f = AverageDerivative(np.array([1.0]))
    beta = np.array([0.0, 0.0, 1.0])  # gamma(x) = x^2
    assert f.features(dic, [[2.0]])[1][0] @ beta == pytest.approx(4.0)


def test_linearity_in_beta():
    rng = np.random.default_rng(7)
    dic = PolynomialDictionary(3, degree=2, with_interactions=True)
    fs = [
        AverageDerivative(np.array([1.0, -2.0, 0.5])),
        PolicyShift(0.9 * np.eye(3), np.array([0.1, 0.0, -0.2])),
    ]
    for f in fs:
        for _ in range(10):
            x = rng.standard_normal(3)
            b1, b2 = rng.standard_normal((2, dic.output_dim))
            c1, c2 = rng.standard_normal(2)
            m = f.features(dic, [x])[1][0]
            lhs = m @ (c1 * b1 + c2 * b2)
            rhs = c1 * (m @ b1) + c2 * (m @ b2)
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("dic", [PolynomialDictionary(2, 3), FourierDictionary(2, 2)],
                         ids=["poly", "fourier"])
def test_average_derivative_is_policy_shift_limit(dic):
    rng = np.random.default_rng(11)
    a = np.array([0.7, -0.4])
    eps = 1e-4
    f_deriv = AverageDerivative(a)
    f_shift = PolicyShift(np.eye(2), eps * a)
    for _ in range(5):
        x = rng.uniform(-0.8, 0.8, size=2)
        m_d = f_deriv.features(dic, [x])[1][0]
        m_s = f_shift.features(dic, [x])[1][0] / eps
        scale = 1.0 + np.abs(m_d).max()
        assert np.abs(m_s - m_d).max() <= 1e-2 * scale


def test_compatibility_errors():
    with pytest.raises(ValueError):
        AverageDerivative(np.zeros(2))  # zero direction
    dic = ate_dictionary()
    f = AverageDerivative(np.array([1.0, 0.0]))  # touches treatment coordinate
    with pytest.raises(ValueError):
        f.features(dic, np.array([[1.0, 0.5]]))
    f_ok = AverageDerivative(np.array([0.0, 1.0]))
    f_ok.features(dic, np.array([[1.0, 0.5]]))  # z-direction is fine
    with pytest.raises(ValueError):
        AverageTreatmentEffect(0).check_compatible(PolynomialDictionary(2, 1))
    data = Dataset(np.zeros(2), np.array([[1.0, 0.1], [0.0, 0.2]]))  # no treatment_col
    with pytest.raises(ValueError):
        AverageTreatmentEffect(0).check_compatible(dic, data)
    with pytest.raises(ValueError):
        PolicyShift(np.eye(3), np.zeros(3)).check_compatible(PolynomialDictionary(2, 1))
    with pytest.raises(ValueError):
        AverageDerivative(np.ones(3)).check_compatible(PolynomialDictionary(2, 1))


def test_ate_rejects_a_treatment_column_that_the_dictionary_or_data_do_not_share():
    dic = TreatmentInteractedDictionary(PolynomialDictionary(1, degree=1), treatment_index=1)
    with pytest.raises(ValueError, match="dictionary's treatment coordinate"):
        AverageTreatmentEffect(0).check_compatible(dic)
    data = Dataset(np.zeros(2), np.array([[1.0, 0.1], [0.0, 0.2]]), treatment_col=0)
    with pytest.raises(ValueError, match="dataset's treatment_col"):
        AverageTreatmentEffect(1).check_compatible(dic, data)


@pytest.mark.parametrize("treatment_index", [0, 1, 3], ids=["first", "middle", "last"])
@pytest.mark.parametrize("inner", [PolynomialDictionary(3, 2, with_interactions=True),
                                   FourierDictionary(3, 2), IdentityDictionary(3)],
                         ids=["poly", "fourier", "identity"])
def test_ate_features_match_two_evaluations_bit_for_bit(inner, treatment_index):
    dic = TreatmentInteractedDictionary(inner, treatment_index)
    rng = np.random.default_rng(5)
    X = rng.uniform(-1.0, 1.0, size=(50, 4))
    X[:, treatment_index] = rng.random(50) < 0.5
    X1, X0 = X.copy(), X.copy()
    X1[:, treatment_index] = 1.0
    X0[:, treatment_index] = 0.0
    B, Mx = AverageTreatmentEffect(treatment_index).features(dic, X)
    b_in = inner.evaluate_rows(np.delete(X, treatment_index, axis=1))
    np.testing.assert_array_equal(B, np.hstack([b_in, X[:, [treatment_index]] * b_in]))
    np.testing.assert_array_equal(B, dic.evaluate_rows(X))
    np.testing.assert_array_equal(Mx, dic.evaluate_rows(X1) - dic.evaluate_rows(X0))


@pytest.mark.parametrize("functional, dic", [
    (AverageDerivative([0.5, -1.0, 0.0]), PolynomialDictionary(3, 3, with_interactions=True)),
    (AverageDerivative([0.0, 0.5, -1.0]), TreatmentInteractedDictionary(FourierDictionary(2, 2))),
    (PolicyShift(0.5 * np.eye(3), [0.1, 0.0, -0.2]), FourierDictionary(3, 2)),
    (PolicyShift(np.eye(3)[::-1], [0.1, 0.0, -0.2]), IdentityDictionary(3)),
    (AverageTreatmentEffect(0), TreatmentInteractedDictionary(PolynomialDictionary(2, 2))),
], ids=["derivative_poly", "derivative_interacted_fourier", "shift_fourier", "shift_identity",
        "ate_poly"])
def test_features_keep_the_column_major_layout(functional, dic):
    # b(X) and m(X, b) stay Fortran-ordered like the dictionary's own arrays, so the
    # fold Grams and column sums read contiguous columns
    X = np.random.default_rng(9).uniform(-1.0, 1.0, size=(6, 3))
    X[:, 0] = [0.0, 1.0, 1.0, 0.0, 1.0, 0.0]
    B, Mx = functional.features(dic, X)
    assert B.shape == Mx.shape == (6, dic.output_dim)
    assert B.flags.f_contiguous and Mx.flags.f_contiguous
    np.testing.assert_array_equal(B, dic.evaluate_rows(X))


@pytest.mark.parametrize("build, field", [
    (lambda: AverageDerivative([0.0, 0.0]), "direction"),
    (lambda: AverageDerivative([np.nan, 1.0]), "direction"),
    (lambda: PolicyShift(np.ones((2, 3)), np.zeros(2)), "transport_matrix"),
    (lambda: PolicyShift(np.full((2, 2), np.inf), np.zeros(2)), "transport_matrix"),
    (lambda: PolicyShift(np.eye(2), np.zeros(3)), "shift"),
    (lambda: PolicyShift(np.eye(2), [np.nan, 0.0]), "shift"),
], ids=["direction_zero", "direction_nan", "transport_not_square", "transport_inf",
        "shift_length", "shift_nan"])
def test_constructor_names_the_parameter_out_of_range(build, field):
    with pytest.raises(SettingError) as info:
        build()
    assert info.value.field == field


def test_constructor_copies_and_freezes_its_parameter_arrays():
    # a later write to the caller's array cannot get round the constructor's checks
    direction, S, c = np.array([1.0, 0.0]), np.eye(2), np.zeros(2)
    f, g = AverageDerivative(direction), PolicyShift(S, c)
    direction[:] = 0.0
    S[:] = np.nan
    c[:] = np.nan
    np.testing.assert_array_equal(f.direction, [1.0, 0.0])
    np.testing.assert_array_equal(g.transport_matrix, np.eye(2))
    np.testing.assert_array_equal(g.shift, np.zeros(2))
    assert not any(a.flags.writeable for a in (f.direction, g.transport_matrix, g.shift))


def test_average_derivative_direction_near_float_max_builds_without_a_warning():
    # the zero test must not square the entries: 1e300 ** 2 overflows (zero: ``direction_zero``)
    np.testing.assert_array_equal(AverageDerivative([1e300, 0.0]).direction, [1e300, 0.0])
