import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetcheck.jets import Jet, coefficient, ordered_sum, series_mul, series_pow
from jetcheck.numeric import DomainError, ModeError, Scalar, generalized_binomial


def exact_jet(*values) -> Jet:
    return Jet([Scalar(Fraction(v)) for v in values])


def float_jet(*values) -> Jet:
    return Jet([Scalar.inexact(v) for v in values])


exact_scalars = st.fractions(max_denominator=50).map(Scalar)
exact_jets3 = st.lists(exact_scalars, min_size=4, max_size=4).map(Jet)


def test_variable_jets():
    assert Jet.variable(Scalar.exact(3), 2) == exact_jet(3, 1, 0)
    assert Jet.variable(Scalar.exact(0), 0) == exact_jet(0)
    assert Jet.variable(Scalar.exact(1, 2), 1) == exact_jet(Fraction(1, 2), 1)


def test_linear_arithmetic():
    assert exact_jet(1, 2) + exact_jet(3, 4) == exact_jet(4, 6)
    assert exact_jet(1, 2) - exact_jet(1, 2) == exact_jet(0, 0)
    assert exact_jet(1, 2) * 3 == exact_jet(3, 6)
    assert 3 * exact_jet(1, 2) == exact_jet(3, 6)
    assert -exact_jet(1, -2) == exact_jet(-1, 2)


def test_mul_examples():
    assert exact_jet(1, 1) * exact_jet(1, 1) == exact_jet(1, 2)
    assert exact_jet(3, 1, 0) * exact_jet(3, 1, 0) == exact_jet(9, 6, 1)
    anything = exact_jet(7, -2, Fraction(1, 3))
    assert anything * exact_jet(1, 0, 0) == anything


def test_pow_examples():
    assert exact_jet(3, 1, 0) ** 2 == exact_jet(9, 6, 1)
    assert exact_jet(5, -1, 2) ** 0 == exact_jet(1, 0, 0)
    assert exact_jet(0, 1, 0, 0) ** 3 == exact_jet(0, 0, 0, 1)


def test_ordered_sum_adds_left_to_right():
    # The built-in sum compensates float sums from Python 3.12 on and gives 1.0 here.
    assert ordered_sum([1e16, 1.0, -1e16]) == 0.0
    assert ordered_sum([]) == 0
    assert ordered_sum([Fraction(1, 3), Fraction(1, 6)]) == Fraction(1, 2)


def test_series_core_examples():
    a, b = [Fraction(3), Fraction(1), Fraction(0)], [Fraction(2), Fraction(-1), Fraction(5)]
    assert coefficient(a, b, 2) == 3 * 5 + 1 * -1 + 0 * 2
    assert series_mul(a, b) == [6, -1, 14]
    assert series_pow(a, 2) == [9, 6, 1]
    assert series_pow(a, 3) == series_mul(series_mul(a, a), a)


def test_power_zero_keeps_the_float_mode():
    unit = series_pow([2.5, 1.0, 0.0], 0)
    assert unit == [1.0, 0.0, 0.0] and all(type(v) is float for v in unit)
    assert type(series_pow([Fraction(5, 2), Fraction(1)], 0)[0]) is Fraction
    j = float_jet(2.5, 1.0, 0.0) ** 0
    assert not j.is_exact and j == float_jet(1.0, 0.0, 0.0)


@given(exact_jets3, st.integers(min_value=0, max_value=5))
@settings(max_examples=50, deadline=None)
def test_jet_power_is_repeated_product(a, m):
    expected = Jet.constant(Scalar.exact(1), a.order)
    for _ in range(m):
        expected = expected * a
    assert a ** m == expected


def test_pow_negative_goes_through_division():
    j = Jet.variable(Scalar.exact(2), 2) ** -1
    # 1/x at 2: value 1/2, derivative -1/4, second derivative 1/4 -> coeff 1/8
    assert j == exact_jet(Fraction(1, 2), Fraction(-1, 4), Fraction(1, 8))
    with pytest.raises(DomainError):
        Jet.variable(Scalar.exact(0), 2) ** -2


def test_div_examples():
    assert exact_jet(1, 0, 0) / exact_jet(1, 1, 0) == exact_jet(1, -1, 1)
    a = exact_jet(2, 5, -3)
    assert a / exact_jet(1, 0, 0) == a
    with pytest.raises(DomainError):
        exact_jet(1, 0) / exact_jet(0, 1)


def test_derivative_examples():
    assert exact_jet(9, 6, 1).derivative(2) == 2
    assert exact_jet(9, 6, 1).derivative(0) == 9
    # x^5 expanded at 3 to order 2: coefficients 243, 405, 270
    j = Jet.variable(Scalar.exact(3), 2) ** 5
    assert j.derivative(2) == 540
    with pytest.raises(DomainError):
        exact_jet(1, 2).derivative(2)


def test_structural_errors():
    with pytest.raises(ValueError):
        exact_jet(1, 2) + exact_jet(1, 2, 3)
    with pytest.raises(ModeError):
        exact_jet(1, 2) + float_jet(1.0, 2.0)
    with pytest.raises(ModeError):
        Jet([Scalar.exact(1), Scalar.inexact(2.0)])


@settings(deadline=None)
@given(exact_jets3, exact_jets3, exact_jets3)
def test_ring_laws_exact(a, b, c):
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(deadline=None)
@given(exact_jets3, exact_jets3)
def test_div_mul_roundtrip(a, b):
    if b.value == 0:
        with pytest.raises(DomainError):
            a / b
        return
    assert (a / b) * b == a


def test_exp_series():
    j = float_jet(0.0, 1.0, 0.0, 0.0).exp()
    assert [float(c) for c in j.coeffs] == [1.0, 1.0, 0.5, pytest.approx(1 / 6, rel=1e-15)]


def test_cos_series():
    j = float_jet(0.0, 1.0, 0.0).cos()
    assert [float(c) for c in j.coeffs] == [1.0, 0.0, -0.5]


def test_exp_log_roundtrip():
    a = float_jet(2.0, 1.0, -0.5, 0.25, 0.125)
    b = a.exp().log()
    for x, y in zip(b.coeffs, a.coeffs):
        assert abs(float(x) - float(y)) <= 1e-12 * max(1.0, abs(float(y)))


def test_sin_sq_plus_cos_sq_is_one():
    a = float_jet(0.7, 1.3, -0.2, 0.05)
    u = a.sin() * a.sin() + a.cos() * a.cos()
    assert abs(float(u.coeffs[0]) - 1.0) <= 1e-12
    for c in u.coeffs[1:]:
        assert abs(float(c)) <= 1e-12


def test_sqrt_matches_square():
    a = float_jet(4.0, 1.0, 0.25)
    r = a.sqrt()
    back = r * r
    for x, y in zip(back.coeffs, a.coeffs):
        assert abs(float(x) - float(y)) <= 1e-12 * max(1.0, abs(float(y)))


def test_exact_mode_rejects_transcendentals():
    j = Jet.variable(Scalar.exact(1), 2)
    for name in ("exp", "log", "sin", "cos", "sqrt"):
        with pytest.raises(ModeError):
            j.apply(name)
    with pytest.raises(ModeError):
        j.pow_real(Scalar.exact(5, 2))


def test_float_domain_errors():
    with pytest.raises(DomainError):
        float_jet(-1.0, 1.0).log()
    with pytest.raises(DomainError):
        float_jet(0.0, 1.0).sqrt()
    with pytest.raises(DomainError):
        float_jet(-2.0, 1.0).pow_real(Scalar.inexact(0.5))


def test_pow_real_matches_generalized_binomial():
    alpha = Scalar.exact(5, 2)
    j = Jet.variable(Scalar.inexact(1.0), 2).pow_real(alpha)
    assert [float(c) for c in j.coeffs] == [1.0, 2.5, 1.875]
    for s in range(3):
        want = float(generalized_binomial(alpha, s).value) * math.factorial(s)
        assert float(j.derivative(s)) == pytest.approx(want, rel=1e-14)


def test_pow_real_integer_exponent_delegates():
    j = Jet.variable(Scalar.exact(3), 2).pow_real(Scalar.exact(2))
    assert j == exact_jet(9, 6, 1)
    # works at negative points because no log is involved
    j = Jet.variable(Scalar.inexact(-1.0), 1).pow_real(Scalar.inexact(2.0))
    assert [float(c) for c in j.coeffs] == [1.0, -2.0]
