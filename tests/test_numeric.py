from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from jetcheck.numeric import (
    DomainError,
    ModeError,
    MultiIndex,
    Scalar,
    compositions,
    generalized_binomial,
    multinomial,
)


class TestScalar:
    def test_modes(self):
        assert Scalar.exact(3).mode == "exact"
        assert Scalar.inexact(3).mode == "float"
        assert Scalar(Fraction(1, 2)).is_exact
        assert not Scalar(0.5).is_exact

    def test_normalization(self):
        s = Scalar.exact(6, 4)
        assert s.value == Fraction(3, 2)
        assert Scalar.exact(0, 7).as_ratio_text() == "0/1"
        assert Scalar.exact(-2, -4).value == Fraction(1, 2)

    def test_mixing_raises(self):
        with pytest.raises(ModeError):
            Scalar.exact(1) + Scalar.inexact(1.0)
        with pytest.raises(ModeError):
            Scalar.inexact(2.0) * Scalar.exact(1, 3)
        with pytest.raises(ModeError):
            Scalar.exact(1) < Scalar.inexact(2.0)

    def test_mixed_equality_is_false_not_an_error(self):
        assert Scalar.exact(2) != Scalar.inexact(2.0)

    def test_int_operands_lift_into_either_mode(self):
        assert Scalar.exact(1, 2) + 1 == Scalar.exact(3, 2)
        assert 2 * Scalar.inexact(0.5) == Scalar.inexact(1.0)
        assert Scalar.exact(1) - 3 == Scalar.exact(-2)
        assert 1 / Scalar.exact(4) == Scalar.exact(1, 4)

    def test_pow(self):
        assert Scalar.exact(2, 3) ** 2 == Scalar.exact(4, 9)
        assert Scalar.exact(2) ** -1 == Scalar.exact(1, 2)
        assert Scalar.exact(0) ** 0 == 1
        assert Scalar.inexact(0.0) ** 0 == Scalar.inexact(1.0)

    def test_to_float_is_explicit(self):
        assert Scalar.exact(1, 4).to_float() == Scalar.inexact(0.25)

    def test_text_forms(self):
        assert Scalar.exact(3).as_text() == "3"
        assert Scalar.exact(-3, 4).as_text() == "-3/4"
        assert Scalar.exact(3).as_ratio_text() == "3/1"
        assert Scalar.inexact(0.1).as_ratio_text() == "0.1"

    def test_text_forms_beyond_the_int_to_str_digit_limit(self):
        big = 10 ** 5000
        assert Scalar.exact(-big).as_text() == "-1" + "0" * 5000
        assert Scalar.exact(3, big).as_text() == "3/1" + "0" * 5000
        assert Scalar.exact(big, 7).as_ratio_text() == "1" + "0" * 5000 + "/7"

    @given(st.fractions(), st.fractions(), st.fractions())
    def test_field_axioms_exact(self, a, b, c):
        sa, sb, sc = Scalar(a), Scalar(b), Scalar(c)
        assert (sa + sb) + sc == sa + (sb + sc)
        assert sa + sb == sb + sa
        assert (sa * sb) * sc == sa * (sb * sc)
        assert sa * (sb + sc) == sa * sb + sa * sc
        if c != 0:
            assert (sa / sc) * sc == sa


class TestMultiIndex:
    def test_weight_and_access(self):
        k = MultiIndex((1, 0, 2))
        assert k.weight == 3
        assert len(k) == 3
        assert k[2] == 2
        assert list(k) == [1, 0, 2]

    def test_rejects_bad_entries(self):
        with pytest.raises(ValueError):
            MultiIndex((1, -1))
        with pytest.raises(ValueError):
            MultiIndex(())


def test_multinomial_examples():
    assert multinomial(3, (1, 1, 1)) == 6
    assert multinomial(4, (2, 1)) == 12
    assert multinomial(5, (5,)) == 1


def test_multinomial_overweight_rejected():
    with pytest.raises(DomainError):
        multinomial(2, (2, 1))


def test_compositions_examples():
    assert [tuple(k) for k in compositions(2, 2)] == [(0, 2), (1, 1), (2, 0)]
    assert [tuple(k) for k in compositions(0, 3)] == [(0, 0, 0)]
    assert len(list(compositions(5, 3))) == 21


def test_compositions_are_lexicographic_and_counted():
    import math

    for n in range(0, 7):
        for r in range(1, 5):
            seq = [tuple(k) for k in compositions(n, r)]
            assert seq == sorted(seq)
            assert len(set(seq)) == len(seq)
            assert len(seq) == math.comb(n + r - 1, r - 1)
            assert all(sum(k) == n for k in seq)


def test_multinomial_theorem_row_sums():
    # Summing the coefficients over all compositions counts the functions
    # from an n-set to an r-set.
    for n in range(0, 13):
        for r in range(1, 5):
            total = Scalar.exact(0)
            for k in compositions(n, r):
                total = total + multinomial(n, k)
            assert total == r ** n


def test_generalized_binomial_examples():
    assert generalized_binomial(Scalar.exact(5, 2), 2) == Scalar.exact(15, 8)
    assert generalized_binomial(Scalar.exact(7, 13), 0) == 1
    assert generalized_binomial(Scalar.exact(-1), 3) == -1


def test_generalized_binomial_matches_multinomial_on_integers():
    for m in range(0, 9):
        for s in range(0, m + 1):
            assert generalized_binomial(Scalar.exact(m), s) == multinomial(m, (s,))


def test_generalized_binomial_float_mode():
    got = generalized_binomial(Scalar.inexact(2.5), 2)
    assert not got.is_exact
    assert float(got) == 1.875
