"""Float dot products of the series core and the kernel add left to right.

``coefficient``, ``series_mul``, ``identities._powers`` and
``identities._binomial_convolution`` add exact terms with the built-in
``sum``, which compensates float sums from Python 3.12 on, and float terms
left to right from the integer 0.  A pair of lists is float when either one
holds floats, as when one is an int list such as the unit [1, 0, 0].  In each
case below the compensated sum (``math.fsum``) of the terms differs from the
left-to-right one, so on Python 3.12 and later a float pair sent to ``sum``
fails these checks.

The module needs no pytest: ``python tests/test_float_order.py`` runs the
same checks on interpreters that have none.
"""

from __future__ import annotations

import math
import operator
from functools import reduce

from helpers import float_bits, reference_powers, reference_series_mul
from jetcheck.identities import _binomial_convolution, _powers
from jetcheck.jets import coefficient, series_mul

# Left to right these sum to 0.0, compensated to 1.0.
TERMS = [1e16, 1.0, -1e16]
ONES = [1.0, 1.0, 1.0]


def left_to_right(terms):
    return reduce(operator.add, terms, 0)


def test_the_terms_tell_the_two_orders_apart():
    assert left_to_right(TERMS) == 0.0 and math.fsum(TERMS) == 1.0


def test_cauchy_products_add_left_to_right():
    # entry 2 of each product is a[0] b[2] + a[1] b[1] + a[2] b[0], the TERMS in order
    back = TERMS[::-1]
    pairs = [(TERMS, ONES), (ONES, back), ([1, 1, 1], back), (TERMS, [1, 1, 1]),
             ([1, 0, 0], TERMS), (TERMS, [1, 0, 0])]
    for a, b in pairs:
        terms = [a[j] * b[2 - j] for j in range(3)]
        assert float_bits([coefficient(a, b, 2)]) == float_bits([left_to_right(terms)])
        assert float_bits(series_mul(a, b)) == float_bits(reference_series_mul(a, b))
    assert coefficient(ONES, back, 2) == 0.0 and coefficient([1, 1, 1], back, 2) == 0.0


def test_powers_add_left_to_right():
    # [t^2] g^2 = 1 + 1e16 + 1: 1e16 left to right, 1e16 + 2 compensated
    g = [1.0, 1e8, 1.0]
    powers = _powers(g, 3)
    assert [float_bits(p) for p in powers] == [float_bits(p) for p in reference_powers(g, 3)]
    assert powers[2][2] == 1e16 != math.fsum([1.0, 1e16, 1.0])
    assert powers[0] == [1, 0, 0] and powers[0][0].__class__ is int


def test_binomial_convolutions_add_left_to_right():
    # entry 2 is C(2,0) a0 b2 + C(2,1) a1 b1 + C(2,2) a2 b0, the TERMS in order
    rows = [[1], [1, 1], [1, 2, 1]]
    half = [1e16, 0.5, -1e16]
    for a, b in ((half, ONES), (ONES, half[::-1]), ([1, 1, 1], half[::-1]), ([1, 0, 0], TERMS)):
        want = [left_to_right(rows[m][j] * a[j] * b[m - j] for j in range(m + 1))
                for m in range(3)]
        assert float_bits(_binomial_convolution(a, b, rows, range(3))) == float_bits(want)
        if a[1] != 0:
            assert want[2] == 0.0


if __name__ == "__main__":
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            test()
    print("ok")
