import hashlib
import math
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    float_bits,
    reference_exp,
    reference_log,
    reference_pow_real,
    reference_powers,
    reference_series_mul,
    reference_series_pow,
    reference_sin_cos,
    reference_sqrt,
)
from jetcheck.identities import _powers
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


@pytest.mark.parametrize("a", [[3, -1, 0, 2], [Fraction(3, 2), Fraction(-1, 3), 0, Fraction(2)]],
                         ids=["int", "Fraction"])
def test_exact_power_is_the_m_fold_product_in_a_fresh_list(a):
    original, want = list(a), [1, 0, 0, 0]
    for m in range(10):
        got = series_pow(a, m)
        assert got == want and got is not a
        got[0] = 99
        assert a == original
        want = series_mul(want, a)
    assert series_pow(tuple(a), 1) == a


def _unit_first_pow(a: list, m: int) -> list:
    """Square-and-multiply from the float unit, multiplying by it first."""
    result = [1.0] + [0.0] * (len(a) - 1)
    while m > 0:
        if m & 1:
            result = series_mul(result, a)
        m >>= 1
        if m:
            a = series_mul(a, a)
    return result


def test_float_powers_keep_the_product_by_the_unit():
    # The unit product turns -0.0 into 0.0: g^1 differs from g in its bits.
    g = [1.5, -0.0, 2.0, math.inf]
    assert repr(series_pow(g, 1)) != repr(g)
    for m in range(10):
        assert repr(series_pow(g, m)) == repr(_unit_first_pow(g, m))
    want = [[1, 0, 0, 0]]
    for _ in range(9):
        want.append(series_mul(want[-1], g))
    assert repr(_powers(g, 9)) == repr(want)
    assert repr(_powers(g, 0)) == repr(want[:1])


def test_exact_powers_start_from_g():
    g = (Fraction(1, 2), 3, 0, -1)
    powers = _powers(g, 5)
    assert list(powers[1]) == list(g) and len(powers) == 6
    for low, high in zip(powers, powers[1:]):
        assert list(high) == series_mul(low, g)
    assert _powers(g, 0) == [[1, 0, 0, 0]]


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
    e1, e2, f1 = exact_jet(1, 2), exact_jet(1, 2, 3), float_jet(1.0, 2.0)
    for op in (operator.add, operator.sub):
        with pytest.raises(ValueError, match="^jet order mismatch: 1 vs 2$") as info:
            op(e1, e2)
        assert not isinstance(info.value, ModeError)
        with pytest.raises(ValueError, match="^jet order mismatch: 2 vs 1$"):
            op(e2, f1)  # the order is checked before the mode
        for x, y in ((e1, f1), (f1, e1)):
            with pytest.raises(ModeError, match="^cannot combine exact and float jets$"):
                op(x, y)
    with pytest.raises(ModeError, match="^jet coefficients must share one scalar mode$"):
        Jet([Scalar.exact(1), Scalar.inexact(2.0)])
    with pytest.raises(ValueError, match="^a jet needs at least the order-0 coefficient$"):
        Jet([])
    with pytest.raises(TypeError, match="^jet coefficients must be Scalar, got int$"):
        Jet([1])
    with pytest.raises(ValueError, match="^jet order must be non-negative, got -1$"):
        Jet.variable(Scalar.exact(1), -1)
    assert repr(Jet.variable(Scalar.exact(1, 2), 2)) == "Jet([1/2, 1, 0])"


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
            getattr(j, name)()
    with pytest.raises(ModeError):
        j.pow_real(Scalar.exact(5, 2))


def _raises_domain_error(call, message: str) -> None:
    with pytest.raises(DomainError) as info:
        call()
    assert type(info.value) is DomainError and str(info.value) == message


def test_float_domain_errors():
    not_positive = "requires a positive value at the expansion point"
    for lead in (-1.0, 0.0, -0.0, math.nan):
        for order in (0, 1, 3):
            j = float_jet(lead, *[1.0] * order)
            _raises_domain_error(j.log, f"log {not_positive}")
            _raises_domain_error(j.sqrt, f"sqrt {not_positive}")
            for alpha in (Scalar.inexact(0.5), Scalar.exact(-1, 3)):
                _raises_domain_error(lambda: j.pow_real(alpha),
                                     f"non-integer real power {not_positive}")
    for j in (float_jet(1000.0, 1.0), float_jet(1000.0)):
        _raises_domain_error(j.exp, "exp overflow at the expansion point")
    for lead in (math.inf, -math.inf, math.nan):
        for order in (0, 1, 3):
            j = float_jet(lead, *[1.0] * order)
            for fn in (j.sin, j.cos):
                _raises_domain_error(fn, "sin/cos requires a finite value at the expansion point")
    # order-0 jets at a positive point hold the function's value alone
    assert float_jet(2.0).log().cleared() == ((math.log(2.0),), 1)
    assert float_jet(2.0).sqrt().cleared() == ((math.sqrt(2.0),), 1)
    assert float_jet(2.0).pow_real(Scalar.exact(1, 3)).cleared() == ((math.pow(2.0, 1 / 3),), 1)


# Bits of the elementary recurrences on a fixed grid of float jets: leading
# values, orders 0 to 20, and tails with a negative value, -0.0, 1e-300 and
# 1e300.  The digest is SHA-256 over the float.hex() of every output
# coefficient; any change in the order of a float operation changes it.
GRID_LEADS = (0.3, 1.0, 2.5, 7.0)
GRID_ORDERS = (0, 1, 5, 20)
GRID_TAILS = ([1.0, -0.5, -0.0, 0.25, -3.0], [1e-300, -2.0, 1e300, -0.0, 0.75])
GRID_EXPONENTS = (Scalar.exact(5, 2), Scalar.exact(-1, 2), Scalar.inexact(1 / 3))
GRID_DIGEST = "4c35ce1470fe83b57c8cc70b250c9812f47def35dd161d6b0775f64793e8857b"


def test_elementary_recurrences_keep_their_bits():
    digest, outputs = hashlib.sha256(), 0
    for lead in GRID_LEADS:
        for order in GRID_ORDERS:
            for tail in GRID_TAILS:
                j = float_jet(lead, *[tail[k % len(tail)] for k in range(order)])
                results = [j.exp(), j.log(), j.sin(), j.cos(), j.sqrt()]
                results += [j.pow_real(alpha) for alpha in GRID_EXPONENTS]
                for result in results:
                    values, den = result.cleared()
                    assert den == 1 and all(type(v) is float for v in values)
                    digest.update((",".join(v.hex() for v in values) + "\n").encode())
                    outputs += 1
    assert outputs == 256
    assert digest.hexdigest() == GRID_DIGEST


# Bits of float division on the same tails: jet by jet, with divisors whose
# value is not a power of two (a product by the reciprocal rounds otherwise),
# at orders 0 to 12, and a jet times, over and under a number of each kind.
DIVISION_LEADS = (0.3, 3.0, -7.0)
DIVISION_ORDERS = (0, 1, 5, 12)
DIVISION_NUMBERS = (3, -7, Scalar.inexact(0.1), Scalar.inexact(-2.5))
DIVISION_DIGEST = "779d8b7bead7f278f75468010c8c251c9dd472c378dcce1999f6d8157a21b608"


def division_grid() -> tuple[str, int]:
    """SHA-256 over the float.hex() of every coefficient the grid computes."""
    digest, outputs = hashlib.sha256(), 0
    for order in DIVISION_ORDERS:
        jets = [float_jet(lead, *[tail[k % len(tail)] for k in range(order)])
                for lead in DIVISION_LEADS for tail in GRID_TAILS]
        results = [a / b for a in jets for b in jets]
        results += [r for a in jets for c in DIVISION_NUMBERS for r in (a * c, a / c, c / a)]
        for result in results:
            values, den = result.cleared()
            assert den == 1 and all(type(v) is float for v in values)
            digest.update((",".join(v.hex() for v in values) + "\n").encode())
            outputs += 1
    return digest.hexdigest(), outputs


def test_division_and_number_operands_keep_their_bits():
    assert division_grid() == (DIVISION_DIGEST, 432)


# Float products and recurrences skip the terms that a constant factor or a
# linear argument makes zero.  A derandomized fuzz compares them with the full
# loops of tests/helpers.py by float.hex(), on lists with tails of +0.0 and
# -0.0 whose heads, slopes and constants include -0.0, inf, nan, 1e308,
# 1e-300 and 5e-324.
SPECIAL_FLOATS = (0.0, -0.0, math.inf, -math.inf, math.nan, 1e308, -1e308, 1e-300, -1e-300,
                  5e-324, -5e-324, 1.0, -1.0, 0.5, 3.0, -2.5, 0.1, 709.0)
# Non-integer exponents (an integer one is the integer power), among them one
# whose factor (al + 1) k - n overflows for k >= 2 and one that makes it 0.
FUZZ_EXPONENTS = (Scalar.inexact(0.5), Scalar.inexact(-0.5), Scalar.inexact(1 / 3),
                  Scalar.inexact(-1.75), Scalar.inexact(1e-17), Scalar.inexact(2.0 ** 51 + 0.5),
                  Scalar.inexact(math.inf), Scalar.inexact(math.nan),
                  Scalar.exact(5 * 10 ** 308 + 2, 3))
SHAPES = ("constant", "linear", "full")


def _fuzz_float(rng: random.Random) -> float:
    if rng.random() < 0.4:
        return rng.choice(SPECIAL_FLOATS)
    return rng.uniform(-4.0, 4.0) * 10.0 ** rng.randint(-6, 6)


def _fuzz_list(rng: random.Random, order: int, shape: str) -> list:
    """A float list of length order + 1: [c, 0, ...], [a0, a1, 0, ...] (each
    zero +0.0 or -0.0) or any values, a third of them zeros."""
    zeros = [rng.choice((0.0, -0.0)) for _ in range(order + 1)]
    if shape == "constant":
        return [_fuzz_float(rng)] + zeros[1:]
    if shape == "linear":
        return ([_fuzz_float(rng), _fuzz_float(rng)] + zeros[2:])[: order + 1]
    return [z if rng.random() < 0.3 else _fuzz_float(rng) for z in zeros]


def test_float_products_by_a_constant_keep_the_full_loop_bits():
    # the two cases the scaling guards against: a -0.0 that the sum turns
    # into 0.0, and a zero term times inf that the sum makes nan
    cases = [([2.0, -0.0, 0.0], [-0.0, 1.0, -0.0]), ([-0.0, 0.0], [-3.0, 0.0]),
             ([2.0, 0.0, -0.0], [math.inf, 1.0, 1.0]), ([1.0, 2.0], [3.0, -0.0])]
    rng = random.Random(26)
    for _ in range(4000):
        order = rng.randint(0, 12)
        cases.append((_fuzz_list(rng, order, rng.choice(SHAPES)),
                      _fuzz_list(rng, order, rng.choice(SHAPES))))
    for a, b in cases:
        assert float_bits(series_mul(a, b)) == float_bits(reference_series_mul(a, b)), (a, b)
        assert float_bits(series_mul(tuple(b), tuple(a))) == float_bits(
            reference_series_mul(b, a)), (b, a)
        m = len(a) % 6
        assert float_bits(series_pow(a, m)) == float_bits(reference_series_pow(a, m)), (a, m)
        assert [float_bits(p) for p in _powers(a, m)] == [
            float_bits(p) for p in reference_powers(a, m)], (a, m)


def _agrees(method, reference, a: list, *args) -> bool:
    """Whether a jet method on a equals its full-loop reference bit for bit, or
    both raise the same error; True when the method's domain check refuses a."""
    try:
        got = float_bits(method(Jet._of(a, None), *args).cleared()[0])
    except DomainError:
        return True
    except OverflowError:
        got = "OverflowError"
    try:
        want = float_bits(reference(a, *[float(arg) for arg in args]))
    except OverflowError:
        want = "OverflowError"
    return got == want


def test_recurrences_of_linear_arguments_keep_the_full_loop_bits():
    cases = [[0.5, -0.0, 0.0, -0.0], [2.0, 3.0, -0.0, 0.0, -0.0], [700.0, 5.0, 0.0, 0.0, 0.0],
             [1.0, math.inf, 0.0, 0.0], [1.5, 1e-300, -0.0, 0.0], [3.0, 5e-324, 0.0, -0.0],
             [1.0, 1e-300, 0.0, -0.0, 0.0]]
    rng = random.Random(2016)
    for _ in range(3000):
        cases.append(_fuzz_list(rng, rng.randint(0, 16), rng.choice(("constant", "linear") * 3 + ("full",))))
    for a in cases:
        assert _agrees(Jet.exp, reference_exp, a), a
        assert _agrees(Jet.sin, lambda a: reference_sin_cos(a)[0], a), a
        assert _agrees(Jet.cos, lambda a: reference_sin_cos(a)[1], a), a
        assert _agrees(Jet.log, reference_log, a), a
        assert _agrees(Jet.sqrt, reference_sqrt, a), a
        for alpha in FUZZ_EXPONENTS:
            assert _agrees(Jet.pow_real, reference_pow_real, a, alpha), (a, alpha)


# Bits of the float jets whose zero terms are skipped: constant and linear
# jets with tails of both zero signs at orders 0 to 20, their products by
# constants, their powers (by the jet and by _powers) and every elementary
# recurrence.  The digest was recorded before any term was skipped.
LINEAR_HEADS = (0.3, 2.5, -7.0, -0.0, 1e-300)
LINEAR_SLOPES = (1.0, -0.5, 3.0, -0.0, 1e-300)
LINEAR_ORDERS = (0, 1, 2, 5, 12, 20)
LINEAR_DIGEST = "b385ab1659e1b480785ca116ed886c41df823c81aa00c5ab60dcd03bdeb22549"


def linear_grid() -> tuple[str, int]:
    """SHA-256 over the float.hex() of every coefficient the grid computes, a
    line "DomainError" for each refused input; and the number of results."""
    digest, outputs = hashlib.sha256(), 0
    calls = [(Jet.exp,), (Jet.log,), (Jet.sin,), (Jet.cos,), (Jet.sqrt,),
             *[(Jet.pow_real, alpha) for alpha in GRID_EXPONENTS]]
    for order in LINEAR_ORDERS:
        tail = [(0.0, -0.0)[k % 2] for k in range(order)]
        constants = [Jet._of([c, *tail], None) for c in LINEAR_HEADS]
        lines = [Jet._of([a0, a1, *tail][: order + 1], None)
                 for a0 in LINEAR_HEADS for a1 in LINEAR_SLOPES]
        for j in constants + lines:
            results = [c * j for c in constants] + [j * constants[1], j ** 3]
            results += [Jet._of(p, None) for p in _powers(j.cleared()[0], 3)[1:]]
            for fn, *args in calls:
                try:
                    results.append(fn(j, *args))
                except DomainError:
                    results.append(None)
            for result in results:
                text = "DomainError" if result is None else ",".join(
                    map(float.hex, result.cleared()[0]))
                digest.update((text + "\n").encode())
            outputs += len(results)
    return digest.hexdigest(), outputs


def test_constant_and_linear_jets_keep_their_bits():
    assert linear_grid() == (LINEAR_DIGEST, 3240)


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


# Storage: exact jets hold integers over their least positive denominator.


def _is_least(j: Jet) -> bool:
    values, d = j.cleared()
    return all(type(v) is int for v in values) and d > 0 and math.gcd(d, *values) == 1


def _fraction_quotient(a: list, b: list) -> list:
    out: list = []
    for k in range(len(a)):
        out.append((a[k] - sum(out[j] * b[k - j] for j in range(k))) / b[0])
    return out


@settings(deadline=None, max_examples=60)
@given(exact_jets3, exact_jets3, exact_scalars, st.integers(min_value=-3, max_value=4))
def test_every_exact_jet_has_the_least_positive_denominator(a, b, c, m):
    built = [a, b, -a, a + b, a - b, a * b, a * c, c * a, a * 3, Jet.variable(c, 3),
             Jet.constant(c, 3), Jet.constant(c, 0), Jet.variable(c, 0)]
    if c != 0:
        built.append(a / c)
    if b.value != 0:
        built += [a / b, c / b, 2 / b, b ** m]
    assert all(_is_least(j) for j in built)


def test_eval_jet_results_have_the_least_positive_denominator():
    from jetcheck.exprs import eval_jet
    from jetcheck.parsing import parse

    for text in ("(x+1)^2/(3*x-1)", "x^-3 - 5/7", "(2*x/3)^4*(x-1/2)", "1/(x^2+1)"):
        for order in (0, 1, 4):
            assert _is_least(eval_jet(parse(text), Scalar.exact(-3, 2), order))


def test_jets_built_from_scalars_and_by_arithmetic_are_equal_with_equal_hashes():
    x = Jet.variable(Scalar.exact(-3, 2), 3)
    square = (x + Jet.constant(Scalar.exact(1), 3)) ** 2
    expanded = x * x + 2 * x + Jet.constant(Scalar.exact(1), 3)
    # (x + 1)^2 at -3/2: 1/4, 2 (x + 1) = -1, 1, 0
    literal = exact_jet(Fraction(1, 4), -1, 1, 0)
    assert square == expanded == literal
    assert hash(square) == hash(expanded) == hash(literal)
    assert square.cleared() == ((1, -4, 4, 0), 4)


@pytest.mark.parametrize("order", range(13))
def test_exact_division_matches_a_fraction_reference(order):
    a = [Fraction(3 - 2 * k, k + 2) for k in range(order + 1)]
    for b in ([Fraction(-5, 3)] + [Fraction(k, 7) - 1 for k in range(1, order + 1)],
              [Fraction(2, 9)] + [Fraction((-1) ** k, k) for k in range(1, order + 1)]):
        got = exact_jet(*a) / exact_jet(*b)
        assert [c.value for c in got.coeffs] == _fraction_quotient(a, b)
        assert _is_least(got)
    # x^-3 at -2/3 has the coefficients C(-3, k) x0^(-3-k)
    x0 = Fraction(-2, 3)
    want = [Fraction(math.prod(-3 - j for j in range(k)), math.factorial(k)) * x0 ** (-3 - k)
            for k in range(order + 1)]
    assert [c.value for c in (Jet.variable(Scalar(x0), order) ** -3).coeffs] == want


def test_mixing_modes_raises_mode_error():
    e, f = exact_jet(1, 2), float_jet(1.0, 2.0)
    for op in ("__add__", "__sub__", "__mul__", "__truediv__"):
        with pytest.raises(ModeError):
            getattr(e, op)(f)
        with pytest.raises(ModeError):
            getattr(f, op)(e)
    with pytest.raises(ModeError):
        e * Scalar.inexact(2.0)
    with pytest.raises(ModeError):
        Scalar.exact(2) / f
    with pytest.raises(ModeError):
        Jet([Scalar.inexact(1.0), Scalar.exact(2)])
    assert float_jet(1.0, 2.0) != exact_jet(1, 2)


class FractionSubclass(Fraction):
    """Not exactly a Fraction, so a jet checks it like any other number operand."""


exact_numbers = st.one_of(st.integers(-5, 5), st.fractions(max_denominator=12),
                          st.fractions(max_denominator=12).map(FractionSubclass), exact_scalars)


@settings(deadline=None, max_examples=200)
@given(exact_jets3, exact_numbers)
def test_number_operands_act_as_constant_jets(a, c):
    const = Jet.constant(c if isinstance(c, Scalar) else Scalar(c), a.order)
    assert a + c == a + const and c + a == const + a
    assert a - c == a - const and c - a == const - a
    assert a * c == a * const and c * a == const * a
    for j in (a + c, c - a, a * c):
        assert _is_least(j)
    if c != 0:
        assert a / c == a / const and _is_least(a / c)
    if a.value != 0:
        assert c / a == const / a


def test_exact_termwise_operations_rescale_each_operand_to_the_common_denominator():
    # denominators that divide one another, coprime ones and equal ones: each
    # operand comes over their least common multiple
    for da, db in ((1, 2), (2, 1), (2, 3), (6, 3), (3, 6), (4, 6), (5, 5)):
        a = exact_jet(Fraction(1, da), Fraction(-3, da), 2)
        b = exact_jet(Fraction(5, db), 1, Fraction(1, db))
        fa, fb = [c.value for c in a.coeffs], [c.value for c in b.coeffs]
        for op in (operator.add, operator.sub):
            got = op(a, b)
            assert [c.value for c in got.coeffs] == list(map(op, fa, fb)) and _is_least(got)


def test_number_operands_of_float_jets_keep_the_termwise_bits():
    a = float_jet(1.5, -0.0, 0.0, math.inf)
    for c in (2, -3, Scalar.inexact(0.25), Scalar.inexact(-0.0)):
        const = Jet.constant(c if isinstance(c, Scalar) else Scalar.inexact(c), a.order)
        for got, want in ((a + c, a + const), (c + a, const + a), (a - c, a - const),
                          (c - a, const - a)):
            assert [v.hex() for v in got.cleared()[0]] == [v.hex() for v in want.cleared()[0]]


def test_number_operand_errors():
    e, f = exact_jet(1, 2), float_jet(1.0, 2.0)
    for jet in (e, f):
        with pytest.raises(ZeroDivisionError):
            jet / 0
    for zero in (Fraction(0), FractionSubclass(0)):
        with pytest.raises(ZeroDivisionError, match="^division of a jet by zero$"):
            e / zero
    for op in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__truediv__",
               "__rtruediv__"):
        for c in (Fraction(1, 2), FractionSubclass(1, 2)):
            with pytest.raises(ModeError, match="^cannot combine a float jet with an exact scalar$"):
                getattr(f, op)(c)
        with pytest.raises(ModeError, match="^cannot combine a float jet with an exact scalar$"):
            getattr(f, op)(Scalar.exact(1, 2))
        with pytest.raises(ModeError, match="^cannot combine an exact jet with a float scalar$"):
            getattr(e, op)(Scalar.inexact(0.5))
    for jet in (e, f):
        for bad in (0.5, True, "1", None):
            for apply in (lambda: jet + bad, lambda: bad + jet, lambda: jet - bad,
                          lambda: bad - jet, lambda: jet * bad, lambda: jet / bad):
                with pytest.raises(TypeError) as info:
                    apply()
                assert not isinstance(info.value, ModeError)


def test_stored_coefficients_are_an_immutable_tuple():
    for j in (exact_jet(Fraction(1, 2), 3), float_jet(0.5, 3.0)):
        values, d = j.cleared()
        assert type(values) is tuple and type(j.coeffs) is tuple
        with pytest.raises(TypeError):
            values[0] = 7
        with pytest.raises(AttributeError):
            j.coeffs = ()
    assert exact_jet(Fraction(1, 2), 3).cleared() == ((1, 6), 2)
    assert float_jet(0.5, 3.0).cleared() == ((0.5, 3.0), 1)
