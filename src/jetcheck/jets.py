"""Truncated Taylor-series (jet) arithmetic.

A jet of order n represents a function f by its normalized Taylor
coefficients at an expansion point x0::

    coeffs[k] = f^(k)(x0) / k!        for k = 0 .. n

With this normalization multiplication is a plain Cauchy product, with no
binomial weights.  The k-th derivative is recovered as ``k! * coeffs[k]``
(:meth:`Jet.derivative`).

All coefficients of one jet share a single scalar mode.  An exact jet stores
Python integers over their least positive denominator, so equal jets store
the same integers; a float jet stores its floats.  Arithmetic runs on that
storage (:meth:`Jet.cleared` hands it out), the float operations in the
order Scalar arithmetic would use; :attr:`Jet.coeffs` is a read-only Scalar
view at the library's edge, built on each read.

A jet also takes a number operand of its mode, read by one method,
``Jet._number``: an exact jet an int, a Fraction (eval_jet's constants, taken
first) or an exact Scalar; a float jet an int or a float Scalar.  ``jet + c``,
``jet - c`` and ``c - jet`` shift coefficient 0 in one pass (an exact c over
the common denominator), ``jet * c`` and ``jet / c`` scale the stored values,
so no constant jet and no Cauchy product is formed.

In exact mode every operation is exact rational arithmetic; the elementary
transcendental functions (exp, log, sin, cos, sqrt, and real powers with
non-integer exponent) are float-mode only, because their leading values are
irrational for almost every rational input.  Their recurrences run on the
stored floats and build no Scalar.  Asking for them on an exact jet raises
:class:`jetcheck.numeric.ModeError` instead of silently degrading.

Jets are immutable values; every operation returns a fresh jet, so they are
safe to share between threads.  The operators check in place, on the stored
values and denominator: the order and mode checks read them and no property.

The series core works on plain integer, Fraction or float coefficient lists
and serves both jets and the verifiers: one Cauchy product
(:func:`coefficient`), one integer-power loop (:func:`series_pow`) and one
summation rule (:func:`ordered_sum`): exact terms add with ``sum``, floats
left to right from the integer 0, so their digits do not depend on the Python
version; a pair of lists is float if either holds floats (g^0 is [1, 0, ...]).
Exact mode forms no product by a known one (a power starts from its base);
float mode keeps those products, which can turn -0.0 into 0.0 or inf into nan.

Float mode skips the terms it knows are zero, bit for bit.  A sum starts
from the integer 0, so no partial sum is -0.0 and a +-0.0 term changes
nothing, and a finite value times +-0.0 is +-0.0.  So a product with a
zero-tailed factor is the scaling ``c * v + 0.0`` (which turns -0.0 into 0.0
as the sum does), and exp, sin/cos, log and real powers of a linear argument
take one term per coefficient.  A value that is not finite (0 * inf is nan),
or a log term that would be 0, falls back to the full loop.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import reduce
from typing import Iterable, Sequence

from .numeric import DomainError, ModeError, Scalar, integer_value

ELEMENTARY_FUNCTIONS = ("exp", "log", "sin", "cos", "sqrt")


def ordered_sum(terms: Iterable):
    """Add left to right from the integer 0 (a ``reduce``, in C), as ``sum`` did before
    Python 3.12 compensated float sums; exact dot products, alike in any order, use ``sum``."""
    return reduce(operator.add, terms, 0)


def coefficient(a: Sequence, b: Sequence, m: int):
    """[t^m] of the product of two coefficient lists that both reach index m,
    summed over a[j] * b[m-j] for j = 0..m by :func:`ordered_sum`'s rule."""
    if a[0].__class__ is float or b[0].__class__ is float:
        return reduce(operator.add, map(operator.mul, a, b[m::-1]), 0)
    return sum(map(operator.mul, a, b[m::-1]))


def series_mul(a: Sequence, b: Sequence) -> list:
    """The Cauchy product of two coefficient lists, truncated to the length of a;
    each entry is :func:`coefficient`'s sum, inlined.  Float lists of one length
    where one has a zero tail and the other is finite give the scaling instead."""
    if a[0].__class__ is not float and b[0].__class__ is not float:
        return [sum(map(operator.mul, a, b[m::-1])) for m in range(len(a))]
    if a[0].__class__ is b[0].__class__ is float and len(a) == len(b):
        for c, other in ((a, b), (b, a)):
            if not any(c[1:]) and all(map(math.isfinite, other)):
                return [c[0] * v + 0.0 for v in other]
    return [reduce(operator.add, map(operator.mul, a, b[m::-1]), 0) for m in range(len(a))]


def clear_denominators(fractions: Sequence[Fraction]) -> tuple[list[int], int]:
    """Fractions as integers over their least common denominator."""
    # A list, not a generator: math.lcm(*generator) builds a tuple from an
    # iterator, which left a one-time resident step of about 1.1 MB and read
    # +7% to +11% on the benchmark's peak RSS.
    den = math.lcm(*[v.denominator for v in fractions])
    return [v.numerator * (den // v.denominator) for v in fractions], den


def series_pow(a: Sequence, m: int) -> list:
    """a**m for m >= 0 by square-and-multiply, in a fresh list: an exact list
    starts from a at the lowest set bit of m, so x^2 is one product; a float
    list from a constant one of its own type, since multiplying by it can move
    bits (0 + -0.0 is 0.0, 0 * inf is nan)."""
    unit = a[0] ** 0
    result = [unit] + [unit * 0] * (len(a) - 1) if unit.__class__ is float or not m else None
    while m > 0:
        if m & 1:
            result = list(a) if result is None else series_mul(result, a)
        m >>= 1
        if m:
            a = series_mul(a, a)
    return result


def _subtracted_from(a, c):
    """c - a, the operation of ``c - jet`` on a coefficient a."""
    return c - a


class Jet:
    """Order-n truncated Taylor expansion of a one-variable function."""

    __slots__ = ("_values", "_den")

    def __init__(self, coeffs: Sequence[Scalar]):
        coeffs = list(coeffs)
        if not coeffs:
            raise ValueError("a jet needs at least the order-0 coefficient")
        for c in coeffs:
            if not isinstance(c, Scalar):
                raise TypeError(f"jet coefficients must be Scalar, got {type(c).__name__}")
            if c.is_exact != coeffs[0].is_exact:
                raise ModeError("jet coefficients must share one scalar mode")
        values, den = [c.value for c in coeffs], None
        if coeffs[0].is_exact:
            values, den = clear_denominators(values)
        self._values, self._den = tuple(values), den

    @classmethod
    def _of(cls, values: list, den: int | None) -> Jet:
        """The jet values[k] / den, or of float values when den is None; exact
        ones are reduced to their least positive denominator."""
        if den is not None:
            g = math.gcd(den, *values) * (1 if den > 0 else -1)
            if g != 1:
                values, den = [v // g for v in values], den // g
        jet = object.__new__(cls)
        jet._values, jet._den = tuple(values), den
        return jet

    @classmethod
    def variable(cls, x0: Scalar, order: int) -> Jet:
        """The identity function expanded at x0: coefficients [x0, 1, 0, ...]."""
        return cls._line(x0.value, 1, order)

    @classmethod
    def constant(cls, c: Scalar, order: int) -> Jet:
        return cls._line(c.value, 0, order)

    @classmethod
    def _line(cls, c: int | Fraction | float, slope: int, order: int) -> Jet:
        """c + slope (x - x0), expanded at x0, for a plain number c: a float
        gives a float jet, an int or a Fraction an exact one."""
        if order < 0:
            raise ValueError(f"jet order must be non-negative, got {order}")
        if c.__class__ is float:
            return cls._of([c, float(slope), *[0.0] * (order - 1)] if order else [c], None)
        q = c.denominator
        return cls._of([c.numerator, slope * q, *[0] * order][: order + 1], q)

    @property
    def order(self) -> int:
        return len(self._values) - 1

    @property
    def mode(self) -> str:
        return "float" if self._den is None else "exact"

    @property
    def is_exact(self) -> bool:
        return self._den is not None

    def _at(self, k: int) -> Fraction | float:
        return self._values[k] if self._den is None else Fraction(self._values[k], self._den)

    @property
    def coeffs(self) -> tuple[Scalar, ...]:
        """The Taylor coefficients as Scalars, built on each read."""
        return tuple([Scalar(self._at(k)) for k in range(len(self._values))])

    @property
    def value(self) -> Scalar:
        """Value of the function at the expansion point."""
        return Scalar(self._at(0))

    def cleared(self) -> tuple[tuple, int]:
        """The stored coefficients over their denominator: integers over the
        least positive one in exact mode, floats over 1 in float mode."""
        return self._values, 1 if self._den is None else self._den

    def derivative(self, k: int) -> Scalar:
        """The k-th derivative at the expansion point, k! * coeffs[k]."""
        if k < 0 or k > self.order:
            raise DomainError(f"derivative order {k} exceeds jet order {self.order}")
        return Scalar(self._at(k) * math.factorial(k))

    def _check_compatible(self, other: Jet) -> None:
        if len(self._values) != len(other._values):
            raise ValueError(f"jet order mismatch: {self.order} vs {other.order}")
        if (self._den is None) != (other._den is None):
            raise ModeError("cannot combine exact and float jets")

    def _termwise(self, other: Jet, op) -> Jet:
        """op on matching coefficients of two jets, over their common denominator."""
        a, b, da, db = self._values, other._values, self._den, other._den
        if len(a) != len(b) or (da is None) != (db is None):
            self._check_compatible(other)
        if da != db:
            den = math.lcm(da, db)
            a, b, da = [v * (den // da) for v in a], [v * (den // db) for v in b], den
        return Jet._of(list(map(op, a, b)), da)

    def _number(self, other: object):
        """``other`` as a plain number in this jet's mode: a Scalar's value, a
        Fraction, or an int (a float for a float jet); NotImplemented for any
        other operand.  An exact jet takes a Fraction before any type test."""
        if other.__class__ is Fraction and self._den is not None:
            return other
        if isinstance(other, Scalar):
            other = other.value
        elif isinstance(other, bool) or not isinstance(other, (int, Fraction)):
            return NotImplemented
        elif self._den is None and isinstance(other, int):
            other = float(other)
        if isinstance(other, float) != (self._den is None):
            pair = "a float jet with an exact" if self._den is None else "an exact jet with a float"
            raise ModeError(f"cannot combine {pair} scalar")
        return other

    def _scaled(self, other: object, op) -> Jet:
        """op(coefficient, c) for mul or truediv and a number operand c; an
        exact c = p/q multiplies the stored integers by p (q to divide) and
        the denominator by q (p to divide)."""
        c = self._number(other)
        if c is NotImplemented:
            return c
        if self._den is None:
            return Jet._of([op(a, c) for a in self._values], None)
        num, den = c.numerator, c.denominator
        if op is operator.truediv:
            if not num:
                raise ZeroDivisionError("division of a jet by zero")
            num, den = den, num
        return Jet._of([a * num for a in self._values], self._den * den)

    def _shifted(self, other: object, op) -> Jet:
        """op(a_0, c) at coefficient 0 and op(a_k, 0) at every other, in one pass,
        for a number operand c (an exact one over the common denominator): the
        termwise bits with c's constant jet in floats too (-0.0 + 0.0 is 0.0).
        An exact op(a_k, 0) is a_k, or -a_k for c - jet, so that tail is copied."""
        c = self._number(other)
        if c is NotImplemented:
            return c
        values, den = self._values, self._den
        if den is None:
            return Jet._of([op(values[0], c), *[op(v, 0) for v in values[1:]]], None)
        q = c.denominator
        if den % q:
            lcm = math.lcm(den, q)
            values, den = [v * (lcm // den) for v in values], lcm
        tail = [-v for v in values[1:]] if op is _subtracted_from else values[1:]
        return Jet._of([op(values[0], c.numerator * (den // q)), *tail], den)

    def __add__(self, other: object) -> Jet:
        if isinstance(other, Jet):
            return self._termwise(other, operator.add)
        return self._shifted(other, operator.add)

    __radd__ = __add__

    def __sub__(self, other: object) -> Jet:
        if isinstance(other, Jet):
            return self._termwise(other, operator.sub)
        return self._shifted(other, operator.sub)

    def __rsub__(self, other: object) -> Jet:
        return self._shifted(other, _subtracted_from)

    def __neg__(self) -> Jet:
        return Jet._of([-a for a in self._values], self._den)

    def __mul__(self, other: object) -> Jet:
        if not isinstance(other, Jet):
            return self._scaled(other, operator.mul)
        self._check_compatible(other)
        den = None if self._den is None else self._den * other._den
        return Jet._of(series_mul(self._values, other._values), den)

    __rmul__ = __mul__

    def __pow__(self, m: int) -> Jet:
        """Integer power; a**0 is the constant-one jet.  Negative exponents go
        through division and need a nonzero value at the expansion point."""
        if not isinstance(m, int) or isinstance(m, bool):
            return NotImplemented
        if m < 0:
            return 1 / self ** (-m)
        return Jet._of(series_pow(self._values, m), None if self._den is None else self._den ** m)

    def __truediv__(self, other: object) -> Jet:
        if not isinstance(other, Jet):
            return self._scaled(other, operator.truediv)
        self._check_compatible(other)
        a, b = self._values, other._values
        if b[0] == 0:
            raise DomainError("division by a jet that vanishes at the expansion point")
        if self._den is None:
            out: list = []
            for k in range(len(a)):
                acc = a[k]
                for j in range(k):
                    acc = acc - out[j] * b[k - j]
                out.append(acc / b[0])
            return Jet._of(out, None)
        # In integers: coefficient k of a / b is c[k] / b0^(k+1), with
        # c[k] = a[k] b0^k - sum_{j<k} c[j] b[k-j] b0^(k-1-j), here over b0^n.
        n, c = len(a), []
        b0 = [b[0] ** k for k in range(n + 1)]
        for k in range(n):
            c.append(a[k] * b0[k] - sum(c[j] * b[k - j] * b0[k - 1 - j] for j in range(k)))
        return Jet._of([other._den * ck * b0[n - 1 - k] for k, ck in enumerate(c)],
                       self._den * b0[n])

    def __rtruediv__(self, other: object) -> Jet:
        c = self._number(other)
        if c is NotImplemented:
            return c
        return Jet._line(c, 0, self.order) / self

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Jet):
            return NotImplemented
        return self._den == other._den and self._values == other._values

    def __hash__(self) -> int:
        return hash((self._values, self._den))

    def __repr__(self) -> str:
        return f"Jet([{', '.join(c.as_text() for c in self.coeffs)}])"

    # Elementary functions.  Each follows the standard convolution recurrence
    # driven by the differential equation the function satisfies; all are
    # float-mode only (see module docstring).

    def _require_float(self, name: str) -> None:
        if self._den is not None:
            raise ModeError(
                f"{name} of an exact jet is not representable exactly; "
                "evaluate in float mode"
            )

    def exp(self) -> Jet:
        self._require_float("exp")
        a = self._values
        try:
            b = [math.exp(a[0])]
        except OverflowError:
            raise DomainError("exp overflow at the expansion point") from None
        if not any(a[2:]):  # a linear argument: one term per coefficient
            for k in range(1, len(a)):
                b.append((a[1] * b[k - 1] + 0.0) / k)
            if not all(map(math.isfinite, b)):
                del b[1:]
        for k in range(len(b), len(a)):
            b.append(ordered_sum(a[j] * b[k - j] * j for j in range(1, k + 1)) / k)
        return Jet._of(b, None)

    def log(self) -> Jet:
        self._require_float("log")
        a = self._values
        if not a[0] > 0:
            raise DomainError("log requires a positive value at the expansion point")
        b = [math.log(a[0])]
        if not any(a[2:]):
            # a linear argument: acc is the one term j = k - 1, where it is not 0
            for k in range(1, len(a)):
                acc = a[1] if k == 1 else -(b[k - 1] * a[1] * (k - 1))
                if not acc:
                    break
                b.append(acc / k / a[0])
            if not all(map(math.isfinite, b)) or len(b) < len(a):
                del b[1:]
        for k in range(len(b), len(a)):
            acc = a[k] * k
            for j in range(1, k):
                acc = acc - b[j] * a[k - j] * j
            b.append(acc / k / a[0])
        return Jet._of(b, None)

    def sin(self) -> Jet:
        return Jet._of(self._sin_cos()[0], None)

    def cos(self) -> Jet:
        return Jet._of(self._sin_cos()[1], None)

    def _sin_cos(self) -> tuple[list, list]:
        """The coefficient lists of sin and of cos: each recurrence reads the other."""
        self._require_float("sin/cos")
        a = self._values
        if not math.isfinite(a[0]):
            raise DomainError("sin/cos requires a finite value at the expansion point")
        s, c = [math.sin(a[0])], [math.cos(a[0])]
        if not any(a[2:]):  # a linear argument: one term per coefficient
            for k in range(1, len(a)):
                s.append((a[1] * c[k - 1] + 0.0) / k)
                c.append(-((a[1] * s[k - 1] + 0.0) / k))
            if not all(map(math.isfinite, s + c)):
                del s[1:], c[1:]
        for k in range(len(s), len(a)):
            s.append(ordered_sum(a[j] * c[k - j] * j for j in range(1, k + 1)) / k)
            c.append(-(ordered_sum(a[j] * s[k - j] * j for j in range(1, k + 1)) / k))
        return s, c

    def sqrt(self) -> Jet:
        self._require_float("sqrt")
        a = self._values
        if not a[0] > 0:
            raise DomainError("sqrt requires a positive value at the expansion point")
        b = [math.sqrt(a[0])]
        for k in range(1, len(a)):
            acc = a[k]
            for j in range(1, k):
                acc = acc - b[j] * b[k - j]
            b.append(acc / b[0] / 2)
        return Jet._of(b, None)

    def pow_real(self, alpha: Scalar) -> Jet:
        """Real power a**alpha.

        Integer-valued exponents delegate to the exact integer-power path and
        work in either mode.  Everything else is float-mode only and needs a
        positive value at the expansion point; the recurrence is the one for
        (1 + u)**alpha applied to u = a/a0 - 1, which reproduces
        s! * C(alpha, s) * x0**(alpha - s) for the pure power function.
        """
        m = integer_value(alpha)
        if m is not None:
            return self ** m
        self._require_float("a non-integer real power")
        a = self._values
        if not a[0] > 0:
            raise DomainError("non-integer real power requires a positive value at the expansion point")
        al = float(alpha)
        # u has zero constant coefficient, so p below is the series of (1+u)**alpha.
        u = [0.0] + [ai / a[0] for ai in a[1:]]
        p = [1.0]
        # a linear argument, whose skipped factors (al + 1) k - n are finite: one term each
        if not any(a[2:]) and math.isfinite((al + 1.0) * (len(a) - 1)):
            for n in range(1, len(a)):
                p.append((u[1] * p[n - 1] * ((al + 1.0) * 1 - n) + 0.0) / n)
            if not all(map(math.isfinite, p)):
                del p[1:]
        for n in range(len(p), len(a)):
            terms = (u[k] * p[n - k] * ((al + 1.0) * k - n) for k in range(1, n + 1))
            p.append(ordered_sum(terms) / n)
        try:
            lead = math.pow(a[0], al)
        except OverflowError:
            raise DomainError("real power overflow at the expansion point") from None
        return Jet._of([lead * pk for pk in p], None)
