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
order Scalar arithmetic would use; :attr:`Jet.coeffs` is a Scalar view.

In exact mode every operation is exact rational arithmetic; the elementary
transcendental functions (exp, log, sin, cos, sqrt, and real powers with
non-integer exponent) are float-mode only, because their leading values are
irrational for almost every rational input.  Their recurrences read the
Scalar view.  Asking for them on an exact jet raises
:class:`jetcheck.numeric.ModeError` instead of silently degrading.

Jets are immutable values; every operation returns a fresh jet, so they are
safe to share between threads.

The series core works on plain integer, Fraction or float coefficient lists
and serves both jets and the verifiers: one Cauchy product
(:func:`coefficient`), one integer-power loop (:func:`series_pow`) and one
summation order (:func:`ordered_sum`), so float digits do not depend on the
Python version.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Iterable, Sequence

from .numeric import DomainError, ModeError, Scalar

ELEMENTARY_FUNCTIONS = ("exp", "log", "sin", "cos", "sqrt")


def ordered_sum(terms: Iterable):
    """Add left to right from the integer 0, as the built-in ``sum`` did
    before Python 3.12 compensated float sums; the order fixes the rounding."""
    total = 0
    for term in terms:
        total = total + term
    return total


def coefficient(a: Sequence, b: Sequence, m: int):
    """[t^m] of the product of two coefficient lists."""
    return ordered_sum(a[j] * b[m - j] for j in range(m + 1))


def series_mul(a: Sequence, b: Sequence) -> list:
    """The Cauchy product of two coefficient lists, truncated to the length of a."""
    return [coefficient(a, b, m) for m in range(len(a))]


def clear_denominators(fractions: Sequence[Fraction]) -> tuple[list[int], int]:
    """Fractions as integers over their least common denominator."""
    # A list, not a generator: math.lcm(*generator) builds a tuple from an
    # iterator, which left a one-time resident step of about 1.1 MB and read
    # +7% to +11% on the benchmark's peak RSS.
    den = math.lcm(*[v.denominator for v in fractions])
    return [v.numerator * (den // v.denominator) for v in fractions], den


def series_pow(a: Sequence, m: int) -> list:
    """a**m for m >= 0 by square-and-multiply, from a constant one of the
    coefficients' own type, so a float list stays float."""
    unit = a[0] ** 0
    result = [unit] + [unit * 0] * (len(a) - 1)
    while m > 0:
        if m & 1:
            result = series_mul(result, a)
        m >>= 1
        if m:
            a = series_mul(a, a)
    return result


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
        return cls._line(x0, 1, order)

    @classmethod
    def constant(cls, c: Scalar, order: int) -> Jet:
        return cls._line(c, 0, order)

    @classmethod
    def _line(cls, c: Scalar, slope: int, order: int) -> Jet:
        """c + slope (x - x0), expanded at x0."""
        if order < 0:
            raise ValueError(f"jet order must be non-negative, got {order}")
        if c.is_exact:
            q = c.value.denominator
            return cls._of([c.value.numerator, slope * q, *[0] * order][: order + 1], q)
        return cls._of([c.value, float(slope), *[0.0] * order][: order + 1], None)

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
        if self.order != other.order:
            raise ValueError(f"jet order mismatch: {self.order} vs {other.order}")
        if self.is_exact != other.is_exact:
            raise ModeError("cannot combine exact and float jets")

    def _termwise(self, other: object, op) -> Jet:
        """op on matching coefficients of two jets, over their common denominator."""
        if not isinstance(other, Jet):
            return NotImplemented
        self._check_compatible(other)
        a, b, da, db = self._values, other._values, self._den, other._den
        if da != db:
            den = math.lcm(da, db)
            a, b, da = [v * (den // da) for v in a], [v * (den // db) for v in b], den
        return Jet._of([op(x, y) for x, y in zip(a, b)], da)

    def _scaled(self, other: object, op) -> Jet:
        """op(coefficient, other) for a Scalar or int ``other`` in this jet's mode."""
        if isinstance(other, Scalar):
            if other.is_exact != self.is_exact:
                raise ModeError(f"cannot combine a {self.mode} jet with a {other.mode} scalar")
            other = other.value
        elif not isinstance(other, int) or isinstance(other, bool):
            return NotImplemented
        if self._den is None:
            return Jet._of([op(a, float(other)) for a in self._values], None)
        c = op(Fraction(1), other)
        return Jet._of([a * c.numerator for a in self._values], self._den * c.denominator)

    def __add__(self, other: object) -> Jet:
        return self._termwise(other, operator.add)

    def __sub__(self, other: object) -> Jet:
        return self._termwise(other, operator.sub)

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
        if isinstance(other, int) and not isinstance(other, bool):
            other = Scalar(other if self.is_exact else float(other))
        if not isinstance(other, Scalar):
            return NotImplemented
        return Jet.constant(other, self.order) / self

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
        if self.is_exact:
            raise ModeError(
                f"{name} of an exact jet is not representable exactly; "
                "evaluate in float mode"
            )

    def exp(self) -> Jet:
        self._require_float("exp")
        a = self.coeffs
        try:
            b = [Scalar.inexact(math.exp(float(a[0])))]
        except OverflowError:
            raise DomainError("exp overflow at the expansion point") from None
        for k in range(1, self.order + 1):
            b.append(ordered_sum(a[j] * b[k - j] * j for j in range(1, k + 1)) / k)
        return Jet(b)

    def log(self) -> Jet:
        self._require_float("log")
        a = self.coeffs
        if not a[0] > 0:
            raise DomainError("log requires a positive value at the expansion point")
        b = [Scalar.inexact(math.log(float(a[0])))]
        for k in range(1, self.order + 1):
            acc = a[k] * k
            for j in range(1, k):
                acc = acc - b[j] * a[k - j] * j
            b.append(acc / k / a[0])
        return Jet(b)

    def sin(self) -> Jet:
        return self._sin_cos()[0]

    def cos(self) -> Jet:
        return self._sin_cos()[1]

    def _sin_cos(self) -> tuple[Jet, Jet]:
        self._require_float("sin/cos")
        a = self.coeffs
        s = [Scalar.inexact(math.sin(float(a[0])))]
        c = [Scalar.inexact(math.cos(float(a[0])))]
        for k in range(1, self.order + 1):
            s.append(ordered_sum(a[j] * c[k - j] * j for j in range(1, k + 1)) / k)
            c.append(-(ordered_sum(a[j] * s[k - j] * j for j in range(1, k + 1)) / k))
        return Jet(s), Jet(c)

    def sqrt(self) -> Jet:
        self._require_float("sqrt")
        a = self.coeffs
        if not a[0] > 0:
            raise DomainError("sqrt requires a positive value at the expansion point")
        b = [Scalar.inexact(math.sqrt(float(a[0])))]
        for k in range(1, self.order + 1):
            acc = a[k]
            for j in range(1, k):
                acc = acc - b[j] * b[k - j]
            b.append(acc / b[0] / 2)
        return Jet(b)

    def pow_real(self, alpha: Scalar) -> Jet:
        """Real power a**alpha.

        Integer-valued exponents delegate to the exact integer-power path and
        work in either mode.  Everything else is float-mode only and needs a
        positive value at the expansion point; the recurrence is the one for
        (1 + u)**alpha applied to u = a/a0 - 1, which reproduces
        s! * C(alpha, s) * x0**(alpha - s) for the pure power function.
        """
        if alpha.is_exact and alpha.value.denominator == 1:
            return self ** int(alpha.value)
        if not alpha.is_exact and float(alpha).is_integer():
            return self ** int(float(alpha))
        self._require_float("a non-integer real power")
        a = self.coeffs
        if not a[0] > 0:
            raise DomainError("non-integer real power requires a positive value at the expansion point")
        al = float(alpha)
        # u has zero constant coefficient, so p below is the series of (1+u)**alpha.
        u = [Scalar.inexact(0.0)] + [ai / a[0] for ai in a[1:]]
        p = [Scalar.inexact(1.0)]
        for n in range(1, self.order + 1):
            terms = (u[k] * p[n - k] * Scalar.inexact((al + 1.0) * k - n) for k in range(1, n + 1))
            p.append(ordered_sum(terms) / n)
        lead = Scalar.inexact(math.pow(float(a[0]), al))
        return Jet([lead * pk for pk in p])
