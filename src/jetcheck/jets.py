"""Truncated Taylor-series (jet) arithmetic.

A jet of order n represents a function f by its normalized Taylor
coefficients at an expansion point x0::

    coeffs[k] = f^(k)(x0) / k!        for k = 0 .. n

With this normalization multiplication is a plain Cauchy product, with no
binomial weights.  The k-th derivative is recovered as ``k! * coeffs[k]``
(:meth:`Jet.derivative`).

All coefficients of one jet share a single scalar mode.  In exact mode every
operation is exact rational arithmetic; the elementary transcendental
functions (exp, log, sin, cos, sqrt, and real powers with non-integer
exponent) are float-mode only, because their leading values are irrational
for almost every rational input.  Asking for them on an exact jet raises
:class:`jetcheck.numeric.ModeError` instead of silently degrading.

Jets are immutable values; every operation returns a fresh jet, so they are
safe to share between threads.

The series core works on plain Fraction or float coefficient lists and
serves both jets and the verifiers: one Cauchy product (:func:`coefficient`),
one integer-power loop (:func:`series_pow`) and one summation order
(:func:`ordered_sum`), so float digits do not depend on the Python version.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from .numeric import DomainError, ModeError, Scalar, one, zero

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

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[Scalar]):
        coeffs = tuple(coeffs)
        if not coeffs:
            raise ValueError("a jet needs at least the order-0 coefficient")
        mode = None
        for c in coeffs:
            if not isinstance(c, Scalar):
                raise TypeError(f"jet coefficients must be Scalar, got {type(c).__name__}")
            if mode is None:
                mode = c.is_exact
            elif c.is_exact != mode:
                raise ModeError("jet coefficients must share one scalar mode")
        self.coeffs: tuple[Scalar, ...] = coeffs

    @classmethod
    def variable(cls, x0: Scalar, order: int) -> Jet:
        """The identity function expanded at x0: coefficients [x0, 1, 0, ...]."""
        if order < 0:
            raise ValueError(f"jet order must be non-negative, got {order}")
        m = x0.mode
        return cls(([x0, one(m)] + [zero(m)] * order)[: order + 1])

    @classmethod
    def constant(cls, c: Scalar, order: int) -> Jet:
        if order < 0:
            raise ValueError(f"jet order must be non-negative, got {order}")
        return cls([c] + [zero(c.mode)] * order)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @property
    def mode(self) -> str:
        return self.coeffs[0].mode

    @property
    def is_exact(self) -> bool:
        return self.coeffs[0].is_exact

    @property
    def value(self) -> Scalar:
        """Value of the function at the expansion point."""
        return self.coeffs[0]

    def plain(self) -> list:
        """The Taylor coefficients as plain Fraction or float values."""
        return [c.value for c in self.coeffs]

    def derivative(self, k: int) -> Scalar:
        """The k-th derivative at the expansion point, k! * coeffs[k]."""
        if k < 0 or k > self.order:
            raise DomainError(f"derivative order {k} exceeds jet order {self.order}")
        return self.coeffs[k] * math.factorial(k)

    def _check_compatible(self, other: Jet) -> None:
        if self.order != other.order:
            raise ValueError(f"jet order mismatch: {self.order} vs {other.order}")
        if self.is_exact != other.is_exact:
            raise ModeError("cannot combine exact and float jets")

    def __add__(self, other: object) -> Jet:
        if not isinstance(other, Jet):
            return NotImplemented
        self._check_compatible(other)
        return Jet([a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other: object) -> Jet:
        if not isinstance(other, Jet):
            return NotImplemented
        self._check_compatible(other)
        return Jet([a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self) -> Jet:
        return Jet([-a for a in self.coeffs])

    def __mul__(self, other: object) -> Jet:
        if isinstance(other, (Scalar, int)):
            return Jet([a * other for a in self.coeffs])
        if not isinstance(other, Jet):
            return NotImplemented
        self._check_compatible(other)
        # A list, not map(): tuple() of an iterator resizes, which grew peak RSS over runs.
        return Jet([Scalar(v) for v in series_mul(self.plain(), other.plain())])

    __rmul__ = __mul__

    def __pow__(self, m: int) -> Jet:
        """Integer power; a**0 is the constant-one jet.  Negative exponents go
        through division and need a nonzero value at the expansion point."""
        if not isinstance(m, int) or isinstance(m, bool):
            return NotImplemented
        if m < 0:
            return Jet.constant(one(self.mode), self.order) / self ** (-m)
        return Jet([Scalar(v) for v in series_pow(self.plain(), m)])

    def __truediv__(self, other: object) -> Jet:
        if isinstance(other, (Scalar, int)):
            return Jet([a / other for a in self.coeffs])
        if not isinstance(other, Jet):
            return NotImplemented
        self._check_compatible(other)
        if other.coeffs[0] == 0:
            raise DomainError("division by a jet that vanishes at the expansion point")
        a, b = self.plain(), other.plain()
        out: list = []
        for k in range(len(a)):
            acc = a[k]
            for j in range(k):
                acc = acc - out[j] * b[k - j]
            out.append(acc / b[0])
        return Jet([Scalar(v) for v in out])

    def __rtruediv__(self, other: object) -> Jet:
        if isinstance(other, Scalar):
            return Jet.constant(other, self.order) / self
        if isinstance(other, int):
            num = Scalar.exact(other) if self.is_exact else Scalar.inexact(other)
            return Jet.constant(num, self.order) / self
        return NotImplemented

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Jet):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

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

    def apply(self, name: str) -> Jet:
        """Dispatch one of the named elementary functions."""
        if name not in ELEMENTARY_FUNCTIONS:
            raise ValueError(f"unknown elementary function {name!r}")
        return getattr(self, name)()

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
        u = [zero("float")] + [ai / a[0] for ai in a[1:]]
        p = [one("float")]
        for n in range(1, self.order + 1):
            terms = (u[k] * p[n - k] * Scalar.inexact((al + 1.0) * k - n) for k in range(1, n + 1))
            p.append(ordered_sum(terms) / n)
        lead = Scalar.inexact(math.pow(float(a[0]), al))
        return Jet([lead * pk for pk in p])
