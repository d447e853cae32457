"""Exact scalar arithmetic and multi-index combinatorics.

Scalars come in exactly two modes:

* exact mode, backed by arbitrary-precision rationals (``fractions.Fraction``),
* float mode, backed by ordinary float64.

Arithmetic never mixes the two silently: combining an exact scalar with a
float one raises :class:`ModeError`.  Conversion is explicit, via
:meth:`Scalar.to_float`.  Plain Python ints are accepted on either side of an
operation and are lifted into the mode of the other operand (an integer is
exact in both modes).

The combinatorial layer (multi-indices, which are checked tuples, multinomial
coefficients, composition enumeration, generalized binomial coefficients) is
exact by construction: everything is computed with arbitrary-precision
integers, so identity residuals that should be zero come out exactly zero.
Callers working in float mode convert at the boundary.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Iterator


class ModeError(TypeError):
    """Exact and float scalars were combined without explicit conversion."""


class DomainError(ValueError):
    """An operation was evaluated outside its mathematical domain."""


class Scalar:
    """A number carrying its arithmetic mode: exact rational or float64.

    Exact scalars are always normalized (gcd(|num|, den) = 1, den > 0,
    zero is 0/1); this is inherited from ``fractions.Fraction``.
    """

    __slots__ = ("value",)

    def __init__(self, value: Fraction | float | int):
        if isinstance(value, bool):
            raise TypeError("bool is not a scalar value")
        if isinstance(value, int):
            value = Fraction(value)
        if not isinstance(value, (Fraction, float)):
            raise TypeError(f"cannot build a Scalar from {type(value).__name__}")
        self.value: Fraction | float = value

    @classmethod
    def exact(cls, numerator: int | Fraction, denominator: int = 1) -> Scalar:
        """Exact-mode scalar numerator/denominator."""
        return cls(Fraction(numerator, denominator))

    @classmethod
    def inexact(cls, value: float | int) -> Scalar:
        """Float-mode scalar."""
        return cls(float(value))

    @property
    def is_exact(self) -> bool:
        return isinstance(self.value, Fraction)

    @property
    def mode(self) -> str:
        return "exact" if self.is_exact else "float"

    def to_float(self) -> Scalar:
        """Explicit exact -> float conversion (identity on float scalars)."""
        return self if not self.is_exact else Scalar(float(self.value))

    def _lift(self, other: object) -> "Scalar | None":
        """Bring ``other`` into this scalar's mode, or None if unsupported."""
        if isinstance(other, Scalar):
            if other.is_exact != self.is_exact:
                raise ModeError(
                    f"cannot combine {self.mode} and {other.mode} scalars; "
                    "convert explicitly with to_float()"
                )
            return other
        if isinstance(other, int) and not isinstance(other, bool):
            return Scalar(Fraction(other)) if self.is_exact else Scalar(float(other))
        return None

    def __add__(self, other: object) -> Scalar:
        rhs = self._lift(other)
        if rhs is None:
            return NotImplemented
        return Scalar(self.value + rhs.value)

    __radd__ = __add__

    def __sub__(self, other: object) -> Scalar:
        rhs = self._lift(other)
        if rhs is None:
            return NotImplemented
        return Scalar(self.value - rhs.value)

    def __rsub__(self, other: object) -> Scalar:
        lhs = self._lift(other)
        if lhs is None:
            return NotImplemented
        return Scalar(lhs.value - self.value)

    def __mul__(self, other: object) -> Scalar:
        rhs = self._lift(other)
        if rhs is None:
            return NotImplemented
        return Scalar(self.value * rhs.value)

    __rmul__ = __mul__

    def __truediv__(self, other: object) -> Scalar:
        rhs = self._lift(other)
        if rhs is None:
            return NotImplemented
        return Scalar(self.value / rhs.value)

    def __rtruediv__(self, other: object) -> Scalar:
        lhs = self._lift(other)
        if lhs is None:
            return NotImplemented
        return Scalar(lhs.value / self.value)

    def __pow__(self, exponent: int) -> Scalar:
        if not isinstance(exponent, int) or isinstance(exponent, bool):
            return NotImplemented
        return Scalar(self.value ** exponent)

    def __neg__(self) -> Scalar:
        return Scalar(-self.value)

    def __abs__(self) -> Scalar:
        return Scalar(abs(self.value))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Scalar):
            return self.is_exact == other.is_exact and self.value == other.value
        if isinstance(other, int) and not isinstance(other, bool):
            return self.value == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.value)

    def _cmp_value(self, other: object) -> Fraction | float:
        rhs = self._lift(other)
        if rhs is None:
            raise TypeError(f"cannot compare Scalar with {type(other).__name__}")
        return rhs.value

    def __lt__(self, other: object) -> bool:
        return self.value < self._cmp_value(other)

    def __le__(self, other: object) -> bool:
        return self.value <= self._cmp_value(other)

    def __gt__(self, other: object) -> bool:
        return self.value > self._cmp_value(other)

    def __ge__(self, other: object) -> bool:
        return self.value >= self._cmp_value(other)

    def __float__(self) -> float:
        return float(self.value)

    def __repr__(self) -> str:
        return f"Scalar({self.value!r})"

    def as_text(self) -> str:
        """Human-friendly rendering: "p" or "p/q" when exact, repr when float."""
        if self.is_exact and self.value.denominator == 1:
            return _digits(self.value.numerator)
        return self.as_ratio_text()

    def as_ratio_text(self) -> str:
        """Machine rendering: always "p/q" when exact, shortest repr when float."""
        if self.is_exact:
            return f"{_digits(self.value.numerator)}/{_digits(self.value.denominator)}"
        return repr(self.value)


def _digits(n: int) -> str:
    """str(n), also for an integer beyond the interpreter's int-to-str digit
    limit, which Decimal does not apply; the limit itself stays untouched."""
    try:
        return str(n)
    except ValueError:
        import decimal  # only here: importing it costs every run about a millisecond
        return str(decimal.Decimal(n))


class MultiIndex(tuple):
    """Vector of non-negative integers; the summation index of multinomial sums."""

    __slots__ = ()

    def __new__(cls, entries: Iterable[int]) -> MultiIndex:
        entries = tuple(entries)
        if len(entries) < 1:
            raise ValueError("a multi-index needs at least one entry")
        for e in entries:
            if not isinstance(e, int) or isinstance(e, bool) or e < 0:
                raise ValueError(f"multi-index entries must be non-negative integers, got {e!r}")
        return super().__new__(cls, entries)

    @property
    def weight(self) -> int:
        """Sum of the entries."""
        return sum(self)


def multinomial(n: int, k: MultiIndex | Iterable[int]) -> Scalar:
    """Multinomial coefficient n! / (k_1! ... k_r! (n - |k|)!) as an exact scalar.

    The trailing (n - |k|)! factor makes this a strict generalization of the
    binomial coefficient: ``multinomial(n, (k,))`` equals C(n, k).
    """
    if not isinstance(k, MultiIndex):
        k = MultiIndex(tuple(k))
    w = k.weight
    if w > n:
        raise DomainError(f"multi-index weight {w} exceeds n = {n}")
    denom = math.factorial(n - w)
    for entry in k:
        denom *= math.factorial(entry)
    return Scalar.exact(math.factorial(n) // denom)


def compositions(n: int, r: int) -> Iterator[MultiIndex]:
    """All k in (Z>=0)^r with |k| = n, in increasing lexicographic order.

    Yields exactly C(n + r - 1, r - 1) multi-indices.
    """
    if n < 0:
        raise ValueError(f"composition total must be non-negative, got {n}")
    if r < 1:
        raise ValueError(f"composition length must be positive, got {r}")

    def rec(total: int, parts: int) -> Iterator[tuple[int, ...]]:
        if parts == 1:
            yield (total,)
            return
        for first in range(total + 1):
            for rest in rec(total - first, parts - 1):
                yield (first,) + rest

    for entries in rec(n, r):
        yield MultiIndex(entries)


def generalized_binomial(z: Scalar | int | Fraction | float, s: int) -> Scalar:
    """Generalized binomial coefficient C(z, s) = z(z-1)...(z-s+1) / s!.

    Defined for arbitrary scalar z and non-negative integer s; exact when z
    is exact.  C(z, 0) = 1 for every z.
    """
    if s < 0:
        raise DomainError(f"generalized binomial needs s >= 0, got {s}")
    if not isinstance(z, Scalar):
        z = Scalar(z)
    acc = z ** 0
    for j in range(s):
        acc = acc * (z - j)
    return acc / math.factorial(s)
