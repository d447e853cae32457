"""Exact scalar arithmetic and multi-index combinatorics.

Scalars come in exactly two modes:

* exact mode, backed by arbitrary-precision rationals (``fractions.Fraction``),
* float mode, backed by ordinary float64.

A scalar's ``value`` is exactly a ``Fraction`` or exactly a ``float``: an int
becomes a ``Fraction`` and a subclass instance its base type, so the mode is
the value's class.

Every arithmetic operator and ordering comparison follows one lift rule
(:meth:`Scalar._lift`): a plain int on either side takes the other operand's
mode (an integer is exact in both), and a scalar of the other mode raises
:class:`ModeError`, so the modes never mix silently; conversion is explicit,
via :meth:`Scalar.to_float`.

The combinatorial layer (multi-indices, which are checked tuples, multinomial
coefficients, composition enumeration, generalized binomial coefficients) is
exact by construction: everything is computed with arbitrary-precision
integers, so identity residuals that should be zero come out exactly zero.
Callers working in float mode convert at the boundary.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Iterable, Iterator


class ModeError(TypeError):
    """Exact and float scalars were combined without explicit conversion."""


class DomainError(ValueError):
    """An operation was evaluated outside its mathematical domain."""


def _operators(op):
    """The forward and reflected methods of ``op``, built as ``fractions`` builds its
    own: the other operand is lifted by :meth:`Scalar._lift`, or gives NotImplemented."""

    def forward(self: Scalar, other: object) -> Scalar:
        rhs = self._lift(other)
        return NotImplemented if rhs is None else Scalar(op(self.value, rhs.value))

    def reverse(self: Scalar, other: object) -> Scalar:
        lhs = self._lift(other)
        return NotImplemented if lhs is None else Scalar(op(lhs.value, self.value))
    return forward, reverse


def _comparison(op):
    """An ordering method on the same lift; an operand it cannot lift is a TypeError."""

    def compare(self: Scalar, other: object) -> bool:
        rhs = self._lift(other)
        if rhs is None:
            raise TypeError(f"cannot compare Scalar with {type(other).__name__}")
        return op(self.value, rhs.value)
    return compare


class Scalar:
    """A number carrying its arithmetic mode: exact rational or float64.

    Exact scalars are always normalized (gcd(|num|, den) = 1, den > 0,
    zero is 0/1); this is inherited from ``fractions.Fraction``.
    """

    __slots__ = ("value",)

    def __init__(self, value: Fraction | float | int):
        cls = type(value)
        if cls is not float and cls is not Fraction:
            # an int, or a subclass of Fraction or float, becomes its base type
            if isinstance(value, bool):
                raise TypeError("bool is not a scalar value")
            if isinstance(value, float):
                value = float(value)
            elif isinstance(value, (int, Fraction)):
                value = Fraction(value)
            else:
                raise TypeError(f"cannot build a Scalar from {cls.__name__}")
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
        return self.value.__class__ is Fraction

    @property
    def mode(self) -> str:
        return "exact" if self.is_exact else "float"

    def to_float(self) -> Scalar:
        """Explicit exact -> float conversion (identity on float scalars)."""
        return self if not self.is_exact else Scalar(float(self))

    def _lift(self, other: object) -> "Scalar | None":
        """Bring ``other`` into this scalar's mode, or None if unsupported."""
        if isinstance(other, Scalar):
            if other.value.__class__ is not self.value.__class__:
                raise ModeError(f"cannot combine {self.mode} and {other.mode} scalars; "
                                "convert explicitly with to_float()")
            return other
        if isinstance(other, int) and not isinstance(other, bool):
            return Scalar(self.value.__class__(other))
        return None

    __add__, __radd__ = _operators(operator.add)
    __sub__, __rsub__ = _operators(operator.sub)
    __mul__, __rmul__ = _operators(operator.mul)
    __truediv__, __rtruediv__ = _operators(operator.truediv)

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
            return self.value.__class__ is other.value.__class__ and self.value == other.value
        if isinstance(other, int) and not isinstance(other, bool):
            return self.value == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.value)

    __lt__ = _comparison(operator.lt)
    __le__ = _comparison(operator.le)
    __gt__ = _comparison(operator.gt)
    __ge__ = _comparison(operator.ge)

    def __float__(self) -> float:
        """The value as a float; an exact one beyond the float range is an OverflowError naming it."""
        try:
            return float(self.value)
        except OverflowError:
            text = self.as_text()
            text = text if len(text) <= 40 else f"{text[:20]}... ({len(text)} characters)"
            raise OverflowError(f"the exact value {text} is beyond the float range") from None

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


def integer_value(s: Scalar) -> int | None:
    """The int equal to ``s``, exact or float, or None where ``s`` is not a whole number."""
    v = s.value
    whole = v.denominator == 1 if v.__class__ is Fraction else v.is_integer()
    return int(v) if whole else None


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
