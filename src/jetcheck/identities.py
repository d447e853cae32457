"""Verifiers for a family of higher-order derivative identities.

Every verifier evaluates both sides of one identity for concrete inputs and
returns a :class:`VerificationReport` with the left- and right-hand values,
their residual, and a verdict.  Most left-hand sides are alternating sums
whose terms cancel, so each report also carries the cancellation scale (the
sum of the absolute values of the summands): in float mode the verdict
tolerance is relative to that scale, because the pre-cancellation magnitude
is what limits the achievable accuracy.

In exact mode a verdict of ``pass`` means the residual is exactly zero;
there is no tolerance.  Hypotheses (a zero sum of functions at the
evaluation point, a zero coefficient sum, a root of f at the point) are
checked first and reported as ``precondition_violated`` rather than being
silently assumed.

The identity family, in the naming used throughout (also the CLI tokens):

* ``theorem1`` - the general form: r function pairs (f_i, g_i) with
  sum(g_i) vanishing at the point; the multinomial-weighted sum of products
  of derivatives of f_i * g_i^(k_i) collapses to 0 for |s| < n and to
  n! * prod(f_i) * prod(g_i')^(s_i) for |s| = n.
* ``corollary2`` - the special case g_i = c_i * g with sum(c) = 0.
* ``symmetric_pair`` - the two-function form (c = (-1, 1), s = (p, n-p)).
* ``baran`` - the classic single-f form: the k-th summand carries an
  undifferentiated factor g(x0)^k and the sum is normalized by 1/n!.
* ``leibniz_product`` - a related convolution identity with no sign
  alternation and no hypothesis:
  x * sum_k C(n,k) (x^k f)^(k) (x^(n-k) g)^(n-k) = (x^(n+1) f g)^(n).
* ``power_family`` / ``exp_family`` - the fully combinatorial binomial
  reductions obtained from corollary2 for pure powers x^a with g = x^b
  (via generalized binomial coefficients) and for exponentials e^(a x)
  with g = e^(b x).
* ``zero_power_lemma`` - the supporting fact behind the general collapse:
  if f(x0) = 0 then (f^n)^(s)(x0) = 0 for s < n and
  (f^n)^(n)(x0) = n! * f'(x0)^n.

The first six left-hand sides are multinomial sums over |k| = n of
multinomial(n,k) * prod_i T_i[k_i], one table T_i[0..n] per factor.  Each
verifier builds its tables; one kernel, :func:`_convolve`, folds them by
binomial convolution in O(r n^2) steps instead of one jet product per factor
for each of the C(n+r-1, r-1) compositions.  A table is (values, d, e) with
T[k] = values[k] / (d e^k): in exact mode Python integers over the
denominator each entry has by its own algebra (a power of g over d_g^k has
e = d_g), float tables the same floats with d = e = 1.  Only the kernel puts
the tables over one denominator, so the fold is integer arithmetic and it
divides once for the lhs and once for the scale.  The last fold forms only
entry n, the one an identity reads.

Between its edges the module works on plain values: integers over a shared
denominator, or ``Fraction``, in exact mode, ``float`` in float mode.
:func:`_check_sizes` makes list inputs tuples; once :func:`_mode_for` has
chosen the mode, a Scalar list input is cleared once (:func:`_cleared`) and a
jet read once (:meth:`Jet.cleared`), each to numerators over one denominator
that enter the tables and a right-hand side as they are (:func:`_at`); only
:func:`_report` builds a report, whose ``params`` is rendered on first read;
:func:`eval_jet` is given the point :func:`_mode_for` returned, a float in
float mode, so it reads the same mode.  Series products and powers, and every
sum over coefficient values, come from the series core in :mod:`jetcheck.jets`.
Every weighted right-hand side (n!, multinomial(n, s), or 1 for baran) is
formed exactly by :func:`_product` and, in float mode, rounded once, so n!
never has to fit in a float on its own.

All verifiers are pure functions; :func:`sweep` derives one RNG per trial
from the master seed, so summaries are reproducible regardless of the order
or parallelism with which trials would be evaluated.
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import reduce
from typing import Callable, Iterable, Sequence

from .exprs import (
    Expr,
    _mode_for,
    add,
    const,
    eval_jet,
    eval_scalar,
    mul,
    neg,
    pow_int,
    sub,
    to_text,
    X,
)
from .jets import Jet, clear_denominators, coefficient, ordered_sum, series_mul, series_pow
from .numeric import (
    MultiIndex,
    Scalar,
    compositions,  # noqa: F401  (re-exported: tests and bench/tracing.py look it up here)
    generalized_binomial,  # noqa: F401  (likewise)
    multinomial,
)

DEFAULT_TOL = 1e-9
HYPOTHESIS_TOL = 1e-12
VERDICTS = ("pass", "fail", "precondition_violated")

IDENTITIES = (
    "theorem1",
    "corollary2",
    "symmetric_pair",
    "baran",
    "leibniz_product",
    "power_family",
    "exp_family",
    "zero_power_lemma",
)

# Identities whose statement carries a hypothesis that a negative-mode sweep
# can deliberately break.
PERTURBABLE_IDENTITIES = (
    "theorem1",
    "corollary2",
    "power_family",
    "exp_family",
    "zero_power_lemma",
)


class _ParamsOnRead:
    """The report's ``params`` field.  Verifiers give it as a tuple of (name,
    value) pairs of their immutable inputs (:func:`_params`), rendered to
    text on the first read, once: only a reader of the report needs it."""

    def __get__(self, report, owner: type | None = None) -> dict[str, str]:
        if report is None:
            raise AttributeError("params")  # so the dataclass field has no default
        params = report.__dict__["params"]
        if isinstance(params, tuple):
            params = report.__dict__["params"] = {k: _param_text(v) for k, v in params}
        return params

    def __set__(self, report, value) -> None:
        report.__dict__["params"] = value


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of checking one identity instance."""

    identity: str
    params: dict[str, str] = _ParamsOnRead()
    mode: str  # "exact" | "float"
    lhs: Scalar | None
    rhs: Scalar | None
    residual: Scalar | None
    cancellation_scale: Scalar | None
    tolerance: float | None
    verdict: str  # one of VERDICTS
    notes: tuple[str, ...] = ()


@dataclass(frozen=True)
class TheoremInstance:
    """One instance of the general identity: n, r, the functions, the
    derivative orders s, and the evaluation point."""

    n: int
    r: int
    f: tuple[Expr, ...]
    g: tuple[Expr, ...]
    s: MultiIndex
    x0: Scalar

    def __post_init__(self) -> None:
        _, f, g, s = _check_sizes(self.n, self.r, f=self.f, g=self.g, s=self.s)
        for name, value in (("f", f), ("g", g), ("s", s)):
            object.__setattr__(self, name, value)


def _check_sizes(n: int, r: int | None = None, **lists: Sequence) -> tuple:
    """Reject the sizes an identity asserts nothing about: n < 0, r < 1, a
    list (f, g, c, alpha or s) whose length is not r, and |s| > n.

    Returns r, by default the length of the first list, then every list as a
    tuple, s as a :class:`MultiIndex`."""
    lists = {key: MultiIndex(v) if key == "s" else tuple(v) for key, v in lists.items()}
    if r is None:
        r = len(next(iter(lists.values()))) if lists else 1
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    if r < 1:
        raise ValueError(f"r must be positive, got {r}")
    if any(len(v) != r for v in lists.values()):
        raise ValueError(
            f"{', '.join(lists)} must all have length r = {r} "
            f"(got {', '.join(str(len(v)) for v in lists.values())})"
        )
    weight = sum(lists.get("s", ()))
    if weight > n:
        raise ValueError(f"|s| = {weight} exceeds n = {n}; the identity asserts nothing there")
    return (r, *lists.values())


def _at(jet: tuple[Sequence, int], k: int, exponent: int = 1) -> tuple:
    """The :func:`_product` factor of Taylor coefficient k of a jet read by
    :meth:`Jet.cleared`: (values[k], d, exponent); 0 beyond its order, where a
    slope is only raised to the power 0."""
    values, d = jet
    return (values[k], d, exponent) if k < len(values) else (0, 1, exponent)


def _text(value) -> str:
    """A plain value rendered as the report renders its numbers."""
    return Scalar(value).as_text()


def _product(weight: int | Fraction, factors: Iterable[tuple], mode: str):
    """weight * prod((base / d) ** exponent for base, d, exponent in factors),
    formed exactly and, in float mode, rounded once: no partial product, such
    as n! alone, has to fit in a float.  A non-finite float factor (inf or
    nan) raises OverflowError.  Bases are ints, Fractions or floats, d a
    positive integer (a cleared jet's denominator, or 1) and exponents
    non-negative; the product runs on integer numerators and denominators,
    reduced once at the end."""
    num, den = weight.numerator, weight.denominator
    for base, d, exponent in factors:
        if isinstance(base, float) and not math.isfinite(base):
            raise OverflowError(f"a factor is {base!r}, not a finite number")
        p, q = base.as_integer_ratio()
        num *= p ** exponent
        den *= (q * d) ** exponent
    total = Fraction(num, den)
    return total if mode == "exact" else float(total)


def _verdict_for(residual, scale, mode: str, tol: float) -> str:
    if mode == "exact":
        return "pass" if residual == 0 else "fail"
    return "pass" if abs(residual) <= tol * max(1.0, scale) else "fail"


def _finish(
    identity: str,
    params: tuple,
    mode: str,
    lhs,
    rhs,
    scale,
    tol: float,
    notes: tuple[str, ...] = (),
    rhs_shift: Scalar | None = None,
) -> VerificationReport:
    """The report for lhs, rhs and scale, each the mode's plain type, which become Scalars here.

    A float lhs, rhs (after the shift) or scale that is not finite raises
    OverflowError.  A float check whose |rhs| is within the tolerance limit
    would pass with lhs = 0 as well; it gets a note giving both numbers, and
    its verdict stands."""
    lhs, rhs, scale = Scalar(lhs), Scalar(rhs), Scalar(scale)
    if rhs_shift is not None:
        rhs = rhs + (rhs_shift.to_float() if mode == "float" else rhs_shift)
        notes = notes + (f"rhs perturbed by {rhs_shift.as_text()}",)
    if mode == "float":
        for name, side in (("lhs", lhs), ("rhs", rhs), ("cancellation scale", scale)):
            if not math.isfinite(side.value):
                raise OverflowError(f"the {name} is {side.value!r}, not a finite number")
        limit = tol * max(1.0, scale.value)
        if rhs.value != 0 and limit >= abs(rhs.value):
            notes = notes + (
                f"vacuous check: |rhs| = {_text(abs(rhs.value))} is within the tolerance "
                f"limit {_text(limit)}, so lhs = 0 would also pass",
            )
    residual = lhs - rhs
    verdict = _verdict_for(residual.value, scale.value, mode, tol)
    return _report(identity, params, mode, tol, verdict, notes, (lhs, rhs, residual, scale))


def _report(
    identity: str, params: tuple, mode: str, tol: float, verdict: str,
    notes: tuple[str, ...], sides: tuple = (None, None, None, None),
) -> VerificationReport:
    """The one place a report is built, also for a precondition violation,
    which has no ``sides`` (lhs, rhs, residual and the cancellation scale)."""
    tolerance = tol if mode == "float" else None
    return VerificationReport(identity, params, mode, *sides, tolerance, verdict, notes)


def _hypothesis_note(what: str, values: Sequence, den: int, mode: str) -> str | None:
    """The note when a hypothesis that ``values`` / den sum to zero fails (in
    float mode, where den is 1: beyond HYPOTHESIS_TOL * (1 + the sum of
    magnitudes)), else None.  Exact values are integers, so only a note's
    sum becomes a Fraction."""
    total = ordered_sum(values)
    if total == 0:
        return None
    if mode == "float":
        if abs(total) <= HYPOTHESIS_TOL * (1.0 + ordered_sum(map(abs, values))):
            return None
    else:
        total = Fraction(total, den)
    return f"hypothesis failed: {what} is {_text(total)}, not 0"


def _params(**fields) -> tuple:
    """Report parameters in the order given, each written from its type on first read."""
    return tuple(fields.items())


def _param_text(value) -> str:
    """An int or str as is, a Scalar by ``as_text``, an expression by
    ``to_text``, a tuple (a MultiIndex too) as its items joined by commas."""
    if isinstance(value, tuple):
        return ",".join(map(_param_text, value))
    if isinstance(value, (int, str)):
        return str(value)
    return value.as_text() if isinstance(value, Scalar) else to_text(value)


def _cleared(scalars: Sequence[Scalar], mode: str) -> tuple[list, int]:
    """Scalar inputs as integers over their least common denominator in
    exact mode, as floats over 1 in float mode."""
    if mode == "float":
        return [float(v) for v in scalars], 1
    return clear_denominators([v.value for v in scalars])


def _convolve(tables: Sequence[tuple[Sequence, int, int]], n: int, mode: str) -> tuple:
    """The sum over |k| = n of multinomial(n, k) * prod_i T_i[k_i], and its
    cancellation scale (the same sum over the absolute values), for tables
    (values, d, e) of entries k = 0..n with T[k] = values[k] / (d e^k).

    The sum is n! [t^n] prod_i sum_k T_i[k] t^k / k!, a labelled product of
    exponential generating functions.  Folding the tables with the binomial
    convolution (a * b)_m = sum_j C(m, j) a_j b_(m-j) and reading entry n
    therefore gives it exactly, in O(r n^2) operations instead of one
    product per composition; its last fold forms only entry n.  The weights
    are positive integers, so the same fold over |values| gives the scale.
    As every composition has |k| = n, entry k of table i times (E / e_i)^k,
    with E = lcm(e_i), puts every product over prod(d_i) E^n, so exact mode
    divides once for each; float tables have d = e = 1.
    """
    # the last fold reads row n alone, every other fold rows 0 to n
    rows = {m: [math.comb(m, j) for j in range(m + 1)]
            for m in (range(n + 1) if len(tables) > 2 else (n,))}
    common = math.lcm(*[e for _, _, e in tables])
    den = common ** n * math.prod(d for _, d, _ in tables)
    lhs, *rest = [values if e == common else [v * (common // e) ** k for k, v in enumerate(values)]
                  for values, _, e in tables]
    mag = [abs(v) for v in lhs]
    for i, values in enumerate(rest, 2):
        entries = range(n + 1) if i < len(tables) else (n,)
        lhs = _binomial_convolution(lhs, values, rows, entries)
        mag = _binomial_convolution(mag, [abs(v) for v in values], rows, entries)
    if mode == "exact":
        return Fraction(lhs[-1], den), Fraction(mag[-1], den)
    return lhs[-1], mag[-1]


def _binomial_convolution(a: Sequence, b: Sequence, rows: list, entries: Iterable) -> list:
    """Entries m of (a * b)_m = sum_j C(m, j) a_j b_(m-j), C(m, j) = rows[m][j],
    each summed in :func:`ordered_sum`'s order."""
    return [reduce(operator.add, map(operator.mul, map(operator.mul, rows[m], a), b[m::-1]), 0)
            for m in entries]


def _powers(g: Sequence, n: int) -> list[Sequence]:
    """g^0 .. g^n, each truncated to the order of g; g^1 is :func:`series_pow`'s.
    Each other product is :func:`series_mul` by g, on g's reversed prefixes
    built once."""
    powers = [[1] + [0] * (len(g) - 1), series_pow(g, 1)][:n + 1]
    prefixes = [g[m::-1] for m in range(len(g))]
    while len(powers) <= n:
        last = powers[-1]
        powers.append([reduce(operator.add, map(operator.mul, last, p), 0) for p in prefixes])
    return powers


def _derivative_table(f: tuple, g_powers: list, e: int, s: int, c=1) -> tuple:
    """The table (c / c_den)^k (f * g^k)^(s)(x0) for e = d_g c_den: entry k
    is c^k s! [t^s](F G^k) over d_f e^k, one dot product each, because only
    the s-th coefficient of f * g^k is read; f = (F, d_f) from
    :meth:`Jet.cleared`, g_powers the powers of G = d_g g from :func:`_powers`."""
    (f, d), weight = f, math.factorial(s)
    values = [weight * coefficient(f, p, s) for p in g_powers]
    return values if c == 1 else [c ** k * v for k, v in enumerate(values)], d, e


def _collapse_rhs(n: int, s: MultiIndex, f: Sequence[tuple], slopes: Iterable[tuple], mode: str):
    """The right-hand side of theorem1 and its corollaries: n! prod_i f_i(x0)
    times the slope factors when |s| = n, else 0."""
    if s.weight != n:
        return _product(0, (), mode)
    return _product(math.factorial(n), [_at(fi, 0) for fi in f] + list(slopes), mode)


def theorem1_verify(
    inst: TheoremInstance,
    *,
    tol: float = DEFAULT_TOL,
    rhs_shift: Scalar | None = None,
) -> VerificationReport:
    """Check the general r-function identity on one instance.

    The hypothesis is checked pointwise at x0 (which is all the collapse
    argument needs); instances whose g_i sum to zero identically satisfy it
    a fortiori.
    """
    n, r, s = inst.n, inst.r, inst.s
    params = _params(n=n, r=r, s=s, f=inst.f, g=inst.g, x0=inst.x0)
    x0, mode = _mode_for(inst.x0, inst.f + inst.g, (rhs_shift,))
    f = [eval_jet(e, x0, si).cleared() for e, si in zip(inst.f, s)]
    g = [eval_jet(e, x0, si).cleared() for e, si in zip(inst.g, s)]

    den = math.lcm(*[d for _, d in g])
    note = _hypothesis_note("sum of g_i at x0", [v[0] * (den // d) for v, d in g], den, mode)
    if note is not None:
        return _report("theorem1", params, mode, tol, "precondition_violated", (note,))

    tables = [_derivative_table(fi, _powers(cg, n), dg, si) for fi, (cg, dg), si in zip(f, g, s)]
    lhs, scale = _convolve(tables, n, mode)
    rhs = _collapse_rhs(n, s, f, [_at(gi, 1, si) for gi, si in zip(g, s)], mode)
    return _finish("theorem1", params, mode, lhs, rhs, scale, tol, (), rhs_shift)


def _corollary2_core(
    identity: str,
    params: tuple,
    n: int,
    f: Sequence[Expr],
    g: Expr,
    c: Sequence[Scalar],
    s: MultiIndex,
    x0: Scalar,
    tol: float,
    rhs_shift: Scalar | None,
) -> VerificationReport:
    x0, mode = _mode_for(x0, tuple(f) + (g,), (*c, rhs_shift))
    c, c_den = _cleared(c, mode)
    note = _hypothesis_note("sum of c", c, c_den, mode)
    if note is not None:
        return _report(identity, params, mode, tol, "precondition_violated", (note,))

    f = [eval_jet(e, x0, si).cleared() for e, si in zip(f, s)]
    g = eval_jet(g, x0, max(s)).cleared()
    g_powers, e = _powers(g[0], n), g[1] * c_den
    tables = [_derivative_table(fi, g_powers, e, si, ci) for fi, ci, si in zip(f, c, s)]
    lhs, scale = _convolve(tables, n, mode)
    # g_i = c_i g, so g_i'^(s_i) = c_i^(s_i) g'^(s_i).
    slopes = [(ci, c_den, si) for ci, si in zip(c, s)] + [_at(g, 1, s.weight)]
    rhs = _collapse_rhs(n, s, f, slopes, mode)
    return _finish(identity, params, mode, lhs, rhs, scale, tol, (), rhs_shift)


def corollary2_verify(
    n: int,
    f: Sequence[Expr],
    g: Expr,
    c: Sequence[Scalar],
    s: MultiIndex | Sequence[int],
    x0: Scalar,
    *,
    r: int | None = None,
    tol: float = DEFAULT_TOL,
    rhs_shift: Scalar | None = None,
) -> VerificationReport:
    """Check the constant-multiples form: g_i = c_i * g with sum(c) = 0."""
    r, f, c, s = _check_sizes(n, r, f=f, c=c, s=s)
    params = _params(n=n, r=r, s=s, c=c, f=f, g=g, x0=x0)
    return _corollary2_core("corollary2", params, n, f, g, c, s, x0, tol, rhs_shift)


def symmetric_pair_verify(
    n: int,
    p: int,
    f1: Expr,
    f2: Expr,
    g: Expr,
    x0: Scalar,
    *,
    tol: float = DEFAULT_TOL,
    rhs_shift: Scalar | None = None,
) -> VerificationReport:
    """Two-function alternating form: c = (-1, 1) and s = (p, n - p), with
    right-hand side (-1)^p n! f1 f2 g'^n."""
    _check_sizes(n)
    if not 0 <= p <= n:
        raise ValueError(f"p must lie in 0..{n}, got {p}")
    params = _params(n=n, p=p, f1=f1, f2=f2, g=g, x0=x0)
    s = MultiIndex((p, n - p))
    c = (Scalar.exact(-1), Scalar.exact(1))
    return _corollary2_core("symmetric_pair", params, n, (f1, f2), g, c, s, x0, tol, rhs_shift)


def baran_verify(
    n: int,
    f: Expr,
    g: Expr,
    x0: Scalar,
    *,
    tol: float = DEFAULT_TOL,
    rhs_shift: Scalar | None = None,
) -> VerificationReport:
    """Single-f alternating form, normalized by 1/n!:

        (1/n!) sum_k (-1)^k C(n,k) g(x0)^k (f g^(n-k))^(n)(x0) = f(x0) g'(x0)^n

    The g^k factor is a plain value at x0, not differentiated.  There is no
    hypothesis beyond the expressions being defined at x0.
    """
    _check_sizes(n)
    params = _params(n=n, f=f, g=g, x0=x0)
    x0, mode = _mode_for(x0, (f, g), (rhs_shift,))
    f, g = (eval_jet(e, x0, n).cleared() for e in (f, g))
    # The 1/n! cancels the n! of the n-th derivative, leaving [t^n](f g^j).
    (cf, df), (cg, dg) = f, g
    lhs, scale = _convolve(
        [([(-cg[0]) ** k for k in range(n + 1)], 1, dg),
         ([coefficient(cf, p, n) for p in _powers(cg, n)], df, dg)], n, mode
    )
    rhs = _product(1, [_at(f, 0), _at(g, 1, n)], mode)
    return _finish("baran", params, mode, lhs, rhs, scale, tol, (), rhs_shift)


def leibniz_product_verify(
    n: int,
    f: Expr,
    g: Expr,
    x0: Scalar,
    *,
    tol: float = DEFAULT_TOL,
    rhs_shift: Scalar | None = None,
) -> VerificationReport:
    """Convolution identity with monomial weights and no sign alternation:

        x * sum_k C(n,k) (x^k f)^(k) (x^(n-k) g)^(n-k) = (x^(n+1) f g)^(n)

    evaluated at x0.  No hypothesis beyond the expression domains.
    """
    _check_sizes(n)
    params = _params(n=n, f=f, g=g, x0=x0)
    x0, mode = _mode_for(x0, (f, g), (rhs_shift,))
    (cf, df), (cg, dg) = (eval_jet(e, x0, n).cleared() for e in (f, g))
    # x = (p + q t) / q; the outer factor x0 = p / q goes into the first table.
    x, q = Jet.variable(x0, n).cleared()
    p = x[0]
    lhs, scale = _convolve(
        [([p * v for v in _monomial_table(cf, p, q)], q * df, q),
         (_monomial_table(cg, p, q), dg, q)], n, mode
    )
    top = coefficient(series_mul(series_pow(x, n + 1), cf), cg, n)
    rhs = _product(Fraction(math.factorial(n), q ** (n + 1) * df * dg), [(top, 1, 1)], mode)
    return _finish("leibniz_product", params, mode, lhs, rhs, scale, tol, (), rhs_shift)


def _monomial_table(h: Sequence, p, q: int) -> list:
    """[q^k (x^k h)^(k)(x0) for k = 0..order of h] with x0 = p/q, by
    [t^k] (x0 + t)^k h = sum_j C(k, j) x0^j h_j."""
    return [math.factorial(k) * ordered_sum(math.comb(k, j) * p ** j * q ** (k - j) * h[j]
                                            for j in range(k + 1))
            for k in range(len(h))]


def _family_check(
    identity: str,
    n: int,
    alpha: Sequence[Scalar],
    beta: Scalar,
    c: Sequence[Scalar],
    s: MultiIndex | Sequence[int],
    r: int | None,
    tol: float,
    rhs_shift: Scalar | None,
    entry: Callable,
    entry_den: Callable,
    rhs: Callable,
    **extra_params: str,
) -> VerificationReport:
    """The check shared by the binomial families: the lhs sums, over |k| = n,
    multinomial(n,k) prod_i c_i^(k_i) E(alpha_i + k_i beta, s_i), where
    E(Z / q, s) = entry(Z, s, q) / entry_den(s, q); ``rhs(factors, mode)``
    returns the right-hand side and its notes, given the factors beta^n and
    c_i^(s_i) for :func:`_product`; ``extra_params`` end the report's params."""
    r, alpha, c, s = _check_sizes(n, r, alpha=alpha, c=c, s=s)
    params = _params(n=n, r=r, s=s, alpha=alpha, beta=beta, c=c, **extra_params)
    beta, mode = _mode_for(beta, (), (*alpha, *c, rhs_shift))
    c, c_den = _cleared(c, mode)
    note = _hypothesis_note("sum of c", c, c_den, mode)
    if note is None and s.weight != n:
        note = f"this closed form needs |s| = n, got |s| = {s.weight} with n = {n}"
    if note is not None:
        return _report(identity, params, mode, tol, "precondition_violated", (note,))

    (*a, b), q = _cleared([*alpha, beta], mode)
    tables = []
    for ai, ci, si in zip(a, c, s):
        den, values = entry_den(si, q), [entry(ai + k * b, si, q) for k in range(n + 1)]
        if mode == "float":  # float tables are over 1: each entry is divided first
            values, den = [v / den for v in values], 1
        tables.append(([ci ** k * v for k, v in enumerate(values)], den, c_den))
    lhs, scale = _convolve(tables, n, mode)
    value, notes = rhs([(b, q, n), *[(ci, c_den, si) for ci, si in zip(c, s)]], mode)
    return _finish(identity, params, mode, lhs, value, scale, tol, notes, rhs_shift)


def power_family_check(
    n: int,
    alpha: Sequence[Scalar],
    beta: Scalar,
    c: Sequence[Scalar],
    s: MultiIndex | Sequence[int],
    *,
    r: int | None = None,
    tol: float = DEFAULT_TOL,
    rhs_shift: Scalar | None = None,
) -> VerificationReport:
    """Binomial reduction for the pure power family f_i = x^(alpha_i),
    g = x^beta.  Fully combinatorial:

        sum_{|k|=n} multinomial(n,k) prod_i c_i^(k_i) C(alpha_i + k_i beta, s_i)
            = multinomial(n,s) beta^n prod_i c_i^(s_i)

    Exact for rational alpha, beta, c; needs sum(c) = 0 and |s| = n.
    """
    return _family_check(
        "power_family", n, alpha, beta, c, s, r, tol, rhs_shift,
        lambda z, si, q: math.prod(z - j * q for j in range(si)),
        lambda si, q: q ** si * math.factorial(si),
        lambda factors, mode: (_product(multinomial(n, s).value, factors, mode), ()),
    )


def exp_family_check(
    n: int,
    alpha: Sequence[Scalar],
    beta: Scalar,
    c: Sequence[Scalar],
    s: MultiIndex | Sequence[int],
    rhs_form: str = "corrected",
    *,
    r: int | None = None,
    tol: float = DEFAULT_TOL,
    rhs_shift: Scalar | None = None,
) -> VerificationReport:
    """Reduction for the exponential family f_i = e^(alpha_i x),
    g = e^(beta x).  Fully combinatorial:

        LHS = sum_{|k|=n} multinomial(n,k) prod_i c_i^(k_i) (alpha_i + k_i beta)^(s_i)

    Two right-hand forms are offered.  ``corrected`` (the default) uses
    n! * beta^n * prod(c^s), which is what substituting the family into the
    constant-multiples identity gives, and what the two-function special
    case states.  ``as_printed`` uses multinomial(n,s) * beta^n * prod(c^s),
    an alternative form that disagrees with the corrected one whenever
    multinomial(n, s) != n!; it is kept so the discrepancy can be exhibited
    rather than suppressed.
    """
    if rhs_form not in ("corrected", "as_printed"):
        raise ValueError(f"rhs_form must be 'corrected' or 'as_printed', got {rhs_form!r}")

    def rhs(factors, mode):
        corrected = _product(math.factorial(n), factors, mode)
        printed = _product(multinomial(n, s).value, factors, mode)
        if rhs_form == "corrected":
            return corrected, (f"as_printed rhs would be {_text(printed)}",)
        return printed, (
            "as_printed rhs uses multinomial(n,s) where the derivation from the "
            f"constant-multiples identity gives n!; corrected rhs would be {_text(corrected)}",
        )

    return _family_check(
        "exp_family", n, alpha, beta, c, s, r, tol, rhs_shift,
        lambda z, si, q: z ** si, lambda si, q: q ** si, rhs, rhs_form=rhs_form,
    )


def zero_power_lemma_check(
    f: Expr,
    n: int,
    x0: Scalar,
    *,
    tol: float = DEFAULT_TOL,
    rhs_shift: Scalar | None = None,
) -> VerificationReport:
    """Supporting lemma: for f with f(x0) = 0, every derivative of f^n below
    order n vanishes at x0 and the order-n derivative equals n! * f'(x0)^n.

    The report's lhs/rhs compare the order-n derivative; the lower orders
    are folded into the verdict (any nonzero one fails, with a note).
    """
    _check_sizes(n)
    params = _params(f=f, n=n, x0=x0)
    x0, mode = _mode_for(x0, (f,), (rhs_shift,))
    f = eval_jet(f, x0, n).cleared()
    note = _hypothesis_note("f(x0)", f[0][:1], f[1], mode)
    if note is not None:
        return _report("zero_power_lemma", params, mode, tol, "precondition_violated", (note,))

    *lows, lhs = [_product(Fraction(math.factorial(k), f[1] ** n), [(v, 1, 1)], mode)
                  for k, v in enumerate(series_pow(f[0], n))]
    scale = ordered_sum(map(abs, [lhs, *lows]))
    rhs = _product(math.factorial(n), [_at(f, 1, n)], mode)

    report = _finish("zero_power_lemma", params, mode, lhs, rhs, scale, tol, (), rhs_shift)
    bad = [k for k, low in enumerate(lows) if _verdict_for(low, scale, mode, tol) == "fail"]
    if bad:
        values = ",".join(_text(lows[k]) for k in bad)
        report = replace(
            report,
            verdict="fail",
            notes=report.notes + (f"derivatives of f^n at orders {bad} are nonzero: {values}",),
        )
    return report


# Randomized sweeps ---------------------------------------------------------


@dataclass(frozen=True)
class SweepConfig:
    """Configuration for a seeded randomized sweep.

    Instances are generated so the checked identity's hypothesis holds by
    construction (e.g. the last g is the negated sum of the others); with
    ``negative`` set, the hypothesis is deliberately broken by adding 1, so
    every trial must come back ``precondition_violated``.
    """

    seed: int = 0
    trials: int = 10
    max_n: int = 4
    max_r: int = 3
    coeff_bound: int = 4
    degree_bound: int = 3
    identities: tuple[str, ...] = IDENTITIES
    negative: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "identities", tuple(self.identities))
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.max_n < 0 or self.max_r < 2:
            raise ValueError("need max_n >= 0 and max_r >= 2")
        if self.coeff_bound < 1 or self.degree_bound < 0:
            raise ValueError("need coeff_bound >= 1 and degree_bound >= 0")
        if not self.identities:
            raise ValueError("identity set must not be empty")
        for name in self.identities:
            if name not in IDENTITIES:
                raise ValueError(f"unknown identity {name!r}")
            if self.negative and name not in PERTURBABLE_IDENTITIES:
                raise ValueError(f"identity {name!r} has no hypothesis to perturb")


@dataclass(frozen=True)
class SweepSummary:
    config: SweepConfig
    counts: dict[str, int]
    per_identity: dict[str, dict[str, int]]
    first_failure: VerificationReport | None


def sweep(config: SweepConfig) -> SweepSummary:
    """Run ``config.trials`` seeded random instances, cycling through the
    configured identities.

    Trial t draws from ``random.Random(f"{seed}:{t}")``; summaries therefore
    do not depend on evaluation order, and a parallel driver splitting
    trials across workers would reproduce them byte for byte.
    """
    per_identity = {name: dict.fromkeys(VERDICTS, 0) for name in config.identities}
    first_failure: VerificationReport | None = None
    for t in range(config.trials):
        identity = config.identities[t % len(config.identities)]
        rng = random.Random(f"{config.seed}:{t}")
        report = _random_trial(identity, rng, config)
        per_identity[identity][report.verdict] += 1
        if report.verdict != "pass" and first_failure is None:
            first_failure = report
    counts = {v: sum(tally[v] for tally in per_identity.values()) for v in VERDICTS}
    return SweepSummary(
        config=config,
        counts=counts,
        per_identity=per_identity,
        first_failure=first_failure,
    )


def _rand_fraction(rng: random.Random, bound: int) -> Fraction:
    return Fraction(rng.randint(-bound, bound), rng.randint(1, bound))


def _rand_scalar(rng: random.Random, bound: int) -> Scalar:
    return Scalar(_rand_fraction(rng, bound))


def _rand_poly(rng: random.Random, degree_bound: int, coeff_bound: int) -> Expr:
    degree = rng.randint(0, degree_bound)
    terms: Expr = const(0)
    for j in range(degree + 1):
        coeff = _rand_fraction(rng, coeff_bound)
        terms = add(terms, mul(const(Scalar(coeff)), pow_int(X, j)))
    return terms


def _rand_split(rng: random.Random, total: int, parts: int) -> MultiIndex:
    entries = []
    remaining = total
    for _ in range(parts - 1):
        v = rng.randint(0, remaining)
        entries.append(v)
        remaining -= v
    entries.append(remaining)
    return MultiIndex(tuple(entries))


def _balanced_scalars(rng: random.Random, r: int, bound: int, broken: bool) -> tuple[Scalar, ...]:
    head = [_rand_fraction(rng, bound) for _ in range(r - 1)]
    last = -sum(head, Fraction(0))
    if broken:
        last += 1
    return tuple(Scalar(v) for v in head + [last])


def _random_trial(identity: str, rng: random.Random, config: SweepConfig) -> VerificationReport:
    n = rng.randint(0, config.max_n)
    broken = config.negative
    poly = lambda: _rand_poly(rng, config.degree_bound, config.coeff_bound)  # noqa: E731
    point = lambda: _rand_scalar(rng, config.coeff_bound)  # noqa: E731

    if identity == "theorem1":
        r = rng.randint(2, config.max_r)
        f = [poly() for _ in range(r)]
        g_head = [poly() for _ in range(r - 1)]
        g_last = neg(reduce(add, g_head, const(0)))
        if broken:
            g_last = add(g_last, const(1))
        s = _rand_split(rng, rng.randint(0, n), r)
        return theorem1_verify(TheoremInstance(n, r, f, g_head + [g_last], s, point()))
    if identity == "corollary2":
        r = rng.randint(2, config.max_r)
        f = tuple(poly() for _ in range(r))
        c = _balanced_scalars(rng, r, config.coeff_bound, broken)
        s = _rand_split(rng, rng.randint(0, n), r)
        return corollary2_verify(n, f, poly(), c, s, point())
    if identity == "symmetric_pair":
        p = rng.randint(0, n)
        return symmetric_pair_verify(n, p, poly(), poly(), poly(), point())
    if identity == "baran":
        return baran_verify(n, poly(), poly(), point())
    if identity == "leibniz_product":
        return leibniz_product_verify(n, poly(), poly(), point())
    if identity in ("power_family", "exp_family"):
        r = rng.randint(2, config.max_r)
        alpha = tuple(_rand_scalar(rng, config.coeff_bound) for _ in range(r))
        beta = _rand_scalar(rng, config.coeff_bound)
        c = _balanced_scalars(rng, r, config.coeff_bound, broken)
        s = _rand_split(rng, n, r)
        check = power_family_check if identity == "power_family" else exp_family_check
        return check(n, alpha, beta, c, s)
    if identity == "zero_power_lemma":
        x0 = point()
        h = poly()
        f = sub(h, const(eval_scalar(h, x0)))
        if broken:
            f = add(f, const(1))
        return zero_power_lemma_check(f, n, x0)
    raise ValueError(f"unknown identity {identity!r}")
