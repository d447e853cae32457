"""The benchmark's three workloads and their input generators.

Each workload builds a fixed list of instances from its seed with its own
``random.Random``; nothing here calls jetcheck's sweep generator, so a change
to ``jetcheck.identities.sweep`` or its defaults leaves the inputs unchanged.
Instances are laid out stratum by stratum in round-robin order, so any prefix
of the list carries close to the workload's full mix.

Every instance carries the outcome it must produce (verdict, exit code, and
the exact residual where one is known) and its input properties, so the
benchmark can gate correctness and report input-property shares.

Import this module only after ``jetcheck`` is importable: the library
workloads build expression trees with ``jetcheck.parse`` during set-up.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

CLI = "cli"
LIBRARY = "library"


@dataclass(frozen=True)
class Instance:
    """One identity instance and the outcome it must produce.

    ``call`` is the CLI argv for a CLI workload, or ``(verifier name, args,
    kwargs)`` for a library workload.  ``residual`` is the exact residual
    text ("p/q") an exact instance must report, or None when the report has
    none (precondition exits) or the mode is float.
    """

    kind: str
    call: object
    verdict: str
    exit_code: int | None
    residual: str | None
    mode: str
    n: int
    compositions: int
    jet_order: int
    negative: bool
    perturb: float | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    interface: str  # CLI | LIBRARY
    size: int
    build: Callable[[int, int], list[Instance]] = field(repr=False)

    def instances(self, seed: int) -> list[Instance]:
        return self.build(seed, self.size)


# Exact inputs -------------------------------------------------------------


def _frac(rng: random.Random, bound: int, nonzero: bool = False) -> Fraction:
    while True:
        q = Fraction(rng.randint(-bound, bound), rng.randint(1, bound))
        if q or not nonzero:
            return q


def _frac_text(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


@dataclass(frozen=True)
class _Poly:
    """Polynomial with rational coefficients, lowest degree first."""

    coeffs: tuple[Fraction, ...]

    def at(self, x: Fraction) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def shifted(self, c: Fraction) -> _Poly:
        return _Poly((self.coeffs[0] + c,) + self.coeffs[1:])

    def text(self) -> str:
        parts = []
        for j in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[j]
            if c == 0:
                continue
            mag = _frac_text(abs(c))
            body = mag if j == 0 else f"{mag}*x" if j == 1 else f"{mag}*x^{j}"
            sign = "-" if c < 0 else ("+" if parts else "")
            parts.append(sign + body)
        return "".join(parts) or "0"


def _poly(rng: random.Random, degree: int, bound: int = 4) -> _Poly:
    coeffs = [_frac(rng, bound) for _ in range(degree)]
    coeffs.append(_frac(rng, bound, nonzero=True))
    return _Poly(tuple(coeffs))


@dataclass(frozen=True)
class _Func:
    """A polynomial, or a ratio of two, as text plus its exact value at x0."""

    text: str
    value: Fraction


def _poly_func(rng: random.Random, x0: Fraction, degree: int, nonzero: bool = False) -> _Func:
    while True:
        p = _poly(rng, degree)
        v = p.at(x0)
        if v or not nonzero:
            return _Func(p.text(), v)


def _rational_func(rng: random.Random, x0: Fraction, degree: int) -> _Func:
    """p/q with p and q nonzero at x0, so the value is defined and nonzero."""
    while True:
        p, q = _poly(rng, degree), _poly(rng, 1)
        pv, qv = p.at(x0), q.at(x0)
        if pv and qv:
            return _Func(f"({p.text()})/({q.text()})", pv / qv)


def _balanced_g(rng: random.Random, x0: Fraction, r: int, degree: int, broken: bool) -> list[_Func]:
    """r polynomials whose values at x0 sum to 0 (to 1 when ``broken``)."""
    head = [_poly_func(rng, x0, degree) for _ in range(r - 1)]
    last = _poly(rng, degree)
    target = -sum((g.value for g in head), Fraction(0)) + (1 if broken else 0)
    last = last.shifted(target - last.at(x0))
    return head + [_Func(last.text(), target)]


def _balanced_c(rng: random.Random, r: int, broken: bool) -> list[Fraction]:
    """r nonzero rationals summing to 0 (to 1 when ``broken``)."""
    while True:
        head = [_frac(rng, 4, nonzero=True) for _ in range(r - 1)]
        last = -sum(head, Fraction(0)) + (1 if broken else 0)
        if last:
            return head + [last]


def _split(rng: random.Random, total: int, parts: int) -> list[int]:
    s = [0] * parts
    for _ in range(total):
        s[rng.randrange(parts)] += 1
    return s


def _joined(values) -> str:
    return ",".join(_frac_text(v) if isinstance(v, Fraction) else str(v) for v in values)


def _ncomp(n: int, r: int) -> int:
    return math.comb(n + r - 1, r - 1)


# cli_small_exact ------------------------------------------------------------

CLI_KINDS = (
    "verify baran", "verify theorem1", "verify corollary2", "verify symmetric_pair",
    "verify leibniz_product", "binomid eq4", "binomid eq5", "binomid eq6", "binomid eq7",
    "lemma",
)
# Kinds whose negatives break the hypothesis (precondition_violated); the
# others are made negative with --perturb-rhs (fail).
_HYPOTHESIS_KINDS = frozenset({
    "verify theorem1", "verify corollary2", "binomid eq4", "binomid eq6", "lemma",
})


def _cli_instance(rng: random.Random, kind: str, n: int, r: int, negative: bool,
                  rational: bool) -> Instance:
    """All polynomials have degree 2; with ``rational`` the first f is p/q."""
    x0 = _frac(rng, 3)
    argv = kind.split()
    broken = negative and kind in _HYPOTHESIS_KINDS
    order, comps = n, n + 1

    def fs(count: int) -> list[_Func]:
        return [_rational_func(rng, x0, 2) if rational and j == 0 else
                _poly_func(rng, x0, 2, nonzero=True) for j in range(count)]

    def text(funcs: list[_Func]) -> str:
        return ",".join(e.text for e in funcs)

    if kind in ("verify baran", "verify leibniz_product"):
        argv += ["--n", str(n), "--f", text(fs(1)), "--g", _poly_func(rng, x0, 2).text,
                 "--at", _frac_text(x0)]
    elif kind == "verify symmetric_pair":
        f1, f2 = fs(2)
        argv += ["--n", str(n), "--p", str(rng.randint(0, n)), "--f1", f1.text,
                 "--f2", f2.text, "--g", _poly_func(rng, x0, 2).text, "--at", _frac_text(x0)]
    elif kind == "verify theorem1":
        f = fs(r)
        g = _balanced_g(rng, x0, r, 2, broken)
        s = _split(rng, rng.randint(0, n), r)
        argv += ["--n", str(n), "--s", _joined(s), "--f", text(f), "--g", text(g),
                 "--at", _frac_text(x0)]
        comps = _ncomp(n, r)
    elif kind == "verify corollary2":
        f = fs(r)
        g = _poly_func(rng, x0, 2)
        c = _balanced_c(rng, r, broken)
        s = _split(rng, rng.randint(0, n), r)
        argv += ["--n", str(n), "--s", _joined(s), "--c", _joined(c), "--f", text(f),
                 "--g", g.text, "--at", _frac_text(x0)]
        comps = _ncomp(n, r)
    elif kind in ("binomid eq4", "binomid eq6"):
        alpha = [_frac(rng, 4) for _ in range(r)]
        c = _balanced_c(rng, r, broken)
        argv += ["--n", str(n), "--s", _joined(_split(rng, n, r)), "--alpha", _joined(alpha),
                 "--beta", _frac_text(_frac(rng, 4, nonzero=True)), "--c", _joined(c)]
        order, comps = 0, _ncomp(n, r)
    elif kind in ("binomid eq5", "binomid eq7"):
        alpha = [_frac(rng, 4) for _ in range(2)]
        argv += ["--n", str(n), "--s", str(rng.randint(0, n)), "--alpha", _joined(alpha),
                 "--beta", _frac_text(_frac(rng, 4, nonzero=True))]
        order = 0
    elif kind == "lemma":
        h = _poly(rng, 2)
        hv = h.at(x0)
        f = h.shifted(-hv + (1 if broken else 0))
        argv += ["--f", f.text(), "--n", str(n), "--at", _frac_text(x0)]
        comps = 0
    else:
        raise ValueError(f"unknown CLI kind {kind!r}")
    argv.append("--json")

    if broken:
        return Instance(kind, tuple(argv), "precondition_violated", 1, None, "exact",
                        n, 0, order, True)
    if negative:
        shift = _frac(rng, 5, nonzero=True)
        argv += ["--perturb-rhs", _frac_text(shift)]
        return Instance(kind, tuple(argv), "fail", 1, f"{-shift.numerator}/{shift.denominator}",
                        "exact", n, comps, order, True)
    return Instance(kind, tuple(argv), "pass", 0, "0/1", "exact", n, comps, order, False)


def build_cli_small_exact(seed: int, size: int) -> list[Instance]:
    """Kind, n, r, sign and rational inputs follow the position, so every
    block of 400 instances has the same shape mix and only the values vary
    with the seed: each block of 50 holds every kind at every n in 1..5,
    every fourth block is negative (a quarter of the mix), every second block
    has a rational f, and r alternates between 2 and 3 every 200 instances."""
    rng = random.Random(f"cli_small_exact:{seed}")
    out = []
    for i in range(size):
        kind = CLI_KINDS[i % len(CLI_KINDS)]
        n = 1 + (i // len(CLI_KINDS)) % 5
        r = 2 + (i // 200) % 2
        block = i // 50
        out.append(_cli_instance(rng, kind, n, r, negative=block % 4 == 3,
                                 rational=block % 2 == 1))
    return out


# exact_wide ---------------------------------------------------------------

_WIDE_STRATA = tuple(
    [(name, n, r, full) for name in ("theorem1_verify", "corollary2_verify")
     for (n, r) in ((6, 4), (8, 4), (7, 5)) for full in (True, False)]
    + [(name, n, 5, True) for name in ("power_family_check", "exp_family_check")
       for n in (10, 12)]
)


def _wide_instance(rng: random.Random, stratum: tuple, rational: bool) -> Instance:
    """Polynomials of degree 2; with ``rational`` the first f is p/q."""
    from jetcheck import MultiIndex, Scalar, TheoremInstance, parse

    name, n, r, full = stratum
    s = MultiIndex(tuple(_split(rng, n if full else n - 2, r)))
    if name in ("power_family_check", "exp_family_check"):
        alpha = [Scalar(_frac(rng, 4)) for _ in range(r)]
        beta = Scalar(_frac(rng, 4, nonzero=True))
        c = [Scalar(v) for v in _balanced_c(rng, r, False)]
        call = (name, (n, alpha, beta, c, s), {})
        return Instance(name, call, "pass", None, "0/1", "exact", n, _ncomp(n, r), 0, False)
    # x0 = ±1/2 or ±3/2: a fixed denominator keeps the rational sizes, and so the
    # cost of an instance, close to the same at every seed.
    x0 = Fraction(rng.choice((-3, -1, 1, 3)), 2)
    f = [parse((_rational_func(rng, x0, 2) if rational and j == 0 else
                _poly_func(rng, x0, 2, nonzero=True)).text) for j in range(r)]
    if name == "theorem1_verify":
        g = [parse(e.text) for e in _balanced_g(rng, x0, r, 2, False)]
        inst = TheoremInstance(n=n, r=r, f=tuple(f), g=tuple(g), s=s, x0=Scalar(x0))
        call = (name, (inst,), {})
    else:
        g = parse(_poly_func(rng, x0, 2).text)
        c = [Scalar(v) for v in _balanced_c(rng, r, False)]
        call = (name, (n, f, g, c, s, Scalar(x0)), {})
    return Instance(name, call, "pass", None, "0/1", "exact", n, _ncomp(n, r), n, False)


def build_exact_wide(seed: int, size: int) -> list[Instance]:
    """Round-robin over the strata; in every third round the first f is rational."""
    rng = random.Random(f"exact_wide:{seed}")
    k = len(_WIDE_STRATA)
    return [_wide_instance(rng, _WIDE_STRATA[i % k], rational=(i // k) % 3 == 1)
            for i in range(size)]


# float_r2_transcendental --------------------------------------------------

FLOAT_KINDS = (
    "baran_verify", "symmetric_pair_verify", "leibniz_product_verify",
    "zero_power_lemma_check", "theorem1_verify", "corollary2_verify",
)
# Added to the rhs of a perturbed float instance.  Cancellation scales in
# this mix reach about 1e29, so tol * scale stays far below the shift and
# the verdict must be fail.
FLOAT_SHIFT = 1.0e40


def _atom(rng: random.Random) -> tuple[str, Callable[[float], float]]:
    """A transcendental building block, defined and smooth on x in [0.5, 1.5]."""
    a = rng.choice((1, 2, 3)) * rng.choice((-1, 1)) / 2
    b = rng.randint(1, 3)
    k = rng.randrange(6)
    if k == 0:
        return f"exp({a}*x)", lambda x: math.exp(a * x)
    if k == 1:
        return f"log(x+{b})", lambda x: math.log(x + b)
    if k == 2:
        return f"sin({a}*x+{b})", lambda x: math.sin(a * x + b)
    if k == 3:
        return f"cos({a}*x-{b})", lambda x: math.cos(a * x - b)
    if k == 4:
        return f"sqrt(x+{b})", lambda x: math.sqrt(x + b)
    p = rng.choice(("1/2", "3/2", "-1/2", "5/3"))
    pv = float(Fraction(p))
    return f"(x+{b})^({p})", lambda x: math.pow(x + b, pv)


def _transcendental(rng: random.Random) -> tuple[str, Callable[[float], float]]:
    """Product or sum of two atoms."""
    (t1, f1), (t2, f2) = _atom(rng), _atom(rng)
    if rng.random() < 0.5:
        return f"{t1}*{t2}", lambda x: f1(x) * f2(x)
    return f"{t1}+{t2}", lambda x: f1(x) + f2(x)


def _float_instance(rng: random.Random, kind: str, n: int, negative: bool) -> Instance:
    from jetcheck import MultiIndex, Scalar, TheoremInstance, parse

    x0v = rng.choice((0.5, 0.75, 1.0, 1.25, 1.5))
    x0 = Scalar.inexact(x0v)
    expr = lambda: parse(_transcendental(rng)[0])  # noqa: E731
    comps = n + 1
    if kind in ("baran_verify", "leibniz_product_verify"):
        args = (n, expr(), expr(), x0)
    elif kind == "symmetric_pair_verify":
        args = (n, rng.randint(0, n), expr(), expr(), expr(), x0)
    elif kind == "zero_power_lemma_check":
        text, fn = _transcendental(rng)
        args = (parse(f"{text}-({fn(x0v)!r})"), n, x0)
        comps = 0
    elif kind == "theorem1_verify":
        gtext = _transcendental(rng)[0]
        s = MultiIndex(tuple(_split(rng, rng.randint(0, n), 2)))
        inst = TheoremInstance(n=n, r=2, f=(expr(), expr()),
                               g=(parse(gtext), parse(f"-({gtext})")), s=s, x0=x0)
        args = (inst,)
    elif kind == "corollary2_verify":
        c = float(_frac(rng, 4, nonzero=True))
        s = MultiIndex(tuple(_split(rng, rng.randint(0, n), 2)))
        args = (n, (expr(), expr()), expr(), (Scalar.inexact(c), Scalar.inexact(-c)), s, x0)
    else:
        raise ValueError(f"unknown float kind {kind!r}")
    kwargs = {"rhs_shift": Scalar.inexact(FLOAT_SHIFT)} if negative else {}
    return Instance(kind, (kind, args, kwargs), "fail" if negative else "pass", None, None,
                    "float", n, comps, n, negative, FLOAT_SHIFT if negative else None)


def build_float_r2_transcendental(seed: int, size: int) -> list[Instance]:
    """Kind and n follow the position: each block of 42 holds every kind at
    every n in 6..12, and every fourth block is perturbed (a quarter)."""
    rng = random.Random(f"float_r2_transcendental:{seed}")
    out = []
    for i in range(size):
        kind = FLOAT_KINDS[i % len(FLOAT_KINDS)]
        out.append(_float_instance(rng, kind, 6 + i % 7, negative=(i // 42) % 4 == 3))
    return out


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "cli_small_exact",
            "per-call fixed costs dominate: argparse, parse, eval_jet, Scalar dispatch and "
            "rendering; a quarter negatives exit early at the hypothesis check",
            CLI, 1200, build_cli_small_exact,
        ),
        Workload(
            "exact_wide",
            "the multinomial sum over C(n+r-1,r-1) compositions with exact jet products "
            "per factor carries the work; per-call overhead is negligible",
            LIBRARY, 48, build_exact_wide,
        ),
        Workload(
            "float_r2_transcendental",
            "float jets and elementary recurrences carry the work; r = 2 keeps only n+1 "
            "compositions, so composition-count changes should leave it flat",
            LIBRARY, 336, build_float_r2_transcendental,
        ),
    )
}
