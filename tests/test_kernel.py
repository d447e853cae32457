"""The binomial-convolution kernel against the composition-enumeration
reference in ``helpers``.

Exact mode must reproduce the reference's lhs and cancellation scale as the
same rationals.  Float mode sums in another order, so there the verdicts must
agree: the reference verdict compares the reference lhs with the report's
rhs at the report's tolerance, scaled by the reference scale.
"""

import random
from dataclasses import replace
from fractions import Fraction

import pytest

from helpers import REFERENCES, rand_polynomial
from jetcheck import identities
from jetcheck.exprs import Div, Mul, X, add, const, eval_scalar, neg, pow_int, sub
from jetcheck.identities import IDENTITIES, SweepConfig, TheoremInstance, sweep
from jetcheck.numeric import MultiIndex, Scalar
from jetcheck.parsing import parse

# The verifiers themselves, looked up once: the sweep test patches the module.
VERIFIERS = {name: getattr(identities, name) for name in REFERENCES}


def _frac(rng, nonzero=False):
    while True:
        q = Fraction(rng.randint(-4, 4), rng.randint(1, 4))
        if q or not nonzero:
            return Scalar(q)


def _point(rng):
    return Scalar(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))


def _f(rng, rational):
    """A polynomial, or p / (x^2 + c), which is defined at every rational point."""
    p = rand_polynomial(rng, 3)
    return Div(p, add(pow_int(X, 2), const(rng.randint(1, 3)))) if rational else p


def _orders(rng, n, r, full_only=False):
    """|s| = n with all of n on each factor in turn and one random split, plus
    s = 0 and a random split of a random weight unless ``full_only``."""
    out = []
    for i in range(r):
        s = [0] * r
        s[i] = n
        out.append(s)
    for weight in (n,) if full_only else (n, rng.randint(0, n), 0):
        s = [0] * r
        for _ in range(weight):
            s[rng.randrange(r)] += 1
        out.append(s)
    return [MultiIndex(tuple(s)) for s in out]


def _balanced_c(rng, r):
    """Nonzero head, last entry the negated sum: some entry is negative."""
    head = [_frac(rng, nonzero=True) for _ in range(r - 1)]
    total = Scalar.exact(0)
    for c in head:
        total = total + c
    return tuple(head) + (-total,)


def _theorem1_grid(rng):
    for n in range(6):
        for r in (1, 2, 3):
            for s in _orders(rng, n, r):
                for rational in (False, True):
                    x0 = _point(rng)
                    f = tuple(_f(rng, rational and i == 0) for i in range(r))
                    if r == 1:
                        h = rand_polynomial(rng, 3)
                        g = (sub(h, const(eval_scalar(h, x0))),)
                    else:
                        head = [rand_polynomial(rng, 3) for _ in range(r - 1)]
                        total = const(0)
                        for e in head:
                            total = add(total, e)
                        g = tuple(head) + (neg(total),)
                    yield (TheoremInstance(n=n, r=r, f=f, g=g, s=s, x0=x0),)


def _corollary2_grid(rng):
    for n in range(6):
        for r in (2, 3):
            for s in _orders(rng, n, r):
                for rational in (False, True):
                    f = tuple(_f(rng, rational and i == 0) for i in range(r))
                    yield (n, f, rand_polynomial(rng, 3), _balanced_c(rng, r), s, _point(rng))


def _symmetric_pair_grid(rng):
    for n in range(6):
        for p in range(n + 1):
            for rational in (False, True):
                yield (n, p, _f(rng, rational), _f(rng, False), rand_polynomial(rng, 3), _point(rng))


def _two_function_grid(rng):
    for n in range(7):
        for rational in (False, True, False):
            yield (n, _f(rng, rational), rand_polynomial(rng, 3), _point(rng))


def _family_grid(rng):
    for n in range(6):
        for r in (2, 3):
            for s in _orders(rng, n, r, full_only=True):
                alpha = tuple(_frac(rng) for _ in range(r))
                yield (n, alpha, _frac(rng, nonzero=True), _balanced_c(rng, r), s)


GRIDS = {
    "theorem1_verify": _theorem1_grid,
    "corollary2_verify": _corollary2_grid,
    "symmetric_pair_verify": _symmetric_pair_grid,
    "baran_verify": _two_function_grid,
    "leibniz_product_verify": _two_function_grid,
    "power_family_check": _family_grid,
    "exp_family_check": _family_grid,
}


@pytest.mark.parametrize("name", sorted(REFERENCES))
def test_exact_lhs_and_scale_equal_the_reference(name):
    rng = random.Random(f"kernel-grid:{name}")
    checked = 0
    for args in GRIDS[name](rng):
        report = VERIFIERS[name](*args)
        lhs, scale = REFERENCES[name](*args)
        assert report.mode == "exact" and report.verdict == "pass", (name, args)
        assert report.lhs == lhs and report.cancellation_scale == scale, (name, args)
        checked += 1
    assert checked >= 20


def _floated(value):
    """The same instance in float mode: every Scalar input lifted to float."""
    if isinstance(value, Scalar):
        return value.to_float()
    if isinstance(value, TheoremInstance):
        return replace(value, x0=value.x0.to_float())
    if isinstance(value, (tuple, list)):
        return type(value)(_floated(v) for v in value)
    return value


def _reference_verdict(name, args, report):
    lhs, scale = REFERENCES[name](*args)
    limit = report.tolerance * max(1.0, float(scale))
    return "pass" if abs(float(lhs) - float(report.rhs)) <= limit else "fail"


def check_float(name, *args, **kwargs):
    """Run verifier ``name`` in float mode; assert its verdict is the reference's."""
    args = _floated(args)
    report = VERIFIERS[name](*args, **kwargs)
    assert report.mode == "float"
    if report.verdict != "precondition_violated":
        assert report.verdict == _reference_verdict(name, args, report), (name, args, report)
    return report


def test_float_verdicts_match_the_reference_on_the_acceptance_suite():
    ex = Scalar.exact
    # criterion 1: baran spot value
    assert check_float("baran_verify", 2, parse("x"), parse("x^2"), ex(3)).verdict == "pass"
    # criterion 2: the theorem1 grid, every instance in float mode
    verdicts = []
    for n in range(5):
        for r in (2, 3):
            for w in range(n + 1):
                for s in identities.compositions(w, r):
                    for trial in range(25):
                        rng = random.Random(f"grid:{n}:{r}:{tuple(s)}:{trial}")
                        f = tuple(rand_polynomial(rng) for _ in range(r))
                        g_head = [rand_polynomial(rng) for _ in range(r - 1)]
                        g_sum = const(0)
                        for e in g_head:
                            g_sum = add(g_sum, e)
                        g = tuple(g_head + [neg(g_sum)])
                        x0 = Scalar(Fraction(rng.randint(-4, 4), rng.randint(1, 4)))
                        inst = TheoremInstance(n=n, r=r, f=f, g=g, s=s, x0=x0)
                        verdicts.append(check_float("theorem1_verify", inst).verdict)
    assert len(verdicts) == 2625
    # criterion 4: the monomial-weighted convolution suite
    assert check_float("leibniz_product_verify", 2, parse("1"), parse("1"), ex(2)).verdict == "pass"
    rng = random.Random("leibniz-suite")
    for _ in range(50):
        n = rng.randint(0, 5)
        f = rand_polynomial(rng, degree_bound=4)
        g = rand_polynomial(rng, degree_bound=4)
        x0 = Scalar(Fraction(rng.randint(-4, 4), rng.randint(1, 4)))
        verdicts.append(check_float("leibniz_product_verify", n, f, g, x0).verdict)
    # criteria 5 and 6: eq5, eq7 and both eq6 right-hand forms
    two = (ex(0), ex(0))
    assert check_float("power_family_check", 1, two, ex(2), (ex(-1), ex(1)), (1, 0)).verdict == "pass"
    assert check_float("exp_family_check", 2, two, ex(1), (ex(-1), ex(1)), (1, 1)).verdict == "pass"
    eq6 = (2, two, ex(1), (ex(-1), ex(1)), (2, 0))
    assert check_float("exp_family_check", *eq6, "corrected").verdict == "pass"
    assert check_float("exp_family_check", *eq6, "as_printed").verdict == "fail"
    # criterion 8: a perturbed rhs
    report = check_float("baran_verify", 2, parse("x"), parse("x^2"), ex(3), rhs_shift=ex(1, 1000))
    assert report.verdict == "fail"
    assert verdicts.count("pass") == len(verdicts)


def test_sweep_instances_match_the_reference_in_both_modes(monkeypatch):
    """Every sweep trial at seeds 0-9: exact lhs and scale equal the
    reference's, and the same instance in float mode gets its verdict."""
    seen = []

    def checked(name, verifier):
        def wrapper(*args, **kwargs):
            report = verifier(*args, **kwargs)
            assert (report.lhs, report.cancellation_scale) == REFERENCES[name](*args)
            float_report = check_float(name, *args, **kwargs)
            assert float_report.verdict == report.verdict == "pass"
            seen.append(name)
            return report
        return wrapper

    for name, verifier in VERIFIERS.items():
        monkeypatch.setattr(identities, name, checked(name, verifier))
    names = tuple(name for name in IDENTITIES if name != "zero_power_lemma")
    for seed in range(10):
        summary = sweep(SweepConfig(seed=seed, trials=42, identities=names))
        assert summary.counts["pass"] == 42
    assert len(seen) == 420 and set(seen) == set(REFERENCES)


# Tables cleared to integers over one denominator: coprime denominators in x0,
# the coefficients, c, alpha and beta make every table's denominator differ.

POINTS = (Scalar.exact(7, 11), Scalar.exact(-5, 13))
C2 = (Scalar.exact(2, 3), Scalar.exact(-2, 3))
C3 = (Scalar.exact(4, 9), Scalar.exact(2, 7), Scalar.exact(-46, 63))


def _rational_poly(seed, degree=3):
    """A polynomial whose coefficients have denominators 2, 3, 5 and 7."""
    rng = random.Random(seed)
    terms = const(0)
    for j, den in zip(range(degree + 1), (2, 3, 5, 7)):
        coeff = Scalar.exact(rng.choice((-3, -1, 1, 2, 4)), den)
        terms = add(terms, Mul(const(coeff), pow_int(X, j)))
    return terms


def _flat_at(x0):
    """g = (x - x0)^2: g(x0) = 0 and g'(x0) = 0."""
    return pow_int(sub(X, const(x0)), 2)


def _cleared_grid(name):
    p0, p1, p2, p3 = (_rational_poly(f"{name}:{i}") for i in range(4))
    for x0 in POINTS:
        if name == "theorem1_verify":
            # r = 1 (g(x0) = 0 and g'(x0) = 0), then r = 2 and 3 with s_i = 0 entries.
            yield (TheoremInstance(n=3, r=1, f=(p0,), g=(_flat_at(x0),), s=(3,), x0=x0),)
            yield (TheoremInstance(n=4, r=1, f=(p1,), g=(sub(p2, const(eval_scalar(p2, x0))),),
                                   s=(2,), x0=x0),)
            yield (TheoremInstance(n=0, r=2, f=(p0, p1), g=(p2, neg(p2)), s=(0, 0), x0=x0),)
            yield (TheoremInstance(n=5, r=3, f=(p0, p1, p2), g=(p3, p1, neg(add(p3, p1))),
                                   s=(3, 0, 2), x0=x0),)
        elif name == "corollary2_verify":
            yield (0, (p0, p1), p2, C2, (0, 0), x0)
            yield (4, (p0, p1), _flat_at(x0), C2, (4, 0), x0)
            yield (5, (p0, p1, p2), p3, C3, (2, 0, 3), x0)
            yield (5, (p0, p1, p2), p3, C3, (1, 1, 1), x0)
        elif name == "symmetric_pair_verify":
            for n, p in ((0, 0), (3, 0), (4, 2), (5, 5)):
                yield (n, p, p0, p1, p2, x0)
            yield (4, 1, p0, p1, _flat_at(x0), x0)
        else:  # baran, leibniz: zero and flat g included
            for n in (0, 1, 4, 6):
                yield (n, p0, p1, x0)
            yield (4, p2, _flat_at(x0), x0)
            yield (3, p3, sub(p1, const(eval_scalar(p1, x0))), x0)


def _cleared_family_grid(name):
    alpha2 = (Scalar.exact(3, 5), Scalar.exact(-7, 6))
    alpha3 = alpha2 + (Scalar.exact(1, 5),)
    for beta in (Scalar.exact(5, 6), Scalar.exact(-2, 5)):
        yield (0, alpha2, beta, C2, (0, 0))
        yield (1, alpha2, beta, C2, (0, 1))
        yield (4, alpha2, beta, C2, (4, 0))
        yield (6, alpha3, beta, C3, (3, 0, 3))
        yield (5, alpha3, beta, C3, (1, 2, 2))


@pytest.mark.parametrize("name", sorted(REFERENCES))
def test_cleared_tables_equal_the_reference_with_coprime_denominators(name):
    grid = _cleared_family_grid if name.endswith("family_check") else _cleared_grid
    checked = 0
    for args in grid(name):
        report = VERIFIERS[name](*args)
        lhs, scale = REFERENCES[name](*args)
        assert report.mode == "exact" and report.verdict == "pass", (name, args, report)
        assert report.lhs == lhs and report.cancellation_scale == scale, (name, args)
        checked += 1
    assert checked >= 8


def test_exact_fold_runs_on_integers_and_divides_twice(monkeypatch):
    """Every entry the exact fold sees is an int, and each kernel call builds
    exactly two Fractions: the lhs and the scale."""
    entries_are_ints, built = [], []
    fold, convolve = identities._binomial_convolution, identities._convolve

    class Counted(Fraction):
        def __new__(cls, *args):
            built.append(args)
            return Fraction(*args)

    def checked_fold(a, b):
        entries_are_ints.append(all(type(v) is int for v in (*a, *b)))
        return fold(a, b)

    def counted_convolve(tables, n, mode):
        before = len(built)
        result = convolve(tables, n, mode)
        assert len(built) - before == 2
        assert all(type(v) is int for v in built[-1] + built[-2])
        return result

    monkeypatch.setattr(identities, "Fraction", Counted)
    monkeypatch.setattr(identities, "_binomial_convolution", checked_fold)
    monkeypatch.setattr(identities, "_convolve", counted_convolve)
    for name in sorted(REFERENCES):
        grid = _cleared_family_grid if name.endswith("family_check") else _cleared_grid
        for args in grid(name):
            assert VERIFIERS[name](*args).verdict == "pass"
    assert len(entries_are_ints) > 50 and all(entries_are_ints)
