import math
import pickle
import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import rand_polynomial, rel_close
from jetcheck import identities
from jetcheck.exprs import Apply, Const, Mul, PowInt, Var, add, const, mul, neg
from jetcheck.identities import (
    IDENTITIES,
    SWEEP_LIMITS,
    SweepConfig,
    TheoremInstance,
    baran_verify,
    corollary2_verify,
    exp_family_check,
    leibniz_product_verify,
    power_family_check,
    sweep,
    symmetric_pair_verify,
    theorem1_verify,
    zero_power_lemma_check,
)
from jetcheck.numeric import MultiIndex, Scalar
from jetcheck.parsing import MAX_HEIGHT, parse
from oracles import _height


def ex(v, q=1):
    return Scalar(Fraction(v, q))


def spot_instance():
    return TheoremInstance(
        n=2, r=2,
        f=(parse("1"), parse("x")),
        g=(parse("-x^2"), parse("x^2")),
        s=MultiIndex((0, 2)),
        x0=ex(3),
    )


class TestTheorem1:
    def test_spot_value(self):
        # hand expansion: sum of 20x^3 - 12x^3 + 0 = 8x^3 at x=3
        rep = theorem1_verify(spot_instance())
        assert rep.verdict == "pass"
        assert rep.lhs == 216 and rep.rhs == 216
        assert rep.residual == 0 and rep.mode == "exact"

    def test_low_weight_gives_zero(self):
        inst = spot_instance()
        for s in ((0, 0), (1, 0), (0, 1), (1, 1), (2, 0)):
            rep = theorem1_verify(
                TheoremInstance(n=2, r=2, f=inst.f, g=inst.g, s=MultiIndex(s), x0=inst.x0)
            )
            if sum(s) < 2:
                assert rep.rhs == 0
            assert rep.verdict == "pass" and rep.residual == 0

    def test_hypothesis_checked_pointwise(self):
        rep = theorem1_verify(
            TheoremInstance(
                n=2, r=2, f=(parse("1"), parse("x")),
                g=(parse("x^2"), parse("x^2")), s=MultiIndex((0, 2)), x0=ex(1),
            )
        )
        assert rep.verdict == "precondition_violated"
        assert rep.lhs is None and rep.rhs is None
        # pointwise reading: these g do not cancel identically but do at 0
        rep = theorem1_verify(
            TheoremInstance(
                n=2, r=2, f=(parse("1"), parse("x")),
                g=(parse("x^2 - x"), parse("x^2 + x")), s=MultiIndex((0, 2)), x0=ex(0),
            )
        )
        assert rep.verdict == "pass"

    def test_overweight_s_rejected(self):
        with pytest.raises(ValueError):
            TheoremInstance(
                n=1, r=2, f=(parse("1"), parse("x")),
                g=(parse("-x"), parse("x")), s=MultiIndex((1, 1)), x0=ex(0),
            )

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            TheoremInstance(
                n=1, r=2, f=(parse("1"),),
                g=(parse("-x"), parse("x")), s=MultiIndex((0, 1)), x0=ex(0),
            )

    def test_random_polynomial_instances_have_zero_residual(self):
        rng = random.Random("thm1-local")
        for _ in range(30):
            n = rng.randint(0, 4)
            r = rng.randint(2, 3)
            f = tuple(rand_polynomial(rng) for _ in range(r))
            g_head = [rand_polynomial(rng) for _ in range(r - 1)]
            g_last = neg(add(const(0), g_head[0]) if r == 2 else add(g_head[0], g_head[1]))
            w = rng.randint(0, n)
            entries = []
            rem = w
            for _ in range(r - 1):
                v = rng.randint(0, rem)
                entries.append(v)
                rem -= v
            entries.append(rem)
            inst = TheoremInstance(
                n=n, r=r, f=f, g=tuple(g_head + [g_last]),
                s=MultiIndex(tuple(entries)),
                x0=Scalar(Fraction(rng.randint(-4, 4), rng.randint(1, 3))),
            )
            rep = theorem1_verify(inst)
            assert rep.verdict == "pass" and rep.residual == 0

    def test_float_mode_with_transcendental_functions(self):
        inst = TheoremInstance(
            n=3, r=2,
            f=(parse("exp(x)"), parse("x^2+1")),
            g=(parse("sin(x)"), parse("-sin(x)")),
            s=MultiIndex((1, 2)),
            x0=Scalar.inexact(0.8),
        )
        rep = theorem1_verify(inst)
        assert rep.mode == "float"
        assert rep.tolerance == 1e-9
        assert rep.verdict == "pass"
        assert rep.cancellation_scale >= abs(rep.lhs)


class TestCorollary2:
    def test_reduces_to_theorem1_spot(self):
        rep = corollary2_verify(
            2, (parse("1"), parse("x")), parse("x^2"),
            (ex(-1), ex(1)), (0, 2), ex(3),
        )
        assert rep.verdict == "pass" and rep.lhs == 216

    def test_three_function_spot(self):
        rep = corollary2_verify(
            2, (parse("x"), parse("1"), parse("1")), parse("x^2"),
            (ex(1), ex(1), ex(-2)), (1, 1, 0), ex(1),
        )
        assert rep.verdict == "pass" and rep.lhs == 8 and rep.rhs == 8

    def test_low_weight_zero(self):
        rep = corollary2_verify(
            3, (parse("x"), parse("x^2")), parse("x^3 - x"),
            (ex(2), ex(-2)), (1, 1), ex(5, 2),
        )
        assert rep.rhs == 0 and rep.verdict == "pass"

    def test_unbalanced_c_is_precondition(self):
        rep = corollary2_verify(
            2, (parse("1"), parse("x")), parse("x^2"),
            (ex(-1), ex(2)), (0, 2), ex(3),
        )
        assert rep.verdict == "precondition_violated"

    def test_matches_theorem1_with_scaled_g(self):
        rng = random.Random("cor2-thm1")
        for _ in range(10):
            n = rng.randint(0, 3)
            r = rng.randint(2, 3)
            f = tuple(rand_polynomial(rng, 3) for _ in range(r))
            g = rand_polynomial(rng, 3)
            c = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(r - 1)]
            c.append(-sum(c, Fraction(0)))
            w = rng.randint(0, n)
            s = [0] * r
            for _ in range(w):
                s[rng.randrange(r)] += 1
            x0 = Scalar(Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
            cor = corollary2_verify(n, f, g, [Scalar(v) for v in c], s, x0)
            thm = theorem1_verify(
                TheoremInstance(
                    n=n, r=r, f=f,
                    g=tuple(mul(const(Scalar(ci)), g) for ci in c),
                    s=MultiIndex(tuple(s)), x0=x0,
                )
            )
            assert cor.verdict == thm.verdict == "pass"
            assert cor.lhs == thm.lhs and cor.rhs == thm.rhs


class TestSymmetricPair:
    def test_spot_values(self):
        rep = symmetric_pair_verify(1, 1, parse("1"), parse("1"), parse("x^2"), ex(5))
        assert rep.verdict == "pass" and rep.lhs == -10
        rep = symmetric_pair_verify(2, 0, parse("1"), parse("x"), parse("x^2"), ex(3))
        assert rep.verdict == "pass" and rep.lhs == 216
        rep = symmetric_pair_verify(0, 0, parse("x^2+1"), parse("x-4"), parse("x^3"), ex(2))
        assert rep.lhs == ex(5) * ex(-2) and rep.verdict == "pass"

    def test_sign_alternates_with_p(self):
        f1, f2, g = parse("x"), parse("x+1"), parse("x^2-1")
        for p in range(4):
            rep = symmetric_pair_verify(3, p, f1, f2, g, ex(2))
            assert rep.verdict == "pass"
            expected_sign = -1 if p % 2 else 1
            assert (rep.rhs > 0) == (expected_sign > 0) or rep.rhs == 0

    def test_p_out_of_range(self):
        with pytest.raises(ValueError):
            symmetric_pair_verify(2, 3, parse("1"), parse("1"), parse("x"), ex(0))


class TestBaran:
    def test_spot_value(self):
        rep = baran_verify(2, parse("x"), parse("x^2"), ex(3))
        assert rep.verdict == "pass"
        assert rep.lhs == 108 and rep.rhs == 108
        assert rep.cancellation_scale == 432

    def test_n1_is_product_rule(self):
        rng = random.Random("baran-n1")
        for _ in range(5):
            f, g = rand_polynomial(rng), rand_polynomial(rng)
            rep = baran_verify(1, f, g, Scalar(Fraction(rng.randint(-3, 3), rng.randint(1, 3))))
            assert rep.verdict == "pass" and rep.residual == 0

    def test_n0_returns_f(self):
        rep = baran_verify(0, parse("x^2+1"), parse("x^5"), ex(2))
        assert rep.lhs == 5 and rep.rhs == 5 and rep.verdict == "pass"

    def test_coherent_with_symmetric_pair(self):
        # scaling the normalized sum by n! gives the p=0, f1=1 two-function form
        f, g, x0, n = parse("x^2 - 2"), parse("x^3 + x"), ex(3, 2), 3
        b = baran_verify(n, f, g, x0)
        s = symmetric_pair_verify(n, 0, parse("1"), f, g, x0)
        assert b.lhs * math.factorial(n) == s.lhs
        assert b.rhs * math.factorial(n) == s.rhs
        assert b.verdict == s.verdict == "pass"


class TestLeibnizProduct:
    def test_spot_value(self):
        rep = leibniz_product_verify(2, parse("1"), parse("1"), ex(2))
        assert rep.verdict == "pass" and rep.lhs == 12 and rep.rhs == 12

    def test_n0(self):
        rep = leibniz_product_verify(0, parse("x+1"), parse("x-1"), ex(3))
        assert rep.lhs == 3 * (4 * 2) and rep.verdict == "pass"

    def test_n1_identity_on_random_polynomials(self):
        rng = random.Random("leibniz-n1")
        for _ in range(8):
            f, g = rand_polynomial(rng), rand_polynomial(rng)
            x0 = Scalar(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
            rep = leibniz_product_verify(1, f, g, x0)
            assert rep.verdict == "pass" and rep.residual == 0

    def test_no_hypothesis_needed(self):
        rep = leibniz_product_verify(3, parse("x^2"), parse("x^2"), ex(1))
        assert rep.verdict == "pass"


class TestPowerFamily:
    def test_spot_value(self):
        rep = power_family_check(1, (ex(0), ex(0)), ex(2), (ex(-1), ex(1)), (1, 0))
        assert rep.verdict == "pass" and rep.lhs == -2 and rep.rhs == -2

    def test_n0(self):
        rep = power_family_check(0, (ex(3), ex(5)), ex(7), (ex(-2), ex(2)), (0, 0))
        assert rep.lhs == 1 and rep.rhs == 1 and rep.verdict == "pass"

    def test_rational_parameters_exact(self):
        rep = power_family_check(
            3,
            (ex(5, 2), ex(-1, 3), ex(7)),
            ex(2, 5),
            (ex(1, 2), ex(1, 3), ex(-5, 6)),
            (1, 0, 2),
        )
        assert rep.mode == "exact"
        assert rep.verdict == "pass" and rep.residual == 0

    def test_wrong_weight_is_precondition(self):
        rep = power_family_check(2, (ex(0), ex(0)), ex(1), (ex(-1), ex(1)), (1, 0))
        assert rep.verdict == "precondition_violated"

    def test_matches_corollary2_on_integer_powers(self):
        rng = random.Random("power-cor2")
        for _ in range(8):
            n = rng.randint(0, 3)
            r = 2
            alphas = [rng.randint(-2, 4) for _ in range(r)]
            beta = rng.randint(-2, 3)
            c = [Fraction(rng.randint(-3, 3), 1) for _ in range(r - 1)]
            c.append(-sum(c, Fraction(0)))
            s = [0] * r
            for _ in range(n):
                s[rng.randrange(r)] += 1
            fam = power_family_check(
                n, [ex(a) for a in alphas], ex(beta), [Scalar(v) for v in c], s
            )
            cor = corollary2_verify(
                n,
                [PowInt(Var(), a) for a in alphas],
                PowInt(Var(), beta),
                [Scalar(v) for v in c],
                s,
                ex(1),
            )
            # derivative products differ from the binomial form by s_i!
            factor = 1
            for si in s:
                factor *= math.factorial(si)
            assert fam.verdict == cor.verdict == "pass"
            assert fam.lhs * factor == cor.lhs


class TestExpFamily:
    def test_agreeing_forms(self):
        rep = exp_family_check(2, (ex(0), ex(0)), ex(1), (ex(-1), ex(1)), (1, 1))
        assert rep.lhs == -2 and rep.rhs == -2 and rep.verdict == "pass"

    def test_discrepancy_case(self):
        args = (2, (ex(0), ex(0)), ex(1), (ex(-1), ex(1)), (2, 0))
        corrected = exp_family_check(*args)
        assert corrected.lhs == 2 and corrected.rhs == 2
        assert corrected.verdict == "pass"
        as_printed = exp_family_check(*args, "as_printed")
        assert as_printed.lhs == 2 and as_printed.rhs == 1
        assert as_printed.verdict == "fail"
        assert any("multinomial" in note for note in as_printed.notes)
        # both values are surfaced either way
        assert any("as_printed" in note for note in corrected.notes)

    def test_n0(self):
        rep = exp_family_check(0, (ex(2), ex(3)), ex(5), (ex(-1), ex(1)), (0, 0))
        assert rep.lhs == 1 and rep.rhs == 1

    def test_bad_rhs_form(self):
        with pytest.raises(ValueError):
            exp_family_check(1, (ex(0), ex(0)), ex(1), (ex(-1), ex(1)), (1, 0), "typo")

    def test_matches_corollary2_on_exponentials_at_zero(self):
        rng = random.Random("exp-cor2")
        for _ in range(6):
            n = rng.randint(0, 3)
            r = 2
            alphas = [rng.randint(-2, 3) for _ in range(r)]
            beta = rng.randint(-2, 3)
            c = [Fraction(rng.randint(-3, 3), 1) for _ in range(r - 1)]
            c.append(-sum(c, Fraction(0)))
            s = [0] * r
            for _ in range(n):
                s[rng.randrange(r)] += 1
            fam = exp_family_check(
                n, [ex(a) for a in alphas], ex(beta), [Scalar(v) for v in c], s
            )
            cor = corollary2_verify(
                n,
                [Apply("exp", Mul(Const(ex(a)), Var())) for a in alphas],
                Apply("exp", Mul(Const(ex(beta)), Var())),
                [Scalar(v) for v in c],
                s,
                Scalar.inexact(0.0),
            )
            assert fam.verdict == "pass" and cor.verdict == "pass"
            assert rel_close(float(fam.lhs), float(cor.lhs), 1e-9)


class TestZeroPowerLemma:
    def test_linear_root(self):
        rep = zero_power_lemma_check(parse("x-3"), 3, ex(3))
        assert rep.verdict == "pass" and rep.lhs == 6 and rep.rhs == 6

    def test_quadratic_root(self):
        rep = zero_power_lemma_check(parse("x^2-1"), 2, ex(1))
        assert rep.verdict == "pass" and rep.lhs == 8 and rep.rhs == 8

    def test_n0(self):
        rep = zero_power_lemma_check(parse("x"), 0, ex(0))
        assert rep.lhs == 1 and rep.rhs == 1 and rep.verdict == "pass"

    def test_no_root_is_precondition(self):
        rep = zero_power_lemma_check(parse("x-3"), 2, ex(4))
        assert rep.verdict == "precondition_violated"

    def test_perturbed_rhs_fails(self):
        rep = zero_power_lemma_check(parse("x-3"), 3, ex(3), rhs_shift=ex(1, 1000))
        assert rep.verdict == "fail"


@pytest.mark.parametrize("check", [
    lambda **kw: theorem1_verify(spot_instance(), **kw),
    lambda **kw: corollary2_verify(2, [parse("x"), parse("1"), parse("1")], parse("x^2"),
                                   [ex(1), ex(1), ex(-2)], (1, 1, 0), ex(1), **kw),
    lambda **kw: symmetric_pair_verify(2, 0, parse("1"), parse("x"), parse("x^2"), ex(3), **kw),
    lambda **kw: baran_verify(2, parse("x"), parse("x^2"), ex(3), **kw),
    lambda **kw: leibniz_product_verify(3, parse("x^2+1"), parse("1/(2-x)"), ex(1, 3), **kw),
    lambda **kw: power_family_check(1, (ex(0), ex(0)), ex(2), (ex(-1), ex(1)), (1, 0), **kw),
    lambda **kw: exp_family_check(2, (ex(0), ex(0)), ex(1), (ex(-1), ex(1)), (2, 0), **kw),
    lambda **kw: zero_power_lemma_check(parse("x^2-1"), 2, ex(1), **kw),
], ids=["theorem1", "corollary2", "symmetric_pair", "baran", "leibniz_product",
        "power_family", "exp_family", "zero_power_lemma"])
def test_a_float_rhs_shift_on_exact_inputs_gives_a_float_report(check):
    # the shift is an input like any other: a float one switches the check to float mode
    assert check().mode == "exact" and check().verdict == "pass"
    rep = check(rhs_shift=Scalar.inexact(0.5))
    assert rep.mode == "float" and rep.verdict == "fail"
    assert abs(float(rep.residual) + 0.5) < 1e-9


def test_polynomial_in_k_reduction():
    # the engine's sums must satisfy the finite-difference facts the
    # two-term special cases rest on
    for n in range(0, 11):
        for i in range(0, n + 1):
            total = sum(
                (-1) ** (n - k) * math.comb(n, k) * k ** i for k in range(n + 1)
            )
            assert total == (math.factorial(n) if i == n else 0)


_X, _PAIR = parse("x"), (parse("x"), parse("x"))
_BAD_SIZES = {
    "theorem1 n=-1": lambda: theorem1_verify(
        TheoremInstance(n=-1, r=2, f=_PAIR, g=_PAIR, s=(0, 0), x0=ex(0))),
    "corollary2 n=-1": lambda: corollary2_verify(-1, _PAIR, _X, (ex(-1), ex(1)), (0, 0), ex(0)),
    "symmetric_pair n=-1": lambda: symmetric_pair_verify(-1, 0, _X, _X, _X, ex(0)),
    "baran n=-1": lambda: baran_verify(-1, _X, _X, ex(0)),
    "leibniz_product n=-1": lambda: leibniz_product_verify(-1, _X, _X, ex(0)),
    "power_family n=-1": lambda: power_family_check(
        -1, (ex(0), ex(0)), ex(1), (ex(-1), ex(1)), (0, 0)),
    "exp_family n=-1": lambda: exp_family_check(
        -1, (ex(0), ex(0)), ex(1), (ex(-1), ex(1)), (0, 0)),
    "zero_power_lemma n=-1": lambda: zero_power_lemma_check(_X, -1, ex(0)),
    "theorem1 len(g) != r": lambda: theorem1_verify(
        TheoremInstance(n=1, r=2, f=_PAIR, g=(_X,), s=(0, 1), x0=ex(0))),
    "corollary2 len(c) != r": lambda: corollary2_verify(1, _PAIR, _X, (ex(1),), (0, 1), ex(0), r=2),
    "power_family len(alpha) != r": lambda: power_family_check(
        1, (ex(0),), ex(1), (ex(-1), ex(1)), (0, 1), r=2),
    "exp_family len(s) != r": lambda: exp_family_check(
        1, (ex(0), ex(0)), ex(1), (ex(-1), ex(1)), (1,), r=2),
}


@pytest.mark.parametrize("case", list(_BAD_SIZES))
def test_bad_sizes_raise_value_error(case):
    match = "n must be non-negative" if case.endswith("n=-1") else "must all have length r = 2"
    with pytest.raises(ValueError, match=match):
        _BAD_SIZES[case]()


@settings(deadline=None, max_examples=30)
@given(st.fractions(max_denominator=30).filter(lambda q: q != 0))
def test_negative_sensitivity(shift):
    rep = baran_verify(2, parse("x"), parse("x^2"), ex(3), rhs_shift=Scalar(shift))
    assert rep.verdict == "fail"
    rep = theorem1_verify(spot_instance(), rhs_shift=Scalar(shift))
    assert rep.verdict == "fail"


def test_list_inputs_equal_tuple_inputs():
    f, g = [parse("x"), parse("1")], [parse("x^2"), parse("-x^2")]
    from_lists = TheoremInstance(n=2, r=2, f=f, g=g, s=[1, 1], x0=ex(2))
    from_tuples = TheoremInstance(n=2, r=2, f=tuple(f), g=tuple(g), s=MultiIndex((1, 1)), x0=ex(2))
    assert from_lists == from_tuples
    assert hash(from_lists) == hash(from_tuples)
    assert theorem1_verify(from_lists) == theorem1_verify(from_tuples)

    c, s, alpha = [ex(1), ex(-1)], [1, 1], [ex(1, 2), ex(3)]
    assert corollary2_verify(2, f, parse("x^2"), c, s, ex(2)) == corollary2_verify(
        2, tuple(f), parse("x^2"), tuple(c), MultiIndex(tuple(s)), ex(2))
    for check in (power_family_check, exp_family_check):
        assert check(2, alpha, ex(2), c, s) == check(
            2, tuple(alpha), ex(2), tuple(c), MultiIndex(tuple(s)))


class TestSweep:
    def test_deterministic(self):
        config = SweepConfig(seed=7, trials=24)
        assert sweep(config) == sweep(config)

    def test_all_pass_on_default_config(self):
        summary = sweep(SweepConfig(seed=42, trials=40))
        assert summary.counts == {"pass": 40, "fail": 0, "precondition_violated": 0}
        assert summary.first_failure is None

    def test_negative_mode_violates_every_hypothesis(self):
        summary = sweep(SweepConfig(seed=42, trials=10, identities=("theorem1",), negative=True))
        assert summary.counts["precondition_violated"] == 10
        assert summary.first_failure is not None
        assert summary.first_failure.verdict == "precondition_violated"

    def test_negative_mode_needs_a_hypothesis(self):
        with pytest.raises(ValueError):
            SweepConfig(identities=("baran",), negative=True)

    def test_unknown_identity_rejected(self):
        with pytest.raises(ValueError):
            SweepConfig(identities=("theorem3",))

    def test_bounds_and_the_identity_set_are_checked(self):
        for config in ({"coeff_bound": 0}, {"degree_bound": -1}):
            with pytest.raises(ValueError, match="^need coeff_bound >= 1 and degree_bound >= 0$"):
                SweepConfig(**config)
        with pytest.raises(ValueError, match="^identity set must not be empty$"):
            SweepConfig(identities=())

    def test_a_size_above_its_limit_is_refused(self):
        for name, limit in SWEEP_LIMITS.items():
            SweepConfig(**{name: limit})
            with pytest.raises(ValueError, match=f"^{name} must be at most {limit}, got {limit + 1}$"):
                SweepConfig(**{name: limit + 1})

    def test_trees_drawn_at_every_limit_stay_within_the_parser_bound(self, monkeypatch):
        # every size takes its largest value and every coefficient is -1, which
        # no constructor absorbs, so each tree is as high as the limits let it
        # be; the trees are those each verifier chooses its mode on
        class Largest(random.Random):
            def randint(self, a, b):
                return b if a >= 0 else a

        class Drawn(Exception):
            pass

        def record(x0, exprs, **scalars):
            trees.extend(exprs)
            raise Drawn

        monkeypatch.setattr(identities, "_mode_for", record)
        config = SweepConfig(**SWEEP_LIMITS)
        for name in IDENTITIES:
            trees = []
            with pytest.raises(Drawn):
                identities._random_trial(name, Largest(), config)
            heights = [_height(tree, {}) for tree in trees]
            assert all(height <= MAX_HEIGHT for height in heights), (name, heights)
            assert name.endswith("family") or max(heights) > SWEEP_LIMITS["degree_bound"]

    def test_every_identity_runs(self):
        summary = sweep(SweepConfig(seed=11, trials=len(IDENTITIES) * 2))
        for name in IDENTITIES:
            tally = summary.per_identity[name]
            assert sum(tally.values()) == 2


class TestParamsOnRead:
    """A verifier keeps its inputs; ``params`` is rendered on its first read."""

    @pytest.fixture
    def rendered(self, monkeypatch):
        calls, to_text = [], identities.to_text

        def counted(e):
            calls.append(e)
            return to_text(e)

        monkeypatch.setattr(identities, "to_text", counted)
        return calls

    def test_rendered_once_on_first_read(self, rendered):
        report = baran_verify(2, parse("x"), parse("x^2"), ex(3))
        assert rendered == []
        assert report.params == {"n": "2", "f": "x", "g": "x^2", "x0": "3"}
        assert len(rendered) == 2
        assert report.params is report.params
        assert len(rendered) == 2

    def test_every_verifier_renders_nothing(self, rendered):
        assert sweep(SweepConfig(seed=3, trials=2 * len(IDENTITIES))).counts["pass"] > 0
        assert rendered == []

    def test_equality_compares_the_rendered_params(self):
        report = baran_verify(2, parse("x"), parse("x^2"), ex(3))
        assert report == baran_verify(2, parse("x"), parse("x^2"), ex(3))
        assert report == replace(report, params=dict(report.params))
        assert pickle.loads(pickle.dumps(baran_verify(2, parse("x"), parse("x^2"), ex(3)))) == report
        other = baran_verify(2, parse("0 + x"), parse("x^2"), ex(3))
        assert other.lhs == report.lhs and other != report
        with pytest.raises(TypeError):
            hash(report)

    def test_params_can_be_replaced(self):
        report = power_family_check(1, (ex(0), ex(0)), ex(2), (ex(-1), ex(1)), (1, 0))
        extended = replace(report, params={"form": "eq5", **report.params})
        assert list(extended.params) == ["form", "n", "r", "s", "alpha", "beta", "c"]
        assert extended.params["s"] == "1,0" and "form" not in report.params

    def test_first_failure_keeps_its_params(self, rendered):
        config = SweepConfig(seed=42, trials=10, identities=("theorem1",), negative=True)
        summary = sweep(config)
        assert rendered == []
        assert summary.first_failure.params == {
            "n": "0", "r": "3", "s": "0,0,0",
            "f": "0,-3/4*x + x^2 + -2/3*x^3,2/3 + 4/3*x + -1*x^2 + 2*x^3",
            "g": "2 + -1*x,1/2 + x,-(2 + -1*x + (1/2 + x)) + 1",
            "x0": "1/4",
        }
        assert summary == sweep(config)
