"""Acceptance suite.

One test per acceptance criterion; each prints a single pass/fail line with
its wall time and asserts its runtime budget.  Float criteria run at the
pinned tolerances; exact criteria require residuals of exactly zero.
Run with ``pytest -s tests/test_acceptance.py`` to see the lines.
"""

import io
import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from helpers import (
    pick_exact_point,
    pick_float_point,
    quadratic_instance,
    rand_polynomial,
    rand_rational_closed,
    rand_transcendental,
    rel_close,
)
from jetcheck import (
    Scalar,
    TheoremInstance,
    eval_jet,
    eval_scalar,
    leibniz_product_verify,
    nth_derivative,
    theorem1_verify,
    to_text,
    zero_power_lemma_check,
)
from jetcheck.cli import run
from jetcheck.exprs import add, const, neg, sub
from jetcheck.identities import SweepConfig, compositions, sweep
from jetcheck.parsing import parse


@contextmanager
def criterion(name: str, budget_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"[acceptance] {name}: FAIL ({elapsed:.2f}s)")
        raise
    elapsed = time.perf_counter() - start
    print(f"[acceptance] {name}: PASS ({elapsed:.2f}s)")
    assert elapsed < budget_seconds, f"{name} took {elapsed:.2f}s, budget {budget_seconds}s"


def invoke(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def test_criterion_1_baran_spot_value():
    with criterion("1 baran spot value 108", 0.1):
        code, out, _ = invoke(
            "verify", "baran", "--n", "2", "--f", "x", "--g", "x^2", "--at", "3", "--json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["lhs"] == "108/1"
        assert doc["rhs"] == "108/1"
        assert doc["residual"] == "0/1"
        assert doc["verdict"] == "pass"


def test_criterion_2_theorem1_exhaustive_grid():
    with criterion("2 theorem1 grid n<=4 r in {2,3}, 25 instances per cell", 30.0):
        checked = 0
        for n in range(0, 5):
            for r in (2, 3):
                all_s = [s for w in range(n + 1) for s in compositions(w, r)]
                for s in all_s:
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
                        report = theorem1_verify(inst)
                        assert report.verdict == "pass", (n, r, tuple(s), trial)
                        assert report.residual == 0
                        if s.weight < n:
                            assert report.rhs == 0
                        checked += 1
        assert checked == 2625


def test_criterion_3_zero_power_lemma_suite():
    with criterion("3 zero-power lemma, 50 engineered roots", 5.0):
        rng = random.Random("lemma-suite")
        for trial in range(50):
            n = rng.randint(0, 5)
            x0 = Scalar(Fraction(rng.randint(-4, 4), rng.randint(1, 4)))
            h = rand_polynomial(rng, degree_bound=4)
            f = sub(h, const(eval_scalar(h, x0)))
            report = zero_power_lemma_check(f, n, x0)
            assert report.verdict == "pass", (trial, to_text(f), n)
            assert report.residual == 0


def test_criterion_4_leibniz_product_suite():
    with criterion("4 monomial-weighted convolution identity, 50 pairs", 5.0):
        spot = leibniz_product_verify(2, parse("1"), parse("1"), Scalar.exact(2))
        assert spot.lhs == 12 and spot.rhs == 12 and spot.verdict == "pass"
        rng = random.Random("leibniz-suite")
        for trial in range(50):
            n = rng.randint(0, 5)
            f = rand_polynomial(rng, degree_bound=4)
            g = rand_polynomial(rng, degree_bound=4)
            x0 = Scalar(Fraction(rng.randint(-4, 4), rng.randint(1, 4)))
            report = leibniz_product_verify(n, f, g, x0)
            assert report.verdict == "pass", (trial, n)
            assert report.residual == 0


def test_criterion_5_two_term_spot_values():
    with criterion("5 eq7 and eq5 spot values are -2", 5.0):
        code, out, _ = invoke(
            "binomid", "eq7", "--n", "2", "--s", "1", "--alpha", "0,0", "--beta", "1", "--json"
        )
        doc = json.loads(out)
        assert code == 0 and doc["lhs"] == "-2/1" and doc["rhs"] == "-2/1"
        assert doc["verdict"] == "pass"

        code, out, _ = invoke(
            "binomid", "eq5", "--n", "1", "--s", "1", "--alpha", "0,0", "--beta", "2", "--json"
        )
        doc = json.loads(out)
        assert code == 0 and doc["lhs"] == "-2/1" and doc["rhs"] == "-2/1"
        assert doc["verdict"] == "pass"


def test_criterion_6_rhs_form_discrepancy():
    with criterion("6 eq6 rhs-form discrepancy exhibited", 5.0):
        base = (
            "binomid", "eq6", "--n", "2", "--s", "2,0", "--c", "-1,1",
            "--alpha", "0,0", "--beta", "1", "--json",
        )
        code, out, _ = invoke(*base, "--rhs-form", "corrected")
        doc = json.loads(out)
        assert code == 0 and doc["verdict"] == "pass"
        assert doc["lhs"] == "2/1" and doc["rhs"] == "2/1"

        code, out, _ = invoke(*base, "--rhs-form", "as_printed")
        doc = json.loads(out)
        assert code == 1 and doc["verdict"] == "fail"
        assert doc["lhs"] == "2/1" and doc["rhs"] == "1/1"
        assert any("multinomial" in note for note in doc["notes"])


def test_criterion_7_jet_oracle_equivalence():
    with criterion("7 jet vs symbolic oracle, 100 exact + 100 float", 30.0):
        rng = random.Random("accept-exact")
        done = 0
        while done < 100:
            e = rand_rational_closed(rng, 4)
            x0 = pick_exact_point(rng, e, 6)
            if x0 is None:
                continue
            jet = eval_jet(e, x0, 6)
            for k in range(7):
                assert jet.derivative(k) == nth_derivative(e, k, x0), (to_text(e), k)
            done += 1

        rng = random.Random("accept-float")
        done = 0
        while done < 100:
            e = rand_transcendental(rng, 3)
            x0 = pick_float_point(rng, e, 6)
            if x0 is None:
                continue
            jet = eval_jet(e, x0, 6)
            for k in range(7):
                a = float(jet.derivative(k))
                b = float(nth_derivative(e, k, x0))
                assert rel_close(a, b, 1e-9), (to_text(e), k, a, b)
            done += 1


def test_criterion_8_negative_tests():
    with criterion("8 broken hypothesis and perturbed rhs are caught", 1.0):
        # sum of g at x0 is 1, not 0
        code, out, _ = invoke(
            "verify", "theorem1", "--n", "2", "--s", "0,2",
            "--f", "1,x", "--g", "-x^2+1/2,x^2+1/2", "--at", "3", "--json",
        )
        assert code == 1
        assert json.loads(out)["verdict"] == "precondition_violated"

        code, out, _ = invoke(
            "verify", "baran", "--n", "2", "--f", "x", "--g", "x^2", "--at", "3",
            "--perturb-rhs", "1/1000", "--json",
        )
        assert code == 1
        assert json.loads(out)["verdict"] == "fail"


def test_criterion_9_sweep_determinism():
    with criterion("9 sweep --seed 42 --trials 100 is byte-identical", 30.0):
        first = invoke("sweep", "--seed", "42", "--trials", "100", "--json")
        second = invoke("sweep", "--seed", "42", "--trials", "100", "--json")
        assert first == second
        code, out, _ = first
        assert code == 0
        doc = json.loads(out)
        assert doc["counts"] == {"pass": 100, "fail": 0, "precondition_violated": 0}


def test_theorem1_n12_r6_within_budget():
    with criterion("theorem1 at n = 12, r = 6 with |s| = n", 5.0):
        rng = random.Random("wide:12:6:1")
        f = tuple(rand_polynomial(rng) for _ in range(6))
        g_head = [rand_polynomial(rng) for _ in range(5)]
        g_sum = const(0)
        for e in g_head:
            g_sum = add(g_sum, e)
        s = [2, 2, 2, 2, 2, 2]
        inst = TheoremInstance(
            n=12, r=6, f=f, g=tuple(g_head + [neg(g_sum)]), s=s,
            x0=Scalar(Fraction(rng.randint(-4, 4), rng.randint(1, 4))),
        )
        report = theorem1_verify(inst)
        assert report.verdict == "pass"
        assert report.residual.as_ratio_text() == "0/1"
        assert report.rhs != 0


def test_theorem1_n80_r10_within_budget():
    with criterion("theorem1 at n = 80, r = 10 with |s| = n, degree-2 polynomials", 0.5):
        report = theorem1_verify(quadratic_instance(80, 10))
        assert report.verdict == "pass"
        assert report.residual.as_ratio_text() == "0/1"


def test_theorem1_n160_r10_within_budget():
    with criterion("theorem1 at n = 160, r = 10 with |s| = n, degree-2 polynomials", 3.0):
        report = theorem1_verify(quadratic_instance(160, 10))
        assert report.verdict == "pass"
        assert report.residual.as_ratio_text() == "0/1"


def test_theorem1_n320_r16_within_budget():
    with criterion("theorem1 at n = 320, r = 16 with |s| = n, degree-2 polynomials", 8.0):
        report = theorem1_verify(quadratic_instance(320, 16))
        assert report.verdict == "pass"
        assert report.residual.as_ratio_text() == "0/1"


def test_sweep_200_trials_at_n40_r10_within_budget():
    with criterion("sweep, seed 7, 200 trials, max_n = 40, max_r = 10, in process", 3.0):
        summary = sweep(SweepConfig(seed=7, trials=200, max_n=40, max_r=10))
        assert summary.counts == {"pass": 200, "fail": 0, "precondition_violated": 0}
