"""Command-line front end.

Subcommands:

* ``verify <identity>`` - check one identity instance
  (baran, theorem1, corollary2, symmetric_pair, leibniz_product).
* ``binomid <eq4|eq5|eq6|eq7>`` - the combinatorial binomial reductions
  (eq4/eq5: power family, eq6/eq7: exponential family; eq5 and eq7 are the
  two-term special cases with c = (-1, 1) and s = (s, n-s)).
* ``lemma`` - the zero-power derivative lemma.
* ``sweep`` - seeded randomized fuzzing over the identity family.

Exit codes: 0 when every requested verification passes, 1 when any verdict
is fail or precondition_violated, 2 on usage or parse errors and on inputs
that cannot be evaluated at all (a float overflow, a float right-hand side
with an infinite or NaN factor, or an expression nested deeper than the
interpreter's recursion limit).  Each exit 2 writes one ``error:`` line to the
``stderr`` given to :func:`run`.  Exit code 1 therefore always means a
verdict, never a crash.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from dataclasses import replace
from fractions import Fraction
from typing import NoReturn, Sequence, TextIO

from .exprs import Expr
from .identities import (
    DEFAULT_TOL,
    IDENTITIES,
    PERTURBABLE_IDENTITIES,
    SweepConfig,
    SweepSummary,
    TheoremInstance,
    VerificationReport,
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
from .numeric import DomainError, ModeError, MultiIndex, Scalar
from .parsing import ParseError, parse


class UsageError(Exception):
    """Bad command-line input; maps to exit code 2."""


class _Parser(argparse.ArgumentParser):
    """An argument parser that reports a usage error by raising UsageError,
    so :func:`run` writes it as one line to its own ``stderr``; subcommand
    parsers inherit the class."""

    def error(self, message: str) -> NoReturn:
        raise UsageError(message)


_INT_RE = re.compile(r"[+-]?\d+$")
_RATIONAL_RE = re.compile(r"([+-]?\d+)/(\d+)$")
_DECIMAL_RE = re.compile(r"[+-]?\d+\.\d+$")


def _parse_scalar(text: str, flag: str) -> Scalar:
    text = text.strip()
    if _INT_RE.fullmatch(text):
        return Scalar.exact(int(text))
    m = _RATIONAL_RE.fullmatch(text)
    if m:
        if int(m.group(2)) == 0:
            raise UsageError(f"argument {flag}: zero denominator in {text!r}")
        return Scalar(Fraction(int(m.group(1)), int(m.group(2))))
    if _DECIMAL_RE.fullmatch(text):
        return Scalar.inexact(float(text))
    raise UsageError(f"argument {flag}: expected an integer, p/q, or decimal, got {text!r}")


def _tolerance(text: str) -> float:
    """argparse type for --tol: a finite float above zero."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"expected a finite number > 0, got {text!r}")
    return value


def _parse_scalar_list(text: str, flag: str) -> list[Scalar]:
    return [_parse_scalar(part, flag) for part in text.split(",")]


def _parse_int_list(text: str, flag: str) -> list[int]:
    out = []
    for part in text.split(","):
        part = part.strip()
        if not _INT_RE.fullmatch(part):
            raise UsageError(f"argument {flag}: expected an integer list, got {text!r}")
        out.append(int(part))
    return out


def _parse_expr(text: str, flag: str) -> Expr:
    try:
        return parse(text)
    except ParseError as err:
        raise UsageError(f"argument {flag}: {err}") from None


def _parse_expr_list(text: str, flag: str) -> list[Expr]:
    return [_parse_expr(part, flag) for part in text.split(",")]


def _require(args: argparse.Namespace, what: str, *flags: str) -> None:
    for flag in flags:
        if getattr(args, flag.lstrip("-").replace("-", "_")) is None:
            raise UsageError(f"{what} requires {flag}")


def _scalar_field(s: Scalar | None) -> str | None:
    return None if s is None else s.as_ratio_text()


def report_dict(report: VerificationReport) -> dict:
    """JSON-shaped dict with the stable field order of the report schema."""
    return {
        "identity": report.identity,
        "params": dict(report.params),
        "mode": report.mode,
        "lhs": _scalar_field(report.lhs),
        "rhs": _scalar_field(report.rhs),
        "residual": _scalar_field(report.residual),
        "cancellation_scale": _scalar_field(report.cancellation_scale),
        "tolerance": repr(report.tolerance) if report.tolerance is not None else None,
        "verdict": report.verdict,
        "notes": list(report.notes),
    }


def emit_report(report: VerificationReport, fmt: str) -> str:
    """Render a report as text or JSON (rationals as "p/q", floats as their
    shortest round-trip decimals)."""
    if fmt == "json":
        return json.dumps(report_dict(report), indent=2)
    lines = [f"identity: {report.identity}", "params:"]
    for key, value in report.params.items():
        lines.append(f"  {key} = {value}")
    lines.append(f"mode: {report.mode}")

    def show(s: Scalar | None) -> str:
        return "n/a" if s is None else s.as_text()

    lines.append(f"lhs: {show(report.lhs)}")
    lines.append(f"rhs: {show(report.rhs)}")
    lines.append(f"residual: {show(report.residual)}")
    lines.append(f"cancellation_scale: {show(report.cancellation_scale)}")
    if report.tolerance is not None:
        lines.append(f"tolerance: {report.tolerance!r}")
    lines.append(f"verdict: {report.verdict}")
    for note in report.notes:
        lines.append(f"note: {note}")
    return "\n".join(lines)


def summary_dict(summary: SweepSummary) -> dict:
    cfg = summary.config
    return {
        "seed": cfg.seed,
        "trials": cfg.trials,
        "identities": list(cfg.identities),
        "negative": cfg.negative,
        "max_n": cfg.max_n,
        "max_r": cfg.max_r,
        "coeff_bound": cfg.coeff_bound,
        "degree_bound": cfg.degree_bound,
        "counts": dict(summary.counts),
        "per_identity": {k: dict(v) for k, v in summary.per_identity.items()},
        "first_failure": None if summary.first_failure is None else report_dict(summary.first_failure),
    }


def emit_summary(summary: SweepSummary, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(summary_dict(summary), indent=2)
    cfg = summary.config
    lines = [
        f"sweep: seed={cfg.seed} trials={cfg.trials} negative={cfg.negative}",
        f"identities: {','.join(cfg.identities)}",
        "counts: "
        + " ".join(f"{k}={v}" for k, v in summary.counts.items()),
    ]
    for name, tally in summary.per_identity.items():
        lines.append("  " + name + ": " + " ".join(f"{k}={v}" for k, v in tally.items()))
    if summary.first_failure is not None:
        lines.append("first failure:")
        lines.append(emit_report(summary.first_failure, "json"))
    return "\n".join(lines)


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--float", dest="float_mode", action="store_true",
                    help="evaluate in float mode instead of exact rationals")
    sp.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL,
                    help="relative tolerance for float-mode verdicts")
    sp.add_argument("--json", dest="as_json", action="store_true",
                    help="emit the report as JSON")
    sp.add_argument("--perturb-rhs", dest="perturb_rhs", default=None, metavar="Q",
                    help="add Q to the computed rhs (negative testing)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="jetcheck",
        description="Evaluate both sides of higher-order derivative identities "
                    "with exact jet arithmetic and report the residuals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="check one identity instance")
    v.add_argument("identity", choices=("baran", "theorem1", "corollary2",
                                        "symmetric_pair", "leibniz_product"))
    v.add_argument("--n", type=int, default=None)
    v.add_argument("--r", type=int, default=None)
    v.add_argument("--p", type=int, default=None)
    v.add_argument("--s", default=None, help="comma-separated derivative orders")
    v.add_argument("--c", default=None, help="comma-separated coefficients")
    v.add_argument("--f", default=None, help="expression, or comma-separated list")
    v.add_argument("--g", default=None, help="expression, or comma-separated list")
    v.add_argument("--f1", default=None)
    v.add_argument("--f2", default=None)
    v.add_argument("--at", default=None, help="evaluation point x0")
    _add_common(v)
    v.set_defaults(handler=_handle_verify)

    b = sub.add_parser("binomid", help="check a combinatorial binomial reduction")
    b.add_argument("form", choices=("eq4", "eq5", "eq6", "eq7"))
    b.add_argument("--n", type=int, default=None)
    b.add_argument("--r", type=int, default=None)
    b.add_argument("--s", default=None, help="orders list (eq4/eq6) or a single integer (eq5/eq7)")
    b.add_argument("--alpha", default=None, help="comma-separated exponents/rates")
    b.add_argument("--beta", default=None)
    b.add_argument("--c", default=None, help="comma-separated coefficients (eq4/eq6)")
    b.add_argument("--rhs-form", dest="rhs_form", choices=("corrected", "as_printed"),
                   default="corrected")
    _add_common(b)
    b.set_defaults(handler=_handle_binomid)

    le = sub.add_parser("lemma", help="check the zero-power derivative lemma")
    le.add_argument("--f", default=None)
    le.add_argument("--n", type=int, default=None)
    le.add_argument("--at", default=None)
    _add_common(le)
    le.set_defaults(handler=_handle_lemma)

    sw = sub.add_parser("sweep", help="seeded randomized fuzzing")
    sw.add_argument("--seed", type=int, default=0)
    sw.add_argument("--trials", type=int, default=10)
    sw.add_argument("--max-n", dest="max_n", type=int, default=4)
    sw.add_argument("--max-r", dest="max_r", type=int, default=3)
    sw.add_argument("--coeff-bound", dest="coeff_bound", type=int, default=4)
    sw.add_argument("--degree-bound", dest="degree_bound", type=int, default=3)
    sw.add_argument("--identities", default=None,
                    help=f"comma-separated subset of: {','.join(IDENTITIES)}")
    sw.add_argument("--negative", action="store_true",
                    help="break each hypothesis and expect precondition_violated")
    sw.add_argument("--json", dest="as_json", action="store_true")
    sw.set_defaults(handler=_handle_sweep)

    return parser


def _maybe_float(s: Scalar, args: argparse.Namespace) -> Scalar:
    return s.to_float() if args.float_mode else s


def _perturbation(args: argparse.Namespace) -> Scalar | None:
    if args.perturb_rhs is None:
        return None
    shift = _parse_scalar(args.perturb_rhs, "--perturb-rhs")
    return _maybe_float(shift, args)


def _emit_single(report: VerificationReport, args: argparse.Namespace, stdout: TextIO) -> int:
    if report.mode == "float" and not args.float_mode:
        report = replace(
            report,
            notes=report.notes + ("float mode forced by a decimal literal in the inputs",),
        )
    stdout.write(emit_report(report, "json" if args.as_json else "text"))
    stdout.write("\n")
    return 0 if report.verdict == "pass" else 1


def _handle_verify(args: argparse.Namespace, stdout: TextIO, stderr: TextIO) -> int:
    identity = args.identity
    shift = _perturbation(args)
    if identity == "baran":
        _require(args, "verify baran", "--n", "--f", "--g", "--at")
        report = baran_verify(
            args.n,
            _parse_expr(args.f, "--f"),
            _parse_expr(args.g, "--g"),
            _maybe_float(_parse_scalar(args.at, "--at"), args),
            tol=args.tol, rhs_shift=shift,
        )
    elif identity == "theorem1":
        _require(args, "verify theorem1", "--n", "--s", "--f", "--g", "--at")
        f = _parse_expr_list(args.f, "--f")
        g = _parse_expr_list(args.g, "--g")
        s = _parse_int_list(args.s, "--s")
        r = args.r if args.r is not None else len(f)
        inst = TheoremInstance(
            n=args.n, r=r, f=tuple(f), g=tuple(g), s=MultiIndex(tuple(s)),
            x0=_maybe_float(_parse_scalar(args.at, "--at"), args),
        )
        report = theorem1_verify(inst, tol=args.tol, rhs_shift=shift)
    elif identity == "corollary2":
        _require(args, "verify corollary2", "--n", "--s", "--c", "--f", "--g", "--at")
        f = _parse_expr_list(args.f, "--f")
        c = [_maybe_float(ci, args) for ci in _parse_scalar_list(args.c, "--c")]
        report = corollary2_verify(
            args.n, f, _parse_expr(args.g, "--g"), c,
            _parse_int_list(args.s, "--s"),
            _maybe_float(_parse_scalar(args.at, "--at"), args),
            r=args.r, tol=args.tol, rhs_shift=shift,
        )
    elif identity == "symmetric_pair":
        _require(args, "verify symmetric_pair", "--n", "--p", "--f1", "--f2", "--g", "--at")
        report = symmetric_pair_verify(
            args.n, args.p,
            _parse_expr(args.f1, "--f1"),
            _parse_expr(args.f2, "--f2"),
            _parse_expr(args.g, "--g"),
            _maybe_float(_parse_scalar(args.at, "--at"), args),
            tol=args.tol, rhs_shift=shift,
        )
    else:
        _require(args, "verify leibniz_product", "--n", "--f", "--g", "--at")
        report = leibniz_product_verify(
            args.n,
            _parse_expr(args.f, "--f"),
            _parse_expr(args.g, "--g"),
            _maybe_float(_parse_scalar(args.at, "--at"), args),
            tol=args.tol, rhs_shift=shift,
        )
    return _emit_single(report, args, stdout)


def _handle_binomid(args: argparse.Namespace, stdout: TextIO, stderr: TextIO) -> int:
    form = args.form
    shift = _perturbation(args)
    _require(args, f"binomid {form}", "--n", "--s", "--alpha", "--beta")
    alpha = [_maybe_float(a, args) for a in _parse_scalar_list(args.alpha, "--alpha")]
    beta = _maybe_float(_parse_scalar(args.beta, "--beta"), args)

    if form in ("eq5", "eq7"):
        s_values = _parse_int_list(args.s, "--s")
        if len(s_values) != 1:
            raise UsageError(f"binomid {form} takes a single integer --s")
        s_single = s_values[0]
        if not 0 <= s_single <= args.n:
            raise UsageError(f"binomid {form} needs 0 <= s <= n")
        if len(alpha) != 2:
            raise UsageError(f"binomid {form} takes exactly two --alpha values")
        s = MultiIndex((s_single, args.n - s_single))
        c = [_maybe_float(Scalar.exact(-1), args), _maybe_float(Scalar.exact(1), args)]
    else:
        _require(args, f"binomid {form}", "--c")
        s = MultiIndex(tuple(_parse_int_list(args.s, "--s")))
        c = [_maybe_float(ci, args) for ci in _parse_scalar_list(args.c, "--c")]

    if form in ("eq4", "eq5"):
        report = power_family_check(
            args.n, alpha, beta, c, s, r=args.r, tol=args.tol, rhs_shift=shift,
        )
    else:
        report = exp_family_check(
            args.n, alpha, beta, c, s, args.rhs_form, r=args.r, tol=args.tol, rhs_shift=shift,
        )
    report = replace(report, params={"form": form, **report.params})
    return _emit_single(report, args, stdout)


def _handle_lemma(args: argparse.Namespace, stdout: TextIO, stderr: TextIO) -> int:
    _require(args, "lemma", "--f", "--n", "--at")
    report = zero_power_lemma_check(
        _parse_expr(args.f, "--f"),
        args.n,
        _maybe_float(_parse_scalar(args.at, "--at"), args),
        tol=args.tol, rhs_shift=_perturbation(args),
    )
    return _emit_single(report, args, stdout)


def _handle_sweep(args: argparse.Namespace, stdout: TextIO, stderr: TextIO) -> int:
    if args.identities is not None:
        names = tuple(part.strip() for part in args.identities.split(","))
    elif args.negative:
        names = PERTURBABLE_IDENTITIES
    else:
        names = IDENTITIES
    config = SweepConfig(
        seed=args.seed,
        trials=args.trials,
        max_n=args.max_n,
        max_r=args.max_r,
        coeff_bound=args.coeff_bound,
        degree_bound=args.degree_bound,
        identities=names,
        negative=args.negative,
    )
    summary = sweep(config)
    stdout.write(emit_summary(summary, "json" if args.as_json else "text"))
    stdout.write("\n")
    bad = summary.counts["fail"] + summary.counts["precondition_violated"]
    return 0 if bad == 0 else 1


# Flags that take a value.  Joining them with '=' before argparse sees them
# lets values start with '-' (negative numbers, expressions like "-x^2").
_VALUE_FLAGS = frozenset({
    "--n", "--r", "--p", "--s", "--c", "--f", "--g", "--f1", "--f2", "--at",
    "--alpha", "--beta", "--tol", "--seed", "--trials", "--max-n", "--max-r",
    "--coeff-bound", "--degree-bound", "--identities", "--perturb-rhs",
    "--rhs-form",
})


def _join_flag_values(argv: Sequence[str]) -> list[str]:
    out: list[str] = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _VALUE_FLAGS and i + 1 < len(argv):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def run(argv: Sequence[str], stdout: TextIO | None = None, stderr: TextIO | None = None) -> int:
    """Parse argv, dispatch, write the report; returns the exit code."""
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    parser = build_parser()
    try:
        try:
            args = parser.parse_args(_join_flag_values(argv))
        except SystemExit as exc:  # only --help exits here, after printing
            return exc.code
        return args.handler(args, stdout, stderr)
    except UsageError as err:
        stderr.write(f"error: {err}\n")
        return 2
    except (ParseError, ModeError, DomainError, ValueError) as err:
        stderr.write(f"error: {err}\n")
        return 2
    except OverflowError as err:
        stderr.write(f"error: numeric overflow: {err}\n")
        return 2
    except RecursionError:
        stderr.write("error: input nested too deeply to evaluate\n")
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
