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
that cannot be evaluated at all (a float overflow, such as a float
left-hand side or right-hand side factor that is infinite or NaN), and on
any other exception, which is a bug reported as an ``internal error``.
Every flag value given is checked, also for flags the chosen identity does
not use.  Each exit 2 writes one ``error:`` line to the ``stderr`` given to
:func:`run`.  When standard output closes early (a pipe into ``head``),
:func:`main` exits 141 (128 + SIGPIPE) and writes nothing to stderr.  Exit
code 1 therefore always means a verdict, never a crash.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import replace
from fractions import Fraction
from json.encoder import encode_basestring_ascii
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
from .numeric import ModeError, MultiIndex, Scalar
from .parsing import ParseError, parse, parse_number


class UsageError(Exception):
    """Bad command-line input; maps to exit code 2."""


class _Help(Exception):
    """--help was given; carries the help text for :func:`run` to write."""


class _Store(argparse._StoreAction):
    """argparse's store action, reading a flag value "--" as Python 3.13 does:
    earlier versions drop it and hand the action [], so here argparse's own
    type call and choices check run on "--" at the same point of argv."""

    def __call__(self, parser, namespace, values, option_string=None) -> None:
        if values == [] and self.option_strings:
            values = parser._get_value(self, "--")
            parser._check_value(self, values)
        setattr(namespace, self.dest, values)


class _Parser(argparse.ArgumentParser):
    """An argument parser that raises UsageError for a usage error and _Help
    for its help text, which :func:`run` writes to its own ``stderr`` (as one
    line) and ``stdout``; subcommand parsers inherit the class.

    :meth:`tabulate` reads the parser's own actions, once all are added, into
    the table :meth:`parse_plain` reads: ``options`` maps each option string
    that takes a value to its slot (dest, type, choices), ``switches`` each
    store_true flag to its slot and const, ``positionals`` lists the slots of
    the positionals, and ``defaults`` is the namespace argparse starts from:
    each action's default, then each :meth:`set_defaults` entry.  The whole
    parser's ``value_flags`` holds every subcommand's ``options`` strings, and
    ``commands`` the parser of each subcommand by name."""

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        self.register("action", None, _Store)

    def tabulate(self) -> dict[str, tuple]:
        """Fill the table from the actions and defaults; returns ``options``."""
        self.options, self.switches, self.positionals, self.defaults = {}, {}, [], {}
        for action in self._actions:
            slot = (action.dest, action.type, action.choices)
            if not action.option_strings:
                self.positionals.append(slot)
            elif action.nargs is None:
                self.options.update(dict.fromkeys(action.option_strings, slot))
            elif isinstance(action, argparse._StoreTrueAction):
                self.switches.update(dict.fromkeys(action.option_strings, (slot, action.const)))
            if action.dest is not argparse.SUPPRESS and action.default is not argparse.SUPPRESS:
                self.defaults.setdefault(action.dest, action.default)
        self.defaults.update(self._defaults)
        return self.options

    def parse_plain(self, argv: Sequence[str]) -> argparse.Namespace | None:
        """The namespace :meth:`parse_args` gives for argv of the plainest
        shape, read from the table in one pass; None for any other argv, which
        argparse then parses and reports on.  Plain: every token is an option
        string of this parser that takes a value, joined to it by '=' (as
        :func:`_join_flag_values` joins them), a bare store_true flag, or a
        positional; no flag is given twice; there are as many positionals as
        the parser has; and every type returns a value within the choices."""
        given, positionals = {}, []
        for token in argv:
            flag, eq, text = token.partition("=")
            # argparse before 3.13 drops a value "--" (see _Store)
            slot = self.options.get(flag) if eq and text != "--" else None
            if slot is None and token in self.switches:
                slot, text = self.switches[token]
            if slot is None:
                if token[:1] == "-":
                    return None  # -h, --, an abbreviation, an unknown or valueless flag
                positionals.append(token)
            elif slot[0] in given:
                return None  # argparse keeps the last value of a repeated flag
            else:
                given[slot[0]] = slot, text
        if len(positionals) != len(self.positionals):
            return None
        namespace = dict(self.defaults)
        for (dest, convert, choices), text in [*zip(self.positionals, positionals),
                                               *given.values()]:
            if convert is not None:
                try:
                    text = convert(text)
                except Exception:
                    return None  # argparse calls the type again and reports or raises
            if choices is not None and text not in choices:
                return None
            namespace[dest] = text
        return argparse.Namespace(**namespace)

    def error(self, message: str) -> NoReturn:
        raise UsageError(message)

    def print_help(self, file=None) -> NoReturn:
        raise _Help(self.format_help())


# argparse types.  Each raises argparse.ArgumentTypeError, which argparse
# reports as "argument --flag: <message>".


def _literal(text: str) -> int | Fraction | float | None:
    """:func:`parse_number` of a flag value; a literal out of range is an argparse error."""
    try:
        return parse_number(text)
    except ParseError as err:
        if err.expected == "a nonzero denominator":
            raise argparse.ArgumentTypeError(f"zero denominator in {text.strip()!r}") from None
        raise argparse.ArgumentTypeError(str(err)) from None


def _scalar(text: str) -> Scalar:
    value = _literal(text)
    if value is None:
        raise argparse.ArgumentTypeError(
            f"expected an integer, p/q, or decimal, got {text.strip()!r}")
    return Scalar(value)


def _tolerance(text: str) -> float:
    """argparse type for --tol: a finite float above zero."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"expected a finite number > 0, got {text!r}")
    return value


def _scalar_list(text: str) -> list[Scalar]:
    return [_scalar(part) for part in text.split(",")]


def _int_list(text: str) -> list[int]:
    values = [_literal(part) for part in text.split(",")]
    if not all(isinstance(value, int) for value in values):
        raise argparse.ArgumentTypeError(f"expected an integer list, got {text!r}")
    return values


def _expr(text: str) -> Expr:
    try:
        return parse(text)
    except ParseError as err:
        raise argparse.ArgumentTypeError(str(err)) from None


def _expr_list(text: str) -> list[Expr]:
    return [_expr(part) for part in text.split(",")]


def _require(args: argparse.Namespace, what: str, *flags: str) -> None:
    for flag in flags:
        if getattr(args, flag.lstrip("-").replace("-", "_")) is None:
            raise UsageError(f"{what} requires {flag}")


def _sides(report: VerificationReport) -> list[tuple[str, Scalar | None]]:
    """The report's four numbers with their field names, in report order."""
    return [(key, getattr(report, key)) for key in ("lhs", "rhs", "residual", "cancellation_scale")]


def report_dict(report: VerificationReport) -> dict:
    """JSON-shaped dict with the stable field order of the report schema."""
    return {
        "identity": report.identity,
        "params": dict(report.params),
        "mode": report.mode,
        **{key: None if s is None else s.as_ratio_text() for key, s in _sides(report)},
        "tolerance": repr(report.tolerance) if report.tolerance is not None else None,
        "verdict": report.verdict,
        "notes": list(report.notes),
    }


def _json(value, indent: str = "\n") -> str:
    """json.dumps(value, indent=2) without its pure-Python encoder, which leaves reference cycles."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if not value or not isinstance(value, (dict, list)):
        return "null" if value is None else json.dumps(value)
    inner = indent + "  "
    if isinstance(value, dict):
        items = [f"{encode_basestring_ascii(key)}: {_json(v, inner)}" for key, v in value.items()]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    return "[" + inner + ("," + inner).join([_json(v, inner) for v in value]) + indent + "]"


def emit_report(report: VerificationReport, fmt: str) -> str:
    """Render a report as text or JSON (rationals as "p/q", floats as their
    shortest round-trip decimals)."""
    if fmt == "json":
        return _json(report_dict(report))
    lines = [f"identity: {report.identity}", "params:"]
    for key, value in report.params.items():
        lines.append(f"  {key} = {value}")
    lines.append(f"mode: {report.mode}")
    for key, s in _sides(report):
        lines.append(f"{key}: {'n/a' if s is None else s.as_text()}")
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
        return _json(summary_dict(summary))
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
    sp.add_argument("--perturb-rhs", dest="perturb_rhs", type=_scalar, metavar="Q",
                    help="add Q to the computed rhs (negative testing)")


# sweep's integer flags, each a SweepConfig field that gives its default
_SWEEP_INTS = ("seed", "trials", "max_n", "max_r", "coeff_bound", "degree_bound")


def build_parser() -> _Parser:
    parser = _Parser(
        prog="jetcheck",
        description="Evaluate both sides of higher-order derivative identities "
                    "with exact jet arithmetic and report the residuals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="check one identity instance")
    v.add_argument("identity", choices=("baran", "theorem1", "corollary2",
                                        "symmetric_pair", "leibniz_product"))
    v.add_argument("--n", type=int)
    v.add_argument("--r", type=int)
    v.add_argument("--p", type=int)
    v.add_argument("--s", type=_int_list, help="comma-separated derivative orders")
    v.add_argument("--c", type=_scalar_list, help="comma-separated coefficients")
    v.add_argument("--f", type=_expr_list, help="expression, or comma-separated list")
    v.add_argument("--g", type=_expr_list, help="expression, or comma-separated list")
    v.add_argument("--f1", type=_expr)
    v.add_argument("--f2", type=_expr)
    v.add_argument("--at", type=_scalar, help="evaluation point x0")
    _add_common(v)
    v.set_defaults(handler=_handle_verify)

    b = sub.add_parser("binomid", help="check a combinatorial binomial reduction")
    b.add_argument("form", choices=("eq4", "eq5", "eq6", "eq7"))
    b.add_argument("--n", type=int)
    b.add_argument("--r", type=int)
    b.add_argument("--s", type=_int_list,
                   help="orders list (eq4/eq6) or a single integer (eq5/eq7)")
    b.add_argument("--alpha", type=_scalar_list, help="comma-separated exponents/rates")
    b.add_argument("--beta", type=_scalar)
    b.add_argument("--c", type=_scalar_list, help="comma-separated coefficients (eq4/eq6)")
    b.add_argument("--rhs-form", dest="rhs_form", choices=("corrected", "as_printed"),
                   default="corrected")
    _add_common(b)
    # two_term_c: the fixed c = (-1, 1) of eq5/eq7, lifted by --float like any input
    b.set_defaults(handler=_handle_binomid, two_term_c=[Scalar.exact(-1), Scalar.exact(1)])

    le = sub.add_parser("lemma", help="check the zero-power derivative lemma")
    le.add_argument("--f", type=_expr)
    le.add_argument("--n", type=int)
    le.add_argument("--at", type=_scalar)
    _add_common(le)
    le.set_defaults(handler=_handle_lemma)

    sw = sub.add_parser("sweep", help="seeded randomized fuzzing")
    for name in _SWEEP_INTS:
        sw.add_argument("--" + name.replace("_", "-"), dest=name, type=int,
                        default=getattr(SweepConfig, name))
    sw.add_argument("--identities",
                    help=f"comma-separated subset of: {','.join(IDENTITIES)}")
    sw.add_argument("--negative", action="store_true",
                    help="break each hypothesis and expect precondition_violated")
    sw.add_argument("--json", dest="as_json", action="store_true")
    sw.set_defaults(handler=_handle_sweep)

    parser.commands = dict(sub.choices)
    parser.value_flags = set().union(*(sp.tabulate() for sp in parser.commands.values()))
    return parser


def _to_float(value):
    """The --float lift: a Scalar, or each Scalar in a list, becomes a float."""
    if isinstance(value, list):
        return [_to_float(v) for v in value]
    return value.to_float() if isinstance(value, Scalar) else value


def _one(values: list[Expr], flag: str) -> Expr:
    """The single expression that ``flag`` holds for identities taking one."""
    if len(values) != 1:
        raise UsageError(f"argument {flag}: expected one expression, got {len(values)}")
    return values[0]


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
    common = {"tol": args.tol, "rhs_shift": args.perturb_rhs}
    if identity in ("baran", "leibniz_product"):
        _require(args, f"verify {identity}", "--n", "--f", "--g", "--at")
        verifier = baran_verify if identity == "baran" else leibniz_product_verify
        report = verifier(args.n, _one(args.f, "--f"), _one(args.g, "--g"), args.at, **common)
    elif identity == "theorem1":
        _require(args, "verify theorem1", "--n", "--s", "--f", "--g", "--at")
        inst = TheoremInstance(
            n=args.n, r=args.r if args.r is not None else len(args.f),
            f=args.f, g=args.g, s=args.s, x0=args.at,
        )
        report = theorem1_verify(inst, **common)
    elif identity == "corollary2":
        _require(args, "verify corollary2", "--n", "--s", "--c", "--f", "--g", "--at")
        report = corollary2_verify(
            args.n, args.f, _one(args.g, "--g"), args.c, args.s, args.at, r=args.r, **common,
        )
    else:
        _require(args, "verify symmetric_pair", "--n", "--p", "--f1", "--f2", "--g", "--at")
        report = symmetric_pair_verify(
            args.n, args.p, args.f1, args.f2, _one(args.g, "--g"), args.at, **common,
        )
    return _emit_single(report, args, stdout)


def _handle_binomid(args: argparse.Namespace, stdout: TextIO, stderr: TextIO) -> int:
    form = args.form
    _require(args, f"binomid {form}", "--n", "--s", "--alpha", "--beta")
    if form in ("eq5", "eq7"):
        if len(args.s) != 1:
            raise UsageError(f"binomid {form} takes a single integer --s")
        if not 0 <= args.s[0] <= args.n:
            raise UsageError(f"binomid {form} needs 0 <= s <= n")
        if len(args.alpha) != 2:
            raise UsageError(f"binomid {form} takes exactly two --alpha values")
        s, c = MultiIndex((args.s[0], args.n - args.s[0])), args.two_term_c
    else:
        _require(args, f"binomid {form}", "--c")
        s, c = MultiIndex(tuple(args.s)), args.c

    common = {"r": args.r, "tol": args.tol, "rhs_shift": args.perturb_rhs}
    if form in ("eq4", "eq5"):
        report = power_family_check(args.n, args.alpha, args.beta, c, s, **common)
    else:
        report = exp_family_check(args.n, args.alpha, args.beta, c, s, args.rhs_form, **common)
    report = replace(report, params={"form": form, **report.params})
    return _emit_single(report, args, stdout)


def _handle_lemma(args: argparse.Namespace, stdout: TextIO, stderr: TextIO) -> int:
    _require(args, "lemma", "--f", "--n", "--at")
    report = zero_power_lemma_check(
        args.f, args.n, args.at, tol=args.tol, rhs_shift=args.perturb_rhs,
    )
    return _emit_single(report, args, stdout)


def _handle_sweep(args: argparse.Namespace, stdout: TextIO, stderr: TextIO) -> int:
    if args.identities is not None:
        names = tuple(part.strip() for part in args.identities.split(","))
    else:
        names = PERTURBABLE_IDENTITIES if args.negative else IDENTITIES
    config = {name: getattr(args, name) for name in _SWEEP_INTS}
    summary = sweep(SweepConfig(**config, identities=names, negative=args.negative))
    stdout.write(emit_summary(summary, "json" if args.as_json else "text"))
    stdout.write("\n")
    bad = summary.counts["fail"] + summary.counts["precondition_violated"]
    return 0 if bad == 0 else 1


def _join_flag_values(argv: Sequence[str], value_flags: set[str]) -> list[str]:
    """Join each value flag with its value by '=', so argparse takes values
    that start with '-' (negative numbers, expressions like "-x^2").  The
    tokens after a standalone '--' that is not a flag's value stay as given."""
    out: list[str] = []
    for i, tok in enumerate(argv):
        if out and out[-1] in value_flags:
            out[-1] += "=" + tok
        elif tok == "--":
            return out + list(argv[i:])
        else:
            out.append(tok)
    return out


# Built once: parsing only reads the parsers, so concurrent run() calls share them.
_PARSER = build_parser()


def run(argv: Sequence[str], stdout: TextIO | None = None, stderr: TextIO | None = None) -> int:
    """Parse argv, dispatch, write the report; returns the exit code."""
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    try:
        argv = _join_flag_values(argv, _PARSER.value_flags)
        # argv led by a subcommand's name is read by that parser's plain pass;
        # any argv it declines goes to the whole parser, which also writes
        # every help text and usage error.
        command = _PARSER.commands.get(argv[0]) if argv else None
        args = command and command.parse_plain(argv[1:]) or _PARSER.parse_args(argv)
        if getattr(args, "float_mode", False):
            vars(args).update({key: _to_float(value) for key, value in vars(args).items()})
        return args.handler(args, stdout, stderr)
    except _Help as help_text:
        stdout.write(str(help_text))
        return 0
    except (UsageError, ModeError, ValueError) as err:
        stderr.write(f"error: {err}\n")
        return 2
    except OverflowError as err:
        # float ** reports (errno, text); the text alone is the message
        stderr.write(f"error: numeric overflow: {err.args[-1] if len(err.args) == 2 else err}\n")
        return 2
    except BrokenPipeError:
        raise  # a closed stdout, which main() reports by its exit code
    except Exception as err:
        # A boundary: any other failure is a bug, still reported as one line.
        message = " ".join(f"{type(err).__name__}: {err}".split())
        stderr.write(f"error: internal error: {message}\n")
        return 2


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # Standard output closed early (a pipe into ``head``).  Pointing it at
        # devnull keeps the flush at interpreter exit from failing again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141  # 128 + SIGPIPE, as a shell reports a process killed by it
    sys.exit(code)


if __name__ == "__main__":
    main()
