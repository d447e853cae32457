"""Spans and counters recorded around calls into jetcheck's layers.

The wrappers live here, in the benchmark, not in the program.  Each is
installed where its caller looks the name up (``identities.eval_jet`` rather
than ``exprs.eval_jet``, ``cli.parse`` rather than ``parsing.parse``, both
``Jet.__mul__`` and its ``__rmul__`` alias) and removed again by
:meth:`Tracer.uninstall`.

A span is ``(name, start_ns, end_ns, parent, instance)``: ``parent`` is the
index of the enclosing span in :attr:`Tracer.spans` (-1 at top level) and
``instance`` the benchmark's instance id.  Spans stay in memory until the run
ends.  A span's self time is its duration minus the time its child spans
cover; calls nest strictly on one thread, so children never overlap and that
cover is the sum of their durations.
"""

from __future__ import annotations

import functools
import json
from collections import Counter
from time import perf_counter_ns

VERIFIERS = (
    "theorem1_verify", "corollary2_verify", "symmetric_pair_verify", "baran_verify",
    "leibniz_product_verify", "power_family_check", "exp_family_check",
    "zero_power_lemma_check",
)
SCALAR_OPS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__truediv__",
    "__rtruediv__", "__pow__", "__neg__", "__abs__",
)
ELEMENTARY = ("exp", "log", "sin", "cos", "sqrt", "pow_real")

# Count metrics, reported over exactly one pass over the instance set.
COUNT_METRICS = (
    "numeric.scalar_ops", "numeric.compositions", "jets.mul_calls", "jets.mul_coeff_ops",
    "jets.elementary_calls", "exprs.eval_jet_calls", "parsing.parse_calls",
    "identities.verify_calls", "identities.precondition_exits",
)
# Self-time metrics (seconds per instance) and the span names they sum.
SELF_TIME_METRICS = {
    "numeric.comb_self_s": "numeric.comb",
    "jets.mul_self_s": "jets.mul",
    "jets.divpow_self_s": "jets.divpow",
    "jets.elementary_self_s": "jets.elementary",
    "exprs.eval_jet_self_s": "exprs.eval_jet",
    "parsing.parse_self_s": "parsing.parse",
    "identities.verify_self_s": "identities.verify",
    "cli.build_parser_s": "cli.build_parser",
    "cli.render_s": "cli.render",
    "cli.run_self_s": "cli.run",
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self.counts: Counter[str] = Counter()
        self.instance = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # Wrapper factories ----------------------------------------------------

    def _open(self) -> tuple[int, int]:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(idx)
        return idx, parent

    def _close(self, name: str, idx: int, parent: int, start: int) -> None:
        end = perf_counter_ns()
        self._stack.pop()
        self.spans[idx] = (name, start, end, parent, self.instance)

    def span(self, name: str, fn, count: str | None = None, on_result=None):
        """Wrap ``fn`` in a span; optionally count calls and inspect results."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if count is not None:
                counts[count] += 1
            idx, parent = self._open()
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(name, idx, parent, start)
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def generator_span(self, name: str, fn, count: str):
        """Wrap a generator function: one span per ``next``, one count per item."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                idx, parent = self._open()
                start = perf_counter_ns()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(name, idx, parent, start)
                counts[count] += 1
                yield item

        return wrapper

    def counter(self, key: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args):
            counts[key] += 1
            return fn(*args)

        return wrapper

    def jet_mul(self, fn):
        """Span for a jet product, counting calls and coefficient products.

        The coefficient-product count is computed from the operand orders, not
        measured: (n+1)(n+2)/2 for a jet-by-jet product of order n, n+1 for a
        jet scaled by a number.
        """
        from jetcheck.jets import Jet

        counts = self.counts
        inner = self.span("jets.mul", fn)

        @functools.wraps(fn)
        def wrapper(a, b):
            n = a.order
            counts["jets.mul_calls"] += 1
            counts["jets.mul_coeff_ops"] += (n + 1) * (n + 2) // 2 if isinstance(b, Jet) else n + 1
            return inner(a, b)

        return wrapper

    # Installation ---------------------------------------------------------

    def _patch(self, owner: object, attr: str, replacement) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        from jetcheck import cli, identities
        from jetcheck.jets import Jet
        from jetcheck.numeric import Scalar

        for op in SCALAR_OPS:
            self._patch(Scalar, op, self.counter("numeric.scalar_ops", Scalar.__dict__[op]))
        self._patch(identities, "compositions",
                    self.generator_span("numeric.comb", identities.compositions,
                                        "numeric.compositions"))
        for name in ("multinomial", "generalized_binomial"):
            self._patch(identities, name, self.span("numeric.comb", getattr(identities, name)))
        for op in ("__mul__", "__rmul__"):
            self._patch(Jet, op, self.jet_mul(Jet.__dict__[op]))
        for op in ("__truediv__", "__rtruediv__", "__pow__"):
            self._patch(Jet, op, self.span("jets.divpow", Jet.__dict__[op]))
        for fn in ELEMENTARY:
            self._patch(Jet, fn, self.span("jets.elementary", Jet.__dict__[fn],
                                           "jets.elementary_calls"))
        self._patch(identities, "eval_jet",
                    self.span("exprs.eval_jet", identities.eval_jet, "exprs.eval_jet_calls"))
        self._patch(cli, "parse", self.span("parsing.parse", cli.parse, "parsing.parse_calls"))

        def precondition(report) -> None:
            if report.verdict == "precondition_violated":
                self.counts["identities.precondition_exits"] += 1

        for module in (identities, cli):
            for name in VERIFIERS:
                if name in module.__dict__:
                    self._patch(module, name, self.span(
                        "identities.verify", getattr(module, name),
                        "identities.verify_calls", precondition))
        self._patch(cli, "build_parser", self.span("cli.build_parser", cli.build_parser))
        self._patch(cli, "emit_report", self.span("cli.render", cli.emit_report))
        self._patch(cli, "run", self.span("cli.run", cli.run))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # Results --------------------------------------------------------------

    def self_times_s(self) -> Counter[str]:
        """Total self time per span name, in seconds."""
        spans = self.spans
        covered = [0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                covered[parent] += end - start
        totals: Counter[str] = Counter()
        for (name, start, end, _, _), child in zip(spans, covered):
            totals[name] += (end - start - child) / 1e9
        return totals

    def write_spans(self, path) -> None:
        """One JSON array per line: name, start_ns, end_ns, parent, instance."""
        with open(path, "w", encoding="utf-8") as out:
            for s in self.spans:
                out.write(json.dumps(s, separators=(",", ":")))
                out.write("\n")
