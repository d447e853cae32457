"""One workload in one fresh interpreter: set up, warm up, measure, gate.

Run by ``bench/run.py``; prints one JSON line with the measurements.  The
worker imports jetcheck from the ``src`` directory of the checkout that
holds this file and from nowhere else.

Timing model: one caller in a closed loop.  The instance list is run in
passes; each instance is timed around exactly one public call (``cli.run``
for the CLI workload, one verifier for the library workloads), and the gate
checks its output after the timer stops.  Each timing is scaled to the
reference speed of ``reference.py``, and an instance's latency is the median
of its scaled timings over the passes.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import math
import resource
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from reference import Gauge
from tracing import COUNT_METRICS, SELF_TIME_METRICS, Tracer
from workloads import CLI, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDEN = BENCH / "golden.json"
GOLDEN_SEED = 1  # the seed bench/golden.json holds digests for
OUT = BENCH / "out"

REPORT_KEYS = [
    "identity", "params", "mode", "lhs", "rhs", "residual", "cancellation_scale",
    "tolerance", "verdict", "notes",
]
MIN_PASSES = 2
WARMUP_INSTANCES = 20


def import_jetcheck() -> None:
    """Import jetcheck from this checkout's ``src``; exit 2 if it is not there."""
    if not (SRC / "jetcheck" / "__init__.py").is_file():
        sys.exit(f"error: no jetcheck sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import jetcheck

    if not Path(jetcheck.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"error: imported jetcheck from {jetcheck.__file__}, not {SRC}")


def load_golden(workload: str, seed: int) -> list[str] | None:
    """Golden per-instance digests of the exact JSON, stored for one seed only."""
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    return golden["digests"].get(workload) if golden["seed"] == seed else None


class Gate:
    """Checks each output against the outcome its instance must produce."""

    def __init__(self, workload, instances, cli_module, golden: list[str] | None = None) -> None:
        self.workload = workload
        self.instances = instances
        self.cli = cli_module
        self.golden = golden
        self.digests: list[str | None] = [None] * len(instances)
        self.failed = 0
        self.errors: list[str] = []
        self.max_float_ratio = 0.0

    def _fail(self, i: int, why: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"instance {i} ({self.instances[i].kind}): {why}")

    def check(self, i: int, result) -> None:
        try:
            why = self._why_wrong(i, result)
        except Exception as err:  # a malformed output is a failure, not a crash
            why = f"unreadable output: {type(err).__name__}: {err}"
        if why is not None:
            self._fail(i, why)

    def exception(self, i: int, err: BaseException) -> None:
        self._fail(i, f"raised {type(err).__name__}: {err}")

    def _why_wrong(self, i: int, result) -> str | None:
        inst = self.instances[i]
        if self.workload.interface == CLI:
            code, text, err = result
            if code != inst.exit_code:
                return f"exit code {code}, expected {inst.exit_code}; stderr {err.strip()!r}"
            report = json.loads(text)
        else:
            text = json.dumps(self.cli.report_dict(result), indent=2)
            report = json.loads(text)
        if list(report) != REPORT_KEYS:
            return f"report keys {list(report)}"
        if report["verdict"] != inst.verdict:
            return f"verdict {report['verdict']}, expected {inst.verdict}"
        if report["mode"] != inst.mode:
            return f"mode {report['mode']}, expected {inst.mode}"
        if inst.mode == "float":
            return self._float_wrong(report, inst)
        if inst.verdict == "precondition_violated":
            if report["residual"] is not None:
                return "precondition exit reported a residual"
        elif report["residual"] != inst.residual:
            return f"residual {report['residual']}, expected {inst.residual}"
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        if self.digests[i] is None:
            self.digests[i] = digest
        if self.golden is not None and digest != self.golden[i]:
            return "JSON digest differs from the golden digest"
        if digest != self.digests[i]:
            return "JSON differs from an earlier pass"
        return None

    def _float_wrong(self, report: dict, inst) -> str | None:
        residual = abs(float(report["residual"]))
        scale = max(1.0, float(report["cancellation_scale"]))
        limit = float(report["tolerance"]) * scale
        if not math.isfinite(residual) or not math.isfinite(scale):
            return f"non-finite residual {residual} or scale {scale}"
        if inst.perturb is None:
            self.max_float_ratio = max(self.max_float_ratio, residual / scale)
            if residual > limit:
                return f"residual {residual} above tolerance {limit}"
        elif abs(residual - inst.perturb) > limit + 1e-9 * inst.perturb:
            return f"perturbed residual {residual}, expected {inst.perturb}"
        return None

    def combined_digest(self) -> str:
        h = hashlib.sha256()
        for d in self.digests:
            h.update((d or "-").encode("ascii"))
        return h.hexdigest()


def make_call(workload, cli, identities):
    """The closed-loop step: run instance ``inst`` once, return its raw result."""
    if workload.interface == CLI:
        def call(inst):
            out, err = io.StringIO(), io.StringIO()
            code = cli.run(inst.call, out, err)
            return code, out.getvalue(), err.getvalue()
    else:
        def call(inst):
            name, args, kwargs = inst.call
            return getattr(identities, name)(*args, **kwargs)
    return call


@dataclass
class Pass:
    """Latencies of one pass over the instance list, in instance order."""

    wall_ns: list[int]
    scaled_ns: list[float]  # at the reference kernel's nominal speed


def run_pass(instances, call, gate, gauge: Gauge, tracer=None) -> Pass:
    """Run every instance once, reading the gauge between instances."""
    wall: list[int] = []
    scaled: list[float] = []
    segment: list[int] = []
    before = gauge.read()
    for i, inst in enumerate(instances):
        if segment and gauge.due():
            after = gauge.read()
            scaled += gauge.normalize(segment, before, after)
            wall += segment
            segment, before = [], after
        if tracer is not None:
            tracer.instance = i
        t0 = time.perf_counter_ns()
        try:
            result = call(inst)
        except Exception as err:  # counted as a failed instance, never raised
            segment.append(time.perf_counter_ns() - t0)
            gate.exception(i, err)
            continue
        segment.append(time.perf_counter_ns() - t0)
        gate.check(i, result)
    scaled += gauge.normalize(segment, before, gauge.read())
    wall += segment
    return Pass(wall, scaled)


def run_passes(instances, call, gate, gauge: Gauge, seconds: float, min_passes: int,
               tracer=None, after_first=None) -> list[Pass]:
    """Passes until the next one would end past ``seconds``, at least ``min_passes``."""
    passes: list[Pass] = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(instances, call, gate, gauge, tracer))
        if after_first is not None and len(passes) == 1:
            after_first()
        elapsed = time.perf_counter() - start
        if len(passes) >= min_passes and elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes


def tail_percentile(count: int) -> int:
    """Highest whole percentile with at least ten of ``count`` samples above it."""
    return max(0, min(99, math.floor(100 - 1000 / count)))


def latency_summary(columns: list[list[float]]) -> dict:
    """Metrics over per-instance latencies (ns), each the median over passes."""
    per_instance = [statistics.median(col) / 1e6 for col in zip(*columns)]
    count = len(per_instance)
    pct = tail_percentile(count)
    ordered = sorted(per_instance)
    tail = ordered[min(count - 1, math.ceil(pct / 100 * count) - 1)] if pct else ordered[-1]
    return {
        "instances_per_s": count / (sum(per_instance) / 1e3),
        "latency_p50_ms": statistics.median(per_instance),
        "latency_tail_ms": tail,
        "tail_percentile": pct,
        "tail_samples": count,
        "passes": len(columns),
    }


def throughput(passes: list[Pass]) -> float:
    """Instances per second at nominal speed over all the given passes."""
    return sum(len(p.scaled_ns) for p in passes) / (sum(sum(p.scaled_ns) for p in passes) / 1e9)


def properties(instances) -> dict:
    """Input-property shares of the instance set."""
    comps = sorted(inst.compositions for inst in instances)
    return {
        "instances": len(instances),
        "mode": sorted({inst.mode for inst in instances}),
        "negative_share": sum(inst.negative for inst in instances) / len(instances),
        "max_jet_order": max(inst.jet_order for inst in instances),
        "n_range": [min(i.n for i in instances), max(i.n for i in instances)],
        "compositions": {"min": comps[0], "quartiles": statistics.quantiles(comps, n=4),
                         "max": comps[-1]},
        "kinds": dict(Counter(inst.kind for inst in instances)),
    }


def main(argv=None) -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    import_jetcheck()
    from jetcheck import cli, identities

    workload = WORKLOADS[args.workload]
    instances = workload.instances(args.seed)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return

    gate = Gate(workload, instances, cli, load_golden(workload.name, args.seed))
    call = make_call(workload, cli, identities)
    gauge = Gauge()
    run_pass(instances[:WARMUP_INSTANCES], call, gate, gauge)
    gc.collect()

    result: dict = {"ready": ready, "properties": properties(instances)}
    if not args.trace:
        passes = run_passes(instances, call, gate, gauge, args.seconds, MIN_PASSES)
        result.update(latency_summary([p.scaled_ns for p in passes]))
        result["wall"] = latency_summary([p.wall_ns for p in passes])
        attempted = sum(len(p.wall_ns) for p in passes)
    else:
        untraced = run_passes(instances, call, gate, gauge, args.seconds / 2, 1)
        tracer = Tracer()
        counts: dict[str, int] = {}
        tracer.install()
        try:
            traced = run_passes(
                instances, call, gate, gauge, args.seconds / 2, 1, tracer,
                after_first=lambda: counts.update((k, tracer.counts[k]) for k in COUNT_METRICS),
            )
        finally:
            tracer.uninstall()
        executed = sum(len(p.wall_ns) for p in traced)
        # Self times are scaled to nominal speed like the latencies they explain.
        scale = sum(sum(p.scaled_ns) for p in traced) / sum(sum(p.wall_ns) for p in traced)
        totals = tracer.self_times_s()
        layers: dict[str, float] = dict(counts)
        for metric, span in SELF_TIME_METRICS.items():
            layers[metric] = totals[span] * scale / executed
        layers["trace.overhead_ratio"] = throughput(traced) / throughput(untraced)
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{workload.name}-seed{args.seed}.jsonl"
        tracer.write_spans(spans_path)
        result.update(layers=layers, spans=len(tracer.spans),
                      spans_file=str(spans_path.relative_to(ROOT)))
        attempted = sum(len(p.wall_ns) for p in untraced) + executed
    attempted += min(WARMUP_INSTANCES, len(instances))

    exact = all(inst.mode == "exact" for inst in instances)
    result.update({
        "attempted": attempted,
        "failed": gate.failed,
        "errors": gate.errors,
        "golden_checked": gate.golden is not None,
        "digest": gate.combined_digest() if exact else None,
        "max_float_residual_ratio": gate.max_float_ratio,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    })
    if result["digest"] is not None:
        OUT.mkdir(exist_ok=True)
        digests_path = OUT / f"digests-{workload.name}-seed{args.seed}.txt"
        digests_path.write_text("".join(f"{d}\n" for d in gate.digests), encoding="utf-8")
        result["digests_file"] = str(digests_path.relative_to(ROOT))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
