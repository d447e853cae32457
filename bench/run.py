"""jetcheck benchmark: one command, every metric by name with its unit.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads in ``bench/workloads.py``, or ``all`` to run
every workload in turn.  ``--trace 0`` measures the end-to-end metrics with
no instrumentation; ``--trace 1`` is a separate run that installs the
benchmark's wrappers around calls into each jetcheck layer and reports the
per-layer metrics.  Human-readable lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

The program under test is ``src/jetcheck`` of the checkout that holds this
file, imported in fresh interpreters; without it the benchmark exits with
code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time

from reference import Gauge
from tracing import COUNT_METRICS, SELF_TIME_METRICS
from worker import BENCH, GOLDEN_SEED, ROOT, SRC
from workloads import WORKLOADS

WORKER = BENCH / "worker.py"

# End-to-end metrics (--trace 0) and their units.  failed_ratio is printed
# with them; in the JSON it is carried by "failed" / "attempted", because
# end-to-end metrics are compared as ratios of medians and must never be 0.
END_TO_END = {
    "instances_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
MODULES = ("numeric", "jets", "exprs", "parsing", "identities", "cli")
SETUP_PROBES = 6  # fresh interpreters timed from start to first timed instance
IMPORT_PROBES = 5
WORKER_TIMEOUT_S = 150
# Child interpreters may write and read bytecode caches, so that import time
# is that of an installed package, wherever the benchmark is started from.
ENV = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}


def per_layer_units() -> dict[str, str]:
    units = {name: "count" for name in COUNT_METRICS}
    units.update({name: "s" for name in SELF_TIME_METRICS})
    units.update({f"{m}.import_s": "s" for m in MODULES})
    units["trace.overhead_ratio"] = "ratio"
    return units


def worker(args: list[str], timeout: float = WORKER_TIMEOUT_S) -> tuple[dict, float]:
    """Run the worker in a fresh interpreter; return its result and spawn time."""
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(WORKER), *args], cwd=ROOT, env=ENV, capture_output=True,
        text=True, timeout=timeout,
    )
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"error: worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), spawned


def bare_start_s() -> float:
    """Median wall time of ``python3 -c pass``, to split setup_s."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=ENV, check=True, timeout=30)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


_IMPORTTIME = re.compile(r"import time:\s+(\d+) \|\s+\d+ \|\s+jetcheck\.(\w+)$")


def import_times_s() -> dict[str, float]:
    """Per-module self import time (``-X importtime``), median over probes."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import jetcheck.cli"
    samples: dict[str, list[float]] = {m: [] for m in MODULES}
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", code], env=ENV,
                              capture_output=True, text=True, check=True, timeout=30)
        for line in proc.stderr.splitlines():
            m = _IMPORTTIME.match(line.strip())
            if m and m.group(2) in samples:
                samples[m.group(2)].append(int(m.group(1)) / 1e6)
    return {f"{m}.import_s": statistics.median(v) for m, v in samples.items()}


def per_layer(name: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """A traced run: per-layer metrics with units, and the worker's result."""
    layers = import_times_s()
    result, _ = worker(["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
                        "--trace", "1"])
    layers.update(result["layers"])
    return {k: {"value": layers[k], "unit": u} for k, u in per_layer_units().items()}, result


def end_to_end(name: str, seed: int, seconds: float, bare: float) -> tuple[dict, dict]:
    """An untraced run: end-to-end metrics with units, and the worker's result."""
    gauge = Gauge()
    probe = ["--workload", name, "--seed", str(seed), "--seconds", "0", "--setup-only"]
    worker(probe, 60)  # writes the bytecode caches; not measured
    setups, wall_setups = [], []
    for _ in range(SETUP_PROBES):
        before = gauge.read()
        ready, spawned = worker(probe, 60)
        wall_setups.append(ready["ready"] - spawned)
        setups += gauge.normalize(wall_setups[-1:], before, gauge.read())
    result, _ = worker(["--workload", name, "--seed", str(seed), "--seconds", str(seconds)])
    result["bare_start_s"] = bare
    result["wall"]["setup_s"] = statistics.median(wall_setups)
    values = {k: result.get(k) for k in END_TO_END}
    values["setup_s"] = statistics.median(setups)
    return {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}, result


def print_result(name: str, why: str, seed: int, metrics: dict, result: dict, trace: int) -> None:
    props = result["properties"]
    print(f"workload {name} (seed {seed}; closed loop, one caller): {why}")
    for key, m in metrics.items():
        note = ""
        if key == "latency_tail_ms":
            note = (f"  p{result['tail_percentile']} over {result['tail_samples']} instances, "
                    f"each the median of {result['passes']} passes")
        elif key == "setup_s":
            note = (f"  median of {SETUP_PROBES} fresh interpreters; "
                    f"bare python -c pass {result['bare_start_s']:.4f} s wall")
        elif key == "jets.mul_coeff_ops":
            note = "  computed from operand orders, not measured"
        elif key.endswith("_s") and not key.endswith("import_s") and trace:
            note = "  per instance"
        if not trace and key != "peak_rss_mb":
            note = f"  (wall {result['wall'][key]:.6g}){note}"
        value = m["value"] if isinstance(m["value"], int) else f"{m['value']:.6g}"
        print(f"  {key:<29} {value:<14} {m['unit']}{note}")
    if not trace:
        ratio = result["failed"] / result["attempted"]
        print(f"  {'failed_ratio':<29} {ratio:<14.6g} ratio  "
              f"{result['failed']} of {result['attempted']} attempted")
    comps = props["compositions"]
    print(f"  inputs: {props['instances']} instances, mode {'/'.join(props['mode'])}, "
          f"negative share {props['negative_share']:.3f}, max jet order {props['max_jet_order']}, "
          f"n {props['n_range'][0]}-{props['n_range'][1]}, compositions per instance "
          f"min {comps['min']} q1 {comps['quartiles'][0]:g} median {comps['quartiles'][1]:g} "
          f"q3 {comps['quartiles'][2]:g} max {comps['max']}")
    if result["digest"] is not None:
        checked = ("checked against golden digests" if result["golden_checked"]
                   else "no golden digests at this seed")
        print(f"  exact JSON: {checked}; combined sha256 {result['digest']} "
              f"(per instance: {result['digests_file']})")
    else:
        print(f"  float: largest |residual|/max(1, scale) {result['max_float_residual_ratio']:.3g}")
    if trace:
        print(f"  spans: {result['spans']} written to {result['spans_file']}")
    for err in result["errors"]:
        print(f"  FAILED {err}", file=sys.stderr)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="jetcheck benchmark")
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=GOLDEN_SEED)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "jetcheck" / "__init__.py").is_file():
        print(f"error: no jetcheck sources under {SRC}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    bare = None if args.trace else bare_start_s()
    out_metrics: dict = {}
    attempted = failed = 0
    for name in names:
        if args.trace:
            metrics, result = per_layer(name, args.seed, args.seconds)
        else:
            metrics, result = end_to_end(name, args.seed, args.seconds, bare)
        print_result(name, WORKLOADS[name].why, args.seed, metrics, result, args.trace)
        attempted += result["attempted"]
        failed += result["failed"]
        prefix = f"{name}." if len(names) > 1 else ""
        out_metrics.update({prefix + k: v for k, v in metrics.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": out_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
