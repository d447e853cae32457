"""Record ``bench/baseline.json``: the benchmark's figures at this commit.

    python3 bench/record_baseline.py

Runs every workload untraced once per seed (seeds 1..10) and traced once at
seed 1, exactly as ``bench/run.py`` does, each run ``run_seconds`` long as
``BENCHMARK.json`` sets it, and stores for each end-to-end metric its ten
values, median and quartile spread ((q3 - q1) / median, the
figure each bound in ``BENCHMARK.json`` is checked against), the per-layer
metrics, the input properties, and the machine: Python version, CPU count,
git revision and the start time of a bare ``python -c pass``.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys

from reference import NOMINAL_S
from run import BENCH, ROOT, bare_start_s, end_to_end, per_layer
from workloads import WORKLOADS

SEEDS = range(1, 11)


def git_revision() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def main() -> int:
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]
    bare = bare_start_s()
    workloads = {}
    for name, workload in WORKLOADS.items():
        runs = []
        for seed in SEEDS:
            metrics, result = end_to_end(name, seed, seconds, bare)
            if result["failed"]:
                print("\n".join(result["errors"]), file=sys.stderr)
                return 1
            runs.append((metrics, result))
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k} {m['value']:.6g}" for k, m in metrics.items()), flush=True)
        layers, traced = per_layer(name, 1, seconds)
        first = runs[0][1]
        workloads[name] = {
            "why": workload.why,
            "properties_seed_1": first["properties"],
            "latency_tail": {"percentile": first["tail_percentile"],
                             "instances": first["tail_samples"]},
            "end_to_end": {
                key: {"unit": m["unit"], **spread([r[0][key]["value"] for r in runs])}
                for key, m in runs[0][0].items()
            },
            "wall_clock_medians": {
                key: statistics.median(r[1]["wall"][key] for r in runs)
                for key in ("instances_per_s", "latency_p50_ms", "latency_tail_ms", "setup_s")
            },
            "failed_ratio": sum(r[1]["failed"] for r in runs) / sum(r[1]["attempted"] for r in runs),
            "per_layer_seed_1": {k: m["value"] for k, m in layers.items()},
        }
    baseline = {
        "machine": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(),
            "platform": platform.platform(),
            "bare_python_start_s": bare,
        },
        "git_revision": git_revision(),
        "command": "python3 bench/record_baseline.py",
        "run_seconds": seconds,
        "seeds": list(SEEDS),
        "reference_nominal_s": NOMINAL_S,
        "workloads": workloads,
    }
    path = BENCH / "baseline.json"
    path.write_text(json.dumps(baseline, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
