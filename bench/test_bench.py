"""Tests of the benchmark itself.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import worker  # noqa: E402
from reference import Gauge  # noqa: E402
from tracing import COUNT_METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

worker.import_jetcheck()
from jetcheck import cli, identities  # noqa: E402

# A few instances per workload keep the traced subprocess runs short.
SUBSETS = {"cli_small_exact": 40, "exact_wide": 2, "float_r2_transcendental": 12}

_TRACED_PASS = """
import json, sys
sys.path.insert(0, {bench!r})
import worker
worker.import_jetcheck()
from jetcheck import cli, identities
from reference import Gauge
from tracing import COUNT_METRICS, Tracer
from workloads import WORKLOADS
w = WORKLOADS[{name!r}]
instances = w.instances({seed})[:{count}]
gate = worker.Gate(w, instances, cli)
tracer = Tracer()
tracer.install()
try:
    worker.run_pass(instances, worker.make_call(w, cli, identities), gate, Gauge(), tracer)
finally:
    tracer.uninstall()
assert gate.failed == 0, gate.errors
print(json.dumps({{k: tracer.counts[k] for k in COUNT_METRICS}}))
"""


def traced_counts(name: str, seed: int, hash_seed: str) -> dict:
    code = _TRACED_PASS.format(bench=str(BENCH), name=name, seed=seed, count=SUBSETS[name])
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True, timeout=120)
    return json.loads(out.stdout)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_counts_repeat_exactly(name):
    first = traced_counts(name, 3, "1")
    second = traced_counts(name, 3, "2")
    assert first == second
    assert set(first) == set(COUNT_METRICS)
    assert first["identities.verify_calls"] == SUBSETS[name]
    assert first["numeric.scalar_ops"] > 0 and first["jets.mul_calls"] > 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_follow_the_seed(name):
    w = WORKLOADS[name]
    a, b, c = w.build(5, 12), w.build(5, 12), w.build(6, 12)
    assert repr([i.call for i in a]) == repr([i.call for i in b])
    assert repr([i.call for i in a]) != repr([i.call for i in c])


def test_cli_mix_has_a_quarter_negatives():
    instances = WORKLOADS["cli_small_exact"].instances(1)
    negatives = [i for i in instances if i.negative]
    assert len(negatives) * 4 == len(instances)
    assert {i.verdict for i in negatives} == {"fail", "precondition_violated"}
    assert all(i.exit_code == 1 for i in negatives)
    assert all(i.n <= 5 and i.mode == "exact" for i in instances)


def _first_result(name: str):
    w = WORKLOADS[name]
    instances = w.instances(worker.GOLDEN_SEED)[:1]
    call = worker.make_call(w, cli, identities)
    gate = worker.Gate(w, instances, cli, worker.load_golden(name, worker.GOLDEN_SEED))
    return gate, call(instances[0])


def test_gate_accepts_the_golden_cli_output():
    gate, result = _first_result("cli_small_exact")
    gate.check(0, result)
    assert gate.failed == 0, gate.errors


def test_gate_rejects_a_one_byte_change_in_cli_json():
    gate, (code, text, err) = _first_result("cli_small_exact")
    gate.check(0, (code, text.replace('"notes": []', '"notes": [ ]'), err))
    assert gate.failed == 1
    assert "golden" in gate.errors[0]


def test_gate_rejects_a_wrong_exit_code():
    gate, (code, text, err) = _first_result("cli_small_exact")
    gate.check(0, (code + 1, text, err))
    assert gate.failed == 1


def test_gate_rejects_a_perturbed_exact_rhs():
    from dataclasses import replace

    from jetcheck import Scalar

    gate, report = _first_result("exact_wide")
    shifted = replace(report, rhs=report.rhs + Scalar.exact(1, 7),
                      residual=report.residual - Scalar.exact(1, 7))
    gate.check(0, shifted)
    assert gate.failed == 1


def test_gate_rejects_a_float_residual_above_tolerance():
    from dataclasses import replace

    from jetcheck import Scalar

    w = WORKLOADS["float_r2_transcendental"]
    inst = w.instances(1)[0]
    assert inst.verdict == "pass"
    gate = worker.Gate(w, [inst], cli)
    report = worker.make_call(w, cli, identities)(inst)
    scale = max(1.0, float(report.cancellation_scale))
    gate.check(0, replace(report, residual=Scalar.inexact(1e-6 * scale)))
    assert gate.failed == 1


def test_an_exception_counts_as_a_failure():
    w = WORKLOADS["exact_wide"]
    instances = w.instances(1)[:1]
    gate = worker.Gate(w, instances, cli)

    def boom(inst):
        raise ValueError("boom")

    worker.run_pass(instances, boom, gate, Gauge())
    assert gate.failed == 1


def test_tail_percentile_leaves_ten_samples_above():
    for count in (32, 300, 1200):
        pct = worker.tail_percentile(count)
        assert count * (100 - pct) / 100 >= 10
        assert count * (100 - pct - 1) / 100 < 10 or pct == 99


def test_benchmark_json_names_every_metric_and_workload():
    import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()


def test_without_sources_the_benchmark_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "exact_wide", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
