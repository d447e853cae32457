"""Regenerate ``bench/golden.json``, the golden exact-JSON digests.

    python3 bench/make_golden.py

Runs every exact-mode instance of every workload once at the golden seed,
checks verdicts, exit codes and residuals as the benchmark does, and stores
the SHA-256 of each instance's JSON report.  The benchmark then fails any
instance whose JSON differs by a single byte.  Regenerate only for a change
that is meant to alter the JSON output, and say so in the change.
"""

from __future__ import annotations

import json
import sys

from reference import Gauge
from worker import GOLDEN, GOLDEN_SEED, Gate, import_jetcheck, make_call, run_pass
from workloads import WORKLOADS


def main() -> int:
    import_jetcheck()
    from jetcheck import cli, identities

    digests = {}
    for name, workload in WORKLOADS.items():
        instances = workload.instances(GOLDEN_SEED)
        if any(inst.mode != "exact" for inst in instances):
            continue
        gate = Gate(workload, instances, cli)
        run_pass(instances, make_call(workload, cli, identities), gate, Gauge())
        if gate.failed:
            print("\n".join(gate.errors), file=sys.stderr)
            return 1
        digests[name] = gate.digests
    GOLDEN.write_text(json.dumps({"seed": GOLDEN_SEED, "digests": digests}, indent=1) + "\n",
                      encoding="utf-8")
    print(f"wrote {GOLDEN}: {', '.join(f'{k} {len(v)}' for k, v in digests.items())}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
