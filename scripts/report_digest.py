#!/usr/bin/env python3
"""Print one SHA-256 over the reports of seeded sweep trials.

A change that must keep every answer prints the same digest before and after
it.  The digest covers every sweep trial at seeds 0 .. N-1 (40 trials per
seed, the identities in turn, as ``sweep`` draws them), positive and negative,
at max_n/max_r 4/3 and 9/5.  Each trial adds its report as JSON and as text,
then the exit code, stdout and stderr of the same instance replayed in float
mode through the CLI (``--float --json``, the argv rebuilt from the report's
params).

    python scripts/report_digest.py --seeds 40
"""

import argparse
import hashlib
import io
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from jetcheck import cli  # noqa: E402
from jetcheck.identities import (  # noqa: E402
    IDENTITIES, PERTURBABLE_IDENTITIES, SweepConfig, _random_trial,
)

TRIALS = 40
SIZES = ((4, 3), (9, 5))
# The subcommand of each identity that ``verify`` does not take.
COMMANDS = {"power_family": ["binomid", "eq4"], "exp_family": ["binomid", "eq6"],
            "zero_power_lemma": ["lemma"]}
FLAGS = {"x0": "--at", "rhs_form": "--rhs-form"}


def float_argv(report) -> list[str]:
    """The CLI call that checks the report's instance again in float mode."""
    argv = list(COMMANDS.get(report.identity, ["verify", report.identity]))
    for key, value in report.params.items():
        argv += [FLAGS.get(key, "--" + key), value]
    return argv + ["--float", "--json"]


def trials(seeds: int):
    """Every trial's report, in a fixed order."""
    for seed in range(seeds):
        for negative in (False, True):
            names = PERTURBABLE_IDENTITIES if negative else IDENTITIES
            for max_n, max_r in SIZES:
                config = SweepConfig(seed=seed, trials=TRIALS, max_n=max_n, max_r=max_r,
                                     identities=names, negative=negative)
                for t in range(TRIALS):
                    rng = random.Random(f"{seed}:{t}")
                    yield _random_trial(names[t % len(names)], rng, config)


def digest(seeds: int) -> tuple[str, int]:
    """The SHA-256 hex digest and the number of trials it covers."""
    sha, count = hashlib.sha256(), 0
    for report in trials(seeds):
        out, err = io.StringIO(), io.StringIO()
        code = cli.run(float_argv(report), out, err)
        for text in (cli.emit_report(report, "json"), cli.emit_report(report, "text"),
                     str(code), out.getvalue(), err.getvalue()):
            sha.update(text.encode() + b"\0")
        count += 1
    return sha.hexdigest(), count


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", type=int, default=40, help="seeds 0 .. N-1 (default 40)")
    args = ap.parse_args()
    hexdigest, count = digest(args.seeds)
    print(f"{hexdigest}  {count} trials")
    return 0


if __name__ == "__main__":
    sys.exit(main())
