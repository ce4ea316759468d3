#!/usr/bin/env python3
"""Pass counts of the benchmark's output checks over fixed seed lists.

For each perfbench workload (``perfbench/workloads.py``), at timed and
smoke sizes, and for each seed, writes the workload's inputs
(``write_inputs``), runs ``sensoraudit full`` in-process on them
(``cli.main(cli_args(...))``) into a temporary directory, and applies
``check_outputs`` to the artifacts. Prints, per workload and size, how
many seeds pass each of its three rules:

* ``fdr``: the hard pair has the lowest normalized FDR;
* ``mcc``: the hard pair's MCC is at or below the other pairs' median;
* ``tonic``: every tonic channel ranks above every noise channel;

then one line per failed rule with its seed and message. A run that exits
nonzero, or whose artifacts fail a check outside these rules, fails all
three.

The seed lists are fixed here so that counts taken before and after a
ranking change compare. ``dev`` is seeds 0-32, 900 and 907; ``held-out``
is seeds 3000-3059, and a ranking change is not tuned on it: it is run to
confirm a change built on ``dev``. The script writes only to its
temporary directory and reads ``perfbench/`` without changing it.

Usage: python3 scripts/ranking_scorecard.py [--set dev|held-out] [--sizes timed,smoke]
"""

import argparse
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # perfbench/workloads.py

from sensoraudit import cli

SEED_SETS = {
    "dev": (*range(33), 900, 907),
    "held-out": tuple(range(3000, 3060)),
}
SIZES = ("timed", "smoke")
# rule -> a phrase only that rule's problems contain (see check_outputs)
RULES = {
    "fdr": "normalized_fdr",
    "mcc": " mcc ",
    "tonic": "a noise channel ranks above a tonic channel",
}


def failed_rules(workload, seed: int, smoke: bool, work: Path) -> dict[str, str]:
    """Rule -> problem for each rule that one audit fails."""
    source = workloads.write_inputs(workload, seed, smoke, work / "inputs")
    out = work / "out"
    code = cli.main(workloads.cli_args(workload, source, out, seed, jobs=1))
    problems = [f"exit {code}"] if code else workloads.check_outputs(workload, out)
    failed = {}
    for problem in problems:
        rules = [r for r, phrase in RULES.items() if phrase in problem] or list(RULES)
        for rule in rules:
            failed.setdefault(rule, problem)
    return failed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--set", choices=SEED_SETS, default="dev", help="fixed seed list")
    parser.add_argument("--sizes", default=",".join(SIZES), help="timed, smoke or both")
    args = parser.parse_args(argv)
    seeds = SEED_SETS[args.set]
    sizes = args.sizes.split(",")
    if not set(sizes) <= set(SIZES):
        parser.error(f"--sizes takes {' and '.join(SIZES)}, got {args.sizes!r}")

    print(f"seeds: {args.set} ({len(seeds)})")
    print(f"{'workload':<14}{'size':<7}{'runs':>5}" + "".join(f"{r:>7}" for r in RULES))
    failures = []
    for name, workload in workloads.WORKLOADS.items():
        for size in sizes:
            passed = dict.fromkeys(RULES, 0)
            for seed in seeds:
                with tempfile.TemporaryDirectory(prefix="scorecard-") as work:
                    failed = failed_rules(workload, seed, size == "smoke", Path(work))
                for rule in RULES:
                    passed[rule] += rule not in failed
                failures += [f"{name} {size} seed {seed} {r}: {p}" for r, p in failed.items()]
            print(f"{name:<14}{size:<7}{len(seeds):>5}" + "".join(f"{passed[r]:>7}" for r in RULES))
    print(f"failed rules: {len(failures)}")
    for line in failures:
        print(f"  {line}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
