#!/usr/bin/env python3
"""Cost of sample entropy per channel-window, split into its two passes.

For each window length W, times ``features.sample_entropy`` on one
gather slice: ``BLOCK_SAMPLES // W`` rows of a noisy sine, passing it
work arrays allocated once (``work=``), as a feature build calls it.
The bitset pass is timed inside the call; the preparation pass is the
rest of the call (scaling, tolerances, sorting, run bounds and the
prepared table rows). Prints microseconds per channel-window for each
pass and the minor page faults (``ru_minflt``) each pass took over all
repeats. Medians over the repeats.

Usage: python3 scripts/sampen_cost.py [--widths 128,400,1000] [--repeats N] [--m M]
"""

import argparse
import resource
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from sensoraudit import features, sampen


def _minflt() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def measure(w: int, repeats: int, m: int = 2, r_coeff: float = 0.2) -> dict:
    """Per-channel-window seconds and total minor faults of each pass at window length w."""
    rows = max(1, features.BLOCK_SAMPLES // w)
    rng = np.random.default_rng(w)
    t = np.arange(w)
    x = np.sin(2 * np.pi * t / 37.0) + 0.5 * rng.normal(size=(rows, w))
    work = sampen.Work(rows, w, m, features.SAMPEN_TABLE_BYTES)
    bitsets = sampen.bitsets
    spent = {"bitset_s": 0.0, "bitset_faults": 0}

    def timed_bitsets(*args):
        faults, started = _minflt(), time.perf_counter()
        out = bitsets(*args)
        spent["bitset_s"] += time.perf_counter() - started
        spent["bitset_faults"] += _minflt() - faults
        return out

    sampen.bitsets = timed_bitsets
    try:
        features.sample_entropy(x, m, r_coeff, work=work)  # warm-up
        # filled in place: growing a list can fault in a heap page that
        # would be counted as the preparation pass's
        prep, bitset, faults = [0.0] * repeats, [0.0] * repeats, {"prep": 0, "bitset": 0}
        for i in range(repeats):
            spent.update(bitset_s=0.0, bitset_faults=0)
            before, started = _minflt(), time.perf_counter()
            features.sample_entropy(x, m, r_coeff, work=work)
            total = time.perf_counter() - started
            faults["prep"] += _minflt() - before - spent["bitset_faults"]
            faults["bitset"] += spent["bitset_faults"]
            prep[i] = (total - spent["bitset_s"]) / rows
            bitset[i] = spent["bitset_s"] / rows
    finally:
        sampen.bitsets = bitsets
    return {
        "w": w,
        "rows": rows,
        "prep_s": statistics.median(prep),
        "bitset_s": statistics.median(bitset),
        "prep_minflt": faults["prep"],
        "bitset_minflt": faults["bitset"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--widths", default="128,400,1000", help="comma-separated window lengths")
    parser.add_argument("--repeats", type=int, default=50)
    parser.add_argument("--m", type=int, default=2, help="template length")
    args = parser.parse_args(argv)
    print(f"{'W':>6} {'rows':>5} {'prep us':>9} {'bitset us':>10} {'total us':>9} {'prep minflt':>12} {'bitset minflt':>14}")
    for w in (int(v) for v in args.widths.split(",")):
        cost = measure(w, args.repeats, args.m)
        prep_us, bitset_us = cost["prep_s"] * 1e6, cost["bitset_s"] * 1e6
        print(
            f"{w:>6} {cost['rows']:>5} {prep_us:>9.1f} {bitset_us:>10.1f} {prep_us + bitset_us:>9.1f}"
            f" {cost['prep_minflt']:>12} {cost['bitset_minflt']:>14}"
        )
    print(f"us per channel-window; minor faults over {args.repeats} repeats after a warm-up")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
