#!/usr/bin/env python3
"""Rank-agreement experiment: does the model-free Fisher-ratio audit
predict classifier difficulty?

For a grid of gain gaps, generates seeded 3-class sets where one channel
separates the classes by amplitude alone, then compares the ordering of
pairwise Fisher ratios with the ordering of oracle MCC scores (Kendall
tau). Writes one CSV row per (gap, seed, pair).

Usage: python3 scripts/fdr_vs_mcc_sweep.py [--seeds N] [--out CSV]
"""

import argparse
import csv
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np
from kendall import kendall_tau  # scripts/kendall.py

from sensoraudit.features import FeatureConfig, build_class_matrices
from sensoraudit.ingest import segment
from sensoraudit.oracle import OracleConfig, run_oracle_audit
from sensoraudit.separability import pairwise_audit
from sensoraudit.synthetic import (
    ChannelProfile,
    ChannelSpec,
    SyntheticSpec,
    generate_recordings,
)

GAPS = (0.04, 0.08, 0.16, 0.32)


def spec_for(gap: float, seed: int) -> SyntheticSpec:
    gains = {"alpha": 1.0, "beta": 1.0 + gap, "gamma": 1.0 + 5.0 * gap}
    ch0 = ChannelSpec(
        classes={c: ChannelProfile(kind="tonic", gain=g) for c, g in gains.items()}
    )
    return SyntheticSpec(
        class_names=list(gains),
        channel_count=4,
        windows_per_class=80,
        window_len_samples=128,
        trials_per_class=4,
        seed=seed,
        channels=[ch0],
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--out", default="fdr_vs_mcc.csv")
    args = parser.parse_args(argv)

    fcfg = FeatureConfig()
    rows = []
    taus_by_gap: dict[float, list[float]] = {g: [] for g in GAPS}
    for gap in GAPS:
        for seed in range(args.seeds):
            spec = spec_for(gap, seed)
            rset = generate_recordings(spec)
            windows = segment(rset, spec.segmentation())
            matrices = build_class_matrices(windows, fcfg, rset.sampling_rate_hz)
            audit = pairwise_audit(matrices)
            fdr = {(r.target, r.reference): r.raw_fdr for r in audit.results}
            mcc = {
                r.pair: r.mcc
                for r in run_oracle_audit(matrices, OracleConfig(seed=seed))
            }
            pairs = sorted(fdr)
            tau = kendall_tau([fdr[p] for p in pairs], [mcc[p] for p in pairs])
            taus_by_gap[gap].append(tau)
            for pair in pairs:
                rows.append(
                    [gap, seed, f"{pair[0]} vs {pair[1]}", repr(fdr[pair]), repr(mcc[pair]), repr(tau)]
                )
            print(f"gap={gap:.2f} seed={seed}: tau={tau:+.3f}")

    out = Path(args.out)
    with out.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["gain_gap", "seed", "pair", "raw_fdr", "mcc", "kendall_tau"])
        writer.writerows(rows)
    print(f"\nwrote {out}")
    for gap in GAPS:
        print(f"gap {gap:.2f}: mean tau {float(np.mean(taus_by_gap[gap])):+.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
