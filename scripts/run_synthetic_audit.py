#!/usr/bin/env python3
"""End-to-end demo: build a synthetic 3-class recording set with one
informative channel per class, run the full audit via the CLI, and print
the headline numbers from the artifacts.

Usage: python3 scripts/run_synthetic_audit.py [--out DIR] [--seed N]
"""

import argparse
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from sensoraudit.cli import main as cli_main

DEMO_SPEC = {
    "class_names": ["grip", "spread", "pinch"],
    "channel_count": 6,
    "sampling_rate_hz": 200.0,
    "windows_per_class": 80,
    "window_len_samples": 128,
    "overlap_fraction": 0.5,
    "trials_per_class": 4,
    "seed": 0,
    "channels": [
        {"classes": {"grip": {"kind": "tonic", "gain": 2.0, "carrier_hz": 25.0}}},
        {"classes": {"spread": {"kind": "tonic", "gain": 2.0, "carrier_hz": 35.0}}},
        {
            "classes": {
                "pinch": {"kind": "tonic", "gain": 2.0, "carrier_hz": 45.0},
                # hard pair: spread carries a faint copy of pinch's signature
                "spread": {"kind": "tonic", "gain": 1.9, "carrier_hz": 45.0},
            }
        },
        {},
        {},
        {},
    ],
}


def run(out_dir: Path, seed: int) -> int:
    out_dir.mkdir(parents=True, exist_ok=True)
    spec_path = out_dir / "demo_spec.json"
    spec_path.write_text(json.dumps(DEMO_SPEC, indent=2))
    code = cli_main(
        [
            "full",
            "--synthetic",
            str(spec_path),
            "--out",
            str(out_dir),
            "--seed",
            str(seed),
            "--overwrite",
        ]
    )
    if code != 0:
        return code

    summary = json.loads((out_dir / "audit_summary.json").read_text())
    print(f"\nartifacts in {out_dir}\n")
    print("pairwise separability (normalized Fisher ratio) and oracle MCC:")
    mcc = {(r["class_a"], r["class_b"]): r["mcc"] for r in summary["oracle"]}
    for pair in summary["complexity"]["one_vs_one"]["pairs"]:
        key = (pair["target"], pair["reference"])
        print(
            f"  {pair['target']:>7} vs {pair['reference']:<7} "
            f"fdr={pair['normalized_fdr']:.3f}  mcc={mcc[key]:+.3f}"
        )
    print("\nsensor criticality ranking (most critical first):")
    ablation = summary["ablation"]
    for rank, sensor in enumerate(ablation["ranking"], start=1):
        mean = ablation["mean_criticality"][sensor]
        print(f"  {rank}. ch{sensor + 1}  mean normalized criticality {mean:.3f}")
    advice = ablation["advice"]
    print("\nadvice:")
    print(f"  reinforce: {[f'ch{s + 1}' for s in advice['reinforce_critical_components']['sensors']]}")
    print(f"  graceful degradation: {[f'ch{s + 1}' for s in advice['implement_graceful_degradation']['sensors']]}")
    print(f"  removal candidates: {[f'ch{s + 1}' for s in advice['optimise_for_efficiency']['sensors']]}")
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default=None, help="output directory (default: temp dir)")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    out = Path(args.out) if args.out else Path(tempfile.mkdtemp(prefix="sensoraudit_demo_"))
    raise SystemExit(run(out, args.seed))
