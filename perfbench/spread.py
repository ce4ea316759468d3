"""Run-to-run spread of the end-to-end metrics, and the baseline record.

Usage, from the repository root::

    python3 perfbench/spread.py [--workloads a,b] [--seeds 10] [--baseline]

Runs ``run.py --trace 0`` once per seed (1..N) for each workload, seeds in
the outer loop, for ``run_seconds`` from ``BENCHMARK.json``. For every
end-to-end metric it prints the median, the quartiles of
``statistics.quantiles(values, n=4)`` and the spread (Q3 - Q1) / median
next to the metric's bound. With ``--baseline`` it adds one ``--trace 1``
run per workload and writes the lot to ``perfbench/baseline.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [
        sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd[1:])} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{' '.join(cmd[1:])} was not correct:\n{proc.stderr}")
    return result


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--baseline", action="store_true")
    args = parser.parse_args()
    workloads = args.workloads.split(",")
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    samples: dict[str, dict[str, list[float]]] = {w: {m: [] for m in bounds} for w in workloads}
    for seed in range(1, args.seeds + 1):
        for w in workloads:
            started = time.monotonic()
            result = run_once(w, seed, seconds, trace=0)
            for m in bounds:
                samples[w][m].append(result["metrics"][m]["value"])
            print(f"{w} seed {seed}: {time.monotonic() - started:.1f} s wall, audit_s "
                  f"{result['metrics']['audit_s']['value']:.4f}", file=sys.stderr)

    record = {"run_seconds": seconds, "seeds": args.seeds, "end_to_end": {}, "layer_tables": {}}
    for w in workloads:
        print(f"{w}:")
        record["end_to_end"][w] = {}
        for m, bound in bounds.items():
            s = summarize(samples[w][m])
            record["end_to_end"][w][m] = s
            if s["spread"] < bound / 3:
                verdict = "ok"
            else:
                verdict = "within bound" if s["spread"] <= bound else "TOO WIDE"
            print(f"  {m:<24} median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  "
                  f"spread {s['spread']:.4f} (bound {bound}) {verdict}")

    if args.baseline:
        for w in workloads:
            result = run_once(w, 1, seconds, trace=1)
            traced_path = BENCH_DIR / "out" / f"{w}-seed1" / "result-trace1.json"
            traced = json.loads(traced_path.read_text())
            record["layer_tables"][w] = {
                "metrics": {n: m["value"] for n, m in result["metrics"].items()},
                "table": traced["layer_table"],
            }
        record["machine"] = traced["machine"]
        (BENCH_DIR / "baseline.json").write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
