"""Benchmark of ``sensoraudit full`` on generated workloads.

Usage, from the repository root::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Workloads are defined in ``workloads.py``. The inputs are written from
``--seed`` in untimed set-up. Then, for ``--seconds``, the benchmark runs
``sensoraudit full`` on them in a fresh process per repetition
(``worker.py``) and checks every repetition's artifacts.

``--trace 0`` prints the end-to-end metrics, each the median over the
repetitions:

* ``audit_s``: wall seconds from the call into ``sensoraudit.cli.main``
  to its return, reference-scaled (below).
* ``channel_windows_per_s``: windows x channels audited per ``audit_s``.
* ``setup_s``: interpreter start plus ``import sensoraudit.cli`` in each
  audit process, reference-scaled.
* ``peak_rss_mb``: peak resident memory (``VmHWM``) of the audit process.

Reference scaling: a shared host's speed drifts by up to 2x within
minutes, and a fixed reference kernel (``machine.py``) drifts with it. So
the kernel is timed just before and just after each repetition, and each
repetition's wall times are multiplied by ``NOMINAL_REFERENCE_MS`` over the
mean of those two kernel times. The kernel is the benchmark's own code, so
a change to the program moves the scaled times exactly as it moves the wall
times. The unscaled medians are printed and stored next to them.

``failed_frac`` (failed / attempted repetitions) is printed with them and
carried by the ``attempted`` and ``failed`` fields of the result line.

``--trace 1`` alternates untraced and traced repetitions. The traced
ones record spans around the layer calls (``tracing.py``) and time each
feature extractor alone. It prints the per-layer metrics (medians over
traced repetitions), a layer table and ``trace.overhead_s``, traced minus
untraced ``audit_s``. Spans go to ``spans.jsonl`` next to the result file.

A repetition fails when the audit exits nonzero or its artifacts fail a
check: the engineered hard pair must have the lowest normalized FDR and
the lowest MCC, every tonic channel must rank above every noise channel,
and the artifact set must be byte-identical across repetitions. The
artifact set's SHA-256, a machine record and a reference-kernel timing
per repetition are printed as information.

``--smoke`` shrinks every workload and adds an untimed check that
``--jobs 2`` reproduces the ``--jobs 1`` artifacts. The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (name -> value and unit). Results go under
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

# A run must end within this many seconds, whatever the machine does.
RUN_LIMIT_S = 170.0

END_TO_END_UNITS = {
    "audit_s": "s",
    "channel_windows_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# layer metric -> (span name, count key or None for self seconds)
_SPAN_METRICS = {
    "synthetic.generate_s": ("synthetic.generate", None),
    "ingest.load_s": ("ingest.load", None),
    "ingest.rows": ("ingest.load", "rows"),
    "ingest.segment_s": ("ingest.segment", None),
    "ingest.windows": ("ingest.segment", "windows"),
    "features.build_s": ("features.build", None),
    "features.channel_windows": ("features.build", "channel_windows"),
    "separability.audit_s": ("separability.audit", None),
    "separability.pairs": ("separability.audit", "pairs"),
    "separability.degenerate_dims": ("separability.audit", "degenerate_dims"),
    "separability.f1_cap_hits": ("separability.audit", "f1_cap_hits"),
    "ablation.audit_s": ("ablation.audit", None),
    "ablation.cells": ("ablation.audit", "cells"),
    "oracle.audit_s": ("oracle.audit", None),
    "oracle.pairs": ("oracle.audit", "pairs"),
    "oracle.train_steps": ("oracle.audit", "train_steps"),
    "reports.write_s": ("reports.write", None),
    "reports.files": ("reports.write", "files"),
    "reports.bytes": ("reports.write", "bytes"),
    "cli.other_s": ("cli.main", None),
}

# (numerator, denominator, scale) for the per-layer ratios
_RATIO_METRICS = {
    "features.us_per_channel_window": ("features.build_s", "features.channel_windows", 1e6),
    "ingest.rows_per_s": ("ingest.rows", "ingest.load_s", 1.0),
    "ablation.us_per_cell": ("ablation.audit_s", "ablation.cells", 1e6),
    "oracle.s_per_pair": ("oracle.audit_s", "oracle.pairs", 1.0),
}

_COMMON_SPANS = (
    "cli.main",
    "ingest.segment",
    "features.build",
    "separability.audit",
    "ablation.audit",
    "oracle.audit",
    "reports.write",
)


_UNITS = {
    "ingest.rows_per_s": "1/s",
    "features.us_per_channel_window": "us",
    "ablation.us_per_cell": "us",
    "reports.bytes": "B",
}


def _unit(name: str) -> str:
    if name in _UNITS:
        return _UNITS[name]
    return "s" if name.endswith("_s") or name == "oracle.s_per_pair" else "count"


def per_layer_names(feature_names) -> list[str]:
    names = list(_SPAN_METRICS) + list(_RATIO_METRICS)
    names += [f"features.{f}_s" for f in feature_names] + ["trace.overhead_s"]
    return names


class Run:
    """One benchmark invocation: inputs, repetitions and their checks."""

    def __init__(self, args, workload):
        from workloads import write_inputs

        self.args = args
        self.workload = workload
        tag = f"{'smoke-' if args.smoke else ''}{workload.name}-seed{args.seed}"
        self.dir = OUT / tag
        self.rel_dir = self.dir.relative_to(ROOT)  # paths given to the program
        shutil.rmtree(self.dir, ignore_errors=True)
        source = write_inputs(workload, args.seed, args.smoke, self.dir / "input")
        self.source = source.relative_to(ROOT)
        self.started = time.monotonic()
        self.reps: list[dict] = []
        self.digest: str | None = None

    def remaining(self) -> float:
        return RUN_LIMIT_S - (time.monotonic() - self.started)

    def spawn(self, mode: str, *extra: str) -> tuple[dict | None, float, str]:
        """Run worker.py; returns its result, spawn time and an error text."""
        cmd = [sys.executable, str(BENCH_DIR / "worker.py"), str(SRC), mode, *extra]
        spawned = time.monotonic()
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, capture_output=True, text=True, timeout=max(self.remaining(), 1.0)
            )
        except subprocess.TimeoutExpired:
            return None, spawned, f"{mode} worker exceeded the {RUN_LIMIT_S:.0f} s run limit"
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            tail = proc.stderr.strip().splitlines()[-5:]
            return None, spawned, f"{mode} worker exited {proc.returncode}: " + " | ".join(tail)
        return json.loads(lines[-1]), spawned, ""

    def warm_up(self) -> None:
        """Import once, untimed: byte-compiles the sources and fills the file cache."""
        result, _, error = self.spawn("probe")
        if result is None:
            raise RuntimeError(error)

    def audit(self, mode: str, jobs: int = 1) -> dict:
        """One ``sensoraudit full`` repetition, checked."""
        from machine import reference_kernel_ms
        from workloads import artifact_digest, check_outputs, cli_args

        out = self.dir / "artifacts"
        shutil.rmtree(out, ignore_errors=True)
        argv = cli_args(
            self.workload, self.source, self.rel_dir / "artifacts", self.args.seed, jobs
        )
        rep = {"mode": mode, "jobs": jobs}
        extra = []
        if mode == "trace":
            extra = [str(self.dir / "spans.jsonl"), f"{self.dir.name}-r{len(self.reps)}"]
        ref_before = reference_kernel_ms()
        result, spawned, error = self.spawn(mode, *extra, "--", *argv)
        rep["reference_kernel_ms"] = (ref_before + reference_kernel_ms()) / 2
        problems = [error] if error else []
        if result is not None:
            rep["setup_s"] = result["ready"] - spawned
            rep.update({k: v for k, v in result.items() if k != "ready"})
            if result["exit_code"] != 0:
                problems.append(f"sensoraudit full exited {result['exit_code']}")
            else:
                problems += check_outputs(self.workload, out)
                digest = artifact_digest(out)
                rep["artifact_sha256"] = digest
                summary = json.loads((out / "audit_summary.json").read_text())
                windows = sum(summary["window_counts"].values())
                rep["channel_windows"] = windows * self.workload.channel_count
                if self.digest is None:
                    self.digest = digest
                elif digest != self.digest:
                    problems.append(f"artifacts differ from the first repetition ({digest[:12]})")
        rep["problems"] = problems
        self.reps.append(rep)
        for p in problems:
            print(f"FAILED repetition {len(self.reps)} ({mode}, jobs {jobs}): {p}", file=sys.stderr)
        return rep

    def traced_pair(self) -> None:
        """An untraced and a traced repetition, alternating which runs first."""
        order = ("audit", "trace") if len(self.reps) % 4 == 0 else ("trace", "audit")
        for mode in order:
            self.audit(mode)

    def measure(self, step) -> None:
        """Repeat ``step`` until another one would overrun ``--seconds``."""
        started = time.monotonic()
        longest = 0.0
        while True:
            t0 = time.monotonic()
            step()
            longest = max(longest, time.monotonic() - t0)
            elapsed = time.monotonic() - started
            if elapsed + longest > self.args.seconds or self.remaining() < 2 * longest:
                break


def _median(values):
    return statistics.median(values) if values else float("nan")


def end_to_end_metrics(run: Run) -> tuple[dict[str, float], dict[str, float]]:
    """The metrics, reference-scaled, and the unscaled wall-time medians."""
    from machine import NOMINAL_REFERENCE_MS

    ok = [r for r in run.reps if not r["problems"]]
    started = [r for r in run.reps if "setup_s" in r]

    def scaled(rep, key):
        return rep[key] * NOMINAL_REFERENCE_MS / rep["reference_kernel_ms"]

    audit_s = _median([scaled(r, "audit_s") for r in ok])
    cw = ok[0]["channel_windows"] if ok else float("nan")
    metrics = {
        "audit_s": audit_s,
        "channel_windows_per_s": cw / audit_s,
        "setup_s": _median([scaled(r, "setup_s") for r in started]),
        "peak_rss_mb": _median([r["peak_rss_mb"] for r in ok]),
    }
    wall = {
        "audit_s": _median([r["audit_s"] for r in ok]),
        "setup_s": _median([r["setup_s"] for r in started]),
    }
    return metrics, wall


def per_layer_metrics(run: Run, feature_names) -> tuple[dict[str, float], dict]:
    """Medians over the traced repetitions, and the median repetition's layer table."""
    from tracing import layer_table

    source_span = "ingest.load" if run.workload.on_disk else "synthetic.generate"
    required = set(_COMMON_SPANS) | {source_span}
    traced = [r for r in run.reps if r["mode"] == "trace" and not r["problems"]]
    per_rep = []
    for rep in traced:
        table = layer_table(rep["spans"])
        missing = sorted(required - set(table))
        if missing:
            raise RuntimeError(f"trace has no span for layer(s) {', '.join(missing)}")
        values = {}
        for metric, (span, count) in _SPAN_METRICS.items():
            row = table.get(span)
            if row is None:
                values[metric] = 0.0
            else:
                values[metric] = row["self_s"] if count is None else row["counts"][count]
        for metric, (num, den, scale) in _RATIO_METRICS.items():
            values[metric] = scale * values[num] / values[den] if values[den] else 0.0
        for name in feature_names:
            values[f"features.{name}_s"] = rep["extractor_s"][name]
        per_rep.append((rep["audit_s"], values, table))
    if not per_rep:
        return {}, {}
    metrics = {m: _median([v[m] for _, v, _ in per_rep]) for m in per_rep[0][1]}
    untraced = _median(
        [r["audit_s"] for r in run.reps if r["mode"] == "audit" and not r["problems"]]
    )
    metrics["trace.overhead_s"] = _median([a for a, _, _ in per_rep]) - untraced
    middle = sorted(per_rep, key=lambda p: p[0])[len(per_rep) // 2]
    return metrics, middle[2]


def print_layer_table(table: dict) -> None:
    main_s = table["cli.main"]["total_s"]
    print(f"  {'layer':<20}{'calls':>6}{'total_s':>10}{'self_s':>10}{'share':>8}  counts")
    for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
        counts = ", ".join(f"{k}={v}" for k, v in row["counts"].items())
        print(
            f"  {name:<20}{row['calls']:>6}{row['total_s']:>10.4f}{row['self_s']:>10.4f}"
            f"{100 * row['self_s'] / main_s:>7.1f}%  {counts}"
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, plus the --jobs 2 check")
    args = parser.parse_args(argv)

    if not (SRC / "sensoraudit" / "cli.py").is_file():
        print(f"error: no sensoraudit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from machine import machine_record
    from sensoraudit.features import FEATURE_NAMES
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    run = Run(args, WORKLOADS[args.workload])
    machine = machine_record(ROOT)
    try:
        run.warm_up()
        if args.trace:
            run.measure(run.traced_pair)
            metrics, table = per_layer_metrics(run, FEATURE_NAMES)
            wall = {}
            names = per_layer_names(FEATURE_NAMES)
        else:
            run.measure(lambda: run.audit("audit"))
            (metrics, wall), table = end_to_end_metrics(run), {}
            names = list(END_TO_END_UNITS)
        if args.smoke:  # fails like any repetition whose artifacts differ
            run.audit("audit", jobs=2)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    attempted = len(run.reps)
    failed = sum(1 for r in run.reps if r["problems"])
    correct = failed == 0 and set(names) <= set(metrics)
    units = END_TO_END_UNITS if not args.trace else {n: _unit(n) for n in names}
    reported = {n: {"value": metrics.get(n, float("nan")), "unit": units[n]} for n in names}
    refs = [r["reference_kernel_ms"] for r in run.reps]

    print(f"workload {run.workload.name}  seed {args.seed}  trace {args.trace}"
          f"{'  smoke' if args.smoke else ''}  repetitions {attempted}")
    print(f"machine: {json.dumps(machine)}")
    print(f"reference kernel: median {_median(refs):.3f} ms, "
          f"range {min(refs):.3f}-{max(refs):.3f} ms")
    if wall:
        print("unscaled wall medians: "
              + ", ".join(f"{name} {value:.4f} s" for name, value in wall.items()))
    if table:
        print_layer_table(table)
    for name, m in reported.items():
        print(f"  {name:<34}{m['value']:>16.6g} {m['unit']}")
    print(f"  {'failed_frac':<34}{failed / attempted:>16.6g} 1  ({failed}/{attempted})")
    print(f"artifact set sha256: {run.digest}")

    record = {
        "workload": run.workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "machine": machine,
        "artifact_sha256": run.digest, "metrics": reported, "layer_table": table,
        "failed_frac": failed / attempted, "unscaled_wall_medians": wall,
        "repetitions": [{k: v for k, v in r.items() if k != "spans"} for r in run.reps],
    }
    (run.dir / f"result-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    shutil.rmtree(run.dir / "artifacts", ignore_errors=True)
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": reported}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
