"""Spans around the calls ``sensoraudit.cli`` makes into each layer.

``Tracer.install`` replaces the layer functions that ``sensoraudit.cli``
imported with wrappers. Each call records a span (name, start, end,
parent span, run id) and counts taken from the call's arguments and
returned objects. Spans stay in memory until ``finish`` appends them to
the span file. Nothing inside the program is changed.

``layer_table`` turns spans into per-layer totals, self times (span
minus the time its child spans cover) and summed counts.
"""

from __future__ import annotations

import json
import math
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    run_id: str
    start: float
    end: float = math.nan
    counts: dict = field(default_factory=dict)


def _rows(args, kwargs, rset) -> dict:
    return {"rows": sum(r.length for r in rset.recordings), "recordings": len(rset.recordings)}


def _windows(args, kwargs, windows) -> dict:
    return {"windows": len(windows)}


def _channel_windows(args, kwargs, matrices) -> dict:
    ms = list(matrices.values())
    channels = ms[0].n_columns // len(args[1].enabled_features) if ms else 0
    return {"channel_windows": sum(m.n_rows for m in ms) * channels}


def _pairs(args, kwargs, audit) -> dict:
    from sensoraudit.separability import F1_CAP

    return {
        "pairs": len(audit.results),
        "degenerate_dims": sum(len(r.score.degenerate_dims) for r in audit.results),
        "f1_cap_hits": sum(int((r.score.per_dim_fisher >= F1_CAP).sum()) for r in audit.results),
    }


def _cells(args, kwargs, report) -> dict:
    return {"cells": int(report.raw_shift.size)}


def _oracle(args, kwargs, results) -> dict:
    matrices, cfg = args[0], args[1]
    steps = 0
    for r in results:
        n_train = matrices[r.pair[0]].n_rows + matrices[r.pair[1]].n_rows - sum(r.confusion)
        steps += cfg.epochs * math.ceil(n_train / cfg.batch_size)
    return {"pairs": len(results), "train_steps": steps}


def _files(args, kwargs, written) -> dict:
    if written is None:  # write_json returns nothing; its first argument is the path
        written = args[0]
    paths = written if isinstance(written, list) else [written]
    return {"files": len(paths), "bytes": sum(Path(p).stat().st_size for p in paths)}


# attribute of sensoraudit.cli -> (span name, counter)
WRAPPED = {
    "generate_recordings": ("synthetic.generate", _rows),
    "load_dataset": ("ingest.load", _rows),
    "segment": ("ingest.segment", _windows),
    "build_class_matrices": ("features.build", _channel_windows),
    "pairwise_audit": ("separability.audit", _pairs),
    "run_ablation_audit": ("ablation.audit", _cells),
    "run_oracle_audit": ("oracle.audit", _oracle),
    "write_complexity": ("reports.write", _files),
    "write_ablation": ("reports.write", _files),
    "write_oracle": ("reports.write", _files),
    "write_validation": ("reports.write", _files),
    "write_feature_matrices": ("reports.write", _files),
    "write_json": ("reports.write", _files),
}


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self._open: list[Span] = []
        self._features_call = None  # (original function, args, kwargs) of the last feature build

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1].id if self._open else None
        s = Span(len(self.spans), parent, name, self.run_id, time.perf_counter())
        self.spans.append(s)
        self._open.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._open.pop()

    def install(self, cli_module) -> None:
        """Wrap the layer functions ``cli_module`` has; a layer left unwrapped
        has no span, which the caller reports as an error."""
        for attr, (name, counter) in WRAPPED.items():
            if hasattr(cli_module, attr):
                setattr(cli_module, attr, self._wrap(getattr(cli_module, attr), name, counter))

    def _wrap(self, fn, name, counter):
        def traced(*args, **kwargs):
            with self.span(name) as s:
                result = fn(*args, **kwargs)
            s.counts = counter(args, kwargs, result)
            if name == "features.build":
                self._features_call = (fn, args, kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    def time_extractors(self) -> dict[str, float]:
        """Seconds to build the run's matrices with each feature enabled alone."""
        if self._features_call is None:
            return {}
        fn, args, kwargs = self._features_call
        samples, cfg, fs = args[0], args[1], args[2]
        times = {}
        for name in cfg.enabled_features:
            started = time.perf_counter()
            fn(samples, replace(cfg, enabled_features=(name,)), fs, **kwargs)
            times[name] = time.perf_counter() - started
        return times

    def finish(self, spans_file: str) -> list[dict]:
        records = [asdict(s) for s in self.spans]
        with open(spans_file, "a", encoding="utf-8") as fh:
            for record in records:
                fh.write(json.dumps(record) + "\n")
        return records


def _covered(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, -math.inf
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def layer_table(spans: list[dict]) -> dict[str, dict]:
    """Per span name: calls, total seconds, self seconds and summed counts."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    table: dict[str, dict] = {}
    for s in spans:
        row = table.setdefault(s["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0, "counts": {}})
        duration = s["end"] - s["start"]
        row["calls"] += 1
        row["total_s"] += duration
        row["self_s"] += duration - _covered(children.get(s["id"], []))
        for key, value in s["counts"].items():
            row["counts"][key] = row["counts"].get(key, 0) + value
    return table
