"""Artifact writers: CSV (comma, dot decimal, LF) and UTF-8 JSON.

``ARTIFACTS`` names every file an audit writes, by the group that owns
it; the writers and the CLI's overwrite check both take their names from
it. The writers themselves write file by file: the CLI runs them into a
staging directory and moves the finished set into place, so a failed run
leaves the output directory as it was. Floats are serialized with repr
(shortest round-trip), which keeps reruns byte-identical.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from .ablation import AblationReport
from .errors import InvalidSpecError, OutputExistsError
from .features import FeatureMatrix, column_labels
from .ingest import MANIFEST_NAME, RecordingSet, is_safe_label
from .oracle import OracleResult
from .separability import PairwiseAudit


# Artifact file names by group. The ablation group also writes one
# criticality_name(label) per class.
ARTIFACTS = {
    "complexity": ("complexity.csv", "complexity.json", "complexity_plotdata.csv"),
    "ablation": ("ablation.json", "ablation.csv", "ranking.csv", "neighbour_compensation.csv"),
    "oracle": ("oracle.csv", "oracle.json", "validation.csv"),
    "features": ("features.csv", "columns.json"),
    "summary": ("audit_summary.json",),
}


def criticality_name(label: str) -> str:
    if not is_safe_label(label):
        raise InvalidSpecError(f"class name {label!r} cannot be part of a file name")
    return f"criticality_{label}.csv"


def artifact_names(groups, classes=()) -> list[str]:
    """Every file the ``groups`` write; ``classes`` are the ablation's."""
    names = [name for group in groups for name in ARTIFACTS[group]]
    if "ablation" in groups:
        names += [criticality_name(label) for label in classes]
    return names


def ensure_writable(paths: list[Path], overwrite: bool) -> None:
    if overwrite:
        return
    existing = [p for p in paths if p.exists()]
    if existing:
        raise OutputExistsError(
            f"refusing to overwrite {existing[0]} (pass --overwrite to allow)"
        )


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (np.floating,)):
        return repr(float(value))
    return str(value)


def write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, ensure_ascii=False) + "\n", encoding="utf-8")


def subset_label(subset: tuple[int, ...]) -> str:
    return "+".join(str(s) for s in subset)


def channel_name(sensor: int) -> str:
    return f"ch{sensor + 1}"


# -- complexity (stage 1) ----------------------------------------------------

def complexity_rows(audit: PairwiseAudit) -> list[list]:
    rows = []
    for r in audit.results:
        s = r.score
        rows.append(
            [r.target, r.reference, s.f1, s.f1_argmax, s.f2, s.f3, s.f3_argmax, r.normalized_fdr]
        )
    return rows


def complexity_payload(audit: PairwiseAudit, columns: list[str]) -> dict:
    pairs = []
    for r in audit.results:
        s = r.score
        pairs.append(
            {
                "target": r.target,
                "reference": r.reference,
                "f1": float(s.f1),
                "f1_argmax_column": int(s.f1_argmax),
                "f2": float(s.f2),
                "f3": float(s.f3),
                "f3_argmax_column": int(s.f3_argmax),
                "normalized_fdr": float(r.normalized_fdr),
                "per_dimension": {
                    "fisher": [float(v) for v in s.per_dim_fisher],
                    "overlap": [float(v) for v in s.per_dim_overlap],
                    "range": [float(v) for v in s.per_dim_range],
                },
                "degenerate_dims": list(s.degenerate_dims),
            }
        )
    return {"mode": audit.mode, "columns": columns, "pairs": pairs}


def write_complexity(
    out_dir: Path,
    one_vs_one: PairwiseAudit,
    one_vs_rest: PairwiseAudit,
    columns: list[str],
    config_echo: dict,
) -> list[Path]:
    csv_path, json_path, plot_path = (out_dir / n for n in ARTIFACTS["complexity"])
    header = [
        "target",
        "reference",
        "f1",
        "f1_argmax_column",
        "f2",
        "f3",
        "f3_argmax_column",
        "normalized_fdr",
    ]
    write_csv(csv_path, header, complexity_rows(one_vs_one))
    write_json(
        json_path,
        {
            "config": config_echo,
            "one_vs_one": complexity_payload(one_vs_one, columns),
            "one_vs_rest": complexity_payload(one_vs_rest, columns),
        },
    )
    write_csv(
        plot_path,
        ["pair", "normalized_fdr"],
        [[f"{r.target} vs {r.reference}", r.normalized_fdr] for r in one_vs_one.results],
    )
    return [csv_path, json_path, plot_path]


# -- ablation (stage 2) ------------------------------------------------------

def _advice(report: AblationReport) -> dict:
    crit = report.criticality_threshold
    critical_for: dict[int, list[str]] = {}
    for ci, label in enumerate(report.classes):
        for sensor in range(report.channel_count):
            value = report.normalized_criticality[ci, sensor]
            if np.isfinite(value) and value >= crit:
                critical_for.setdefault(sensor, []).append(label)
    always_redundant = [
        sensor
        for sensor in range(report.channel_count)
        if all(sensor in report.redundancy_notes[label] for label in report.classes)
    ]
    uncompensated = sorted(
        {n.sensor for n in report.compensation if n.verdict == "uncompensated"}
    )
    return {
        "reinforce_critical_components": {
            "sensors": sorted(critical_for),
            "detail": {
                channel_name(s): classes for s, classes in sorted(critical_for.items())
            },
            "note": (
                "These positions drive at least one class; give them robust "
                "mounting and monitor their signal integrity."
            ),
        },
        "implement_graceful_degradation": {
            "sensors": uncompensated,
            "detail": {
                channel_name(n.sensor): {
                    "class": n.class_label,
                    "neighbours": [channel_name(x) for x in n.neighbours],
                    "neighbour_criticality": [float(v) for v in n.neighbour_criticality],
                }
                for n in report.compensation
                if n.verdict == "uncompensated"
            },
            "note": (
                "Ring neighbours cannot stand in for these sensors; on failure, "
                "flag the affected classes as unreliable instead of failing whole."
            ),
        },
        "optimise_for_efficiency": {
            "sensors": always_redundant,
            "note": (
                "Consistently low criticality across all classes; candidates for "
                "removal in a slimmer design."
            ),
        },
    }


def ablation_payload(report: AblationReport, config_echo: dict) -> dict:
    def cell(v: float) -> float | None:
        return float(v) if np.isfinite(v) else None

    return {
        "config": config_echo,
        "shift_metric": report.shift_metric,
        "classes": list(report.classes),
        "channel_count": report.channel_count,
        "subsets": [list(s) for s in report.subsets],
        "raw_shift": {
            label: [float(v) for v in report.raw_shift[ci]]
            for ci, label in enumerate(report.classes)
        },
        "normalized_criticality": {
            label: [cell(v) for v in report.normalized_criticality[ci]]
            for ci, label in enumerate(report.classes)
        },
        "mean_criticality": [cell(v) for v in report.mean_criticality],
        "ranking": list(report.ranking),
        "ring_topology": list(report.ring_topology),
        "criticality_threshold": float(report.criticality_threshold),
        "redundancy_threshold": float(report.redundancy_threshold),
        "redundancy_notes": {
            label: list(sensors) for label, sensors in report.redundancy_notes.items()
        },
        "neighbour_compensation": [
            {
                "class": n.class_label,
                "sensor": n.sensor,
                "criticality": float(n.criticality),
                "neighbours": list(n.neighbours),
                "neighbour_criticality": [float(v) for v in n.neighbour_criticality],
                "verdict": n.verdict,
            }
            for n in report.compensation
        ],
        "advice": _advice(report),
    }


def write_ablation(out_dir: Path, report: AblationReport, config_echo: dict) -> list[Path]:
    plot_paths = [out_dir / criticality_name(label) for label in report.classes]
    json_path, csv_path, ranking_path, comp_path = (out_dir / n for n in ARTIFACTS["ablation"])
    write_json(json_path, ablation_payload(report, config_echo))

    rows = []
    for ci, label in enumerate(report.classes):
        for j, subset in enumerate(report.subsets):
            normalized = ""
            if len(subset) == 1:
                value = report.normalized_criticality[ci, subset[0]]
                if np.isfinite(value):
                    normalized = float(value)
            rows.append(
                [label, subset_label(subset), report.shift_metric, report.raw_shift[ci, j], normalized]
            )
    write_csv(csv_path, ["class", "subset", "shift_metric", "raw_shift", "normalized"], rows)

    write_csv(
        ranking_path,
        ["rank", "sensor", "channel", "mean_normalized_criticality"],
        [
            [rank + 1, sensor, channel_name(sensor), float(report.mean_criticality[sensor])]
            for rank, sensor in enumerate(report.ranking)
        ],
    )

    write_csv(
        comp_path,
        [
            "class",
            "sensor",
            "criticality",
            "left_neighbour",
            "left_criticality",
            "right_neighbour",
            "right_criticality",
            "verdict",
        ],
        [
            [
                n.class_label,
                n.sensor,
                n.criticality,
                n.neighbours[0],
                n.neighbour_criticality[0],
                n.neighbours[1],
                n.neighbour_criticality[1],
                n.verdict,
            ]
            for n in report.compensation
        ],
    )

    for ci, plot_path in enumerate(plot_paths):
        write_csv(
            plot_path,
            ["sensor", "channel", "normalized_criticality"],
            [
                [s, channel_name(s), float(report.normalized_criticality[ci, s])]
                for s in range(report.channel_count)
                if np.isfinite(report.normalized_criticality[ci, s])
            ],
        )
    return [json_path, csv_path, ranking_path, comp_path, *plot_paths]


# -- oracle ------------------------------------------------------------------

def write_oracle(
    out_dir: Path, results: list[OracleResult], config_echo: dict
) -> list[Path]:
    csv_path, json_path = (out_dir / n for n in ARTIFACTS["oracle"][:2])
    rows = []
    for r in results:
        tp, tn, fp, fn = r.confusion
        rows.append([r.pair[0], r.pair[1], r.mcc, r.accuracy, tp, tn, fp, fn, r.seed])
    write_csv(
        csv_path,
        ["class_a", "class_b", "mcc", "accuracy", "tp", "tn", "fp", "fn", "seed"],
        rows,
    )
    write_json(json_path, {"config": config_echo, "results": oracle_payload(results)})
    return [csv_path, json_path]


def oracle_payload(results: list[OracleResult]) -> list[dict]:
    return [
        {
            "class_a": r.pair[0],
            "class_b": r.pair[1],
            "mcc": float(r.mcc),
            "accuracy": float(r.accuracy),
            "confusion": {
                "tp": r.confusion[0],
                "tn": r.confusion[1],
                "fp": r.confusion[2],
                "fn": r.confusion[3],
            },
            "seed": r.seed,
        }
        for r in results
    ]


def write_validation(
    out_dir: Path, audit: PairwiseAudit, results: list[OracleResult]
) -> Path:
    """Join each pair's normalized Fisher ratio with its oracle MCC."""
    path = out_dir / ARTIFACTS["oracle"][2]
    fdr = {(r.target, r.reference): r.normalized_fdr for r in audit.results}
    rows = [
        [r.pair[0], r.pair[1], fdr[(r.pair[0], r.pair[1])], r.mcc] for r in results
    ]
    write_csv(path, ["class_a", "class_b", "normalized_fdr", "mcc"], rows)
    return path


def kendall_tau(a, b):
    """Tau-b with tie correction; 0.0 when either list is fully tied."""
    n = len(a)
    concordant = discordant = 0
    ties_a = ties_b = 0
    for i in range(n):
        for j in range(i + 1, n):
            da = a[i] - a[j]
            db = b[i] - b[j]
            if da == 0 and db == 0:
                ties_a += 1
                ties_b += 1
            elif da == 0:
                ties_a += 1
            elif db == 0:
                ties_b += 1
            elif (da > 0) == (db > 0):
                concordant += 1
            else:
                discordant += 1
    total = n * (n - 1) / 2
    denom = math.sqrt((total - ties_a) * (total - ties_b))
    if denom == 0.0:
        return 0.0
    return (concordant - discordant) / denom


# -- feature matrices --------------------------------------------------------

def write_feature_matrices(
    out_dir: Path, matrices: dict[str, FeatureMatrix]
) -> list[Path]:
    csv_path, json_path = (out_dir / n for n in ARTIFACTS["features"])
    labels = sorted(matrices)
    columns = column_labels(matrices[labels[0]].column_index)
    rows = []
    for label in labels:
        m = matrices[label]
        for i, (trial, start) in enumerate(m.row_provenance):
            rows.append([label, trial, start, *[float(v) for v in m.values[i]]])
    write_csv(csv_path, ["class", "trial", "start", *columns], rows)
    write_json(
        json_path,
        {
            "columns": [
                {"column": name, "channel": ch, "feature": feat}
                for name, (ch, feat) in zip(
                    columns, matrices[labels[0]].column_index
                )
            ]
        },
    )
    return [csv_path, json_path]


# -- datasets ----------------------------------------------------------------

def write_dataset(root: Path, rset: RecordingSet) -> list[Path]:
    """Write a RecordingSet in the on-disk CSV layout plus manifest."""
    paths = []
    manifest_path = root / MANIFEST_NAME
    write_json(
        manifest_path,
        {
            "sampling_rate_hz": rset.sampling_rate_hz,
            "class_names": list(rset.class_names),
            "channel_count": rset.channel_count,
        },
    )
    paths.append(manifest_path)
    for rec in rset.recordings:
        participant = rec.participant_id or "p00"
        session = rec.session_id or "s00"
        path = root / participant / session / f"{rec.class_label}_{rec.trial_id}.csv"
        header = ["t", *[channel_name(c) for c in range(rec.channel_count)]]
        rows = [[t, *[float(v) for v in rec.samples[:, t]]] for t in range(rec.length)]
        write_csv(path, header, rows)
        paths.append(path)
    return paths
