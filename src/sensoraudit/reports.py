"""Artifact writers: CSV (comma, dot decimal, LF) and UTF-8 JSON.

``ARTIFACTS`` names every file an audit writes, by the group that owns
it; the writers and the CLI's overwrite check both take their names from
it. Each group's writer takes the group's payload, which the CLI builds
once and also puts in the summary; ``json_text`` encodes it once for both
files. The writers write file by file: the
CLI runs them into a staging directory and moves the finished set into
place, so a failed run leaves the output directory as it was. Floats are
serialized with repr (shortest round-trip), which keeps reruns
byte-identical.
"""

from __future__ import annotations

import csv
import itertools
import json
from pathlib import Path

import numpy as np

from .ablation import SHIFT_METRIC, AblationReport
from .errors import ConfigError, InvalidSpecError, OutputExistsError
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


def ensure_writable(out: Path, names: list[str], overwrite: bool) -> None:
    """Refuse an ``out`` whose nearest existing path (itself or a parent) is
    not a directory, one where any of the files ``names`` exists as
    something other than a regular file, and, without ``overwrite``, one
    that holds any of them."""
    nearest = next(p for p in (out, *out.parents) if p.exists())
    if not nearest.is_dir():
        raise ConfigError(f"--out {out}: {nearest} is not a directory")
    existing = [out / n for n in names if (out / n).exists()]
    for path in existing:
        if not path.is_file():  # a file cannot replace it, so the set would be left half written
            raise OutputExistsError(f"refusing to replace {path}: it is not a regular file")
    if existing and not overwrite:
        raise OutputExistsError(
            f"refusing to overwrite {existing[0]} (pass --overwrite to allow)"
        )


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):  # np.float64's own repr wraps the number
        return repr(float(value))
    return str(value)


def write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        # csv.writer formats str, int and float cells as _fmt does
        if not {str, int, float}.issuperset(map(type, itertools.chain.from_iterable(rows))):
            rows = ([_fmt(v) for v in row] for row in rows)
        writer.writerows(rows)


def json_text(value, texts: dict | None = None, depth: int = 0) -> str:
    """``json.dumps(value, indent=2, ensure_ascii=False)``, as it reads
    nested ``depth`` levels deep.

    A nonempty dict with string keys is encoded member by member; any other
    value is encoded once per ``texts``. Its text is kept there by ``id``,
    next to the value so that the id stays its own, and wherever the same
    object recurs the text is spliced in with every line after the first
    indented to its depth. That is exact, because JSON text has no raw
    newline inside a string. The CLI shares one ``texts`` between the stage
    files and the summary, so each payload is encoded once.
    """
    if texts is None:
        texts = {}
    if isinstance(value, dict) and value and all(isinstance(key, str) for key in value):
        pad = "\n" + "  " * (depth + 1)
        members = (
            f"{json.dumps(key, ensure_ascii=False)}: {json_text(member, texts, depth + 1)}"
            for key, member in value.items()
        )
        return "{" + pad + ("," + pad).join(members) + pad[:-2] + "}"
    if id(value) not in texts:
        texts[id(value)] = (value, json.dumps(value, indent=2, ensure_ascii=False))
    text = texts[id(value)][1]
    return text.replace("\n", "\n" + "  " * depth) if depth else text


def write_json(path: Path, payload: dict, texts: dict | None = None) -> None:
    """Write ``json_text(payload, texts)`` and a newline."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json_text(payload, texts) + "\n", encoding="utf-8")


def subset_label(subset: tuple[int, ...]) -> str:
    return "+".join(str(s) for s in subset)


def channel_name(sensor: int) -> str:
    return f"ch{sensor + 1}"


# -- complexity (stage 1) ----------------------------------------------------

# complexity.csv: one one-vs-one pair record per row, these keys as columns
COMPLEXITY_COLUMNS = (
    "target", "reference", "f1", "f1_argmax_column", "f2", "f3", "f3_argmax_column", "normalized_fdr"
)


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
                    "fisher": s.per_dim_fisher.tolist(),
                    "overlap": s.per_dim_overlap.tolist(),
                    "range": s.per_dim_range.tolist(),
                },
                "degenerate_dims": list(s.degenerate_dims),
            }
        )
    return {"mode": audit.mode, "columns": columns, "pairs": pairs}


def write_complexity(
    out_dir: Path, payload: dict, config_echo: dict, texts: dict | None = None
) -> list[Path]:
    """``payload`` maps "one_vs_one" and "one_vs_rest" to their ``complexity_payload``."""
    csv_path, json_path, plot_path = (out_dir / n for n in ARTIFACTS["complexity"])
    pairs = payload["one_vs_one"]["pairs"]
    write_csv(csv_path, list(COMPLEXITY_COLUMNS), [[p[c] for c in COMPLEXITY_COLUMNS] for p in pairs])
    write_json(json_path, {"config": config_echo, **payload}, texts)
    write_csv(
        plot_path,
        ["pair", "normalized_fdr"],
        [[f"{p['target']} vs {p['reference']}", p["normalized_fdr"]] for p in pairs],
    )
    return [csv_path, json_path, plot_path]


# -- ablation (stage 2) ------------------------------------------------------

def _advice(report: AblationReport) -> dict:
    crit = report.criticality_threshold
    critical_for: dict[int, list[str]] = {}
    for ci, label in enumerate(report.classes):
        for sensor in range(report.channel_count):
            if report.normalized_criticality[ci, sensor] >= crit:
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
                    "neighbour_criticality": list(n.neighbour_criticality),
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
    return {
        "config": config_echo,
        "shift_metric": SHIFT_METRIC,
        "classes": list(report.classes),
        "channel_count": report.channel_count,
        "subsets": [list(s) for s in report.subsets],
        "raw_shift": dict(zip(report.classes, report.raw_shift.tolist())),
        "normalized_criticality": dict(zip(report.classes, report.normalized_criticality.tolist())),
        "mean_criticality": report.mean_criticality.tolist(),
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
                "neighbour_criticality": list(n.neighbour_criticality),
                "verdict": n.verdict,
            }
            for n in report.compensation
        ],
        "advice": _advice(report),
    }


def write_ablation(out_dir: Path, payload: dict, texts: dict | None = None) -> list[Path]:
    """Write the ablation group from its ``ablation_payload``."""
    classes = payload["classes"]
    normalized = payload["normalized_criticality"]
    plot_paths = [out_dir / criticality_name(label) for label in classes]
    json_path, csv_path, ranking_path, comp_path = (out_dir / n for n in ARTIFACTS["ablation"])
    write_json(json_path, payload, texts)

    rows = []
    for label in classes:
        for subset, shift in zip(payload["subsets"], payload["raw_shift"][label]):
            single = normalized[label][subset[0]] if len(subset) == 1 else ""
            rows.append([label, subset_label(subset), SHIFT_METRIC, shift, single])
    write_csv(csv_path, ["class", "subset", "shift_metric", "raw_shift", "normalized"], rows)

    write_csv(
        ranking_path,
        ["rank", "sensor", "channel", "mean_normalized_criticality"],
        [
            [rank + 1, sensor, channel_name(sensor), payload["mean_criticality"][sensor]]
            for rank, sensor in enumerate(payload["ranking"])
        ],
    )

    comp_rows = []
    for n in payload["neighbour_compensation"]:
        # a one-sensor ring has no neighbours: their cells stay empty
        left, right = list(zip(n["neighbours"], n["neighbour_criticality"])) or [("", "")] * 2
        comp_rows.append([n["class"], n["sensor"], n["criticality"], *left, *right, n["verdict"]])
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
        comp_rows,
    )

    for label, plot_path in zip(classes, plot_paths):
        write_csv(
            plot_path,
            ["sensor", "channel", "normalized_criticality"],
            [[s, channel_name(s), v] for s, v in enumerate(normalized[label])],
        )
    return [json_path, csv_path, ranking_path, comp_path, *plot_paths]


# -- oracle ------------------------------------------------------------------

# oracle.csv: one oracle_payload record per row; tp..fn come from its confusion
ORACLE_COLUMNS = ("class_a", "class_b", "mcc", "accuracy", "tp", "tn", "fp", "fn", "seed")


def oracle_payload(results: list[OracleResult]) -> list[dict]:
    return [
        {
            "class_a": r.pair[0],
            "class_b": r.pair[1],
            "mcc": float(r.mcc),
            "accuracy": float(r.accuracy),
            "confusion": dict(zip(("tp", "tn", "fp", "fn"), r.confusion)),
            "seed": r.seed,
        }
        for r in results
    ]


def write_oracle(
    out_dir: Path, payload: list[dict], config_echo: dict, texts: dict | None = None
) -> list[Path]:
    """Write oracle.csv and oracle.json from the ``oracle_payload`` records."""
    csv_path, json_path = (out_dir / n for n in ARTIFACTS["oracle"][:2])
    rows = [[{**r, **r["confusion"]}[c] for c in ORACLE_COLUMNS] for r in payload]
    write_csv(csv_path, list(ORACLE_COLUMNS), rows)
    write_json(json_path, {"config": config_echo, "results": payload}, texts)
    return [csv_path, json_path]


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
        for (trial, start), values in zip(m.row_provenance, m.values.tolist()):
            rows.append([label, trial, start, *values])
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

def dataset_names(rset: RecordingSet) -> list[str]:
    """The files ``write_dataset`` writes, relative to its root: the
    manifest, then each recording's CSV."""
    return [MANIFEST_NAME] + [
        f"{rec.participant_id or 'p00'}/{rec.session_id or 's00'}/{rec.class_label}_{rec.trial_id}.csv"
        for rec in rset.recordings
    ]


def ensure_dataset_writable(root: Path, rset: RecordingSet, overwrite: bool) -> None:
    """``ensure_writable`` for the files ``write_dataset`` would write, and
    refuse, even with ``overwrite``, a ``root`` that holds a trial CSV not
    among them: the loader would read it as part of the new dataset."""
    names = dataset_names(rset)
    ensure_writable(root, names, overwrite)
    stale = sorted(set(root.glob("*/*/*.csv")) - {root / n for n in names})
    if stale:
        raise OutputExistsError(
            f"refusing to write a dataset into {root}: it holds {stale[0]}, "
            "which is not part of the new dataset"
        )


def write_dataset(root: Path, rset: RecordingSet) -> list[Path]:
    """Write a RecordingSet in the on-disk CSV layout plus manifest."""
    paths = [root / name for name in dataset_names(rset)]
    write_json(
        paths[0],
        {
            "sampling_rate_hz": rset.sampling_rate_hz,
            "class_names": list(rset.class_names),
            "channel_count": rset.channel_count,
        },
    )
    for rec, path in zip(rset.recordings, paths[1:]):
        header = ["t", *[channel_name(c) for c in range(rec.channel_count)]]
        rows = [[t, *row] for t, row in enumerate(rec.samples.T.tolist())]
        write_csv(path, header, rows)
    return paths
