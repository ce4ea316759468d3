"""Command-line entry point for the audit pipeline.

Subcommands::

    complexity    ingest -> features -> pairwise separability audit
    ablate        ingest -> features -> sensor ablation audit
    oracle        ingest -> features -> per-pair classifier validation
    full          all of the above sharing one ingest/feature pass
    synth         render a synthetic spec to an on-disk dataset
    ingest-check  validate a dataset without computing anything

The four audit commands share one runner (``_run``): it ingests and builds
features once, runs the command's stages, and writes their artifacts into
a staging directory under --out that is moved into place only when every
writer has finished. The overwrite check runs before any feature is
computed, on the names in ``reports.ARTIFACTS``.

Every run embeds its resolved configuration and seed in the JSON
artifacts, and a fixed seed reproduces outputs byte for byte. --jobs is
validated and accepted for compatibility; every stage runs in one thread,
so it cannot change the outputs.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from dataclasses import dataclass, field, replace
from pathlib import Path

from .ablation import (
    DEFAULT_CRITICALITY_THRESHOLD,
    DEFAULT_REDUNDANCY_THRESHOLD,
    SHIFT_METRICS,
    AblationSpec,
    run_ablation_audit,
)
from .errors import (
    AuditError,
    ConfigError,
    InvalidSpecError,
    MissingFileError,
    TooFewRowsError,
)
from .features import FeatureConfig, build_class_matrices, column_labels, feature_columns
from .ingest import REST_CLASS, SegmentationConfig, load_dataset, segment
from .oracle import OracleConfig, run_oracle_audit
from .reports import (
    ARTIFACTS,
    ablation_payload,
    artifact_names,
    complexity_payload,
    ensure_writable,
    oracle_payload,
    write_ablation,
    write_complexity,
    write_dataset,
    write_feature_matrices,
    write_json,
    write_oracle,
    write_validation,
)
from .separability import pairwise_audit
from .synthetic import SyntheticSpec, generate_recordings

SCHEMA_VERSION = 1


@dataclass
class AuditRunConfig:
    data_root: Path | None = None
    synthetic_spec: Path | None = None
    out_dir: Path = Path("audit_out")
    seed: int | None = None
    include_rest: bool = False
    overwrite: bool = False
    jobs: int = 1
    dump_features: bool = False
    segmentation: SegmentationConfig = field(default_factory=SegmentationConfig)
    features: FeatureConfig = field(default_factory=FeatureConfig)
    ablation: AblationSpec = field(default_factory=AblationSpec)
    oracle: OracleConfig = field(default_factory=OracleConfig)
    criticality_threshold: float = DEFAULT_CRITICALITY_THRESHOLD
    redundancy_threshold: float = DEFAULT_REDUNDANCY_THRESHOLD

    def __post_init__(self) -> None:
        if (self.data_root is None) == (self.synthetic_spec is None):
            raise ConfigError("exactly one of --data and --synthetic must be given")
        if self.jobs < 1:
            raise ConfigError("--jobs must be positive")

    def resolved_echo(self, source_kind: str, source: str, seed: int) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "source": {"kind": source_kind, "path": source},
            "seed": seed,
            "include_rest": self.include_rest,
            "segmentation": self.segmentation.to_json_dict(),
            "features": self.features.to_json_dict(),
            "ablation": self.ablation.to_json_dict(),
            "oracle": self.oracle.to_json_dict(),
            "criticality_threshold": self.criticality_threshold,
            "redundancy_threshold": self.redundancy_threshold,
        }


def _load_config_file(path: Path) -> dict:
    if not path.is_file():
        raise MissingFileError(f"config file not found: {path}")
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise InvalidSpecError(f"{path}: invalid JSON ({exc})") from exc
    known = {"segmentation", "features", "ablation", "oracle", "thresholds"}
    unknown = sorted(set(payload) - known)
    if unknown:
        raise InvalidSpecError(f"{path}: unknown config sections: {', '.join(unknown)}")
    return payload


def _config_from_args(args: argparse.Namespace) -> AuditRunConfig:
    sections = _load_config_file(Path(args.config)) if args.config else {}
    segmentation = SegmentationConfig.from_json_dict(sections.get("segmentation", {}))
    features = FeatureConfig.from_json_dict(sections.get("features", {}))
    ablation = AblationSpec.from_json_dict(sections.get("ablation", {}))
    oracle_cfg = OracleConfig.from_json_dict(sections.get("oracle", {}))
    thresholds = sections.get("thresholds", {})
    unknown = sorted(set(thresholds) - {"criticality", "redundancy"})
    if unknown:
        raise InvalidSpecError(f"unknown threshold keys: {', '.join(unknown)}")

    if getattr(args, "metric", None):
        ablation = replace(ablation, shift_metric=args.metric)
    if getattr(args, "depth", None):
        ablation = replace(ablation, combinatorial_depth=args.depth)
    if args.seed is not None:
        oracle_cfg = replace(oracle_cfg, seed=args.seed)

    return AuditRunConfig(
        data_root=Path(args.data) if args.data else None,
        synthetic_spec=Path(args.synthetic) if args.synthetic else None,
        out_dir=Path(args.out),
        seed=args.seed,
        include_rest=args.include_rest,
        overwrite=args.overwrite,
        jobs=args.jobs,
        dump_features=getattr(args, "dump_features", False),
        segmentation=segmentation,
        features=features,
        ablation=ablation,
        oracle=oracle_cfg,
        criticality_threshold=float(thresholds.get("criticality", DEFAULT_CRITICALITY_THRESHOLD)),
        redundancy_threshold=float(thresholds.get("redundancy", DEFAULT_REDUNDANCY_THRESHOLD)),
    )


class _Stage:
    """Names the failing pipeline stage on propagated errors."""

    def __init__(self, name: str):
        self.name = name

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc is not None and isinstance(exc, AuditError) and not hasattr(exc, "stage"):
            exc.stage = self.name
        return False


@dataclass
class _PipelineData:
    windows: list
    fs: float
    channel_count: int
    classes: list[str]
    source_kind: str
    source: str
    seed: int


def _ingest(cfg: AuditRunConfig) -> _PipelineData:
    with _Stage("ingest"):
        if cfg.synthetic_spec is not None:
            spec = SyntheticSpec.from_json_file(cfg.synthetic_spec)
            seed = cfg.seed if cfg.seed is not None else spec.seed
            rset = generate_recordings(spec, seed=seed)
            seg = spec.segmentation()
            source_kind, source = "synthetic", str(cfg.synthetic_spec)
        else:
            rset = load_dataset(cfg.data_root)
            seed = cfg.seed if cfg.seed is not None else cfg.oracle.seed
            seg = cfg.segmentation
            source_kind, source = "dataset", str(cfg.data_root)
        classes = [
            c for c in rset.class_names if cfg.include_rest or c != REST_CLASS
        ]
        if not classes:
            raise ConfigError("no classes left after excluding the rest class")
        windows = segment(rset, seg, classes=classes)
        present = sorted({w.class_label for w in windows})
        missing = [c for c in classes if c not in present]
        if missing:
            raise TooFewRowsError(
                f"class {missing[0]!r} produced no windows after segmentation"
            )
        return _PipelineData(
            windows=windows,
            fs=rset.sampling_rate_hz,
            channel_count=rset.channel_count,
            classes=present,
            source_kind=source_kind,
            source=source,
            seed=seed,
        )


# Audit command -> (help, stages it runs); "full" also writes the summary.
STAGES = ("complexity", "ablation", "oracle")
COMMANDS = {
    "complexity": ("pairwise class-separability audit", ("complexity",)),
    "ablate": ("sensor ablation / criticality audit", ("ablation",)),
    "oracle": ("per-pair classifier validation", ("oracle",)),
    "full": ("complexity + ablate + oracle in one pass", STAGES),
}


def _commit(out: Path, write) -> None:
    """Run ``write(staging)`` into a fresh directory under ``out``, then move
    every file it wrote into ``out``. If anything fails, ``out`` is left as
    it was: the staging directory goes, and so do the directories this call
    created."""
    created = [p for p in (out, *out.parents) if not p.exists()]
    out.mkdir(parents=True, exist_ok=True)
    staging = Path(tempfile.mkdtemp(prefix=".staging-", dir=out))
    try:
        write(staging)
        for path in sorted(staging.iterdir()):
            os.replace(path, out / path.name)
    except BaseException:
        shutil.rmtree(created[-1] if created else staging, ignore_errors=True)
        raise
    staging.rmdir()


def _run(cfg: AuditRunConfig, stages: tuple[str, ...]) -> int:
    """Ingest and build features once, run ``stages`` over them, and write
    the files those stages own (the ``ARTIFACTS`` groups of the same names)."""
    data = _ingest(cfg)
    summary = stages == STAGES
    groups = list(stages) + ["summary"] * summary + ["features"] * cfg.dump_features
    report_classes = list(cfg.ablation.classes) if cfg.ablation.classes else data.classes
    ensure_writable([cfg.out_dir / n for n in artifact_names(groups, report_classes)], cfg.overwrite)

    windows = data.windows
    if stages == ("ablation",) and cfg.ablation.classes:
        windows = [w for w in windows if w.class_label in report_classes]
    with _Stage("features"):
        matrices = build_class_matrices(windows, cfg.features, data.fs)
    if "complexity" in stages or "oracle" in stages:
        with _Stage("separability"):
            ovo = pairwise_audit(matrices, mode="one-vs-one")
            if "complexity" in stages:
                ovr = pairwise_audit(matrices, mode="one-vs-rest")
    if "ablation" in stages:
        with _Stage("ablation"):
            report = run_ablation_audit(
                data.windows,
                cfg.ablation,
                cfg.features,
                data.fs,
                criticality_threshold=cfg.criticality_threshold,
                redundancy_threshold=cfg.redundancy_threshold,
                baselines=matrices,
            )
    if "oracle" in stages:
        with _Stage("oracle"):
            results = run_oracle_audit(matrices, replace(cfg.oracle, seed=data.seed))

    echo = cfg.resolved_echo(data.source_kind, data.source, data.seed)
    columns = column_labels(feature_columns(data.channel_count, cfg.features))

    def write(out: Path) -> None:
        if "complexity" in stages:
            write_complexity(out, ovo, ovr, columns, echo)
        if "ablation" in stages:
            write_ablation(out, report, echo)
        if "oracle" in stages:
            write_oracle(out, results, echo)
            write_validation(out, ovo, results)
        if cfg.dump_features:
            write_feature_matrices(out, matrices)
        if summary:
            payload = {
                "schema_version": SCHEMA_VERSION,
                "config": echo,
                "classes": data.classes,
                "window_counts": {
                    label: sum(1 for w in data.windows if w.class_label == label)
                    for label in data.classes
                },
                "complexity": {
                    "one_vs_one": complexity_payload(ovo, columns),
                    "one_vs_rest": complexity_payload(ovr, columns),
                },
                "ablation": ablation_payload(report, echo),
                "oracle": oracle_payload(results),
            }
            (name,) = ARTIFACTS["summary"]
            write_json(out / name, payload)

    _commit(cfg.out_dir, write)
    return 0


def cmd_synth(cfg_args: argparse.Namespace) -> int:
    with _Stage("synth"):
        spec = SyntheticSpec.from_json_file(Path(cfg_args.synthetic))
        seed = cfg_args.seed if cfg_args.seed is not None else spec.seed
        rset = generate_recordings(spec, seed=seed)
        root = Path(cfg_args.out)
        manifest = root / "dataset.json"
        if manifest.exists() and not cfg_args.overwrite:
            ensure_writable([manifest], overwrite=False)
        write_dataset(root, rset)
        print(f"wrote {len(rset.recordings)} recordings under {root}")
    return 0


def cmd_ingest_check(cfg_args: argparse.Namespace) -> int:
    with _Stage("ingest"):
        rset = load_dataset(Path(cfg_args.data))
        sections = (
            _load_config_file(Path(cfg_args.config)) if cfg_args.config else {}
        )
        seg = SegmentationConfig.from_json_dict(sections.get("segmentation", {}))
        windows = segment(rset, seg)
        counts: dict[str, int] = {c: 0 for c in rset.class_names}
        for w in windows:
            counts[w.class_label] += 1
        print(
            f"ok: {len(rset.recordings)} recordings, "
            f"{rset.channel_count} channels at {rset.sampling_rate_hz:g} Hz"
        )
        for label in rset.class_names:
            print(f"  {label}: {counts[label]} windows")
    return 0


def _add_source_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", help="dataset root directory")
    p.add_argument("--synthetic", help="synthetic spec JSON")
    p.add_argument("--config", help="audit config JSON")
    p.add_argument("--out", default="audit_out", help="output directory")
    p.add_argument("--seed", type=int, default=None, help="global seed")
    p.add_argument("--include-rest", action="store_true", help="audit the rest class too")
    p.add_argument("--overwrite", action="store_true", help="allow overwriting artifacts")
    p.add_argument(
        "--jobs", type=int, default=1, help="accepted for compatibility; the audit runs in one thread"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sensoraudit",
        description="Task-separability and sensor fault-tolerance auditing "
        "for labeled multi-channel recordings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for command, (help_text, stages) in COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        _add_source_flags(p)
        if "ablation" in stages:
            p.add_argument("--metric", choices=SHIFT_METRICS, help="accepted for compatibility; f1 only")
            p.add_argument("--depth", type=int, help="combinatorial ablation depth")
        if "complexity" in stages:
            p.add_argument("--dump-features", action="store_true", help="also export feature matrices")
        p.set_defaults(func=lambda a, stages=stages: _run(_config_from_args(a), stages))

    p = sub.add_parser("synth", help="write a synthetic dataset to disk")
    p.add_argument("--synthetic", required=True, help="synthetic spec JSON")
    p.add_argument("--out", required=True, help="dataset root to create")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--overwrite", action="store_true")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("ingest-check", help="validate a dataset without computing")
    p.add_argument("--data", required=True, help="dataset root directory")
    p.add_argument("--config", help="audit config JSON (segmentation section)")
    p.set_defaults(func=cmd_ingest_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except AuditError as exc:
        stage = getattr(exc, "stage", "setup")
        print(f"error [{stage}]: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
