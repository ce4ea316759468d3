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
so it cannot change the outputs. --metric accepts only f1, the one shift
the ablation reports, and is likewise accepted for compatibility.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
import tempfile
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path

from .ablation import (
    DEFAULT_CRITICALITY_THRESHOLD,
    DEFAULT_REDUNDANCY_THRESHOLD,
    SHIFT_METRIC,
    AblationSpec,
    run_ablation_audit,
)
from .errors import AuditError, ConfigError, TooFewRowsError
from .features import (
    FeatureConfig,
    build_class_matrices,
    column_labels,
    feature_columns,
    zero_window_features,
)
from .ingest import REST_CLASS, JsonConfig, SegmentationConfig, Windows, load_dataset, segment
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


@dataclass(frozen=True)
class Thresholds(JsonConfig):
    criticality: float = DEFAULT_CRITICALITY_THRESHOLD
    redundancy: float = DEFAULT_REDUNDANCY_THRESHOLD


@dataclass(frozen=True)
class ConfigFile(JsonConfig):
    """The ``--config`` file: each section optional, each parsed by its own config."""

    segmentation: SegmentationConfig = field(default_factory=SegmentationConfig)
    features: FeatureConfig = field(default_factory=FeatureConfig)
    ablation: AblationSpec = field(default_factory=AblationSpec)
    oracle: OracleConfig = field(default_factory=OracleConfig)
    thresholds: Thresholds = field(default_factory=Thresholds)


def _config_file(path: str | None) -> ConfigFile:
    return ConfigFile.from_json_file(path) if path else ConfigFile()


def _config_from_args(args: argparse.Namespace) -> ConfigFile:
    """The ``--config`` file with ``--depth`` and ``--seed`` applied."""
    cfg = _config_file(args.config)
    ablation, oracle_cfg = cfg.ablation, cfg.oracle
    if getattr(args, "depth", None) is not None:
        ablation = replace(ablation, combinatorial_depth=args.depth)
    if args.seed is not None:
        oracle_cfg = replace(oracle_cfg, seed=args.seed)
    return replace(cfg, ablation=ablation, oracle=oracle_cfg)


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
    windows: Windows
    fs: float
    classes: list[str]
    seed: int


def _ingest(cfg: ConfigFile, args: argparse.Namespace) -> _PipelineData:
    with _Stage("ingest"):
        if args.synthetic:
            spec = SyntheticSpec.from_json_file(args.synthetic)
            seed = args.seed if args.seed is not None else spec.seed
            rset = generate_recordings(spec, seed=seed)
            seg = spec.segmentation()
        else:
            rset = load_dataset(args.data)
            seed = cfg.oracle.seed
            seg = cfg.segmentation
        classes = [c for c in rset.class_names if args.include_rest or c != REST_CLASS]
        if not classes:
            raise ConfigError("no classes left after excluding the rest class")
        windows = segment(rset, seg, classes=classes)
        present = sorted(set(windows.labels))
        missing = [c for c in classes if c not in present]
        if missing:
            raise TooFewRowsError(
                f"class {missing[0]!r} produced no windows after segmentation"
            )
        return _PipelineData(windows, rset.sampling_rate_hz, present, seed)


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


def _run(args: argparse.Namespace, stages: tuple[str, ...]) -> int:
    """Ingest and build features once, run ``stages`` over them, and write
    the files those stages own (the ``ARTIFACTS`` groups of the same names)."""
    cfg = _config_from_args(args)
    if (not args.data) == (not args.synthetic):
        raise ConfigError("exactly one of --data and --synthetic must be given")
    if args.jobs < 1:
        raise ConfigError("--jobs must be positive")
    data = _ingest(cfg, args)
    cfg = replace(cfg, oracle=replace(cfg.oracle, seed=data.seed))
    summary = stages == STAGES
    dump_features = getattr(args, "dump_features", False)
    groups = list(stages) + ["summary"] * summary + ["features"] * dump_features
    report_classes = list(cfg.ablation.classes) if cfg.ablation.classes else data.classes
    out_dir = Path(args.out)
    ensure_writable([out_dir / n for n in artifact_names(groups, report_classes)], args.overwrite)

    echo = {
        "schema_version": SCHEMA_VERSION,
        "source": {
            "kind": "synthetic" if args.synthetic else "dataset",
            "path": str(Path(args.synthetic or args.data)),
        },
        "seed": data.seed,
        "include_rest": args.include_rest,
        "segmentation": cfg.segmentation.to_json_dict(),
        "features": cfg.features.to_json_dict(),
        "ablation": cfg.ablation.to_json_dict(),
        "oracle": cfg.oracle.to_json_dict(),
        "criticality_threshold": float(cfg.thresholds.criticality),
        "redundancy_threshold": float(cfg.thresholds.redundancy),
    }

    windows = data.windows
    if stages == ("ablation",) and cfg.ablation.classes:
        windows = windows.select(report_classes)
    with _Stage("features"):
        matrices = build_class_matrices(windows, cfg.features, data.fs)
    # each group's payload, built once for its own files and the summary
    payloads = {}
    if "complexity" in stages or "oracle" in stages:
        with _Stage("separability"):
            ovo = pairwise_audit(matrices, mode="one-vs-one")
            if "complexity" in stages:
                ovr = pairwise_audit(matrices, mode="one-vs-rest")
                columns = column_labels(feature_columns(data.windows.data.shape[1], cfg.features))
                payloads["complexity"] = {
                    "one_vs_one": complexity_payload(ovo, columns),
                    "one_vs_rest": complexity_payload(ovr, columns),
                }
    if "ablation" in stages:
        with _Stage("ablation"):
            failed_row = zero_window_features(cfg.features, windows.data.shape[2], data.fs)
            report = run_ablation_audit(
                matrices,
                cfg.ablation,
                failed_row,
                criticality_threshold=float(cfg.thresholds.criticality),
                redundancy_threshold=float(cfg.thresholds.redundancy),
            )
        payloads["ablation"] = ablation_payload(report, echo)
    if "oracle" in stages:
        with _Stage("oracle"):
            results = run_oracle_audit(matrices, cfg.oracle)
        payloads["oracle"] = oracle_payload(results)

    def write(out: Path) -> None:
        if "complexity" in stages:
            write_complexity(out, payloads["complexity"], echo)
        if "ablation" in stages:
            write_ablation(out, payloads["ablation"])
        if "oracle" in stages:
            write_oracle(out, payloads["oracle"], echo)
            write_validation(out, ovo, results)
        if dump_features:
            write_feature_matrices(out, matrices)
        if summary:
            window_counts = Counter(data.windows.labels)
            (name,) = ARTIFACTS["summary"]
            write_json(
                out / name,
                {
                    "schema_version": SCHEMA_VERSION,
                    "config": echo,
                    "classes": data.classes,
                    "window_counts": {label: window_counts[label] for label in data.classes},
                    **payloads,
                },
            )

    _commit(out_dir, write)
    return 0


def cmd_synth(cfg_args: argparse.Namespace) -> int:
    with _Stage("synth"):
        spec = SyntheticSpec.from_json_file(Path(cfg_args.synthetic))
        if cfg_args.seed is not None:
            spec = replace(spec, seed=cfg_args.seed)
        rset = generate_recordings(spec)
        root = Path(cfg_args.out)
        ensure_writable([root / "dataset.json"], cfg_args.overwrite)
        write_dataset(root, rset)
        print(f"wrote {len(rset.recordings)} recordings under {root}")
    return 0


def cmd_ingest_check(cfg_args: argparse.Namespace) -> int:
    with _Stage("ingest"):
        rset = load_dataset(Path(cfg_args.data))
        counts = Counter(segment(rset, _config_file(cfg_args.config).segmentation).labels)
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
            p.add_argument(
                "--metric", choices=(SHIFT_METRIC,), help="accepted for compatibility; the shift is always f1"
            )
            p.add_argument("--depth", type=int, help="combinatorial ablation depth")
        if "complexity" in stages:
            p.add_argument("--dump-features", action="store_true", help="also export feature matrices")
        p.set_defaults(func=lambda a, stages=stages: _run(a, stages))

    p = sub.add_parser("synth", help="write a synthetic dataset to disk")
    p.add_argument("--synthetic", required=True, help="synthetic spec JSON")
    p.add_argument("--out", required=True, help="dataset root to create")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--overwrite", action="store_true")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("ingest-check", help="validate a dataset without computing")
    p.add_argument("--data", required=True, help="dataset root directory")
    p.add_argument("--config", help="audit config JSON (every section is validated)")
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
