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
computed, on the names in ``reports.ARTIFACTS``, and so do the check
of the ablation config against the ingested channels and classes
(``ablation.check_scope``) and the refusal of a channel that is dead in
every recording of one audited class (``ingest.refuse_dead_channels``).

Every run embeds its resolved configuration and seed in the JSON
artifacts, and a fixed seed reproduces outputs byte for byte. --jobs is
validated and accepted for compatibility; every stage runs in one thread,
so it cannot change the outputs. --metric accepts only f1, the
separability whose loss the ablation reports, and is likewise accepted
for compatibility.
"""

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
    check_scope,
    run_ablation_audit,
)
from .config import JsonConfig
from .errors import EXIT_INTERNAL, AuditError, ConfigError, InvalidSpecError, TooFewRowsError
from .features import FeatureConfig, build_class_matrices, column_labels
from .ingest import (
    REST_CLASS,
    SegmentationConfig,
    Windows,
    channel_name,
    flat_channels,
    load_dataset,
    refuse_dead_channels,
    segment,
)
from .oracle import OracleConfig, run_oracle_audit
from .reports import (
    ARTIFACTS,
    ablation_payload,
    artifact_names,
    complexity_payload,
    ensure_dataset_writable,
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

SCHEMA_VERSION = 2


@dataclass(frozen=True)
class Thresholds(JsonConfig):
    criticality: float = DEFAULT_CRITICALITY_THRESHOLD
    redundancy: float = DEFAULT_REDUNDANCY_THRESHOLD

    def check_bounds(self) -> None:
        # a sensor is critical at or above criticality and redundant below
        # redundancy, so no score can be both
        if not 0.0 <= self.redundancy <= self.criticality <= 1.0:
            raise InvalidSpecError(
                "thresholds must satisfy 0 <= redundancy <= criticality <= 1, got "
                f"redundancy {self.redundancy!r} and criticality {self.criticality!r}"
            )


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
        if isinstance(exc, (AuditError, MemoryError)) and not hasattr(exc, "stage"):
            exc.stage = self.name
        return False


@dataclass
class _PipelineData:
    fs: float
    classes: list[str]
    window_counts: Counter


def _ingest(cfg: ConfigFile, args: argparse.Namespace) -> tuple[Windows, _PipelineData, ConfigFile]:
    """The windows of every class but rest (unless --include-rest), and
    ``cfg`` with the segmentation and seed the run used: a --synthetic run
    segments with its spec's own geometry and, without --seed, seeds with
    the spec's."""
    with _Stage("ingest"):
        if args.synthetic:
            spec = SyntheticSpec.from_json_file(args.synthetic)
            seed = args.seed if args.seed is not None else spec.seed
            cfg = replace(
                cfg, segmentation=spec.segmentation(), oracle=replace(cfg.oracle, seed=seed)
            )
            rset = generate_recordings(spec, seed=seed)
        else:
            rset = load_dataset(args.data)
        classes = [c for c in rset.class_names if args.include_rest or c != REST_CLASS]
        if not classes:
            raise ConfigError("no classes left after excluding the rest class")
        windows = segment(rset, cfg.segmentation, classes=classes)
        counts = Counter(windows.labels)
        present = sorted(counts)
        missing = [c for c in classes if c not in present]
        if missing:
            raise TooFewRowsError(
                f"class {missing[0]!r} produced no windows after segmentation"
            )
        refuse_dead_channels(rset, flat_channels(rset, cfg.segmentation, classes), classes)
        return windows, _PipelineData(rset.sampling_rate_hz, present, counts), cfg


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
    windows, data, cfg = _ingest(cfg, args)
    if "ablation" in stages:
        with _Stage("ablation"):
            check_scope(cfg.ablation, windows.channels, data.classes)
    summary = stages == STAGES
    dump_features = getattr(args, "dump_features", False)
    groups = list(stages) + ["summary"] * summary + ["features"] * dump_features
    report_classes = cfg.ablation.classes or data.classes
    out_dir = Path(args.out)
    ensure_writable(out_dir, artifact_names(groups, report_classes), args.overwrite)

    echo = {
        "schema_version": SCHEMA_VERSION,
        "source": {
            "kind": "synthetic" if args.synthetic else "dataset",
            "path": str(Path(args.synthetic or args.data)),
        },
        "seed": cfg.oracle.seed,
        "include_rest": args.include_rest,
        "segmentation": cfg.segmentation.to_json_dict(),
        "features": cfg.features.to_json_dict(),
        "ablation": cfg.ablation.to_json_dict(),
        "oracle": cfg.oracle.to_json_dict(),
        "criticality_threshold": float(cfg.thresholds.criticality),
        "redundancy_threshold": float(cfg.thresholds.redundancy),
    }

    channel_count = windows.channels
    with _Stage("features"):
        matrices = build_class_matrices(windows, cfg.features, data.fs)
    del windows  # the units' samples are not needed past here; free them before the oracle
    # each group's payload, built once for its own files and the summary
    payloads = {}
    with _Stage("separability"):
        if "complexity" in stages or "oracle" in stages:
            ovo = pairwise_audit(matrices, mode="one-vs-one")
        if "complexity" in stages or "ablation" in stages:
            ovr = pairwise_audit(matrices, mode="one-vs-rest")
        if "complexity" in stages:
            columns = column_labels(next(iter(matrices.values())).column_index)
            payloads["complexity"] = {
                "one_vs_one": complexity_payload(ovo, columns),
                "one_vs_rest": complexity_payload(ovr, columns),
            }
    if "ablation" in stages:
        with _Stage("ablation"):
            report = run_ablation_audit(
                ovr,
                channel_count,
                cfg.ablation,
                criticality_threshold=float(cfg.thresholds.criticality),
                redundancy_threshold=float(cfg.thresholds.redundancy),
            )
        payloads["ablation"] = ablation_payload(report, echo)
    if "oracle" in stages:
        with _Stage("oracle"):
            results = run_oracle_audit(matrices, cfg.oracle)
        payloads["oracle"] = oracle_payload(results)

    def write(out: Path) -> None:
        texts = {}  # shared, so the summary splices in what the stage files encoded
        if "complexity" in stages:
            write_complexity(out, payloads["complexity"], echo, texts)
        if "ablation" in stages:
            write_ablation(out, payloads["ablation"], texts)
        if "oracle" in stages:
            write_oracle(out, payloads["oracle"], echo, texts)
            write_validation(out, ovo, results)
        if dump_features:
            write_feature_matrices(out, matrices)
        if summary:
            (name,) = ARTIFACTS["summary"]
            write_json(
                out / name,
                {
                    "schema_version": SCHEMA_VERSION,
                    "config": echo,
                    "classes": data.classes,
                    "window_counts": {label: data.window_counts[label] for label in data.classes},
                    **payloads,
                },
                texts,
            )

    _commit(out_dir, write)
    return 0


def cmd_synth(cfg_args: argparse.Namespace) -> int:
    with _Stage("synth"):
        spec = SyntheticSpec.from_json_file(Path(cfg_args.synthetic))
        if cfg_args.seed is not None:
            spec = replace(spec, seed=cfg_args.seed)
        root = Path(cfg_args.out)
        rset = generate_recordings(spec)
        ensure_dataset_writable(root, rset, cfg_args.overwrite)
        write_dataset(root, rset)
        print(f"wrote {len(rset.recordings)} recordings under {root}")
    return 0


def cmd_ingest_check(cfg_args: argparse.Namespace) -> int:
    with _Stage("ingest"):
        rset = load_dataset(Path(cfg_args.data))
        seg = _config_file(cfg_args.config).segmentation
        counts = Counter(segment(rset, seg).labels)
        print(
            f"ok: {len(rset.recordings)} recordings, "
            f"{rset.channel_count} channels at {rset.sampling_rate_hz:g} Hz"
        )
        for label in rset.class_names:
            print(f"  {label}: {counts[label]} windows")
        flat = flat_channels(rset, seg)
        for rec, c in flat:
            row = rec.samples[c]
            print(
                f"flat: {channel_name(c)} in {rec.class_label} trial {rec.provenance()} "
                f"({len(row)} trimmed samples, all {float(row[0])!r})"
            )
        # refused as the audit commands refuse it, on the classes they audit by default
        refuse_dead_channels(rset, flat, [c for c in rset.class_names if c != REST_CLASS])
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
    except MemoryError as exc:  # e.g. a config sized past memory; numpy says how much
        stage = getattr(exc, "stage", "setup")
        print(f"error [{stage}]: out of memory ({exc})", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
