"""Model-free auditing of task separability and sensor fault tolerance
for labeled multi-channel time-series recordings."""

from .ablation import (
    AblationReport,
    AblationSpec,
    CompensationNote,
    enumerate_subsets,
    neighbour_compensation,
    run_ablation_audit,
)
from .errors import AuditError
from .features import (
    FEATURE_NAMES,
    FeatureConfig,
    FeatureMatrix,
    build_class_matrices,
    extract_features,
)
from .ingest import (
    Recording,
    RecordingSet,
    SegmentationConfig,
    WindowedSample,
    load_dataset,
    segment,
    trim,
    window,
)
from .oracle import (
    MlpClassifier,
    OracleConfig,
    OracleResult,
    evaluate_mcc,
    run_oracle_audit,
    standardize,
    train_mlp,
)
from .separability import (
    F1_CAP,
    PairwiseAudit,
    SeparabilityScore,
    feature_efficiency,
    max_fisher_ratio,
    overlap_volume,
    pairwise_audit,
    separability_score,
)
from .synthetic import ChannelProfile, ChannelSpec, SyntheticSpec, generate_recordings

__version__ = "0.1.0"

__all__ = [
    "AblationReport",
    "AblationSpec",
    "AuditError",
    "ChannelProfile",
    "ChannelSpec",
    "CompensationNote",
    "F1_CAP",
    "FEATURE_NAMES",
    "FeatureConfig",
    "FeatureMatrix",
    "MlpClassifier",
    "OracleConfig",
    "OracleResult",
    "PairwiseAudit",
    "Recording",
    "RecordingSet",
    "SegmentationConfig",
    "SeparabilityScore",
    "SyntheticSpec",
    "WindowedSample",
    "build_class_matrices",
    "enumerate_subsets",
    "evaluate_mcc",
    "extract_features",
    "feature_efficiency",
    "generate_recordings",
    "load_dataset",
    "max_fisher_ratio",
    "neighbour_compensation",
    "overlap_volume",
    "pairwise_audit",
    "run_ablation_audit",
    "run_oracle_audit",
    "segment",
    "separability_score",
    "standardize",
    "train_mlp",
    "trim",
    "window",
]
