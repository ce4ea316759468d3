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
    zero_window_features,
)
from .ingest import (
    Recording,
    RecordingSet,
    SegmentationConfig,
    Windows,
    load_dataset,
    segment,
    trim,
)
from .oracle import (
    OracleConfig,
    OracleResult,
    run_oracle_audit,
    standardize,
)
from .separability import (
    F1_CAP,
    PairwiseAudit,
    SeparabilityScore,
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
    "OracleConfig",
    "OracleResult",
    "PairwiseAudit",
    "Recording",
    "RecordingSet",
    "SegmentationConfig",
    "SeparabilityScore",
    "SyntheticSpec",
    "Windows",
    "build_class_matrices",
    "enumerate_subsets",
    "generate_recordings",
    "load_dataset",
    "neighbour_compensation",
    "pairwise_audit",
    "run_ablation_audit",
    "run_oracle_audit",
    "segment",
    "separability_score",
    "standardize",
    "trim",
    "zero_window_features",
]
