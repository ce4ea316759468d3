import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))  # the scripts' shared modules

from sensoraudit.ablation import run_ablation_audit
from sensoraudit.features import FeatureConfig, FeatureMatrix, build_class_matrices
from sensoraudit.ingest import Windows, segment
from sensoraudit.separability import pairwise_audit
from sensoraudit.synthetic import (
    ChannelProfile,
    ChannelSpec,
    SyntheticSpec,
    generate_recordings,
)

CLASSES = ["alpha", "beta", "gamma"]


def graded_spec(seed: int, gains=(1.0, 1.12, 1.8)) -> SyntheticSpec:
    """Three classes separated only by channel 0's tonic gain; the
    (alpha, beta) gap is engineered to be the smallest."""
    ch0 = ChannelSpec(
        classes={
            c: ChannelProfile(kind="tonic", gain=g, carrier_hz=30.0)
            for c, g in zip(CLASSES, gains)
        }
    )
    return SyntheticSpec(
        class_names=list(CLASSES),
        channel_count=4,
        windows_per_class=80,
        window_len_samples=128,
        trials_per_class=4,
        seed=seed,
        channels=[ch0],
    )


def criticality_spec(seed: int) -> SyntheticSpec:
    """Channel i is informative exactly for class i; channels 3-4 are
    always noise (known redundant)."""
    chans = [
        ChannelSpec(
            classes={c: ChannelProfile(kind="tonic", gain=2.0, carrier_hz=25.0 + 10 * i)}
        )
        for i, c in enumerate(CLASSES)
    ]
    return SyntheticSpec(
        class_names=list(CLASSES),
        channel_count=5,
        windows_per_class=60,
        window_len_samples=128,
        trials_per_class=3,
        seed=seed,
        channels=chans,
    )


def windows_of(spec: SyntheticSpec):
    rset = generate_recordings(spec)
    return segment(rset, spec.segmentation()), rset.sampling_rate_hz


def matrices_of(spec: SyntheticSpec, fcfg: FeatureConfig | None = None):
    windows, fs = windows_of(spec)
    return build_class_matrices(windows, fcfg or FeatureConfig(), fs)


def windows_from(rows) -> Windows:
    """A ``Windows`` record from ``(data, label, trial, start)`` tuples,
    each ``data`` one ``(C, W)`` window and its own unit."""
    data, labels, trials, starts = zip(*rows)
    channels, width = np.shape(data[0])
    units = [np.asarray(d, dtype=float) for d in data]
    index = [(i, 0) for i in range(len(units))]
    return Windows(units, index, labels, tuple(zip(trials, starts)), channels, width)


def ablate(windows: Windows, spec, fcfg: FeatureConfig, fs: float):
    """``run_ablation_audit`` on the one-vs-rest audit the CLI passes it
    for these windows."""
    audit = pairwise_audit(build_class_matrices(windows, fcfg, fs), mode="one-vs-rest")
    return run_ablation_audit(audit, windows.channels, spec)


def feature_row(data, cfg: FeatureConfig, fs: float) -> np.ndarray:
    """The feature row ``build_class_matrices`` gives one ``(C, W)`` window."""
    (matrix,) = build_class_matrices(windows_from([(data, "x", "t", 0)]), cfg, fs).values()
    return matrix.values[0]


def matrix_from_rows(rows, label="x") -> FeatureMatrix:
    """Wrap a plain 2-D array as a FeatureMatrix with a synthetic column map."""
    values = np.asarray(rows, dtype=float)
    if values.ndim == 1:
        values = values[:, None]
    columns = tuple((k, "rms") for k in range(values.shape[1]))
    provenance = tuple((f"{label}-row", i) for i in range(values.shape[0]))
    return FeatureMatrix(values, label, columns, provenance)


@pytest.fixture
def fcfg():
    return FeatureConfig()
