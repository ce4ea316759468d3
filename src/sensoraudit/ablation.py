"""Simulated sensor failure and per-sensor criticality ranking.

A sensor failure is simulated by zero-filling its channel before feature
extraction, then measuring how far the class's feature distribution
moves away from the intact baseline: the shift is
``separability_score(baseline, ablated).by_metric(metric)``. Every
feature is computed per channel, so nullifying a channel only turns that
channel's feature columns into the all-zero-window constants
(``ablated_matrix``).

``run_ablation_audit`` derives every subset's shift from two passes per
class instead of scoring one ablated matrix per (class, subset) cell.
Each per-dimension value ``separability_score`` computes (Fisher ratio,
range overlap, combined range) depends only on that column of the two
matrices, and an ablated matrix equals the baseline outside the subset's
columns. So

* ``separability_score(baseline, baseline)`` gives the values of every
  column a subset keeps, and
* ``separability_score(baseline, all channels nullified)`` gives the
  values of every column a subset nullifies.

A subset's per-dimension values are then one ``np.where`` between the
two on its column mask, reduced as ``separability_score`` reduces them:
f1 is the value at the first argmax, f2 the product of the overlap
fractions of the dimensions with a nonzero range (1.0 if none), f3 the
largest non-overlap fraction among those (0.0 if none). The
per-dimension values are the same floats, the argmax picks the same
entry, and numpy multiplies a row sequentially, where the 1.0 standing
in for a dimension without range changes no bit. The shifts are
therefore bitwise equal to the per-cell ones, for any metric, depth or
explicit subset list.

Criticality is the per-class normalized singleton shift (max per class
is 1 whenever any shift is positive); the global ranking orders sensors
by the mean of those normalized scores across classes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    EmptySpecError,
    IndexOutOfRangeError,
    InvalidSpecError,
    MismatchedColumnsError,
    TooFewRowsError,
    TopologyMismatchError,
)
from .features import (
    FeatureConfig,
    FeatureMatrix,
    build_class_matrices,
    feature_columns,
    zero_window_features,
)
from .ingest import JsonConfig, WindowedSample
from .separability import SHIFT_METRICS, reduce_terms, separability_score

DEFAULT_CRITICALITY_THRESHOLD = 0.8
DEFAULT_REDUNDANCY_THRESHOLD = 0.3

# Per-dimension values reduced per step of run_ablation_audit (512 KB of
# float64), so memory stays bounded however many subsets there are.
SHIFT_BLOCK_VALUES = 1 << 16


@dataclass
class AblationSpec(JsonConfig):
    sensor_subsets: list[tuple[int, ...]] | None = None
    combinatorial_depth: int = 1
    shift_metric: str = "f1"
    classes: list[str] | None = None
    ring_topology: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.combinatorial_depth < 1:
            raise InvalidSpecError("combinatorial_depth must be positive")
        if self.shift_metric not in SHIFT_METRICS:
            raise InvalidSpecError(
                f"shift_metric must be one of {SHIFT_METRICS}, got {self.shift_metric!r}"
            )
        if self.sensor_subsets is not None:
            if not self.sensor_subsets:
                raise EmptySpecError("sensor_subsets is empty")
            normalized = []
            for subset in self.sensor_subsets:
                if not subset:
                    raise InvalidSpecError("sensor subsets must be nonempty")
                normalized.append(tuple(sorted(set(int(s) for s in subset))))
            self.sensor_subsets = normalized
        if self.ring_topology is not None:
            self.ring_topology = tuple(int(s) for s in self.ring_topology)


def enumerate_subsets(channel_count: int, depth: int) -> list[tuple[int, ...]]:
    """All sensor subsets of size 1..depth, smaller sizes first, each in
    lexicographic index order."""
    out: list[tuple[int, ...]] = []
    for size in range(1, depth + 1):
        out.extend(itertools.combinations(range(channel_count), size))
    return out


def nullify(sample: WindowedSample, sensors) -> WindowedSample:
    """Copy of the window with the listed channels zero-filled."""
    channel_count = sample.data.shape[0]
    idx = sorted(set(int(s) for s in sensors))
    for s in idx:
        if not 0 <= s < channel_count:
            raise IndexOutOfRangeError(f"sensor {s} outside [0, {channel_count})")
    data = sample.data.copy()
    if idx:
        data[idx, :] = 0.0
    return WindowedSample(
        data=data,
        class_label=sample.class_label,
        source_trial=sample.source_trial,
        start_index=sample.start_index,
    )


def ablated_matrix(
    baseline: FeatureMatrix,
    sensors,
    cfg: FeatureConfig,
    window_len: int,
    fs: float,
    constants: np.ndarray | None = None,
) -> FeatureMatrix:
    """Feature matrix after nullifying ``sensors`` in every window.

    Features are per-channel, so the ablated matrix equals the baseline
    with the nullified channels' column blocks replaced by the all-zero
    window's feature values. Pass ``constants`` (the result of
    ``zero_window_features``) to reuse them across calls.
    """
    n_features = len(cfg.enabled_features)
    channel_count = baseline.n_columns // n_features
    idx = sorted(set(int(s) for s in sensors))
    for s in idx:
        if not 0 <= s < channel_count:
            raise IndexOutOfRangeError(f"sensor {s} outside [0, {channel_count})")
    values = baseline.values.copy()
    if idx:
        if constants is None:
            constants = zero_window_features(cfg, window_len, fs)
        for s in idx:
            values[:, s * n_features : (s + 1) * n_features] = constants
    return FeatureMatrix(values, baseline.class_label, baseline.column_index, baseline.row_provenance)


def ablated_shift(
    class_samples: list[WindowedSample],
    sensors,
    fcfg: FeatureConfig,
    fs: float,
    metric: str = "f1",
    baseline: FeatureMatrix | None = None,
) -> float:
    """Distributional shift of one class caused by nullifying ``sensors``."""
    if len(class_samples) < 2:
        raise TooFewRowsError(
            f"class needs >= 2 windows for an ablation shift, got {len(class_samples)}"
        )
    if baseline is None:
        matrices = build_class_matrices(class_samples, fcfg, fs)
        if len(matrices) != 1:
            raise InvalidSpecError("ablated_shift expects samples from a single class")
        baseline = next(iter(matrices.values()))
    window_len = int(class_samples[0].data.shape[1])
    ablated = ablated_matrix(baseline, sensors, fcfg, window_len, fs)
    return separability_score(baseline, ablated).by_metric(metric)


def _column_masks(subsets, channel_count: int, n_features: int) -> np.ndarray:
    """``(len(subsets), channel_count * n_features)``: the columns each
    subset nullifies, in the channel-major column order."""
    channels = np.zeros((len(subsets), channel_count), dtype=bool)
    for i, subset in enumerate(subsets):
        channels[i, list(subset)] = True
    return np.repeat(channels, n_features, axis=1)


@dataclass
class CompensationNote:
    class_label: str
    sensor: int
    criticality: float
    neighbours: tuple[int, int]  # ring left, ring right
    neighbour_criticality: tuple[float, float]
    verdict: str  # "compensated" | "uncompensated"


@dataclass
class AblationReport:
    classes: tuple[str, ...]
    channel_count: int
    subsets: tuple[tuple[int, ...], ...]
    shift_metric: str
    raw_shift: np.ndarray  # classes x subsets
    normalized_criticality: np.ndarray  # classes x channels (nan: no singleton score)
    mean_criticality: np.ndarray  # channels
    ranking: tuple[int, ...]
    ring_topology: tuple[int, ...]
    criticality_threshold: float
    redundancy_threshold: float
    redundancy_notes: dict[str, tuple[int, ...]] = field(default_factory=dict)
    compensation: tuple[CompensationNote, ...] = ()

    def shift_for(self, class_label: str, subset: tuple[int, ...]) -> float:
        ci = self.classes.index(class_label)
        si = self.subsets.index(tuple(subset))
        return float(self.raw_shift[ci, si])


def neighbour_compensation(
    report: AblationReport,
    topology: tuple[int, ...] | None = None,
    criticality_threshold: float | None = None,
    redundancy_threshold: float | None = None,
) -> tuple[CompensationNote, ...]:
    """Ring-neighbour check for every critical sensor of every class.

    A critical sensor is ``uncompensated`` when both ring neighbours sit
    below the redundancy threshold, ``compensated`` otherwise.
    """
    topo = tuple(report.ring_topology if topology is None else topology)
    if sorted(topo) != list(range(report.channel_count)):
        raise TopologyMismatchError(
            f"topology {topo} is not a permutation of 0..{report.channel_count - 1}"
        )
    crit_thr = (
        report.criticality_threshold if criticality_threshold is None else criticality_threshold
    )
    red_thr = (
        report.redundancy_threshold if redundancy_threshold is None else redundancy_threshold
    )

    position = {sensor: i for i, sensor in enumerate(topo)}
    m = len(topo)
    notes: list[CompensationNote] = []
    for ci, label in enumerate(report.classes):
        scores = report.normalized_criticality[ci]
        for sensor in range(report.channel_count):
            value = float(scores[sensor])
            if not np.isfinite(value) or value < crit_thr:
                continue
            p = position[sensor]
            left, right = topo[(p - 1) % m], topo[(p + 1) % m]
            left_score, right_score = float(scores[left]), float(scores[right])
            both_low = left_score < red_thr and right_score < red_thr
            notes.append(
                CompensationNote(
                    class_label=label,
                    sensor=sensor,
                    criticality=value,
                    neighbours=(left, right),
                    neighbour_criticality=(left_score, right_score),
                    verdict="uncompensated" if both_low else "compensated",
                )
            )
    return tuple(notes)


def run_ablation_audit(
    samples: list[WindowedSample],
    spec: AblationSpec,
    fcfg: FeatureConfig,
    fs: float,
    criticality_threshold: float = DEFAULT_CRITICALITY_THRESHOLD,
    redundancy_threshold: float = DEFAULT_REDUNDANCY_THRESHOLD,
    baselines: dict[str, FeatureMatrix] | None = None,
) -> AblationReport:
    """Evaluate every (class, sensor subset) shift and rank sensors.

    Each shift equals ``ablated_shift`` for that class and subset; it is
    derived from two per-dimension passes per class (see the module
    docstring). Output ordering is fixed (classes as configured or
    sorted, subsets smaller-first lexicographic). Pass
    ``baselines`` (per-class matrices extracted from the same windows)
    to reuse an existing feature pass.
    """
    if not samples:
        raise TooFewRowsError("no windows to audit")
    by_class: dict[str, list[WindowedSample]] = {}
    for s in samples:
        by_class.setdefault(s.class_label, []).append(s)
    classes = tuple(spec.classes) if spec.classes else tuple(sorted(by_class))
    for label in classes:
        if label not in by_class:
            raise TooFewRowsError(f"class {label!r} has no windows")
        if len(by_class[label]) < 2:
            raise TooFewRowsError(
                f"class {label!r} has {len(by_class[label])} windows, needs >= 2"
            )

    channel_count = int(samples[0].data.shape[0])
    window_len = int(samples[0].data.shape[1])
    subsets = (
        tuple(spec.sensor_subsets)
        if spec.sensor_subsets is not None
        else tuple(enumerate_subsets(channel_count, spec.combinatorial_depth))
    )
    if not subsets:
        raise EmptySpecError("no sensor subsets to ablate")
    for subset in subsets:
        for s in subset:
            if not 0 <= s < channel_count:
                raise IndexOutOfRangeError(f"sensor {s} outside [0, {channel_count})")
    topology = spec.ring_topology if spec.ring_topology else tuple(range(channel_count))

    class_windows = {label: by_class[label] for label in classes}
    expected_columns = feature_columns(channel_count, fcfg)
    resolved: dict[str, FeatureMatrix] = {}
    for label in classes:
        matrix = (baselines or {}).get(label)
        if matrix is None:
            matrix = next(
                iter(build_class_matrices(class_windows[label], fcfg, fs).values())
            )
        else:
            if matrix.column_index != expected_columns:
                raise MismatchedColumnsError(
                    f"baseline for {label!r} does not match the feature configuration"
                )
            if matrix.n_rows != len(class_windows[label]):
                raise InvalidSpecError(
                    f"baseline for {label!r} has {matrix.n_rows} rows for "
                    f"{len(class_windows[label])} windows"
                )
        resolved[label] = matrix

    constants = zero_window_features(fcfg, window_len, fs)
    terms = []  # per class: (kept, nulled) per-dimension values
    for label in classes:
        base = resolved[label]
        nulled = ablated_matrix(base, range(channel_count), fcfg, window_len, fs, constants)
        terms.append(
            (
                separability_score(base, base).terms(spec.shift_metric),
                separability_score(base, nulled).terms(spec.shift_metric),
            )
        )

    n_features = len(fcfg.enabled_features)
    block = max(1, SHIFT_BLOCK_VALUES // (channel_count * n_features))
    raw = np.empty((len(classes), len(subsets)))
    for start in range(0, len(subsets), block):
        stop = min(start + block, len(subsets))
        masks = _column_masks(subsets[start:stop], channel_count, n_features)
        for ci, (kept, gone) in enumerate(terms):
            raw[ci, start:stop], _ = reduce_terms(np.where(masks, gone, kept), spec.shift_metric)

    # Singleton shifts drive criticality; larger subsets are reported raw.
    singleton_col = {subset[0]: j for j, subset in enumerate(subsets) if len(subset) == 1}
    normalized = np.full((len(classes), channel_count), np.nan)
    for ci in range(len(classes)):
        scores = np.full(channel_count, np.nan)
        for sensor, j in singleton_col.items():
            scores[sensor] = raw[ci, j]
        finite = np.isfinite(scores)
        if finite.any():
            peak = float(np.nanmax(scores))
            if peak > 0.0:
                normalized[ci, finite] = scores[finite] / peak
            else:
                normalized[ci, finite] = 0.0

    finite_counts = np.isfinite(normalized).sum(axis=0)
    sums = np.nansum(np.where(np.isfinite(normalized), normalized, 0.0), axis=0)
    mean_crit = np.where(finite_counts > 0, sums / np.maximum(finite_counts, 1), np.nan)
    sort_key = np.where(np.isfinite(mean_crit), mean_crit, -1.0)
    ranking = tuple(sorted(range(channel_count), key=lambda s: (-sort_key[s], s)))

    redundancy_notes = {
        label: tuple(
            s
            for s in range(channel_count)
            if np.isfinite(normalized[ci, s]) and normalized[ci, s] < redundancy_threshold
        )
        for ci, label in enumerate(classes)
    }

    report = AblationReport(
        classes=classes,
        channel_count=channel_count,
        subsets=subsets,
        shift_metric=spec.shift_metric,
        raw_shift=raw,
        normalized_criticality=normalized,
        mean_criticality=mean_crit,
        ranking=ranking,
        ring_topology=topology,
        criticality_threshold=criticality_threshold,
        redundancy_threshold=redundancy_threshold,
        redundancy_notes=redundancy_notes,
    )
    report.compensation = neighbour_compensation(report)
    return report
