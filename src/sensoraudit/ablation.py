"""Simulated sensor failure and per-sensor criticality ranking.

A failed sensor reads zero. Every feature is computed per channel, so
after a failure that channel's feature columns hold the all-zero-window
constants (``zero_window_features``) in every row and the other columns
are unchanged. A subset's shift is the maximum Fisher ratio (f1)
between the class's intact feature matrix and that ablated matrix.

``run_ablation_audit`` needs one ``separability_score`` call per class:
the baseline against a matrix whose every row holds the constants.

* A kept column is compared with itself: its mean gap is exactly zero,
  so its Fisher ratio is 0.0 and never raises the maximum.
* A failed column's ratio depends only on that column of the two
  matrices, so it is the same float whichever other sensors fail.

So a sensor's shift is the max of its feature columns' ratios, and a
subset's shift is the max of its members' shifts, bitwise equal to
scoring each ablated matrix on its own. Depth > 1 therefore adds no
information under f1; the subsets are still reported. The f2 and f3
shifts are not offered: against a point mass every cell reads f2 = 0
and f3 = 1, which ranks sensors by index.

Criticality is the per-class normalized singleton shift (max per class
is 1 whenever any shift is positive); the global ranking orders sensors
by the mean of those normalized scores across classes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace

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
from .separability import separability_score

DEFAULT_CRITICALITY_THRESHOLD = 0.8
DEFAULT_REDUNDANCY_THRESHOLD = 0.3

SHIFT_METRICS = ("f1",)


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
                f"shift_metric must be one of {SHIFT_METRICS}, got {self.shift_metric!r}: "
                "f2 and f3 read 0 and 1 in every cell against a failed sensor, "
                "so they cannot rank sensors"
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

    One ``separability_score`` call per class gives every sensor's shift;
    a subset's shift is the max of its members' (see the module
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

    # every row of a failed matrix holds the zero-window constants
    constants = np.tile(zero_window_features(fcfg, window_len, fs), channel_count)
    sensor_shift = np.empty((len(classes), channel_count))
    for ci, label in enumerate(classes):
        base = resolved[label]
        failed = replace(base, values=np.broadcast_to(constants, base.values.shape))
        fisher = separability_score(base, failed).per_dim_fisher
        sensor_shift[ci] = fisher.reshape(channel_count, -1).max(axis=1)
    # pad each subset with its first member, which leaves its max alone
    width = max(len(subset) for subset in subsets)
    members = np.array([subset + subset[:1] * (width - len(subset)) for subset in subsets])
    raw = sensor_shift[:, members].max(axis=2)

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
