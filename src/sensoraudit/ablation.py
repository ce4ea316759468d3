"""Simulated sensor failure and per-sensor criticality ranking.

A failed sensor reads zero. Every feature is computed per channel, so
after a failure that channel's feature columns hold the feature values of
an all-zero window (the *failed row*, one value per feature) in every row
and the other columns are unchanged. A subset's shift is the maximum
Fisher ratio (f1) between the class's intact feature matrix and that
ablated matrix.

``run_ablation_audit`` reads the per-class matrices of the run's one
feature pass and needs one ``separability_score`` call per class: the
matrix against one whose every row holds the failed row on every channel.

* A kept column is compared with itself: its mean gap is exactly zero,
  so its Fisher ratio is 0.0 and never raises the maximum.
* A failed column's ratio depends only on that column of the two
  matrices, so it is the same float whichever other sensors fail.

So a sensor's shift is the max of its feature columns' ratios, and a
subset's shift is the max of its members' shifts, bitwise equal to
scoring each ablated matrix on its own. The subsets are every sensor
set of size 1 .. ``combinatorial_depth``, so depth > 1 adds no
information under f1; the larger subsets are still reported. The f2 and
f3 shifts are not offered: against a point mass every cell reads f2 = 0
and f3 = 1, which ranks sensors by index.

Criticality is each sensor's shift divided by its class's largest (0
when every shift of the class is 0), so it is 1 for the top sensor of a
class with any positive shift; the global ranking orders sensors by the
mean of those normalized scores across classes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    MismatchedColumnsError,
    TooFewRowsError,
    TopologyMismatchError,
)
from .features import FeatureMatrix
from .ingest import JsonConfig
from .separability import separability_score

DEFAULT_CRITICALITY_THRESHOLD = 0.8
DEFAULT_REDUNDANCY_THRESHOLD = 0.3
SHIFT_METRIC = "f1"  # the one shift the artifacts report


@dataclass
class AblationSpec(JsonConfig):
    combinatorial_depth: int = 1
    classes: list[str] | None = None
    ring_topology: tuple[int, ...] | None = None

    def check_bounds(self) -> None:
        self.check_positive_ints("combinatorial_depth")
        if self.ring_topology is not None:
            self.ring_topology = tuple(self.ring_topology)


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
    raw_shift: np.ndarray  # classes x subsets
    normalized_criticality: np.ndarray  # classes x channels
    mean_criticality: np.ndarray  # channels
    ranking: tuple[int, ...]
    ring_topology: tuple[int, ...]
    criticality_threshold: float
    redundancy_threshold: float
    redundancy_notes: dict[str, tuple[int, ...]] = field(default_factory=dict)
    compensation: tuple[CompensationNote, ...] = ()


def neighbour_compensation(report: AblationReport) -> tuple[CompensationNote, ...]:
    """Ring-neighbour check for every critical sensor of every class, on
    the report's own ring topology and thresholds.

    A critical sensor is ``uncompensated`` when both ring neighbours sit
    below the redundancy threshold, ``compensated`` otherwise.
    """
    topo = tuple(report.ring_topology)
    if sorted(topo) != list(range(report.channel_count)):
        raise TopologyMismatchError(
            f"topology {topo} is not a permutation of 0..{report.channel_count - 1}"
        )
    crit_thr, red_thr = report.criticality_threshold, report.redundancy_threshold

    position = {sensor: i for i, sensor in enumerate(topo)}
    m = len(topo)
    notes: list[CompensationNote] = []
    for ci, label in enumerate(report.classes):
        scores = report.normalized_criticality[ci]
        for sensor in range(report.channel_count):
            value = float(scores[sensor])
            if value < crit_thr:
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
    matrices: dict[str, FeatureMatrix],
    spec: AblationSpec,
    failed_row: np.ndarray,
    criticality_threshold: float = DEFAULT_CRITICALITY_THRESHOLD,
    redundancy_threshold: float = DEFAULT_REDUNDANCY_THRESHOLD,
) -> AblationReport:
    """Evaluate every (class, sensor subset) shift and rank sensors.

    ``matrices`` are the per-class feature matrices (``build_class_matrices``)
    and ``failed_row`` the F feature values a dead sensor's columns read
    (``zero_window_features`` at the run's window length). Every audited
    class must share one channel-major column map of C * F columns, or
    ``MismatchedColumnsError`` is raised.

    One ``separability_score`` call per class gives every sensor's shift;
    a subset's shift is the max of its members' (see the module
    docstring). Output ordering is fixed (classes as configured or
    sorted, subsets as ``enumerate_subsets``).
    """
    classes = tuple(spec.classes) if spec.classes else tuple(sorted(matrices))
    if not classes:
        raise TooFewRowsError("no windows to audit")
    for label in classes:
        if label not in matrices:
            raise TooFewRowsError(f"class {label!r} has no windows")
        n_rows = matrices[label].n_rows
        if n_rows < 2:
            raise TooFewRowsError(f"class {label!r} has {n_rows} windows, needs >= 2")

    columns = matrices[classes[0]].column_index
    width = len(failed_row)
    channel_count = len(columns) // width if width else 0
    names = [name for _, name in columns[:width]]
    if (
        not channel_count
        or columns != tuple((ch, name) for ch in range(channel_count) for name in names)
        or any(matrices[label].column_index != columns for label in classes)
    ):
        raise MismatchedColumnsError(
            f"classes {classes} do not share one channel-major column map "
            f"of C * {width} columns for a {width}-value failed row"
        )
    subsets = tuple(enumerate_subsets(channel_count, spec.combinatorial_depth))
    topology = spec.ring_topology if spec.ring_topology else tuple(range(channel_count))

    failed_values = np.tile(failed_row, channel_count)
    sensor_shift = np.empty((len(classes), channel_count))
    for ci, label in enumerate(classes):
        base = matrices[label]
        failed = replace(base, values=np.broadcast_to(failed_values, base.values.shape))
        fisher = separability_score(base, failed).per_dim_fisher
        sensor_shift[ci] = fisher.reshape(channel_count, -1).max(axis=1)
    # pad each subset with its first member, which leaves its max alone
    width = max(len(subset) for subset in subsets)
    members = np.array([subset + subset[:1] * (width - len(subset)) for subset in subsets])
    raw = sensor_shift[:, members].max(axis=2)

    peak = sensor_shift.max(axis=1, keepdims=True)
    normalized = np.divide(sensor_shift, peak, out=np.zeros_like(sensor_shift), where=peak > 0.0)
    mean_crit = normalized.mean(axis=0)
    ranking = tuple(sorted(range(channel_count), key=lambda s: (-mean_crit[s], s)))
    redundancy_notes = {
        label: tuple(np.flatnonzero(normalized[ci] < redundancy_threshold).tolist())
        for ci, label in enumerate(classes)
    }

    report = AblationReport(
        classes=classes,
        channel_count=channel_count,
        subsets=subsets,
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
