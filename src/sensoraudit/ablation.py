"""Simulated sensor failure and per-sensor criticality ranking.

A sensor is crucial to a class when the class's max-FDR separability
drops as it fails: f1, the largest per-column Fisher ratio (Ho & Basu
2002, *IEEE TPAMI* 24(3)), of the class against the pooled rest, as the
complexity stage's one-vs-rest audit scores it.

A failed sensor reads zero in every class, so each of its feature
columns holds the all-zero window's value (0.0, -0.0 or 1.0; see
``features``) in every row of the class and of the rest: equal exact
means, no variance, ratio 0. Every other column keeps its ratio. With
``m_c`` the largest ratio among channel c's columns, losing sensors S
costs ``f1 - max(m_c for c not in S)``, with f1 the max of every
``m_c`` and the max over no channel 0. That is bitwise the f1 drop of
nullifying S in every class and scoring each class against the rest
again, read off the C values ``m_c`` with no Fisher pass of its own.

* Only a class's top sensor has a nonzero singleton loss: f1 minus the
  runner-up's ``m_c``. The subsets are every sensor set of size 1 ..
  ``combinatorial_depth``; the worst loss over d failures is f1 minus
  the (d+1)-th largest ``m_c``.
* Criticality is ``m_c / f1`` (0 when f1 is 0): 1 for the top sensor,
  near 1 for a runner-up that can replace it.
* The global ranking orders sensors by the class mean of ``log1p(m_c)``,
  ties by index. The log bounds a column at ``F1_CAP`` (a perfect
  separator) to log1p(1e12) ~ 27.6.
"""

import itertools
from collections.abc import Collection
from dataclasses import dataclass, field

import numpy as np

from .config import JsonConfig
from .errors import ConfigError, InvalidSpecError, TooFewRowsError, TopologyMismatchError
from .separability import PairwiseAudit

DEFAULT_CRITICALITY_THRESHOLD = 0.8
DEFAULT_REDUNDANCY_THRESHOLD = 0.3
SHIFT_METRIC = "f1"  # the separability whose loss the artifacts report


@dataclass(frozen=True)
class AblationSpec(JsonConfig):
    combinatorial_depth: int = 1
    classes: tuple[str, ...] | None = None
    ring_topology: tuple[int, ...] | None = None

    def check_bounds(self) -> None:
        self.check_positive_ints("combinatorial_depth")
        if self.classes is not None and not self.classes:
            raise InvalidSpecError("classes must be nonempty or null")
        if self.classes is not None and len(set(self.classes)) != len(self.classes):
            raise InvalidSpecError("classes must be unique")


def check_scope(spec: AblationSpec, channel_count: int, classes: Collection[str]) -> None:
    """Refuse an ablation config that does not fit the data: a class it
    names that is not among ``classes`` (the classes with windows), or a
    ring topology that is not a permutation of the ``channel_count``
    channels. It needs no feature, so a run can check it right after
    ingest."""
    for label in spec.classes or ():
        if label not in classes:
            raise TooFewRowsError(f"class {label!r} has no windows")
    topo = spec.ring_topology
    if topo is not None and sorted(topo) != list(range(channel_count)):
        raise TopologyMismatchError(
            f"ring_topology {topo} is not a permutation of 0..{channel_count - 1}"
        )


def enumerate_subsets(channel_count: int, depth: int) -> list[tuple[int, ...]]:
    """All sensor subsets of size 1..depth, smaller sizes first, each in
    lexicographic index order. A depth past ``channel_count`` adds none."""
    out: list[tuple[int, ...]] = []
    for size in range(1, min(depth, channel_count) + 1):
        out.extend(itertools.combinations(range(channel_count), size))
    return out


@dataclass
class CompensationNote:
    class_label: str
    sensor: int
    criticality: float
    neighbours: tuple[int, ...]  # ring left, ring right; none on a one-sensor ring
    neighbour_criticality: tuple[float, ...]
    verdict: str  # "compensated" | "uncompensated"


@dataclass(eq=False)
class AblationReport:
    classes: tuple[str, ...]
    channel_count: int
    subsets: tuple[tuple[int, ...], ...]
    raw_shift: np.ndarray  # classes x subsets: each subset's f1 loss
    normalized_criticality: np.ndarray  # classes x channels: m_c / f1
    mean_log1p_max_fdr: np.ndarray  # channels: class mean of log1p(m_c)
    ranking: tuple[int, ...]
    ring_topology: tuple[int, ...]
    criticality_threshold: float
    redundancy_threshold: float
    redundancy_notes: dict[str, tuple[int, ...]] = field(default_factory=dict)
    compensation: tuple[CompensationNote, ...] = ()


def neighbour_compensation(report: AblationReport) -> tuple[CompensationNote, ...]:
    """Ring-neighbour check for every critical sensor of every class, on
    the report's own ring topology and thresholds.

    A critical sensor is ``uncompensated`` when every ring neighbour sits
    below the redundancy threshold, ``compensated`` otherwise. A sensor is
    never its own neighbour, so the one sensor of a one-channel ring has
    none and is ``uncompensated``.
    """
    topo = tuple(report.ring_topology)
    check_scope(AblationSpec(ring_topology=topo), report.channel_count, report.classes)
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
            neighbours = (topo[(p - 1) % m], topo[(p + 1) % m]) if m > 1 else ()
            neighbour_scores = tuple(float(scores[s]) for s in neighbours)
            all_low = all(v < red_thr for v in neighbour_scores)
            notes.append(
                CompensationNote(
                    class_label=label,
                    sensor=sensor,
                    criticality=value,
                    neighbours=neighbours,
                    neighbour_criticality=neighbour_scores,
                    verdict="uncompensated" if all_low else "compensated",
                )
            )
    return tuple(notes)


def run_ablation_audit(
    audit: PairwiseAudit,
    channel_count: int,
    spec: AblationSpec,
    criticality_threshold: float = DEFAULT_CRITICALITY_THRESHOLD,
    redundancy_threshold: float = DEFAULT_REDUNDANCY_THRESHOLD,
) -> AblationReport:
    """Every (class, sensor subset) f1 loss, criticality and ranking.

    ``audit`` is the one-vs-rest ``pairwise_audit`` of the run's per-class
    matrices, whose columns are channel-major over ``channel_count``
    channels. Every loss is read off its per-channel maxima (see the
    module docstring). Output ordering is fixed (classes as configured or
    sorted, subsets as ``enumerate_subsets``).
    """
    if audit.mode != "one-vs-rest":
        raise ConfigError(f"the ablation reads a one-vs-rest audit, got {audit.mode!r}")
    by_class = {r.target: r.score.per_dim_fisher for r in audit.results}
    classes = spec.classes or tuple(by_class)
    check_scope(spec, channel_count, by_class)
    subsets = tuple(enumerate_subsets(channel_count, spec.combinatorial_depth))
    topology = spec.ring_topology if spec.ring_topology is not None else tuple(range(channel_count))

    max_fdr = np.array([by_class[label].reshape(channel_count, -1).max(axis=1) for label in classes])
    peak = max_fdr.max(axis=1, keepdims=True)
    failed = np.zeros((len(subsets), channel_count), dtype=bool)
    for k, subset in enumerate(subsets):
        failed[k, list(subset)] = True
    raw = peak - np.where(failed, 0.0, max_fdr[:, None, :]).max(axis=-1)

    normalized = np.divide(max_fdr, peak, out=np.zeros_like(max_fdr), where=peak > 0.0)
    mean_log = np.log1p(max_fdr).mean(axis=0)
    ranking = tuple(sorted(range(channel_count), key=lambda s: (-mean_log[s], s)))
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
        mean_log1p_max_fdr=mean_log,
        ranking=ranking,
        ring_topology=topology,
        criticality_threshold=criticality_threshold,
        redundancy_threshold=redundancy_threshold,
        redundancy_notes=redundancy_notes,
    )
    report.compensation = neighbour_compensation(report)
    return report
