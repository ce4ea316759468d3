"""Distributional separability metrics between two labeled feature matrices.

Three complementary views of how far apart two sample distributions sit
in a shared feature space:

* ``f1`` — maximum per-dimension Fisher ratio (squared mean gap over
  summed population variances). Higher means more separable.
* ``f2`` — product over dimensions of the overlap fraction of the two
  value ranges (the overlapping hyper-rectangle's volume). Lower means
  more separable.
* ``f3`` — largest per-dimension non-overlap fraction. Higher means
  more separable.

Dimensions where both distributions collapse (zero summed variance, or
zero combined range) are flagged as degenerate. A zero-variance
dimension with distinct means is a perfect separator; its Fisher ratio
is reported as the finite cap ``F1_CAP``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigError,
    MismatchedColumnsError,
    TooFewClassesError,
    TooFewRowsError,
)
from .features import FeatureMatrix

F1_CAP = 1e12

SHIFT_METRICS = ("f1", "f2", "f3")


@dataclass
class SeparabilityScore:
    f1: float
    f1_argmax: int
    f2: float
    f3: float
    f3_argmax: int  # -1 when every dimension is range-degenerate
    per_dim_fisher: np.ndarray
    per_dim_overlap: np.ndarray
    per_dim_range: np.ndarray
    degenerate_dims: tuple[int, ...]

    def by_metric(self, metric: str) -> float:
        if metric not in SHIFT_METRICS:
            raise ConfigError(f"unknown metric {metric!r}; use one of {SHIFT_METRICS}")
        return {"f1": self.f1, "f2": self.f2, "f3": self.f3}[metric]

    def terms(self, metric: str) -> np.ndarray:
        """Per-dimension values that ``reduce_terms`` turns into ``metric``."""
        return metric_terms(metric, self.per_dim_fisher, self.per_dim_overlap, self.per_dim_range)


def _check_pair(target: FeatureMatrix, reference: FeatureMatrix, min_rows: int) -> None:
    if target.column_index != reference.column_index:
        raise MismatchedColumnsError(
            f"matrices for {target.class_label!r} and {reference.class_label!r} "
            "have different column maps"
        )
    for m in (target, reference):
        if m.n_rows < min_rows:
            raise TooFewRowsError(
                f"class {m.class_label!r} has {m.n_rows} rows, needs >= {min_rows}"
            )


def _fisher_per_dim(t: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    mean_gap = (t.mean(axis=0) - r.mean(axis=0)) ** 2
    var_sum = t.var(axis=0) + r.var(axis=0)  # population variance
    degenerate = var_sum == 0.0
    per_dim = np.zeros(t.shape[1])
    ok = ~degenerate
    # a rounding-level variance (e.g. identical tiny values whose mean is
    # inexact) can overflow the ratio; like zero variance, that is a
    # perfect separator
    with np.errstate(over="ignore"):
        per_dim[ok] = mean_gap[ok] / var_sum[ok]
    per_dim[np.isinf(per_dim) | (degenerate & (mean_gap > 0.0))] = F1_CAP
    return per_dim, degenerate


def _overlap_per_dim(t: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    t_lo, t_hi = t.min(axis=0), t.max(axis=0)
    r_lo, r_hi = r.min(axis=0), r.max(axis=0)
    overlap = np.maximum(0.0, np.minimum(t_hi, r_hi) - np.maximum(t_lo, r_lo))
    span = np.maximum(t_hi, r_hi) - np.minimum(t_lo, r_lo)
    return overlap, span


def metric_terms(
    metric: str, fisher: np.ndarray, overlap: np.ndarray, span: np.ndarray
) -> np.ndarray:
    """Per-dimension values that ``reduce_terms`` turns into ``metric``.

    f1: the Fisher ratios. f2: the overlap fractions, 1.0 where the
    combined range is zero. f3: the non-overlap fractions, -inf there.
    Works on any leading shape; the dimensions are the last axis.
    """
    if metric == "f1":
        return fisher
    live = span > 0.0
    ratio = np.divide(overlap, span, out=np.zeros_like(overlap), where=live)
    if metric == "f2":
        return np.where(live, ratio, 1.0)
    return np.where(live, 1.0 - ratio, -np.inf)


def reduce_terms(terms: np.ndarray, metric: str) -> tuple[np.ndarray, np.ndarray]:
    """Each row of ``metric_terms`` values reduced to ``metric``, and the
    deciding column (-1 for f2, and for f3 when no column has a range).

    f1 is the value at the first argmax; f2 the product, where a 1.0
    placeholder changes no bit because numpy multiplies a row in order; f3
    the largest value, 0.0 when every column is range-degenerate.
    """
    if metric == "f2":
        return np.prod(terms, axis=1), np.full(terms.shape[0], -1)
    idx = np.argmax(terms, axis=1)
    best = terms[np.arange(terms.shape[0]), idx]
    if metric == "f3":
        none = best == -np.inf
        best[none] = 0.0
        idx[none] = -1
    return best, idx


def _score(target: FeatureMatrix, reference: FeatureMatrix, min_rows: int) -> SeparabilityScore:
    _check_pair(target, reference, min_rows)
    t, r = target.values, reference.values
    fisher, var_degenerate = _fisher_per_dim(t, r)
    overlap, span = _overlap_per_dim(t, r)
    (f1,), (f1_idx,) = reduce_terms(fisher[None], "f1")
    (f2,), _ = reduce_terms(metric_terms("f2", fisher, overlap, span)[None], "f2")
    (f3,), (f3_idx,) = reduce_terms(metric_terms("f3", fisher, overlap, span)[None], "f3")
    degenerate = tuple(int(i) for i in np.flatnonzero(var_degenerate | ~(span > 0.0)))
    return SeparabilityScore(
        f1=float(f1),
        f1_argmax=int(f1_idx),
        f2=float(f2),
        f3=float(f3),
        f3_argmax=int(f3_idx),
        per_dim_fisher=fisher,
        per_dim_overlap=overlap,
        per_dim_range=span,
        degenerate_dims=degenerate,
    )


def separability_score(target: FeatureMatrix, reference: FeatureMatrix) -> SeparabilityScore:
    """All three metrics in one pass over the two matrices."""
    return _score(target, reference, min_rows=2)


def max_fisher_ratio(
    target: FeatureMatrix, reference: FeatureMatrix
) -> tuple[float, int, np.ndarray]:
    """(f1, argmax column, per-dimension ratios). Needs >= 2 rows per side."""
    s = _score(target, reference, min_rows=2)
    return s.f1, s.f1_argmax, s.per_dim_fisher


def overlap_volume(
    target: FeatureMatrix, reference: FeatureMatrix
) -> tuple[float, np.ndarray, np.ndarray]:
    """(f2, per-dimension overlap, per-dimension range). Needs >= 1 row."""
    s = _score(target, reference, min_rows=1)
    return s.f2, s.per_dim_overlap, s.per_dim_range


def feature_efficiency(
    target: FeatureMatrix, reference: FeatureMatrix
) -> tuple[float, int]:
    """(f3, argmax column). Needs >= 1 row per side."""
    s = _score(target, reference, min_rows=1)
    return s.f3, s.f3_argmax


@dataclass
class PairResult:
    target: str
    reference: str
    score: SeparabilityScore
    normalized_fdr: float = float("nan")

    @property
    def raw_fdr(self) -> float:
        return self.score.f1


@dataclass
class PairwiseAudit:
    mode: str  # "one-vs-one" or "one-vs-rest"
    results: list[PairResult] = field(default_factory=list)

    @property
    def class_pairs(self) -> list[tuple[str, str]]:
        return [(r.target, r.reference) for r in self.results]

    def result_for(self, target: str, reference: str) -> PairResult:
        for r in self.results:
            if (r.target, r.reference) == (target, reference):
                return r
        raise KeyError((target, reference))


def _pool_rest(matrices: list[FeatureMatrix]) -> FeatureMatrix:
    first = matrices[0]
    values = np.vstack([m.values for m in matrices])
    provenance = tuple(p for m in matrices for p in m.row_provenance)
    return FeatureMatrix(values, "rest", first.column_index, provenance)


def pairwise_audit(
    matrices: dict[str, FeatureMatrix], mode: str = "one-vs-one"
) -> PairwiseAudit:
    """Score every class pair (or each class against the pooled rest).

    Pairs are ordered lexicographically by class name. The normalized
    Fisher ratio divides each pair's f1 by the maximum f1 within this
    audit, so the top pair reads exactly 1.0 (all zeros stay zero).
    """
    if len(matrices) < 2:
        raise TooFewClassesError(f"need >= 2 classes, got {len(matrices)}")
    labels = sorted(matrices)

    results: list[PairResult] = []
    if mode == "one-vs-one":
        for a, b in itertools.combinations(labels, 2):
            results.append(PairResult(a, b, separability_score(matrices[a], matrices[b])))
    elif mode == "one-vs-rest":
        for a in labels:
            rest = _pool_rest([matrices[b] for b in labels if b != a])
            results.append(PairResult(a, "rest", separability_score(matrices[a], rest)))
    else:
        raise ConfigError(f"unknown audit mode {mode!r}")

    peak = max(r.raw_fdr for r in results)
    for r in results:
        r.normalized_fdr = r.raw_fdr / peak if peak > 0.0 else 0.0
    return PairwiseAudit(mode=mode, results=results)
