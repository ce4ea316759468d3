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
is reported as the finite cap ``F1_CAP``. Each dimension is scaled by
the power of two that puts its largest magnitude in [0.5, 1) before
anything is squared, so a dimension scaled by 2**k keeps its ratio
whether its squares would overflow (features near 1e155) or underflow
(near 1e-163).
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


@dataclass(eq=False)
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


def _check_pair(target: FeatureMatrix, reference: FeatureMatrix) -> None:
    if target.column_index != reference.column_index:
        raise MismatchedColumnsError(
            f"matrices for {target.class_label!r} and {reference.class_label!r} "
            "have different column maps"
        )
    for m in (target, reference):
        if m.n_rows < 2:
            raise TooFewRowsError(f"class {m.class_label!r} has {m.n_rows} rows, needs >= 2")


def fisher_per_dim(t: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-column Fisher ratio of the rows ``t`` against the rows ``r``
    (either may be a single row), and which columns have zero summed
    variance.

    Each column of both is first scaled by the power of two that puts its
    largest magnitude in [0.5, 1). That is exact and scales gap and
    variance alike, and a column scaled by 2**k scales to the same column,
    so its squares neither overflow nor underflow with k.
    """
    peak = np.maximum(np.abs(t).max(axis=0), np.abs(r).max(axis=0))
    shift = -np.frexp(peak)[1]
    t, r = np.ldexp(t, shift), np.ldexp(r, shift)
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


def separability_score(target: FeatureMatrix, reference: FeatureMatrix) -> SeparabilityScore:
    """All three metrics in one pass over the two matrices."""
    _check_pair(target, reference)
    t, r = target.values, reference.values
    fisher, var_degenerate = fisher_per_dim(t, r)
    overlap, span = _overlap_per_dim(t, r)
    live = span > 0.0
    ratio = np.divide(overlap, span, out=np.zeros_like(overlap), where=live)
    # f2: a 1.0 placeholder changes no bit because numpy multiplies in order
    f2 = np.prod(np.where(live, ratio, 1.0))
    f1_idx = int(np.argmax(fisher))
    non_overlap = np.where(live, 1.0 - ratio, -np.inf)
    f3_idx = int(np.argmax(non_overlap))
    f3 = non_overlap[f3_idx]
    if f3 == -np.inf:  # every dimension is range-degenerate
        f3, f3_idx = 0.0, -1
    degenerate = tuple(int(i) for i in np.flatnonzero(var_degenerate | ~live))
    return SeparabilityScore(
        f1=float(fisher[f1_idx]),
        f1_argmax=f1_idx,
        f2=float(f2),
        f3=float(f3),
        f3_argmax=f3_idx,
        per_dim_fisher=fisher,
        per_dim_overlap=overlap,
        per_dim_range=span,
        degenerate_dims=degenerate,
    )


@dataclass(eq=False)
class PairResult:
    target: str
    reference: str
    score: SeparabilityScore
    normalized_fdr: float = float("nan")

    @property
    def raw_fdr(self) -> float:
        return self.score.f1


@dataclass(eq=False)
class PairwiseAudit:
    mode: str  # "one-vs-one" or "one-vs-rest"
    results: list[PairResult] = field(default_factory=list)


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
