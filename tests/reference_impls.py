"""Naive reference implementations used as independent oracles.

Plain-Python loops, written without reusing any library helpers, so a
bug in the vectorized code cannot hide in its own mirror. The one
exception is the per-cell ablation reference at the end: it zero-fills
windows and scores one ablated matrix per (class, subset), the path the
closed-form ablation audit replaces.
"""

import math

from sensoraudit.errors import InvalidSpecError, TooFewRowsError
from sensoraudit.features import FeatureMatrix, build_class_matrices, zero_window_features
from sensoraudit.ingest import Windows
from sensoraudit.separability import separability_score


class IndexOutOfRangeError(ValueError):
    """A sensor index outside the recording's channels."""


def naive_mean(xs):
    return sum(xs) / len(xs)


def naive_pop_var(xs):
    m = naive_mean(xs)
    return sum((x - m) ** 2 for x in xs) / len(xs)


def naive_fisher(target_rows, reference_rows, cap=1e12):
    """Per-dimension Fisher ratios and their max over all dimensions."""
    dims = len(target_rows[0])
    per_dim = []
    for k in range(dims):
        t = [row[k] for row in target_rows]
        r = [row[k] for row in reference_rows]
        gap = (naive_mean(t) - naive_mean(r)) ** 2
        vsum = naive_pop_var(t) + naive_pop_var(r)
        if vsum == 0.0:
            per_dim.append(cap if gap > 0.0 else 0.0)
        else:
            per_dim.append(gap / vsum)
    best = max(range(dims), key=lambda k: per_dim[k])
    return per_dim[best], best, per_dim


def naive_overlap_range(target_rows, reference_rows, k):
    t = [row[k] for row in target_rows]
    r = [row[k] for row in reference_rows]
    overlap = min(max(t), max(r)) - max(min(t), min(r))
    if overlap < 0.0:
        overlap = 0.0
    span = max(max(t), max(r)) - min(min(t), min(r))
    return overlap, span


def naive_f2(target_rows, reference_rows):
    dims = len(target_rows[0])
    product = 1.0
    any_live = False
    for k in range(dims):
        overlap, span = naive_overlap_range(target_rows, reference_rows, k)
        if span > 0.0:
            any_live = True
            product *= overlap / span
    return product if any_live else 1.0


def naive_f3(target_rows, reference_rows):
    dims = len(target_rows[0])
    best = 0.0
    found = False
    for k in range(dims):
        overlap, span = naive_overlap_range(target_rows, reference_rows, k)
        if span > 0.0:
            value = 1.0 - overlap / span
            if not found or value > best:
                best, found = value, True
    return best if found else 0.0


def naive_sample_entropy(xs, m, r):
    """Ordered-pair template counting with Chebyshev distance."""
    n = len(xs)
    q = n - m
    b = 0
    a = 0
    for i in range(q):
        for j in range(q):
            if i == j:
                continue
            d = 0.0
            for off in range(m):
                step = abs(xs[i + off] - xs[j + off])
                if step > d:
                    d = step
            if d <= r:
                b += 1
                step = abs(xs[i + m] - xs[j + m])
                if max(d, step) <= r:
                    a += 1
    if a == 0 or b == 0:
        return math.log((n - m) * (n - m - 1)), True
    return -math.log(a / b), False


def naive_katz(xs):
    """Step-by-step Katz dimension of the planar curve (i, x_i)."""
    n = len(xs) - 1
    if n < 1:
        return 1.0
    length = 0.0
    for i in range(n):
        length += math.sqrt(1.0 + (xs[i + 1] - xs[i]) ** 2)
    extent = 0.0
    for i in range(1, len(xs)):
        d = math.sqrt(i * i + (xs[i] - xs[0]) ** 2)
        if d > extent:
            extent = d
    if extent >= length:
        return 1.0
    denominator = math.log10(n) + math.log10(extent / length)
    if denominator <= 0.0:
        return 10.0
    return math.log10(n) / denominator


def enumerate_window_starts(total, width, stride):
    starts = []
    s = 0
    while s + width <= total:
        starts.append(s)
        s += stride
    return starts


def _sensor_indices(sensors, channel_count):
    idx = sorted(set(int(s) for s in sensors))
    for s in idx:
        if not 0 <= s < channel_count:
            raise IndexOutOfRangeError(f"sensor {s} outside [0, {channel_count})")
    return idx


def nullify(windows, sensors):
    """Copy of the windows with the listed channels zero-filled."""
    data = windows.data.copy()
    data[:, _sensor_indices(sensors, data.shape[1]), :] = 0.0
    return Windows(data, windows.labels, windows.provenance)


def ablated_matrix(baseline, sensors, cfg, window_len, fs):
    """Feature matrix after nullifying ``sensors`` in every window: the
    nullified channels' column blocks hold the all-zero window's values."""
    n_features = len(cfg.enabled_features)
    values = baseline.values.copy()
    constants = zero_window_features(cfg, window_len, fs)
    for s in _sensor_indices(sensors, baseline.n_columns // n_features):
        values[:, s * n_features : (s + 1) * n_features] = constants
    return FeatureMatrix(values, baseline.class_label, baseline.column_index, baseline.row_provenance)


def ablated_shift(class_samples, sensors, fcfg, fs, metric="f1", baseline=None):
    """Per-cell shift of one class: ``metric`` ("f1", "f2" or "f3") of
    its baseline against the matrix with ``sensors`` nullified."""
    if len(class_samples) < 2:
        raise TooFewRowsError(f"class needs >= 2 windows, got {len(class_samples)}")
    if baseline is None:
        matrices = build_class_matrices(class_samples, fcfg, fs)
        if len(matrices) != 1:
            raise InvalidSpecError("ablated_shift expects samples from a single class")
        (baseline,) = matrices.values()
    window_len = int(class_samples.data.shape[2])
    ablated = ablated_matrix(baseline, sensors, fcfg, window_len, fs)
    return getattr(separability_score(baseline, ablated), metric)
