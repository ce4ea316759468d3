"""Per-channel signal features and per-class feature matrices.

Nine extractors, each a pure function of one channel's window. Degenerate
inputs map to fixed finite values so that a matrix built from nullified
(all-zero) channels stays finite:

====================  =======================================
extractor             constant-signal value
====================  =======================================
shannon_entropy       0.0
sample_entropy        -0.0 (all templates match: -ln 1)
zero_crossings        0
waveform_length       0.0
rms                   |c|
slope_sign_changes    0
median_frequency      0.0 Hz
wavelet_energy        0.0
fractal_dimension     1.0
====================  =======================================

Feature columns are channel-major: all features of channel 0, then all
features of channel 1, ... so one channel's columns form a contiguous
block.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import (
    DataFormatError,
    InconsistentChannelCountError,
    InvalidSpecError,
    WindowTooShortError,
)
from .ingest import WindowedSample

FEATURE_NAMES: tuple[str, ...] = (
    "shannon_entropy",
    "sample_entropy",
    "zero_crossings",
    "waveform_length",
    "rms",
    "slope_sign_changes",
    "median_frequency",
    "wavelet_energy",
    "fractal_dimension",
)

_SQRT2 = math.sqrt(2.0)
_EPS = float(np.finfo(float).eps)

# Candidate template pairs that sample_entropy confirms per step.
SAMPEN_CHUNK_PAIRS = 1 << 18

# Near-unreachable guard: the Katz denominator can only collapse for
# degenerate float cases; curve extent never exceeds curve length.
FRACTAL_DIMENSION_MAX = 10.0


@dataclass(frozen=True)
class FeatureConfig:
    entropy_bins: int = 128
    sampen_m: int = 2
    sampen_r_coeff: float = 0.2
    zc_threshold: float = 0.0
    ssc_threshold: float = 0.0
    wavelet_levels: int = 4
    enabled_features: tuple[str, ...] = FEATURE_NAMES

    def __post_init__(self) -> None:
        for name, value in (
            ("entropy_bins", self.entropy_bins),
            ("sampen_m", self.sampen_m),
            ("wavelet_levels", self.wavelet_levels),
        ):
            if value < 1:
                raise InvalidSpecError(f"{name} must be a positive integer")
        if self.sampen_r_coeff <= 0:
            raise InvalidSpecError("sampen_r_coeff must be positive")
        if self.zc_threshold < 0 or self.ssc_threshold < 0:
            raise InvalidSpecError("thresholds must be nonnegative")
        enabled = tuple(self.enabled_features)
        unknown = [f for f in enabled if f not in FEATURE_NAMES]
        if unknown:
            raise InvalidSpecError(f"unknown features: {', '.join(unknown)}")
        if len(set(enabled)) != len(enabled) or not enabled:
            raise InvalidSpecError("enabled_features must be a nonempty set of names")
        object.__setattr__(self, "enabled_features", enabled)

    @classmethod
    def from_json_dict(cls, d: dict) -> "FeatureConfig":
        unknown = sorted(set(d) - set(cls.__dataclass_fields__))
        if unknown:
            raise InvalidSpecError(f"unknown FeatureConfig fields: {', '.join(unknown)}")
        d = dict(d)
        if "enabled_features" in d:
            d["enabled_features"] = tuple(d["enabled_features"])
        return cls(**d)

    def to_json_dict(self) -> dict:
        return {
            "entropy_bins": self.entropy_bins,
            "sampen_m": self.sampen_m,
            "sampen_r_coeff": self.sampen_r_coeff,
            "zc_threshold": self.zc_threshold,
            "ssc_threshold": self.ssc_threshold,
            "wavelet_levels": self.wavelet_levels,
            "enabled_features": list(self.enabled_features),
        }


def shannon_entropy(signal: np.ndarray, bins: int = 128) -> float:
    """Histogram entropy in bits over equal-width bins spanning [min, max]."""
    x = np.asarray(signal, dtype=float)
    lo = float(x.min())
    hi = float(x.max())
    if hi == lo:
        return 0.0
    counts, _ = np.histogram(x, bins=bins, range=(lo, hi))
    p = counts[counts > 0] / x.size
    return float(-(p * np.log2(p)).sum())


def sampen_cap(n: int, m: int) -> float:
    """Value reported when no template pair matches at length m or m+1."""
    return math.log((n - m) * (n - m - 1))


def sample_entropy(
    signal: np.ndarray,
    m: int = 2,
    r_coeff: float = 0.2,
    with_flag: bool = False,
):
    """Sample entropy with Chebyshev distance and tolerance r_coeff * SD.

    Counts ordered template pairs (self-matches excluded) of length m (B)
    and m+1 (A) within tolerance r and returns -ln(A/B), as defined by
    Richman & Moorman 2000 (Am J Physiol 278:H2039). When either count
    is zero the analytic cap ln((n-m)(n-m-1)) is returned; pass
    ``with_flag=True`` to also receive that cappedness as a boolean.

    Pairs are prefiltered on the first template coordinate, as in Manis,
    Aktaruzzaman & Sassi 2018 (Entropy 20:61): the first values of the
    templates are sorted and a binary search finds, for each one, the
    later sorted values that may lie within r. The search tolerance is
    widened by a few ulps, so it can only add candidates. Each candidate
    pair is then confirmed coordinate by coordinate with the same
    ``|x[i] - x[j]| <= r`` comparisons as the definition, so the integer
    counts are exact. Unordered pairs are counted once; the ordered
    counts are twice these, which leaves A/B unchanged.

    Cost is about W log W for the sort plus the candidate pairs, which
    stays far below W^2 on signals that spread over more than r; it
    reaches W^2 only when almost every value lies within r of every
    other. Candidates are confirmed in chunks of ``SAMPEN_CHUNK_PAIRS``,
    so working memory is O(W + chunk) either way. A window whose values
    are all equal returns -ln(1) = -0.0 at once.
    """
    x = np.asarray(signal, dtype=float)
    n = x.size
    if n <= m + 1:
        raise WindowTooShortError(f"sample_entropy needs > {m + 1} samples, got {n}")
    r = r_coeff * float(x.std())
    if not r >= 0.0 or x.min() == x.max():
        # Equal values: every template matches, so A == B. With a NaN or
        # negative tolerance no comparison holds, not even a template with
        # itself; B and A, matches minus the q self-matches, are then both
        # -q. Either way the value is -ln(1).
        value = -math.log(1.0)
        return (value, False) if with_flag else value

    q = n - m  # templates of both lengths start at 0 .. q-1
    order = np.argsort(x[:q])
    first = x[:q][order]
    # Covers the rounding of first + r and of each difference, so every
    # pair whose computed |x[i] - x[j]| is <= r is among the candidates.
    slack = 4.0 * _EPS * (r + max(abs(first[0]), abs(first[-1])))
    reach = np.searchsorted(first, first + (r + slack), side="right")
    counts = reach - np.arange(1, q + 1)  # candidates after each sorted position
    ends = np.cumsum(counts)
    starts = ends - counts
    # Flat candidate index k in row p pairs sorted position p with k + shift[p].
    shift = np.arange(1, q + 1) - starts
    total = int(ends[-1])

    a = b = 0
    for k0 in range(0, total, SAMPEN_CHUNK_PAIRS):
        k1 = min(k0 + SAMPEN_CHUNK_PAIRS, total)
        p0 = int(np.searchsorted(ends, k0, side="right"))
        p1 = int(np.searchsorted(ends, k1 - 1, side="right")) + 1
        per_row = counts[p0:p1].copy()  # rows p0 and p1-1 may be cut by the chunk
        per_row[0] -= k0 - starts[p0]
        per_row[-1] -= ends[p1 - 1] - k1
        i = order[np.repeat(np.arange(p0, p1), per_row)]
        j = order[np.arange(k0, k1) + np.repeat(shift[p0:p1], per_row)]
        for offset in range(m):
            xo = x[offset:]
            keep = np.abs(xo[i] - xo[j]) <= r
            i, j = i[keep], j[keep]
        b += i.size
        xm = x[m:]
        a += int(np.count_nonzero(np.abs(xm[i] - xm[j]) <= r))

    if a == 0 or b == 0:
        value, capped = sampen_cap(n, m), True
    else:
        value, capped = -math.log(a / b), False
    return (value, capped) if with_flag else value


def zero_crossings(signal: np.ndarray, threshold: float = 0.0) -> int:
    """Sign changes between neighbours; exact zeros never cross."""
    x = np.asarray(signal, dtype=float)
    a, b = x[:-1], x[1:]
    return int(np.count_nonzero((a * b < 0.0) & (np.abs(a - b) >= threshold)))


def waveform_length(signal: np.ndarray) -> float:
    x = np.asarray(signal, dtype=float)
    return float(np.abs(np.diff(x)).sum())


def rms(signal: np.ndarray) -> float:
    x = np.asarray(signal, dtype=float)
    return float(np.sqrt(np.mean(np.square(x))))


def slope_sign_changes(signal: np.ndarray, threshold: float = 0.0) -> int:
    """Interior points where both neighbour slopes oppose beyond threshold."""
    x = np.asarray(signal, dtype=float)
    left = x[1:-1] - x[:-2]
    right = x[1:-1] - x[2:]
    return int(np.count_nonzero(left * right > threshold))


def median_frequency(signal: np.ndarray, fs: float) -> float:
    """Frequency where cumulative periodogram power first reaches half.

    Rectangular-window periodogram, DC bin excluded; a constant signal
    has no non-DC power and yields 0 Hz.
    """
    x = np.asarray(signal, dtype=float)
    spectrum = np.fft.rfft(x)
    power = (spectrum.real**2 + spectrum.imag**2)[1:]
    total = float(power.sum())
    if total <= 0.0:
        return 0.0
    freqs = np.fft.rfftfreq(x.size, d=1.0 / fs)[1:]
    idx = int(np.searchsorted(np.cumsum(power), 0.5 * total))
    return float(freqs[idx])


def wavelet_energy(signal: np.ndarray, levels: int = 4) -> float:
    """Sum of squared detail coefficients of an orthonormal Haar cascade.

    Odd-length intermediates drop their final sample at that level; the
    cascade stops early once fewer than two samples remain.
    """
    approx = np.asarray(signal, dtype=float)
    energy = 0.0
    for _ in range(levels):
        if approx.size < 2:
            break
        if approx.size % 2:
            approx = approx[:-1]
        even, odd = approx[0::2], approx[1::2]
        detail = (even - odd) / _SQRT2
        approx = (even + odd) / _SQRT2
        energy += float(np.square(detail).sum())
    return energy


def fractal_dimension(signal: np.ndarray) -> float:
    """Katz dimension of the planar sample curve (i, x_i).

    With curve length L (sum of point-to-point distances at unit time
    step), extent d (largest distance from the first point) and step
    count n: FD = log10(n) / (log10(n) + log10(d/L)). Straight curves
    (constants, ramps, single samples) return exactly 1.0.
    """
    x = np.asarray(signal, dtype=float)
    n = x.size - 1
    if n < 1:
        return 1.0
    diffs = np.diff(x)
    length = float(np.sqrt(1.0 + np.square(diffs)).sum())
    offsets = np.arange(1, x.size, dtype=float)
    extent = float(np.sqrt(np.square(offsets) + np.square(x[1:] - x[0])).max())
    if extent >= length:  # straight line: d == L up to rounding
        return 1.0
    denominator = math.log10(n) + math.log10(extent / length)
    if denominator <= 0.0:
        return FRACTAL_DIMENSION_MAX
    return float(math.log10(n) / denominator)


def _min_window_len(cfg: FeatureConfig) -> int:
    need = 1
    for name in cfg.enabled_features:
        if name == "sample_entropy":
            need = max(need, cfg.sampen_m + 2)
        elif name == "slope_sign_changes":
            need = max(need, 3)
        elif name in ("zero_crossings", "median_frequency"):
            need = max(need, 2)
    return need


def _extract_one(name: str, x: np.ndarray, cfg: FeatureConfig, fs: float) -> float:
    if name == "shannon_entropy":
        return shannon_entropy(x, cfg.entropy_bins)
    if name == "sample_entropy":
        return sample_entropy(x, cfg.sampen_m, cfg.sampen_r_coeff)
    if name == "zero_crossings":
        return float(zero_crossings(x, cfg.zc_threshold))
    if name == "waveform_length":
        return waveform_length(x)
    if name == "rms":
        return rms(x)
    if name == "slope_sign_changes":
        return float(slope_sign_changes(x, cfg.ssc_threshold))
    if name == "median_frequency":
        return median_frequency(x, fs)
    if name == "wavelet_energy":
        return wavelet_energy(x, cfg.wavelet_levels)
    if name == "fractal_dimension":
        return fractal_dimension(x)
    raise InvalidSpecError(f"unknown feature {name!r}")


def feature_columns(channel_count: int, cfg: FeatureConfig) -> tuple[tuple[int, str], ...]:
    """Column -> (channel, feature name), channel-major."""
    return tuple(
        (ch, name) for ch in range(channel_count) for name in cfg.enabled_features
    )


def column_labels(column_index: tuple[tuple[int, str], ...]) -> list[str]:
    return [f"ch{ch + 1}_{name}" for ch, name in column_index]


def extract_features(sample: WindowedSample, cfg: FeatureConfig, fs: float) -> np.ndarray:
    """One scalar per (channel, enabled feature), channel-major order."""
    data = np.asarray(sample.data, dtype=float)
    if data.shape[1] < _min_window_len(cfg):
        raise WindowTooShortError(
            f"window of {data.shape[1]} samples is below the "
            f"{_min_window_len(cfg)}-sample minimum for the enabled features"
        )
    names = cfg.enabled_features
    out = np.empty(data.shape[0] * len(names), dtype=float)
    k = 0
    for ch in range(data.shape[0]):
        x = data[ch]
        for name in names:
            out[k] = _extract_one(name, x, cfg, fs)
            k += 1
    return out


def zero_window_features(cfg: FeatureConfig, window_len: int, fs: float) -> np.ndarray:
    """Feature values of an all-zero window (one value per enabled feature)."""
    zeros = np.zeros(window_len)
    return np.array([_extract_one(name, zeros, cfg, fs) for name in cfg.enabled_features])


@dataclass
class FeatureMatrix:
    values: np.ndarray  # n_samples x d
    class_label: str
    column_index: tuple[tuple[int, str], ...]
    row_provenance: tuple[tuple[str, int], ...]

    @property
    def n_rows(self) -> int:
        return int(self.values.shape[0])

    @property
    def n_columns(self) -> int:
        return int(self.values.shape[1])


def build_class_matrices(
    samples: list[WindowedSample],
    cfg: FeatureConfig,
    fs: float,
    jobs: int = 1,
) -> dict[str, FeatureMatrix]:
    """Group windows by label and extract one feature row per window.

    Row order within a class follows input order regardless of ``jobs``.
    """
    if not samples:
        return {}
    channel_count = samples[0].data.shape[0]
    for s in samples:
        if s.data.shape[0] != channel_count:
            raise InconsistentChannelCountError(
                f"window from {s.source_trial} has {s.data.shape[0]} channels, "
                f"expected {channel_count}"
            )

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(lambda s: extract_features(s, cfg, fs), samples))
    else:
        rows = [extract_features(s, cfg, fs) for s in samples]

    columns = feature_columns(channel_count, cfg)
    by_class: dict[str, list[int]] = {}
    for i, s in enumerate(samples):
        by_class.setdefault(s.class_label, []).append(i)

    out: dict[str, FeatureMatrix] = {}
    for label, idx in by_class.items():
        values = np.vstack([rows[i] for i in idx])
        if not np.isfinite(values).all():
            raise DataFormatError(f"non-finite feature values for class {label!r}")
        provenance = tuple((samples[i].source_trial, samples[i].start_index) for i in idx)
        out[label] = FeatureMatrix(values, label, columns, provenance)
    return out
