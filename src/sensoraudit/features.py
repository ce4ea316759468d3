"""Per-channel signal features and per-class feature matrices.

Nine extractors, each written once along the last axis. A feature is
one ``_FEATURES`` entry: its name (``FEATURE_NAMES`` keeps their order),
how to call its extractor under a ``FeatureConfig``, and the shortest
window it takes. Given one channel's window (a 1-D array) an extractor
returns a Python scalar; given an array of windows ``(..., W)`` it
returns one value per row, of shape ``(...)``. A row's value never
depends on the other rows or on how many there are: every sum runs
along the contiguous last axis, where numpy applies the same pairwise
summation as to a lone 1-D row, so a batched value is bitwise equal to
the value of that row alone.

``build_class_matrices`` takes a ``Windows`` record of shape ``(N, C, W)``
and returns an ``(n, C * F)`` matrix per class. It gathers the windows in
consecutive ``(n, C, W)`` slices of at most ``BLOCK_SAMPLES`` samples
(128 KB of float64, so a slice's temporaries stay in cache) into one
C-contiguous buffer, allocated once per call, and calls each enabled
extractor once per slice. Each window is copied once, into that buffer,
and no array of all N windows is made. Sample entropy's work arrays are
also allocated once per call and reused for every slice.

Two extractors take care to stay exact per row:

* ``shannon_entropy`` bins each row by ``np.histogram``'s uniform-bin
  rule, counts all rows with one offset ``bincount``, and sums a row's
  nonzero terms with ``.sum(axis=1)`` over the rows that have the same
  number of nonzero bins. That is the pairwise summation ``.sum()``
  applies to the compacted 1-D row; ``np.add.reduceat`` sums
  sequentially and can differ in the last bit.
* ``median_frequency`` counts the cumulative powers below half the total,
  which equals ``searchsorted`` on the nondecreasing cumulative sum.

``sample_entropy`` counts template pairs exactly, 64 at a time, with
bitsets (``sensoraudit.sampen``): one preparation pass over all the rows
of a call, then cache-sized blocks of rows. The counts do not depend on
a row's call or block. It takes an optional ``work``, the work arrays
of both passes; a call without one allocates its own.

One rule holds at both ends of float64's range: scale before squaring.
``rms``, ``median_frequency`` and ``sample_entropy`` first scale each row
by the power of two that puts its largest magnitude in [0.5, 1), and
``zero_crossings`` and ``slope_sign_changes`` compare signs and exponents
instead of products. The scaling is exact: a row scaled by 2**k gives the
same value (``rms`` the same times 2**k) whether its squares would
overflow or underflow, and a row whose squares stay normal keeps the bits
of the plain formula. ``wavelet_energy`` and ``fractal_dimension`` square
at the samples' own scale, and that is inherent: a detail energy or Katz
curve length beyond float64 (samples from about 1e154) raises
``DataFormatError``, as does a waveform length beyond it (from about
1e308), and a detail energy below 2**-1022 is subnormal and keeps fewer bits.

Degenerate inputs map to fixed finite values, so a channel that reads
zero has finite features, each 0.0, -0.0 or 1.0:

====================  =======================================
extractor             constant-signal value
====================  =======================================
shannon_entropy       0.0
sample_entropy        -0.0 (all templates match: -ln 1)
zero_crossings        0
waveform_length       0.0
rms                   |c| to rounding (c² rounds)
slope_sign_changes    0
median_frequency      0.0 Hz
wavelet_energy        0.0
fractal_dimension     1.0
====================  =======================================

Feature columns are channel-major: all features of channel 0, then all
features of channel 1, ... so one channel's columns form a contiguous
block.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import sampen
from .config import JsonConfig
from .errors import (
    DataFormatError,
    InvalidSpecError,
    UnbinnableWindowError,
    WindowTooShortError,
)
from .ingest import Windows

# feature name -> (extractor over an array of windows, one value per row;
# its shortest window under cfg). ``work`` is sample entropy's work arrays
# (None: it allocates its own).
_FEATURES = {
    "shannon_entropy": (lambda x, cfg, fs, work: shannon_entropy(x, cfg.entropy_bins), lambda cfg: 1),
    "sample_entropy": (
        lambda x, cfg, fs, work: sample_entropy(x, cfg.sampen_m, cfg.sampen_r_coeff, work=work),
        lambda cfg: cfg.sampen_m + 2,
    ),
    "zero_crossings": (lambda x, cfg, fs, work: zero_crossings(x, cfg.zc_threshold), lambda cfg: 2),
    "waveform_length": (lambda x, cfg, fs, work: waveform_length(x), lambda cfg: 1),
    "rms": (lambda x, cfg, fs, work: rms(x), lambda cfg: 1),
    "slope_sign_changes": (lambda x, cfg, fs, work: slope_sign_changes(x, cfg.ssc_threshold), lambda cfg: 3),
    "median_frequency": (lambda x, cfg, fs, work: median_frequency(x, fs), lambda cfg: 2),
    "wavelet_energy": (lambda x, cfg, fs, work: wavelet_energy(x, cfg.wavelet_levels), lambda cfg: 1),
    "fractal_dimension": (lambda x, cfg, fs, work: fractal_dimension(x), lambda cfg: 1),
}

FEATURE_NAMES: tuple[str, ...] = tuple(_FEATURES)

_SQRT2 = math.sqrt(2.0)

# sample_entropy counts a block of rows together: at most this many bytes
# of prefix-bitset tables. A row whose table needs more builds it a tile of
# columns at a time.
SAMPEN_TABLE_BYTES = 1 << 18

# Samples per block of stacked windows (128 KB of float64).
BLOCK_SAMPLES = 1 << 14

# Near-unreachable guard: the Katz denominator can only collapse for
# degenerate float cases; curve extent never exceeds curve length.
FRACTAL_DIMENSION_MAX = 10.0


@dataclass(frozen=True)
class FeatureConfig(JsonConfig):
    entropy_bins: int = 128
    sampen_m: int = 2
    sampen_r_coeff: float = 0.2
    zc_threshold: float = 0.0
    ssc_threshold: float = 0.0
    wavelet_levels: int = 4
    enabled_features: tuple[str, ...] = FEATURE_NAMES

    def check_bounds(self) -> None:
        self.check_positive_ints("entropy_bins", "sampen_m", "wavelet_levels")
        if self.sampen_r_coeff <= 0:
            raise InvalidSpecError("sampen_r_coeff must be positive")
        if self.zc_threshold < 0 or self.ssc_threshold < 0:
            raise InvalidSpecError("thresholds must be nonnegative")
        enabled = self.enabled_features
        unknown = [f for f in enabled if f not in FEATURE_NAMES]
        if unknown:
            raise InvalidSpecError(f"unknown features: {', '.join(unknown)}")
        if len(set(enabled)) != len(enabled) or not enabled:
            raise InvalidSpecError("enabled_features must be a nonempty set of names")


def _scalar_or_rows(values: np.ndarray, kind=float):
    """A Python scalar for one window, the array of per-row values otherwise."""
    return kind(values) if np.ndim(values) == 0 else values


def shannon_entropy(signal: np.ndarray, bins: int = 128):
    """Histogram entropy in bits over equal-width bins spanning [min, max].

    Each row is binned exactly as ``np.histogram(row, bins, range=(min,
    max))`` bins it. Where ``np.histogram`` raises ``ValueError`` (a range
    that is not finite, wider than float64 holds, or too narrow for
    ``bins`` distinct edges), this raises ``UnbinnableWindowError``, which
    is both a ``ValueError`` and a ``DataFormatError``.
    """
    x = np.asarray(signal, dtype=float)
    rows = x.reshape(-1, x.shape[-1])
    lo = rows.min(axis=1)
    hi = rows.max(axis=1)
    out = np.zeros(rows.shape[0])
    live = np.flatnonzero(hi != lo)
    if live.size:
        out[live] = _histogram_entropy(rows[live], lo[live], hi[live], bins)
    return _scalar_or_rows(out.reshape(x.shape[:-1]))


def _histogram_entropy(rows: np.ndarray, lo: np.ndarray, hi: np.ndarray, bins: int) -> np.ndarray:
    if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
        raise UnbinnableWindowError("shannon_entropy: the range of a window is not finite")
    n, w = rows.shape
    with np.errstate(over="ignore"):
        delta = hi - lo
    if not np.isfinite(delta).all():
        k = int(np.argmin(np.isfinite(delta)))
        raise UnbinnableWindowError(
            f"shannon_entropy: the range [{float(lo[k])!r}, {float(hi[k])!r}] of a window "
            "overflows float64"
        )
    # np.linspace(lo, hi, bins + 1) per row. Where its step underflows to
    # zero, linspace takes another branch, but the range then holds fewer
    # than bins distinct values, so the edges collapse either way.
    edges = np.arange(bins + 1, dtype=float) * (delta / bins)[:, None]
    edges += lo[:, None]
    edges[:, -1] = hi
    collapsed = (edges[:, :-1] >= edges[:, 1:]).any(axis=1)
    if collapsed.any():
        k = int(np.argmax(collapsed))
        raise UnbinnableWindowError(
            "shannon_entropy: a near-constant window spans only "
            f"[{float(lo[k])!r}, {float(hi[k])!r}], too few distinct values "
            f"for {bins} equal-width bins (entropy_bins)"
        )

    # np.histogram's index rule, then its one-ulp corrections at the edges.
    idx = ((rows - lo[:, None]) / delta[:, None] * bins).astype(np.intp)
    idx[idx == bins] -= 1
    edge_base = np.arange(n)[:, None] * (bins + 1)
    flat_edges = edges.ravel()
    idx[rows < flat_edges[edge_base + idx]] -= 1
    idx[(rows >= flat_edges[edge_base + idx + 1]) & (idx != bins - 1)] += 1
    counts = np.bincount((idx + np.arange(n)[:, None] * bins).ravel(), minlength=n * bins)
    counts = counts.reshape(n, bins)

    nonzero = counts > 0
    p = counts[nonzero] / w  # each row's nonzero bins in bin order, row after row
    terms = p * np.log2(p)
    width = nonzero.sum(axis=1)
    first = np.cumsum(width) - width
    sums = np.empty(n)
    for k in np.flatnonzero(np.bincount(width)):  # not np.unique, which imports numpy.ma
        sel = np.flatnonzero(width == k)
        sums[sel] = terms[first[sel, None] + np.arange(k)].sum(axis=1)
    return -sums


def sampen_cap(n: int, m: int) -> float:
    """Value reported when no template pair matches at length m or m+1."""
    return math.log((n - m) * (n - m - 1))


def sample_entropy(
    signal: np.ndarray,
    m: int = 2,
    r_coeff: float = 0.2,
    work: sampen.Work | None = None,
):
    """Sample entropy with Chebyshev distance and tolerance r_coeff * SD.

    Counts ordered template pairs (self-matches excluded) of length m (B)
    and m+1 (A) within tolerance r and returns -ln(A/B), as defined by
    Richman & Moorman 2000 (Am J Physiol 278:H2039). When either count
    is zero the analytic cap ``sampen_cap(n, m)`` = ln((n-m)(n-m-1)) is
    returned. A value is capped iff it equals that cap: with A >= 1 and
    B <= q(q-1)/2 for q = n - m templates, an uncapped value is at most
    ln(q(q-1)/2) = cap - ln 2.

    The pairs are counted exactly, 64 per word operation, by
    ``sensoraudit.sampen``: a preparation pass over all the rows, then a
    bitset pass over blocks of rows whose prefix tables fit
    ``SAMPEN_TABLE_BYTES``. That costs about W^2 / 64 word operations per
    row, whatever the data, and working memory of about twice the budget
    plus about 30 bytes per sample of the call. A row's value does not depend on
    the other rows. A window whose values are all equal returns -ln(1) =
    -0.0. Each row is first scaled by the power of two that puts its
    largest magnitude in [0.5, 1). That is exact and keeps every count,
    and a row scaled by 2**k becomes the same row, so its SD neither
    overflows nor underflows with k.

    ``work`` is the work arrays to count in, ``sampen.Work(rows, W, m,
    SAMPEN_TABLE_BYTES)`` for at least the call's rows, and can be reused
    from call to call; with None the call allocates its own.
    """
    x = np.asarray(signal, dtype=float)
    n = x.shape[-1]
    if n <= m + 1:
        raise WindowTooShortError(f"sample_entropy needs > {m + 1} samples, got {n}")
    rows = x.reshape(-1, n)
    count = rows.shape[0]
    if work is None:
        work = sampen.Work(count, n, m, SAMPEN_TABLE_BYTES)
    top, bottom = rows.max(axis=1), rows.min(axis=1)
    scaled = _unit_scaled(rows, top, bottom, out=work.floats(count)[0][:, :n])
    r = r_coeff * scaled.std(axis=1)
    # Equal values: every template matches, so A == B. With a NaN or
    # negative tolerance no comparison holds, not even a template with
    # itself; B and A, matches minus the q self-matches, are then both -q.
    # Either way the value is -ln(1).
    values = np.full(count, -math.log(1.0))
    live = np.flatnonzero((r >= 0.0) & (top != bottom))
    if live.size:
        if live.size < count:
            scaled[: live.size] = scaled[live]
            r = r[live]
        a, b = sampen.counts(scaled[: live.size], r, work)
        cap = sampen_cap(n, m)
        # math.log row by row: numpy's vectorised log need not round as libm's does
        for k, a_k, b_k in zip(live.tolist(), a.tolist(), b.tolist()):
            values[k] = cap if a_k == 0 or b_k == 0 else -math.log(a_k / b_k)
    return _scalar_or_rows(values.reshape(x.shape[:-1]))


def zero_crossings(signal: np.ndarray, threshold: float = 0.0):
    """Sign changes between neighbours; exact zeros never cross. A jump that
    overflows float64 reads inf and still beats any threshold, unwarned."""
    x = np.asarray(signal, dtype=float)
    pos, neg = x > 0.0, x < 0.0
    opposite = pos[..., :-1] & neg[..., 1:] | neg[..., :-1] & pos[..., 1:]
    with np.errstate(over="ignore"):
        crossings = opposite & (np.abs(x[..., :-1] - x[..., 1:]) >= threshold)
    return _scalar_or_rows(np.count_nonzero(crossings, axis=-1), int)


def waveform_length(signal: np.ndarray):
    """Sum of absolute differences between neighbours. A sum that exceeds
    float64 (samples near 1e308) raises ``DataFormatError``."""
    x = np.asarray(signal, dtype=float)
    with np.errstate(over="ignore"):
        length = np.abs(np.diff(x, axis=-1)).sum(axis=-1)
    overflow = np.isinf(length) & np.isfinite(x).all(axis=-1)
    if overflow.any():
        raise DataFormatError(
            "waveform_length: the waveform length of a window with samples up to "
            f"{np.abs(x[overflow]).max():.3g} overflows float64"
        )
    return _scalar_or_rows(length)


def rms(signal: np.ndarray):
    """Root mean square. Each row is first scaled by the power of two that
    puts its largest magnitude in [0.5, 1), so its mean square neither
    overflows nor underflows, and the root is scaled back exactly."""
    x = np.asarray(signal, dtype=float)
    rows = x.reshape(-1, x.shape[-1])
    exponent = np.frexp(np.abs(rows).max(axis=1))[1]
    unit = np.ldexp(rows, -exponent[:, None])
    out = np.ldexp(np.sqrt(np.mean(np.square(unit), axis=1)), exponent)
    return _scalar_or_rows(out.reshape(x.shape[:-1]))


def slope_sign_changes(signal: np.ndarray, threshold: float = 0.0):
    """Interior points where both neighbour slopes oppose beyond threshold.
    A slope that overflows float64 reads inf of its sign and counts by it, unwarned."""
    x = np.asarray(signal, dtype=float)
    with np.errstate(over="ignore"):
        m, e = np.frexp(np.diff(x, axis=-1))
        # point i's slopes are d[i-1] and -d[i] (negation is exact), so their
        # product beats threshold when m[i-1] * m[i] is below the negated,
        # exponent-scaled threshold
        limit = np.ldexp(-threshold, -(e[..., :-1] + e[..., 1:]))
    return _scalar_or_rows(np.count_nonzero(m[..., :-1] * m[..., 1:] < limit, axis=-1), int)


def median_frequency(signal: np.ndarray, fs: float):
    """Frequency where cumulative periodogram power first reaches half.

    Rectangular-window periodogram, DC bin excluded; a constant signal
    has no non-DC power and yields 0 Hz. Its transform's non-DC bins hold
    rounding error, so constant rows are found by their range. Each row
    is first scaled by the power of two that puts its largest magnitude in
    [0.5, 1). That scales every power by the same exact factor, so it
    keeps the median, and a row scaled by 2**k becomes the same row: its
    total power neither overflows nor underflows with k.
    """
    x = np.asarray(signal, dtype=float)
    rows = x.reshape(-1, x.shape[-1])
    top, bottom = rows.max(axis=1), rows.min(axis=1)
    with np.errstate(invalid="ignore"):
        power = _periodogram(_unit_scaled(rows, top, bottom))
        total = power.sum(axis=1)
    live = ~(total <= 0.0) & (top != bottom)
    below_half = np.cumsum(power[live], axis=1) < 0.5 * total[live, None]
    freqs = np.fft.rfftfreq(x.shape[-1], d=1.0 / fs)[1:]
    out = np.zeros(total.shape)
    out[live] = freqs[np.count_nonzero(below_half, axis=1)]
    return _scalar_or_rows(out.reshape(x.shape[:-1]))


def _unit_scaled(rows: np.ndarray, top: np.ndarray, bottom: np.ndarray, out=None) -> np.ndarray:
    """Each row times the power of two that puts its largest magnitude in [0.5, 1).

    ``top`` and ``bottom`` are the rows' maxima and minima. The scaling is
    exact, and a row scaled by 2**k scales to the same row. Rows of zeros
    and rows with a NaN or an infinity are returned unscaled.
    """
    return np.ldexp(rows, -np.frexp(np.maximum(top, -bottom))[1][:, None], out=out)


def _periodogram(rows: np.ndarray) -> np.ndarray:
    spectrum = np.fft.rfft(rows, axis=-1)
    return (spectrum.real**2 + spectrum.imag**2)[:, 1:]


def wavelet_energy(signal: np.ndarray, levels: int = 4):
    """Sum of squared detail coefficients of an orthonormal Haar cascade.

    Odd-length intermediates drop their final sample at that level; the
    cascade stops early once fewer than two samples remain. An energy
    that exceeds float64 (samples from about 1e154) raises
    ``DataFormatError``.
    """
    x = np.asarray(signal, dtype=float)
    approx = x
    energy = np.zeros(x.shape[:-1])
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(levels):
            if approx.shape[-1] < 2:
                break
            if approx.shape[-1] % 2:
                approx = approx[..., :-1]
            even, odd = approx[..., 0::2], approx[..., 1::2]
            detail = (even - odd) / _SQRT2
            approx = (even + odd) / _SQRT2
            energy = energy + np.square(detail).sum(axis=-1)
    overflow = ~np.isfinite(energy) & np.isfinite(x).all(axis=-1)
    if overflow.any():
        raise DataFormatError(
            "wavelet_energy: the detail energy of a window with samples up to "
            f"{np.abs(x[overflow]).max():.3g} overflows float64"
        )
    return _scalar_or_rows(energy)


def fractal_dimension(signal: np.ndarray):
    """Katz dimension of the planar sample curve (i, x_i).

    With curve length L (sum of point-to-point distances at unit time
    step), extent d (largest distance from the first point) and step
    count n: FD = log10(n) / (log10(n) + log10(d/L)). Straight curves
    (constants, ramps, single samples) return exactly 1.0.
    """
    x = np.asarray(signal, dtype=float)
    n = x.shape[-1] - 1
    if n < 1:
        return _scalar_or_rows(np.ones(x.shape[:-1]))
    with np.errstate(over="ignore"):
        length = np.sqrt(1.0 + np.square(np.diff(x, axis=-1))).sum(axis=-1)
    overflow = np.isinf(length)
    if overflow.any():
        raise DataFormatError(
            "fractal_dimension: the curve length of a window with samples up to "
            f"{np.abs(x[overflow]).max():.3g} overflows float64"
        )
    offsets = np.arange(1, x.shape[-1], dtype=float)
    extent = np.sqrt(np.square(offsets) + np.square(x[..., 1:] - x[..., :1])).max(axis=-1)
    values = [_katz(n, d, total) for d, total in zip(extent.ravel().tolist(), length.ravel().tolist())]
    return _scalar_or_rows(np.array(values).reshape(extent.shape))


def _katz(n: int, extent: float, length: float) -> float:
    if extent >= length:  # straight line: d == L up to rounding
        return 1.0
    denominator = math.log10(n) + math.log10(extent / length)
    if denominator <= 0.0:
        return FRACTAL_DIMENSION_MAX
    return math.log10(n) / denominator


def feature_columns(channel_count: int, cfg: FeatureConfig) -> tuple[tuple[int, str], ...]:
    """Column -> (channel, feature name), channel-major."""
    return tuple(
        (ch, name) for ch in range(channel_count) for name in cfg.enabled_features
    )


def column_labels(column_index: tuple[tuple[int, str], ...]) -> list[str]:
    return [f"ch{ch + 1}_{name}" for ch, name in column_index]


def _check_window_len(w: int, cfg: FeatureConfig) -> None:
    need = max(_FEATURES[name][1](cfg) for name in cfg.enabled_features)
    if w < need:
        raise WindowTooShortError(
            f"window of {w} samples is below the {need}-sample minimum for the enabled features"
        )


def _feature_rows(
    windows: np.ndarray, cfg: FeatureConfig, fs: float, work: sampen.Work | None = None
) -> np.ndarray:
    """``(n, C, W)`` windows -> ``(n, C * F)`` channel-major feature rows.

    The caller has checked W against the minimum (``_check_window_len``).
    """
    n, channels, _ = windows.shape
    out = np.empty((n, channels, len(cfg.enabled_features)))
    for k, name in enumerate(cfg.enabled_features):
        out[:, :, k] = _FEATURES[name][0](windows, cfg, fs, work)
    return out.reshape(n, -1)


@dataclass(eq=False)
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
    windows: Windows,
    cfg: FeatureConfig,
    fs: float,
) -> dict[str, FeatureMatrix]:
    """Extract one feature row per window and group the rows by label.

    Each enabled extractor runs once per slice of at most
    ``BLOCK_SAMPLES`` samples; the rows do not depend on the slicing. The
    slice buffer and sample entropy's work arrays are allocated once and
    reused for every slice. Classes appear in first-appearance order, and
    row order within a class follows input order.
    """
    n, channels, w = windows.shape
    if n == 0:
        return {}
    _check_window_len(w, cfg)
    rows = np.empty((n, channels * len(cfg.enabled_features)))
    step = max(1, BLOCK_SAMPLES // max(1, channels * w))
    block = np.empty((min(step, n), channels, w))  # one buffer for every slice
    work = None
    if "sample_entropy" in cfg.enabled_features:
        work = sampen.Work(block.shape[0] * channels, w, cfg.sampen_m, SAMPEN_TABLE_BYTES)
    for start in range(0, n, step):
        rows[start : start + step] = _feature_rows(windows.gather(start, block), cfg, fs, work)

    columns = feature_columns(channels, cfg)
    by_class: dict[str, list[int]] = {}
    for i, label in enumerate(windows.labels):
        by_class.setdefault(label, []).append(i)

    out: dict[str, FeatureMatrix] = {}
    for label, idx in by_class.items():
        values = rows[idx]
        if not np.isfinite(values).all():
            raise DataFormatError(f"non-finite feature values for class {label!r}")
        provenance = tuple(windows.provenance[i] for i in idx)
        out[label] = FeatureMatrix(values, label, columns, provenance)
    return out
