"""Per-channel signal features and per-class feature matrices.

Nine extractors, each written once along the last axis. Given one
channel's window (a 1-D array) an extractor returns a Python scalar;
given an array of windows ``(..., W)`` it returns one value per row, of
shape ``(...)``. A row's value never depends on the other rows or on how
many there are: every sum runs along the contiguous last axis, where
numpy applies the same pairwise summation as to a lone 1-D row, so a
batched value is bitwise equal to the value of that row alone.

``build_class_matrices`` takes the ``(N, C, W)`` array of a ``Windows``
record and returns an ``(n, C * F)`` matrix per class. It walks the array
in consecutive ``(n, C, W)`` slices of at most ``BLOCK_SAMPLES`` samples
(128 KB of float64, so a slice's temporaries stay in cache) and calls
each enabled extractor once per slice. The array is C-contiguous, so a
slice is a view and no window is copied again. ``zero_window_features``
is the same path with one all-zero window.

Two extractors take care to stay exact per row:

* ``shannon_entropy`` bins each row by ``np.histogram``'s uniform-bin
  rule, counts all rows with one offset ``bincount``, and sums a row's
  nonzero terms with ``.sum(axis=1)`` over the rows that have the same
  number of nonzero bins. That is the pairwise summation ``.sum()``
  applies to the compacted 1-D row; ``np.add.reduceat`` sums
  sequentially and can differ in the last bit.
* ``median_frequency`` counts the cumulative powers below half the total,
  which equals ``searchsorted`` on the nondecreasing cumulative sum.

``sample_entropy`` counts a block of rows at a time: one sort of every
row's templates, one search for each template's candidate partners, and
one enumeration of the whole block's candidate pairs in steps of
``SAMPEN_CHUNK_PAIRS``. A row's counts are integers and do not depend on
its block.

Where a product or square would leave float64's range, ``zero_crossings``
and ``slope_sign_changes`` compare signs and exponents instead, and
``rms``, ``median_frequency`` and ``sample_entropy`` scale the row by an
exact power of two. Where nothing over- or underflows, each keeps the
bits of its plain formula.

Degenerate inputs map to fixed finite values so that a matrix built from
nullified (all-zero) channels stays finite:

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

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DataFormatError,
    InvalidSpecError,
    UnbinnableWindowError,
    WindowTooShortError,
)
from .ingest import JsonConfig, Windows

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
_TINY = float(np.finfo(float).tiny)

# Samples per block of rows that sample_entropy counts together, and
# candidate template pairs it confirms per step. Each array of a block or a
# step stays below 64 KiB: glibc's free() may hand the heap top back to the
# system after freeing 64 KiB or more, and it maps 128 KiB or more afresh
# (its default mmap threshold); both make the time depend on what the
# process allocated before.
SAMPEN_BLOCK_SAMPLES = 8000
SAMPEN_CHUNK_PAIRS = 8000

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
        enabled = tuple(self.enabled_features)
        unknown = [f for f in enabled if f not in FEATURE_NAMES]
        if unknown:
            raise InvalidSpecError(f"unknown features: {', '.join(unknown)}")
        if len(set(enabled)) != len(enabled) or not enabled:
            raise InvalidSpecError("enabled_features must be a nonempty set of names")
        object.__setattr__(self, "enabled_features", enabled)


def _scalar_or_rows(values: np.ndarray, kind=float):
    """A Python scalar for one window, the array of per-row values otherwise."""
    return kind(values) if np.ndim(values) == 0 else values


def shannon_entropy(signal: np.ndarray, bins: int = 128):
    """Histogram entropy in bits over equal-width bins spanning [min, max].

    Each row is binned exactly as ``np.histogram(row, bins, range=(min,
    max))`` bins it. Where ``np.histogram`` raises ``ValueError`` (a range
    that is not finite or too narrow for ``bins`` distinct edges), this
    raises ``UnbinnableWindowError``, which is both a ``ValueError`` and a
    ``DataFormatError``.
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
    delta = hi - lo
    # np.linspace(lo, hi, bins + 1) per row, with its branch for a step
    # that underflows to zero.
    steps = np.arange(bins + 1, dtype=float)
    step = delta / bins
    edges = steps * step[:, None]
    tiny = step == 0
    if tiny.any():
        edges[tiny] = steps / bins * delta[tiny, None]
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
    for k in np.unique(width):
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
    with_flag: bool = False,
):
    """Sample entropy with Chebyshev distance and tolerance r_coeff * SD.

    Counts ordered template pairs (self-matches excluded) of length m (B)
    and m+1 (A) within tolerance r and returns -ln(A/B), as defined by
    Richman & Moorman 2000 (Am J Physiol 278:H2039). When either count
    is zero the analytic cap ln((n-m)(n-m-1)) is returned; pass
    ``with_flag=True`` to also receive that cappedness as a boolean (an
    array of them for several rows).

    Pairs are prefiltered on the first template coordinate, as in Manis,
    Aktaruzzaman & Sassi 2018 (Entropy 20:61): each row's templates are
    sorted by their first value, and every template is paired with the
    run of later sorted templates whose first value lies within r of its
    own. The end of that run is settled with the same ``|x[i] - x[j]| <=
    r`` comparison as the definition, and each candidate pair is confirmed
    on the other coordinates with it too, so the integer counts are exact.
    Unordered pairs are counted once; the ordered counts are twice these,
    which leaves A/B unchanged.

    Rows are counted a block at a time, at most ``SAMPEN_BLOCK_SAMPLES``
    samples per block (one row if it is longer), with one sort and one
    candidate enumeration per block; a row's counts do not depend on its
    block. Cost is about W log W per row for the sort plus the candidate
    pairs, which stays far below W^2 on signals that spread over more
    than r; it reaches W^2 only when almost every value lies within r of
    every other. Candidates are confirmed in chunks of
    ``SAMPEN_CHUNK_PAIRS``, so working memory is O(block + chunk) either
    way. A window whose values are all equal returns -ln(1) = -0.0. A
    row whose SD overflows float64 is first scaled by a power of two,
    which is exact and keeps every count.
    """
    x = np.asarray(signal, dtype=float)
    n = x.shape[-1]
    if n <= m + 1:
        raise WindowTooShortError(f"sample_entropy needs > {m + 1} samples, got {n}")
    rows = x.reshape(-1, n)
    values = np.empty(rows.shape[0])
    capped = np.empty(rows.shape[0], dtype=bool)
    step = max(1, SAMPEN_BLOCK_SAMPLES // n)
    for start in range(0, rows.shape[0], step):
        block = slice(start, start + step)
        values[block], capped[block] = _sample_entropy_block(rows[block], m, r_coeff)
    if x.ndim == 1:
        values, capped = float(values[0]), bool(capped[0])
    else:
        values, capped = values.reshape(x.shape[:-1]), capped.reshape(x.shape[:-1])
    return (values, capped) if with_flag else values


def _sample_entropy_block(
    rows: np.ndarray, m: int, r_coeff: float
) -> tuple[np.ndarray, np.ndarray]:
    n = rows.shape[1]
    with np.errstate(over="ignore"):
        sd = rows.std(axis=1)
    big = sd == math.inf
    if big.any():  # a power-of-two scale is exact and keeps every count
        scaled = rows[big]
        scaled = np.ldexp(scaled, -np.frexp(np.abs(scaled).max(axis=1))[1][:, None])
        rows = rows.copy()
        rows[big] = scaled
        sd[big] = scaled.std(axis=1)
    r = r_coeff * sd
    # Equal values: every template matches, so A == B. With a NaN or
    # negative tolerance no comparison holds, not even a template with
    # itself; B and A, matches minus the q self-matches, are then both -q.
    # Either way the value is -ln(1).
    values = np.full(rows.shape[0], -math.log(1.0))
    capped = np.zeros(rows.shape[0], dtype=bool)
    live = np.flatnonzero(r >= 0.0)
    live = live[rows[live].min(axis=1) != rows[live].max(axis=1)]
    if live.size:
        a, b = _sampen_counts(rows[live], r[live], m)
        cap = sampen_cap(n, m)
        # math.log row by row: numpy's vectorised log need not round as libm's does
        for k, a_k, b_k in zip(live.tolist(), a.tolist(), b.tolist()):
            if a_k == 0 or b_k == 0:
                values[k], capped[k] = cap, True
            else:
                values[k] = -math.log(a_k / b_k)
    return values, capped


def _sampen_counts(rows: np.ndarray, r: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Unordered template pairs within r at length m + 1 (A) and m (B), per row."""
    count, n = rows.shape
    q = n - m  # templates of both lengths start at 0 .. q-1
    # Template t is row t // q's (t % q)-th smallest by first value; coords[k][t]
    # is its coordinate k.
    at = (np.argsort(rows[:, :q], axis=1) + np.arange(0, count * n, n)[:, None]).ravel()
    samples = rows.ravel()
    coords = [samples[at + k] for k in range(m + 1)]
    tol = np.repeat(r, q)

    # reach[t]: the first template after t in its row whose first value is
    # beyond r. Differences from t's value grow along the sorted row, so the
    # templates within r form a run after t. A search on keys that lay the
    # rows end to end finds its end up to rounding; the exact comparison then
    # moves it to the end of the run. Each row ends in a sentinel at +inf.
    first = np.empty((count, q + 1))
    first[:, :q] = coords[0].reshape(count, q)
    first[:, q] = math.inf
    lo = first[:, :1]
    span = first[:, q - 1 : q] - lo
    span[span == 0.0] = 1.0
    base = 2.0 * np.arange(count)[:, None]
    keys = (first - lo) / span + base
    keys[:, q] = base[:, 0] + 1.5
    target = np.minimum(first[:, :q] + r[:, None] - lo, span) / span + base
    first = first.ravel()
    at_first = (np.arange(count)[:, None] * (q + 1) + np.arange(q)).ravel()
    reach = np.searchsorted(keys.ravel(), target.ravel(), side="right")
    stuck = np.flatnonzero(first[reach] - coords[0] <= tol)
    while stuck.size:
        reach[stuck] += 1
        stuck = stuck[first[reach[stuck]] - coords[0][stuck] <= tol[stuck]]
    stuck = np.flatnonzero(first[reach - 1] - coords[0] > tol)
    while stuck.size:
        reach[stuck] -= 1
        stuck = stuck[first[reach[stuck] - 1] - coords[0][stuck] > tol[stuck]]

    counts = reach - at_first - 1  # candidates after each template
    ends = np.cumsum(counts)
    starts = ends - counts
    # Flat candidate index k of template t pairs t with template k + shift[t].
    shift = np.arange(1, count * q + 1) - starts
    total = int(ends[-1])
    # survivors stay in template order, so a search finds each row's share
    row_starts = np.arange(0, (count + 1) * q, q)
    a = np.zeros(count, dtype=np.intp)
    b = np.zeros(count, dtype=np.intp)
    for k0 in range(0, total, SAMPEN_CHUNK_PAIRS):
        k1 = min(k0 + SAMPEN_CHUNK_PAIRS, total)
        t0 = int(np.searchsorted(ends, k0, side="right"))
        t1 = int(np.searchsorted(ends, k1 - 1, side="right")) + 1
        per_t = counts[t0:t1].copy()  # templates t0 and t1-1 may be cut by the chunk
        per_t[0] -= k0 - starts[t0]
        per_t[-1] -= ends[t1 - 1] - k1
        i = np.arange(t0, t1).repeat(per_t)
        j = np.arange(k0, k1) + shift[t0:t1].repeat(per_t)
        r_ij = tol[t0:t1].repeat(per_t)
        for c in coords[1:m]:
            keep = np.flatnonzero(np.abs(c[i] - c[j]) <= r_ij)
            i, j, r_ij = i[keep], j[keep], r_ij[keep]
        b += np.diff(np.searchsorted(i, row_starts))
        last = coords[m]
        a += np.diff(np.searchsorted(i[np.abs(last[i] - last[j]) <= r_ij], row_starts))
    return a, b


def zero_crossings(signal: np.ndarray, threshold: float = 0.0):
    """Sign changes between neighbours; exact zeros never cross."""
    x = np.asarray(signal, dtype=float)
    pos, neg = x > 0.0, x < 0.0
    opposite = pos[..., :-1] & neg[..., 1:] | neg[..., :-1] & pos[..., 1:]
    crossings = opposite & (np.abs(x[..., :-1] - x[..., 1:]) >= threshold)
    return _scalar_or_rows(np.count_nonzero(crossings, axis=-1), int)


def waveform_length(signal: np.ndarray):
    x = np.asarray(signal, dtype=float)
    return _scalar_or_rows(np.abs(np.diff(x, axis=-1)).sum(axis=-1))


def rms(signal: np.ndarray):
    """Root mean square; a row whose mean square leaves the normal range is scaled by 2**k."""
    x = np.asarray(signal, dtype=float)
    rows = x.reshape(-1, x.shape[-1])
    with np.errstate(over="ignore"):
        mean_square = np.mean(np.square(rows), axis=1)
    odd = (mean_square == math.inf) | (mean_square < _TINY)
    out = np.sqrt(mean_square)
    if odd.any():
        shift = -np.frexp(np.abs(rows[odd]).max(axis=1))[1]
        scaled = np.ldexp(rows[odd], shift[:, None])
        out[odd] = np.ldexp(np.sqrt(np.mean(np.square(scaled), axis=1)), -shift)
    return _scalar_or_rows(out.reshape(x.shape[:-1]))


def slope_sign_changes(signal: np.ndarray, threshold: float = 0.0):
    """Interior points where both neighbour slopes oppose beyond threshold."""
    x = np.asarray(signal, dtype=float)
    left, e_left = np.frexp(x[..., 1:-1] - x[..., :-2])
    right, e_right = np.frexp(x[..., 1:-1] - x[..., 2:])
    # left * right > threshold, as mantissas against the exponent-scaled threshold
    with np.errstate(over="ignore"):
        limit = np.ldexp(threshold, -(e_left + e_right))
    return _scalar_or_rows(np.count_nonzero(left * right > limit, axis=-1), int)


def median_frequency(signal: np.ndarray, fs: float):
    """Frequency where cumulative periodogram power first reaches half.

    Rectangular-window periodogram, DC bin excluded; a constant signal
    has no non-DC power and yields 0 Hz. Its transform's non-DC bins hold
    rounding error, so constant rows are found by their range. A row
    whose total power overflows float64 is first scaled by a power of
    two, which scales every power by the same exact factor and so keeps
    the median.
    """
    x = np.asarray(signal, dtype=float)
    rows = x.reshape(-1, x.shape[-1])
    with np.errstate(over="ignore", invalid="ignore"):
        power = _periodogram(rows)
        total = power.sum(axis=1)
    big = ~np.isfinite(total)
    if big.any():
        shift = -np.frexp(np.abs(rows[big]).max(axis=1))[1]
        power[big] = _periodogram(np.ldexp(rows[big], shift[:, None]))
        total[big] = power[big].sum(axis=1)
    live = ~(total <= 0.0) & (rows.min(axis=1) != rows.max(axis=1))
    below_half = np.cumsum(power[live], axis=1) < 0.5 * total[live, None]
    freqs = np.fft.rfftfreq(x.shape[-1], d=1.0 / fs)[1:]
    out = np.zeros(total.shape)
    out[live] = freqs[np.count_nonzero(below_half, axis=1)]
    return _scalar_or_rows(out.reshape(x.shape[:-1]))


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


# feature name -> extractor over an array of windows, one value per row
_EXTRACTORS = {
    "shannon_entropy": lambda x, cfg, fs: shannon_entropy(x, cfg.entropy_bins),
    "sample_entropy": lambda x, cfg, fs: sample_entropy(x, cfg.sampen_m, cfg.sampen_r_coeff),
    "zero_crossings": lambda x, cfg, fs: zero_crossings(x, cfg.zc_threshold),
    "waveform_length": lambda x, cfg, fs: waveform_length(x),
    "rms": lambda x, cfg, fs: rms(x),
    "slope_sign_changes": lambda x, cfg, fs: slope_sign_changes(x, cfg.ssc_threshold),
    "median_frequency": lambda x, cfg, fs: median_frequency(x, fs),
    "wavelet_energy": lambda x, cfg, fs: wavelet_energy(x, cfg.wavelet_levels),
    "fractal_dimension": lambda x, cfg, fs: fractal_dimension(x),
}


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


def feature_columns(channel_count: int, cfg: FeatureConfig) -> tuple[tuple[int, str], ...]:
    """Column -> (channel, feature name), channel-major."""
    return tuple(
        (ch, name) for ch in range(channel_count) for name in cfg.enabled_features
    )


def column_labels(column_index: tuple[tuple[int, str], ...]) -> list[str]:
    return [f"ch{ch + 1}_{name}" for ch, name in column_index]


def _feature_rows(windows: np.ndarray, cfg: FeatureConfig, fs: float) -> np.ndarray:
    """``(n, C, W)`` windows -> ``(n, C * F)`` channel-major feature rows."""
    n, channels, w = windows.shape
    if w < _min_window_len(cfg):
        raise WindowTooShortError(
            f"window of {w} samples is below the "
            f"{_min_window_len(cfg)}-sample minimum for the enabled features"
        )
    out = np.empty((n, channels, len(cfg.enabled_features)))
    for k, name in enumerate(cfg.enabled_features):
        out[:, :, k] = _EXTRACTORS[name](windows, cfg, fs)
    return out.reshape(n, -1)


def zero_window_features(cfg: FeatureConfig, window_len: int, fs: float) -> np.ndarray:
    """Feature values of an all-zero window (one value per enabled feature)."""
    return _feature_rows(np.zeros((1, 1, window_len)), cfg, fs)[0]


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
    windows: Windows,
    cfg: FeatureConfig,
    fs: float,
) -> dict[str, FeatureMatrix]:
    """Extract one feature row per window and group the rows by label.

    Each enabled extractor runs once per slice of at most
    ``BLOCK_SAMPLES`` samples; the rows do not depend on the slicing.
    Classes appear in first-appearance order, and row order within a
    class follows input order.
    """
    n, channels, w = windows.data.shape
    if n == 0:
        return {}
    rows = np.empty((n, channels * len(cfg.enabled_features)))
    step = max(1, BLOCK_SAMPLES // max(1, channels * w))
    for start in range(0, n, step):
        rows[start : start + step] = _feature_rows(windows.data[start : start + step], cfg, fs)

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
