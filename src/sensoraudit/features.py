"""Per-channel signal features and per-class feature matrices.

Nine extractors, each written once along the last axis. Given one
channel's window (a 1-D array) an extractor returns a Python scalar;
given an array of windows ``(..., W)`` it returns one value per row, of
shape ``(...)``. A row's value never depends on the other rows or on how
many there are: every sum runs along the contiguous last axis, where
numpy applies the same pairwise summation as to a lone 1-D row, so a
batched value is bitwise equal to the value of that row alone.

``build_class_matrices`` takes a ``Windows`` record of shape ``(N, C, W)``
and returns an ``(n, C * F)`` matrix per class. It gathers the windows in
consecutive ``(n, C, W)`` slices of at most ``BLOCK_SAMPLES`` samples
(128 KB of float64, so a slice's temporaries stay in cache) into one
C-contiguous buffer, allocated once per call, and calls each enabled
extractor once per slice. Each window is copied once, into that buffer,
and no array of all N windows is made. ``zero_window_features`` is the
same path with one all-zero window.

Two extractors take care to stay exact per row:

* ``shannon_entropy`` bins each row by ``np.histogram``'s uniform-bin
  rule, counts all rows with one offset ``bincount``, and sums a row's
  nonzero terms with ``.sum(axis=1)`` over the rows that have the same
  number of nonzero bins. That is the pairwise summation ``.sum()``
  applies to the compacted 1-D row; ``np.add.reduceat`` sums
  sequentially and can differ in the last bit.
* ``median_frequency`` counts the cumulative powers below half the total,
  which equals ``searchsorted`` on the nondecreasing cumulative sum.

``sample_entropy`` counts template pairs 64 at a time. Per row it sorts
the samples once and finds, for each sample, the run of sorted samples
within r of it. A prefix-bitset table turns each run into the bitset of
the samples in it. For each template, the bitsets of its coordinates,
offset by coordinate, are ANDed, and ``np.bitwise_count`` counts the
matching partners. The counts are exact integers and do not depend on
the row's block or on how its table is tiled.

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
):
    """Sample entropy with Chebyshev distance and tolerance r_coeff * SD.

    Counts ordered template pairs (self-matches excluded) of length m (B)
    and m+1 (A) within tolerance r and returns -ln(A/B), as defined by
    Richman & Moorman 2000 (Am J Physiol 278:H2039). When either count
    is zero the analytic cap ``sampen_cap(n, m)`` = ln((n-m)(n-m-1)) is
    returned. A value is capped iff it equals that cap: with A >= 1 and
    B <= q(q-1)/2 for q = n - m templates, an uncapped value is at most
    ln(q(q-1)/2) = cap - ln 2.

    The pairs are counted with bitsets over sample indices. Each row is
    sorted once. Sorted sample p lies within r of the sorted run [lo[p],
    hi[p]). hi is found by a search and then settled with the same ``|x[i]
    - x[j]| <= r`` comparison as the definition. Because that comparison is
    symmetric, lo[p] is the number of samples whose hi is at most p. Row c
    of a prefix table holds the bitset of the c smallest samples, so
    sample i's matches are the XOR of two table rows. Template i matches
    template j at length m when bit j is set in the AND of the matches of
    samples i + k, each shifted down by k, for k < m; a further AND with
    k = m gives length m + 1. ``np.bitwise_count`` counts 64 candidate
    partners per word, so the integer counts are exact and cost about
    W^2 / 64 word operations per row, whatever the data. Self-matches are
    subtracted and the ordered counts halved, which leaves A/B unchanged.

    Rows are counted a block at a time. A block holds as many rows as
    prefix tables of ``SAMPEN_TABLE_BYTES`` hold, or one row if a row needs
    more. A row whose table alone exceeds that budget builds it in tiles of
    columns, so working memory stays about twice the budget plus O(W) at
    any window length. A row's counts do not depend on its block or tiles.
    A window whose values are all equal returns -ln(1) = -0.0. Each row is
    first scaled by the power of two that puts its largest magnitude in
    [0.5, 1). That is exact and keeps every count, and a row scaled by
    2**k becomes the same row, so its SD neither overflows nor underflows
    with k.
    """
    x = np.asarray(signal, dtype=float)
    n = x.shape[-1]
    if n <= m + 1:
        raise WindowTooShortError(f"sample_entropy needs > {m + 1} samples, got {n}")
    rows = x.reshape(-1, n)
    values = np.empty(rows.shape[0])
    table_row = 8 * (n + 1) * (-(-n // 64) + m)
    step = max(1, SAMPEN_TABLE_BYTES // table_row)
    for start in range(0, rows.shape[0], step):
        block = slice(start, start + step)
        values[block] = _sample_entropy_block(rows[block], m, r_coeff)
    return float(values[0]) if x.ndim == 1 else values.reshape(x.shape[:-1])


def _sample_entropy_block(rows: np.ndarray, m: int, r_coeff: float) -> np.ndarray:
    n = rows.shape[1]
    top, bottom = rows.max(axis=1), rows.min(axis=1)
    rows = _unit_scaled(rows, top, bottom)
    r = r_coeff * rows.std(axis=1)
    # Equal values: every template matches, so A == B. With a NaN or
    # negative tolerance no comparison holds, not even a template with
    # itself; B and A, matches minus the q self-matches, are then both -q.
    # Either way the value is -ln(1).
    values = np.full(rows.shape[0], -math.log(1.0))
    live = np.flatnonzero((r >= 0.0) & (top != bottom))
    if live.size:
        a, b = _sampen_counts(rows[live], r[live], m)
        cap = sampen_cap(n, m)
        # math.log row by row: numpy's vectorised log need not round as libm's does
        for k, a_k, b_k in zip(live.tolist(), a.tolist(), b.tolist()):
            values[k] = cap if a_k == 0 or b_k == 0 else -math.log(a_k / b_k)
    return values


def _sampen_counts(rows: np.ndarray, r: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Unordered template pairs within r at length m + 1 (A) and m (B), per row."""
    count, n = rows.shape
    q = n - m  # templates of both lengths start at 0 .. q-1
    order = np.argsort(rows, axis=1)
    at = (order + np.arange(0, count * n, n)[:, None]).ravel()
    # Row k * (n + 1) + c of the prefix table is the bitset of row k's c
    # smallest samples, up to a constant per row. The samples within r of
    # sorted sample p are the sorted run [lo, hi): table[hi] ^ table[lo].
    hi = _upper_bounds(rows.ravel().take(at).reshape(count, n), r)
    # |x[i] - x[j]| <= r is symmetric, so lo[p] = #{p' : hi[p'] <= p}.
    below = np.cumsum(np.bincount(hi, minlength=count * (n + 1))).reshape(count, n + 1)
    lo = (below[:, :n] + np.arange(count)[:, None]).ravel()
    del below
    hi_at = np.empty_like(hi)  # the same, in sample order
    hi_at[at] = hi
    lo_at = np.empty_like(lo)
    lo_at[at] = lo
    del hi, lo

    # Bit b of column e is sample e + b * words, for e < words + m: the
    # columns from words on repeat earlier ones with their bits moved down.
    # Column e + k then holds, bit for bit, the samples k after those of
    # column e, so shifting the matches of a template's coordinate k down
    # by k is reading k columns further on. A tile covers t columns and
    # reads m more.
    words = -(-n // 64)
    depth = -(-n // words)  # bits per column
    tile = max(1, min(words, SAMPEN_TABLE_BYTES // (8 * count * (n + 1)) - m))
    # joins[k, b, c]: the table row that first holds row k's sample c + b *
    # words. Padding past n joins at row 0, so every row holds it and it
    # cancels like the earlier rows' samples below.
    joins = np.zeros(count * depth * words, dtype=np.intp)
    joins[(order + np.arange(0, count * depth * words, depth * words)[:, None]).ravel()] = (
        np.arange(1, count * n + 1) + np.arange(count).repeat(n)
    )
    joins = joins.reshape(count, depth, words)
    del order, at
    bits = np.left_shift(np.uint64(1), np.arange(depth, dtype=np.uint64))[:, None]
    # One allocation for both: freed as one chunk, the allocator keeps it for
    # the next block; two chunks let it trim the heap and fault it back in.
    table_size = count * (n + 1) * (tile + m)
    workspace = np.empty(table_size + count * n * (tile + m), dtype=np.uint64)
    table_words, near_words = workspace[:table_size], workspace[table_size:]
    a = np.zeros(count, dtype=np.int64)
    b = np.zeros(count, dtype=np.int64)
    for w0 in range(0, words, tile):
        t = min(tile, words - w0)
        width = t + m
        table = table_words[: count * (n + 1) * width].reshape(-1, width)
        table.fill(0)
        for s in range((w0 + width - 1) // words + 1):  # column c + s * words, bit b - s
            c0, c1 = max(0, w0 - s * words), min(words, w0 + width - s * words)
            table[joins[:, s:, c0:c1], np.arange(c0, c1) + (s * words - w0)] = bits[: depth - s]
        # Row k * (n + 1) + c now holds row k's c smallest samples XOR the
        # padding and all earlier rows' samples, which cancel in
        # table[hi] ^ table[lo].
        np.bitwise_xor.accumulate(table, axis=0, out=table)
        near = near_words[: count * n * width].reshape(count * n, width)
        np.take(table, hi_at, axis=0, out=near, mode="clip")  # in range; "clip" writes out unbuffered
        step = max(1, SAMPEN_TABLE_BYTES // (32 * width))  # a quarter of the budget
        for i in range(0, count * n, step):
            near[i : i + step] ^= np.take(table, lo_at[i : i + step], axis=0)
        near = near.reshape(count, n, width)
        # match[k, i] holds the templates that match template i; the table is spent
        match = table.reshape(-1)[: count * q * t].reshape(count, q, t)
        np.copyto(match, near[:, :q, :t])
        for k in range(1, m):
            match &= near[:, k : k + q, k : k + t]
        if w0 <= q % words < w0 + t:  # the length-m template at q is not one of the q
            match[:, :, q % words - w0] &= ~np.left_shift(np.uint64(1), np.uint64(q // words))
        b += np.bitwise_count(match).sum(axis=(1, 2), dtype=np.int64)
        match &= near[:, m : m + q, m : m + t]
        a += np.bitwise_count(match).sum(axis=(1, 2), dtype=np.int64)
    # every template matches itself, and each unordered pair counts twice
    return (a - q) // 2, (b - q) // 2


def _upper_bounds(values: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Per sorted row, the prefix-table row that ends each sample's run within r.

    Entry p of row k is k * (n + 1) plus the first position after p whose
    value exceeds row k's ``values[p]`` by more than ``r[k]``. Differences
    from a value grow along the sorted row, so a search on keys that lay
    the rows end to end finds it up to rounding; the exact comparison then
    moves it to the end of the run. Each row ends in a sentinel at +inf.
    """
    count, n = values.shape
    first = np.empty((count, n + 1))
    first[:, :n] = values
    first[:, n] = math.inf
    lo = first[:, :1]
    span = first[:, n - 1 : n] - lo
    span[span == 0.0] = 1.0
    base = 2.0 * np.arange(count)[:, None]
    keys = (first - lo) / span + base
    keys[:, n] = base[:, 0] + 1.5
    target = np.minimum(values + r[:, None] - lo, span) / span + base
    reach = np.searchsorted(keys.ravel(), target.ravel(), side="right")
    del keys, target
    first = first.ravel()
    own = values.ravel()
    tol = np.repeat(r, n)
    stuck = np.flatnonzero(first[reach] - own <= tol)
    while stuck.size:
        reach[stuck] += 1
        stuck = stuck[first[reach[stuck]] - own[stuck] <= tol[stuck]]
    stuck = np.flatnonzero(first[reach - 1] - own > tol)
    while stuck.size:
        reach[stuck] -= 1
        stuck = stuck[first[reach[stuck] - 1] - own[stuck] > tol[stuck]]
    return reach


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


def _unit_scaled(rows: np.ndarray, top: np.ndarray, bottom: np.ndarray) -> np.ndarray:
    """Each row times the power of two that puts its largest magnitude in [0.5, 1).

    ``top`` and ``bottom`` are the rows' maxima and minima. The scaling is
    exact, and a row scaled by 2**k scales to the same row. Rows of zeros
    and rows with a NaN or an infinity are returned unscaled.
    """
    return np.ldexp(rows, -np.frexp(np.maximum(top, -bottom))[1][:, None])


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
    ``BLOCK_SAMPLES`` samples; the rows do not depend on the slicing.
    Classes appear in first-appearance order, and row order within a
    class follows input order.
    """
    n, channels, w = windows.shape
    if n == 0:
        return {}
    rows = np.empty((n, channels * len(cfg.enabled_features)))
    step = max(1, BLOCK_SAMPLES // max(1, channels * w))
    block = np.empty((min(step, n), channels, w))  # one buffer for every slice
    for start in range(0, n, step):
        rows[start : start + step] = _feature_rows(windows.gather(start, block), cfg, fs)

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
