"""Naive reference implementations used as independent oracles.

Plain-Python loops, written without reusing any library helpers, so a
bug in the vectorized code cannot hide in its own mirror. Three
exceptions. ``candidate_sampen_counts`` is the vectorised candidate-pair
sample entropy counter that the bit-parallel one replaced; it is fast
enough to check windows too long for the naive loops. The other two are
at the end. The per-cell ablation reference zero-fills
windows and scores one ablated matrix per (class, subset), the path the
closed-form ablation audit replaces. The per-epoch oracle trainer draws
one permutation per pair per epoch, the draws ``train_stack`` makes a
chunk of epochs at a time. The per-channel synthetic renderer draws and
renders one channel at a time, the path the run-batched
``generate_recordings`` replaces.
"""

import math
from dataclasses import replace

import numpy as np

from sensoraudit.errors import InvalidSpecError, TooFewRowsError
from sensoraudit.features import FeatureMatrix, build_class_matrices, zero_window_features
from sensoraudit.oracle import gradients, init_params
from sensoraudit.separability import separability_score
from sensoraudit.synthetic import trial_length


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


def candidate_sampen_counts(rows, r, m):
    """Unordered template pairs within r at length m + 1 (A) and m (B), per row.

    The candidate-pair counter ``sampen.counts`` replaced: sort each
    row's templates by their first value, search each template's run of
    partners within r, and confirm every candidate pair on the other
    coordinates, 8,000 pairs at a time. Its cost grows with the number
    of candidates, up to W^2 / 2 on spiky rows.
    """
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
    for k0 in range(0, total, 8000):
        k1 = min(k0 + 8000, total)
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


def materialize(windows):
    """The C-contiguous float64 ``(N, C, W)`` array of every window of the
    record, row i cut from its unit by a plain slice."""
    out = np.empty(windows.shape)
    for i, (unit, start) in enumerate(windows.index.tolist()):
        out[i] = windows.units[unit][:, start : start + windows.width]
    return out


def nullify(windows, sensors):
    """Copy of the windows with the listed channels zero-filled in every unit."""
    idx = _sensor_indices(sensors, windows.channels)
    units = [u.copy() for u in windows.units]
    for u in units:
        u[idx, :] = 0.0
    return replace(windows, units=units)


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
    window_len = class_samples.width
    ablated = ablated_matrix(baseline, sensors, fcfg, window_len, fs)
    return getattr(separability_score(baseline, ablated), metric)


def per_epoch_train_stack(x, y, cfg, rngs):
    """``oracle.train_stack`` drawing one ``rng.permutation(n)`` per pair per
    epoch, each mini-batch gathered and differentiated without a workspace."""
    stack, n, d = x.shape
    inits = [init_params(d, cfg.hidden_units, rng) for rng in rngs]
    params = {key: np.stack([p[key] for p in inits]) for key in inits[0]}
    flat_x = x.reshape(stack * n, d)
    flat_y = y.reshape(stack * n)
    offsets = np.arange(stack)[:, None] * n
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(cfg.epochs):
            order = np.stack([rng.permutation(n) for rng in rngs]) + offsets
            for start in range(0, n, cfg.batch_size):
                idx = order[:, start : start + cfg.batch_size]
                for key, grad in gradients(params, flat_x[idx], flat_y[idx]).items():
                    grad *= cfg.learning_rate
                    params[key] -= grad
    return [{key: value[p] for key, value in params.items()} for p in range(stack)]


def _per_channel_smooth(x, kernel):
    if kernel <= 1:
        return x
    taps = np.ones(kernel) / kernel
    return np.convolve(x, taps, mode="same")


def per_channel_unit_rms(x):
    power = float(np.sqrt(np.mean(np.square(x))))
    return x / power if power > 0 else x


def _per_channel_tonic(rng, n, fs, p, modulation_len):
    phase = rng.uniform(0.0, 2.0 * math.pi)
    drift = per_channel_unit_rms(_per_channel_smooth(rng.standard_normal(n), modulation_len))
    envelope = p.gain * np.maximum(1.0 + p.amp_jitter * drift, 0.05)
    t = np.arange(n) / fs
    carrier = np.sin(2.0 * math.pi * p.carrier_hz * t + phase)
    texture = per_channel_unit_rms(_per_channel_smooth(rng.standard_normal(n), 5))
    return envelope * (carrier + p.am_depth * texture)


def _per_channel_noise(rng, n, p, modulation_len):
    envelope_noise = _per_channel_smooth(rng.standard_normal(n), modulation_len)
    envelope = np.exp(0.5 * per_channel_unit_rms(envelope_noise))
    mix_noise = _per_channel_smooth(rng.standard_normal(n), modulation_len)
    mix = 1.0 / (1.0 + np.exp(-2.0 * per_channel_unit_rms(mix_noise)))
    broadband = per_channel_unit_rms(rng.standard_normal(n))
    lowpass = per_channel_unit_rms(_per_channel_smooth(rng.standard_normal(n), 8))
    return p.gain * envelope * ((1.0 - mix) * broadband + mix * lowpass)


def per_channel_recordings(spec, seed=None):
    """The samples of ``generate_recordings(spec, seed)``, one ``(C, n)``
    array per class and trial, rendered channel by channel. The smoothing
    lengthens a trial shorter than 8 samples, so such specs fail here."""
    rng = np.random.default_rng(spec.seed if seed is None else seed)
    n = trial_length(spec)
    out = []
    for label in spec.class_names:
        for _ in range(spec.trials_per_class):
            channels = []
            for ch in range(spec.channel_count):
                p = spec.profile(ch, label)
                if p.kind == "tonic":
                    fs = spec.sampling_rate_hz
                    channels.append(_per_channel_tonic(rng, n, fs, p, spec.window_len_samples))
                else:
                    channels.append(_per_channel_noise(rng, n, p, spec.window_len_samples))
            out.append(np.stack(channels))
    return out
