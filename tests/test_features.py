import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import feature_row, windows_from
from reference_impls import (
    candidate_sampen_counts,
    materialize,
    naive_katz,
    naive_sample_entropy,
    two_slope_sign_changes,
)

from sensoraudit import features, sampen
from sensoraudit.errors import (
    DataFormatError,
    InvalidSpecError,
    UnbinnableWindowError,
    WindowTooShortError,
)
from sensoraudit.features import (
    FEATURE_NAMES,
    FeatureConfig,
    build_class_matrices,
    feature_columns,
    fractal_dimension,
    median_frequency,
    rms,
    sample_entropy,
    sampen_cap,
    shannon_entropy,
    slope_sign_changes,
    waveform_length,
    wavelet_energy,
    zero_crossings,
)
from sensoraudit.ingest import Recording, RecordingSet, SegmentationConfig, Windows, segment


class TestShannonEntropy:
    def test_constant_is_zero(self):
        assert shannon_entropy(np.full(100, 3.7)) == 0.0

    def test_two_values_equal_counts_one_bit(self):
        x = np.tile([1.0, 5.0], 50)
        assert shannon_entropy(x, bins=128) == pytest.approx(1.0, abs=1e-12)

    def test_uniform_one_per_bin(self):
        # 128 equally spaced values land one per bin -> log2(128) bits
        x = np.arange(128, dtype=float)
        assert shannon_entropy(x, bins=128) == pytest.approx(7.0, abs=1e-12)


def with_cap_flag(value, n, m):
    """A sample entropy and whether it is the cap, as ``naive_sample_entropy``
    returns them: a value is capped iff it equals ``sampen_cap(n, m)``."""
    return value, value == sampen_cap(n, m)


class TestSampleEntropy:
    def test_constant_is_zero(self):
        assert sample_entropy(np.zeros(50)) == 0.0
        assert sample_entropy(np.full(50, 2.0)) == 0.0

    def test_monotone_ramp_caps(self):
        x = np.arange(50, dtype=float)  # steps far exceed r = 0.2 * sd
        assert sample_entropy(x, m=2, r_coeff=0.01) == sampen_cap(50, 2)

    def test_window_too_short(self):
        with pytest.raises(WindowTooShortError):
            sample_entropy(np.array([1.0, 2.0, 3.0]), m=2)

    def test_noise_value_in_open_interval(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(size=400)
        value = sample_entropy(x, m=2, r_coeff=0.2)
        assert 0.0 < value < sampen_cap(400, 2)

    def test_matches_naive_counter_w400(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(size=400)
        r = 0.2 * float(x.std())
        expected, capped = naive_sample_entropy(list(x), 2, r)
        assert not capped
        assert sample_entropy(x, 2, 0.2) == expected

    def test_matches_naive_counter_small_windows(self):
        rng = np.random.default_rng(99)
        for _ in range(50):
            w = int(rng.integers(10, 201))
            x = rng.normal(size=w)
            r = 0.2 * float(x.std())
            expected, _ = naive_sample_entropy(list(x), 2, r)
            assert sample_entropy(x, 2, 0.2) == expected

    @staticmethod
    def assert_matches_naive(x, m=2, r_coeff=0.2):
        r = r_coeff * float(x.std())
        expected = naive_sample_entropy(list(x), m, r)
        assert with_cap_flag(sample_entropy(x, m, r_coeff), len(x), m) == expected

    def test_quantised_ties_match_naive(self):
        rng = np.random.default_rng(7)
        for w in (12, 60, 150, 300):
            for m in (1, 2, 3):
                self.assert_matches_naive(np.round(rng.normal(size=w) * 3), m)

    def test_zeros_with_one_spike_match_naive(self):
        for w, at in ((20, 0), (64, 31), (200, 199)):
            x = np.zeros(w)
            x[at] = 5.0
            self.assert_matches_naive(x)

    def test_near_constant_matches_naive(self):
        rng = np.random.default_rng(11)
        x = 1.0 + 1e-13 * rng.normal(size=150)
        self.assert_matches_naive(x)
        x = np.full(150, 3.0)
        x[::7] = np.nextafter(3.0, 4.0)
        self.assert_matches_naive(x)

    def test_rounding_boundary_pair_counted(self):
        # |x0 - x1| rounds to <= r while x0 + r rounds below x1, so a search
        # for x0 + r alone would miss this matching pair.
        x = np.array(
            [-0.07, 0.09368789042453603, 0.11, -0.03, 0.17, -1.67, 0.83, -0.57, -1.17, 0.64, 1.32]
        )
        self.assert_matches_naive(x, m=1)
        self.assert_matches_naive(x, m=2)

    def test_w1000_matches_naive(self):
        rng = np.random.default_rng(5)
        t = np.arange(1000) / 2000.0
        self.assert_matches_naive(np.sin(2 * np.pi * 60.0 * t) + 0.3 * rng.normal(size=1000))

    def test_tiling_does_not_change_counts(self, monkeypatch):
        # budgets of 1 byte (one-row blocks, one-word tiles), tiles of 2 and
        # 3 of a row's 5 words, and one untiled two-row block
        rng = np.random.default_rng(13)
        rows = np.stack([np.round(rng.normal(size=300) * 2), rng.normal(size=300)])
        rows[1, 100:130] += 20.0
        whole = sample_entropy(rows, 2, 0.2)
        for budget in (1, 8 * 301 * 4, 8 * 301 * 5, 1 << 30):
            monkeypatch.setattr(features, "SAMPEN_TABLE_BYTES", budget)
            assert same_bits(sample_entropy(rows, 2, 0.2), whole)

    def test_block_counts_equal_one_row_counts(self, monkeypatch):
        # constant, quantised, x2**600, NaN (its r is NaN) and ordinary rows;
        # blocks of 1, 3 and 5 rows put block boundaries inside the input.
        # A budget of whole rows' tables leaves each row untiled.
        rows = np.random.default_rng(21).normal(size=(11, 90))
        rows[[1, 6]] = 1.5
        rows[[2, 8]] = np.round(rows[[2, 8]] * 2)
        rows[3] = rows[0] * 2.0**600
        rows[9] = rows[4] * 2.0**600
        rows[7, 40] = np.nan
        alone = [sample_entropy(row, 2, 0.2) for row in rows]
        n = rows.shape[1]
        table_row = 8 * (n + 1) * (-(-n // 64) + 2)  # one row's prefix tables at m = 2
        for block in (1, 3, 5, len(rows)):
            monkeypatch.setattr(features, "SAMPEN_TABLE_BYTES", block * table_row)
            assert same_bits(sample_entropy(rows, 2, 0.2), alone)
        r = 0.2 * float(rows[2].std())
        assert with_cap_flag(alone[2], 90, 2) == naive_sample_entropy(list(rows[2]), 2, r)
        assert same_bits(alone[3], alone[0]) and same_bits(alone[9], alone[4])
        assert same_bits(alone[7], -0.0) and same_bits(alone[1], -0.0)

    @pytest.mark.parametrize("w", [90, 400, 1000])
    def test_one_call_equals_one_row_calls_at_any_budget(self, monkeypatch, w):
        # constant, quantised, x2**600, NaN, all-zero and ordinary rows in
        # one preparation pass; budgets of 1 byte (one-row blocks, one-word
        # tiles), one row's tables, three rows' tables and every row at once
        rows = np.random.default_rng(w).normal(size=(9, w))
        rows[1] = 1.5
        rows[2] = np.round(rows[2] * 2)
        rows[3] = rows[0] * 2.0**600
        rows[5, w // 3] = np.nan
        rows[6] = rows[2] * 2.0**600
        rows[7] = 0.0
        alone = [sample_entropy(row, 2, 0.2) for row in rows]
        table_row = 8 * (w + 1) * (-(-w // 64) + 2)  # one row's prefix tables at m = 2
        for budget in (1, table_row, 3 * table_row, 1 << 30):
            monkeypatch.setattr(features, "SAMPEN_TABLE_BYTES", budget)
            assert same_bits(sample_entropy(rows, 2, 0.2), alone)
            assert same_bits(sample_entropy(rows[::-1], 2, 0.2), alone[::-1])
            assert same_bits(sample_entropy(rows.reshape(3, 3, w), 2, 0.2), alone)
            # 36 rows of 1001 table rows outnumber int16, one block's do not
            assert same_bits(sample_entropy(np.tile(rows, (4, 1)), 2, 0.2), alone * 4)
        assert same_bits(alone[3], alone[0]) and same_bits(alone[6], alone[2])
        assert same_bits([alone[1], alone[5], alone[7]], [-0.0, -0.0, -0.0])
        if w == 90:
            r = 0.2 * float(rows[2].std())
            assert with_cap_flag(alone[2], w, 2) == naive_sample_entropy(list(rows[2]), 2, r)

    def test_bare_calls_allocate_their_own_work_arrays(self):
        # bits of the single-pass counter this one replaced
        rng = np.random.default_rng(44)
        rows = rng.normal(size=(3, 300))
        rows[1] = np.round(rows[1] * 2)
        x = np.sin(np.arange(500) / 7.0) + 0.2 * rng.normal(size=500)
        given = sampen.Work(3, 300, 2, features.SAMPEN_TABLE_BYTES)
        with mock.patch.object(sampen, "Work", wraps=sampen.Work) as work:
            one = sample_entropy(x)
            several = sample_entropy(rows)
            in_given = sample_entropy(rows, work=given)
        assert work.call_count == 2
        assert same_bits(in_given, several)
        assert one == float.fromhex("0x1.24aa7501f2d36p+0")
        assert several.tolist() == [
            float.fromhex(v) for v in ("0x1.292b47928e877p+1", "0x1.032f5a0533373p+1", "0x1.ebd4e9979e5d6p+0")
        ]

    def test_overflowing_sd_keeps_every_count(self):
        # x.std() overflows at this scale; unscaled r would be inf and
        # every template would match, reading -0.0
        x = np.random.default_rng(0).standard_normal(200)
        assert same_bits(sample_entropy(x * 2.0**600), sample_entropy(x))
        rows = np.stack([x, x[::-1] * 3.0, np.full(200, 5.0)])
        assert same_bits(sample_entropy(rows * 2.0**600), sample_entropy(rows))

    def test_underflowing_sd_keeps_every_count(self):
        # from about 2**-540 the squared deviations underflow; unscaled, r
        # read 0.0 and this row read the cap, 11.97
        x = np.random.default_rng(0).standard_normal(400)
        for k in (-540, -600):
            assert same_bits(sample_entropy(x * 2.0**k), sample_entropy(x))

    def test_constant_is_negative_zero(self):
        assert math.copysign(1.0, sample_entropy(np.zeros(50))) == -1.0
        assert math.copysign(1.0, sample_entropy(np.full(50, 2.0))) == -1.0

    def test_no_quadratic_allocation(self):
        # Nearly every pair is a candidate here; one dense W x W float64
        # matrix at W=2000 is 32 MB.
        x = np.zeros(2000)
        x[700] = 5.0
        assert working_memory(lambda: sample_entropy(x)) < 32_000_000

    def test_working_memory_below_the_candidate_counter(self):
        # Cap fixed before measuring, below the peaks of the candidate
        # counter this one replaced: 1.36 MB on the noise block and 0.93 MB
        # on the spike row.
        spike = np.zeros(4000)
        spike[1333] = 5.0
        for x in (np.random.default_rng(3).normal(size=(8, 1000)), spike):
            assert working_memory(lambda: sample_entropy(x)) < 900_000


def working_memory(call):
    """Peak bytes of ``call()``: tracemalloc's peak plus the sample-entropy
    work arrays it mapped, which live outside the traced heap."""
    mapped = []

    def work(*args):
        made = real(*args)
        mapped.append(made.tables.nbytes + made.runs.nbytes + made.joins.nbytes)
        return made

    real = sampen.Work
    with mock.patch.object(sampen, "Work", side_effect=work):
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert mapped  # the call made its own work arrays
    return peak + sum(mapped)


def sampen_tile_edge(m):
    """The longest window whose one-row prefix table fits SAMPEN_TABLE_BYTES."""
    w = m + 2
    while 8 * (w + 2) * (-(-(w + 1) // 64) + m) <= features.SAMPEN_TABLE_BYTES:
        w += 1
    return w


def sampen_row(kind, w, rng):
    if kind == "quantised":
        return np.round(rng.normal(size=w) * 2)
    if kind == "spike":
        row = np.zeros(w)
        row[rng.integers(w)] = 5.0
        return row
    row = 0.01 * rng.normal(size=w)  # bursty: quiet, then a contraction
    start = int(rng.integers(w))
    end = min(w, start + max(1, w // 8))
    row[start:end] += 3.0 * rng.normal(size=end - start)
    return row


@settings(max_examples=150, deadline=None)
@given(
    m=st.integers(1, 3),
    r_coeff=st.sampled_from([0.05, 0.2, 1.5]),
    kind=st.sampled_from(["quantised", "spike", "burst"]),
    width=st.sampled_from(["m+2", 63, 64, 65, 66, 127, 128, 129, 130, "edge", "edge+1"]),
    one_word_tiles=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_sample_entropy_counts_equal_references(m, r_coeff, kind, width, one_word_tiles, seed):
    rng = np.random.default_rng(seed)
    w = {"m+2": m + 2, "edge": sampen_tile_edge(m), "edge+1": sampen_tile_edge(m) + 1}.get(width, width)
    row = sampen_row(kind, w, rng)
    nan_row = row.copy()
    nan_row[rng.integers(w)] = np.nan
    rows = np.stack([row, row * 2.0**600, nan_row, np.full(w, row[0])])
    r = np.array([r_coeff * float(row.std())])
    with pytest.MonkeyPatch.context() as patch:
        if one_word_tiles:
            patch.setattr(features, "SAMPEN_TABLE_BYTES", 1)
        counts = sampen.counts(row[None], r, sampen.Work(1, w, m, features.SAMPEN_TABLE_BYTES))
        values = sample_entropy(rows, m, r_coeff)
    assert np.array_equal(counts, candidate_sampen_counts(row[None], r, m))
    if w <= 130:  # the naive loops are quadratic in Python
        expected = naive_sample_entropy(list(row), m, float(r[0]))
        assert same_bits(values[0], expected[0]) and with_cap_flag(values[0], w, m) == expected
    assert same_bits(values[1], values[0])
    assert same_bits(values[2:], [-0.0, -0.0])


@pytest.mark.parametrize("m", [1, 2])
def test_sample_entropy_run_ends_are_exact_where_the_search_rounds(m):
    # A search for x + r can end a run short of its end or past it: b lies
    # beyond fl(a + r) yet b - a <= r, and on a grid of step r some
    # x + j * r lie within fl(x + r) yet more than r from x. The exact
    # comparison must settle both ways.
    a, b, r_ab = -0.31138004239174966, -0.024715739820441316, 0.2866643025713083
    assert b > a + r_ab and b - a <= r_ab
    grid = 0.1 + 0.1 * np.arange(12)
    assert np.any((grid[1:] <= grid[:-1] + 0.1) & (grid[1:] - grid[:-1] > 0.1))
    rows = np.stack([np.tile([a, b], 6), grid])
    r = np.array([r_ab, 0.1])
    counts = sampen.counts(rows, r, sampen.Work(*rows.shape, m, features.SAMPEN_TABLE_BYTES))
    assert np.array_equal(counts, candidate_sampen_counts(rows, r, m))


class TestZeroCrossings:
    def test_alternating(self):
        assert zero_crossings(np.array([1.0, -1.0, 1.0, -1.0])) == 3

    def test_constant(self):
        assert zero_crossings(np.full(10, 4.0)) == 0

    def test_zeros_do_not_cross(self):
        assert zero_crossings(np.zeros(10)) == 0
        assert zero_crossings(np.array([0.0, 1.0, 0.0, -1.0])) == 0

    def test_threshold_filters_small_swings(self):
        x = np.array([0.1, -0.1, 0.1, -0.1])
        assert zero_crossings(x, threshold=0.5) == 0
        assert zero_crossings(x, threshold=0.2) == 3


class TestWaveformLength:
    def test_constant(self):
        assert waveform_length(np.full(7, 2.5)) == 0.0

    def test_square_steps(self):
        assert waveform_length(np.array([0.0, 1.0, 0.0, 1.0])) == 3.0

    def test_single_step(self):
        assert waveform_length(np.array([0.0, 2.0])) == 2.0


class TestRms:
    def test_constant(self):
        assert rms(np.full(5, -3.0)) == 3.0

    def test_three_four(self):
        assert rms(np.array([3.0, -4.0])) == pytest.approx(math.sqrt(12.5), abs=1e-12)

    def test_zeros(self):
        assert rms(np.zeros(9)) == 0.0


class TestSlopeSignChanges:
    def test_ramp(self):
        assert slope_sign_changes(np.arange(10.0)) == 0

    def test_two_extrema(self):
        assert slope_sign_changes(np.array([0.0, 1.0, 0.0, 1.0])) == 2

    def test_constant(self):
        assert slope_sign_changes(np.full(10, 1.0)) == 0

    def test_one_difference_keeps_the_two_subtraction_counts(self):
        # 3,000 arrays of 5 rows from across float64's range; no difference
        # overflows, as a sample at 1e308 only meets ones far below it
        rng = np.random.default_rng(31)
        kinds = (
            lambda n: rng.standard_normal(n),
            lambda n: np.round(rng.standard_normal(n) * 4),
            lambda n: rng.standard_normal(n) * 1e-160,
            lambda n: rng.standard_normal(n) * 1e154,
            lambda n: rng.choice([-1e-300, 1e-300], n) * (1.0 + rng.integers(-4, 5, n) * 2.0**-52),
            lambda n: np.where(
                rng.random(n) < 0.3, rng.choice([5e-324, -5e-324, 1e308], n), rng.standard_normal(n)
            ),
        )
        for _ in range(3000):
            n = int(rng.integers(0, 40))
            x = np.stack([kinds[k](n) for k in rng.integers(0, len(kinds), 5)])
            for threshold in (0.0, 5e-324, 1e-3, 0.5, 1e300):
                counts = slope_sign_changes(x, threshold)
                assert np.array_equal(counts, two_slope_sign_changes(x, threshold))


class TestMedianFrequency:
    def test_pure_tone_within_one_bin(self):
        t = np.arange(400) / 200.0
        x = np.sin(2 * np.pi * 25.0 * t)
        assert median_frequency(x, fs=200.0) == pytest.approx(25.0, abs=0.5)

    def test_constant_is_zero(self):
        assert median_frequency(np.full(128, 5.0), fs=200.0) == 0.0

    def test_white_noise_averages_to_quarter_fs(self):
        values = []
        for seed in range(100):
            rng = np.random.default_rng(seed)
            values.append(median_frequency(rng.standard_normal(400), fs=200.0))
        assert abs(np.mean(values) - 50.0) < 3.0

    @pytest.mark.parametrize("power", [505, 510])
    def test_overflowing_total_power_keeps_the_median(self, power):
        # the rows' total power overflows at these scales; unscaled they
        # read 252.5, 260 and 260 Hz
        x = np.random.default_rng(0).standard_normal((3, 400))
        scaled = median_frequency(x * 2.0**power, fs=1000.0)
        assert same_bits(scaled, median_frequency(x, fs=1000.0))

    def test_underflowing_total_power_keeps_the_median(self):
        # unscaled, every power underflowed to 0.0 and the rows read 0 Hz
        x = np.random.default_rng(0).standard_normal((3, 400))
        scaled = median_frequency(x * 2.0**-540, fs=1000.0)
        assert same_bits(scaled, median_frequency(x, fs=1000.0))


class TestWaveletEnergy:
    def test_zeros(self):
        assert wavelet_energy(np.zeros(64)) == 0.0

    def test_constant(self):
        assert wavelet_energy(np.full(64, 3.0)) == pytest.approx(0.0, abs=1e-12)

    def test_single_detail(self):
        assert wavelet_energy(np.array([1.0, -1.0]), levels=1) == pytest.approx(2.0, rel=1e-12)

    def test_energy_conservation_power_of_two(self):
        # orthonormality: approx energy + detail energies == signal energy
        rng = np.random.default_rng(7)
        for n in (64, 128, 256):
            x = rng.standard_normal(n)
            levels = 4
            approx = x.copy()
            details = 0.0
            for _ in range(levels):
                even, odd = approx[0::2], approx[1::2]
                details += float(np.square((even - odd) / math.sqrt(2)).sum())
                approx = (even + odd) / math.sqrt(2)
            total = float(np.square(approx).sum()) + details
            assert total == pytest.approx(float(np.square(x).sum()), rel=1e-9)
            assert wavelet_energy(x, levels) == pytest.approx(details, rel=1e-12)

    def test_odd_lengths_drop_trailing_sample(self):
        x = np.arange(9, dtype=float)
        assert wavelet_energy(x, 1) == pytest.approx(wavelet_energy(x[:8], 1), rel=1e-12)

    def test_overflowing_energy_is_bad_data(self):
        # the detail energy exceeds float64; before, np.square warned twice
        # and the rows read inf
        rows = np.array([[0.0, 1.0, 0.0, 1.0], [0.0, 1e155, -1e155, 1e155]])
        with pytest.raises(DataFormatError, match="wavelet_energy.*1e\\+155 overflows"):
            wavelet_energy(rows)
        assert np.isnan(wavelet_energy(np.array([0.0, np.nan, 1.0, 2.0])))


class TestFractalDimension:
    def test_ramp_is_one(self):
        assert fractal_dimension(np.arange(50, dtype=float)) == pytest.approx(1.0, abs=1e-12)
        assert fractal_dimension(0.5 * np.arange(400, dtype=float) + 3.0) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_constant_is_one(self):
        assert fractal_dimension(np.full(50, 2.0)) == 1.0

    def test_noise_in_open_interval_and_matches_reference(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(400)
        value = fractal_dimension(x)
        assert 1.0 < value < 2.0
        assert value == pytest.approx(naive_katz(list(x)), rel=1e-12)

    def test_overflowing_curve_length_is_bad_data(self):
        # the steps' squares overflow; before, log10 of a zero ratio raised
        # a bare ValueError (math domain error)
        rows = np.array([[0.0, 1.0, 0.0, 1.0], [0.0, 1e154, -1e154, 1e154]])
        with pytest.raises(DataFormatError, match="fractal_dimension.*1e\\+154"):
            fractal_dimension(rows)
        assert fractal_dimension(rows[0]) == fractal_dimension(rows[:1])[0]


# grid values with power-of-two scales stay exactly representable, so the
# invariants are not muddied by float underflow at subnormal magnitudes
_signal_values = st.integers(-800, 800).map(lambda k: k / 8.0)
_pow2_scales = st.sampled_from([0.25, 0.5, 2.0, 4.0, 32.0])


@settings(max_examples=40, deadline=None)
@given(st.lists(_signal_values, min_size=4, max_size=60), _pow2_scales)
def test_counting_features_scale_invariant(values, scale):
    x = np.asarray(values)
    assert zero_crossings(x * scale) == zero_crossings(x)
    assert slope_sign_changes(x * scale) == slope_sign_changes(x)


@settings(max_examples=40, deadline=None)
@given(st.lists(_signal_values, min_size=2, max_size=60), _pow2_scales)
def test_amplitude_features_scale_linearly(values, scale):
    x = np.asarray(values)
    assert rms(x * scale) == pytest.approx(scale * rms(x), rel=1e-9, abs=1e-12)
    assert waveform_length(x * scale) == pytest.approx(
        scale * waveform_length(x), rel=1e-9, abs=1e-12
    )


class TestAmplitudeFree:
    # at 2**600 neighbour products and squares overflow, at 2**-600 they
    # underflow to zero; the thresholds scale with the row
    @pytest.mark.parametrize("k", [-600, 600])
    def test_counts_and_rms_keep_their_bits(self, k):
        x = np.random.default_rng(0).standard_normal(400)
        rows = np.stack([x, np.round(x * 2), np.cumsum(x), np.zeros(400)])
        scale = 2.0**k
        for t in (0.0, 0.3):
            assert np.array_equal(zero_crossings(rows * scale, t * scale), zero_crossings(rows, t))
        assert np.array_equal(slope_sign_changes(rows * scale), slope_sign_changes(rows))
        assert same_bits(rms(rows * scale), np.ldexp(rms(rows), k))
        assert zero_crossings(x * scale) == zero_crossings(x) == 206
        assert slope_sign_changes(x * scale) == slope_sign_changes(x) == 267
        assert same_bits(rms(x * scale), math.ldexp(rms(x), k))

    def test_neighbour_differences_past_float64(self):
        # every difference of neighbours overflows; before, each of the three
        # warned "overflow encountered in subtract"
        x = np.array([1e308, -1e308] * 50)
        for t in (0.0, 1e300):
            assert zero_crossings(x, t) == 99
            assert slope_sign_changes(x, t) == 98
        with pytest.raises(DataFormatError, match="waveform_length.*1e\\+308 overflows"):
            waveform_length(np.stack([np.ones(100), x]))

    def test_nonzero_slope_threshold_over_overflowing_products(self):
        # every product of slopes is far above 1.0 at this scale
        x = np.random.default_rng(1).standard_normal(200)
        assert slope_sign_changes(x * 2.0**600, 1.0) == slope_sign_changes(x)


class TestFeatureRow:
    def test_72_dims_for_eight_channels(self, fcfg):
        rng = np.random.default_rng(0)
        s = rng.standard_normal((8, 400))
        vec = feature_row(s, fcfg, fs=200.0)
        assert vec.shape == (72,)
        assert np.isfinite(vec).all()

    def test_all_zero_sample_hits_conventions(self, fcfg):
        vec = feature_row(np.zeros((2, 100)), fcfg, fs=200.0)
        per_channel = [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0]
        assert vec.tolist() == per_channel * 2

    def test_channel_major_ordering(self):
        cfg = FeatureConfig(enabled_features=("rms", "waveform_length", "zero_crossings"))
        data = np.array([[1.0, -1.0, 1.0, -1.0], [2.0, 2.0, 2.0, 2.0]])
        vec = feature_row(data, cfg, fs=200.0)
        assert vec.tolist() == [1.0, 6.0, 3.0, 2.0, 0.0, 0.0]
        assert feature_columns(2, cfg) == (
            (0, "rms"),
            (0, "waveform_length"),
            (0, "zero_crossings"),
            (1, "rms"),
            (1, "waveform_length"),
            (1, "zero_crossings"),
        )

    def test_window_too_short(self, fcfg):
        with pytest.raises(WindowTooShortError):
            feature_row(np.ones((1, 3)), fcfg, fs=200.0)

    @pytest.mark.parametrize(
        "enabled, need",
        [(("zero_crossings",), 2), (("median_frequency",), 2), (("slope_sign_changes",), 3), (FEATURE_NAMES, 4)],
    )
    def test_zero_window_below_the_minimum_is_refused(self, enabled, need):
        cfg = FeatureConfig(enabled_features=enabled)
        assert feature_row(np.zeros((1, need)), cfg, 200.0).shape == (len(enabled),)
        with pytest.raises(WindowTooShortError, match=f"below the {need}-sample minimum"):
            feature_row(np.zeros((1, need - 1)), cfg, 200.0)

    def test_deterministic_repeat(self, fcfg):
        rng = np.random.default_rng(5)
        s = rng.standard_normal((4, 256))
        a = feature_row(s, fcfg, fs=200.0)
        b = feature_row(s, fcfg, fs=200.0)
        assert np.array_equal(a, b)


class TestBuildClassMatrices:
    def test_grouping_and_provenance(self, fcfg):
        rng = np.random.default_rng(2)
        windows = windows_from(
            [
                (rng.standard_normal((3, 64)), label, f"t{i}", i * 10)
                for i, label in enumerate(["a", "b", "a", "b", "a"])
            ]
        )
        mats = build_class_matrices(windows, fcfg, fs=200.0)
        assert set(mats) == {"a", "b"}
        assert mats["a"].values.shape == (3, 27)
        assert mats["a"].row_provenance == (("t0", 0), ("t2", 20), ("t4", 40))
        assert len(mats["a"].column_index) == 27

    def test_empty_input(self, fcfg):
        empty = Windows((), (), (), (), 3, 64)
        assert build_class_matrices(empty, fcfg, fs=200.0) == {}

    def test_one_sample_per_class(self, fcfg):
        rng = np.random.default_rng(4)
        windows = windows_from(
            [(rng.standard_normal((2, 64)), label, "t", 0) for label in ["a", "b"]]
        )
        mats = build_class_matrices(windows, fcfg, fs=200.0)
        assert all(m.values.shape == (1, 18) for m in mats.values())

    def test_column_count_matches_config(self):
        for enabled in [FEATURE_NAMES, ("rms",), ("shannon_entropy", "median_frequency")]:
            cfg = FeatureConfig(enabled_features=tuple(enabled))
            rng = np.random.default_rng(1)
            windows = windows_from([(rng.standard_normal((5, 64)), "a", "t", 0)])
            mats = build_class_matrices(windows, cfg, fs=200.0)
            assert mats["a"].values.shape == (1, 5 * len(enabled))


def one_per_row(name):
    """Extractor ``name`` at FeatureConfig defaults (m=1 so W=3 is allowed)."""
    return {
        "shannon_entropy": lambda x: shannon_entropy(x, 128),
        "sample_entropy": lambda x: sample_entropy(x, 1, 0.2),
        "zero_crossings": lambda x: zero_crossings(x, 0.1),
        "waveform_length": waveform_length,
        "rms": rms,
        "slope_sign_changes": lambda x: slope_sign_changes(x, 0.01),
        "median_frequency": lambda x: median_frequency(x, 200.0),
        "wavelet_energy": lambda x: wavelet_energy(x, 4),
        "fractal_dimension": fractal_dimension,
    }[name]


def awkward_rows(w, seed=0):
    rng = np.random.default_rng(seed)
    spike = np.zeros(w)
    spike[w // 3] = 5.0
    return np.array(
        [
            rng.normal(size=w),
            np.round(rng.normal(size=w) * 2),  # quantised, many ties
            np.zeros(w),
            np.full(w, -2.5),
            spike,
            1e150 * rng.normal(size=w),
            np.sin(np.arange(w) * 0.3) + 0.01 * rng.normal(size=w),
        ]
    )


def same_bits(a, b):
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


def histogram_entropy(x, bins):
    """Shannon entropy from np.histogram, summed with .sum() on the nonzero bins."""
    if x.max() == x.min():
        return 0.0
    counts, _ = np.histogram(x, bins=bins, range=(float(x.min()), float(x.max())))
    p = counts[counts > 0] / x.size
    return float(-(p * np.log2(p)).sum())


# The features module docstring's table: extractor -> its value on a
# window whose samples all equal c, and the narrowest window it takes.
CONSTANT_SIGNAL = {
    "shannon_entropy": (lambda c: 0.0, 1),
    "sample_entropy": (lambda c: -0.0, 3),  # m = 1 in one_per_row
    "zero_crossings": (lambda c: 0, 2),
    "waveform_length": (lambda c: 0.0, 1),
    "rms": (abs, 1),
    "slope_sign_changes": (lambda c: 0, 3),
    "median_frequency": (lambda c: 0.0, 2),
    "wavelet_energy": (lambda c: 0.0, 1),
    "fractal_dimension": (lambda c: 1.0, 1),
}


@pytest.mark.parametrize("name", FEATURE_NAMES)
@settings(max_examples=60, deadline=None)
@given(
    c=st.sampled_from([0.0, 1.0, -1.0, 1e300, -1e300, 5e-324, -5e-324]),
    rows=st.integers(1, 4),
    data=st.data(),
)
def test_constant_windows_give_the_documented_value(name, c, rows, data):
    value, narrowest = CONSTANT_SIGNAL[name]
    w = data.draw(st.integers(narrowest, 1000), label="w")
    extractor = one_per_row(name)
    alone = extractor(np.full(w, c))
    batched = extractor(np.full((rows, w), c))
    if name == "rms":  # the mean of w squares rounds; sqrt halves its error
        assert abs(alone - abs(c)) <= 16 * math.ulp(abs(c))
    else:
        assert type(alone) is type(value(c)) and same_bits(alone, value(c))
    assert same_bits(batched, np.full(rows, alone))


def spike_or_quantised_rows(kind, rows, w, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    if kind == "spike":
        x = np.zeros((rows, w))
        x[np.arange(rows), rng.integers(w, size=rows)] = rng.choice([-5.0, 0.5, 3.0], size=rows)
        return x
    return np.round(rng.normal(size=(rows, w)) * rng.choice([1.0, 4.0]))


# Extractors whose value does not depend on the row's amplitude, at
# thresholds that do not either.
SCALE_FREE = {
    "zero_crossings": zero_crossings,
    "slope_sign_changes": slope_sign_changes,
    "median_frequency": lambda x: median_frequency(x, 200.0),
    "sample_entropy": lambda x: sample_entropy(x, 1, 0.2),
}


@pytest.mark.parametrize("name", FEATURE_NAMES)
@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["spike", "quantised"]),
    rows=st.integers(1, 4),
    k=st.integers(-600, 600),
    data=st.data(),
)
def test_spike_and_quantised_windows_batch_exactly(name, kind, rows, k, data):
    w = data.draw(st.integers(CONSTANT_SIGNAL[name][1], 1000), label="w")
    x = spike_or_quantised_rows(kind, rows, w, data)
    extractor = one_per_row(name)
    batched = extractor(x)
    assert np.isfinite(batched).all()
    assert same_bits(batched, [extractor(row) for row in x])
    if name in SCALE_FREE:
        assert same_bits(SCALE_FREE[name](x * 2.0**k), SCALE_FREE[name](x))


@settings(max_examples=100, deadline=None)
@given(
    kind=st.sampled_from(["spike", "quantised"]),
    rows=st.integers(1, 4),
    m=st.integers(1, 3),
    r_coeff=st.sampled_from([0.05, 0.2, 1.5]),
    data=st.data(),
)
def test_sample_entropy_is_capped_iff_it_equals_the_cap(kind, rows, m, r_coeff, data):
    w = data.draw(st.integers(m + 2, 1000), label="w")
    x = spike_or_quantised_rows(kind, rows, w, data)
    r = r_coeff * x.std(axis=1)
    a, b = sampen.counts(x, r, sampen.Work(*x.shape, m, features.SAMPEN_TABLE_BYTES))
    no_pair = ((a == 0) | (b == 0)) & (x.min(axis=1) != x.max(axis=1))
    assert np.array_equal(sample_entropy(x, m, r_coeff) == sampen_cap(w, m), no_pair)


class TestBatchedExtractors:
    @pytest.mark.parametrize("w", [3, 4, 127, 128, 400])
    @pytest.mark.parametrize("name", FEATURE_NAMES)
    def test_rows_equal_one_dimensional_values(self, name, w):
        extractor = one_per_row(name)
        rows = awkward_rows(w, seed=w)
        batched = extractor(rows)
        assert batched.shape == (rows.shape[0],)
        singles = []
        for row in rows:
            value = extractor(row)
            assert isinstance(value, (int, float)) and not isinstance(value, np.generic)
            singles.append(value)
        assert same_bits(batched, singles)
        # a stack of stacks gives one value per innermost row
        stacked = extractor(np.stack([rows, rows[::-1]]))
        assert same_bits(stacked, [singles, singles[::-1]])

    @pytest.mark.parametrize("w", [3, 4, 127, 128, 400])
    def test_shannon_matches_histogram(self, w):
        rows = np.vstack([awkward_rows(w, seed=w + 1), awkward_rows(w, seed=w + 2)[:, ::-1]])
        for bins in (1, 7, 128):
            expected = [histogram_entropy(row, bins) for row in rows]
            assert same_bits(shannon_entropy(rows, bins), expected)

    def test_shannon_edge_corrections_on_decimal_grids(self):
        # On these grids (x - lo) / (hi - lo) * bins lands on the wrong side
        # of a bin edge for some values; np.histogram moves them back.
        rng = np.random.default_rng(1)
        rows = [rng.integers(-1000, 1000, size=128) * 0.1 for _ in range(100)]
        rows += [
            np.round(rng.normal(size=128) * rng.integers(1, 300)) / rng.integers(1, 300)
            for _ in range(100)
        ]
        rows = np.array(rows)
        expected = [histogram_entropy(row, 128) for row in rows]
        assert same_bits(shannon_entropy(rows, 128), expected)

    def test_shannon_rows_a_sequential_sum_gets_wrong(self):
        # np.add.reduceat sums each row's terms left to right; on some of
        # these rows that differs in the last bit from the pairwise .sum()
        # of the 1-D code, so only the grouped .sum(axis=1) matches.
        rows = np.random.default_rng(0).normal(size=(64, 128))
        expected = [histogram_entropy(row, 128) for row in rows]
        sequential = []
        for row in rows:
            counts, _ = np.histogram(row, bins=128, range=(row.min(), row.max()))
            p = counts[counts > 0] / row.size
            sequential.append(-np.add.reduceat(p * np.log2(p), [0])[0])
        assert not same_bits(sequential, expected)
        assert same_bits(shannon_entropy(rows, 128), expected)

    def test_shannon_narrow_range_raises_like_histogram(self):
        x = np.full(50, 3.0)
        x[::7] = np.nextafter(3.0, 4.0)
        with pytest.raises(ValueError):
            np.histogram(x, bins=128, range=(x.min(), x.max()))
        with pytest.raises(ValueError):
            shannon_entropy(np.stack([np.arange(50.0), x]), 128)

    def test_shannon_narrow_range_error_is_typed(self):
        x = np.full(128, 3.0)
        x[1::2] = np.nextafter(3.0, 4.0)
        with pytest.raises(UnbinnableWindowError, match="entropy_bins") as err:
            shannon_entropy(np.stack([np.arange(128.0), x]), 64)
        assert isinstance(err.value, DataFormatError)
        assert isinstance(err.value, ValueError)
        assert "3.0000000000000004" in str(err.value)
        assert shannon_entropy(x, 1) == 0.0  # one bin needs no inner edge

    def test_shannon_range_that_overflows_is_refused(self):
        # hi - lo overflowed with two RuntimeWarnings, and the window was
        # then called near-constant
        x = np.array([-1.09e308, 0.0, 1.19e308, 5.0])
        with np.errstate(all="ignore"), pytest.raises(ValueError, match="Too many bins"):
            np.histogram(x, bins=4, range=(x.min(), x.max()))  # which warns on its way
        with pytest.raises(UnbinnableWindowError) as err:
            shannon_entropy(np.stack([np.arange(4.0), x]), 4)
        assert str(err.value) == (
            "shannon_entropy: the range [-1.09e+308, 1.19e+308] of a window overflows float64"
        )

    @pytest.mark.parametrize("bins", [2, 3, 16, 128, 1000])
    @pytest.mark.parametrize("lo", [0.0, -1e-310, 1e-320])
    def test_shannon_underflowing_step_is_refused(self, lo, bins):
        # (hi - lo) / bins underflows to zero: np.linspace computes such
        # edges another way, but they collapse all the same
        refused = 0
        for k in range(1, bins + 1):
            hi = lo + k * 5e-324
            if (hi - lo) / bins != 0.0:
                continue
            with pytest.raises(UnbinnableWindowError) as err:
                shannon_entropy(np.array([lo, hi, lo]), bins)
            assert str(err.value) == (
                f"shannon_entropy: a near-constant window spans only [{lo!r}, {hi!r}], "
                f"too few distinct values for {bins} equal-width bins (entropy_bins)"
            )
            refused += 1
        assert refused == bins // 2

    def test_median_frequency_matches_searchsorted(self):
        rows = np.vstack([awkward_rows(400, seed=3), awkward_rows(400, seed=4)])
        freqs = np.fft.rfftfreq(400, d=1.0 / 200.0)[1:]
        expected = []
        for row in rows:
            spectrum = np.fft.rfft(row)
            power = (spectrum.real**2 + spectrum.imag**2)[1:]
            total = float(power.sum())
            idx = int(np.searchsorted(np.cumsum(power), 0.5 * total))
            constant = row.min() == row.max()  # its non-DC power is rounding error
            expected.append(0.0 if total <= 0.0 or constant else float(freqs[idx]))
        assert same_bits(median_frequency(rows, 200.0), expected)

    def test_sample_entropy_caps_per_row(self):
        rows = np.stack([np.arange(50.0), np.zeros(50)])
        values = sample_entropy(rows, 2, 0.01)
        assert same_bits(values, [sampen_cap(50, 2), -0.0])


class TestBlockEngine:
    @staticmethod
    def windows(n=20, channels=3, width=64):
        rng = np.random.default_rng(8)
        out = []
        for i in range(n):
            data = rng.normal(size=(channels, width))
            if i % 5 == 0:
                data[1] = 0.0  # a dead channel: constants such as -0.0
            if i % 4 == 0:
                data[2] = np.round(data[2] * 2)
            out.append((data, "a" if i < 11 else "b", f"t{i}", i))
        return windows_from(out)

    def test_rows_independent_of_block_size(self, monkeypatch, fcfg):
        windows = self.windows()
        per_window = 3 * 64
        results = []
        # blocks of 1, 7 (the 7..13 block splits class "a" from "b") and all windows
        for block in (1, 7, len(windows)):
            monkeypatch.setattr(features, "BLOCK_SAMPLES", block * per_window)
            results.append(build_class_matrices(windows, fcfg, fs=200.0))
        for mats in results[1:]:
            for label in ("a", "b"):
                assert same_bits(mats[label].values, results[0][label].values)
        one_window = [feature_row(data, fcfg, fs=200.0) for data in materialize(windows)[:11]]
        assert same_bits(results[0]["a"].values, one_window)

    def test_w1000_rows_independent_of_block_size(self, monkeypatch, fcfg):
        windows = self.windows(n=12, width=1000)
        one_window = [feature_row(data, fcfg, fs=2000.0) for data in materialize(windows)]
        # slices of one window, the default (5, 5 and 2 windows) and all 12
        for samples in (3 * 1000, features.BLOCK_SAMPLES, 12 * 3 * 1000):
            monkeypatch.setattr(features, "BLOCK_SAMPLES", samples)
            mats = build_class_matrices(windows, fcfg, fs=2000.0)
            assert same_bits(np.concatenate([mats["a"].values, mats["b"].values]), one_window)

    def test_one_build_allocates_sample_entropy_work_arrays_once(self, monkeypatch, fcfg):
        windows = self.windows()
        monkeypatch.setattr(features, "BLOCK_SAMPLES", 5 * 3 * 64)  # four slices
        expected = build_class_matrices(windows, fcfg, fs=200.0)
        calls = mock.patch.object(features, "sample_entropy", wraps=features.sample_entropy)
        with mock.patch.object(sampen, "Work", wraps=sampen.Work) as work, calls as sampen_calls:
            got = build_class_matrices(windows, fcfg, fs=200.0)
        assert work.call_count == 1
        given = [call.kwargs["work"] for call in sampen_calls.call_args_list]
        assert len(given) == 4 and given[0] is not None
        assert all(w is given[0] for w in given)
        for label in ("a", "b"):
            assert same_bits(got[label].values, expected[label].values)

    @pytest.mark.parametrize("concat", [True, False])
    @pytest.mark.parametrize("overlap", [0.0, 0.5, 0.9])
    def test_record_gives_the_bits_of_its_window_array(self, monkeypatch, fcfg, concat, overlap):
        rng = np.random.default_rng(9)
        layout = [(150, "a"), (40, "a"), (200, "b"), (63, "b"), (120, "a"), (64, "b")]
        recs = [
            Recording(rng.normal(size=(3, t)), label, f"t{i}", f"s{i % 2}", "p0")
            for i, (t, label) in enumerate(layout)
        ]
        cfg = SegmentationConfig(
            trim_head_ms=0.0,
            trim_tail_ms=0.0,
            window_len_samples=64,
            overlap_fraction=overlap,
            concat_trials_within_session=concat,
        )
        windows = segment(RecordingSet(recs, 200.0, ["a", "b"], 3), cfg)
        # t1 (40 samples) is a unit shorter than W in both modes, t3 (63) without concat
        assert not {"p0/s1/t1", "p0/s1/t3"} & {trial for trial, _ in windows.provenance}
        monkeypatch.setattr(features, "BLOCK_SAMPLES", 5 * 3 * 64)
        units = windows.index[:, 0]
        assert any(len(set(units[i : i + 5])) > 1 for i in range(0, len(windows), 5))
        rows = features._feature_rows(materialize(windows), fcfg, 200.0)
        first = build_class_matrices(windows, fcfg, fs=200.0)
        again = build_class_matrices(windows, fcfg, fs=200.0)
        assert list(first) == ["a", "b"]
        for label, matrix in first.items():
            assert same_bits(matrix.values, rows[np.array(windows.labels) == label])
            assert same_bits(again[label].values, matrix.values)

    def test_zero_window_keeps_negative_zero_sample_entropy(self, fcfg):
        k = FEATURE_NAMES.index("sample_entropy")
        constants = feature_row(np.zeros((1, 100)), fcfg, fs=200.0)
        assert math.copysign(1.0, constants[k]) == -1.0
        row = feature_row(np.zeros((2, 100)), fcfg, fs=200.0)
        assert same_bits(row, np.concatenate([constants, constants]))


class TestFeatureConfigValidation:
    @pytest.mark.parametrize("field", ["sampen_r_coeff", "zc_threshold", "ssc_threshold"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_settings_rejected(self, field, value):
        with pytest.raises(InvalidSpecError, match=field):
            FeatureConfig(**{field: value})
        with pytest.raises(InvalidSpecError, match=field):
            FeatureConfig.from_json_dict({field: value})

    @pytest.mark.parametrize("field", ["entropy_bins", "sampen_m", "wavelet_levels"])
    @pytest.mark.parametrize("value", [float("nan"), 2.5, 3.0, True, "3", None, 0, -1])
    def test_integer_settings_need_positive_int(self, field, value):
        with pytest.raises(InvalidSpecError, match=field):
            FeatureConfig(**{field: value})
        with pytest.raises(InvalidSpecError, match=field):
            FeatureConfig.from_json_dict({field: value})
