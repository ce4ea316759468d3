import dataclasses

import numpy as np
import pytest

from conftest import CLASSES, graded_spec, matrices_of, windows_of
from reference_impls import per_channel_unit_rms, per_channel_recordings

from sensoraudit import synthetic

from sensoraudit.errors import InvalidSpecError
from sensoraudit.features import FeatureConfig, build_class_matrices
from sensoraudit.separability import pairwise_audit
from sensoraudit.synthetic import (
    ChannelProfile,
    ChannelSpec,
    SyntheticSpec,
    generate_recordings,
    trial_length,
)


def tonic(gain, **kw):
    return ChannelProfile(kind="tonic", gain=gain, **kw)


def interleaved_spec(seed, window_len=32, windows=12, trials=2, overlap=0.5):
    """Runs of noise channels split by tonic channels, a different split in
    each class, with two channels past ``channels`` (default noise)."""
    return SyntheticSpec(
        class_names=["a", "b", "c"],
        channel_count=8,
        sampling_rate_hz=333.0,
        windows_per_class=windows,
        window_len_samples=window_len,
        overlap_fraction=overlap,
        trials_per_class=trials,
        seed=seed,
        channels=[
            ChannelSpec(classes={"a": tonic(2.0, carrier_hz=17.0)}),
            ChannelSpec(default=ChannelProfile(gain=1.5)),
            ChannelSpec(classes={"b": tonic(1.2, amp_jitter=0.0), "c": tonic(3.0, am_depth=0.9)}),
            ChannelSpec(),
            ChannelSpec(classes={"a": tonic(1.1), "b": tonic(0.7, carrier_hz=55.0)}),
            ChannelSpec(classes={"c": ChannelProfile(gain=0.3)}),
        ],
    )


def all_noise_spec(seed, windows=300):
    return SyntheticSpec(
        class_names=["a", "b", "c"],
        channel_count=4,
        windows_per_class=windows,
        window_len_samples=128,
        overlap_fraction=0.0,
        trials_per_class=4,
        seed=seed,
    )


class TestSpecValidation:
    def test_empty_classes(self):
        with pytest.raises(InvalidSpecError):
            SyntheticSpec(class_names=[], channel_count=2)

    def test_nonpositive_counts(self):
        with pytest.raises(InvalidSpecError):
            SyntheticSpec(class_names=["a"], channel_count=0)
        with pytest.raises(InvalidSpecError):
            SyntheticSpec(class_names=["a"], channel_count=2, windows_per_class=0)

    def test_unknown_profile_class(self):
        with pytest.raises(InvalidSpecError):
            SyntheticSpec(
                class_names=["a"],
                channel_count=1,
                channels=[ChannelSpec(classes={"zz": ChannelProfile()})],
            )

    @pytest.mark.parametrize("label", ["", ".", "..", "../escaped", "a/b", "a\\b", "a\0b"])
    def test_unsafe_class_label(self, label):
        with pytest.raises(InvalidSpecError, match="file name"):
            SyntheticSpec(class_names=["ok", label], channel_count=1)

    def test_replace_to_fewer_channels(self):
        spec = SyntheticSpec(class_names=["a", "b"], channel_count=3)
        fewer = dataclasses.replace(spec, channel_count=2)
        assert fewer.channel_count == 2 and fewer.channels == ()
        assert fewer.profile(1, "a") == ChannelProfile()

    def test_unlisted_channels_are_default_noise(self):
        tonic = ChannelProfile(kind="tonic", gain=2.0)
        spec = SyntheticSpec(
            class_names=["a", "b"], channel_count=3, channels=[ChannelSpec(classes={"a": tonic})]
        )
        assert spec.profile(0, "a") == tonic
        assert spec.profile(0, "b") == spec.profile(2, "a") == ChannelProfile()

    def test_unknown_kind(self):
        with pytest.raises(InvalidSpecError):
            ChannelProfile(kind="sparkle")

    def test_json_roundtrip(self):
        spec = graded_spec(3)
        clone = SyntheticSpec.from_json_dict(spec.to_json_dict())
        assert clone.to_json_dict() == spec.to_json_dict()

    def test_unknown_json_field(self):
        payload = graded_spec(3).to_json_dict()
        payload["bogus"] = 1
        with pytest.raises(InvalidSpecError):
            SyntheticSpec.from_json_dict(payload)


class TestGeneration:
    def test_bit_reproducible(self):
        spec = graded_spec(7)
        a = generate_recordings(spec)
        b = generate_recordings(spec)
        assert all(
            np.array_equal(x.samples, y.samples)
            for x, y in zip(a.recordings, b.recordings)
        )
        blob_a = b"".join(x.samples.tobytes() for x in a.recordings)
        blob_b = b"".join(y.samples.tobytes() for y in b.recordings)
        assert blob_a == blob_b

    def test_different_seeds_differ(self):
        spec = graded_spec(7)
        a = generate_recordings(spec, seed=1)
        b = generate_recordings(spec, seed=2)
        assert not np.array_equal(a.recordings[0].samples, b.recordings[0].samples)

    def test_window_target_met(self):
        for spec in (graded_spec(0), all_noise_spec(0)):
            windows, _ = windows_of(spec)
            for label in spec.class_names:
                count = windows.labels.count(label)
                assert count >= spec.windows_per_class

    def test_trial_length_formula(self):
        spec = graded_spec(0)
        per_trial = -(-spec.windows_per_class // spec.trials_per_class)
        stride = spec.segmentation().stride
        assert trial_length(spec) == spec.window_len_samples + (per_trial - 1) * stride

    def test_shapes_and_labels(self):
        spec = graded_spec(1)
        rset = generate_recordings(spec)
        assert len(rset.recordings) == len(CLASSES) * spec.trials_per_class
        assert all(r.samples.shape[0] == spec.channel_count for r in rset.recordings)


class TestRunBatchedRenderer:
    """``generate_recordings`` renders runs of same-kind channels at once;
    its samples must keep the per-channel renderer's bits and draw order."""

    def assert_same_bits(self, spec, seed=None):
        batched = [r.samples for r in generate_recordings(spec, seed).recordings]
        reference = per_channel_recordings(spec, seed)
        assert len(batched) == len(reference)
        for got, want in zip(batched, reference):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("seed", [0, 1, 29, 4242])
    def test_interleaved_runs(self, seed):
        self.assert_same_bits(interleaved_spec(seed))

    @pytest.mark.parametrize("window_len", [1, 2, 5, 8, 9, 127])
    def test_window_lengths(self, window_len):
        # trials of at least 8 samples, where the per-channel renderer runs
        spec = interleaved_spec(3, window_len=window_len, windows=16, overlap=0.0)
        assert trial_length(spec) >= 8
        self.assert_same_bits(spec)

    def test_seed_override_and_graded_specs(self):
        self.assert_same_bits(graded_spec(5), seed=77)
        self.assert_same_bits(all_noise_spec(2, windows=20))

    def test_unit_rms_keeps_an_all_zero_row(self):
        noise = np.random.default_rng(4).standard_normal((3, 9))
        rows = np.vstack([np.zeros(9), noise, np.zeros(9)])
        want = [per_channel_unit_rms(row) for row in rows]
        synthetic._unit_rms(rows, np.empty_like(rows))
        assert rows.tobytes() == np.vstack(want).tobytes()
        assert not rows[0].any() and not rows[-1].any()

    def test_all_tonic_without_jitter(self):
        spec = SyntheticSpec(
            class_names=["a", "b"],
            channel_count=3,
            windows_per_class=6,
            window_len_samples=40,
            trials_per_class=3,
            seed=8,
            channels=[ChannelSpec(default=tonic(1.0 + ch, amp_jitter=0.0)) for ch in range(3)],
        )
        self.assert_same_bits(spec)


class TestShortTrials:
    """Trials shorter than the smoothing kernels (5 and 8 taps)."""

    @pytest.mark.parametrize("n", [1, 2, 4, 5, 7, 8, 9, 20])
    @pytest.mark.parametrize("kernel", [2, 5, 8])
    def test_smoothing_keeps_the_centred_samples(self, n, kernel):
        x = np.random.default_rng(n).standard_normal(n)
        taps = np.ones(kernel) / kernel
        got = synthetic._smooth(x, taps)
        assert got.shape == (n,)
        if n >= kernel:
            assert got.tobytes() == np.convolve(x, taps, mode="same").tobytes()
        start = (kernel - 1) // 2
        centred = np.convolve(x, taps)[start : start + n]
        np.testing.assert_allclose(got, centred, rtol=1e-15, atol=0)

    @pytest.mark.parametrize(
        "window_len, windows, trials", [(6, 2, 2), (1, 6, 4), (2, 6, 4), (3, 6, 4)]
    )
    def test_short_trials_render(self, window_len, windows, trials):
        spec = interleaved_spec(1, window_len=window_len, windows=windows, trials=trials)
        n = trial_length(spec)
        assert n < 8
        rset = generate_recordings(spec)
        assert len(rset.recordings) == 3 * trials
        for rec in rset.recordings:
            assert rec.samples.shape == (8, n) and np.isfinite(rec.samples).all()


class TestDownstreamDistributions:
    def test_identically_distributed_channels_give_near_zero_fdr(self):
        # every channel is class-independent noise: pairwise F1 stays tiny
        spec = all_noise_spec(11)
        mats = matrices_of(spec)
        audit = pairwise_audit(mats)
        for r in audit.results:
            assert r.raw_fdr < 0.05

    def test_distinct_class_wins_one_vs_rest(self):
        shared = ChannelProfile(kind="tonic", gain=1.0)
        distinct = ChannelProfile(kind="tonic", gain=2.5)
        spec = SyntheticSpec(
            class_names=["a", "b", "c"],
            channel_count=3,
            windows_per_class=80,
            window_len_samples=128,
            trials_per_class=4,
            seed=5,
            channels=[ChannelSpec(classes={"a": shared, "b": shared, "c": distinct})],
        )
        mats = matrices_of(spec)
        ovr = pairwise_audit(mats, mode="one-vs-rest")
        fdr = {r.target: r.raw_fdr for r in ovr.results}
        assert fdr["c"] > fdr["a"]
        assert fdr["c"] > fdr["b"]
        ovo = pairwise_audit(mats, mode="one-vs-one")
        by_pair = {(r.target, r.reference): r.raw_fdr for r in ovo.results}
        assert by_pair[("a", "b")] < by_pair[("a", "c")]
        assert by_pair[("a", "b")] < by_pair[("b", "c")]

    def test_graded_gains_order_pairwise_fdr(self):
        mats = matrices_of(graded_spec(3))
        audit = pairwise_audit(mats)
        fdr = {(r.target, r.reference): r.raw_fdr for r in audit.results}
        assert fdr[("alpha", "beta")] < fdr[("beta", "gamma")] < fdr[("alpha", "gamma")]

    def test_informative_channel_carries_separation(self):
        spec = graded_spec(3)
        windows, fs = windows_of(spec)
        cfg = FeatureConfig()
        mats = build_class_matrices(windows, cfg, fs)
        audit = pairwise_audit(mats)
        n_features = len(cfg.enabled_features)
        for r in audit.results:
            # the best Fisher column belongs to the tonic channel 0
            assert r.score.f1_argmax < n_features
