import json

import numpy as np
import pytest

from reference_impls import enumerate_window_starts

from sensoraudit.ablation import AblationSpec
from sensoraudit.errors import (
    DataFormatError,
    InconsistentChannelCountError,
    InvalidSpecError,
    MalformedRowError,
    MissingFileError,
    TrimExceedsLengthError,
    UnknownClassLabelError,
)
from sensoraudit.ingest import (
    Recording,
    RecordingSet,
    SegmentationConfig,
    load_dataset,
    round_half_up,
    segment,
    trim,
    window,
)
from sensoraudit.features import FeatureConfig
from sensoraudit.oracle import OracleConfig
from sensoraudit.reports import write_dataset
from sensoraudit.synthetic import ChannelProfile, ChannelSpec, SyntheticSpec


def rec(t, label="a", trial="t0", channels=2, session="s0", participant="p0"):
    samples = np.arange(channels * t, dtype=float).reshape(channels, t)
    return Recording(samples, label, trial, session, participant)


def seg_cfg(**kw):
    defaults = dict(trim_head_ms=0.0, trim_tail_ms=0.0, window_len_samples=400, overlap_fraction=0.5)
    defaults.update(kw)
    return SegmentationConfig(**defaults)


class TestTrim:
    def test_protocol_trim(self):
        trimmed = trim(rec(600), SegmentationConfig(), fs=200.0)
        assert trimmed.length == 360  # 600 - 2 * 120
        assert np.array_equal(trimmed.samples, rec(600).samples[:, 120:480])

    def test_zero_trim_is_identity(self):
        r = rec(100)
        trimmed = trim(r, seg_cfg(), fs=200.0)
        assert np.array_equal(trimmed.samples, r.samples)

    def test_trim_exceeds_length(self):
        with pytest.raises(TrimExceedsLengthError):
            trim(rec(200), SegmentationConfig(), fs=200.0)

    def test_half_up_rounding(self):
        assert round_half_up(2.5) == 3
        assert round_half_up(3.5) == 4
        assert round_half_up(-0.5) == 0
        # 1 ms at 500 Hz -> 0.5 samples -> rounds to 1
        trimmed = trim(rec(10), seg_cfg(trim_head_ms=1.0), fs=500.0)
        assert trimmed.length == 9


class TestWindow:
    def test_exact_fit(self):
        out = window(rec(400), seg_cfg())
        assert [w.start_index for w in out] == [0]

    def test_two_windows_half_overlap(self):
        out = window(rec(600), seg_cfg())
        assert [w.start_index for w in out] == [0, 200]

    def test_too_short_yields_empty(self):
        assert window(rec(399), seg_cfg()) == []

    def test_count_formula_matches_enumeration(self):
        for width in (50, 400):
            for overlap in (0.0, 0.25, 0.5, 0.75):
                cfg = seg_cfg(window_len_samples=width, overlap_fraction=overlap)
                stride = cfg.stride
                for total in range(1, 2001):
                    starts = enumerate_window_starts(total, width, stride)
                    expected = 0 if total < width else (total - width) // stride + 1
                    assert len(starts) == expected, (total, width, overlap)
        # spot-check the library against the same enumeration
        for total in (1, 57, 400, 401, 999, 2000):
            out = window(rec(total), seg_cfg(window_len_samples=50, overlap_fraction=0.25))
            assert [w.start_index for w in out] == enumerate_window_starts(total, 50, 38)

    def test_zero_overlap_concatenation_reconstructs_prefix(self):
        r = rec(130, channels=3)
        out = window(r, seg_cfg(window_len_samples=25, overlap_fraction=0.0))
        joined = np.concatenate([w.data for w in out], axis=1)
        assert np.array_equal(joined, r.samples[:, : joined.shape[1]])

    def test_labels_and_provenance_carried(self):
        out = window(rec(500, label="beta"), seg_cfg())
        assert all(w.class_label == "beta" for w in out)
        assert all(w.source_trial == "p0/s0/t0" for w in out)

    def test_stride_must_round_positive(self):
        with pytest.raises(InvalidSpecError):
            seg_cfg(window_len_samples=1, overlap_fraction=0.9)


class TestSegment:
    def test_concat_within_session(self):
        rset = RecordingSet(
            [rec(300, trial="t0"), rec(300, trial="t1")], 200.0, ["a"], 2
        )
        cfg = seg_cfg(concat_trials_within_session=True)
        joined = segment(rset, cfg)
        # 600 concatenated samples -> starts 0 and 200
        assert [w.start_index for w in joined] == [0, 200]
        separate = segment(
            rset, seg_cfg(window_len_samples=300, concat_trials_within_session=False)
        )
        assert len(separate) == 2

    def test_class_filter(self):
        rset = RecordingSet(
            [rec(400, label="a"), rec(400, label="rest", trial="t1")],
            200.0,
            ["a", "rest"],
            2,
        )
        out = segment(rset, seg_cfg(), classes=["a"])
        assert {w.class_label for w in out} == {"a"}


def build_dataset(root, participants=1, sessions=1, trials=2, classes=("a",), channels=8, rows=600, fs=200.0):
    manifest = {
        "sampling_rate_hz": fs,
        "class_names": list(classes),
        "channel_count": channels,
    }
    (root / "dataset.json").write_text(json.dumps(manifest))
    rng = np.random.default_rng(0)
    for p in range(participants):
        for s in range(sessions):
            directory = root / f"p{p:02d}" / f"s{s}"
            directory.mkdir(parents=True, exist_ok=True)
            for label in classes:
                for t in range(trials):
                    lines = ["t," + ",".join(f"ch{c + 1}" for c in range(channels))]
                    for i in range(rows):
                        vals = rng.normal(size=channels)
                        lines.append(f"{i}," + ",".join(repr(float(v)) for v in vals))
                    (directory / f"{label}_t{t}.csv").write_text("\n".join(lines) + "\n")


class TestLoadDataset:
    def test_basic_load(self, tmp_path):
        build_dataset(tmp_path, trials=2, channels=8, rows=600)
        rset = load_dataset(tmp_path)
        assert len(rset.recordings) == 2
        assert rset.channel_count == 8
        assert all(r.samples.shape == (8, 600) for r in rset.recordings)

    def test_three_session_layout_counts(self, tmp_path):
        # 10 participants x 3 sessions x 5 trials x 3 classes = 450 trials
        build_dataset(
            tmp_path,
            participants=10,
            sessions=3,
            trials=5,
            classes=("paper", "rock", "scissors"),
            channels=2,
            rows=20,
        )
        rset = load_dataset(tmp_path)
        assert len(rset.recordings) == 450

    def test_malformed_cell_names_file_and_line(self, tmp_path):
        build_dataset(tmp_path, trials=1, channels=2, rows=3)
        victim = next((tmp_path / "p00" / "s0").glob("*.csv"))
        content = victim.read_text().splitlines()
        content[2] = "1,0.5,garbage"
        victim.write_text("\n".join(content) + "\n")
        with pytest.raises(MalformedRowError) as err:
            load_dataset(tmp_path)
        assert victim.name in str(err.value)
        assert ":3" in str(err.value)

    def test_nan_cell_rejected(self, tmp_path):
        build_dataset(tmp_path, trials=1, channels=2, rows=3)
        victim = next((tmp_path / "p00" / "s0").glob("*.csv"))
        content = victim.read_text().splitlines()
        content[1] = "0,nan,1.0"
        victim.write_text("\n".join(content) + "\n")
        with pytest.raises(MalformedRowError):
            load_dataset(tmp_path)

    def test_missing_manifest(self, tmp_path):
        (tmp_path / "p00").mkdir()
        with pytest.raises(MissingFileError) as err:
            load_dataset(tmp_path)
        assert "dataset.json" in str(err.value)

    def test_missing_root(self, tmp_path):
        with pytest.raises(MissingFileError):
            load_dataset(tmp_path / "nope")

    def test_inconsistent_channel_count(self, tmp_path):
        build_dataset(tmp_path, trials=1, channels=2, rows=3)
        manifest = json.loads((tmp_path / "dataset.json").read_text())
        manifest["channel_count"] = 4
        (tmp_path / "dataset.json").write_text(json.dumps(manifest))
        with pytest.raises(InconsistentChannelCountError):
            load_dataset(tmp_path)

    def test_unknown_class_label(self, tmp_path):
        build_dataset(tmp_path, trials=1, classes=("a",), channels=2, rows=3)
        victim = next((tmp_path / "p00" / "s0").glob("*.csv"))
        victim.rename(victim.with_name("mystery_t0.csv"))
        with pytest.raises(UnknownClassLabelError):
            load_dataset(tmp_path)

    @pytest.mark.parametrize("label", ["", ".", "..", "../escaped", "a/b", "a\\b", "a\0b"])
    def test_unsafe_manifest_class_name(self, tmp_path, label):
        build_dataset(tmp_path, trials=1, classes=("a",), channels=2, rows=3)
        manifest = json.loads((tmp_path / "dataset.json").read_text())
        manifest["class_names"].append(label)
        (tmp_path / "dataset.json").write_text(json.dumps(manifest))
        with pytest.raises(DataFormatError, match="file name"):
            load_dataset(tmp_path)

    def test_file_order_is_lexicographic(self, tmp_path):
        build_dataset(tmp_path, participants=2, sessions=2, trials=2, channels=2, rows=5)
        rset = load_dataset(tmp_path)
        keys = [(r.participant_id, r.session_id, r.trial_id) for r in rset.recordings]
        assert keys == sorted(keys)

    def test_roundtrip_with_writer(self, tmp_path):
        rng = np.random.default_rng(1)
        original = RecordingSet(
            [
                Recording(rng.normal(size=(3, 40)), "a", "t00", "s00", "p00"),
                Recording(rng.normal(size=(3, 40)), "b", "t01", "s00", "p00"),
            ],
            250.0,
            ["a", "b"],
            3,
        )
        write_dataset(tmp_path / "ds", original)
        loaded = load_dataset(tmp_path / "ds")
        assert loaded.sampling_rate_hz == 250.0
        assert len(loaded.recordings) == 2
        for a, b in zip(original.recordings, loaded.recordings):
            assert np.array_equal(a.samples, b.samples)
            assert a.class_label == b.class_label


CONFIGS = [
    SegmentationConfig(trim_head_ms=0.0, window_len_samples=64, overlap_fraction=0.25),
    FeatureConfig(entropy_bins=16, enabled_features=("rms", "zero_crossings")),
    OracleConfig(hidden_units=8, epochs=5, seed=9),
    AblationSpec(
        sensor_subsets=[(2, 0), (1,)], shift_metric="f1", classes=["a"], ring_topology=(2, 0, 1)
    ),
    ChannelProfile(kind="tonic", gain=2.5, carrier_hz=40.0),
    ChannelSpec(per_class={"a": ChannelProfile(kind="tonic", gain=3.0)}),
    SyntheticSpec(
        class_names=["a", "b"],
        channel_count=3,
        seed=4,
        channels=[ChannelSpec(per_class={"b": ChannelProfile(kind="tonic", gain=1.5)})],
    ),
]


class TestConfigJson:
    @pytest.mark.parametrize("config", CONFIGS, ids=lambda c: type(c).__name__)
    def test_round_trip_through_json_text(self, config):
        payload = json.loads(json.dumps(config.to_json_dict()))
        assert type(config).from_json_dict(payload) == config

    @pytest.mark.parametrize("config", CONFIGS, ids=lambda c: type(c).__name__)
    def test_unknown_key_is_rejected(self, config):
        payload = config.to_json_dict()
        payload["bogus"] = 1
        with pytest.raises(InvalidSpecError, match="bogus"):
            type(config).from_json_dict(payload)

    def test_channel_spec_keeps_classes_key_and_nested_profiles(self):
        payload = CONFIGS[5].to_json_dict()
        assert list(payload) == ["default", "classes"]
        clone = ChannelSpec.from_json_dict(payload)
        assert isinstance(clone.per_class["a"], ChannelProfile)
        with pytest.raises(InvalidSpecError, match="per_class"):
            ChannelSpec.from_json_dict({"per_class": {}})
        with pytest.raises(InvalidSpecError, match="bogus"):
            ChannelSpec.from_json_dict({"classes": {"a": {"bogus": 1}}})

    @pytest.mark.parametrize("metric", ["f2", "f3"])
    def test_flat_shift_metric_is_rejected_on_load(self, metric):
        payload = CONFIGS[3].to_json_dict() | {"shift_metric": metric}
        with pytest.raises(InvalidSpecError, match="cannot rank sensors") as err:
            AblationSpec.from_json_dict(payload)
        assert err.value.exit_code == 2

    def test_sequences_are_written_as_lists(self):
        payload = CONFIGS[3].to_json_dict()
        assert payload == {
            "sensor_subsets": [[0, 2], [1]],
            "combinatorial_depth": 1,
            "shift_metric": "f1",
            "classes": ["a"],
            "ring_topology": [2, 0, 1],
        }
        assert CONFIGS[1].to_json_dict()["enabled_features"] == ["rms", "zero_crossings"]
