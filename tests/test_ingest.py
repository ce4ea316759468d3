import dataclasses
import json
import typing
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from reference_impls import enumerate_window_starts

from sensoraudit import ingest
from sensoraudit.ablation import AblationSpec
from sensoraudit.errors import (
    DataFormatError,
    InconsistentChannelCountError,
    InvalidSpecError,
    LengthMismatchError,
    MalformedRowError,
    MissingFileError,
    TrimExceedsLengthError,
    UnknownClassLabelError,
)
from sensoraudit.cli import ConfigFile
from sensoraudit.ingest import (
    JsonConfig,
    Recording,
    RecordingSet,
    SegmentationConfig,
    Windows,
    load_dataset,
    round_half_up,
    check_type,
    segment,
    trim,
)
from sensoraudit.features import FeatureConfig
from sensoraudit.oracle import OracleConfig
from sensoraudit.reports import write_dataset
from sensoraudit.synthetic import ChannelProfile, ChannelSpec, SyntheticSpec


def rec(t, label="a", trial="t0", channels=2, session="s0", participant="p0"):
    samples = np.arange(channels * t, dtype=float).reshape(channels, t)
    return Recording(samples, label, trial, session, participant)


def segment_one(r, cfg):
    """Windows of one recording, through ``segment``."""
    return segment(RecordingSet([r], 200.0, [r.class_label], r.channel_count), cfg)


def start_indices(windows):
    return [start for _, start in windows.provenance]


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

    def test_trim_past_float_range_exceeds_length(self):
        # 1e308 ms at 200 Hz is inf samples, which no int holds
        with pytest.raises(TrimExceedsLengthError, match="trim removes inf\\+0"):
            trim(rec(200), seg_cfg(trim_head_ms=1e308), fs=200.0)


class TestWindow:
    def test_exact_fit(self):
        out = segment_one(rec(400), seg_cfg())
        assert start_indices(out) == [0]

    def test_two_windows_half_overlap(self):
        out = segment_one(rec(600), seg_cfg())
        assert start_indices(out) == [0, 200]

    def test_too_short_yields_empty(self):
        assert len(segment_one(rec(399), seg_cfg())) == 0

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
            out = segment_one(rec(total), seg_cfg(window_len_samples=50, overlap_fraction=0.25))
            assert start_indices(out) == enumerate_window_starts(total, 50, 38)

    def test_zero_overlap_concatenation_reconstructs_prefix(self):
        r = rec(130, channels=3)
        out = segment_one(r, seg_cfg(window_len_samples=25, overlap_fraction=0.0))
        joined = np.concatenate(list(out.data), axis=1)
        assert np.array_equal(joined, r.samples[:, : joined.shape[1]])

    def test_labels_and_provenance_carried(self):
        out = segment_one(rec(500, label="beta"), seg_cfg())
        assert all(label == "beta" for label in out.labels)
        assert all(trial == "p0/s0/t0" for trial, _ in out.provenance)

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
        assert start_indices(joined) == [0, 200]
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
        assert set(out.labels) == {"a"}


class TestSegmentArray:
    """``segment``'s one ``(N, C, W)`` array against the recordings it cuts."""

    W = 100
    # 200 Hz: trims of 10 head and 5 tail samples
    CFG = dict(trim_head_ms=50.0, trim_tail_ms=25.0, window_len_samples=W, overlap_fraction=0.5)

    @staticmethod
    def rset():
        rng = np.random.default_rng(3)
        layout = [
            (500, "a", "t0", "s0"),
            (260, "a", "t1", "s0"),
            (90, "b", "t2", "s0"),
            (700, "b", "t3", "s1"),
        ]
        recs = [
            Recording(rng.normal(size=(3, t)), label, trial, session, "p0")
            for t, label, trial, session in layout
        ]
        return RecordingSet(recs, 200.0, ["a", "b"], 3)

    def trimmed(self, cfg):
        return {r.provenance(): trim(r, cfg, 200.0).samples for r in self.rset().recordings}

    def test_one_contiguous_float64_array(self):
        windows = segment(self.rset(), SegmentationConfig(**self.CFG))
        assert windows.data.dtype == np.float64 and windows.data.flags.c_contiguous
        assert windows.data.shape == (len(windows), 3, self.W)
        assert len(windows) == len(windows.labels) == len(windows.provenance) == 13 + 12

    def test_rows_are_the_trimmed_samples(self):
        cfg = SegmentationConfig(**self.CFG, concat_trials_within_session=False)
        windows = segment(self.rset(), cfg)
        samples = self.trimmed(cfg)
        for row, (trial, start) in zip(windows.data, windows.provenance):
            assert np.array_equal(row, samples[trial][:, start : start + self.W])
        # t2 keeps 75 samples, fewer than one window
        assert "p0/s0/t2" not in {trial for trial, _ in windows.provenance}
        assert len(windows) == 8 + 3 + 0 + 12

    def test_window_across_a_trial_boundary(self):
        cfg = SegmentationConfig(**self.CFG)
        windows = segment(self.rset(), cfg)
        samples = self.trimmed(cfg)
        joined = np.concatenate([samples["p0/s0/t0"], samples["p0/s0/t1"]], axis=1)
        rows = [i for i, (trial, _) in enumerate(windows.provenance) if trial == "p0/s0/t0+t1"]
        assert len(rows) == (485 + 245 - self.W) // 50 + 1
        crossing = 0
        for i in rows:
            start = windows.provenance[i][1]
            assert np.array_equal(windows.data[i], joined[:, start : start + self.W])
            crossing += start < 485 < start + self.W
        assert crossing == 2  # starts 400 and 450
        assert "p0/s0/t2" not in {trial for trial, _ in windows.provenance}

    def test_channel_count_mismatch_is_typed(self):
        rset = self.rset()
        rset.recordings[1] = rec(300, channels=4, trial="t1")
        with pytest.raises(InconsistentChannelCountError, match="p0/s0/t1"):
            segment(rset, SegmentationConfig(**self.CFG))

    def test_record_needs_one_label_and_start_per_row(self):
        with pytest.raises(LengthMismatchError):
            Windows(np.zeros((2, 1, 4)), ("a",), (("t", 0), ("t", 4)))
        with pytest.raises(LengthMismatchError):
            Windows(np.zeros((2, 4)), ("a", "a"), (("t", 0), ("t", 4)))

    def test_class_filter_keeps_the_class_rows(self):
        cfg = SegmentationConfig(**self.CFG)
        everything = segment(self.rset(), cfg)
        only_b = segment(self.rset(), cfg, classes=["b"])
        assert set(only_b.labels) == {"b"} and len(only_b) == 12
        expected = everything.select(["b"])
        assert np.array_equal(only_b.data, expected.data)
        assert only_b.provenance == expected.provenance


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

    @pytest.mark.parametrize("payload", ["3", "null", "[]"])
    def test_manifest_that_is_not_an_object(self, tmp_path, payload):
        build_dataset(tmp_path, trials=1, classes=("a",), channels=2, rows=3)
        (tmp_path / "dataset.json").write_text(payload)
        with pytest.raises(DataFormatError, match="must be a JSON object"):
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


def line_parse(path, channel_count):
    """The reference line parser's samples or error, as one comparable value."""
    try:
        return ingest._parse_csv_lines(path, channel_count)
    except Exception as exc:
        return type(exc), str(exc)


def loaded(root):
    """``load_dataset``'s first recording's samples or error, the same way."""
    try:
        return load_dataset(root).recordings[0].samples
    except Exception as exc:
        return type(exc), str(exc)


def same(got, want):
    if isinstance(want, np.ndarray):
        return isinstance(got, np.ndarray) and got.shape == want.shape and (
            np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()
        )
    return got == want


def one_trial_dataset(root, body: bytes, channels=2):
    """A dataset whose one trial file is the header plus ``body``."""
    (root / "dataset.json").write_text(
        json.dumps({"sampling_rate_hz": 100.0, "class_names": ["a"], "channel_count": channels})
    )
    path = root / "p0" / "s0" / "a_t0.csv"
    path.parent.mkdir(parents=True, exist_ok=True)
    header = ",".join(["t", *(f"ch{c + 1}" for c in range(channels))])
    path.write_bytes(header.encode() + b"\n" + body)
    return path


# Pieces of cells and lines: every case the two parsers could read apart.
CELL_TOKENS = ["0", "1", "9", ".", "e", "-", "+", " ", "#", '"', "nan", "inf", "_", "x"]
PADDING = ["", " ", "\t", "\x1c", "\x1f", "\xa0"]  # \x1c-\x1f: numpy strips, float() refuses
numbers = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr), st.integers(-10, 10).map(str)
)
cells = st.one_of(
    numbers,
    numbers,
    st.tuples(st.sampled_from(PADDING), numbers, st.sampled_from(PADDING)).map("".join),
    st.lists(st.sampled_from(CELL_TOKENS), max_size=4).map("".join),
)
rows = st.one_of(
    st.lists(cells, min_size=3, max_size=3),  # t plus the two channels
    st.tuples(st.sampled_from(["0", "x", "nan", "", " 1"]), numbers, numbers).map(list),
    st.lists(cells, min_size=1, max_size=5),
).map(",".join)
lines = st.one_of(rows, rows, st.sampled_from(["", " ", "\t", "#", ",", "1,2,3,"]))
newlines = st.sampled_from(["\n", "\r\n", "\r"])
# ended lines, then an unended last line or nothing
bodies = st.tuples(
    st.lists(st.tuples(lines, newlines).map("".join), max_size=6).map("".join),
    st.one_of(st.just(""), lines),
).map("".join)


class TestParseRule:
    """``load_dataset`` parses each file whole; the line parser decides every
    file that parse cannot, so both give the same bits and the same errors."""

    @settings(max_examples=400, deadline=None)
    @given(body=bodies)
    def test_same_result_as_the_line_parser(self, tmp_path_factory, body):
        root = tmp_path_factory.mktemp("ds")
        path = one_trial_dataset(root, body.encode())
        assert same(loaded(root), line_parse(path, 2))

    @settings(max_examples=60, deadline=None)
    @given(
        samples=st.integers(1, 3).flatmap(
            lambda c: hnp.arrays(
                float,
                st.tuples(st.just(c), st.integers(1, 30)),
                elements=st.floats(allow_nan=False, allow_infinity=False),
            )
        )
    )
    def test_writer_round_trip_is_bitwise_on_the_fast_path(self, tmp_path_factory, samples):
        # zero line-parser calls: the writer's output never leaves the fast path
        root = tmp_path_factory.mktemp("ds")
        rset = RecordingSet([Recording(samples, "a", "t00", "s00", "p00")], 250.0, ["a"], len(samples))
        write_dataset(root, rset)
        with mock.patch.object(ingest, "_parse_csv_lines", wraps=ingest._parse_csv_lines) as lines:
            got = load_dataset(root).recordings[0].samples
        assert lines.call_count == 0
        assert same(got, samples)

    @pytest.mark.parametrize(
        "body",
        [
            b"",  # header only: numpy's no-data warning must not escape
            b"\n\n",
            b"0,1,2\n# note\n",
            b"0,1,2#x\n",
            b"0,1,2,\n",
            b'0,"1",2\n',
            b"0,1_0,2\n",
            b"0,\x1c1,2\n",
            b"0,1\x1d,2\n",
            b"0,1,\x1e2\n",
            b"0,1,2\x1f\n",
            b"0,1,nan\n",
            b"x,1,2\n",
        ],
    )
    def test_awkward_files(self, tmp_path, body):
        path = one_trial_dataset(tmp_path, body)
        assert same(loaded(tmp_path), line_parse(path, 2))

    def test_header_only_file_without_channels(self, tmp_path):
        # a t-only header matches channel_count 0, and so does loadtxt's empty result
        path = one_trial_dataset(tmp_path, b"", channels=0)
        assert same(loaded(tmp_path), line_parse(path, 0))

    def test_non_utf8_byte_names_the_file(self, tmp_path):
        path = one_trial_dataset(tmp_path, b"0,1,2\n1,\xff,2\n")
        with pytest.raises(MalformedRowError, match="a_t0.csv: not UTF-8 text"):
            load_dataset(tmp_path)
        assert same(loaded(tmp_path), line_parse(path, 2))

    def test_oversized_field_names_file_and_line(self, tmp_path):
        one_trial_dataset(tmp_path, b"0,1,2\n1," + b"x" * 200_000 + b",2\n")
        with pytest.raises(MalformedRowError, match="a_t0.csv:3: field larger than field limit"):
            load_dataset(tmp_path)

    def test_long_numeric_field_is_read_whole(self, tmp_path):
        one_trial_dataset(tmp_path, b"0,1,2\n1,0." + b"0" * 200_000 + b"25,2\n")
        assert load_dataset(tmp_path).recordings[0].samples.tolist() == [[1.0, 0.0], [2.0, 2.0]]


CONFIGS = [
    SegmentationConfig(trim_head_ms=0.0, window_len_samples=64, overlap_fraction=0.25),
    FeatureConfig(entropy_bins=16, enabled_features=("rms", "zero_crossings")),
    OracleConfig(hidden_units=8, epochs=5, seed=9),
    AblationSpec(combinatorial_depth=2, classes=["a"], ring_topology=(2, 0, 1)),
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
        # the shift is always f1, so shift_metric is no field at all
        payload = CONFIGS[3].to_json_dict() | {"shift_metric": metric}
        with pytest.raises(InvalidSpecError, match="unknown AblationSpec fields: shift_metric") as err:
            AblationSpec.from_json_dict(payload)
        assert err.value.exit_code == 2

    def test_sequences_are_written_as_lists(self):
        payload = CONFIGS[3].to_json_dict()
        assert payload == {
            "combinatorial_depth": 2,
            "classes": ["a"],
            "ring_topology": [2, 0, 1],
        }
        assert CONFIGS[1].to_json_dict()["enabled_features"] == ["rms", "zero_crossings"]


def json_configs(cls=JsonConfig):
    """Every subclass of ``cls``, depth first."""
    for sub in cls.__subclasses__():
        yield sub
        yield from json_configs(sub)


ALL_CONFIGS = sorted(json_configs(), key=lambda c: c.__name__)
REQUIRED = {SyntheticSpec: {"class_names": ["a"], "channel_count": 1}}


class TestTypeRule:
    def test_every_config_is_found(self):
        assert {c.__name__ for c in ALL_CONFIGS} >= {
            "AblationSpec", "ChannelProfile", "ChannelSpec", "ConfigFile", "FeatureConfig",
            "OracleConfig", "SegmentationConfig", "SyntheticSpec", "Thresholds",
        }
        assert ConfigFile in ALL_CONFIGS

    @pytest.mark.parametrize("cls", ALL_CONFIGS, ids=lambda c: c.__name__)
    def test_every_field_is_typed_by_its_annotation(self, cls):
        base = cls.from_json_dict(REQUIRED.get(cls, {}))  # the defaults pass the rule
        hints = typing.get_type_hints(cls)
        for f in dataclasses.fields(cls):
            key = f.metadata.get("json", f.name)
            bad = 1 if hints[f.name] is str else "x"
            with pytest.raises(InvalidSpecError, match=f"^{key} must be"):
                cls.from_json_dict(base.to_json_dict() | {key: bad})
            with pytest.raises(InvalidSpecError, match=f"^{key} must be"):
                dataclasses.replace(base, **{f.name: bad})

    @pytest.mark.parametrize(
        "t, value, ok",
        [
            (int, 3, True),
            (int, True, False),
            (int, 3.0, False),
            (float, 1, True),
            (float, np.float64(0.5), True),
            (float, float("inf"), False),
            (float, 10**400, False),
            (float, False, False),
            (bool, 1, False),
            (list[str], ("a", "b"), True),
            (list[str], "ab", False),
            (tuple[int, ...], [1, 2], True),
            (dict[str, int], {"a": 1}, True),
            (dict[str, int], {1: 1}, False),
            (list[str] | None, None, True),
            (ChannelProfile, ChannelProfile(), True),
            (ChannelProfile, {}, False),
        ],
    )
    def test_check_type(self, t, value, ok):
        if ok:
            check_type("field", t, value)
        else:
            with pytest.raises(InvalidSpecError, match="^field must be"):
                check_type("field", t, value)

    def test_json_ints_stay_ints_in_float_fields(self):
        payload = OracleConfig.from_json_dict({"learning_rate": 1}).to_json_dict()
        assert type(payload["learning_rate"]) is int
