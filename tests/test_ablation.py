from dataclasses import replace
from itertools import combinations, compress

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CLASSES, ablate, criticality_spec, windows_from, windows_of
from reference_impls import IndexOutOfRangeError, ablated_matrix, ablated_shift, materialize, nullify

from sensoraudit import ablation
from sensoraudit.ablation import (
    AblationReport,
    AblationSpec,
    enumerate_subsets,
    neighbour_compensation,
    run_ablation_audit,
)
from sensoraudit.errors import (
    InvalidSpecError,
    MismatchedColumnsError,
    TooFewRowsError,
    TopologyMismatchError,
)
from sensoraudit.features import (
    FEATURE_NAMES,
    FeatureConfig,
    FeatureMatrix,
    build_class_matrices,
    feature_columns,
    zero_window_features,
)
from sensoraudit.separability import separability_score


def rows_of(windows, label):
    """The windows of one class, in their order."""
    mask = np.array(windows.labels) == label
    return replace(
        windows,
        index=windows.index[mask],
        labels=compress(windows.labels, mask),
        provenance=compress(windows.provenance, mask),
    )


def make_windows(n=6, channels=4, width=64, label="a", seed=0):
    rng = np.random.default_rng(seed)
    return windows_from(
        [(rng.standard_normal((channels, width)), label, f"t{i}", i) for i in range(n)]
    )


class TestNullify:
    def test_zeroes_selected_channel_only(self):
        rng = np.random.default_rng(1)
        s = windows_from([(rng.standard_normal((8, 400)), "a", "t", 0)])
        out = nullify(s, {2})
        assert np.all(materialize(out)[0, 2] == 0.0)
        mask = np.ones(8, dtype=bool)
        mask[2] = False
        assert np.array_equal(materialize(out)[0, mask], materialize(s)[0, mask])
        assert (out.labels, out.provenance) == (("a",), (("t", 0),))

    def test_empty_set_is_identity(self):
        s = make_windows(1)
        out = nullify(s, set())
        assert np.array_equal(materialize(out), materialize(s))

    def test_full_ablation(self):
        s = make_windows(1)
        out = nullify(s, range(4))
        assert np.all(materialize(out) == 0.0)

    def test_never_mutates_input(self):
        s = make_windows(1)
        before = materialize(s)
        nullify(s, {0, 1})
        assert np.array_equal(materialize(s), before)

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRangeError):
            nullify(make_windows(1), {9})


class TestAblatedShift:
    def test_empty_subset_shifts(self, fcfg):
        windows = make_windows()
        assert ablated_shift(windows, (), fcfg, 200.0, metric="f1") == 0.0
        assert ablated_shift(windows, (), fcfg, 200.0, metric="f2") == 1.0
        assert ablated_shift(windows, (), fcfg, 200.0, metric="f3") == 0.0

    def test_already_zero_channel_shifts_zero(self, fcfg):
        windows = nullify(make_windows(), {1})
        assert ablated_shift(windows, {1}, fcfg, 200.0, metric="f1") == 0.0

    def test_live_channel_shifts_positive(self, fcfg):
        windows = make_windows()
        assert ablated_shift(windows, {0}, fcfg, 200.0, metric="f1") > 0.0

    def test_fast_path_matches_literal_reextraction(self, fcfg):
        windows = make_windows(n=8, channels=3, width=96, seed=3)
        fs = 200.0
        baseline = build_class_matrices(windows, fcfg, fs)["a"]
        for subset in [(0,), (2,), (0, 2)]:
            fast = ablated_matrix(baseline, subset, fcfg, 96, fs)
            literal = build_class_matrices(nullify(windows, subset), fcfg, fs)["a"]
            assert np.array_equal(fast.values, literal.values)

    def test_too_few_rows(self, fcfg):
        with pytest.raises(TooFewRowsError):
            ablated_shift(make_windows(n=1), {0}, fcfg, 200.0)

    def test_nested_subsets_both_reported(self, fcfg):
        # no monotonicity claim; both values simply exist and are finite
        windows = make_windows(n=10, seed=5)
        small = ablated_shift(windows, {0}, fcfg, 200.0)
        large = ablated_shift(windows, {0, 1}, fcfg, 200.0)
        assert np.isfinite(small) and np.isfinite(large)


class TestEnumerateSubsets:
    def test_counts_match_binomials(self):
        from math import comb

        for channels in range(1, 9):
            for depth in range(1, 4):
                subsets = enumerate_subsets(channels, min(depth, channels))
                expected = sum(comb(channels, k) for k in range(1, min(depth, channels) + 1))
                assert len(subsets) == expected
                assert len(set(subsets)) == len(subsets)

    def test_matches_direct_enumeration(self):
        direct = [
            tuple(c)
            for size in (1, 2, 3)
            for c in combinations(range(5), size)
        ]
        assert enumerate_subsets(5, 3) == direct

    def test_order_is_deterministic(self):
        assert enumerate_subsets(3, 2) == [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2)]

    def test_depth_past_channel_count_adds_nothing(self, monkeypatch):
        # a loop to the depth itself would ask for sizes up to 10**9
        combine = ablation.itertools.combinations

        def sizes_up_to_channels(pool, size):
            assert size <= 2
            return combine(pool, size)

        monkeypatch.setattr(ablation.itertools, "combinations", sizes_up_to_channels)
        assert enumerate_subsets(2, 10**9) == [(0,), (1,), (0, 1)]
        assert enumerate_subsets(2, 3) == enumerate_subsets(2, 2)


def report_from_normalized(normalized, classes=("a",), topology=None):
    normalized = np.asarray(normalized, dtype=float)
    channels = normalized.shape[1]
    return AblationReport(
        classes=tuple(classes),
        channel_count=channels,
        subsets=tuple((s,) for s in range(channels)),
        raw_shift=normalized.copy(),
        normalized_criticality=normalized,
        mean_criticality=normalized.mean(axis=0),
        ranking=tuple(range(channels)),
        ring_topology=tuple(topology) if topology else tuple(range(channels)),
        criticality_threshold=0.8,
        redundancy_threshold=0.3,
    )


class TestNeighbourCompensation:
    def test_uncompensated_when_both_neighbours_low(self):
        # sensor 2 critical, neighbours 1 and 3 far below the threshold
        report = report_from_normalized([[0.0, 0.1, 1.0, 0.2, 0.0]])
        notes = neighbour_compensation(report)
        assert len(notes) == 1
        note = notes[0]
        assert note.sensor == 2
        assert note.neighbours == (1, 3)
        assert note.verdict == "uncompensated"

    def test_compensated_when_one_neighbour_carries(self):
        report = report_from_normalized([[0.0, 0.0, 0.0, 0.0, 0.9, 0.7]])
        notes = neighbour_compensation(report)
        assert [n.verdict for n in notes] == ["compensated"]
        assert notes[0].sensor == 4
        assert notes[0].neighbour_criticality == (0.0, 0.7)

    def test_one_sensor_is_not_its_own_neighbour(self):
        (note,) = neighbour_compensation(report_from_normalized([[1.0]]))
        assert note.neighbours == () and note.neighbour_criticality == ()
        assert note.verdict == "uncompensated"
        # two sensors: each is the other's only neighbour, on both sides
        notes = neighbour_compensation(report_from_normalized([[1.0, 0.5]]))
        assert [(n.neighbours, n.verdict) for n in notes] == [((1, 1), "compensated")]

    def test_no_critical_sensor_no_notes(self):
        report = report_from_normalized([[0.5, 0.2, 0.7]])
        assert neighbour_compensation(report) == ()

    def test_ring_wraps_around(self):
        report = report_from_normalized([[1.0, 0.0, 0.0, 0.9]])
        notes = neighbour_compensation(report)
        assert notes[0].sensor == 0
        assert notes[0].neighbours == (3, 0 + 1)

    def test_custom_topology(self):
        report = report_from_normalized([[1.0, 0.0, 0.5, 0.0]])
        notes = neighbour_compensation(replace(report, ring_topology=(0, 2, 1, 3)))
        assert notes[0].neighbours == (3, 2)

    def test_topology_mismatch(self):
        report = report_from_normalized([[1.0, 0.0]])
        with pytest.raises(TopologyMismatchError):
            neighbour_compensation(replace(report, ring_topology=(0, 5)))


class TestRunAblationAudit:
    def test_informative_channel_ranks_top_per_class(self, fcfg):
        windows, fs = windows_of(criticality_spec(0))
        report = ablate(windows, AblationSpec(), fcfg, fs)
        informative = {label: i for i, label in enumerate(CLASSES)}
        for ci, label in enumerate(report.classes):
            assert int(np.nanargmax(report.normalized_criticality[ci])) == informative[label]
            assert report.normalized_criticality[ci, informative[label]] == 1.0

    def test_redundant_channels_score_low(self, fcfg):
        windows, fs = windows_of(criticality_spec(1))
        report = ablate(windows, AblationSpec(), fcfg, fs)
        for ci in range(len(report.classes)):
            for sensor in (3, 4):
                assert report.normalized_criticality[ci, sensor] < 0.3
                assert sensor in report.redundancy_notes[report.classes[ci]]

    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_normalization_and_ranking_contracts(self, fcfg, depth):
        windows, fs = windows_of(criticality_spec(2))
        report = ablate(windows, AblationSpec(combinatorial_depth=depth), fcfg, fs)
        normalized = report.normalized_criticality
        assert normalized.shape == (3, 5) and report.mean_criticality.shape == (5,)
        assert not np.isnan(normalized).any() and not np.isnan(report.mean_criticality).any()
        assert normalized.min() >= 0.0
        assert normalized.max(axis=1).tolist() == [1.0, 1.0, 1.0]
        assert same_bits(report.mean_criticality, normalized.mean(axis=0))
        singletons = report.raw_shift[:, :5]  # every depth reports the singletons first
        assert same_bits(normalized, singletons / singletons.max(axis=1, keepdims=True))
        assert sorted(report.ranking) == list(range(report.channel_count))

    def test_combinatorial_depth_two(self, fcfg):
        windows = make_windows(n=6, channels=4, width=64)
        spec = AblationSpec(combinatorial_depth=2)
        report = ablate(windows, spec, fcfg, 200.0)
        assert len(report.subsets) == 4 + 6
        assert report.raw_shift.shape == (1, 10)

    def test_column_map_and_failed_row_mismatch_rejected(self, fcfg):
        matrices = build_class_matrices(make_windows(n=6, channels=3, width=64), fcfg, 200.0)
        matrices["b"] = build_class_matrices(
            make_windows(n=6, channels=2, width=64, label="b"), fcfg, 200.0
        )["b"]
        failed_row = zero_window_features(fcfg, 64, 200.0)
        with pytest.raises(MismatchedColumnsError):  # 3 channels against 2
            run_ablation_audit(matrices, AblationSpec(), failed_row)
        one_class = AblationSpec(classes=["a"])
        for bad_row in (failed_row[:-1], failed_row[:3], np.tile(failed_row, 3), failed_row[:0]):
            with pytest.raises(MismatchedColumnsError):
                run_ablation_audit(matrices, one_class, bad_row)
        report = run_ablation_audit(matrices, one_class, failed_row)
        assert report.channel_count == 3

    def test_f2_f3_are_flat_per_cell(self, fcfg):
        # why they are not offered: every cell reads f2 = 0 and f3 = 1
        windows, fs = windows_of(criticality_spec(0))
        for label in CLASSES:
            class_windows = rows_of(windows, label)
            matrix = build_class_matrices(class_windows, fcfg, fs)[label]
            for sensor in range(5):
                assert ablated_shift(class_windows, {sensor}, fcfg, fs, "f2", matrix) == 0.0
                assert ablated_shift(class_windows, {sensor}, fcfg, fs, "f3", matrix) == 1.0

    def test_class_with_too_few_windows(self, fcfg):
        windows = make_windows(n=1)
        with pytest.raises(TooFewRowsError) as err:
            ablate(windows, AblationSpec(), fcfg, 200.0)
        assert "'a'" in str(err.value)

    def test_invalid_specs(self):
        with pytest.raises(InvalidSpecError):
            AblationSpec(combinatorial_depth=0)
        with pytest.raises(InvalidSpecError, match="classes must be unique"):
            AblationSpec(classes=["a", "a", "b"])


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


# Column kinds for the closed-form property test; "zero" repeats the
# all-zero-window constant, so that column has no range once nullified.
COLUMN_KINDS = ("normal", "huge", "quantised", "constant", "zero", "capped", "tiny")
TINY = 1.6369616873214544e-139  # identical copies have an inexact mean


def awkward_column(kind, rows, constant, rng):
    if kind == "normal":
        return rng.normal(size=rows) * 10.0 ** rng.integers(-3, 4)
    if kind == "huge":
        return rng.normal(size=rows) * 1e150
    if kind == "quantised":
        return rng.integers(-2, 3, size=rows).astype(float)
    if kind == "constant":
        return np.full(rows, float(rng.choice([constant, 0.0, -0.0, 7.5])))
    if kind == "zero":
        return np.full(rows, constant)
    if kind == "capped":  # zero variance in one class, distinct means across classes
        return np.full(rows, constant + 1.0 + float(rng.integers(0, 3)))
    return np.full(rows, TINY)


@st.composite
def ablation_cases(draw):
    names = draw(
        st.lists(st.sampled_from(FEATURE_NAMES), min_size=1, max_size=4, unique=True)
    )
    fcfg = FeatureConfig(enabled_features=tuple(names))
    channels = draw(st.integers(1, 5))
    depth = draw(st.integers(1, 3))
    classes = {
        label: (
            draw(st.integers(2, 6)),
            draw(
                st.lists(
                    st.sampled_from(COLUMN_KINDS),
                    min_size=channels * len(names),
                    max_size=channels * len(names),
                )
            ),
        )
        for label in ("a", "b")[: draw(st.integers(1, 2))]
    }
    seed = draw(st.integers(0, 2**32 - 1))
    return fcfg, channels, AblationSpec(combinatorial_depth=depth), classes, seed


@settings(max_examples=150, deadline=None)
@given(ablation_cases())
def test_closed_form_matches_per_cell_bits(case):
    fcfg, channels, spec, classes, seed = case
    width, fs = 32, 200.0
    rng = np.random.default_rng(seed)
    constants = zero_window_features(fcfg, width, fs)
    columns = feature_columns(channels, fcfg)
    baselines = {}
    for label, (rows, kinds) in classes.items():
        values = np.column_stack(
            [
                awkward_column(kind, rows, constants[j % len(constants)], rng)
                for j, kind in enumerate(kinds)
            ]
        )
        provenance = tuple(("t", i) for i in range(rows))
        baselines[label] = FeatureMatrix(values, label, columns, provenance)

    report = run_ablation_audit(baselines, spec, constants)
    expected = [
        [
            separability_score(
                baselines[label], ablated_matrix(baselines[label], subset, fcfg, width, fs)
            ).f1
            for subset in report.subsets
        ]
        for label in report.classes
    ]
    assert same_bits(report.raw_shift, expected)


class TestClosedFormAblation:
    @pytest.mark.parametrize("depth", [1, 3])
    def test_one_separability_pass_per_class(self, fcfg, monkeypatch, depth):
        windows, fs = windows_of(criticality_spec(6))
        matrices = build_class_matrices(windows, fcfg, fs)
        calls = []
        kernel = ablation.fisher_per_dim

        def counting(*args):
            calls.append(args)
            return kernel(*args)

        monkeypatch.setattr(ablation, "fisher_per_dim", counting)
        report = run_ablation_audit(
            matrices, AblationSpec(combinatorial_depth=depth), zero_window_features(fcfg, 128, fs)
        )
        assert len(report.subsets) == len(enumerate_subsets(5, depth))
        assert len(calls) == len(report.classes)

    def test_depth_three_matches_ablated_shift(self, fcfg):
        windows, fs = windows_of(criticality_spec(7))
        matrices = build_class_matrices(windows, fcfg, fs)
        report = run_ablation_audit(
            matrices, AblationSpec(combinatorial_depth=3), zero_window_features(fcfg, 128, fs)
        )
        for ci, label in enumerate(report.classes):
            class_windows = rows_of(windows, label)
            expected = [
                ablated_shift(class_windows, subset, fcfg, fs, baseline=matrices[label])
                for subset in report.subsets
            ]
            assert same_bits(report.raw_shift[ci], expected)
