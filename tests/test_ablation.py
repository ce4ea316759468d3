from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CLASSES, ablate, criticality_spec, feature_row, windows_from, windows_of
from reference_impls import IndexOutOfRangeError, ablated_matrix, materialize, nullify

from sensoraudit import ablation
from sensoraudit.ablation import (
    AblationReport,
    AblationSpec,
    enumerate_subsets,
    neighbour_compensation,
    run_ablation_audit,
)
from sensoraudit.errors import (
    ConfigError,
    InvalidSpecError,
    TooFewClassesError,
    TooFewRowsError,
    TopologyMismatchError,
)
from sensoraudit.features import (
    FEATURE_NAMES,
    FeatureConfig,
    FeatureMatrix,
    build_class_matrices,
    feature_columns,
)
from sensoraudit.separability import pairwise_audit


def make_windows(n=6, channels=4, width=64, label="a", seed=0):
    rng = np.random.default_rng(seed)
    return windows_from(
        [(rng.standard_normal((channels, width)), label, f"t{i}", i) for i in range(n)]
    )


def two_class_windows(n=(6, 6), channels=4, width=64, seed=0):
    """Noise windows of classes "a" and "b", ``n`` of each; "b" is twice as loud."""
    rng = np.random.default_rng(seed)
    return windows_from(
        [
            (gain * rng.standard_normal((channels, width)), label, f"t{i}", i)
            for label, count, gain in (("a", n[0], 1.0), ("b", n[1], 2.0))
            for i in range(count)
        ]
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


class TestAblatedMatrix:
    def test_fast_path_matches_literal_reextraction(self, fcfg):
        windows = make_windows(n=8, channels=3, width=96, seed=3)
        fs = 200.0
        baseline = build_class_matrices(windows, fcfg, fs)["a"]
        for subset in [(0,), (2,), (0, 2)]:
            fast = ablated_matrix(baseline, subset, fcfg, 96, fs)
            literal = build_class_matrices(nullify(windows, subset), fcfg, fs)["a"]
            assert np.array_equal(fast.values, literal.values)


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
        mean_log1p_max_fdr=normalized.mean(axis=0),
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
        assert normalized.shape == (3, 5) and report.mean_log1p_max_fdr.shape == (5,)
        assert not np.isnan(normalized).any() and not np.isnan(report.mean_log1p_max_fdr).any()
        assert normalized.min() >= 0.0
        assert normalized.max(axis=1).tolist() == [1.0, 1.0, 1.0]
        order = sorted(range(5), key=lambda s: (-report.mean_log1p_max_fdr[s], s))
        assert report.ranking == tuple(order)
        # only a class's top sensor loses anything alone, and it loses f1
        # down to the runner-up's maximum
        singletons = report.raw_shift[:, :5]  # every depth reports the singletons first
        top = normalized.argmax(axis=1)
        assert (singletons[np.arange(3), top] > 0.0).all()
        singletons[np.arange(3), top] = 0.0
        assert not singletons.any()

    def test_combinatorial_depth_two(self, fcfg):
        windows = two_class_windows()
        spec = AblationSpec(combinatorial_depth=2)
        report = ablate(windows, spec, fcfg, 200.0)
        assert len(report.subsets) == 4 + 6
        assert report.raw_shift.shape == (2, 10)

    def test_every_channel_lost_loses_the_whole_f1(self, fcfg):
        windows = two_class_windows(channels=3)
        audit = pairwise_audit(build_class_matrices(windows, fcfg, 200.0), mode="one-vs-rest")
        report = run_ablation_audit(audit, 3, AblationSpec(combinatorial_depth=3))
        assert report.subsets[-1] == (0, 1, 2)
        assert report.raw_shift[:, -1].tolist() == [r.raw_fdr for r in audit.results]

    def test_named_classes_are_scored_against_every_class(self, fcfg):
        windows, fs = windows_of(criticality_spec(3))
        audit = pairwise_audit(build_class_matrices(windows, fcfg, fs), mode="one-vs-rest")
        every = run_ablation_audit(audit, 5, AblationSpec())
        named = run_ablation_audit(audit, 5, AblationSpec(classes=("gamma", "alpha")))
        assert named.classes == ("gamma", "alpha")
        assert same_bits(named.raw_shift, every.raw_shift[[2, 0]])
        assert same_bits(named.normalized_criticality, every.normalized_criticality[[2, 0]])

    def test_a_one_vs_one_audit_is_refused(self, fcfg):
        matrices = build_class_matrices(two_class_windows(), fcfg, 200.0)
        with pytest.raises(ConfigError, match="one-vs-rest"):
            run_ablation_audit(pairwise_audit(matrices), 4, AblationSpec())

    def test_class_with_too_few_windows(self, fcfg):
        windows = two_class_windows(n=(1, 6))
        with pytest.raises(TooFewRowsError) as err:
            ablate(windows, AblationSpec(), fcfg, 200.0)
        assert "'a'" in str(err.value)
        with pytest.raises(TooFewClassesError):
            ablate(make_windows(), AblationSpec(), fcfg, 200.0)

    def test_invalid_specs(self):
        with pytest.raises(InvalidSpecError):
            AblationSpec(combinatorial_depth=0)
        with pytest.raises(InvalidSpecError, match="classes must be unique"):
            AblationSpec(classes=["a", "a", "b"])


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


# Column kinds for the property test; "zero" repeats the all-zero window's
# value, so that column is already what a failed sensor reads.
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
        for label in ("a", "b", "c")[: draw(st.integers(2, 3))]
    }
    seed = draw(st.integers(0, 2**32 - 1))
    return fcfg, channels, AblationSpec(combinatorial_depth=depth), classes, seed


@settings(max_examples=150, deadline=None)
@given(ablation_cases())
def test_losses_match_nullify_and_rescore_bits(case):
    fcfg, channels, spec, classes, seed = case
    width, fs = 32, 200.0
    rng = np.random.default_rng(seed)
    constants = feature_row(np.zeros((1, width)), fcfg, fs)
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

    intact = pairwise_audit(baselines, mode="one-vs-rest")
    report = run_ablation_audit(intact, channels, spec)
    # the failed sensors read zero in every class, and each class is
    # scored against the rest again
    expected = np.array(
        [
            [
                before.raw_fdr - after.raw_fdr
                for before, after in zip(
                    intact.results,
                    pairwise_audit(
                        {
                            label: ablated_matrix(matrix, subset, fcfg, width, fs)
                            for label, matrix in baselines.items()
                        },
                        mode="one-vs-rest",
                    ).results,
                )
            ]
            for subset in report.subsets
        ]
    ).T
    assert same_bits(report.raw_shift, expected)


def test_depth_three_matches_literal_nullify_and_rescore(fcfg):
    windows, fs = windows_of(criticality_spec(7))
    intact = pairwise_audit(build_class_matrices(windows, fcfg, fs), mode="one-vs-rest")
    report = run_ablation_audit(intact, 5, AblationSpec(combinatorial_depth=3))
    for k, subset in enumerate(report.subsets):
        ablated = pairwise_audit(
            build_class_matrices(nullify(windows, subset), fcfg, fs), mode="one-vs-rest"
        )
        expected = [b.raw_fdr - a.raw_fdr for b, a in zip(intact.results, ablated.results)]
        assert same_bits(report.raw_shift[:, k], expected)
