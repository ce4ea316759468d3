import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import graded_spec, matrices_of, matrix_from_rows
from reference_impls import naive_f2, naive_f3, naive_fisher

from sensoraudit.errors import MismatchedColumnsError, TooFewClassesError, TooFewRowsError
from sensoraudit.features import rms
from sensoraudit.oracle import standardize
from sensoraudit.separability import (
    F1_CAP,
    fisher_per_dim,
    pairwise_audit,
    separability_score,
)


class TestFisherRatio:
    def test_one_dim_unit_variances(self):
        # means 0 and 2, population variances 1 and 1 -> 4/2
        target = matrix_from_rows([[-1.0], [1.0]])
        reference = matrix_from_rows([[1.0], [3.0]])
        s = separability_score(target, reference)
        f1, argmax = s.f1, s.f1_argmax
        assert f1 == 2.0
        assert argmax == 0

    def test_identical_matrices_zero(self):
        rng = np.random.default_rng(0)
        values = rng.normal(size=(10, 4))
        assert separability_score(matrix_from_rows(values), matrix_from_rows(values)).f1 == 0.0

    def test_max_rule_over_dimensions(self):
        # per-dim ratios 0.5, 2.0, 1.0 -> max 2.0 at column 1
        sqrt2 = float(np.sqrt(2.0))
        target = [[-1.0, -1.0, -1.0], [1.0, 1.0, 1.0]]
        reference = [[0.0, 1.0, sqrt2 - 1.0], [2.0, 3.0, sqrt2 + 1.0]]
        s = separability_score(matrix_from_rows(target), matrix_from_rows(reference))
        f1, argmax, per_dim = s.f1, s.f1_argmax, s.per_dim_fisher
        assert per_dim == pytest.approx([0.5, 2.0, 1.0], rel=1e-12)
        assert (f1, argmax) == (2.0, 1)

    def test_zero_variance_distinct_means_caps(self):
        target = matrix_from_rows([[1.0], [1.0]])
        reference = matrix_from_rows([[2.0], [2.0]])
        score = separability_score(target, reference)
        assert score.f1 == F1_CAP
        assert score.degenerate_dims == (0,)

    def test_rounding_level_variance_caps_without_overflow(self):
        # five copies of a tiny value have an inexact mean, so a nonzero
        # variance near the bottom of the float range
        target = matrix_from_rows([[1.6369616873214544e-139]] * 5)
        reference = matrix_from_rows([[1.0], [1.0]])
        ab = separability_score(target, reference)
        ba = separability_score(reference, target)
        assert ab.f1 == ba.f1 == F1_CAP

    @pytest.mark.parametrize("power", [500, 520, 600, 1000])
    def test_overflowing_columns_keep_their_ratio(self, power):
        # column 1 is scaled by 2**power; at 520 and above its squared gap
        # and variance overflow, and the ratio must still be the unscaled one
        rng = np.random.default_rng(power)
        t, r = rng.normal(size=(6, 3)), rng.normal(loc=0.5, size=(4, 3))
        plain = separability_score(matrix_from_rows(t), matrix_from_rows(r))
        scale = np.array([1.0, 2.0**power, 1.0])
        t[:, 2] = rng.normal(size=6)  # column 2 stays finite but changes
        r[:, 2] = rng.normal(size=4)
        expected = separability_score(matrix_from_rows(t), matrix_from_rows(r)).per_dim_fisher
        expected[1] = plain.per_dim_fisher[1]
        score = separability_score(matrix_from_rows(t * scale), matrix_from_rows(r * scale))
        assert np.array_equal(score.per_dim_fisher.view(np.uint64), expected.view(np.uint64))
        assert np.isfinite(score.f1)

    def test_zero_variance_equal_means_scores_zero(self):
        target = matrix_from_rows([[1.0], [1.0]])
        reference = matrix_from_rows([[1.0], [1.0]])
        score = separability_score(target, reference)
        assert score.f1 == 0.0
        assert score.degenerate_dims == (0,)

    def test_too_few_rows(self):
        with pytest.raises(TooFewRowsError):
            separability_score(matrix_from_rows([[1.0]]), matrix_from_rows([[1.0], [2.0]]))

    def test_mismatched_columns(self):
        a = matrix_from_rows(np.zeros((3, 2)))
        b = matrix_from_rows(np.zeros((3, 3)))
        with pytest.raises(MismatchedColumnsError):
            separability_score(a, b)


class TestOverlapVolume:
    def test_one_dim_partial_overlap(self):
        target = matrix_from_rows([[0.0], [2.0]])
        reference = matrix_from_rows([[1.0], [3.0]])
        s = separability_score(target, reference)
        f2, overlap, span = s.f2, s.per_dim_overlap, s.per_dim_range
        assert f2 == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert overlap[0] == 1.0 and span[0] == 3.0

    def test_identical_full_overlap(self):
        values = np.random.default_rng(1).normal(size=(8, 3))
        f2 = separability_score(matrix_from_rows(values), matrix_from_rows(values)).f2
        assert f2 == 1.0

    def test_disjoint_dimension_zeroes_product(self):
        target = matrix_from_rows([[0.0, 0.0], [1.0, 1.0]])
        reference = matrix_from_rows([[5.0, 0.5], [6.0, 1.5]])
        f2 = separability_score(target, reference).f2
        assert f2 == 0.0


class TestFeatureEfficiency:
    def test_one_dim_partial_overlap(self):
        target = matrix_from_rows([[0.0], [2.0]])
        reference = matrix_from_rows([[1.0], [3.0]])
        s = separability_score(target, reference)
        f3, argmax = s.f3, s.f3_argmax
        assert f3 == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert argmax == 0

    def test_identical_zero(self):
        values = np.random.default_rng(2).normal(size=(5, 2))
        assert separability_score(matrix_from_rows(values), matrix_from_rows(values)).f3 == 0.0

    def test_max_of_complements(self):
        # per-dim overlap fractions 1/3 and 1 -> F3 = 2/3 at column 0
        target = matrix_from_rows([[0.0, 0.0], [2.0, 1.0]])
        reference = matrix_from_rows([[1.0, 0.0], [3.0, 1.0]])
        s = separability_score(target, reference)
        f3, argmax = s.f3, s.f3_argmax
        assert f3 == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert argmax == 0


def _random_instance(rng):
    dims = int(rng.integers(1, 6))
    rows_t = int(rng.integers(2, 21))
    rows_r = int(rng.integers(2, 21))
    t = rng.normal(loc=rng.normal(scale=2), scale=rng.uniform(0.2, 3), size=(rows_t, dims))
    r = rng.normal(loc=rng.normal(scale=2), scale=rng.uniform(0.2, 3), size=(rows_r, dims))
    return t, r


class TestBruteForceEquivalence:
    def test_random_instances_match_naive(self):
        rng = np.random.default_rng(2024)
        for _ in range(100):
            t, r = _random_instance(rng)
            score = separability_score(matrix_from_rows(t), matrix_from_rows(r))
            f1_ref, _, per_ref = naive_fisher(t.tolist(), r.tolist())
            assert score.f1 == pytest.approx(f1_ref, rel=1e-12)
            assert score.per_dim_fisher == pytest.approx(per_ref, rel=1e-12)
            assert score.f2 == pytest.approx(naive_f2(t.tolist(), r.tolist()), rel=1e-12)
            assert score.f3 == pytest.approx(naive_f3(t.tolist(), r.tolist()), rel=1e-12)


_matrix_strategy = arrays(
    np.float64,
    st.tuples(st.integers(2, 12), st.integers(1, 5)),
    elements=st.floats(-50, 50, allow_nan=False, allow_infinity=False),
)

# grid-valued entries keep affine maps exactly representable (no
# catastrophic cancellation between tiny gaps and large offsets)
_grid_elements = st.integers(-400, 400).map(lambda k: k / 8.0)
_grid_matrix_strategy = arrays(
    np.float64,
    st.tuples(st.integers(2, 12), st.integers(1, 5)),
    elements=_grid_elements,
)


@settings(max_examples=60, deadline=None)
@given(_matrix_strategy, st.data())
def test_symmetry_and_bounds(t, data):
    r = data.draw(
        arrays(
            np.float64,
            st.tuples(st.integers(2, 12), st.just(t.shape[1])),
            elements=st.floats(-50, 50, allow_nan=False, allow_infinity=False),
        )
    )
    ab = separability_score(matrix_from_rows(t), matrix_from_rows(r))
    ba = separability_score(matrix_from_rows(r), matrix_from_rows(t))
    assert ab.f1 == pytest.approx(ba.f1, rel=1e-12)
    assert ab.f2 == pytest.approx(ba.f2, rel=1e-12)
    assert ab.f3 == pytest.approx(ba.f3, rel=1e-12)
    assert ab.f1 >= 0.0
    assert 0.0 <= ab.f2 <= 1.0
    assert 0.0 <= ab.f3 <= 1.0
    if ab.f2 == 0.0:
        assert ab.f3 == 1.0


@settings(max_examples=60, deadline=None)
@given(
    _grid_matrix_strategy,
    st.sampled_from([0.25, 0.5, 2.0, 4.0]),
    st.integers(-20, 20).map(float),
    st.booleans(),
    st.data(),
)
def test_affine_invariance_per_column(t, scale, offset, negate, data):
    r = data.draw(
        arrays(
            np.float64,
            st.tuples(st.integers(2, 12), st.just(t.shape[1])),
            elements=_grid_elements,
        )
    )
    column = data.draw(st.integers(0, t.shape[1] - 1))
    base = separability_score(matrix_from_rows(t), matrix_from_rows(r))

    a = -scale if negate else scale
    t2, r2 = t.copy(), r.copy()
    t2[:, column] = a * t2[:, column] + offset
    r2[:, column] = a * r2[:, column] + offset
    mapped = separability_score(matrix_from_rows(t2), matrix_from_rows(r2))
    # f1 is invariant for any a != 0; f2/f3 for increasing maps
    assert mapped.per_dim_fisher[column] == pytest.approx(
        base.per_dim_fisher[column], rel=1e-6, abs=1e-9
    )
    if not negate:
        assert mapped.f2 == pytest.approx(base.f2, rel=1e-6, abs=1e-12)
        assert mapped.f3 == pytest.approx(base.f3, rel=1e-6, abs=1e-9)


# Zero and magnitudes in [1, 2**20] times 2**k stay exact normal floats for
# every k from -1022 (the smallest normal exponent) to 1003 (2**20 * 2**1003
# is 2**1023); their squares leave float64's range at either end.
_unit_to_2_20 = st.floats(1.0, 2.0**20)
_exact_elements = st.one_of(st.just(0.0), _unit_to_2_20, _unit_to_2_20.map(lambda v: -v))
_exponents = st.one_of(st.sampled_from([-1022, -1000, -540, 540, 1000, 1003]), st.integers(-1022, 1003))


def _same_bits(a, b) -> bool:
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_squaring_statistics_commute_with_powers_of_two(data):
    # rms, Fisher ratios and z-scores scale each row or column to a unit
    # peak before squaring, so 2**k comes out exactly: rms scales by it,
    # Fisher ratios and z-scores keep their bits
    d = data.draw(st.integers(1, 4), label="columns")
    t, r = (
        data.draw(arrays(np.float64, (data.draw(st.integers(1, 8)), d), elements=_exact_elements))
        for _ in range(2)
    )
    k = np.array(data.draw(st.lists(_exponents, min_size=d, max_size=d), label="k"))
    scale = np.ldexp(1.0, k)
    fisher, degenerate = fisher_per_dim(t, r)
    scaled_fisher, scaled_degenerate = fisher_per_dim(t * scale, r * scale)
    assert _same_bits(scaled_fisher, fisher) and np.array_equal(scaled_degenerate, degenerate)
    for scaled_z, z in zip(standardize(t * scale, r * scale), standardize(t, r)):
        assert _same_bits(scaled_z, z)
    assert _same_bits(rms(t.T * scale[:, None]), np.ldexp(rms(t.T), k))


class TestPairwiseAudit:
    def test_two_classes_single_pair_normalized_one(self):
        rng = np.random.default_rng(5)
        mats = {
            "a": matrix_from_rows(rng.normal(size=(10, 3))),
            "b": matrix_from_rows(rng.normal(loc=2.0, size=(10, 3))),
        }
        audit = pairwise_audit(mats)
        assert len(audit.results) == 1
        assert audit.results[0].normalized_fdr == 1.0

    def test_normalization_max_is_exactly_one(self):
        mats = matrices_of(graded_spec(7))
        audit = pairwise_audit(mats)
        assert max(r.normalized_fdr for r in audit.results) == 1.0

    def test_identical_pair_has_lowest_raw_fdr(self):
        rng = np.random.default_rng(9)
        shared = rng.normal(size=(30, 4))
        mats = {
            "a": matrix_from_rows(rng.normal(size=(30, 4))),
            "b": matrix_from_rows(rng.normal(size=(30, 4))),
            "c": matrix_from_rows(shared + rng.normal(loc=6.0, size=(30, 4))),
        }
        audit = pairwise_audit(mats)
        by_pair = {(r.target, r.reference): r.raw_fdr for r in audit.results}
        assert by_pair[("a", "b")] < by_pair[("a", "c")]
        assert by_pair[("a", "b")] < by_pair[("b", "c")]

    def test_one_vs_rest_pools_everything_else(self):
        rng = np.random.default_rng(11)
        mats = {
            "a": matrix_from_rows(rng.normal(size=(12, 2))),
            "b": matrix_from_rows(rng.normal(size=(10, 2))),
            "c": matrix_from_rows(rng.normal(size=(8, 2))),
        }
        audit = pairwise_audit(mats, mode="one-vs-rest")
        assert [r.target for r in audit.results] == ["a", "b", "c"]
        assert all(r.reference == "rest" for r in audit.results)

    def test_distinct_class_has_highest_one_vs_rest_fdr(self):
        # two classes share a source distribution, one is shifted
        rng = np.random.default_rng(13)
        mats = {
            "a": matrix_from_rows(rng.normal(size=(40, 3))),
            "b": matrix_from_rows(rng.normal(size=(40, 3))),
            "c": matrix_from_rows(rng.normal(loc=5.0, size=(40, 3))),
        }
        audit = pairwise_audit(mats, mode="one-vs-rest")
        fdr = {r.target: r.raw_fdr for r in audit.results}
        assert fdr["c"] > fdr["a"]
        assert fdr["c"] > fdr["b"]

    def test_too_few_classes(self):
        with pytest.raises(TooFewClassesError):
            pairwise_audit({"a": matrix_from_rows(np.zeros((3, 2)))})

    def test_pairs_ordered_lexicographically(self):
        rng = np.random.default_rng(17)
        mats = {
            name: matrix_from_rows(rng.normal(size=(5, 2))) for name in ["rock", "paper", "scissors"]
        }
        audit = pairwise_audit(mats)
        assert [(r.target, r.reference) for r in audit.results] == [
            ("paper", "rock"),
            ("paper", "scissors"),
            ("rock", "scissors"),
        ]
