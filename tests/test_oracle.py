import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import matrix_from_rows

from sensoraudit.errors import (
    EmptyTrainingSetError,
    InvalidSpecError,
    LengthMismatchError,
    SingleClassTrainingError,
    TooFewClassesError,
)
from sensoraudit.oracle import (
    OracleConfig,
    confusion,
    gradients,
    init_params,
    loss_and_grads,
    mcc_from_counts,
    mean_loss,
    pair_rng,
    predict,
    run_oracle_audit,
    standardize,
    train,
)


def blobs(n=200, gap=3.0, dims=2, seed=0):
    rng = np.random.default_rng(seed)
    half = n // 2
    x = np.vstack(
        [
            rng.normal(loc=-gap / 2, size=(half, dims)),
            rng.normal(loc=+gap / 2, size=(n - half, dims)),
        ]
    )
    y = np.concatenate([np.zeros(half), np.ones(n - half)])
    return x, y


def fit(x, y, cfg):
    return train(x, y, cfg, np.random.default_rng(cfg.seed))


def mcc(pred, truth):
    return mcc_from_counts(*confusion(pred, truth))


class TestStandardize:
    def test_constant_column_maps_to_zero(self):
        train = np.array([[1.0, 5.0], [1.0, 7.0], [1.0, 9.0]])
        test = np.array([[4.0, 7.0]])
        train_z, test_z = standardize(train, test)
        assert np.all(train_z[:, 0] == 0.0)
        assert np.all(test_z[:, 0] == 0.0)

    def test_known_zscore(self):
        train = np.array([[8.0], [12.0]])  # mean 10, population sd 2
        test = np.array([[14.0]])
        train_z, test_z = standardize(train, test)
        assert train_z[:, 0].tolist() == [-1.0, 1.0]
        assert test_z[0, 0] == 2.0

    def test_idempotent_on_standardized_data(self):
        rng = np.random.default_rng(3)
        train = rng.normal(size=(50, 4))
        train = (train - train.mean(0)) / train.std(0)
        train_z, _ = standardize(train, train[:5])
        assert np.allclose(train_z, train, atol=1e-12)

    def test_empty_train(self):
        with pytest.raises(EmptyTrainingSetError):
            standardize(np.empty((0, 3)), np.zeros((2, 3)))

    def test_overflowing_column_keeps_its_zscores(self):
        # column 1's train variance overflows at this scale
        rng = np.random.default_rng(1)
        train, test = rng.normal(size=(20, 3)), rng.normal(size=(5, 3))
        scale = np.array([1.0, 2.0**900, 1.0])
        plain = standardize(train, test)
        scaled = standardize(train * scale, test * scale)
        for a, b in zip(scaled, plain):
            assert np.array_equal(a.view(np.uint64), b.view(np.uint64))


class TestMcc:
    def test_perfect(self):
        assert confusion([1, 0, 1, 0], [1, 0, 1, 0]) == (2, 2, 0, 0)
        assert mcc([1, 0, 1, 0], [1, 0, 1, 0]) == 1.0

    def test_inverted(self):
        assert confusion([0, 1, 0, 1], [1, 0, 1, 0]) == (0, 0, 2, 2)
        assert mcc([0, 1, 0, 1], [1, 0, 1, 0]) == -1.0

    def test_hand_counts(self):
        assert mcc_from_counts(45, 45, 5, 5) == 0.8

    def test_zero_denominator_convention(self):
        assert mcc_from_counts(10, 0, 0, 5) == 0.0
        assert confusion([1, 1, 1], [1, 1, 0]) == (2, 0, 1, 0)
        assert mcc([1, 1, 1], [1, 1, 0]) == 0.0

    def test_counts_sum_to_test_size(self):
        rng = np.random.default_rng(0)
        pred = rng.integers(0, 2, size=37)
        truth = rng.integers(0, 2, size=37)
        assert sum(confusion(pred, truth)) == 37

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            confusion([1, 0], [1])
        with pytest.raises(LengthMismatchError):
            confusion([], [])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)), min_size=1, max_size=60))
def test_mcc_properties(pairs):
    pred = [p for p, _ in pairs]
    truth = [t for _, t in pairs]
    forward = mcc(pred, truth)
    assert -1.0 <= forward <= 1.0
    assert mcc(truth, pred) == pytest.approx(forward, abs=1e-12)
    flipped = mcc([1 - p for p in pred], [1 - t for t in truth])
    assert flipped == pytest.approx(forward, abs=1e-12)


class TestGradients:
    def test_analytic_matches_central_differences(self):
        rng = np.random.default_rng(42)
        step = 1e-5
        for case in range(20):
            n_in = int(rng.integers(2, 7))
            hidden = int(rng.integers(2, 11))
            n = int(rng.integers(3, 21))
            params = init_params(n_in, hidden, rng)
            x = rng.normal(size=(n, n_in))
            y = rng.integers(0, 2, size=n).astype(float)
            _, grads = loss_and_grads(params, x, y)
            for key in params:
                flat = params[key].ravel()
                grad_flat = grads[key].ravel()
                for idx in range(flat.size):
                    orig = flat[idx]
                    flat[idx] = orig + step
                    up = mean_loss(params, x, y)
                    flat[idx] = orig - step
                    down = mean_loss(params, x, y)
                    flat[idx] = orig
                    numeric = (up - down) / (2 * step)
                    scale = max(abs(numeric), abs(grad_flat[idx]), 1e-8)
                    assert abs(numeric - grad_flat[idx]) / scale < 1e-4, (case, key)


    def test_gradients_equal_loss_and_grads_bits(self):
        rng = np.random.default_rng(7)
        params = init_params(5, 8, rng)
        x = rng.normal(size=(12, 5))
        y = rng.integers(0, 2, size=12).astype(float)
        loss, expected = loss_and_grads(params, x, y)
        assert loss == mean_loss(params, x, y)
        got = gradients(params, x, y)
        for key in params:
            assert np.array_equal(got[key].view(np.uint64), expected[key].view(np.uint64))

    def test_train_equals_loss_and_grads_descent(self):
        x, y = blobs(n=40, dims=3, seed=5)
        cfg = OracleConfig(hidden_units=6, epochs=4, batch_size=8, seed=2)
        trained = fit(x, y, cfg)
        rng = np.random.default_rng(cfg.seed)
        params = init_params(3, cfg.hidden_units, rng)
        for _ in range(cfg.epochs):
            order = rng.permutation(len(y))
            for start in range(0, len(y), cfg.batch_size):
                idx = order[start : start + cfg.batch_size]
                _, grads = loss_and_grads(params, x[idx], y[idx])
                for key in params:
                    params[key] -= cfg.learning_rate * grads[key]
        for key in params:
            assert np.array_equal(trained[key].view(np.uint64), params[key].view(np.uint64))


class TestTraining:
    def test_separable_blobs_train_accuracy(self):
        x, y = blobs(n=200, gap=3.0, seed=1)
        cfg = OracleConfig(seed=1)
        train_acc = float((predict(fit(x, y, cfg), x) == y).mean())
        assert train_acc >= 0.99

    def test_loss_drops_by_an_order_of_magnitude(self):
        x, y = blobs(n=200, gap=3.0, seed=2)
        cfg = OracleConfig(seed=2)
        # train draws the initial weights first from the same generator
        initial = init_params(2, cfg.hidden_units, np.random.default_rng(cfg.seed))
        assert mean_loss(fit(x, y, cfg), x, y) < mean_loss(initial, x, y) / 10.0

    def test_fixed_seed_reproduces_weights(self):
        x, y = blobs(n=120, gap=2.0, seed=3)
        cfg = OracleConfig(seed=9, epochs=20)
        a = fit(x, y, cfg)
        b = fit(x, y, cfg)
        for key in a:
            assert np.array_equal(a[key], b[key])

    def test_diverging_learning_rate_is_refused(self):
        # the parameters overflow; no RuntimeWarning may escape on the way
        x, y = blobs(n=40, dims=3, seed=5)
        cfg = OracleConfig(hidden_units=6, epochs=3, learning_rate=1e300)
        with pytest.raises(InvalidSpecError, match="learning_rate 1e\\+300 makes training diverge"):
            fit(x, y, cfg)

    def test_permuted_labels_give_null_mcc(self):
        # mean test MCC over 20 seeds stays near zero
        values = []
        for seed in range(20):
            rng = np.random.default_rng(seed)
            x, y = blobs(n=200, gap=3.0, seed=seed)
            y = rng.permutation(y)
            train_idx = rng.permutation(200)[:160]
            test_idx = np.setdiff1d(np.arange(200), train_idx)
            cfg = OracleConfig(seed=seed, epochs=60)
            tr, te = standardize(x[train_idx], x[test_idx])
            values.append(mcc(predict(fit(tr, y[train_idx], cfg), te), y[test_idx]))
        assert abs(float(np.mean(values))) < 0.15

    def test_single_class_training_rejected(self):
        x = np.zeros((10, 2))
        with pytest.raises(SingleClassTrainingError):
            fit(x, np.zeros(10), OracleConfig())

    def test_row_count_mismatch_rejected(self):
        with pytest.raises(LengthMismatchError):
            fit(np.zeros((10, 2)), np.arange(9) % 2, OracleConfig())

    def test_init_bounds(self):
        rng = np.random.default_rng(0)
        params = init_params(16, 8, rng)
        assert np.all(np.abs(params["w1"]) <= 1 / 4.0)
        assert np.all(np.abs(params["w2"]) <= 1 / np.sqrt(8))
        assert np.all(params["b1"] == 0.0) and np.all(params["b2"] == 0.0)


class TestRunOracleAudit:
    def _matrices(self, seed=0, n=60, gap=4.0):
        rng = np.random.default_rng(seed)
        shared_a = rng.normal(size=(n, 4))
        shared_b = rng.normal(size=(n, 4))
        distinct = rng.normal(loc=gap, size=(n, 4))
        return {
            "a": matrix_from_rows(shared_a, "a"),
            "b": matrix_from_rows(shared_b, "b"),
            "c": matrix_from_rows(distinct, "c"),
        }

    def test_two_classes_single_result(self):
        mats = {k: v for k, v in self._matrices().items() if k in ("a", "c")}
        results = run_oracle_audit(mats, OracleConfig(seed=0, epochs=60))
        assert len(results) == 1
        assert results[0].pair == ("a", "c")

    def test_shared_distribution_pair_scores_near_zero(self):
        mats = self._matrices(seed=4)
        results = run_oracle_audit(mats, OracleConfig(seed=4, epochs=80))
        by_pair = {r.pair: r.mcc for r in results}
        assert abs(by_pair[("a", "b")]) < 0.5
        assert by_pair[("a", "c")] >= 0.9
        assert by_pair[("b", "c")] >= 0.9

    def test_results_sorted_and_confusion_consistent(self):
        results = run_oracle_audit(self._matrices(), OracleConfig(seed=1, epochs=40))
        assert [r.pair for r in results] == [("a", "b"), ("a", "c"), ("b", "c")]
        for r in results:
            tp, tn, fp, fn = r.confusion
            assert mcc_from_counts(tp, tn, fp, fn) == pytest.approx(r.mcc, abs=1e-12)
            assert (tp + tn) / (tp + tn + fp + fn) == pytest.approx(r.accuracy, abs=1e-12)

    def test_pair_rng_stable(self):
        a = pair_rng(5, "x", "y").integers(0, 1 << 30, size=4)
        b = pair_rng(5, "x", "y").integers(0, 1 << 30, size=4)
        c = pair_rng(5, "x", "z").integers(0, 1 << 30, size=4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_too_few_classes(self):
        with pytest.raises(TooFewClassesError):
            run_oracle_audit({"a": matrix_from_rows(np.zeros((5, 2)))}, OracleConfig())

    def test_split_is_stratified_and_exhaustive(self):
        mats = {k: v for k, v in self._matrices(n=25).items() if k in ("a", "b")}
        results = run_oracle_audit(mats, OracleConfig(seed=3, epochs=10))
        tp, tn, fp, fn = results[0].confusion
        # 20% of 25 rows per class -> 5 + 5 test samples
        assert tp + tn + fp + fn == 10
