import copy
import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import matrix_from_rows
from reference_impls import per_epoch_train_stack

from sensoraudit.errors import (
    EmptyTrainingSetError,
    InvalidSpecError,
    LengthMismatchError,
    TooFewClassesError,
    TooFewRowsError,
)
from sensoraudit import oracle
from sensoraudit.oracle import (
    OracleConfig,
    confusion,
    gradients,
    init_params,
    mcc_from_counts,
    mean_loss,
    pair_rng,
    predict,
    run_oracle_audit,
    standardize,
    train_stack,
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
    (params,) = train_stack(x[None], y[None], cfg, [np.random.default_rng(cfg.seed)])
    return params


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
            grads = gradients(params, x, y)
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


    def test_gradients_into_a_workspace_keep_their_bits(self):
        rng = np.random.default_rng(7)
        params = init_params(5, 8, rng)
        x = rng.normal(size=(12, 5))
        y = rng.integers(0, 2, size=12).astype(float)
        expected = gradients(params, x, y)
        out = {key: np.full((12, 8), np.nan) for key in ("pre", "hidden", "dpre")}
        out |= {"mask": np.ones((12, 8), dtype=bool), "w1": np.full((5, 8), np.nan)}
        got = gradients(params, x, y, out)
        assert got["w1"] is out["w1"]
        for key in params:
            assert np.array_equal(got[key].view(np.uint64), expected[key].view(np.uint64))

    def test_train_equals_gradient_descent(self):
        x, y = blobs(n=40, dims=3, seed=5)
        cfg = OracleConfig(hidden_units=6, epochs=4, batch_size=8, seed=2)
        trained = fit(x, y, cfg)
        rng = np.random.default_rng(cfg.seed)
        params = init_params(3, cfg.hidden_units, rng)
        for _ in range(cfg.epochs):
            order = rng.permutation(len(y))
            for start in range(0, len(y), cfg.batch_size):
                idx = order[start : start + cfg.batch_size]
                grads = gradients(params, x[idx], y[idx])
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
        # train_stack draws the initial weights first from the same generator
        initial = init_params(2, cfg.hidden_units, np.random.default_rng(cfg.seed))
        assert mean_loss(fit(x, y, cfg), x, y) < mean_loss(initial, x, y) / 10.0

    def test_fixed_seed_reproduces_weights(self):
        x, y = blobs(n=120, gap=2.0, seed=3)
        cfg = OracleConfig(seed=9, epochs=20)
        a = fit(x, y, cfg)
        b = fit(x, y, cfg)
        for key in a:
            assert np.array_equal(a[key], b[key])

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

    @pytest.mark.parametrize("n, n_test", [(6, 2), (10, 2), (14, 4), (18, 4)])
    def test_split_rounds_the_test_count_half_to_even(self, n, n_test):
        # n * 0.25 ends in .5; round half up would give 2, 3, 4 and 5
        a_train, a_test, b_train, b_test = oracle._stratified_split(n, n, 0.25, np.random.default_rng(0))
        assert (len(a_test), len(b_test)) == (n_test, n_test)
        assert sorted([*a_train, *a_test]) == sorted([*b_train, *b_test]) == list(range(n))

    def test_pair_rng_stable(self):
        a = pair_rng(5, "x", "y").integers(0, 1 << 30, size=4)
        b = pair_rng(5, "x", "y").integers(0, 1 << 30, size=4)
        c = pair_rng(5, "x", "z").integers(0, 1 << 30, size=4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_pair_rng_gives_every_seed_its_own_stream(self):
        # seeds 2**32 apart gave one stream when the seed was masked to 32 bits
        draws = {
            seed: pair_rng(seed, "x", "y").integers(0, 1 << 62, size=4).tolist()
            for seed in (5, 5 + 2**32, 2**32 - 1, 2**32, 2**64 + 5)
        }
        assert len({tuple(d) for d in draws.values()}) == len(draws)

    @pytest.mark.parametrize("seed", [0, 5, 2**31, 2**32 - 1])
    def test_pair_rng_keeps_the_bits_of_seeds_below_2_32(self, seed):
        digest = hashlib.sha256(b"x\x1fy").digest()
        masked = np.random.SeedSequence([seed & 0xFFFFFFFF, int.from_bytes(digest[:8], "big")])
        expected = np.random.default_rng(masked).integers(0, 1 << 62, size=8)
        assert np.array_equal(pair_rng(seed, "x", "y").integers(0, 1 << 62, size=8), expected)

    def test_too_few_classes(self):
        with pytest.raises(TooFewClassesError):
            run_oracle_audit({"a": matrix_from_rows(np.zeros((5, 2)))}, OracleConfig())

    def test_split_is_stratified_and_exhaustive(self):
        mats = {k: v for k, v in self._matrices(n=25).items() if k in ("a", "b")}
        results = run_oracle_audit(mats, OracleConfig(seed=3, epochs=10))
        tp, tn, fp, fn = results[0].confusion
        # 20% of 25 rows per class -> 5 + 5 test samples
        assert tp + tn + fp + fn == 10


def same_bits(a, b):
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


def same_params(a, b):
    return a.keys() == b.keys() and all(
        a[k].shape == b[k].shape and np.array_equal(a[k].view(np.uint64), b[k].view(np.uint64))
        for k in a
    )


def class_matrices(sizes, dims, seed, gap=0.5):
    rng = np.random.default_rng(seed)
    return {
        f"c{k}": matrix_from_rows(rng.normal(loc=gap * k, size=(n, dims)), f"c{k}")
        for k, n in enumerate(sizes)
    }


class TestStackedTraining:
    """Pairs trained as one stack get the bits each would get alone."""

    # Equal sizes make a stack of several pairs; 25 rows give 20 training
    # rows per class, 40 per pair, so a batch of 13 ends in a batch of 1.
    @settings(max_examples=25, deadline=None)
    @given(
        sizes=st.lists(st.sampled_from([2, 3, 7, 25]), min_size=3, max_size=5),
        dims=st.integers(1, 4),
        hidden=st.integers(1, 5),
        batch=st.integers(1, 14),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(sizes=[25, 25, 25, 7], dims=1, hidden=1, batch=13, seed=0)
    @example(sizes=[3, 25, 7, 25], dims=3, hidden=1, batch=1, seed=1)
    def test_each_pair_alone_gets_the_stacked_bits(self, sizes, dims, hidden, batch, seed):
        cfg = OracleConfig(hidden_units=hidden, epochs=3, batch_size=batch, seed=seed)
        calls = []
        stacked = oracle.train_stack

        def recording(x, y, cfg, rngs):
            before = [copy.deepcopy(rng) for rng in rngs]
            calls.append((x.copy(), y.copy(), before, stacked(x, y, cfg, rngs)))
            return calls[-1][3]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(oracle, "train_stack", recording)
            run_oracle_audit(class_matrices(sizes, dims, seed % 1000), cfg)
        assert sum(len(rngs) for _, _, rngs, _ in calls) == len(sizes) * (len(sizes) - 1) // 2
        for x, y, rngs, trained in calls:
            for p, rng in enumerate(rngs):
                (alone,) = train_stack(x[p][None], y[p][None], cfg, [rng])
                assert same_params(alone, trained[p])

    def test_auditing_a_subset_keeps_the_shared_pairs(self):
        # Uneven sizes: the two audits stack different sets of pairs. The
        # classes are alike, so the test counts follow the training noise.
        mats = class_matrices([60, 91, 60, 36, 91], 3, 4, gap=0.0)
        cfg = OracleConfig(hidden_units=8, epochs=20, batch_size=8, seed=11)
        whole = {r.pair: r for r in run_oracle_audit(mats, cfg)}
        subset = run_oracle_audit({k: mats[k] for k in ("c0", "c2", "c4")}, cfg)
        assert [r.pair for r in subset] == [("c0", "c2"), ("c0", "c4"), ("c2", "c4")]
        for r in subset:
            assert r == whole[r.pair]


def pair_state_bytes(n, d, cfg):
    """Bytes train_stack allocates per pair on n rows of d columns: float64
    w1 and its gradient, the rows, a batch of them and three step buffers,
    and the bool mask."""
    h, r = cfg.hidden_units, min(cfg.batch_size, n)
    return 8 * (2 * d * h + n * d + r * d + 3 * r * h) + r * h


class TestStackBudget:
    """Same-shape pairs train in the fewest near-equal stacks of at most
    STACK_BYTES of state, and get the same bits in any of them."""

    # Six classes of 16 rows give 15 pairs of 26 training rows at 108
    # columns, as in pairs-short (~3 MB of state); a seventh class of 30
    # rows adds 6 pairs of 37 rows.
    SIZES = [16] * 6 + [30]
    CFG = OracleConfig(epochs=2, seed=5)

    def audit(self, budget):
        shapes = []
        stacked = oracle.train_stack

        def recording(x, y, cfg, rngs):
            shapes.append(x.shape)
            return stacked(x, y, cfg, rngs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(oracle, "train_stack", recording)
            mp.setattr(oracle, "STACK_BYTES", budget)
            results = run_oracle_audit(class_matrices(self.SIZES, 108, 3), self.CFG)
        return results, shapes

    def test_results_do_not_depend_on_the_budget(self):
        runs = [self.audit(budget) for budget in (1, oracle.STACK_BYTES, 1 << 40)]
        (want, _), counts = runs[0], [len(shapes) for _, shapes in runs]
        assert counts == [21, 3, 2]
        for got, _ in runs[1:]:
            assert got == want
            assert all(same_bits(g.mcc, w.mcc) for g, w in zip(got, want))

    @pytest.mark.parametrize("pairs", [None, 1, 4, 10, 11, 15])
    def test_each_stack_fits_the_budget(self, pairs):
        # None: the default budget; else room for that many 26-row pairs
        per_pair = pair_state_bytes(26, 108, self.CFG)
        budget = oracle.STACK_BYTES if pairs is None else pairs * per_pair
        _, shapes = self.audit(budget)
        assert sum(p for p, _, _ in shapes) == 21
        for n, d in {(n, d) for _, n, d in shapes}:
            sizes = [p for p, rows, _ in shapes if rows == n]
            total, state = sum(sizes), pair_state_bytes(n, d, self.CFG)
            assert all(p == 1 or p * state <= budget for p in sizes)
            # near-equal, and one stack fewer would not fit
            assert max(sizes) - min(sizes) <= 1
            assert len(sizes) == 1 or -(-total // (len(sizes) - 1)) * state > budget


class TestChunkedOrders:
    """Epoch orders drawn a chunk at a time give the per-epoch bits."""

    @settings(max_examples=40, deadline=None)
    @given(
        stack=st.integers(1, 4),
        n=st.integers(1, 300),
        dims=st.integers(1, 4),
        hidden=st.integers(1, 4),
        batch=st.sampled_from(["one", "below n", "at least n"]),
        budget=st.sampled_from([1, 7, 300, 1000, oracle.ORDER_CHUNK_INDICES]),
        epochs=st.integers(1, 3000),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(stack=1, n=1, dims=1, hidden=1, batch="one", budget=1, epochs=3, seed=0)
    # chunks of 8 epochs, the last one of 2
    @example(stack=3, n=300, dims=2, hidden=2, batch="at least n", budget=8000, epochs=10, seed=1)
    def test_each_pair_gets_the_per_epoch_bits(
        self, stack, n, dims, hidden, batch, budget, epochs, seed
    ):
        batch_size = {"one": 1, "below n": max(1, n - 1 - n // 3), "at least n": n + n % 3}[batch]
        # up to three chunks, a partial one last, within ~3,000 steps
        chunk = max(1, budget // (stack * n))
        most = max(1, min(3 * chunk - 1, 3000 // -(-n // batch_size)))
        epochs = 1 + (epochs - 1) % most
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(stack, n, dims))
        y = rng.integers(0, 2, size=(stack, n)).astype(float)
        cfg = OracleConfig(hidden_units=hidden, epochs=epochs, batch_size=batch_size)
        chunked = [np.random.default_rng([seed, p]) for p in range(stack)]
        per_epoch = copy.deepcopy(chunked)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(oracle, "ORDER_CHUNK_INDICES", budget)
            got = oracle.train_stack(x, y, cfg, chunked)
        want = per_epoch_train_stack(x, y, cfg, per_epoch)
        for p in range(stack):
            assert same_params(got[p], want[p])
            assert chunked[p].bit_generator.state == per_epoch[p].bit_generator.state

    # (pairs, rows, features, batch): pairs-short's stack, an armband-disk-
    # like stack whose last batch is 6 rows, and a lone pair of 300 rows
    @pytest.mark.parametrize("shape", [(15, 26, 108, 32), (10, 70, 72, 32), (1, 300, 108, 32)])
    def test_no_step_allocates_64_kib_after_the_first_epoch(self, monkeypatch, shape):
        stack, n, dims, batch = shape
        rng = np.random.default_rng(0)
        x = rng.normal(size=(stack, n, dims))
        y = rng.integers(0, 2, size=(stack, n)).astype(float)
        cfg = OracleConfig(epochs=30, batch_size=batch)
        # growth[k]: the traced peak between steps k-1 and k over the traced
        # size at step k-1; step k-1's gradients, update and the gather of step k
        growth = []
        last = [0]
        inner = oracle.gradients

        def measure():
            current, peak = tracemalloc.get_traced_memory()
            growth.append(peak - last[0])
            tracemalloc.reset_peak()
            last[0] = current

        def stepping(*args):
            measure()
            return inner(*args)

        monkeypatch.setattr(oracle, "gradients", stepping)
        assert not tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            measure()
            oracle.train_stack(x, y, cfg, [np.random.default_rng(p) for p in range(stack)])
            measure()
        finally:
            tracemalloc.stop()
        steps = -(-n // batch)
        assert len(growth) == 2 + cfg.epochs * steps
        assert max(growth[2 + steps :]) < 64 * 1024


class TestOracleErrors:
    """Each fault keeps its error; with several, the first pair decides."""

    def test_diverging_learning_rate(self):
        cfg = OracleConfig(hidden_units=4, epochs=3, learning_rate=1e300)
        with pytest.raises(InvalidSpecError, match="^learning_rate 1e\\+300 makes training diverge"):
            run_oracle_audit(class_matrices([10, 10, 14], 3, 0), cfg)

    def test_class_too_small_to_split(self):
        with pytest.raises(TooFewRowsError, match="^class with 1 rows cannot be split$"):
            run_oracle_audit(class_matrices([10, 10, 1], 3, 0), OracleConfig(epochs=2))

    def test_first_pair_decides_between_divergence_and_a_tiny_class(self):
        cfg = OracleConfig(hidden_units=4, epochs=3, learning_rate=1e300)
        # (c0, c1) diverges before (c0, c2) fails to split
        with pytest.raises(InvalidSpecError, match="diverge"):
            run_oracle_audit(class_matrices([10, 10, 1], 3, 0), cfg)
        # (c0, c1) fails to split before (c1, c2) diverges
        with pytest.raises(TooFewRowsError):
            run_oracle_audit(class_matrices([1, 10, 10], 3, 0), cfg)
