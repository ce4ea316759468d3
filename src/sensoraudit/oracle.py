"""Validation oracle: small binary MLPs scored with Matthews correlation.

One classifier per unordered class pair checks that the separability
audit's predictions show up in an actual learner. Everything is
deterministic for a fixed seed: each pair derives its own generator from
(seed, sha256(pair)), so no pair's draws depend on the pairs before it.

Architecture: one rectified hidden layer, a single logistic output,
cross-entropy on logits, plain mini-batch gradient descent with a fixed
learning rate. Weights start uniform in [-1/sqrt(fan_in), +1/sqrt(fan_in)];
biases start at zero.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptyTrainingSetError,
    InvalidSpecError,
    LengthMismatchError,
    SingleClassTrainingError,
    TooFewClassesError,
    TooFewRowsError,
)
from .features import FeatureMatrix
from .ingest import JsonConfig


@dataclass(frozen=True)
class OracleConfig(JsonConfig):
    hidden_units: int = 64
    epochs: int = 200
    learning_rate: float = 0.01
    batch_size: int = 32
    test_fraction: float = 0.2
    seed: int = 0

    def check_bounds(self) -> None:
        self.check_positive_ints("hidden_units", "epochs", "batch_size")
        if self.learning_rate <= 0:
            raise InvalidSpecError("learning_rate must be positive")
        if not 0.0 < self.test_fraction < 1.0:
            raise InvalidSpecError("test_fraction must lie in (0, 1)")
        if self.seed < 0:
            raise InvalidSpecError(f"seed must be a nonnegative integer, got {self.seed}")


def standardize(
    train: np.ndarray, test: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Z-score both splits with train statistics only.

    Columns constant in train map to exactly 0 in both splits. Returns
    (train_z, test_z, mean, sd) with the raw per-column train mean/sd,
    which read inf where they overflow float64.
    """
    train = np.asarray(train, dtype=float)
    test = np.asarray(test, dtype=float)
    if train.shape[0] == 0:
        raise EmptyTrainingSetError("standardize needs a nonempty training split")
    with np.errstate(over="ignore"):
        mean = train.mean(axis=0)
        sd = train.std(axis=0)
    center, spread = mean, sd
    # values beyond ~1e154 overflow the variance; scaling a column's values
    # by a power of two is exact and leaves its z-scores as they are
    big = ~(np.isfinite(mean) & np.isfinite(sd))
    if big.any():
        shift = np.where(big, -np.frexp(np.abs(train).max(axis=0))[1], 0)
        train, test = np.ldexp(train, shift), np.ldexp(test, shift)
        center, spread = train.mean(axis=0), train.std(axis=0)
    scale = np.where(spread > 0.0, spread, 1.0)
    train_z = (train - center) / scale
    test_z = (test - center) / scale
    dead = sd == 0.0
    train_z[:, dead] = 0.0
    test_z[:, dead] = 0.0
    return train_z, test_z, mean, sd


def init_params(n_in: int, n_hidden: int, rng: np.random.Generator) -> dict[str, np.ndarray]:
    lim1 = 1.0 / math.sqrt(n_in)
    lim2 = 1.0 / math.sqrt(n_hidden)
    return {
        "w1": rng.uniform(-lim1, lim1, size=(n_in, n_hidden)),
        "b1": np.zeros(n_hidden),
        "w2": rng.uniform(-lim2, lim2, size=(n_hidden, 1)),
        "b2": np.zeros(1),
    }


def _forward(params: dict[str, np.ndarray], x: np.ndarray):
    pre = x @ params["w1"] + params["b1"]
    hidden = np.maximum(pre, 0.0)
    logits = (hidden @ params["w2"]).ravel() + params["b2"][0]
    return pre, hidden, logits


def mean_loss(params: dict[str, np.ndarray], x: np.ndarray, y: np.ndarray) -> float:
    """Mean cross-entropy on logits: softplus(z) - y*z."""
    _, _, logits = _forward(params, x)
    return float(np.mean(np.logaddexp(0.0, logits) - y * logits))


def loss_and_grads(
    params: dict[str, np.ndarray], x: np.ndarray, y: np.ndarray
) -> tuple[float, dict[str, np.ndarray]]:
    """Mean cross-entropy and its analytic gradients w.r.t. every parameter."""
    return mean_loss(params, x, y), gradients(params, x, y)


def gradients(
    params: dict[str, np.ndarray], x: np.ndarray, y: np.ndarray
) -> dict[str, np.ndarray]:
    """Analytic gradients of the mean cross-entropy w.r.t. every parameter."""
    pre, hidden, logits = _forward(params, x)
    n = x.shape[0]
    prob = 1.0 / (1.0 + np.exp(-logits))
    dlogits = (prob - y) / n
    grad_w2 = hidden.T @ dlogits[:, None]
    grad_b2 = np.array([dlogits.sum()])
    dhidden = np.outer(dlogits, params["w2"].ravel())
    dpre = dhidden * (pre > 0.0)
    grad_w1 = x.T @ dpre
    grad_b1 = dpre.sum(axis=0)
    return {"w1": grad_w1, "b1": grad_b1, "w2": grad_w2, "b2": grad_b2}


class MlpClassifier:
    """Deterministic one-hidden-layer binary classifier.

    After ``fit``, ``loss_history`` is ``[initial, final]``: the mean
    training loss before the first epoch and after the last.
    """

    def __init__(self, cfg: OracleConfig):
        self.cfg = cfg
        self.params: dict[str, np.ndarray] | None = None
        self.loss_history: list[float] = []

    def fit(self, x: np.ndarray, y: np.ndarray, rng: np.random.Generator | None = None):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.shape[0] != y.shape[0]:
            raise LengthMismatchError("x and y row counts differ")
        present = np.unique(y)
        if present.size < 2:
            raise SingleClassTrainingError("training labels contain a single class")
        if rng is None:
            rng = np.random.default_rng(self.cfg.seed)
        params = init_params(x.shape[1], self.cfg.hidden_units, rng)
        n = x.shape[0]
        bs = self.cfg.batch_size
        lr = self.cfg.learning_rate
        # a step too large overflows the parameters; that run is refused below
        with np.errstate(over="ignore", invalid="ignore"):
            self.loss_history = [mean_loss(params, x, y)]
            for _ in range(self.cfg.epochs):
                order = rng.permutation(n)
                for start in range(0, n, bs):
                    idx = order[start : start + bs]
                    grads = gradients(params, x[idx], y[idx])
                    for key in params:
                        params[key] -= lr * grads[key]
            self.loss_history.append(mean_loss(params, x, y))
        if not (
            math.isfinite(self.loss_history[-1])
            and all(np.isfinite(p).all() for p in params.values())
        ):
            raise InvalidSpecError(
                f"learning_rate {lr!r} makes training diverge: the final loss is "
                f"{self.loss_history[-1]}; use a smaller learning_rate"
            )
        self.params = params
        return self

    def decision_values(self, x: np.ndarray) -> np.ndarray:
        if self.params is None:
            raise InvalidSpecError("classifier is not fitted")
        _, _, logits = _forward(self.params, np.asarray(x, dtype=float))
        return logits

    def predict(self, x: np.ndarray) -> np.ndarray:
        return (self.decision_values(x) >= 0.0).astype(int)


@dataclass
class Evaluation:
    mcc: float
    accuracy: float
    tp: int
    tn: int
    fp: int
    fn: int


def mcc_from_counts(tp: int, tn: int, fp: int, fn: int) -> float:
    """Matthews correlation; any zero factor in the denominator yields 0."""
    denom = (tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)
    if denom == 0:
        return 0.0
    return float((tp * tn - fp * fn) / math.sqrt(denom))


def evaluate_mcc(predictions: np.ndarray, truth: np.ndarray) -> Evaluation:
    pred = np.asarray(predictions).astype(int)
    true = np.asarray(truth).astype(int)
    if pred.shape != true.shape or pred.size == 0:
        raise LengthMismatchError(
            f"predictions ({pred.size}) and truth ({true.size}) must be equal-length and nonempty"
        )
    tp = int(np.count_nonzero((pred == 1) & (true == 1)))
    tn = int(np.count_nonzero((pred == 0) & (true == 0)))
    fp = int(np.count_nonzero((pred == 1) & (true == 0)))
    fn = int(np.count_nonzero((pred == 0) & (true == 1)))
    accuracy = (tp + tn) / pred.size
    return Evaluation(mcc_from_counts(tp, tn, fp, fn), accuracy, tp, tn, fp, fn)


@dataclass
class OracleResult:
    pair: tuple[str, str]
    mcc: float
    accuracy: float
    confusion: tuple[int, int, int, int]  # tp, tn, fp, fn
    seed: int


def pair_rng(seed: int, class_a: str, class_b: str) -> np.random.Generator:
    """Generator derived from (seed, pair), stable across processes."""
    digest = hashlib.sha256(f"{class_a}\x1f{class_b}".encode()).digest()
    return np.random.default_rng(
        np.random.SeedSequence([seed & 0xFFFFFFFF, int.from_bytes(digest[:8], "big")])
    )


def _stratified_split(
    n_a: int, n_b: int, fraction: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    def split(n: int) -> tuple[np.ndarray, np.ndarray]:
        if n < 2:
            raise TooFewRowsError(f"class with {n} rows cannot be split")
        n_test = min(max(1, round(n * fraction)), n - 1)
        order = rng.permutation(n)
        return order[n_test:], order[:n_test]

    a_train, a_test = split(n_a)
    b_train, b_test = split(n_b)
    return a_train, a_test, b_train, b_test


def run_pair(
    class_a: str,
    class_b: str,
    matrix_a: FeatureMatrix,
    matrix_b: FeatureMatrix,
    cfg: OracleConfig,
) -> OracleResult:
    """Train and score one pair; label 1 is the lexicographically larger class."""
    rng = pair_rng(cfg.seed, class_a, class_b)
    a_train, a_test, b_train, b_test = _stratified_split(
        matrix_a.n_rows, matrix_b.n_rows, cfg.test_fraction, rng
    )
    x_train = np.vstack([matrix_a.values[a_train], matrix_b.values[b_train]])
    y_train = np.concatenate([np.zeros(len(a_train)), np.ones(len(b_train))])
    x_test = np.vstack([matrix_a.values[a_test], matrix_b.values[b_test]])
    y_test = np.concatenate([np.zeros(len(a_test)), np.ones(len(b_test))])

    x_train, x_test, _, _ = standardize(x_train, x_test)
    clf = MlpClassifier(cfg).fit(x_train, y_train, rng=rng)
    ev = evaluate_mcc(clf.predict(x_test), y_test)
    return OracleResult(
        pair=(class_a, class_b),
        mcc=ev.mcc,
        accuracy=ev.accuracy,
        confusion=(ev.tp, ev.tn, ev.fp, ev.fn),
        seed=cfg.seed,
    )


def run_oracle_audit(matrices: dict[str, FeatureMatrix], cfg: OracleConfig) -> list[OracleResult]:
    """One classifier per unordered pair, results in lexicographic pair order."""
    if len(matrices) < 2:
        raise TooFewClassesError(f"need >= 2 classes, got {len(matrices)}")
    labels = sorted(matrices)
    return [
        run_pair(a, b, matrices[a], matrices[b], cfg)
        for a, b in itertools.combinations(labels, 2)
    ]
