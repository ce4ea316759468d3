"""Validation oracle: small binary MLPs scored with Matthews correlation.

One classifier per unordered class pair checks that the separability
audit's predictions show up in an actual learner. Everything is
deterministic for a fixed seed: each pair derives its own generator from
(seed, sha256(pair)), so no pair's draws depend on the pairs before it.

A classifier is its parameter dict: ``train_stack`` returns one per pair
and ``predict`` labels rows with it. ``run_oracle_audit`` splits every
pair first, then trains the pairs whose training sets have the same shape
in stacks (``train_stack``): each mini-batch step is one gather and a few
stacked ``(P, n, d) @ (P, d, h)`` matmuls for all P pairs. A group of such
pairs becomes the fewest near-equal stacks whose training state fits
``STACK_BYTES``. numpy multiplies a stack slice by slice with the same
kernel as a lone matrix, so each pair gets the bits it would get alone,
in a stack of one, whatever its stack.
Each pair's test predictions are counted with ``confusion`` into its one
``OracleResult``.

Architecture: one rectified hidden layer, a single logistic output,
cross-entropy on logits, plain mini-batch gradient descent with a fixed
learning rate. Weights start uniform in [-1/sqrt(fan_in), +1/sqrt(fan_in)];
biases start at zero.
"""

import hashlib
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .config import JsonConfig
from .errors import (
    EmptyTrainingSetError,
    InvalidSpecError,
    LengthMismatchError,
    TooFewClassesError,
    TooFewRowsError,
)
from .features import FeatureMatrix

# Indices per chunk of epoch orders that train_stack draws at once: 62.5 KiB
# of int64, below the 64 KiB from which glibc's free() may trim the heap.
ORDER_CHUNK_INDICES = 8000

# Bytes of training state per stack, counted by _pair_state_bytes: the 2 MiB
# L2 cache of one core of the x86 machine this was tuned on. 15 pairs of 26
# rows at 108 columns (~3 MB) train as stacks of 8 and 7 and lower the peak
# RSS; at 1 MiB, 10 pairs of 54 rows at 72 columns split too, and were no faster.
STACK_BYTES = 1 << 21


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


def standardize(train: np.ndarray, test: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Z-score both splits with train statistics only: (train_z, test_z).

    Each column of both splits is first scaled by the power of two that
    puts its largest train magnitude in [0.5, 1). That is exact and keeps
    the z-scores, and a column scaled by 2**k scales to the same column,
    so its variance neither overflows nor underflows with k. Columns
    constant in train map to exactly 0 in both splits.
    """
    train = np.asarray(train, dtype=float)
    test = np.asarray(test, dtype=float)
    if train.shape[0] == 0:
        raise EmptyTrainingSetError("standardize needs a nonempty training split")
    shift = -np.frexp(np.abs(train).max(axis=0))[1]
    train, test = np.ldexp(train, shift), np.ldexp(test, shift)
    center, spread = train.mean(axis=0), train.std(axis=0)
    dead = spread == 0.0
    scale = np.where(spread > 0.0, spread, 1.0)
    train_z = (train - center) / scale
    test_z = (test - center) / scale
    train_z[:, dead] = 0.0
    test_z[:, dead] = 0.0
    return train_z, test_z


# quoted: evaluating np.random would import numpy.random along with this module
def init_params(n_in: int, n_hidden: int, rng: "np.random.Generator") -> dict[str, np.ndarray]:
    lim1 = 1.0 / math.sqrt(n_in)
    lim2 = 1.0 / math.sqrt(n_hidden)
    return {
        "w1": rng.uniform(-lim1, lim1, size=(n_in, n_hidden)),
        "b1": np.zeros(n_hidden),
        "w2": rng.uniform(-lim2, lim2, size=(n_hidden, 1)),
        "b2": np.zeros(1),
    }


# numpy's ufuncs copy a broadcast operand into a buffer of up to 64 KiB per
# call; an assignment broadcasts without one. So _forward and gradients
# first assign a broadcast term into an array of the result's shape.
def _workspace(out: dict[str, np.ndarray], key: str, like: np.ndarray) -> np.ndarray:
    return out[key] if key in out else np.empty_like(like)


def _forward(params: dict[str, np.ndarray], x: np.ndarray, out: dict[str, np.ndarray]):
    pre = np.matmul(x, params["w1"], out=out.get("pre"))
    hidden = _workspace(out, "hidden", pre)
    np.copyto(hidden, params["b1"][..., None, :])
    np.add(pre, hidden, out=pre)
    np.maximum(pre, 0.0, out=hidden)
    logits = (hidden @ params["w2"])[..., 0] + params["b2"]
    return pre, hidden, logits


def mean_loss(params: dict[str, np.ndarray], x: np.ndarray, y: np.ndarray) -> float:
    """Mean cross-entropy on logits: softplus(z) - y*z."""
    _, _, logits = _forward(params, x, {})
    return float(np.mean(np.logaddexp(0.0, logits) - y * logits))


def gradients(
    params: dict[str, np.ndarray],
    x: np.ndarray,
    y: np.ndarray,
    out: dict[str, np.ndarray] | None = None,
) -> dict[str, np.ndarray]:
    """Analytic gradients of the mean cross-entropy w.r.t. every parameter.

    Also takes a stack: parameters and rows with a leading pair axis give
    each pair's gradients, bitwise equal to that pair's own call. ``out``
    may hold arrays named "pre", "hidden", "dpre", "mask" (bool) and "w1"
    of the right shapes; every step-sized result is then written there.
    """
    out = out or {}
    pre, hidden, logits = _forward(params, x, out)
    n = x.shape[-2]
    prob = 1.0 / (1.0 + np.exp(-logits))
    dlogits = (prob - y) / n
    grad_w2 = hidden.swapaxes(-1, -2) @ dlogits[..., None]
    grad_b2 = dlogits.sum(axis=-1, keepdims=True)
    # hidden is spent: it holds the broadcast dlogits, then the ReLU mask as 1.0/0.0
    dpre = _workspace(out, "dpre", pre)
    np.copyto(hidden, dlogits[..., None])
    np.copyto(dpre, params["w2"][..., None, :, 0])
    np.multiply(hidden, dpre, out=dpre)
    np.copyto(hidden, np.greater(pre, 0.0, out=out.get("mask")))
    np.multiply(dpre, hidden, out=dpre)
    grad_w1 = np.matmul(x.swapaxes(-1, -2), dpre, out=out.get("w1"))
    grad_b1 = dpre.sum(axis=-2)
    return {"w1": grad_w1, "b1": grad_b1, "w2": grad_w2, "b2": grad_b2}


def train_stack(
    x: np.ndarray, y: np.ndarray, cfg: OracleConfig, rngs: "list[np.random.Generator]"
) -> list[dict[str, np.ndarray]]:
    """Train P classifiers at once on ``x`` (P, n, d) and ``y`` (P, n).

    Classifier p draws its initial weights, then one permutation per epoch,
    from ``rngs[p]`` alone, and each of its steps is the same arithmetic on
    its own slice as a lone run: the result is bitwise that of a stack of
    one on (x[p], y[p], rngs[p]). The parameters may have diverged; see
    ``_check_converged``.

    The permutations are drawn a chunk of epochs at a time: one
    ``permuted`` call on e copies of a row of n indices shuffles each copy
    as ``permutation(n)`` shuffles ``arange(n)``, and leaves the generator
    in the state e such calls leave. A chunk holds at most
    ``ORDER_CHUNK_INDICES`` indices of all P classifiers, or else one epoch.
    """
    stack, n, d = x.shape
    hidden = cfg.hidden_units
    inits = [init_params(d, hidden, rng) for rng in rngs]
    # popped, so no pair's initial weights outlive their stacked copy
    params = {key: np.stack([p.pop(key) for p in inits]) for key in list(inits[0])}
    flat_x = x.reshape(stack * n, d)
    flat_y = y.reshape(stack * n)
    bs = cfg.batch_size
    lr = cfg.learning_rate
    # The step's large arrays are allocated once, and a shorter last batch
    # uses the first elements of each, as a contiguous (P, rows, width)
    # array: on strided arrays the ufuncs buffer. Freed and allocated anew at
    # every step, these arrays made glibc give the heap top back and fault
    # it in again, which took longer than the arithmetic.
    rows = min(bs, n)
    widths = {"x": d, "pre": hidden, "hidden": hidden, "dpre": hidden, "mask": hidden}
    work = {
        key: np.empty(stack * rows * width, dtype=bool if key == "mask" else float)
        for key, width in widths.items()
    }
    grad_w1 = np.empty((stack, d, hidden))
    views = {
        size: {
            key: buf[: stack * size * widths[key]].reshape(stack, size, widths[key])
            for key, buf in work.items()
        }
        | {"w1": grad_w1}
        for size in {min(bs, n - start) for start in range(0, n, bs)}
    }
    # orders[e, p]: pair p's rows of flat_x in epoch e of the chunk
    chunk = max(1, ORDER_CHUNK_INDICES // (stack * n))
    orders = np.empty((min(chunk, cfg.epochs), stack, n), dtype=np.int64)
    pair_rows = np.arange(stack * n).reshape(stack, n)
    # a step too large overflows the parameters; _check_converged refuses that run
    with np.errstate(over="ignore", invalid="ignore"):
        for first in range(0, cfg.epochs, chunk):
            drawn = orders[: cfg.epochs - first]  # the last chunk may be shorter
            for p, rng in enumerate(rngs):
                rows_p = np.broadcast_to(pair_rows[p], drawn[:, p].shape)
                rng.permuted(rows_p, axis=1, out=drawn[:, p])
            for order in drawn:
                for start in range(0, n, bs):
                    idx = order[:, start : start + bs]
                    out = views[idx.shape[1]]
                    # every index is in range; "clip" only skips the copy "raise" makes
                    batch = np.take(flat_x, idx, axis=0, out=out["x"], mode="clip")
                    for key, grad in gradients(params, batch, flat_y[idx], out).items():
                        grad *= lr
                        params[key] -= grad
    return [{key: value[p] for key, value in params.items()} for p in range(stack)]


def _pair_state_bytes(n: int, d: int, cfg: OracleConfig) -> int:
    """Bytes ``train_stack`` allocates per pair on n training rows of d
    columns: w1 and its gradient, the rows, a batch of them and the three
    float64 step buffers, and the bool mask."""
    h = cfg.hidden_units
    r = min(cfg.batch_size, n)
    return 8 * (2 * d * h + n * d + r * d + 3 * r * h) + r * h


def _check_converged(
    params: dict[str, np.ndarray], x: np.ndarray, y: np.ndarray, lr: float
) -> None:
    """Refuse parameters that overflowed, naming the learning rate."""
    with np.errstate(over="ignore", invalid="ignore"):
        final_loss = mean_loss(params, x, y)
    if not (math.isfinite(final_loss) and all(np.isfinite(p).all() for p in params.values())):
        raise InvalidSpecError(
            f"learning_rate {lr!r} makes training diverge: the final loss is "
            f"{final_loss}; use a smaller learning_rate"
        )


def predict(params: dict[str, np.ndarray], x: np.ndarray) -> np.ndarray:
    """Label 1 where the logit is nonnegative, else 0."""
    _, _, logits = _forward(params, np.asarray(x, dtype=float), {})
    return (logits >= 0.0).astype(int)


def mcc_from_counts(tp: int, tn: int, fp: int, fn: int) -> float:
    """Matthews correlation; any zero factor in the denominator yields 0."""
    denom = (tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)
    if denom == 0:
        return 0.0
    return float((tp * tn - fp * fn) / math.sqrt(denom))


def confusion(predictions: np.ndarray, truth: np.ndarray) -> tuple[int, int, int, int]:
    """(tp, tn, fp, fn) of binary predictions against the truth."""
    pred = np.asarray(predictions).astype(int)
    true = np.asarray(truth).astype(int)
    if pred.shape != true.shape or pred.size == 0:
        raise LengthMismatchError(
            f"predictions ({pred.size}) and truth ({true.size}) must be equal-length and nonempty"
        )
    return (
        int(np.count_nonzero((pred == 1) & (true == 1))),
        int(np.count_nonzero((pred == 0) & (true == 0))),
        int(np.count_nonzero((pred == 1) & (true == 0))),
        int(np.count_nonzero((pred == 0) & (true == 1))),
    )


@dataclass
class OracleResult:
    pair: tuple[str, str]
    mcc: float
    accuracy: float
    confusion: tuple[int, int, int, int]  # tp, tn, fp, fn
    seed: int


def pair_rng(seed: int, class_a: str, class_b: str) -> "np.random.Generator":
    """Generator derived from (seed, pair), stable across processes. Every
    nonnegative seed gives its own stream."""
    digest = hashlib.sha256(f"{class_a}\x1f{class_b}".encode()).digest()
    return np.random.default_rng(
        np.random.SeedSequence([seed, int.from_bytes(digest[:8], "big")])
    )


def _stratified_split(
    n_a: int, n_b: int, fraction: float, rng: "np.random.Generator"
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Each class's rows in a random order, cut into train and test indices.

    A class of n rows puts ``round(n * fraction)`` of them, at least one
    and at most n - 1, in its test set. That is Python's ``round``, half
    to even: n = 10 at a fraction of 0.25 gives 2 test rows, not 3.
    (Segmentation rounds its stride with ``ingest.round_half_up``.)
    """

    def split(n: int) -> tuple[np.ndarray, np.ndarray]:
        if n < 2:
            raise TooFewRowsError(f"class with {n} rows cannot be split")
        n_test = min(max(1, round(n * fraction)), n - 1)
        order = rng.permutation(n)
        return order[n_test:], order[:n_test]

    a_train, a_test = split(n_a)
    b_train, b_test = split(n_b)
    return a_train, a_test, b_train, b_test


@dataclass(eq=False)
class _PairSplit:
    pair: tuple[str, str]
    rng: "np.random.Generator"
    x_train: np.ndarray
    y_train: np.ndarray
    x_test: np.ndarray
    y_test: np.ndarray


def _split_pair(
    class_a: str, class_b: str, matrix_a: FeatureMatrix, matrix_b: FeatureMatrix, cfg: OracleConfig
) -> _PairSplit:
    """The pair's standardised split; label 1 is the lexicographically larger class."""
    rng = pair_rng(cfg.seed, class_a, class_b)
    a_train, a_test, b_train, b_test = _stratified_split(
        matrix_a.n_rows, matrix_b.n_rows, cfg.test_fraction, rng
    )
    x_train = np.vstack([matrix_a.values[a_train], matrix_b.values[b_train]])
    y_train = np.concatenate([np.zeros(len(a_train)), np.ones(len(b_train))])
    x_test = np.vstack([matrix_a.values[a_test], matrix_b.values[b_test]])
    y_test = np.concatenate([np.zeros(len(a_test)), np.ones(len(b_test))])
    x_train, x_test = standardize(x_train, x_test)
    return _PairSplit((class_a, class_b), rng, x_train, y_train, x_test, y_test)


def run_oracle_audit(matrices: dict[str, FeatureMatrix], cfg: OracleConfig) -> list[OracleResult]:
    """One classifier per unordered pair, results in lexicographic pair order.

    Every pair is split first, in pair order. The pairs whose training sets
    have the same shape then train in the fewest near-equal stacks
    (``train_stack``) of at most ``STACK_BYTES`` of training state each, or
    of one pair. Each pair gets the bits it gets alone, so the results do
    not depend on the stacks or on which other pairs are audited. A class
    too small to split stops the splits there; when several pairs fail, the
    first pair in lexicographic order decides the error.
    """
    if len(matrices) < 2:
        raise TooFewClassesError(f"need >= 2 classes, got {len(matrices)}")
    splits: list[_PairSplit] = []
    unsplit = None
    for a, b in itertools.combinations(sorted(matrices), 2):
        try:
            splits.append(_split_pair(a, b, matrices[a], matrices[b], cfg))
        except TooFewRowsError as exc:
            unsplit = exc
            break

    groups: dict[tuple[int, int], list[_PairSplit]] = {}
    for split in splits:
        groups.setdefault(split.x_train.shape, []).append(split)
    stacks = []
    for (n, d), group in groups.items():
        fit = max(1, STACK_BYTES // _pair_state_bytes(n, d, cfg))
        count = -(-len(group) // fit)
        bounds = [-(-len(group) * i // count) for i in range(count + 1)]
        stacks += [group[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    params: dict[tuple[str, str], dict[str, np.ndarray]] = {}
    for stack in stacks:
        x = np.stack([split.x_train for split in stack])
        y = np.stack([split.y_train for split in stack])
        for split, x_train in zip(stack, x):
            split.x_train = x_train  # the stack holds the one copy
        trained = train_stack(x, y, cfg, [split.rng for split in stack])
        params.update(zip((split.pair for split in stack), trained))
    for split in splits:
        _check_converged(params[split.pair], split.x_train, split.y_train, cfg.learning_rate)
    if unsplit is not None:
        raise unsplit

    results = []
    for split in splits:
        counts = confusion(predict(params[split.pair], split.x_test), split.y_test)
        tp, tn, _, _ = counts
        results.append(
            OracleResult(
                pair=split.pair,
                mcc=mcc_from_counts(*counts),
                accuracy=(tp + tn) / split.y_test.size,
                confusion=counts,
                seed=cfg.seed,
            )
        )
    return results
