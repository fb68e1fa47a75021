"""Feed-forward trend forecaster over close-price differences.

Fixed architecture 5 -> 10 -> 10 -> 10 -> 5 -> 1 (``LAYER_SIZES``) with ReLU
on every layer except the linear output. Trained with mini-batch Adam on mean
squared error, at Kingma & Ba's default step, decay rates and epsilon; only
the epochs and batch size are configurable (``MlpConfig``).
Inputs and targets are both close-price differences, so the sign of the
output is the directional forecast and the predicted price level is
reconstructible as last close + prediction.

Everything is implemented directly on numpy arrays: forward, backprop, and
the Adam recurrence, so gradients can be checked against finite differences.
A network is one row of parameters (every weight matrix, then every bias,
flattened): ``init_params`` draws a stack of rows, ``train_batch`` trains a
stack in lock-step, ``forecast`` gathers a row for each input row (a network
may serve several), and a single network is a stack of one. Both run
``_Pass``, one forward/backward routine on batch-major buffers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .directions import sign_direction
from .errors import (
    InsufficientDataError,
    InvalidInputError,
    ParameterError,
    TrainingDivergedError,
)

LAYER_SIZES = (5, 10, 10, 10, 5, 1)
INPUT_SIZE = LAYER_SIZES[0]  # close differences per sample
# The layer tensors of a parameter row, in order: every (fan_in, fan_out)
# weight matrix, then every bias.
SHAPES = (*zip(LAYER_SIZES[:-1], LAYER_SIZES[1:]), *((fan_out,) for fan_out in LAYER_SIZES[1:]))
# Adam's step, decay rates and denominator guard (Kingma & Ba's defaults).
ADAM_LEARNING_RATE = 0.001
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class MlpConfig:
    epochs: int = 5
    batch_size: int = 16

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ParameterError("epochs and batch_size must be >= 1")


@dataclass(frozen=True)
class TrainingSet:
    """Sliding windows of consecutive close differences and the next difference."""

    inputs: np.ndarray   # (N, INPUT_SIZE)
    targets: np.ndarray  # (N,)

    def __len__(self) -> int:
        return self.inputs.shape[0]


class TrendForecast(NamedTuple):
    """The predicted close difference's sign and size, as fusion reads them."""

    direction: str
    magnitude: float


def init_params(seeds: Sequence[int]) -> np.ndarray:
    """The (S, P) parameter rows of S networks, row s seeded by ``seeds[s]``:
    uniform +/-sqrt(6/(fan_in+fan_out)) weights, zero biases."""
    params = np.zeros((len(seeds), sum(math.prod(shape) for shape in SHAPES)))
    weights = _unflatten(params, SHAPES)[: len(SHAPES) // 2]
    for s, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        for w in weights:
            fan_in, fan_out = w.shape[1:]
            bound = np.sqrt(6.0 / (fan_in + fan_out))
            w[s] = rng.uniform(-bound, bound, size=(fan_in, fan_out))
    return params


def build_training_set(closes: Sequence[float] | np.ndarray) -> TrainingSet:
    """Each sample is ``INPUT_SIZE`` consecutive close differences; the target
    is the difference that immediately follows. Both are read-only views of
    the differences: the only copy is the one train_batch stacks."""
    closes = np.asarray(closes, dtype=float)
    needed = INPUT_SIZE + 2
    if closes.size < needed:
        raise InsufficientDataError(
            f"need at least {needed} closes for one sample, got {closes.size}"
        )
    diffs = np.diff(closes)
    diffs.flags.writeable = False
    inputs = np.lib.stride_tricks.sliding_window_view(diffs, INPUT_SIZE)[:-1]
    return TrainingSet(inputs, diffs[INPUT_SIZE:])


class _Pass:
    """Forward and backward passes of S networks, each on its own batch of B
    rows, in buffers allocated once. The tensors are the stacked weights
    (S, fan_in, fan_out) then biases (S, fan_out) of every layer.

    Each layer's output, overwritten by its delta in the backward pass, is
    an (S, B, width) view of batch-major (B, S, width) storage: a network's
    (B, width) slice is one BLAS operand (row stride S * width), the bias
    add, ReLU and mask run along contiguous rows, and the bias gradient adds
    the B rows in order, as over a C-ordered array. Layers narrower than 4,
    the output among them, stay C-ordered: numpy adds the output's
    contiguous batch axis pairwise (its bias gradient and the loss), and
    OpenBLAS's vector products change paths for strided vectors and leading
    dimensions below 4. One BLAS call per network: the same bits in any stack.
    """

    def __init__(self, weights, batch: int):
        def storage(width, dtype=float):
            if width < 4:
                return np.empty((len(weights[0]), batch, width), dtype)
            return np.empty((batch, len(weights[0]), width), dtype).transpose(1, 0, 2)

        self.outputs = [storage(w.shape[2]) for w in weights]
        self.masks = [storage(w.shape[2], bool) for w in weights[:-1]]
        self.squares = np.empty((len(weights[0]), batch))

    def forward(self, tensors, x: np.ndarray) -> np.ndarray:
        """Each layer's output for the (S, B, fan_in) inputs x, ReLU on the
        hidden layers; returns the (S, B, 1) predictions."""
        n_layers = len(self.outputs)
        a = x
        for i, out in enumerate(self.outputs):
            a = np.matmul(a, tensors[i], out=out)
            a += tensors[n_layers + i][:, None, :]
            if i < n_layers - 1:
                np.maximum(a, 0.0, out=a)
        return a

    def gradients(self, tensors, x, targets, grads, losses) -> None:
        """MSE of each network on its batch, (S, B, fan_in) inputs x and
        (S, B) targets, into the (S,) losses, and its analytic gradient into
        grads, views laid out as the tensors."""
        n_layers, n = len(self.outputs), x.shape[1]
        residual = self.forward(tensors, x)[:, :, 0]
        residual -= targets
        np.add.reduce(np.square(residual, out=self.squares), axis=1, out=losses)
        losses /= n
        delta = self.outputs[-1]
        delta *= 2.0 / n
        for i in range(n_layers - 1, -1, -1):
            a = self.outputs[i - 1] if i else x
            np.matmul(a.transpose(0, 2, 1), delta, out=grads[i])
            np.add.reduce(delta, axis=1, out=grads[n_layers + i])
            if i:
                mask = np.greater(a, 0.0, out=self.masks[i - 1])
                delta = np.matmul(delta, tensors[i].transpose(0, 2, 1), out=a)
                delta *= mask


def _adam_update(params, grads, m, v, step: int, scratch) -> None:
    """Adam update at ``step`` (counted from 1) of the (S, P) parameters and
    their moments, in place, from the (S, P) gradients, through the two (S, P)
    arrays of ``scratch`` in the order of ``lr * (m / c1) / (sqrt(v / c2) + eps)``."""
    step_size, denom = scratch
    m *= ADAM_BETA1
    m += np.multiply(1.0 - ADAM_BETA1, grads, out=step_size)
    v *= ADAM_BETA2
    v += np.multiply(np.multiply(1.0 - ADAM_BETA2, grads, out=step_size), grads, out=step_size)
    np.divide(m, 1.0 - ADAM_BETA1**step, out=step_size)
    np.multiply(ADAM_LEARNING_RATE, step_size, out=step_size)
    np.sqrt(np.divide(v, 1.0 - ADAM_BETA2**step, out=denom), out=denom)
    denom += ADAM_EPS
    params -= np.divide(step_size, denom, out=step_size)


def _unflatten(flat: np.ndarray, shapes) -> list[np.ndarray]:
    """Views of the rows of an (S, P) array as (S, *shape) tensors, one per
    shape, laid out one after another in each row."""
    views, offset = [], 0
    for shape in shapes:
        size = math.prod(shape)
        views.append(flat[:, offset : offset + size].reshape(flat.shape[0], *shape))
        offset += size
    return views


def train_batch(
    params: np.ndarray,
    data: Sequence[TrainingSet],
    config: MlpConfig,
    seeds: Sequence[int],
) -> tuple[np.ndarray, list[list[float] | TrainingDivergedError]]:
    """Train a copy of the (S, P) parameter rows of S networks in lock-step;
    the arguments are untouched.

    Network s runs ``config.epochs`` passes of mini-batch Adam on
    ``data[s]``, with its own shuffle seeded by ``seeds[s]``, and gets
    exactly the parameters and loss history it gets in a stack of one. The
    training sets must have one length, so that every network takes the same
    batches. Adam's moments start at zero. Every array is allocated once
    per call, a batch's buffers once per batch length. Returns the trained
    rows and one outcome per network: its per-epoch mean of the batch MSE
    losses, each evaluated before its update, or the TrainingDivergedError
    naming the update at which its loss first became non-finite (its row is
    then non-finite).
    """
    params = np.array(params, dtype=float)
    if not (len(params) == len(data) == len(seeds)):
        raise ParameterError("need one training set and one seed per network")
    if not data:
        return params, []
    if len({len(d) for d in data}) != 1:
        raise ParameterError("lock-step training needs training sets of one length")
    n = len(data[0])
    if n == 0:
        raise InsufficientDataError("training set is empty")

    n_layers = len(SHAPES) // 2
    # Gradients and Adam moments (from zero) of network s are row s of (S, P)
    # arrays laid out as the parameters, so one Adam step is one update of
    # whole arrays; the layer tensors are views into the rows.
    grads, ms, vs = np.empty_like(params), np.zeros_like(params), np.zeros_like(params)
    scratch = np.empty((2, *params.shape))
    tensors, grad_tensors = _unflatten(params, SHAPES), _unflatten(grads, SHAPES)
    # Network s's samples start at row s * n of one flat array. Each batch
    # length keeps the inputs and targets one np.take gathers, and a _Pass.
    flat_inputs = np.concatenate([d.inputs for d in data], dtype=float)
    flat_targets = np.concatenate([d.targets for d in data], dtype=float)
    offsets = np.arange(0, len(data) * n, n)[:, None]
    rngs = [np.random.default_rng(seed) for seed in seeds]
    starts = range(0, n, config.batch_size)
    batches = {
        size: (np.empty((len(data), size, flat_inputs.shape[1])), np.empty((len(data), size)),
               _Pass(tensors[:n_layers], size))
        for size in {min(config.batch_size, n), n % config.batch_size} - {0}
    }
    losses = np.empty((len(data), len(starts)))
    histories = np.empty((len(data), config.epochs))
    results: list = [None] * len(data)

    # A diverged network stays in the stack: its row goes non-finite, which
    # no other network reads, and overflow is no error (its loss shows it).
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.epochs):
            order = np.stack([rng.permutation(n) for rng in rngs])
            order += offsets
            for k, start in enumerate(starts):
                idx = order[:, start : start + config.batch_size]
                x, y, step_pass = batches[idx.shape[1]]
                np.take(flat_inputs, idx, axis=0, out=x, mode="clip")
                np.take(flat_targets, idx, out=y, mode="clip")
                step_pass.gradients(tensors, x, y, grad_tensors, losses[:, k])
                step = epoch * len(starts) + k + 1
                _adam_update(params, grads, ms, vs, step, scratch)
            diverged = ~np.isfinite(losses)
            for s in np.flatnonzero(diverged.any(axis=1)):
                first = epoch * len(starts) + int(diverged[s].argmax()) + 1
                results[s] = results[s] or TrainingDivergedError(f"non-finite loss at step {first}")
            # One row per network, so each mean sums its losses in the
            # same order as a mean over one network's list.
            np.mean(losses, axis=1, out=histories[:, epoch])

    return params, [result or histories[s].tolist() for s, result in enumerate(results)]


def forecast(
    params: np.ndarray, rows: Sequence[int], inputs: np.ndarray
) -> list[TrendForecast | InvalidInputError]:
    """Forecast the next close difference of S input rows: row s of the
    (S, INPUT_SIZE) recent close differences through the network of
    parameter row ``rows[s]`` of the (N, P) stack (a network may serve
    several input rows).

    One stacked forward pass over the gathered rows, in which each input row
    is its own batch of one, so a network gets the same bits in any stack.
    Returns S entries: each row's forecast, or an InvalidInputError for a
    non-finite row.
    """
    x = np.asarray(inputs, dtype=float)
    if x.shape != (len(rows), INPUT_SIZE):
        raise InvalidInputError(f"expected one row of {INPUT_SIZE} inputs per row, got {x.shape}")
    finite = np.isfinite(x).all(axis=1)
    tensors = _unflatten(np.take(params, rows, axis=0), SHAPES)
    x = np.where(finite[:, None], x, 0.0)[:, None, :]
    out = _Pass(tensors[: len(tensors) // 2], 1).forward(tensors, x)
    return [
        TrendForecast(sign_direction(p), abs(p)) if ok else InvalidInputError("input must be finite")
        for p, ok in zip(out[:, 0, 0].tolist(), finite)
    ]
