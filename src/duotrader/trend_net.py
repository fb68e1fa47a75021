"""Feed-forward trend forecaster over close-price differences.

Fixed architecture 5 -> 10 -> 10 -> 10 -> 5 -> 1 with ReLU on every layer
except the linear output. Trained with mini-batch Adam on mean squared error.
Inputs and targets are both close-price differences, so the sign of the
output is the directional forecast and the predicted price level is
reconstructible as last close + prediction.

Everything is implemented directly on numpy arrays: forward, backprop, and
the Adam recurrence, so gradients can be checked against finite differences.
Each routine works on a stack of networks with a leading network axis;
``train_batch`` trains a stack in lock-step, ``forecast`` runs each network
of a stack on its own input row, and a single network is a stack of one.
Both run ``_Pass``, one forward/backward routine on batch-major buffers.
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
# Adam's decay rates and denominator guard (Kingma & Ba's defaults).
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class MlpConfig:
    layer_sizes: tuple[int, ...] = LAYER_SIZES
    learning_rate: float = 0.001
    epochs: int = 5
    batch_size: int = 16

    def __post_init__(self):
        if len(self.layer_sizes) < 2 or any(s < 1 for s in self.layer_sizes):
            raise ParameterError("layer_sizes must be at least two positive sizes")
        if self.layer_sizes[-1] != 1:
            raise ParameterError(f"layer_sizes must end in 1, the forecast, got {self.layer_sizes}")
        if self.learning_rate <= 0:
            raise ParameterError("learning_rate must be > 0")
        if self.epochs < 1 or self.batch_size < 1:
            raise ParameterError("epochs and batch_size must be >= 1")

    @property
    def input_size(self) -> int:
        return self.layer_sizes[0]


@dataclass
class MlpModel:
    """Layer parameters."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]

    @property
    def input_size(self) -> int:
        return self.weights[0].shape[0]


@dataclass(frozen=True)
class TrainingSet:
    """Sliding windows of consecutive close differences and the next difference."""

    inputs: np.ndarray   # (N, window)
    targets: np.ndarray  # (N,)

    def __len__(self) -> int:
        return self.inputs.shape[0]


class TrendForecast(NamedTuple):
    """The predicted close difference's sign and size, as fusion reads them."""

    direction: str
    magnitude: float


def init_model(config: MlpConfig, seed: int) -> MlpModel:
    """Seeded init: uniform +/-sqrt(6/(fan_in+fan_out)) weights, zero biases."""
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(config.layer_sizes[:-1], config.layer_sizes[1:]):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return MlpModel(weights, biases)


def build_training_set(closes: Sequence[float] | np.ndarray, window: int = 5) -> TrainingSet:
    """Each sample is ``window`` consecutive close differences; the target is
    the difference that immediately follows. Both are read-only views of the
    differences: the only copy is the one train_batch stacks."""
    closes = np.asarray(closes, dtype=float)
    needed = window + 2
    if closes.size < needed:
        raise InsufficientDataError(
            f"need at least {needed} closes for one sample, got {closes.size}"
        )
    diffs = np.diff(closes)
    diffs.flags.writeable = False
    inputs = np.lib.stride_tricks.sliding_window_view(diffs, window)[:-1]
    return TrainingSet(inputs, diffs[window:])


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


def _adam_update(params, grads, m, v, step: int, learning_rate: float, scratch) -> None:
    """Adam update at ``step`` (counted from 1) of the (S, P) parameters and
    their moments, in place, from the (S, P) gradients, through the two (S, P)
    arrays of ``scratch`` in the order of ``lr * (m / c1) / (sqrt(v / c2) + eps)``."""
    step_size, denom = scratch
    m *= ADAM_BETA1
    m += np.multiply(1.0 - ADAM_BETA1, grads, out=step_size)
    v *= ADAM_BETA2
    v += np.multiply(np.multiply(1.0 - ADAM_BETA2, grads, out=step_size), grads, out=step_size)
    np.multiply(learning_rate, np.divide(m, 1.0 - ADAM_BETA1**step, out=step_size), out=step_size)
    np.sqrt(np.divide(v, 1.0 - ADAM_BETA2**step, out=denom), out=denom)
    denom += ADAM_EPS
    params -= np.divide(step_size, denom, out=step_size)


def _unflatten(flat: np.ndarray, shapes) -> list[np.ndarray]:
    """Views of the rows of an (S, P) array as (S, *shape) tensors, in the
    layout of params_to_vector."""
    views, offset = [], 0
    for shape in shapes:
        size = math.prod(shape)
        views.append(flat[:, offset : offset + size].reshape(flat.shape[0], *shape))
        offset += size
    return views


def train_batch(
    models: Sequence[MlpModel],
    data: Sequence[TrainingSet],
    config: MlpConfig,
    seeds: Sequence[int],
) -> list[tuple[MlpModel, list[float]] | TrainingDivergedError]:
    """Train copies of S networks in lock-step; the arguments are untouched.

    Network s runs ``config.epochs`` passes of mini-batch Adam on
    ``data[s]``, with its own shuffle seeded by ``seeds[s]``, and gets
    exactly the model and loss history it gets in a stack of one. The
    training sets must have one length, so that every network takes the same
    batches. Adam's moments start at zero. Every array is allocated once
    per call, a batch's buffers once per batch length. Returns one entry per
    network: (trained model, per-epoch mean of the batch MSE losses, each
    evaluated before its update), or the TrainingDivergedError naming the
    update at which its loss first became non-finite.
    """
    if not (len(models) == len(data) == len(seeds)):
        raise ParameterError("need one training set and one seed per model")
    if not models:
        return []
    if len({len(d) for d in data}) != 1:
        raise ParameterError("lock-step training needs training sets of one length")
    n = len(data[0])
    if n == 0:
        raise InsufficientDataError("training set is empty")

    n_layers = len(models[0].weights)
    shapes = [t.shape for t in models[0].weights + models[0].biases]
    # Parameters, gradients and Adam moments (from zero) of network s are row
    # s of an (S, P) array in the params_to_vector layout, so one Adam step is
    # one update of whole arrays; the layer tensors are views into the rows.
    params = np.stack([params_to_vector(m) for m in models])
    grads, ms, vs = np.empty_like(params), np.zeros_like(params), np.zeros_like(params)
    scratch = np.empty((2, *params.shape))
    tensors, grad_tensors = _unflatten(params, shapes), _unflatten(grads, shapes)
    # Network s's samples start at row s * n of one flat array. Each batch
    # length keeps the inputs and targets one np.take gathers, and a _Pass.
    flat_inputs = np.concatenate([d.inputs for d in data], dtype=float)
    flat_targets = np.concatenate([d.targets for d in data], dtype=float)
    offsets = np.arange(0, len(models) * n, n)[:, None]
    rngs = [np.random.default_rng(seed) for seed in seeds]
    starts = range(0, n, config.batch_size)
    batches = {
        size: (np.empty((len(models), size, flat_inputs.shape[1])), np.empty((len(models), size)),
               _Pass(tensors[:n_layers], size))
        for size in {min(config.batch_size, n), n % config.batch_size} - {0}
    }
    losses = np.empty((len(models), len(starts)))
    histories = np.empty((len(models), config.epochs))
    results: list = [None] * len(models)

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
                _adam_update(params, grads, ms, vs, step, config.learning_rate, scratch)
            diverged = ~np.isfinite(losses)
            for s in np.flatnonzero(diverged.any(axis=1)):
                first = epoch * len(starts) + int(diverged[s].argmax()) + 1
                results[s] = results[s] or TrainingDivergedError(f"non-finite loss at step {first}")
            # One row per network, so each mean sums its losses in the
            # same order as a mean over one network's list.
            np.mean(losses, axis=1, out=histories[:, epoch])

    return [
        result or (
            MlpModel([t[s] for t in tensors[:n_layers]], [t[s] for t in tensors[n_layers:]]),
            histories[s].tolist(),
        )
        for s, result in enumerate(results)
    ]


def forecast(
    models: Sequence[MlpModel], inputs: np.ndarray
) -> list[TrendForecast | InvalidInputError]:
    """Forecast the next close difference of S networks, each from its row of
    the (S, input_size) recent close differences.

    One stacked forward pass in which each network's row is its own batch of
    one, so a network gets the same bits in any stack. Returns S entries:
    each network's forecast, or an InvalidInputError for a non-finite row.
    """
    x = np.asarray(inputs, dtype=float)
    if not models and x.size == 0:
        return []
    if not models or x.shape != (len(models), models[0].input_size):
        raise InvalidInputError(f"expected one row of input_size inputs per model, got {x.shape}")
    finite = np.isfinite(x).all(axis=1)
    tensors = [np.stack(t) for t in zip(*(m.weights + m.biases for m in models))]
    x = np.where(finite[:, None], x, 0.0)[:, None, :]
    out = _Pass(tensors[: len(models[0].weights)], 1).forward(tensors, x)
    return [
        TrendForecast(sign_direction(p), abs(p)) if ok else InvalidInputError("input must be finite")
        for p, ok in zip(out[:, 0, 0].tolist(), finite)
    ]


def params_to_vector(model: MlpModel) -> np.ndarray:
    """Flatten weights then biases, layer by layer."""
    return np.concatenate([t.ravel() for t in model.weights + model.biases])
