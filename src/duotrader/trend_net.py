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


def _forward_stack(weights, biases, x: np.ndarray):
    """Forward pass of S networks at once, caching activations for backprop.
    weights[i] is (S, fan_in, fan_out), biases[i] (S, fan_out) and x
    (S, B, fan_in). Hidden layers ReLU, output linear. Returns (predictions
    (S, B, 1), activations per layer)."""
    activations = [x]
    a = x
    last = len(weights) - 1
    for i, (w, b) in enumerate(zip(weights, biases)):
        z = np.matmul(a, w) + b[:, None, :]
        a = z if i == last else np.maximum(z, 0.0)
        activations.append(a)
    return a, activations


def _gradients_stack(weights, biases, inputs: np.ndarray, targets: np.ndarray):
    """Analytic MSE gradients of S networks, each on its own (B, fan_in)
    batch. Returns (losses (S,), dW list, db list), each with the leading
    network axis. matmul runs one BLAS call per network, so a network gets
    the same bits in any stack."""
    out, activations = _forward_stack(weights, biases, inputs)
    residual = out[:, :, 0] - targets
    losses = np.mean(residual**2, axis=1)
    n = inputs.shape[1]

    delta = (2.0 / n) * residual[:, :, None]
    grad_w = [np.empty(0)] * len(weights)
    grad_b = [np.empty(0)] * len(biases)
    for i in range(len(weights) - 1, -1, -1):
        grad_w[i] = np.matmul(activations[i].transpose(0, 2, 1), delta)
        grad_b[i] = delta.sum(axis=1)
        if i > 0:
            delta = np.matmul(delta, weights[i].transpose(0, 2, 1)) * (activations[i] > 0.0)
    return losses, grad_w, grad_b


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
    batches. Adam's moments start at zero. Returns one entry per network:
    (trained model, per-epoch mean of the batch MSE losses, each evaluated
    before its update), or the TrainingDivergedError naming the update at
    which its loss first became non-finite.
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
    # Parameters and Adam moments (from zero) of network s are row s of an
    # (S, P) array in the params_to_vector layout, so one Adam step is one
    # update of whole arrays; the layer tensors are views into the rows.
    params = np.stack([params_to_vector(m) for m in models])
    ms, vs = np.zeros_like(params), np.zeros_like(params)
    scratch = np.empty((2, *params.shape))
    tensors = _unflatten(params, shapes)
    inputs = np.stack([d.inputs for d in data])
    targets = np.stack([d.targets for d in data])
    rngs = [np.random.default_rng(seed) for seed in seeds]
    picked = np.arange(len(models))[:, None]
    results: list = [None] * len(models)
    epoch_losses = []
    step = 0

    # A diverged network stays in the stack: its row goes non-finite, which
    # no other network reads, and overflow is no error (its loss shows it).
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(config.epochs):
            order = np.stack([rng.permutation(n) for rng in rngs])
            batch_losses = []
            for start in range(0, n, config.batch_size):
                idx = order[:, start : start + config.batch_size]
                losses, grad_w, grad_b = _gradients_stack(
                    tensors[:n_layers], tensors[n_layers:],
                    inputs[picked, idx], targets[picked, idx],
                )
                grads = np.concatenate([g.reshape(len(models), -1) for g in grad_w + grad_b], axis=1)
                step += 1
                for s in np.flatnonzero(~np.isfinite(losses)):
                    results[s] = results[s] or TrainingDivergedError(
                        f"non-finite loss at step {step}"
                    )
                _adam_update(params, grads, ms, vs, step, config.learning_rate, scratch)
                batch_losses.append(losses)
            # One row per network, so each mean sums its losses in the
            # same order as a mean over one network's list.
            epoch_losses.append(np.stack(batch_losses, axis=1).mean(axis=1))

    histories = np.stack(epoch_losses, axis=1)
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
    n_layers = len(models[0].weights)
    x = np.where(finite[:, None], x, 0.0)[:, None, :]
    out, _ = _forward_stack(tensors[:n_layers], tensors[n_layers:], x)
    return [
        TrendForecast(sign_direction(p), abs(p)) if ok else InvalidInputError("input must be finite")
        for p, ok in zip(out[:, 0, 0].tolist(), finite)
    ]


def params_to_vector(model: MlpModel) -> np.ndarray:
    """Flatten weights then biases, layer by layer."""
    return np.concatenate([t.ravel() for t in model.weights + model.biases])
