"""Feed-forward trend forecaster over close-price differences.

Fixed architecture 5 -> 10 -> 10 -> 10 -> 5 -> 1 with ReLU on every layer
except the linear output. Trained with mini-batch Adam on mean squared error.
Inputs and targets are both close-price differences, so the sign of the
output is the directional forecast and the predicted price level is
reconstructible as last close + prediction.

Everything is implemented directly on numpy arrays: forward, backprop, and
the Adam recurrence, so gradients can be checked against finite differences.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .directions import sign_direction
from .errors import (
    InsufficientDataError,
    InvalidInputError,
    ParameterError,
    TrainingDivergedError,
)

LAYER_SIZES = (5, 10, 10, 10, 5, 1)


@dataclass
class MlpConfig:
    layer_sizes: tuple[int, ...] = LAYER_SIZES
    learning_rate: float = 0.001
    epochs: int = 5
    batch_size: int = 16
    seed: int = 0
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8

    def __post_init__(self):
        if len(self.layer_sizes) < 2 or any(s < 1 for s in self.layer_sizes):
            raise ParameterError("layer_sizes must be at least two positive sizes")
        if self.learning_rate <= 0:
            raise ParameterError("learning_rate must be > 0")
        if self.epochs < 1 or self.batch_size < 1:
            raise ParameterError("epochs and batch_size must be >= 1")

    @property
    def input_size(self) -> int:
        return self.layer_sizes[0]


@dataclass
class MlpModel:
    """Layer parameters plus Adam moment state (one moment pair per tensor)."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    m_weights: list[np.ndarray]
    v_weights: list[np.ndarray]
    m_biases: list[np.ndarray]
    v_biases: list[np.ndarray]
    step: int = 0

    @property
    def input_size(self) -> int:
        return self.weights[0].shape[0]

    def copy(self) -> "MlpModel":
        return MlpModel(
            weights=[w.copy() for w in self.weights],
            biases=[b.copy() for b in self.biases],
            m_weights=[m.copy() for m in self.m_weights],
            v_weights=[v.copy() for v in self.v_weights],
            m_biases=[m.copy() for m in self.m_biases],
            v_biases=[v.copy() for v in self.v_biases],
            step=self.step,
        )

    def to_dict(self) -> dict:
        return {
            "layer_sizes": [self.weights[0].shape[0]] + [w.shape[1] for w in self.weights],
            "weights": [w.tolist() for w in self.weights],
            "biases": [b.tolist() for b in self.biases],
            "step": self.step,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


@dataclass(frozen=True)
class TrainingSet:
    """Sliding windows of consecutive close differences and the next difference."""

    inputs: np.ndarray   # (N, window)
    targets: np.ndarray  # (N,)

    def __len__(self) -> int:
        return self.inputs.shape[0]


@dataclass(frozen=True)
class TrendForecast:
    predicted_diff: float
    direction: str
    magnitude: float


def init_model(config: MlpConfig) -> MlpModel:
    """Seeded init: uniform +/-sqrt(6/(fan_in+fan_out)) weights, zero biases."""
    rng = np.random.default_rng(config.seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(config.layer_sizes[:-1], config.layer_sizes[1:]):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return MlpModel(
        weights=weights,
        biases=biases,
        m_weights=[np.zeros_like(w) for w in weights],
        v_weights=[np.zeros_like(w) for w in weights],
        m_biases=[np.zeros_like(b) for b in biases],
        v_biases=[np.zeros_like(b) for b in biases],
    )


def build_training_set(closes: Sequence[float] | np.ndarray, window: int = 5) -> TrainingSet:
    """Each sample is ``window`` consecutive close differences; the target is
    the difference that immediately follows."""
    closes = np.asarray(closes, dtype=float)
    needed = window + 2
    if closes.size < needed:
        raise InsufficientDataError(
            f"need at least {needed} closes for one sample, got {closes.size}"
        )
    diffs = np.diff(closes)
    n_samples = diffs.size - window
    inputs = np.empty((n_samples, window))
    for i in range(n_samples):
        inputs[i] = diffs[i : i + window]
    targets = diffs[window:].copy()
    return TrainingSet(inputs, targets)


def _forward_batch(model: MlpModel, x: np.ndarray):
    """Forward pass caching activations for backprop. Hidden layers ReLU,
    output linear. Returns (prediction column, activations per layer)."""
    activations = [x]
    a = x
    last = len(model.weights) - 1
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = a @ w + b
        a = z if i == last else np.maximum(z, 0.0)
        activations.append(a)
    return a, activations


def forward(model: MlpModel, x: Sequence[float] | np.ndarray) -> float:
    """Scalar prediction for a single input vector."""
    x = np.asarray(x, dtype=float)
    if x.shape != (model.input_size,):
        raise InvalidInputError(f"expected input of shape ({model.input_size},)")
    if not np.all(np.isfinite(x)):
        raise InvalidInputError("input must be finite")
    out, _ = _forward_batch(model, x[None, :])
    return float(out[0, 0])


def gradients(model: MlpModel, inputs: np.ndarray, targets: np.ndarray):
    """Analytic MSE gradients for a batch. Returns (loss, dW list, db list)."""
    out, activations = _forward_batch(model, inputs)
    residual = out[:, 0] - targets
    loss = float(np.mean(residual**2))
    n = inputs.shape[0]

    delta = (2.0 / n) * residual[:, None]
    grad_w = [np.empty(0)] * len(model.weights)
    grad_b = [np.empty(0)] * len(model.biases)
    for i in range(len(model.weights) - 1, -1, -1):
        grad_w[i] = activations[i].T @ delta
        grad_b[i] = delta.sum(axis=0)
        if i > 0:
            delta = (delta @ model.weights[i].T) * (activations[i] > 0.0)
    return loss, grad_w, grad_b


def adam_step(model: MlpModel, grad_w, grad_b, config: MlpConfig) -> None:
    """One Adam update over every parameter tensor, in place."""
    model.step += 1
    b1, b2, eps = config.adam_beta1, config.adam_beta2, config.adam_eps
    corr1 = 1.0 - b1**model.step
    corr2 = 1.0 - b2**model.step
    for params, grads, ms, vs in (
        (model.weights, grad_w, model.m_weights, model.v_weights),
        (model.biases, grad_b, model.m_biases, model.v_biases),
    ):
        for p, g, m, v in zip(params, grads, ms, vs):
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            p -= config.learning_rate * (m / corr1) / (np.sqrt(v / corr2) + eps)


def dataset_mse(model: MlpModel, data: TrainingSet) -> float:
    out, _ = _forward_batch(model, data.inputs)
    return float(np.mean((out[:, 0] - data.targets) ** 2))


def train(model: MlpModel, data: TrainingSet, config: MlpConfig) -> tuple[MlpModel, list[float]]:
    """Train a copy of the model; the argument is left untouched.

    Runs ``epochs`` passes of mini-batch Adam with a seeded shuffle. Returns
    the trained model and the per-epoch mean of the batch MSE losses (each
    batch loss evaluated before its update).
    """
    if len(data) == 0:
        raise InsufficientDataError("training set is empty")
    model = model.copy()

    inputs, targets = data.inputs, data.targets

    rng = np.random.default_rng(config.seed)
    n = inputs.shape[0]
    history: list[float] = []
    # Overflow surfaces as a non-finite batch loss, raised as divergence.
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(config.epochs):
            order = rng.permutation(n)
            batch_losses = []
            for start in range(0, n, config.batch_size):
                idx = order[start : start + config.batch_size]
                loss, grad_w, grad_b = gradients(model, inputs[idx], targets[idx])
                if not np.isfinite(loss):
                    raise TrainingDivergedError(f"non-finite loss at step {model.step + 1}")
                adam_step(model, grad_w, grad_b, config)
                batch_losses.append(loss)
            history.append(float(np.mean(batch_losses)))
    return model, history


def predict_direction(model: MlpModel, recent_diffs: Sequence[float] | np.ndarray) -> TrendForecast:
    """Forecast the next close difference from the most recent window of diffs."""
    recent = np.asarray(recent_diffs, dtype=float)
    if recent.shape != (model.input_size,):
        raise InsufficientDataError(
            f"need exactly {model.input_size} recent close differences"
        )
    pred = forward(model, recent)
    return TrendForecast(pred, sign_direction(pred), abs(pred))


def params_to_vector(model: MlpModel) -> np.ndarray:
    """Flatten weights then biases, layer by layer (for gradient checks)."""
    parts = [w.ravel() for w in model.weights] + [b.ravel() for b in model.biases]
    return np.concatenate(parts)


def vector_to_params(model: MlpModel, vector: np.ndarray) -> None:
    """Inverse of params_to_vector, writing into the model in place."""
    offset = 0
    for w in model.weights:
        w[...] = vector[offset : offset + w.size].reshape(w.shape)
        offset += w.size
    for b in model.biases:
        b[...] = vector[offset : offset + b.size].reshape(b.shape)
        offset += b.size
    if offset != vector.size:
        raise InvalidInputError("parameter vector has the wrong length")
