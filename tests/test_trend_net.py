import math
from typing import Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from duotrader.directions import sign_direction
from duotrader.errors import (
    InsufficientDataError,
    InvalidInputError,
    ParameterError,
    TrainingDivergedError,
)
from duotrader.trend_net import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    LAYER_SIZES,
    MlpConfig,
    MlpModel,
    TrainingSet,
    TrendForecast,
    _Pass,
    _adam_update,
    _unflatten,
    build_training_set,
    forecast,
    init_model,
    params_to_vector,
    train_batch,
)


def assert_same_training(got, want):
    """Bit-for-bit equality of weights, biases and losses."""
    (got_model, got_history), (want_model, want_history) = got, want
    assert got_history == want_history
    for name in ("weights", "biases"):
        for a, b in zip(getattr(got_model, name), getattr(want_model, name)):
            assert np.array_equal(a, b)


def random_walk_set(seed, n_closes=90, scale=1.0):
    rng = np.random.default_rng(seed)
    return build_training_set(scale * (50.0 + np.cumsum(rng.normal(0, 1, n_closes))))


def train_one(model, data, config, seed):
    """train_batch on a stack of one network: (model, history) or the error."""
    (result,) = train_batch([model], [data], config, [seed])
    return result


def param_row(model):
    """The network's parameters as a (1, P) row, and its layer shapes."""
    return params_to_vector(model)[None], [t.shape for t in model.weights + model.biases]


def loss_and_gradient(row, shapes, x, y):
    """MSE loss and flat analytic gradient of the network whose parameters
    are the (1, P) row, read and written through the _unflatten views
    train_batch uses."""
    grad_row, losses = np.empty_like(row), np.empty(1)
    views = _unflatten(row, shapes)
    _Pass(views[: len(shapes) // 2], len(x)).gradients(
        views, x[None], y[None], _unflatten(grad_row, shapes), losses
    )
    return float(losses[0]), grad_row[0]


def reference_adam_update(params, grads, m, v, step, learning_rate):
    """``_adam_update`` as it was before it ran in scratch arrays, kept
    verbatim as the reference."""
    m *= ADAM_BETA1
    m += (1.0 - ADAM_BETA1) * grads
    v *= ADAM_BETA2
    v += (1.0 - ADAM_BETA2) * grads * grads
    corr1 = 1.0 - ADAM_BETA1**step
    corr2 = 1.0 - ADAM_BETA2**step
    params -= learning_rate * (m / corr1) / (np.sqrt(v / corr2) + ADAM_EPS)


def reference_training_set(closes, window=5):
    """``build_training_set`` as it was when it copied its samples, kept
    verbatim as the reference."""
    closes = np.asarray(closes, dtype=float)
    diffs = np.diff(closes)
    inputs = np.lib.stride_tricks.sliding_window_view(diffs, window)[:-1].copy()
    targets = diffs[window:].copy()
    return TrainingSet(inputs, targets)


# The stacked forward and gradient routines and train_batch as they were
# before training ran in buffers allocated once per call, kept verbatim as the
# reference.


def reference_forward_stack(weights, biases, x: np.ndarray):
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


def reference_gradients_stack(weights, biases, inputs: np.ndarray, targets: np.ndarray):
    """Analytic MSE gradients of S networks, each on its own (B, fan_in)
    batch. Returns (losses (S,), dW list, db list), each with the leading
    network axis. matmul runs one BLAS call per network, so a network gets
    the same bits in any stack."""
    out, activations = reference_forward_stack(weights, biases, inputs)
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


def reference_train_batch(
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
                losses, grad_w, grad_b = reference_gradients_stack(
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


# forward and predict_direction as they were before forecast replaced them,
# kept as the reference; the forward pass is one plain 2-D product per layer.


def reference_forward(model: MlpModel, x: Sequence[float] | np.ndarray) -> float:
    """Scalar prediction for a single input vector."""
    x = np.asarray(x, dtype=float)
    if x.shape != (model.input_size,):
        raise InvalidInputError(f"expected input of shape ({model.input_size},)")
    if not np.all(np.isfinite(x)):
        raise InvalidInputError("input must be finite")
    a = x[None]
    last = len(model.weights) - 1
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = a @ w + b
        a = z if i == last else np.maximum(z, 0.0)
    return float(a[0, 0])


def reference_predict_direction(
    model: MlpModel, recent_diffs: Sequence[float] | np.ndarray
) -> TrendForecast:
    """Forecast the next close difference from the most recent window of diffs."""
    recent = np.asarray(recent_diffs, dtype=float)
    if recent.shape != (model.input_size,):
        raise InsufficientDataError(
            f"need exactly {model.input_size} recent close differences"
        )
    pred = reference_forward(model, recent)
    return TrendForecast(sign_direction(pred), abs(pred))


def forecast_one(model, x):
    """forecast of one network on one input row: its forecast, or its error raised."""
    (result,) = forecast([model], np.asarray(x, dtype=float)[None])
    if isinstance(result, Exception):
        raise result
    return result


def predict_one(model, x):
    """The signed prediction behind forecast_one."""
    result = forecast_one(model, x)
    return -result.magnitude if result.direction == "down" else result.magnitude


def zero_model(config=None):
    model = init_model(config or MlpConfig(), 0)
    for w in model.weights:
        w[...] = 0.0
    return model


class TestTrainingSet:
    def test_arithmetic_closes(self):
        data = build_training_set([1, 2, 3, 4, 5, 6, 7])
        assert len(data) == 1
        assert data.inputs[0] == pytest.approx([1, 1, 1, 1, 1])
        assert data.targets[0] == pytest.approx(1.0)

    def test_constant_closes(self):
        data = build_training_set([5.0] * 10)
        assert np.all(data.inputs == 0.0)
        assert np.all(data.targets == 0.0)

    def test_sample_count(self):
        assert len(build_training_set(np.arange(8.0))) == 2
        assert len(build_training_set(np.arange(30.0))) == 24

    def test_too_short(self):
        with pytest.raises(InsufficientDataError):
            build_training_set([1.0] * 6)

    def test_read_only_views_with_the_copied_values(self):
        rng = np.random.default_rng(5)
        for n_closes, window in ((7, 5), (40, 5), (253, 5), (30, 3)):
            closes = 50.0 + np.cumsum(rng.normal(0, 1, n_closes))
            data = build_training_set(closes, window)
            want = reference_training_set(closes, window)
            for got, ref in ((data.inputs, want.inputs), (data.targets, want.targets)):
                assert not got.flags.writeable
                assert got.dtype == ref.dtype and got.shape == ref.shape
                assert np.ascontiguousarray(got).tobytes() == ref.tobytes()
            # Views of the differences, not copies.
            assert not (data.inputs.flags.owndata or data.targets.flags.owndata)
            with pytest.raises(ValueError):
                data.inputs[0, 0] = 1.0

    def test_windows_precede_target(self):
        rng = np.random.default_rng(3)
        closes = rng.uniform(50, 60, 20)
        diffs = np.diff(closes)
        data = build_training_set(closes)
        for i in range(len(data)):
            assert data.inputs[i] == pytest.approx(diffs[i : i + 5])
            assert data.targets[i] == pytest.approx(diffs[i + 5])


class TestForward:
    """The stacked forward pass behind forecast, one network and one row at a time."""

    def test_zero_network(self):
        model = zero_model()
        assert predict_one(model, [1.0, -2.0, 3.0, 0.5, 9.0]) == 0.0

    def test_final_bias_passthrough(self):
        model = zero_model()
        model.biases[-1][0] = 3.5
        assert predict_one(model, np.zeros(5)) == pytest.approx(3.5)
        assert predict_one(model, np.ones(5) * 7) == pytest.approx(3.5)

    def test_purity(self):
        model = init_model(MlpConfig(), 12)
        x = np.array([0.1, -0.2, 0.3, 0.0, -0.5])
        assert predict_one(model, x) == predict_one(model, x)

    def test_nonfinite_input(self):
        model = init_model(MlpConfig(), 1)
        with pytest.raises(InvalidInputError):
            predict_one(model, [1.0, np.nan, 0.0, 0.0, 0.0])

    def test_wrong_shape(self):
        model = init_model(MlpConfig(), 1)
        with pytest.raises(InvalidInputError):
            predict_one(model, [1.0, 2.0])

    def test_relu_zero_region_is_bias_path(self):
        # strongly negative first-layer pre-activations zero out layer 1, so
        # the output must equal the forward path fed from a zero hidden state
        model = init_model(MlpConfig(), 5)
        model.weights[0][...] = np.abs(model.weights[0])
        model.biases[0][...] = 0.0
        x = -np.ones(5) * 10.0

        hidden = np.zeros(model.weights[0].shape[1])
        a = hidden
        for i in range(1, len(model.weights)):
            z = a @ model.weights[i] + model.biases[i]
            a = z if i == len(model.weights) - 1 else np.maximum(z, 0.0)
        assert predict_one(model, x) == pytest.approx(float(a[0]), abs=1e-12)


class TestGradients:
    def test_matches_finite_differences(self):
        for seed in (0, 1):
            row, shapes = param_row(init_model(MlpConfig(), seed))
            rng = np.random.default_rng(100 + seed)
            x = rng.normal(0, 1, size=(6, 5))
            y = rng.normal(0, 1, size=6)
            _, analytic = loss_and_gradient(row, shapes, x, y)
            numeric = finite_difference_gradient(row, shapes, x, y)
            rel = np.linalg.norm(analytic - numeric) / max(
                np.linalg.norm(analytic), np.linalg.norm(numeric), 1e-12
            )
            assert rel < 1e-4

    def test_zero_residual_zero_gradient(self):
        row, shapes = param_row(zero_model())
        loss, grad = loss_and_gradient(row, shapes, np.zeros((4, 5)), np.zeros(4))
        assert loss == 0.0
        assert np.all(grad == 0)


def finite_difference_gradient(row, shapes, x, y, step=1e-5):
    """Central differences of the loss, bumping the (1, P) row in place."""
    grad = np.empty(row.shape[1])
    for i in range(row.shape[1]):
        saved = row[0, i]
        row[0, i] += step
        up, _ = loss_and_gradient(row, shapes, x, y)
        row[0, i] -= 2 * step
        down, _ = loss_and_gradient(row, shapes, x, y)
        grad[i] = (up - down) / (2 * step)
        row[0, i] = saved
    return grad


class TestAdam:
    def test_first_step_moves_by_learning_rate(self):
        # oracle: the first step of the Adam recurrence by hand, for a
        # linear (1, 1) network trained on one sample for one update
        config = MlpConfig(layer_sizes=(1, 1), epochs=1, batch_size=1)
        model = init_model(config, 0)
        x, y = 0.7, 2.0
        w, b = model.weights[0][0, 0], model.biases[0][0]
        residual = w * x + b - y
        trained, _ = train_one(model, TrainingSet(np.array([[x]]), np.array([y])), config, 0)

        moves = (
            (trained.weights[0][0, 0] - w, 2 * residual * x),
            (trained.biases[0][0] - b, 2 * residual),
        )
        for moved, g in moves:
            m_hat = (1 - ADAM_BETA1) * g / (1 - ADAM_BETA1)
            v_hat = (1 - ADAM_BETA2) * g * g / (1 - ADAM_BETA2)
            expected = -config.learning_rate * m_hat / (math.sqrt(v_hat) + ADAM_EPS)
            assert moved == pytest.approx(expected, abs=1e-15)
            assert moved == pytest.approx(-0.001 * np.sign(g), abs=1e-9)

    def test_update_matches_reference_bit_for_bit(self):
        rng = np.random.default_rng(17)
        for n_networks, n_params in ((1, 1), (3, 341), (240, 341)):
            state = [rng.normal(0.0, 1.0, size=(n_networks, n_params)) for _ in range(3)]
            state[2] = np.abs(state[2])  # v, the second moments
            want = [x.copy() for x in state]
            scratch = np.full((2, n_networks, n_params), np.nan)
            for step in (1, 2, 3):
                grads = rng.normal(0.0, 10.0 ** (step - 2), size=(n_networks, n_params))
                params, m, v = state
                _adam_update(params, grads, m, v, step, 0.001, scratch)
                reference_adam_update(want[0], grads, want[1], want[2], step, 0.001)
                for got, ref in zip(state, want):
                    assert got.tobytes() == ref.tobytes()


class TestTrain:
    def test_zero_loss_fixed_point(self):
        model = zero_model()
        data = TrainingSet(np.zeros((32, 5)), np.zeros(32))
        before = params_to_vector(model).copy()
        trained, history = train_one(model, data, MlpConfig(epochs=5), 0)
        assert history == [0.0] * 5
        assert np.array_equal(params_to_vector(trained), before)

    def test_linear_task_learnable(self):
        rng = np.random.default_rng(42)
        x = rng.normal(0, 1, size=(500, 5))
        data = TrainingSet(x, x.mean(axis=1))
        config = MlpConfig()
        trained, history = train_one(init_model(config, 3), data, config, 3)
        assert history[-1] < history[0]

        def mse(model):
            return loss_and_gradient(*param_row(model), data.inputs, data.targets)[0]

        assert mse(trained) < mse(init_model(config, 3))

    def test_determinism(self):
        rng = np.random.default_rng(8)
        x = rng.normal(0, 1, size=(64, 5))
        data = TrainingSet(x, rng.normal(0, 1, 64))
        config = MlpConfig(epochs=2)
        a, hist_a = train_one(init_model(config, 21), data, config, 21)
        b, hist_b = train_one(init_model(config, 21), data, config, 21)
        assert hist_a == hist_b
        assert np.array_equal(params_to_vector(a), params_to_vector(b))

    def test_training_set_not_mutated(self):
        rng = np.random.default_rng(9)
        x = rng.normal(0, 1, size=(40, 5))
        y = rng.normal(0, 1, 40)
        data = TrainingSet(x.copy(), y.copy())
        config = MlpConfig(epochs=2)
        train_one(init_model(config, 0), data, config, 0)
        assert np.array_equal(data.inputs, x)
        assert np.array_equal(data.targets, y)

    def test_input_model_not_mutated(self):
        rng = np.random.default_rng(10)
        data = TrainingSet(rng.normal(0, 1, (40, 5)), rng.normal(0, 1, 40))
        config = MlpConfig(epochs=1)
        model = init_model(config, 0)
        before = params_to_vector(model).copy()
        trained, _ = train_one(model, data, config, 0)
        assert np.array_equal(params_to_vector(model), before)
        assert not np.array_equal(params_to_vector(trained), before)

    def test_empty_training_set(self):
        data = TrainingSet(np.zeros((0, 5)), np.zeros(0))
        with pytest.raises(InsufficientDataError):
            train_one(init_model(MlpConfig(), 0), data, MlpConfig(), 0)


class TestTrainBatch:
    CONFIG = MlpConfig(epochs=3, batch_size=16)

    def run_batch(self, data, seeds):
        models = [init_model(self.CONFIG, seed) for seed in seeds]
        return train_batch(models, data, self.CONFIG, seeds)

    def test_equals_per_model_train(self):
        # 83 samples: the last batch of each epoch is a short one
        data = [random_walk_set(s) for s in range(6)]
        seeds = [7 * s + 3 for s in range(6)]
        for got, d, seed in zip(self.run_batch(data, seeds), data, seeds):
            assert_same_training(got, self.run_batch([d], [seed])[0])

    def test_diverging_network_isolated(self):
        data = [random_walk_set(1), random_walk_set(2, scale=1e160), random_walk_set(3)]
        (alone,) = self.run_batch(data[1:2], [20])
        assert isinstance(alone, TrainingDivergedError)
        batch = self.run_batch(data, [10, 20, 30])
        assert isinstance(batch[1], TrainingDivergedError)
        assert str(batch[1]) == str(alone)
        for got, want in zip(batch[::2], self.run_batch(data[::2], [10, 30])):
            assert_same_training(got, want)

    def test_network_diverging_late_names_its_own_step(self):
        # One huge target makes a network's loss overflow at the update whose
        # batch first holds it: step 3 for one network, step 5 for another.
        # The diverged rows stay in the stack and must not touch the others.
        seeds = [10, 20, 30, 40]
        data = [random_walk_set(s) for s in range(4)]
        for s, step in ((1, 3), (3, 5)):
            first_epoch = np.random.default_rng(seeds[s]).permutation(len(data[s]))
            targets = data[s].targets.copy()
            targets[first_epoch[(step - 1) * self.CONFIG.batch_size]] = 1e200
            data[s] = TrainingSet(data[s].inputs, targets)
        batch = self.run_batch(data, seeds)
        for s, step in ((1, 3), (3, 5)):
            assert isinstance(batch[s], TrainingDivergedError)
            assert str(batch[s]) == f"non-finite loss at step {step}"
            assert str(self.run_batch([data[s]], [seeds[s]])[0]) == str(batch[s])
        for s in (0, 2):
            assert_same_training(batch[s], self.run_batch([data[s]], [seeds[s]])[0])

    @settings(max_examples=600, derandomize=True, database=None, deadline=None)
    @given(
        st.integers(1, 9),
        st.integers(1, 40),
        st.sampled_from([1, 3, 16]),
        st.integers(1, 2),
        st.sampled_from([(1, 1), (5, 3, 1), LAYER_SIZES]),
        st.integers(0, 2**32 - 1),
    )
    def test_matches_reference_bit_for_bit(self, n_networks, n, batch_size, epochs, sizes, seed):
        # Short last batches, batches longer than the set, and one network
        # whose 1e200 target overflows its loss at the update that first
        # draws it.
        config = MlpConfig(layer_sizes=sizes, epochs=epochs, batch_size=batch_size)
        rng = np.random.default_rng(seed)
        window = sizes[0]
        data = [
            build_training_set(np.cumsum(rng.normal(0, 1, n + window + 1)), window)
            for _ in range(n_networks)
        ]
        huge = int(rng.integers(n_networks))
        targets = data[huge].targets.copy()
        targets[rng.integers(n)] = 1e200
        data[huge] = TrainingSet(data[huge].inputs, targets)
        seeds = rng.integers(0, 2**32, n_networks).tolist()
        models = [init_model(config, sd) for sd in seeds]
        got = train_batch(models, data, config, seeds)
        want = reference_train_batch(models, data, config, seeds)
        assert isinstance(want[huge], TrainingDivergedError)
        for result, ref in zip(got, want):
            if isinstance(ref, TrainingDivergedError):
                assert type(result) is TrainingDivergedError and str(result) == str(ref)
                continue
            (model, history), (ref_model, ref_history) = result, ref
            assert params_to_vector(model).tobytes() == params_to_vector(ref_model).tobytes()
            assert [h.hex() for h in history] == [h.hex() for h in ref_history]

    def test_lock_step_preconditions(self):
        with pytest.raises(ParameterError):
            self.run_batch([random_walk_set(1), random_walk_set(2, n_closes=60)], [1, 2])
        with pytest.raises(ParameterError):
            self.run_batch([random_walk_set(1)], [1, 2])
        assert self.run_batch([], []) == []


class TestPredictDirection:
    """forecast's direction and magnitude for one network."""

    def test_zero_network_flat(self):
        forecast = forecast_one(zero_model(), np.ones(5))
        assert forecast.direction == "flat"
        assert forecast.magnitude == 0.0

    def test_positive_bias_up(self):
        model = zero_model()
        model.biases[-1][0] = 1.0
        assert forecast_one(model, -np.ones(5) * 50).direction == "up"

    def test_trained_on_rising_series_predicts_up(self):
        # end-to-end oracle: monotone data must produce an up forecast
        closes = np.arange(1.0, 301.0)
        data = build_training_set(closes)
        config = MlpConfig()
        trained, _ = train_one(init_model(config, 2), data, config, 2)
        forecast = forecast_one(trained, np.diff(closes)[-5:])
        assert forecast.direction == "up"
        assert forecast.magnitude > 0

    def test_wrong_history_length(self):
        with pytest.raises(InvalidInputError):
            forecast_one(zero_model(), np.ones(4))


class TestForecast:
    """forecast gives each network the bits of the per-network path it
    replaced: predict_direction, one forward pass per input row."""

    @pytest.fixture(scope="class")
    def trained(self):
        """240 trained networks and each one's latest five close differences."""
        config = MlpConfig(epochs=2)
        data = [random_walk_set(900 + s, n_closes=60) for s in range(240)]
        seeds = list(range(240))
        models = [init_model(config, sd) for sd in seeds]
        results = train_batch(models, data, config, seeds)
        inputs = np.stack([d.targets[-5:] for d in data])
        return [model for model, _ in results], inputs

    @pytest.mark.parametrize("n_networks", [1, 7, 240])
    def test_matches_reference_bit_for_bit(self, trained, n_networks):
        models, inputs = trained
        models, inputs = models[:n_networks], inputs[:n_networks].copy()
        if n_networks > 1:
            inputs[3, 2] = np.nan
            inputs[-1, 0] = np.inf
        got = forecast(models, inputs)
        for s, (result, model, row) in enumerate(zip(got, models, inputs)):
            if n_networks > 1 and s in (3, n_networks - 1):
                assert isinstance(result, InvalidInputError)
                assert str(result) == "input must be finite"
                with pytest.raises(InvalidInputError, match="input must be finite"):
                    reference_predict_direction(model, row)
                continue
            want = reference_predict_direction(model, row)
            assert type(result) is TrendForecast and type(result.magnitude) is float
            assert result.direction == want.direction
            assert result.magnitude.hex() == want.magnitude.hex()

    def test_one_network_on_many_rows(self, trained):
        # A model serves every rebalance until its next refit: stacked with
        # itself, it gives each row the bits it gives that row alone.
        models, inputs = trained
        got = forecast([models[0]] * 7, inputs[:7])
        assert got == [reference_predict_direction(models[0], row) for row in inputs[:7]]

    def test_one_by_one_network(self):
        # The (1, 1) network of TestAdam: a linear map of one difference.
        config = MlpConfig(layer_sizes=(1, 1), epochs=1, batch_size=1)
        models = [init_model(config, seed) for seed in range(3)]
        inputs = np.array([[0.7], [-2.0], [0.0]])
        got = forecast(models, inputs)
        assert got == [reference_predict_direction(m, row) for m, row in zip(models, inputs)]
        for model, row, result in zip(models, inputs, got):
            pred = model.weights[0][0, 0] * row[0] + model.biases[0][0]
            assert result.magnitude == pytest.approx(abs(pred), abs=1e-15)

    def test_input_shape(self):
        models = [zero_model(), zero_model()]
        for bad in (np.ones((2, 4)), np.ones((1, 5)), np.ones(5), np.ones((3, 5))):
            with pytest.raises(InvalidInputError):
                forecast(models, bad)

    def test_empty_batch(self):
        # As train_batch does for no networks; rows without networks err.
        assert forecast([], np.empty((0, 5))) == []
        assert train_batch([], [], MlpConfig(), []) == []
        with pytest.raises(InvalidInputError):
            forecast([], np.ones((1, 5)))


class TestSerialization:
    def test_param_vector_roundtrip(self):
        # train_batch reads its layer tensors as _unflatten views of the
        # params_to_vector row, so the two layouts must agree.
        model = init_model(MlpConfig(), 7)
        row, shapes = param_row(model)
        for view, tensor in zip(_unflatten(row, shapes), model.weights + model.biases):
            assert np.array_equal(view[0], tensor)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ParameterError):
            MlpConfig(learning_rate=0.0)
        with pytest.raises(ParameterError):
            MlpConfig(epochs=0)
        with pytest.raises(ParameterError):
            MlpConfig(layer_sizes=(5,))
        # The output layer is the one forecast; a wider one cannot train.
        with pytest.raises(ParameterError, match="end in 1"):
            MlpConfig(layer_sizes=(5, 3))

    def test_default_architecture(self):
        assert MlpConfig().layer_sizes == (5, 10, 10, 10, 5, 1)
        assert MlpConfig().learning_rate == 0.001
        assert MlpConfig().epochs == 5
