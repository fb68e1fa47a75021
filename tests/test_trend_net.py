import contextlib
import math
from typing import Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from duotrader import trend_net
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
    ADAM_LEARNING_RATE,
    LAYER_SIZES,
    MlpConfig,
    TrainingSet,
    TrendForecast,
    _Pass,
    _adam_update,
    _unflatten,
    build_training_set,
    forecast,
    init_params,
    train_batch,
)


def shapes_of(sizes):
    """The SHAPES of a network of ``sizes``, as trend_net derives them."""
    return (*zip(sizes[:-1], sizes[1:]), *((fan_out,) for fan_out in sizes[1:]))


@contextlib.contextmanager
def layer_sizes(sizes):
    """trend_net's network is ``sizes`` inside the block: LAYER_SIZES and the
    INPUT_SIZE and SHAPES derived from it are patched, as a test patches
    plan.MIN_PART, for the small networks some oracles need."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(trend_net, "LAYER_SIZES", sizes)
        patch.setattr(trend_net, "INPUT_SIZE", sizes[0])
        patch.setattr(trend_net, "SHAPES", shapes_of(sizes))
        yield


def assert_same_training(got, s, want, w=0):
    """Network s of one train_batch result and network w of another: equal
    loss histories and the same parameter bytes, or errors of one type and
    text."""
    if isinstance(want[1][w], TrainingDivergedError):
        assert type(got[1][s]) is TrainingDivergedError and str(got[1][s]) == str(want[1][w])
        return
    assert [h.hex() for h in got[1][s]] == [h.hex() for h in want[1][w]]
    assert got[0][s].tobytes() == want[0][w].tobytes()


def random_walk_set(seed, n_closes=90, scale=1.0):
    rng = np.random.default_rng(seed)
    return build_training_set(scale * (50.0 + np.cumsum(rng.normal(0, 1, n_closes))))


def train_one(params, data, config, seed):
    """train_batch on a stack of one network: its trained (1, P) row and its
    loss history or error."""
    trained, (outcome,) = train_batch(params, [data], config, [seed])
    return trained, outcome


def network(params, s=0):
    """Row s of an (S, P) parameter stack as (weights, biases), the lists of
    its layer tensors (views, so writes reach the row)."""
    tensors = [t[s] for t in _unflatten(params, trend_net.SHAPES)]
    return tensors[: len(tensors) // 2], tensors[len(tensors) // 2:]


def loss_and_gradient(row, x, y):
    """MSE loss and flat analytic gradient of the network whose parameters
    are the (1, P) row, read and written through the _unflatten views
    train_batch uses."""
    shapes, grad_row, losses = trend_net.SHAPES, np.empty_like(row), np.empty(1)
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
    params: np.ndarray,
    data: Sequence[TrainingSet],
    config: MlpConfig,
    seeds: Sequence[int],
) -> tuple[np.ndarray, list[list[float] | TrainingDivergedError]]:
    """train_batch's contract (trained (S, P) rows and one loss history or
    TrainingDivergedError per network) on freshly allocated arrays, for
    inputs that meet its preconditions: training sets of one length n > 0."""
    params, n = np.array(params, dtype=float), len(data[0])

    shapes = trend_net.SHAPES
    n_layers = len(shapes) // 2
    # Adam's moments (from zero) of network s are row s of (S, P) arrays laid
    # out as the parameters, so one Adam step is one update of whole arrays;
    # the layer tensors are views into the rows.
    ms, vs = np.zeros_like(params), np.zeros_like(params)
    scratch = np.empty((2, *params.shape))
    tensors = _unflatten(params, shapes)
    inputs = np.stack([d.inputs for d in data])
    targets = np.stack([d.targets for d in data])
    rngs = [np.random.default_rng(seed) for seed in seeds]
    picked = np.arange(len(data))[:, None]
    results: list = [None] * len(data)
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
                grads = np.concatenate([g.reshape(len(data), -1) for g in grad_w + grad_b], axis=1)
                step += 1
                for s in np.flatnonzero(~np.isfinite(losses)):
                    results[s] = results[s] or TrainingDivergedError(
                        f"non-finite loss at step {step}"
                    )
                _adam_update(params, grads, ms, vs, step, scratch)
                batch_losses.append(losses)
            # One row per network, so each mean sums its losses in the
            # same order as a mean over one network's list.
            epoch_losses.append(np.stack(batch_losses, axis=1).mean(axis=1))

    histories = np.stack(epoch_losses, axis=1)
    return params, [result or histories[s].tolist() for s, result in enumerate(results)]


# init_model, forward and predict_direction as they were before init_params
# and forecast replaced them, kept as the reference (a network is its lists
# of weights and biases); the forward pass is one plain 2-D product per layer.


def reference_init_model(sizes: Sequence[int], seed: int) -> tuple[list, list]:
    """Seeded init: uniform +/-sqrt(6/(fan_in+fan_out)) weights, zero biases."""
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return weights, biases


def reference_forward(weights, biases, x: Sequence[float] | np.ndarray) -> float:
    """Scalar prediction for a single input vector."""
    x = np.asarray(x, dtype=float)
    if x.shape != (weights[0].shape[0],):
        raise InvalidInputError(f"expected input of shape ({weights[0].shape[0]},)")
    if not np.all(np.isfinite(x)):
        raise InvalidInputError("input must be finite")
    a = x[None]
    last = len(weights) - 1
    for i, (w, b) in enumerate(zip(weights, biases)):
        z = a @ w + b
        a = z if i == last else np.maximum(z, 0.0)
    return float(a[0, 0])


def reference_predict_direction(
    weights, biases, recent_diffs: Sequence[float] | np.ndarray
) -> TrendForecast:
    """Forecast the next close difference from the most recent window of diffs."""
    recent = np.asarray(recent_diffs, dtype=float)
    if recent.shape != (weights[0].shape[0],):
        raise InsufficientDataError(
            f"need exactly {weights[0].shape[0]} recent close differences"
        )
    pred = reference_forward(weights, biases, recent)
    return TrendForecast(sign_direction(pred), abs(pred))


def forecast_one(params, x):
    """forecast of one (1, P) network on one input row: its forecast, or its error raised."""
    (result,) = forecast(params, [0], np.asarray(x, dtype=float)[None])
    if isinstance(result, Exception):
        raise result
    return result


def predict_one(params, x):
    """The signed prediction behind forecast_one."""
    result = forecast_one(params, x)
    return -result.magnitude if result.direction == "down" else result.magnitude


def zero_model(n_networks=1):
    """(S, P) rows of default networks whose parameters are all zero."""
    return np.zeros_like(init_params(range(n_networks)))


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
            with layer_sizes((window, 1)):
                data = build_training_set(closes)
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
        network(model)[1][-1][0] = 3.5
        assert predict_one(model, np.zeros(5)) == pytest.approx(3.5)
        assert predict_one(model, np.ones(5) * 7) == pytest.approx(3.5)

    def test_purity(self):
        model = init_params([12])
        x = np.array([0.1, -0.2, 0.3, 0.0, -0.5])
        assert predict_one(model, x) == predict_one(model, x)

    def test_nonfinite_input(self):
        model = init_params([1])
        with pytest.raises(InvalidInputError):
            predict_one(model, [1.0, np.nan, 0.0, 0.0, 0.0])

    def test_wrong_shape(self):
        model = init_params([1])
        with pytest.raises(InvalidInputError):
            predict_one(model, [1.0, 2.0])

    def test_relu_zero_region_is_bias_path(self):
        # strongly negative first-layer pre-activations zero out layer 1, so
        # the output must equal the forward path fed from a zero hidden state
        model = init_params([5])
        weights, biases = network(model)
        weights[0][...] = np.abs(weights[0])
        biases[0][...] = 0.0
        x = -np.ones(5) * 10.0

        hidden = np.zeros(weights[0].shape[1])
        a = hidden
        for i in range(1, len(weights)):
            z = a @ weights[i] + biases[i]
            a = z if i == len(weights) - 1 else np.maximum(z, 0.0)
        assert predict_one(model, x) == pytest.approx(float(a[0]), abs=1e-12)


class TestGradients:
    def test_matches_finite_differences(self):
        for seed in (0, 1):
            row = init_params([seed])
            rng = np.random.default_rng(100 + seed)
            x = rng.normal(0, 1, size=(6, 5))
            y = rng.normal(0, 1, size=6)
            _, analytic = loss_and_gradient(row, x, y)
            numeric = finite_difference_gradient(row, x, y)
            rel = np.linalg.norm(analytic - numeric) / max(
                np.linalg.norm(analytic), np.linalg.norm(numeric), 1e-12
            )
            assert rel < 1e-4

    def test_zero_residual_zero_gradient(self):
        loss, grad = loss_and_gradient(zero_model(), np.zeros((4, 5)), np.zeros(4))
        assert loss == 0.0
        assert np.all(grad == 0)


def finite_difference_gradient(row, x, y, step=1e-5):
    """Central differences of the loss, bumping the (1, P) row in place."""
    grad = np.empty(row.shape[1])
    for i in range(row.shape[1]):
        saved = row[0, i]
        row[0, i] += step
        up, _ = loss_and_gradient(row, x, y)
        row[0, i] -= 2 * step
        down, _ = loss_and_gradient(row, x, y)
        grad[i] = (up - down) / (2 * step)
        row[0, i] = saved
    return grad


class TestAdam:
    def test_first_step_moves_by_learning_rate(self):
        # oracle: the first step of the Adam recurrence by hand, for a
        # linear (1, 1) network trained on one sample for one update
        config = MlpConfig(epochs=1, batch_size=1)
        x, y = 0.7, 2.0
        with layer_sizes((1, 1)):
            model = init_params([0])
            w, b = model[0]  # the (1, 1) weight, then the bias
            residual = w * x + b - y
            trained, _ = train_one(model, TrainingSet(np.array([[x]]), np.array([y])), config, 0)

        moves = ((trained[0, 0] - w, 2 * residual * x), (trained[0, 1] - b, 2 * residual))
        for moved, g in moves:
            m_hat = (1 - ADAM_BETA1) * g / (1 - ADAM_BETA1)
            v_hat = (1 - ADAM_BETA2) * g * g / (1 - ADAM_BETA2)
            expected = -ADAM_LEARNING_RATE * m_hat / (math.sqrt(v_hat) + ADAM_EPS)
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
                _adam_update(params, grads, m, v, step, scratch)
                reference_adam_update(want[0], grads, want[1], want[2], step, ADAM_LEARNING_RATE)
                for got, ref in zip(state, want):
                    assert got.tobytes() == ref.tobytes()


class TestTrain:
    def test_zero_loss_fixed_point(self):
        model = zero_model()
        data = TrainingSet(np.zeros((32, 5)), np.zeros(32))
        trained, history = train_one(model, data, MlpConfig(epochs=5), 0)
        assert history == [0.0] * 5
        assert np.array_equal(trained, model)

    def test_linear_task_learnable(self):
        rng = np.random.default_rng(42)
        x = rng.normal(0, 1, size=(500, 5))
        data = TrainingSet(x, x.mean(axis=1))
        config = MlpConfig()
        trained, history = train_one(init_params([3]), data, config, 3)
        assert history[-1] < history[0]

        def mse(model):
            return loss_and_gradient(model, data.inputs, data.targets)[0]

        assert mse(trained) < mse(init_params([3]))

    def test_determinism(self):
        rng = np.random.default_rng(8)
        x = rng.normal(0, 1, size=(64, 5))
        data = TrainingSet(x, rng.normal(0, 1, 64))
        config = MlpConfig(epochs=2)
        a, hist_a = train_one(init_params([21]), data, config, 21)
        b, hist_b = train_one(init_params([21]), data, config, 21)
        assert hist_a == hist_b
        assert np.array_equal(a, b)

    def test_training_set_not_mutated(self):
        rng = np.random.default_rng(9)
        x = rng.normal(0, 1, size=(40, 5))
        y = rng.normal(0, 1, 40)
        data = TrainingSet(x.copy(), y.copy())
        config = MlpConfig(epochs=2)
        train_one(init_params([0]), data, config, 0)
        assert np.array_equal(data.inputs, x)
        assert np.array_equal(data.targets, y)

    def test_input_model_not_mutated(self):
        rng = np.random.default_rng(10)
        data = TrainingSet(rng.normal(0, 1, (40, 5)), rng.normal(0, 1, 40))
        config = MlpConfig(epochs=1)
        model = init_params([0])
        before = model.copy()
        trained, _ = train_one(model, data, config, 0)
        assert np.array_equal(model, before)
        assert not np.array_equal(trained, before)

    def test_empty_training_set(self):
        data = TrainingSet(np.zeros((0, 5)), np.zeros(0))
        with pytest.raises(InsufficientDataError):
            train_one(init_params([0]), data, MlpConfig(), 0)


class TestTrainBatch:
    CONFIG = MlpConfig(epochs=3, batch_size=16)

    def run_batch(self, data, seeds):
        return train_batch(init_params(seeds), data, self.CONFIG, seeds)

    def test_equals_per_model_train(self):
        # 83 samples: the last batch of each epoch is a short one
        data = [random_walk_set(s) for s in range(6)]
        seeds = [7 * s + 3 for s in range(6)]
        batch = self.run_batch(data, seeds)
        for s, (d, seed) in enumerate(zip(data, seeds)):
            assert_same_training(batch, s, self.run_batch([d], [seed]))

    def test_diverging_network_isolated(self):
        data = [random_walk_set(1), random_walk_set(2, scale=1e160), random_walk_set(3)]
        alone = self.run_batch(data[1:2], [20])
        assert isinstance(alone[1][0], TrainingDivergedError)
        batch = self.run_batch(data, [10, 20, 30])
        assert_same_training(batch, 1, alone)
        pair = self.run_batch(data[::2], [10, 30])
        for s, w in ((0, 0), (2, 1)):
            assert_same_training(batch, s, pair, w)

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
            assert isinstance(batch[1][s], TrainingDivergedError)
            assert str(batch[1][s]) == f"non-finite loss at step {step}"
        for s in range(4):
            assert_same_training(batch, s, self.run_batch([data[s]], [seeds[s]]))

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
        config = MlpConfig(epochs=epochs, batch_size=batch_size)
        rng = np.random.default_rng(seed)
        window = sizes[0]
        with layer_sizes(sizes):
            data = [
                build_training_set(np.cumsum(rng.normal(0, 1, n + window + 1)))
                for _ in range(n_networks)
            ]
            huge = int(rng.integers(n_networks))
            targets = data[huge].targets.copy()
            targets[rng.integers(n)] = 1e200
            data[huge] = TrainingSet(data[huge].inputs, targets)
            seeds = rng.integers(0, 2**32, n_networks).tolist()
            params = init_params(seeds)
            got = train_batch(params, data, config, seeds)
            want = reference_train_batch(params, data, config, seeds)
        assert isinstance(want[1][huge], TrainingDivergedError)
        for s in range(n_networks):
            assert_same_training(got, s, want, s)

    def test_lock_step_preconditions(self):
        with pytest.raises(ParameterError):
            self.run_batch([random_walk_set(1), random_walk_set(2, n_closes=60)], [1, 2])
        with pytest.raises(ParameterError):
            self.run_batch([random_walk_set(1)], [1, 2])
        params, outcomes = self.run_batch([], [])
        assert outcomes == [] and params.shape == (0, init_params([0]).shape[1])


class TestPredictDirection:
    """forecast's direction and magnitude for one network."""

    def test_zero_network_flat(self):
        forecast = forecast_one(zero_model(), np.ones(5))
        assert forecast.direction == "flat"
        assert forecast.magnitude == 0.0

    def test_positive_bias_up(self):
        model = zero_model()
        network(model)[1][-1][0] = 1.0
        assert forecast_one(model, -np.ones(5) * 50).direction == "up"

    def test_trained_on_rising_series_predicts_up(self):
        # end-to-end oracle: monotone data must produce an up forecast
        closes = np.arange(1.0, 301.0)
        data = build_training_set(closes)
        config = MlpConfig()
        trained, _ = train_one(init_params([2]), data, config, 2)
        forecast = forecast_one(trained, np.diff(closes)[-5:])
        assert forecast.direction == "up"
        assert forecast.magnitude > 0

    def test_wrong_history_length(self):
        with pytest.raises(InvalidInputError):
            forecast_one(zero_model(), np.ones(4))


class TestForecast:
    """forecast gives each input row, whichever network row it gathers, the
    bits of that network in a stack of one and of the per-network path it
    replaced: predict_direction, one forward pass per input row. Under
    OpenBLAS's Prescott kernel a network's bits depend on where its
    parameters lie in memory, so only test_one_network_on_many_rows moves
    them (out of order, repeated, or copied into a stack of one)."""

    CONFIG = MlpConfig(epochs=2)

    @pytest.fixture(scope="class")
    def trained(self):
        """240 trained networks' rows and each one's latest five close differences."""
        data = [random_walk_set(900 + s, n_closes=60) for s in range(240)]
        params, _ = train_batch(init_params(range(240)), data, self.CONFIG, range(240))
        return params, np.stack([d.targets[-5:] for d in data])

    @pytest.mark.parametrize("n_networks", [1, 7, 240])
    def test_matches_reference_bit_for_bit(self, trained, n_networks):
        params, inputs = trained
        rows, inputs = range(n_networks), inputs[:n_networks].copy()
        if n_networks > 1:
            inputs[3, 2] = np.nan
            inputs[-1, 0] = np.inf
        got = forecast(params[:n_networks], rows, inputs)
        for result, r, row in zip(got, rows, inputs):
            layers = network(params, r)
            if n_networks > 1 and r in (3, n_networks - 1):
                assert isinstance(result, InvalidInputError)
                assert str(result) == "input must be finite"
                with pytest.raises(InvalidInputError, match="input must be finite"):
                    reference_predict_direction(*layers, row)
                continue
            want = reference_predict_direction(*layers, row)
            assert type(result) is TrendForecast and type(result.magnitude) is float
            assert result.direction == want.direction
            assert result.magnitude.hex() == want.magnitude.hex()

    def test_one_network_on_many_rows(self, trained):
        # A model serves every rebalance until its next refit: gathered for
        # several rows, out of order and with repeats, a network gives each
        # row the bits it gives that row alone.
        params, inputs = trained
        rows = [0] * 7 + [*range(239, 200, -3), 5, 5, 17]
        got = forecast(params, rows, inputs[:len(rows)])
        for result, r, row in zip(got, rows, inputs):
            assert result == reference_predict_direction(*network(params, r), row)
            assert [result] == forecast(params[r:r + 1].copy(), [0], row[None])

    def test_one_by_one_network(self):
        # The (1, 1) network of TestAdam: a linear map of one difference.
        inputs = np.array([[0.7], [-2.0], [0.0]])
        with layer_sizes((1, 1)):
            params = init_params(range(3))
            got = forecast(params, range(3), inputs)
            for s, (row, result) in enumerate(zip(inputs, got)):
                assert result == reference_predict_direction(*network(params, s), row)
                pred = params[s, 0] * row[0] + params[s, 1]  # weight, then bias
                assert result.magnitude == pytest.approx(abs(pred), abs=1e-15)

    def test_input_shape(self):
        for bad in (np.ones((2, 4)), np.ones((1, 5)), np.ones(5), np.ones((3, 5))):
            with pytest.raises(InvalidInputError):
                forecast(zero_model(2), [0, 1], bad)

    def test_empty_batch(self):
        # As train_batch does for no networks; rows without networks err.
        assert forecast(zero_model(), [], np.empty((0, 5))) == []
        assert train_batch(zero_model(0), [], MlpConfig(), [])[1] == []
        with pytest.raises(InvalidInputError):
            forecast(zero_model(), [], np.ones((1, 5)))


class TestSerialization:
    def test_param_vector_roundtrip(self):
        # init_params makes the per-network init's draws, in the row layout
        # whose _unflatten views train_batch and forecast read.
        for sizes in ((1, 1), (5, 3, 1), LAYER_SIZES):
            with layer_sizes(sizes):
                params = init_params([7, 0, 2**31 - 1])
                for s, seed in enumerate([7, 0, 2**31 - 1]):
                    weights, biases = reference_init_model(sizes, seed)
                    for view, tensor in zip(network(params, s), (weights, biases)):
                        assert all(a.tobytes() == b.tobytes() for a, b in zip(view, tensor))


class TestConfig:
    def test_validation(self):
        with pytest.raises(ParameterError):
            MlpConfig(epochs=0)
        with pytest.raises(ParameterError):
            MlpConfig(batch_size=0)

    def test_default_architecture(self):
        # The paper's one network and Adam step are constants, not fields.
        assert LAYER_SIZES == (5, 10, 10, 10, 5, 1)
        assert trend_net.INPUT_SIZE == 5 and trend_net.SHAPES == shapes_of(LAYER_SIZES)
        assert ADAM_LEARNING_RATE == 0.001
        assert (MlpConfig().epochs, MlpConfig().batch_size) == (5, 16)
