import math

import numpy as np
import pytest

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
    MlpConfig,
    TrainingSet,
    build_training_set,
    forward,
    gradients,
    init_model,
    params_to_vector,
    predict_direction,
    train,
    train_batch,
    vector_to_params,
)


def assert_same_training(got, want):
    """Bit-for-bit equality of weights, biases, step and losses."""
    (got_model, got_history), (want_model, want_history) = got, want
    assert got_model.step == want_model.step
    assert got_history == want_history
    for name in ("weights", "biases"):
        for a, b in zip(getattr(got_model, name), getattr(want_model, name)):
            assert np.array_equal(a, b)


def random_walk_set(seed, n_closes=90, scale=1.0):
    rng = np.random.default_rng(seed)
    return build_training_set(scale * (50.0 + np.cumsum(rng.normal(0, 1, n_closes))))


def zero_model(config=None):
    model = init_model(config or MlpConfig(seed=0))
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

    def test_windows_precede_target(self):
        rng = np.random.default_rng(3)
        closes = rng.uniform(50, 60, 20)
        diffs = np.diff(closes)
        data = build_training_set(closes)
        for i in range(len(data)):
            assert data.inputs[i] == pytest.approx(diffs[i : i + 5])
            assert data.targets[i] == pytest.approx(diffs[i + 5])


class TestForward:
    def test_zero_network(self):
        model = zero_model()
        assert forward(model, [1.0, -2.0, 3.0, 0.5, 9.0]) == 0.0

    def test_final_bias_passthrough(self):
        model = zero_model()
        model.biases[-1][0] = 3.5
        assert forward(model, np.zeros(5)) == pytest.approx(3.5)
        assert forward(model, np.ones(5) * 7) == pytest.approx(3.5)

    def test_purity(self):
        model = init_model(MlpConfig(seed=12))
        x = np.array([0.1, -0.2, 0.3, 0.0, -0.5])
        assert forward(model, x) == forward(model, x)

    def test_nonfinite_input(self):
        model = init_model(MlpConfig(seed=1))
        with pytest.raises(InvalidInputError):
            forward(model, [1.0, np.nan, 0.0, 0.0, 0.0])

    def test_wrong_shape(self):
        model = init_model(MlpConfig(seed=1))
        with pytest.raises(InvalidInputError):
            forward(model, [1.0, 2.0])

    def test_relu_zero_region_is_bias_path(self):
        # strongly negative first-layer pre-activations zero out layer 1, so
        # the output must equal the forward path fed from a zero hidden state
        model = init_model(MlpConfig(seed=5))
        model.weights[0][...] = np.abs(model.weights[0])
        model.biases[0][...] = 0.0
        x = -np.ones(5) * 10.0

        hidden = np.zeros(model.weights[0].shape[1])
        a = hidden
        for i in range(1, len(model.weights)):
            z = a @ model.weights[i] + model.biases[i]
            a = z if i == len(model.weights) - 1 else np.maximum(z, 0.0)
        assert forward(model, x) == pytest.approx(float(a[0]), abs=1e-12)


class TestGradients:
    def test_matches_finite_differences(self):
        for seed in (0, 1):
            config = MlpConfig(seed=seed)
            model = init_model(config)
            rng = np.random.default_rng(100 + seed)
            x = rng.normal(0, 1, size=(6, 5))
            y = rng.normal(0, 1, size=6)
            _, grad_w, grad_b = gradients(model, x, y)
            analytic = np.concatenate(
                [g.ravel() for g in grad_w] + [g.ravel() for g in grad_b]
            )
            numeric = finite_difference_gradient(model, x, y)
            rel = np.linalg.norm(analytic - numeric) / max(
                np.linalg.norm(analytic), np.linalg.norm(numeric), 1e-12
            )
            assert rel < 1e-4

    def test_zero_residual_zero_gradient(self):
        model = zero_model()
        x = np.zeros((4, 5))
        y = np.zeros(4)
        loss, grad_w, grad_b = gradients(model, x, y)
        assert loss == 0.0
        assert all(np.all(g == 0) for g in grad_w)
        assert all(np.all(g == 0) for g in grad_b)


def finite_difference_gradient(model, x, y, step=1e-5):
    theta = params_to_vector(model)
    grad = np.empty_like(theta)
    for i in range(theta.size):
        bumped = theta.copy()
        bumped[i] += step
        vector_to_params(model, bumped)
        up, _, _ = gradients(model, x, y)
        bumped[i] -= 2 * step
        vector_to_params(model, bumped)
        down, _, _ = gradients(model, x, y)
        grad[i] = (up - down) / (2 * step)
    vector_to_params(model, theta)
    return grad


class TestAdam:
    def test_first_step_moves_by_learning_rate(self):
        # oracle: the first step of the Adam recurrence by hand, for a
        # linear (1, 1) network trained on one sample for one update
        config = MlpConfig(layer_sizes=(1, 1), seed=0, epochs=1, batch_size=1)
        model = init_model(config)
        x, y = 0.7, 2.0
        w, b = model.weights[0][0, 0], model.biases[0][0]
        residual = w * x + b - y
        trained, _ = train(model, TrainingSet(np.array([[x]]), np.array([y])), config)
        assert trained.step == 1

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

    def test_step_counter_advances(self):
        rng = np.random.default_rng(4)
        data = TrainingSet(rng.normal(0, 1, (40, 5)), rng.normal(0, 1, 40))
        config = MlpConfig(seed=0, epochs=3, batch_size=16)
        trained, _ = train(init_model(config), data, config)
        assert trained.step == config.epochs * math.ceil(len(data) / config.batch_size)


class TestTrain:
    def test_zero_loss_fixed_point(self):
        model = zero_model()
        data = TrainingSet(np.zeros((32, 5)), np.zeros(32))
        before = params_to_vector(model).copy()
        trained, history = train(model, data, MlpConfig(seed=0, epochs=5))
        assert history == [0.0] * 5
        assert np.array_equal(params_to_vector(trained), before)

    def test_linear_task_learnable(self):
        rng = np.random.default_rng(42)
        x = rng.normal(0, 1, size=(500, 5))
        data = TrainingSet(x, x.mean(axis=1))
        config = MlpConfig(seed=3)
        trained, history = train(init_model(config), data, config)
        assert history[-1] < history[0]

        def mse(model):
            return gradients(model, data.inputs, data.targets)[0]

        assert mse(trained) < mse(init_model(config))

    def test_determinism(self):
        rng = np.random.default_rng(8)
        x = rng.normal(0, 1, size=(64, 5))
        data = TrainingSet(x, rng.normal(0, 1, 64))
        config = MlpConfig(seed=21, epochs=2)
        a, hist_a = train(init_model(config), data, config)
        b, hist_b = train(init_model(config), data, config)
        assert hist_a == hist_b
        assert np.array_equal(params_to_vector(a), params_to_vector(b))

    def test_training_set_not_mutated(self):
        rng = np.random.default_rng(9)
        x = rng.normal(0, 1, size=(40, 5))
        y = rng.normal(0, 1, 40)
        data = TrainingSet(x.copy(), y.copy())
        config = MlpConfig(seed=0, epochs=2)
        train(init_model(config), data, config)
        assert np.array_equal(data.inputs, x)
        assert np.array_equal(data.targets, y)

    def test_input_model_not_mutated(self):
        rng = np.random.default_rng(10)
        data = TrainingSet(rng.normal(0, 1, (40, 5)), rng.normal(0, 1, 40))
        config = MlpConfig(seed=0, epochs=1)
        model = init_model(config)
        before = params_to_vector(model).copy()
        trained, _ = train(model, data, config)
        assert np.array_equal(params_to_vector(model), before)
        assert not np.array_equal(params_to_vector(trained), before)

    def test_empty_training_set(self):
        data = TrainingSet(np.zeros((0, 5)), np.zeros(0))
        with pytest.raises(InsufficientDataError):
            train(init_model(MlpConfig(seed=0)), data, MlpConfig(seed=0))


class TestTrainBatch:
    CONFIG = MlpConfig(epochs=3, batch_size=16)

    def run_batch(self, data, seeds):
        models = [init_model(MlpConfig(seed=seed)) for seed in seeds]
        return train_batch(models, data, self.CONFIG, seeds)

    def run_alone(self, data, seed):
        config = MlpConfig(epochs=3, batch_size=16, seed=seed)
        return train(init_model(config), data, config)

    def test_equals_per_model_train(self):
        # 83 samples: the last batch of each epoch is a short one
        data = [random_walk_set(s) for s in range(6)]
        seeds = [7 * s + 3 for s in range(6)]
        for got, d, seed in zip(self.run_batch(data, seeds), data, seeds):
            assert_same_training(got, self.run_alone(d, seed))

    def test_diverging_network_isolated(self):
        data = [random_walk_set(1), random_walk_set(2, scale=1e160), random_walk_set(3)]
        with pytest.raises(TrainingDivergedError) as alone:
            self.run_alone(data[1], 20)
        batch = self.run_batch(data, [10, 20, 30])
        assert isinstance(batch[1], TrainingDivergedError)
        assert str(batch[1]) == str(alone.value)
        for got, want in zip(batch[::2], self.run_batch(data[::2], [10, 30])):
            assert_same_training(got, want)

    def test_lock_step_preconditions(self):
        with pytest.raises(ParameterError):
            self.run_batch([random_walk_set(1), random_walk_set(2, n_closes=60)], [1, 2])
        with pytest.raises(ParameterError):
            self.run_batch([random_walk_set(1)], [1, 2])
        assert self.run_batch([], []) == []


class TestPredictDirection:
    def test_zero_network_flat(self):
        forecast = predict_direction(zero_model(), np.ones(5))
        assert forecast.direction == "flat"
        assert forecast.magnitude == 0.0

    def test_positive_bias_up(self):
        model = zero_model()
        model.biases[-1][0] = 1.0
        assert predict_direction(model, -np.ones(5) * 50).direction == "up"

    def test_trained_on_rising_series_predicts_up(self):
        # end-to-end oracle: monotone data must produce an up forecast
        closes = np.arange(1.0, 301.0)
        data = build_training_set(closes)
        config = MlpConfig(seed=2)
        trained, _ = train(init_model(config), data, config)
        forecast = predict_direction(trained, np.diff(closes)[-5:])
        assert forecast.direction == "up"
        assert forecast.magnitude > 0

    def test_wrong_history_length(self):
        with pytest.raises(InsufficientDataError):
            predict_direction(zero_model(), np.ones(4))


class TestSerialization:
    def test_param_vector_roundtrip(self):
        model = init_model(MlpConfig(seed=7))
        theta = params_to_vector(model)
        other = init_model(MlpConfig(seed=8))
        vector_to_params(other, theta)
        assert np.array_equal(params_to_vector(other), theta)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ParameterError):
            MlpConfig(learning_rate=0.0)
        with pytest.raises(ParameterError):
            MlpConfig(epochs=0)
        with pytest.raises(ParameterError):
            MlpConfig(layer_sizes=(5,))

    def test_default_architecture(self):
        assert MlpConfig().layer_sizes == (5, 10, 10, 10, 5, 1)
        assert MlpConfig().learning_rate == 0.001
        assert MlpConfig().epochs == 5
