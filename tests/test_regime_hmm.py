import math

import numpy as np
import pytest

from duotrader.errors import (
    InsufficientDataError,
    InvalidInputError,
    NumericalError,
    ParameterError,
)
from duotrader.marketdata import log_returns, synth_regime_series
from duotrader.regime_hmm import (
    HmmConfig,
    HmmModel,
    filtered_states,
    fit,
    forward_posterior,
    predict_direction,
)


def build_model(pi, trans, means, variances):
    """Hand-assembled model."""
    return HmmModel(
        initial_probs=np.asarray(pi, dtype=float),
        transition=np.asarray(trans, dtype=float),
        mean_returns=np.asarray(means, dtype=float),
        variances=np.asarray(variances, dtype=float),
        fit_log_likelihood=0.0,
    )


def normal_pdf(x, mean, var):
    return math.exp(-0.5 * (x - mean) ** 2 / var) / math.sqrt(2 * math.pi * var)


class TestFit:
    def test_single_state_closed_form(self):
        rng = np.random.default_rng(0)
        returns = rng.normal(0.001, 0.02, 200)
        model = fit(returns, HmmConfig(n_states=1, seed=4))
        assert model.transition[0, 0] == pytest.approx(1.0)
        assert model.initial_probs == pytest.approx([1.0])
        # oracle: closed-form single-state maximum-likelihood statistics
        assert model.mean_returns[0] == pytest.approx(returns.mean(), abs=1e-12)
        assert model.variances[0] == pytest.approx(
            np.mean((returns - returns.mean()) ** 2), abs=1e-12
        )

    def test_determinism(self):
        rng = np.random.default_rng(1)
        returns = rng.normal(0, 0.01, 150)
        a = fit(returns, HmmConfig(n_states=3, seed=9))
        b = fit(returns, HmmConfig(n_states=3, seed=9))
        assert np.array_equal(a.mean_returns, b.mean_returns)
        assert np.array_equal(a.transition, b.transition)
        assert np.array_equal(a.variances, b.variances)
        assert a.log_likelihood_path == b.log_likelihood_path

    def test_two_regime_recovery(self):
        # oracle: the synthetic generator's known drifts
        bars, _ = synth_regime_series(
            7, 2001, [(0.002, 0.005), (-0.002, 0.005)],
            [[0.995, 0.005], [0.005, 0.995]],
        )
        returns = log_returns([b.close for b in bars])
        model = fit(returns, HmmConfig(n_states=2, max_iterations=40, seed=7))
        recovered = np.sort(model.mean_returns)
        for got, want in zip(recovered, (-0.002, 0.002)):
            assert abs(got - want) / abs(want) < 0.20

    def test_too_short_sequence(self):
        with pytest.raises(InsufficientDataError):
            fit(np.zeros(19), HmmConfig(n_states=2))

    def test_constant_returns_floors_variance(self):
        model = fit(np.full(40, 0.001), HmmConfig(n_states=1))
        assert model.variances[0] >= 1e-12
        assert model.diagnostics["variance_floored"]

    def test_unvisited_source_state_keeps_finite_row(self):
        # the outlier's state is occupied only at the last step, so its row
        # of expected outgoing transitions is empty
        returns = np.concatenate([np.zeros(50), [0.5]])
        model = fit(returns, HmmConfig(n_states=2, seed=1))
        assert np.all(np.isfinite(model.transition))
        assert model.transition.sum(axis=1) == pytest.approx([1.0, 1.0])
        assert model.mean_returns[1] == pytest.approx(0.5)

    def test_monotone_log_likelihood(self):
        rng = np.random.default_rng(11)
        for trial in range(10):
            returns = rng.normal(0.0, 0.01, 120)
            model = fit(returns, HmmConfig(n_states=int(rng.integers(1, 5)), seed=trial))
            path = model.log_likelihood_path
            assert all(b - a >= -1e-8 for a, b in zip(path, path[1:]))

    def test_stochasticity_invariants(self):
        rng = np.random.default_rng(13)
        returns = rng.normal(0.0, 0.01, 200)
        model = fit(returns, HmmConfig(n_states=4, seed=2))
        assert model.initial_probs.sum() == pytest.approx(1.0, abs=1e-9)
        assert model.transition.sum(axis=1) == pytest.approx(np.ones(4), abs=1e-9)
        assert model.mean_returns.shape == (4,)
        assert model.variances.shape == (4,)
        assert np.all(model.variances > 0)

    def test_serialization_roundtrip(self):
        rng = np.random.default_rng(17)
        model = fit(rng.normal(0, 0.01, 100), HmmConfig(n_states=2, seed=3))
        clone = HmmModel.from_dict(model.to_dict())
        assert np.array_equal(clone.mean_returns, model.mean_returns)
        assert np.array_equal(clone.variances, model.variances)
        assert np.array_equal(clone.transition, model.transition)
        assert clone.fit_log_likelihood == model.fit_log_likelihood

    def test_config_validation(self):
        with pytest.raises(ParameterError):
            HmmConfig(n_states=0)
        with pytest.raises(ParameterError):
            HmmConfig(max_iterations=0)

    def test_rejects_multivariate_input(self):
        with pytest.raises(InvalidInputError):
            fit(np.zeros((60, 2)), HmmConfig(n_states=2))
        with pytest.raises(InvalidInputError):
            fit(np.zeros((60, 1)), HmmConfig(n_states=2))


class TestPinnedNumerics:
    """EM results on one seeded series, recorded from the reference full-
    covariance implementation. rtol 1e-9 leaves room for float64 summation
    order and nothing else."""

    PATH = [
        641.6500585264927, 658.8643725945246, 661.5341831848185, 664.1479166071919,
        667.49654740117, 672.086810471685, 676.029048872899, 678.3386773801013,
        679.504597441829, 680.0664889110491, 680.380501264546,
    ]
    MEANS = [
        -0.015052719121375848, -0.0035234267310849656, 0.0023777222866235574,
        0.0019553699578234644, 0.011262284678967586,
    ]
    VARIANCES = [
        0.00036427413406942303, 0.0003927310961023487, 0.0002512101614576154,
        3.812161319869263e-05, 0.0006325004539933309,
    ]
    TRANSITION = [
        [0.40546945725374706, 0.28502947198897494, 0.18025459204697009,
         0.09982412244862528, 0.029422356261682683],
        [0.012335165047232144, 0.9056274815060316, 0.03628128156181382,
         0.028558802124436747, 0.017197269760485714],
        [0.04999524624821226, 0.10814788045896734, 0.8085025958589478,
         0.031722644912253024, 0.0016316325216195863],
        [0.012392786898310443, 0.06710060127007421, 0.031449166934124174,
         0.8867686064510628, 0.0022888384464283154],
        [0.003072143577844266, 0.01460027906862261, 0.015037762614202498,
         0.11925554771799847, 0.8480342670213322],
    ]

    def test_matches_reference_fit(self):
        bars, _ = synth_regime_series(
            251, 252, [(0.001, 0.008), (-0.0015, 0.02)], [[0.96, 0.04], [0.05, 0.95]]
        )
        returns = log_returns([b.close for b in bars])
        assert returns.size == 251
        model = fit(returns, HmmConfig(n_states=5, seed=17))
        assert model.diagnostics["iterations"] == 10
        np.testing.assert_allclose(model.log_likelihood_path, self.PATH, rtol=1e-9, atol=0)
        np.testing.assert_allclose(model.mean_returns, self.MEANS, rtol=1e-9, atol=0)
        np.testing.assert_allclose(model.variances, self.VARIANCES, rtol=1e-9, atol=0)
        np.testing.assert_allclose(model.transition, self.TRANSITION, rtol=1e-9, atol=0)


class TestForwardPosterior:
    def test_single_state(self):
        model = build_model([1.0], [[1.0]], [0.0], [1e-4])
        assert forward_posterior(model, [0.01, -0.02]) == pytest.approx([1.0])

    def test_well_separated_states(self):
        model = build_model(
            [0.5, 0.5], [[0.5, 0.5], [0.5, 0.5]], [0.01, -0.01], [1e-8, 1e-8]
        )
        posterior = forward_posterior(model, [0.01])
        # oracle: direct Bayes computation on the final step
        num = [0.5 * normal_pdf(0.01, m, 1e-8) for m in (0.01, -0.01)]
        expected = np.array(num) / sum(num)
        assert posterior == pytest.approx(expected, abs=1e-12)
        assert posterior[0] > 0.999

    def test_identical_emissions_symmetric(self):
        model = build_model(
            [0.25] * 4, np.full((4, 4), 0.25), [0.001] * 4, [1e-4] * 4
        )
        posterior = forward_posterior(model, [0.01, 0.0, -0.005])
        assert posterior == pytest.approx([0.25] * 4, abs=1e-12)

    def test_length_one_equals_bayes_update(self):
        # oracle: hand-rolled Bayes update of pi by the emission likelihood
        pi = [0.2, 0.3, 0.5]
        means = [0.01, 0.0, -0.01]
        variances = [2e-4, 1e-4, 3e-4]
        model = build_model(pi, np.full((3, 3), 1 / 3), means, variances)
        x = 0.004
        weights = [p * normal_pdf(x, m, v) for p, m, v in zip(pi, means, variances)]
        expected = np.array(weights) / sum(weights)
        assert forward_posterior(model, [x]) == pytest.approx(expected, abs=1e-12)

    def test_sums_to_one(self):
        rng = np.random.default_rng(23)
        model = fit(rng.normal(0, 0.01, 150), HmmConfig(n_states=3, seed=1))
        posterior = forward_posterior(model, rng.normal(0, 0.01, 50))
        assert posterior.sum() == pytest.approx(1.0, abs=1e-9)

    def test_empty_sequence(self):
        model = build_model([1.0], [[1.0]], [0.0], [1e-4])
        with pytest.raises(InsufficientDataError):
            forward_posterior(model, [])

    @pytest.mark.parametrize("bad", [0.0, -1e-4, float("nan")])
    def test_non_positive_variance_raises(self, bad):
        model = build_model([0.5, 0.5], np.eye(2), [0.0, 0.01], [1e-4, bad])
        with pytest.raises(NumericalError):
            forward_posterior(model, [0.01, -0.02])


class TestPredictDirection:
    def test_identity_transition_up(self):
        model = build_model([1, 0], np.eye(2), [0.01, -0.01], [1e-4, 1e-4])
        forecast = predict_direction(model, np.array([1.0, 0.0]))
        assert forecast.expected_return == pytest.approx(0.01)
        assert forecast.direction == "up"

    def test_identity_transition_down(self):
        model = build_model([0, 1], np.eye(2), [0.01, -0.01], [1e-4, 1e-4])
        forecast = predict_direction(model, np.array([0.0, 1.0]))
        assert forecast.expected_return == pytest.approx(-0.01)
        assert forecast.direction == "down"

    def test_zero_means_flat(self):
        model = build_model([0.5, 0.5], np.eye(2), [0.0, 0.0], [1e-4, 1e-4])
        forecast = predict_direction(model, np.array([0.5, 0.5]))
        assert forecast.expected_return == 0.0
        assert forecast.direction == "flat"

    def test_label_permutation_invariance(self):
        rng = np.random.default_rng(31)
        model = fit(rng.normal(0.0005, 0.01, 200), HmmConfig(n_states=3, seed=5))
        returns = rng.normal(0.0005, 0.01, 40)
        posterior = forward_posterior(model, returns)
        base = predict_direction(model, posterior)

        perm = np.array([2, 0, 1])
        permuted = HmmModel(
            initial_probs=model.initial_probs[perm],
            transition=model.transition[np.ix_(perm, perm)],
            mean_returns=model.mean_returns[perm],
            variances=model.variances[perm],
            fit_log_likelihood=model.fit_log_likelihood,
        )
        shuffled = predict_direction(permuted, forward_posterior(permuted, returns))
        assert shuffled.expected_return == pytest.approx(base.expected_return, abs=1e-12)
        assert shuffled.direction == base.direction

    def test_scale_consistency(self):
        rng = np.random.default_rng(37)
        model = fit(rng.normal(0.001, 0.01, 150), HmmConfig(n_states=2, seed=8))
        posterior = forward_posterior(model, rng.normal(0, 0.01, 30))
        base = predict_direction(model, posterior)
        for scale in (0.5, 3.0, 100.0):
            scaled = HmmModel(
                initial_probs=model.initial_probs,
                transition=model.transition,
                mean_returns=model.mean_returns * scale,
                variances=model.variances,
                fit_log_likelihood=model.fit_log_likelihood,
            )
            assert predict_direction(scaled, posterior).direction == base.direction


class TestFilteredStates:
    def test_matches_posterior_argmax(self):
        rng = np.random.default_rng(41)
        returns = rng.normal(0, 0.01, 80)
        model = fit(returns, HmmConfig(n_states=2, seed=6))
        states = filtered_states(model, returns)
        assert states.shape == (80,)
        last = forward_posterior(model, returns)
        assert states[-1] == np.argmax(last)
