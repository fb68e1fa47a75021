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
    _backward,
    _filter,
    _forward,
    _m_step,
    fit_batch,
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
    )


def regime_returns(seed, n_returns):
    bars, _ = synth_regime_series(
        seed, n_returns + 1, [(0.001, 0.008), (-0.0015, 0.02)], [[0.96, 0.04], [0.05, 0.95]]
    )
    return log_returns(bars.close)


def fit_one(returns, config, seed=0):
    """The model fit_batch gives one series in a batch of one."""
    (model,) = fit_batch(np.asarray(returns, dtype=float)[None], config, [seed])
    assert isinstance(model, HmmModel), model
    return model


def posterior_one(model, returns):
    """forward_posterior of one series under one model: its posterior or error."""
    (posterior,) = forward_posterior([model], np.asarray(returns, dtype=float)[None])
    return posterior


def assert_same_model(got, want):
    """Bit-for-bit equality of every fitted field."""
    assert np.array_equal(got.initial_probs, want.initial_probs)
    assert np.array_equal(got.transition, want.transition)
    assert np.array_equal(got.mean_returns, want.mean_returns)
    assert np.array_equal(got.variances, want.variances)
    assert got.log_likelihood_path == want.log_likelihood_path
    assert got.diagnostics == want.diagnostics


def normal_pdf(x, mean, var):
    return math.exp(-0.5 * (x - mean) ** 2 / var) / math.sqrt(2 * math.pi * var)


def reference_m_step(obs, alphas, betas, b, norms, trans, means, variances, floor):
    """``_m_step`` as it was before its temporaries reused the E-step's
    buffers, kept verbatim as the reference (it overwrites betas only)."""
    # Expected transition counts, accumulated without materializing the
    # (T, K, K) tensor. With this scaling each xi_t is already a proper
    # posterior, so the sum is the expected count matrix.
    weighted = b[:, 1:] * betas[:, 1:]
    weighted /= norms[:, 1:, None]
    xi_sum = trans * np.matmul(alphas[:, :-1].transpose(0, 2, 1), weighted)
    del weighted

    gammas = betas  # betas are not needed again
    gammas *= alphas
    gammas /= gammas.sum(axis=2, keepdims=True)

    pi = gammas[:, 0] / gammas[:, 0].sum(axis=1, keepdims=True)
    # A row whose source state is (almost) never occupied keeps its
    # previous probabilities; the guarded denominator only avoids a
    # division by zero in rows that np.where discards.
    from_counts = gammas[:, :-1].sum(axis=1)
    live_rows = from_counts > 1e-12
    new_trans = np.where(
        live_rows[:, :, None],
        xi_sum / np.where(live_rows, from_counts, 1.0)[:, :, None],
        trans,
    )
    new_trans = np.clip(new_trans, 0.0, None)
    trans = new_trans / new_trans.sum(axis=2, keepdims=True)

    # Dead states keep their previous mean and variance.
    occupancy = gammas.sum(axis=1)
    live = ~(occupancy <= 1e-10)
    weights = np.where(live, occupancy, 1.0)
    new_means = np.matmul(obs[:, None, :], gammas)[:, 0] / weights
    diff = obs[:, :, None] - new_means[:, None, :]
    spread = gammas * diff
    spread *= diff
    new_vars = spread.sum(axis=1) / weights
    floored = np.any(live & (new_vars < floor), axis=1)
    means = np.where(live, new_means, means)
    variances = np.where(live, np.maximum(new_vars, floor), variances)
    return pi, trans, means, variances, floored


class TestFit:
    def test_single_state_closed_form(self):
        rng = np.random.default_rng(0)
        returns = rng.normal(0.001, 0.02, 200)
        model = fit_one(returns, HmmConfig(n_states=1), 4)
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
        a = fit_one(returns, HmmConfig(n_states=3), 9)
        b = fit_one(returns, HmmConfig(n_states=3), 9)
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
        returns = log_returns(bars.close)
        model = fit_one(returns, HmmConfig(n_states=2, max_iterations=40), 7)
        recovered = np.sort(model.mean_returns)
        for got, want in zip(recovered, (-0.002, 0.002)):
            assert abs(got - want) / abs(want) < 0.20

    def test_too_short_sequence(self):
        with pytest.raises(InsufficientDataError):
            fit_one(np.zeros(19), HmmConfig(n_states=2))

    def test_constant_returns_floors_variance(self):
        model = fit_one(np.full(40, 0.001), HmmConfig(n_states=1))
        assert model.variances[0] >= 1e-12
        assert model.diagnostics["variance_floored"]

    def test_unvisited_source_state_keeps_finite_row(self):
        # the outlier's state is occupied only at the last step, so its row
        # of expected outgoing transitions is empty
        returns = np.concatenate([np.zeros(50), [0.5]])
        model = fit_one(returns, HmmConfig(n_states=2), 1)
        assert np.all(np.isfinite(model.transition))
        assert model.transition.sum(axis=1) == pytest.approx([1.0, 1.0])
        assert model.mean_returns[1] == pytest.approx(0.5)

    def test_monotone_log_likelihood(self):
        rng = np.random.default_rng(11)
        for trial in range(10):
            returns = rng.normal(0.0, 0.01, 120)
            model = fit_one(returns, HmmConfig(n_states=int(rng.integers(1, 5))), trial)
            path = model.log_likelihood_path
            assert all(b - a >= -1e-8 for a, b in zip(path, path[1:]))

    def test_stochasticity_invariants(self):
        rng = np.random.default_rng(13)
        returns = rng.normal(0.0, 0.01, 200)
        model = fit_one(returns, HmmConfig(n_states=4), 2)
        assert model.initial_probs.sum() == pytest.approx(1.0, abs=1e-9)
        assert model.transition.sum(axis=1) == pytest.approx(np.ones(4), abs=1e-9)
        assert model.mean_returns.shape == (4,)
        assert model.variances.shape == (4,)
        assert np.all(model.variances > 0)

    def test_config_validation(self):
        with pytest.raises(ParameterError):
            HmmConfig(n_states=0)
        with pytest.raises(ParameterError):
            HmmConfig(max_iterations=0)

    def test_rejects_multivariate_input(self):
        with pytest.raises(InvalidInputError):
            fit_one(np.zeros((60, 2)), HmmConfig(n_states=2))
        with pytest.raises(InvalidInputError):
            fit_one(np.zeros((60, 1)), HmmConfig(n_states=2))
        model = build_model([1.0], [[1.0]], [0.0], [1e-4])
        with pytest.raises(InvalidInputError):
            posterior_one(model, np.zeros((60, 1)))


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
        returns = log_returns(bars.close)
        assert returns.size == 251
        model = fit_one(returns, HmmConfig(n_states=5), 17)
        assert model.diagnostics["iterations"] == 10
        np.testing.assert_allclose(model.log_likelihood_path, self.PATH, rtol=1e-9, atol=0)
        np.testing.assert_allclose(model.mean_returns, self.MEANS, rtol=1e-9, atol=0)
        np.testing.assert_allclose(model.variances, self.VARIANCES, rtol=1e-9, atol=0)
        np.testing.assert_allclose(model.transition, self.TRANSITION, rtol=1e-9, atol=0)


class TestMStep:
    def test_matches_reference_bit_for_bit(self):
        rng = np.random.default_rng(23)
        n_states, floor = 4, 1e-12
        for _ in range(6):
            n_series, n_obs = int(rng.integers(2, 7)), int(rng.integers(30, 130))
            obs = rng.normal(0.0, 0.01, size=(n_series, n_obs))
            obs[0] = 0.003  # a constant series: its live states' variances floor
            means = rng.normal(0.0, 0.01, size=(n_series, n_states))
            means[:, -1] = 5.0  # far from every return: a dead state
            variances = rng.uniform(1e-5, 4e-4, size=(n_series, n_states))
            pi = rng.dirichlet(np.ones(n_states), size=n_series)
            trans = rng.dirichlet(np.ones(n_states), size=(n_series, n_states))
            alphas, norms, _, b, errors = _forward(obs, means, variances, pi, trans)
            assert errors == [None] * n_series
            betas = _backward(b, trans, norms)

            def run(m_step):
                return m_step(
                    obs, alphas.copy(), betas.copy(), b.copy(), norms, trans, means, variances,
                    floor,
                )

            expected, got = run(reference_m_step), run(_m_step)
            assert expected[4][0] and not expected[4][1:].all()
            assert np.all(expected[2][:, -1] == 5.0)  # the dead state kept its mean
            for want, have in zip(expected, got):
                assert have.dtype == want.dtype and have.shape == want.shape
                assert have.tobytes() == want.tobytes()


class TestFitBatch:
    CONFIG = HmmConfig(n_states=3, max_iterations=60)

    def test_equals_per_series_fit(self):
        returns = np.stack([regime_returns(300 + s, 251) for s in range(12)])
        seeds = [11 * s + 1 for s in range(12)]
        batch = fit_batch(returns, self.CONFIG, seeds)
        singles = [fit_one(row, self.CONFIG, seed) for row, seed in zip(returns, seeds)]
        # the series stop on different iterations, some at the cap
        iterations = {m.diagnostics["iterations"] for m in batch}
        assert len(iterations) > 2 and 60 in iterations
        for got, want in zip(batch, singles):
            assert_same_model(got, want)

    def test_failing_series_isolated(self):
        config = HmmConfig(n_states=3, variance_floor=0.0)
        returns = np.stack([regime_returns(41, 120), np.zeros(120), regime_returns(42, 120)])
        (alone,) = fit_batch(returns[1:2], config, [2])
        batch = fit_batch(returns, config, [1, 2, 3])
        assert isinstance(batch[1], NumericalError)
        assert str(batch[1]) == str(alone)
        for got, want in zip(batch[::2], fit_batch(returns[::2], config, [1, 3])):
            assert_same_model(got, want)

    def test_whole_batch_errors(self):
        with pytest.raises(InsufficientDataError):
            fit_batch(np.zeros((3, 29)), self.CONFIG, [0, 1, 2])
        with pytest.raises(InvalidInputError):
            fit_batch(np.zeros(60), self.CONFIG, [0])
        with pytest.raises(ParameterError):
            fit_batch(np.zeros((2, 60)), self.CONFIG, [0])
        assert fit_batch(np.zeros((0, 60)), self.CONFIG, []) == []


class TestForwardPosterior:
    def test_single_state(self):
        model = build_model([1.0], [[1.0]], [0.0], [1e-4])
        assert posterior_one(model, [0.01, -0.02]) == pytest.approx([1.0])

    def test_well_separated_states(self):
        model = build_model(
            [0.5, 0.5], [[0.5, 0.5], [0.5, 0.5]], [0.01, -0.01], [1e-8, 1e-8]
        )
        posterior = posterior_one(model, [0.01])
        # oracle: direct Bayes computation on the final step
        num = [0.5 * normal_pdf(0.01, m, 1e-8) for m in (0.01, -0.01)]
        expected = np.array(num) / sum(num)
        assert posterior == pytest.approx(expected, abs=1e-12)
        assert posterior[0] > 0.999

    def test_identical_emissions_symmetric(self):
        model = build_model(
            [0.25] * 4, np.full((4, 4), 0.25), [0.001] * 4, [1e-4] * 4
        )
        posterior = posterior_one(model, [0.01, 0.0, -0.005])
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
        assert posterior_one(model, [x]) == pytest.approx(expected, abs=1e-12)

    def test_sums_to_one(self):
        rng = np.random.default_rng(23)
        model = fit_one(rng.normal(0, 0.01, 150), HmmConfig(n_states=3), 1)
        posterior = posterior_one(model, rng.normal(0, 0.01, 50))
        assert posterior.sum() == pytest.approx(1.0, abs=1e-9)

    def test_takes_only_a_batch(self):
        model = build_model([1.0], [[1.0]], [0.0], [1e-4])
        with pytest.raises(InvalidInputError):
            forward_posterior(model, np.zeros(5))

    def test_empty_sequence(self):
        model = build_model([1.0], [[1.0]], [0.0], [1e-4])
        with pytest.raises(InsufficientDataError):
            posterior_one(model, [])

    def test_collapse_reports_first_step(self):
        # the only state that can follow state 0 gives the second return a
        # density that underflows to zero
        model = build_model([1.0, 0.0], np.eye(2), [0.0, 1.0], [1e-8, 1e-8])
        error = posterior_one(model, [0.0, 1.0, 1.0])
        assert isinstance(error, NumericalError)
        assert str(error).endswith("collapsed at t=1")

    def test_batch_equals_per_model(self):
        returns = np.stack([regime_returns(500 + s, 90) for s in range(6)])
        models = [fit_one(r, HmmConfig(n_states=3), s) for s, r in enumerate(returns)]
        nan_variance = build_model(
            [0.4, 0.3, 0.3], np.eye(3), [0.0, 0.01, -0.01], [1e-4, float("nan"), 1e-4]
        )
        collapsing = build_model([1.0, 0.0, 0.0], np.eye(3), [1.0, 0.0, 0.0], [1e-8] * 3)
        broken = {1: nan_variance, 4: collapsing}
        batch = forward_posterior([broken.get(s, m) for s, m in enumerate(models)], returns)
        for s, (got, model, row) in enumerate(zip(batch, models, returns)):
            if s in broken:
                alone = posterior_one(broken[s], row)
                assert isinstance(alone, NumericalError)
                assert str(got) == str(alone)
            else:
                assert np.array_equal(got, posterior_one(model, row))

    def test_posteriors_own_their_memory(self):
        # A view of the (S, T, K) forward array would keep all of it alive
        # for as long as the (K,) posterior is held.
        returns = np.stack([regime_returns(600 + s, 60) for s in range(3)])
        models = [fit_one(r, HmmConfig(n_states=2), s) for s, r in enumerate(returns)]
        batch = forward_posterior(models, returns)
        single = posterior_one(models[0], returns[0])
        for posterior in [*batch, single]:
            assert posterior.shape == (2,)
            assert posterior.base is None and posterior.flags.owndata
        assert np.array_equal(batch[0], single)

    @pytest.mark.parametrize("bad", [0.0, -1e-4, float("nan")])
    def test_non_positive_variance_raises(self, bad):
        model = build_model([0.5, 0.5], np.eye(2), [0.0, 0.01], [1e-4, bad])
        assert isinstance(posterior_one(model, [0.01, -0.02]), NumericalError)


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
        model = fit_one(rng.normal(0.0005, 0.01, 200), HmmConfig(n_states=3), 5)
        returns = rng.normal(0.0005, 0.01, 40)
        posterior = posterior_one(model, returns)
        base = predict_direction(model, posterior)

        perm = np.array([2, 0, 1])
        permuted = HmmModel(
            initial_probs=model.initial_probs[perm],
            transition=model.transition[np.ix_(perm, perm)],
            mean_returns=model.mean_returns[perm],
            variances=model.variances[perm],
        )
        shuffled = predict_direction(permuted, posterior_one(permuted, returns))
        assert shuffled.expected_return == pytest.approx(base.expected_return, abs=1e-12)
        assert shuffled.direction == base.direction

    def test_scale_consistency(self):
        rng = np.random.default_rng(37)
        model = fit_one(rng.normal(0.001, 0.01, 150), HmmConfig(n_states=2), 8)
        posterior = posterior_one(model, rng.normal(0, 0.01, 30))
        base = predict_direction(model, posterior)
        for scale in (0.5, 3.0, 100.0):
            scaled = HmmModel(
                initial_probs=model.initial_probs,
                transition=model.transition,
                mean_returns=model.mean_returns * scale,
                variances=model.variances,
            )
            assert predict_direction(scaled, posterior).direction == base.direction


class TestFilteredStates:
    def test_matches_posterior_argmax(self):
        rng = np.random.default_rng(41)
        returns = rng.normal(0, 0.01, 80)
        model = fit_one(returns, HmmConfig(n_states=2), 6)
        alphas, errors = _filter([model], returns[None])
        assert errors == [None]
        states = np.argmax(alphas[0], axis=1)
        assert states.shape == (80,)
        assert states[-1] == np.argmax(posterior_one(model, returns))
