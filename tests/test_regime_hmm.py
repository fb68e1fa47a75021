import math
from typing import Sequence
from unittest import mock

import numpy as np
import pytest

from duotrader import regime_hmm
from duotrader.directions import sign_direction
from duotrader.errors import (
    InsufficientDataError,
    InvalidInputError,
    NumericalError,
    ParameterError,
)
from duotrader.marketdata import log_returns, synth_regime_series
from duotrader.regime_hmm import (
    LOG_2PI,
    MIN_SAMPLES_PER_STATE,
    DirectionForecast,
    HmmConfig,
    HmmModel,
    _backward,
    _filter,
    _forward,
    _initial_parameters,
    _m_step,
    fit_batch,
    forecast,
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
    """The filtered posterior of one series under one model, or its error."""
    (posterior,) = reference_forward_posterior([model], np.asarray(returns, dtype=float)[None])
    return posterior


def forecast_from(model, posterior):
    """forecast's batched expected-return step on a hand-made posterior: the
    filter is replaced by one whose last step is that posterior."""
    filtered = np.asarray(posterior, dtype=float)[None, None, :]
    with mock.patch.object(regime_hmm, "_filter", return_value=(filtered, [None])):
        (result,) = forecast([model], np.zeros((1, 1)))
    return result


# forward_posterior and predict_direction as they were before forecast
# replaced them, kept verbatim as the reference.


def reference_forward_posterior(
    models: Sequence[HmmModel], returns: np.ndarray
) -> list[np.ndarray | NumericalError]:
    """Filtered state distributions P(state_T | returns_1..T) of S series.

    Runs one batched forward pass of the (S, T) returns, row s under
    ``models[s]``, and returns S entries: each series' (K,) posterior, or
    the NumericalError it ran into. A posterior is a copy: it keeps no
    forward array alive.
    """
    alphas, errors = _filter(models, returns)
    return [alphas[s, -1].copy() if error is None else error for s, error in enumerate(errors)]


def reference_predict_direction(model: HmmModel, posterior: np.ndarray) -> DirectionForecast:
    """One-step-ahead expected return under the filtered posterior, and its sign."""
    posterior = np.asarray(posterior, dtype=float)
    expected = float((posterior @ model.transition) @ model.mean_returns)
    return DirectionForecast(sign_direction(expected), expected)


def reference_forecast(models, returns):
    """The old per-model path: one batched filter, then one predict_direction per series."""
    return [
        reference_predict_direction(m, p) if isinstance(p, np.ndarray) else p
        for m, p in zip(models, reference_forward_posterior(models, returns))
    ]


def assert_same_forecasts(got, want):
    """Bit-for-bit equal forecasts, and errors of one type and text."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert type(g) is type(w) and str(g) == str(w)
        if isinstance(w, DirectionForecast):
            assert type(g.expected_return) is float and g.direction == w.direction
            assert g.expected_return.hex() == w.expected_return.hex()


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


# The series-major (S, T, K) E-step and the per-series initialization as
# they were before the time-major layout, kept verbatim as the reference
# (only their names and the calls between them changed).


def reference_emission_log_probs(obs, means, variances):
    """(S, T, K) log density of every observation under every state's Gaussian."""
    sd = np.sqrt(variances)
    # Multiplying by the reciprocal, not dividing, reproduces the densities
    # of the earlier Cholesky-based version bit for bit, which keeps
    # backtest fills unchanged. The in-place steps compute
    # -0.5 * ((log 2pi + 2 log sd) + z * z) in one (S, T, K) buffer.
    z = obs[:, :, None] - means[:, None, :]
    z *= (1.0 / sd)[:, None, :]
    z *= z
    z += (LOG_2PI + 2.0 * np.log(sd))[:, None, :]
    z *= -0.5
    return z


def reference_forward(obs, means, variances, pi, trans):
    """Scaled forward pass over S series at once: obs (S, T); means,
    variances and pi (S, K); trans (S, K, K)."""
    n_series, n_obs = obs.shape
    errors = [None] * n_series
    invalid = ~np.all(variances > 0, axis=1)
    for s in np.flatnonzero(invalid):
        errors[s] = NumericalError(f"state variances must be positive, got {variances[s]}")
    if invalid.any():
        # Harmless stand-ins keep the failed series from raising warnings
        # while the rest of the batch is computed.
        variances = np.where(invalid[:, None], 1.0, variances)
        means = np.where(invalid[:, None], 0.0, means)

    b = reference_emission_log_probs(obs, means, variances)
    shifts = b.max(axis=2)
    b -= shifts[:, :, None]
    np.exp(b, out=b)
    alphas = np.empty_like(b)
    norms = np.empty((n_series, n_obs))

    # A collapsed series divides by a zero norm and turns NaN from there
    # on; it is reported at its first zero norm, and nothing it computes
    # reaches another series.
    with np.errstate(divide="ignore", invalid="ignore"):
        a = pi * b[:, 0]
        for t in range(n_obs):
            if t:
                a = np.matmul(alpha[:, None, :], trans)[:, 0] * b[:, t]
            norm = np.add.reduce(a, axis=1)
            norms[:, t] = norm
            alpha = alphas[:, t] = a / norm[:, None]
        log_likelihood = np.log(norms).sum(axis=1) + shifts.sum(axis=1)
    collapsed = norms <= 0
    for s in np.flatnonzero(collapsed.any(axis=1)):
        if errors[s] is None:
            errors[s] = NumericalError(f"forward recursion collapsed at t={np.argmax(collapsed[s])}")
    return alphas, norms, log_likelihood, b, errors


def reference_backward(b, trans, norms):
    """Backward pass scaled by the forward norms (Rabiner-style), (S, T, K)."""
    betas = np.empty_like(b)
    beta = betas[:, -1] = np.ones((b.shape[0], b.shape[2]))
    for t in range(b.shape[1] - 2, -1, -1):
        carried = (b[:, t + 1] * beta)[:, :, None]
        beta = betas[:, t] = np.matmul(trans, carried)[:, :, 0] / norms[:, t + 1, None]
    return betas


def reference_initial_parameters(obs, config, seed):
    """Deterministic seeded initialization of one series."""
    n_states = config.n_states
    order = np.argsort(obs, kind="stable")
    means = np.array([obs[idx].mean() for idx in np.array_split(order, n_states)])

    centered = obs - obs.mean()
    pooled = max((centered @ centered) / obs.size, config.variance_floor)
    variances = np.full(n_states, pooled)

    rng = np.random.default_rng(seed)
    means = means + rng.normal(0.0, 1e-6 * (np.sqrt(pooled) + 1e-12), size=n_states)

    pi = np.full(n_states, 1.0 / n_states)
    if n_states == 1:
        trans = np.ones((1, 1))
    else:
        off = 0.2 / (n_states - 1)
        trans = np.full((n_states, n_states), off)
        np.fill_diagonal(trans, 0.8)
    return pi, trans, means, variances


def by_series(x):
    """A C-contiguous series-major copy of a time-major (T, S, ...) array."""
    return np.ascontiguousarray(np.swapaxes(x, 0, 1))


def assert_same_bytes(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def hazard_batch(rng, n_series, n_states, n_obs):
    """Random returns and parameters of a batch; from 4 series up it holds
    every case the E-step and M-step handle apart: a constant series (its
    live states' variances floor), a series with a non-positive variance, a
    series whose forward recursion collapses and, with 2 states or more, a
    dead state far from every return."""
    obs = rng.normal(0.0, 0.01, size=(n_series, n_obs))
    means = rng.normal(0.0, 0.01, size=(n_series, n_states))
    variances = rng.uniform(1e-5, 4e-4, size=(n_series, n_states))
    pi = rng.dirichlet(np.ones(n_states), size=n_series)
    trans = rng.dirichlet(np.ones(n_states), size=(n_series, n_states))
    if n_states > 1:
        means[:, -1] = 5.0
    if n_series >= 4:
        obs[0] = 0.003
        variances[1, 0] = -1e-4 if n_states == 1 else 0.0
        if n_states > 1:
            # Held in state 0 (mean 0) by the identity transitions, the
            # series meets a return of 1.0 its state gives zero density.
            pi[2], trans[2], obs[2], obs[2, 5] = np.eye(n_states)[0], np.eye(n_states), 0.0, 1.0
            means[2, :2], variances[2] = (0.0, 1.0), 1e-8
    return obs, means, variances, pi, trans


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
        # The reference reads series-major copies of the time-major buffers,
        # so each of its BLAS calls has the contiguous operands of a batch of
        # one; fewer than four states exercise the small products that
        # OpenBLAS computes otherwise over strided rows.
        rng = np.random.default_rng(23)
        floor = 1e-12
        for n_states in (4, 1, 2, 3):
            for _ in range(6):
                self.check_one(rng, n_states, floor)

    @staticmethod
    def check_one(rng, n_states, floor):
        n_series, n_obs = int(rng.integers(2, 7)), int(rng.integers(30, 130))
        obs = rng.normal(0.0, 0.01, size=(n_series, n_obs))
        obs[0] = 0.003  # a constant series: its live states' variances floor
        means = rng.normal(0.0, 0.01, size=(n_series, n_states))
        if n_states > 1:
            means[:, -1] = 5.0  # far from every return: a dead state
        variances = rng.uniform(1e-5, 4e-4, size=(n_series, n_states))
        pi = rng.dirichlet(np.ones(n_states), size=n_series)
        trans = rng.dirichlet(np.ones(n_states), size=(n_series, n_states))
        alphas, norms, _, b, errors = _forward(obs, means, variances, pi, trans)
        assert errors == [None] * n_series
        betas = _backward(b, trans, norms)

        expected = reference_m_step(
            obs, by_series(alphas), by_series(betas), by_series(b), by_series(norms),
            trans, means, variances, floor,
        )
        got = _m_step(obs, alphas.copy(), betas.copy(), b.copy(), norms, trans, means, variances, floor)
        assert expected[4][0] and not expected[4][1:].all()
        if n_states > 1:
            assert np.all(expected[2][:, -1] == 5.0)  # the dead state kept its mean
        for want, have in zip(expected, got):
            assert_same_bytes(have, want)


class TestTimeMajorEStep:
    """The time-major E-step and the batched initialization give the bits of
    the series-major references, transposed, on every kind of series."""

    CASES = [(1, 1), (1, 5), (7, 1), (7, 2), (7, 5), (7, 9), (240, 5)]

    @pytest.mark.parametrize("n_series,n_states", CASES)
    def test_forward_backward_match_reference(self, n_series, n_states):
        rng = np.random.default_rng(1000 * n_series + n_states)
        batch = hazard_batch(rng, n_series, n_states, int(rng.integers(20, 120)))
        alphas, norms, log_likelihood, b, errors = _forward(*batch)
        assert alphas.flags.c_contiguous and b.flags.c_contiguous  # time-major in memory
        want = reference_forward(*batch)
        assert [str(e) for e in errors] == [str(e) for e in want[4]]
        if n_series >= 4:
            assert "must be positive" in str(errors[1])
            assert (n_states > 1) == ("collapsed at t=5" in str(errors[2]))
        for have, ref in zip((alphas, norms, log_likelihood, b), want):
            assert_same_bytes(by_series(have) if have.ndim > 1 else have, ref)
        # _filter's (S, T, K) view of the same forward pass.
        obs, means, variances, pi, trans = batch
        models = [build_model(*p) for p in zip(pi, trans, means, variances)]
        filtered, _ = _filter(models, obs)
        assert filtered.base is not None  # a view, not a copy
        assert_same_bytes(np.ascontiguousarray(filtered), want[0])

        betas = _backward(b, trans, norms)
        assert betas.flags.c_contiguous
        assert_same_bytes(by_series(betas), reference_backward(want[3], trans, want[1]))

    @pytest.mark.parametrize("n_series,n_states", CASES)
    def test_initial_parameters_match_reference(self, n_series, n_states):
        rng = np.random.default_rng(2000 * n_series + n_states)
        config = HmmConfig(n_states=n_states)
        n_obs = MIN_SAMPLES_PER_STATE * n_states + int(rng.integers(0, 40))
        obs = rng.normal(0.0, 0.01, size=(n_series, n_obs))
        obs[:, ::3] = np.round(obs[:, ::3], 3)  # ties for the stable sort
        if n_series > 1:
            obs[1] = 0.002  # a constant series: its pooled variance floors
        seeds = [int(seed) for seed in rng.integers(0, 2**31, size=n_series)]
        got = _initial_parameters(obs, config, seeds)
        want = [np.stack(p) for p in zip(*(
            reference_initial_parameters(row, config, seed) for row, seed in zip(obs, seeds)
        ))]
        for have, ref in zip(got, want):
            assert_same_bytes(have, ref)


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


class TestNonFiniteSeries:
    """A series with a NaN or infinite return is that series' own error, in
    the fit and in the forecast, without a warning (pytest makes every
    RuntimeWarning an error); the other series get the bits they get in a
    batch without it."""

    CONFIG = HmmConfig(n_states=3)
    BAD = {1: np.nan, 3: np.inf, 4: -np.inf}

    @pytest.fixture(scope="class")
    def batches(self):
        clean = np.stack([regime_returns(800 + s, 120) for s in range(6)])
        dirty = clean.copy()
        for s, value in self.BAD.items():
            dirty[s, 100] = value
        return clean, dirty, [s for s in range(6) if s not in self.BAD]

    def assert_bad_series_errors(self, results):
        for s in self.BAD:
            assert isinstance(results[s], InvalidInputError)
            assert str(results[s]) == "log returns require finite positive closes"

    def test_fit_batch(self, batches):
        clean, dirty, good = batches
        got = fit_batch(dirty, self.CONFIG, list(range(6)))
        self.assert_bad_series_errors(got)
        for s, want in zip(good, fit_batch(clean[good], self.CONFIG, good)):
            assert_same_model(got[s], want)
            assert got[s].log_likelihood_path == want.log_likelihood_path
            assert got[s].diagnostics == want.diagnostics

    def test_forecast(self, batches):
        clean, dirty, good = batches
        models = fit_batch(clean[:, :80], self.CONFIG, list(range(6)))
        got = forecast(models, dirty[:, -60:])
        self.assert_bad_series_errors(got)
        want = forecast([models[s] for s in good], clean[good, -60:])
        assert all(isinstance(w, DirectionForecast) for w in want)
        assert_same_forecasts([got[s] for s in good], want)

    def test_whole_batch_bad(self, batches):
        _, dirty, _ = batches
        bad = list(self.BAD)
        self.assert_bad_series_errors(dict(zip(bad, fit_batch(dirty[bad], self.CONFIG, bad))))


class TestForwardPosterior:
    """The filtered posterior behind forecast, and forecast's errors."""

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
            forecast([model], np.zeros(5))

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
        batch = forecast([broken.get(s, m) for s, m in enumerate(models)], returns)
        for s, (got, model, row) in enumerate(zip(batch, models, returns)):
            if s in broken:
                (alone,) = forecast([broken[s]], row[None])
                assert isinstance(alone, NumericalError)
                assert str(got) == str(alone)
            else:
                assert got == forecast([model], row[None])[0]

    def test_posteriors_own_their_memory(self):
        # A forecast holds plain floats, so it keeps no forward array alive.
        returns = np.stack([regime_returns(600 + s, 60) for s in range(3)])
        models = [fit_one(r, HmmConfig(n_states=2), s) for s, r in enumerate(returns)]
        batch = forecast(models, returns)
        (single,) = forecast(models[:1], returns[:1])
        for result in [*batch, single]:
            assert isinstance(result, DirectionForecast)
            assert type(result.expected_return) is float
        assert batch[0] == single

    @pytest.mark.parametrize("bad", [0.0, -1e-4, float("nan")])
    def test_non_positive_variance_raises(self, bad):
        model = build_model([0.5, 0.5], np.eye(2), [0.0, 0.01], [1e-4, bad])
        assert isinstance(posterior_one(model, [0.01, -0.02]), NumericalError)
        (error,) = forecast([model], np.array([[0.01, -0.02]]))
        assert isinstance(error, NumericalError) and "must be positive" in str(error)


class TestPredictDirection:
    """The expected-return rule of forecast's batched step, on hand-made posteriors."""

    def test_identity_transition_up(self):
        model = build_model([1, 0], np.eye(2), [0.01, -0.01], [1e-4, 1e-4])
        forecast = forecast_from(model, np.array([1.0, 0.0]))
        assert forecast.expected_return == pytest.approx(0.01)
        assert forecast.direction == "up"

    def test_identity_transition_down(self):
        model = build_model([0, 1], np.eye(2), [0.01, -0.01], [1e-4, 1e-4])
        forecast = forecast_from(model, np.array([0.0, 1.0]))
        assert forecast.expected_return == pytest.approx(-0.01)
        assert forecast.direction == "down"

    def test_zero_means_flat(self):
        model = build_model([0.5, 0.5], np.eye(2), [0.0, 0.0], [1e-4, 1e-4])
        forecast = forecast_from(model, np.array([0.5, 0.5]))
        assert forecast.expected_return == 0.0
        assert forecast.direction == "flat"

    def test_label_permutation_invariance(self):
        rng = np.random.default_rng(31)
        model = fit_one(rng.normal(0.0005, 0.01, 200), HmmConfig(n_states=3), 5)
        returns = rng.normal(0.0005, 0.01, 40)
        posterior = posterior_one(model, returns)
        base = forecast_from(model, posterior)

        perm = np.array([2, 0, 1])
        permuted = HmmModel(
            initial_probs=model.initial_probs[perm],
            transition=model.transition[np.ix_(perm, perm)],
            mean_returns=model.mean_returns[perm],
            variances=model.variances[perm],
        )
        shuffled = forecast_from(permuted, posterior_one(permuted, returns))
        assert shuffled.expected_return == pytest.approx(base.expected_return, abs=1e-12)
        assert shuffled.direction == base.direction

    def test_scale_consistency(self):
        rng = np.random.default_rng(37)
        model = fit_one(rng.normal(0.001, 0.01, 150), HmmConfig(n_states=2), 8)
        posterior = posterior_one(model, rng.normal(0, 0.01, 30))
        base = forecast_from(model, posterior)
        for scale in (0.5, 3.0, 100.0):
            scaled = HmmModel(
                initial_probs=model.initial_probs,
                transition=model.transition,
                mean_returns=model.mean_returns * scale,
                variances=model.variances,
            )
            assert forecast_from(scaled, posterior).direction == base.direction


class TestForecast:
    """forecast gives each series the bits of the per-model path it replaced:
    one batched filter, then predict_direction on the series' posterior."""

    @pytest.mark.parametrize("n_states", [1, 2, 3, 5, 9])
    @pytest.mark.parametrize("n_series", [1, 7, 240])
    def test_matches_reference_bit_for_bit(self, n_series, n_states):
        # Below four states OpenBLAS's gemv gave strided operands other bits.
        rng = np.random.default_rng(2000 * n_series + n_states)
        obs, means, variances, pi, trans = hazard_batch(rng, n_series, n_states, 60)
        if n_series >= 4:
            obs[3, 20] = np.nan
        models = [build_model(*p) for p in zip(pi, trans, means, variances)]
        got = forecast(models, obs)
        assert_same_forecasts(got, reference_forecast(models, obs))
        if n_series >= 4:
            # A non-positive variance and a collapse err, and so does a NaN
            # window, as that series' own error.
            assert "must be positive" in str(got[1])
            assert (n_states > 1) == ("collapsed at t=5" in str(got[2]))
            assert isinstance(got[3], InvalidInputError)
            assert str(got[3]) == "log returns require finite positive closes"

    @pytest.mark.parametrize("n_states", [2, 5])
    def test_fitted_models_match_reference(self, n_states):
        returns = np.stack([regime_returns(700 + s, 120) for s in range(24)])
        models = fit_batch(returns[:, :100], HmmConfig(n_states=n_states), list(range(24)))
        assert all(isinstance(m, HmmModel) for m in models)
        windows = returns[:, -60:]
        assert_same_forecasts(forecast(models, windows), reference_forecast(models, windows))

    def test_one_model_per_series(self):
        model = build_model([1.0], [[1.0]], [0.0], [1e-4])
        with pytest.raises(ParameterError):
            forecast([model, model], np.zeros((1, 5)))

    def test_empty_batch(self):
        assert forecast([], np.empty((0, 10))) == []
        with pytest.raises(InsufficientDataError):
            forecast([], np.empty((0, 0)))


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
