import copy
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from duotrader import regime_hmm
from duotrader.directions import sign_direction
from duotrader.errors import (
    InsufficientDataError,
    InvalidInputError,
    NumericalError,
    ParameterError,
)
from duotrader.marketdata import synth_regime_series
from duotrader.regime_hmm import (
    LOG_2PI,
    MIN_SAMPLES_PER_STATE,
    VARIANCE_FLOOR,
    DirectionForecast,
    HmmConfig,
    HmmModel,
    _backward,
    _Buffers,
    _filter,
    _forward,
    _initial_parameters,
    _m_step,
    fit_batch,
    forecast,
)

from conftest import log_returns


def build_model(pi, trans, means, variances):
    """Hand-assembled model row: one series' (K,) and (K, K) parameters."""
    return HmmModel(*(np.asarray(p, dtype=float) for p in (pi, trans, means, variances)))


def stack(rows):
    """The stacked models whose row s is ``rows[s]``."""
    return HmmModel(*(np.stack(p) for p in zip(*rows)))


def row(models, s):
    """Row s of stacked models, as a view; ``stack([row(models, s)])`` is a
    fresh stack of one."""
    return HmmModel(*(p[s] for p in models))


def regime_returns(seed, n_returns):
    bars, _ = synth_regime_series(
        seed, n_returns + 1, [(0.001, 0.008), (-0.0015, 0.02)], [[0.96, 0.04], [0.05, 0.95]]
    )
    return log_returns(bars.close)


def fit_one(returns, config, seed=0):
    """The model row and fit record fit_batch gives one series in a batch of one."""
    models, (record,) = fit_batch(np.asarray(returns, dtype=float)[None], config, [seed])
    assert isinstance(record, dict), record
    return row(models, 0), record


def forward_pass(obs, means, variances, pi, trans):
    """_forward on fresh buffers of the batch's width: (buffers, log-likelihoods, errors)."""
    buffers = _Buffers(obs.shape[1], pi.shape[1], obs.shape[0])
    return (buffers, *_forward(obs, means, variances, pi, trans, buffers))


def posterior_one(model, returns):
    """The filtered posterior of one series under one model, or its error."""
    alphas, (error,) = _filter(stack([model]), np.asarray(returns, dtype=float)[None])
    return alphas[0, -1] if error is None else error


def forecast_from(model, posterior):
    """forecast's batched expected-return step on a hand-made posterior: the
    filter is replaced by one whose last step is that posterior."""
    filtered = np.asarray(posterior, dtype=float)[None, None, :]
    with mock.patch.object(regime_hmm, "_filter", return_value=(filtered, [None])):
        (result,) = forecast(stack([model]), [0], np.zeros((1, 1)))
    return result


def assert_same_forecasts(got, want):
    """Bit-for-bit equal forecasts, and errors of one type and text."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert type(g) is type(w) and str(g) == str(w)
        if isinstance(w, DirectionForecast):
            assert type(g.expected_return) is float and g.direction == w.direction
            assert g.expected_return.hex() == w.expected_return.hex()


def assert_same_fit(got, s, want, w=0):
    """Series s of one fit_batch result and series w of another: equal fit
    records and the same bytes in every stacked parameter, or errors of one
    type and text."""
    if isinstance(want[1][w], Exception):
        assert type(got[1][s]) is type(want[1][w]) and str(got[1][s]) == str(want[1][w])
        return
    assert got[1][s] == want[1][w]
    for have, ref in zip(got[0], want[0]):
        assert_same_bytes(have[s], ref[w])


def assert_same_bytes(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def assert_close(got, want):
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


def normal_pdf(x, mean, var):
    return math.exp(-0.5 * (x - mean) ** 2 / var) / math.sqrt(2 * math.pi * var)


# Plain-math references, one series at a time: the scaled forward-backward
# pass and the EM re-estimates as written in Rabiner (Proc. IEEE 1989), with
# no batch, no buffer reuse and no chosen summation order. The batched code
# matches them to rtol 1e-12; its bits are pinned only against itself, by
# TestBatchInvariance.


def reference_forward(x, means, variances, pi, trans):
    """(alphas (T, K), norms (T,), log-likelihood, b (T, K)) of one series."""
    log_b = -0.5 * (LOG_2PI + np.log(variances) + (x[:, None] - means) ** 2 / variances)
    shifts = log_b.max(axis=1)
    b = np.exp(log_b - shifts[:, None])
    alphas, norms = np.empty_like(b), np.empty(x.size)
    for t in range(x.size):
        a = (pi if t == 0 else alphas[t - 1] @ trans) * b[t]
        norms[t] = a.sum()
        alphas[t] = a / norms[t]
    return alphas, norms, np.log(norms).sum() + shifts.sum(), b


def reference_backward(b, trans, norms):
    """(T, K) backward variables of one series, scaled by its forward norms."""
    betas = np.ones_like(b)
    for t in range(b.shape[0] - 2, -1, -1):
        betas[t] = trans @ (b[t + 1] * betas[t + 1]) / norms[t + 1]
    return betas


def reference_m_step(x, alphas, betas, b, norms, trans, means, variances, floor):
    """One series' (pi, trans, means, variances, floored) re-estimate."""
    gammas = alphas * betas
    gammas /= gammas.sum(axis=1, keepdims=True)
    xi = trans * sum(
        np.outer(alphas[t], b[t + 1] * betas[t + 1] / norms[t + 1]) for t in range(x.size - 1)
    )
    from_counts = gammas[:-1].sum(axis=0)
    live_rows = from_counts > 1e-12
    new_trans = np.where(
        live_rows[:, None], xi / np.where(live_rows, from_counts, 1.0)[:, None], trans
    )
    new_trans = np.clip(new_trans, 0.0, None)
    occupancy = gammas.sum(axis=0)
    live = occupancy > 1e-10
    weights = np.where(live, occupancy, 1.0)
    new_means = x @ gammas / weights
    new_vars = (gammas * (x[:, None] - new_means) ** 2).sum(axis=0) / weights
    return (
        gammas[0] / gammas[0].sum(),
        new_trans / new_trans.sum(axis=1, keepdims=True),
        np.where(live, new_means, means),
        np.where(live, np.maximum(new_vars, floor), variances),
        np.any(live & (new_vars < floor)),
    )


def reference_initial_parameters(obs, config, seed):
    """Deterministic seeded initialization of one series."""
    n_states = config.n_states
    order = np.argsort(obs, kind="stable")
    means = np.array([obs[idx].mean() for idx in np.array_split(order, n_states)])

    centered = obs - obs.mean()
    pooled = max((centered @ centered) / obs.size, VARIANCE_FLOOR)
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


def reference_expected_return(model, x):
    """One series' expected next return under its last filtered posterior."""
    alphas, *_ = reference_forward(
        x, model.mean_returns, model.variances, model.initial_probs, model.transition
    )
    return alphas[-1] @ model.transition @ model.mean_returns


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
        model, _ = fit_one(returns, HmmConfig(n_states=1), 4)
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
        (a, a_record), (b, b_record) = (fit_one(returns, HmmConfig(n_states=3), 9) for _ in "ab")
        assert np.array_equal(a.mean_returns, b.mean_returns)
        assert np.array_equal(a.transition, b.transition)
        assert np.array_equal(a.variances, b.variances)
        assert a_record == b_record

    def test_two_regime_recovery(self):
        # oracle: the synthetic generator's known drifts
        bars, _ = synth_regime_series(
            7, 2001, [(0.002, 0.005), (-0.002, 0.005)],
            [[0.995, 0.005], [0.005, 0.995]],
        )
        returns = log_returns(bars.close)
        model, _ = fit_one(returns, HmmConfig(n_states=2, max_iterations=40), 7)
        recovered = np.sort(model.mean_returns)
        for got, want in zip(recovered, (-0.002, 0.002)):
            assert abs(got - want) / abs(want) < 0.20

    def test_too_short_sequence(self):
        with pytest.raises(InsufficientDataError):
            fit_one(np.zeros(19), HmmConfig(n_states=2))

    def test_constant_returns_floors_variance(self):
        model, record = fit_one(np.full(40, 0.001), HmmConfig(n_states=1))
        assert model.variances[0] >= VARIANCE_FLOOR
        assert record["variance_floored"]

    def test_unvisited_source_state_keeps_finite_row(self):
        # the outlier's state is occupied only at the last step, so its row
        # of expected outgoing transitions is empty
        returns = np.concatenate([np.zeros(50), [0.5]])
        model, _ = fit_one(returns, HmmConfig(n_states=2), 1)
        assert np.all(np.isfinite(model.transition))
        assert model.transition.sum(axis=1) == pytest.approx([1.0, 1.0])
        assert model.mean_returns[1] == pytest.approx(0.5)

    def test_monotone_log_likelihood(self):
        rng = np.random.default_rng(11)
        for trial in range(10):
            returns = rng.normal(0.0, 0.01, 120)
            _, record = fit_one(returns, HmmConfig(n_states=int(rng.integers(1, 5))), trial)
            path = record["log_likelihood_path"]
            assert all(b - a >= -1e-8 for a, b in zip(path, path[1:]))

    def test_stochasticity_invariants(self):
        rng = np.random.default_rng(13)
        returns = rng.normal(0.0, 0.01, 200)
        model, _ = fit_one(returns, HmmConfig(n_states=4), 2)
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
        model, record = fit_one(returns, HmmConfig(n_states=5), 17)
        assert record["iterations"] == 10
        np.testing.assert_allclose(record["log_likelihood_path"], self.PATH, rtol=1e-9, atol=0)
        np.testing.assert_allclose(model.mean_returns, self.MEANS, rtol=1e-9, atol=0)
        np.testing.assert_allclose(model.variances, self.VARIANCES, rtol=1e-9, atol=0)
        np.testing.assert_allclose(model.transition, self.TRANSITION, rtol=1e-9, atol=0)


class TestMStep:
    def test_matches_reference(self):
        rng = np.random.default_rng(23)
        for _ in range(6):
            n_series, n_obs = int(rng.integers(4, 7)), int(rng.integers(30, 130))
            ok = [0, *range(3, n_series)]  # the constant series, and none that fails
            batch = hazard_batch(rng, n_series, 4, n_obs)
            obs, means, variances, pi, trans = (a[ok] for a in batch)
            buffers, _, errors = forward_pass(obs, means, variances, pi, trans)
            assert errors == [None] * len(ok)
            _backward(buffers, trans)
            # Copies: the M-step overwrites its buffers.
            alphas, betas, b, norms = (
                a.copy() for a in (buffers.alphas, buffers.betas, buffers.b, buffers.norms)
            )
            got = _m_step(obs, buffers, trans, means, variances)
            assert got[4][0] and not got[4][1:].all()
            assert np.all(got[2][:, -1] == 5.0)  # the dead state kept its mean
            for s in range(len(ok)):
                want = reference_m_step(
                    obs[s], alphas[:, :, s], betas[:, :, s], b[:, :, s], norms[:, s],
                    trans[s], means[s], variances[s], VARIANCE_FLOOR,
                )
                for have, ref in zip(got, want):
                    assert_close(have[s], ref)


class TestTimeMajorEStep:
    """The E-step on series-last (T, K, S) arrays and the batched
    initialization match the per-series formulas to rtol 1e-12 on every kind
    of series."""

    CASES = [(1, 1), (1, 5), (7, 1), (7, 2), (7, 5), (7, 9), (240, 5)]

    @pytest.mark.parametrize("n_series,n_states", CASES)
    def test_forward_backward_match_reference(self, n_series, n_states):
        rng = np.random.default_rng(1000 * n_series + n_states)
        batch = hazard_batch(rng, n_series, n_states, int(rng.integers(20, 120)))
        buffers, log_likelihood, errors = forward_pass(*batch)
        alphas, norms, b = buffers.alphas, buffers.norms, buffers.b
        n_obs = batch[0].shape[1]
        assert alphas.shape == b.shape == (n_obs, n_states, n_series)  # series last
        assert norms.shape == (n_obs, n_series)
        assert alphas.flags.c_contiguous and b.flags.c_contiguous
        if n_series >= 4:
            assert "must be positive" in str(errors[1])
            assert (n_states > 1) == ("collapsed at t=5" in str(errors[2]))
        obs, means, variances, pi, trans = batch
        betas = _backward(buffers, trans)
        assert betas.shape == alphas.shape and betas.flags.c_contiguous
        for s in np.flatnonzero([error is None for error in errors]):
            want = reference_forward(obs[s], means[s], variances[s], pi[s], trans[s])
            for have, ref in zip((alphas[:, :, s], norms[:, s], log_likelihood[s], b[:, :, s]), want):
                assert_close(have, ref)
            assert_close(betas[:, :, s], reference_backward(b[:, :, s], trans[s], norms[:, s]))
        # _filter's (S, T, K) view of the same forward pass.
        filtered, _ = _filter(HmmModel(pi, trans, means, variances), obs)
        assert filtered.base is not None  # a view, not a copy
        assert np.array_equal(filtered, alphas.transpose(2, 0, 1), equal_nan=True)

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
        for s, (row, seed) in enumerate(zip(obs, seeds)):
            for have, ref in zip(got, reference_initial_parameters(row, config, seed)):
                assert_close(have[s], ref)


class TestBatchInvariance:
    """A series gets the same bytes at any position of a batch as in a fresh
    contiguous batch of one, from every batched routine: so the bits of a
    fit or a forecast depend neither on which symbols share its batch nor on
    the number of worker processes that split the batches. A forecast
    gathers its model rows out of order and with repeats, and each gathered
    row gives the bits of that model in a stack of one."""

    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(st.integers(1, 12), st.integers(1, 9), st.integers(0, 30), st.integers(0, 2**32 - 1))
    def test_series_bits_do_not_depend_on_the_batch(self, n_series, n_states, extra, seed):
        rng = np.random.default_rng(seed)
        batch = hazard_batch(rng, n_series, n_states, MIN_SAMPLES_PER_STATE * n_states + extra)
        obs, means, variances, pi, trans = batch
        config = HmmConfig(n_states=n_states, max_iterations=3)
        seeds = [int(s) for s in rng.integers(0, 2**31, size=n_series)]
        models = HmmModel(pi, trans, means, variances)
        # Each series under its own model, then random rows and windows.
        extra = rng.integers(n_series, size=(2, n_series))
        rows, windows = [*range(n_series), *extra[0]], obs[[*range(n_series), *extra[1]]]

        buffers, log_likelihood, errors = forward_pass(*batch)
        _backward(buffers, trans)
        ok = [s for s, error in enumerate(errors) if error is None]  # the series EM steps
        # The series that fail leave the batch, as in fit_batch; the M-step
        # runs on buffers of the series left, so it overwrites none of the above.
        kept = forward_pass(*(a[ok] for a in batch))[0]
        _backward(kept, trans[ok])
        m_step = _m_step(obs[ok], kept, trans[ok], means[ok], variances[ok])
        initial = _initial_parameters(obs, config, seeds)
        fits = fit_batch(obs, config, seeds)
        forecasts = forecast(models, rows, windows)

        for s in range(n_series):
            x, mu, var, p0, tr = (np.ascontiguousarray(a[s:s + 1]) for a in batch)
            alone, ll_alone, (error_alone,) = forward_pass(x, mu, var, p0, tr)
            assert str(error_alone) == str(errors[s])
            betas_alone = _backward(alone, tr)
            batched = (buffers.alphas, buffers.norms, log_likelihood, buffers.b, buffers.betas)
            for have, own in zip(batched, (alone.alphas, alone.norms, ll_alone, alone.b, betas_alone)):
                assert_same_bytes(np.take(have, [s], axis=-1), own)  # series are the last axis
            if s in ok:
                own = _m_step(x, alone, tr, mu, var)
                for have, want in zip(m_step, own):
                    assert_same_bytes(have[ok.index(s)], want[0])
            for have, want in zip(initial, _initial_parameters(x, config, seeds[s:s + 1])):
                assert_same_bytes(have[s], want[0])
            assert_same_fit(fits, s, fit_batch(x, config, seeds[s:s + 1]))
        for got, r, window in zip(forecasts, rows, windows):
            assert_same_forecasts([got], forecast(stack([row(models, r)]), [0], window[None]))


class TestStateSumOrder:
    """The forward norms and the backward betas sum over states left to
    right, as a plain Python ``sum`` does, at every number of states and
    batch width. Every other operation is recomputed here one IEEE float at
    a time: the forward product sum_i alpha_i A_ij left to right, and the
    products and quotients of the recursions. Widths 1 and 7 and 8-9 states
    are kept because there numpy's own reductions would break batch
    invariance: over a wider batch both add the states left to right, but in
    a batch of one ``einsum("js->s")`` adds them in two lanes from 3 states
    up and ``np.add.reduce`` pairwise from 8 states up."""

    @pytest.mark.parametrize("n_states", range(1, 10))
    @pytest.mark.parametrize("n_series", [1, 7])
    def test_norms_and_betas_add_left_to_right(self, n_series, n_states):
        rng = np.random.default_rng(3000 * n_series + n_states)
        obs, means, variances, pi, trans = hazard_batch(rng, n_series, n_states, 40)
        buffers, _, errors = forward_pass(obs, means, variances, pi, trans)
        betas = _backward(buffers, trans)
        alphas, norms, b = buffers.alphas.tolist(), buffers.norms.tolist(), buffers.b.tolist()
        betas, trans = betas.tolist(), trans.tolist()
        states = range(n_states)
        for s in np.flatnonzero([error is None for error in errors]):
            for t in range(obs.shape[1]):
                a = [
                    (sum(alphas[t - 1][i][s] * trans[s][i][j] for i in states) if t else pi[s, j])
                    * b[t][j][s]
                    for j in states
                ]
                assert norms[t][s] == sum(a)
                assert [alphas[t][k][s] for k in states] == [x / norms[t][s] for x in a]
            for t in range(obs.shape[1] - 1):
                step = [b[t + 1][j][s] / norms[t + 1][s] * betas[t + 1][j][s] for j in states]
                for i in states:
                    assert betas[t][i][s] == sum(trans[s][i][j] * step[j] for j in states)


class TestTimeSumOrder:
    """The M-step sums each live state's gammas over time as numpy's own
    ``.sum()`` sums that state's contiguous time row (pairwise), at every
    number of states and batch width; its new mean and variance are the
    quotients of those sums. The gammas are recomputed here one IEEE float at
    a time, alpha times beta over its left-to-right sum over states."""

    @pytest.mark.parametrize("n_states", range(1, 10))
    @pytest.mark.parametrize("n_series", [1, 7])
    def test_means_and_variances_sum_each_time_row(self, n_series, n_states):
        rng = np.random.default_rng(4000 * n_series + n_states)
        batch = hazard_batch(rng, n_series, n_states, 40)
        _, _, errors = forward_pass(*batch)
        obs, means, variances, pi, trans = (a[[e is None for e in errors]] for a in batch)
        buffers = forward_pass(obs, means, variances, pi, trans)[0]
        _backward(buffers, trans)
        alphas, betas = buffers.alphas.tolist(), buffers.betas.tolist()
        _, _, new_means, new_vars, _ = _m_step(obs, buffers, trans, means, variances)
        states, live_states = range(n_states), 0
        for s, x in enumerate(obs.tolist()):
            products = [[alphas[t][k][s] * betas[t][k][s] for k in states] for t in range(len(x))]
            for k in states:
                gammas = [p[k] / sum(p) for p in products]
                occupancy = np.array(gammas).sum()
                if occupancy <= 1e-10:
                    continue  # a dead state keeps its mean and variance
                live_states += 1
                mean = np.array([g * xt for g, xt in zip(gammas, x)]).sum() / occupancy
                spread = np.array([g * (xt - mean) * (xt - mean) for g, xt in zip(gammas, x)])
                assert new_means[s, k] == mean
                assert new_vars[s, k] == max(spread.sum() / occupancy, VARIANCE_FLOOR)
        assert live_states >= len(obs)


class TestBuffers:
    def test_models_own_their_memory(self):
        """Models share no memory with the buffers fit_batch reuses or with
        a later call's models, and a later call leaves them as they were."""
        returns = np.stack([regime_returns(900 + s, 120) for s in range(6)])
        config = HmmConfig(n_states=3)
        made = []

        def spy(*shape):
            made.append(_Buffers(*shape))
            return made[-1]

        with mock.patch.object(regime_hmm, "_Buffers", side_effect=spy):
            first, records = fit_batch(returns, config, list(range(6)))
            assert len(made) == 1
            kept = copy.deepcopy((first, records))
            forecasts = forecast(first, range(6), returns[:, -60:])
            second, _ = fit_batch(returns[::-1].copy(), config, list(range(6)))
        assert len(made) == 3  # one per fit_batch and one per forecast
        storage = [array for buffers in made for array in vars(buffers).values()]
        for array, want in zip(first, kept[0]):
            assert not any(np.shares_memory(array, other) for other in storage + list(second))
            assert_same_bytes(array, want)
        assert records == kept[1]
        assert_same_forecasts(forecast(first, range(6), returns[:, -60:]), forecasts)


class TestFitBatch:
    CONFIG = HmmConfig(n_states=3, max_iterations=60)

    def test_equals_per_series_fit(self):
        returns = np.stack([regime_returns(300 + s, 251) for s in range(12)])
        seeds = [11 * s + 1 for s in range(12)]
        batch = fit_batch(returns, self.CONFIG, seeds)
        # the series stop on different iterations, some at the cap
        iterations = {record["iterations"] for record in batch[1]}
        assert len(iterations) > 2 and 60 in iterations
        for s, seed in enumerate(seeds):
            assert_same_fit(batch, s, fit_batch(returns[s:s + 1], self.CONFIG, [seed]))

    def test_failing_series_isolated(self, monkeypatch):
        """One series fails on the first forward pass, one mid-EM while the
        others run on: each failed series leaves the batch with its
        batch-of-one error, and the others keep their batch-of-one bits."""
        monkeypatch.setattr(regime_hmm, "VARIANCE_FLOOR", 0.0)  # a variance can collapse
        config = HmmConfig(n_states=3, max_iterations=60)
        sparse = np.zeros(120)
        sparse[::12] = regime_returns(43, 120)[::12]  # 10 nonzero returns
        # Its first five forward passes succeed; a state's variance hits 0 on the sixth.
        _, record = fit_one(sparse, HmmConfig(n_states=3, max_iterations=4), 4)
        assert record["iterations"] == 4
        returns = np.stack([regime_returns(41, 120), np.zeros(120), regime_returns(42, 120), sparse])
        batch = fit_batch(returns, config, [1, 2, 3, 4])
        assert [batch[1][s]["iterations"] for s in (0, 2)] == [60, 60]  # they outlast it
        for s in range(4):
            assert_same_fit(batch, s, fit_batch(returns[s:s + 1], config, [s + 1]))
        for s in (1, 3):
            assert isinstance(batch[1][s], NumericalError)
            assert all(np.isnan(p[s]).all() for p in batch[0])  # a failed fit's row is NaN
        pair = fit_batch(returns[::2], config, [1, 3])
        for s, w in ((0, 0), (2, 1)):
            assert_same_fit(batch, s, pair, w)

    def test_whole_batch_errors(self):
        with pytest.raises(InsufficientDataError):
            fit_batch(np.zeros((3, 29)), self.CONFIG, [0, 1, 2])
        with pytest.raises(InvalidInputError):
            fit_batch(np.zeros(60), self.CONFIG, [0])
        with pytest.raises(ParameterError):
            fit_batch(np.zeros((2, 60)), self.CONFIG, [0])
        models, records = fit_batch(np.zeros((0, 60)), self.CONFIG, [])
        assert records == [] and models.transition.shape == (0, 3, 3)


class TestNonFiniteSeries:
    """A batch that holds a NaN or infinite return is refused for the whole
    call, in the fit and in the forecast, without a warning (pytest makes
    every RuntimeWarning an error). The plan's returns are logs of closes
    that SymbolBars holds positive and finite, so only a direct caller can
    pass one."""

    CONFIG = HmmConfig(n_states=3)
    BAD = {1: np.nan, 3: np.inf, 4: -np.inf}
    REFUSED = "^returns must be finite$"

    @pytest.fixture(scope="class")
    def batches(self):
        clean = np.stack([regime_returns(800 + s, 120) for s in range(6)])
        dirty = clean.copy()
        for s, value in self.BAD.items():
            dirty[s, 100] = value
        return clean, dirty

    def test_fit_batch(self, batches):
        _, dirty = batches
        with pytest.raises(InvalidInputError, match=self.REFUSED):
            fit_batch(dirty, self.CONFIG, list(range(6)))

    def test_forecast(self, batches):
        clean, dirty = batches
        models, _ = fit_batch(clean[:, :80], self.CONFIG, list(range(6)))
        assert all(isinstance(f, DirectionForecast) for f in forecast(models, range(6), clean))
        with pytest.raises(InvalidInputError, match=self.REFUSED):
            forecast(models, range(6), dirty[:, -60:])

    def test_whole_batch_bad(self, batches):
        # Each bad series alone, then all of them in one batch.
        _, dirty = batches
        bad = list(self.BAD)
        for series in [*([s] for s in bad), bad]:
            with pytest.raises(InvalidInputError, match=self.REFUSED):
                fit_batch(dirty[series], self.CONFIG, series)


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
        model, _ = fit_one(rng.normal(0, 0.01, 150), HmmConfig(n_states=3), 1)
        posterior = posterior_one(model, rng.normal(0, 0.01, 50))
        assert posterior.sum() == pytest.approx(1.0, abs=1e-9)

    def test_takes_only_a_batch(self):
        model = build_model([1.0], [[1.0]], [0.0], [1e-4])
        with pytest.raises(InvalidInputError):
            forecast(stack([model]), [0], np.zeros(5))

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
        models = [fit_one(r, HmmConfig(n_states=3), s)[0] for s, r in enumerate(returns)]
        nan_variance = build_model(
            [0.4, 0.3, 0.3], np.eye(3), [0.0, 0.01, -0.01], [1e-4, float("nan"), 1e-4]
        )
        collapsing = build_model([1.0, 0.0, 0.0], np.eye(3), [1.0, 0.0, 0.0], [1e-8] * 3)
        broken = {1: nan_variance, 4: collapsing}
        batch = forecast(stack([broken.get(s, m) for s, m in enumerate(models)]), range(6), returns)
        for s, (got, model, window) in enumerate(zip(batch, models, returns)):
            if s in broken:
                (single,) = forecast(stack([broken[s]]), [0], window[None])
                assert isinstance(single, NumericalError)
                assert str(got) == str(single)
            else:
                assert got == forecast(stack([model]), [0], window[None])[0]

    def test_posteriors_own_their_memory(self):
        # A forecast holds plain floats, so it keeps no forward array alive.
        returns = np.stack([regime_returns(600 + s, 60) for s in range(3)])
        models = stack([fit_one(r, HmmConfig(n_states=2), s)[0] for s, r in enumerate(returns)])
        batch = forecast(models, range(3), returns)
        (single,) = forecast(models, [0], returns[:1])
        for result in [*batch, single]:
            assert isinstance(result, DirectionForecast)
            assert type(result.expected_return) is float
        assert batch[0] == single

    @pytest.mark.parametrize("bad", [0.0, -1e-4, float("nan")])
    def test_non_positive_variance_raises(self, bad):
        model = build_model([0.5, 0.5], np.eye(2), [0.0, 0.01], [1e-4, bad])
        assert isinstance(posterior_one(model, [0.01, -0.02]), NumericalError)
        (error,) = forecast(stack([model]), [0], np.array([[0.01, -0.02]]))
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
        model, _ = fit_one(rng.normal(0.0005, 0.01, 200), HmmConfig(n_states=3), 5)
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
        model, _ = fit_one(rng.normal(0.001, 0.01, 150), HmmConfig(n_states=2), 8)
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
    """forecast gives each series, whichever model row it gathers, the bits
    of that model's forecast in a stack of one, and the plain math's
    expected return to rtol 1e-12."""

    @staticmethod
    def check(models, rows, obs):
        got = forecast(models, rows, obs)
        for result, r, x in zip(got, rows, obs):
            assert_same_forecasts([result], forecast(stack([row(models, r)]), [0], x[None].copy()))
            if isinstance(result, DirectionForecast):
                assert_close(result.expected_return, reference_expected_return(row(models, r), x))
                assert result.direction == sign_direction(result.expected_return)
        return got

    @pytest.mark.parametrize("n_states", [1, 2, 3, 5, 9])
    @pytest.mark.parametrize("n_series", [1, 7, 240])
    def test_matches_reference_bit_for_bit(self, n_series, n_states):
        rng = np.random.default_rng(2000 * n_series + n_states)
        obs, means, variances, pi, trans = hazard_batch(rng, n_series, n_states, 60)
        # Every series backwards, then some again: rows out of order, with repeats.
        rows = [*range(n_series - 1, -1, -1), *range(0, n_series, 3)]
        got = dict(zip(rows, self.check(HmmModel(pi, trans, means, variances), rows, obs[rows])))
        if n_series >= 4:
            # A non-positive variance and a collapse err, as that series' own error.
            assert "must be positive" in str(got[1])
            assert (n_states > 1) == ("collapsed at t=5" in str(got[2]))

    @pytest.mark.parametrize("n_states", [2, 5])
    def test_fitted_models_match_reference(self, n_states):
        returns = np.stack([regime_returns(700 + s, 120) for s in range(24)])
        models, records = fit_batch(returns[:, :100], HmmConfig(n_states=n_states), list(range(24)))
        assert all(isinstance(record, dict) for record in records)
        rows = [*range(23, -1, -1), 3, 3, 17]
        got = self.check(models, rows, returns[rows, -60:])
        assert all(isinstance(result, DirectionForecast) for result in got)

    def test_one_model_per_series(self):
        model = build_model([1.0], [[1.0]], [0.0], [1e-4])
        with pytest.raises(ParameterError):
            forecast(stack([model]), [0, 0], np.zeros((1, 5)))

    def test_empty_batch(self):
        models = stack([build_model([1.0], [[1.0]], [0.0], [1e-4])])
        assert forecast(models, [], np.empty((0, 10))) == []
        with pytest.raises(InsufficientDataError):
            forecast(models, [], np.empty((0, 0)))


class TestFilteredStates:
    def test_matches_posterior_argmax(self):
        rng = np.random.default_rng(41)
        returns = rng.normal(0, 0.01, 80)
        model, _ = fit_one(returns, HmmConfig(n_states=2), 6)
        alphas, errors = _filter(stack([model]), returns[None])
        assert errors == [None]
        states = np.argmax(alphas[0], axis=1)
        assert states.shape == (80,)
        assert states[-1] == np.argmax(posterior_one(model, returns))
