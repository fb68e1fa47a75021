"""Gaussian hidden Markov regime model over one stock's daily log returns.

Observations are univariate: every state k carries a mean return and a
variance, never below ``VARIANCE_FLOOR``. Fitting is expectation-maximization
with a scaled forward-backward pass, run until an iteration gains less
log-likelihood than ``CONVERGENCE_TOL``, or for at most
``HmmConfig.max_iterations`` iterations; the M-step updates every live state
at once. Only the state count and the iteration cap are configurable. Every
routine works on S series at once.
Parameters are (S, K) and (S, K, K); the emission, forward and backward
arrays are series-last (T, K, S), so every elementwise op and every sum over
states in the recursions runs along contiguous rows of S series, and the
M-step copies the gammas time-last (S, K, T), so every sum over time runs
along one contiguous (series, state) row. ``fit_batch`` fits one model
per series, in arrays it allocates once per batch width and reuses every EM
iteration, and returns them as one stack (``HmmModel``, row s series s's);
``forecast`` gathers a row of the stack for each series it filters, so one
model can serve several windows. Both refuse a batch holding a non-finite
return (which no plan holds) with an InvalidInputError. A series gets the same
bits in any batch and under any BLAS: products are two-operand
``np.einsum`` calls or elementwise, every sum over states in the recursions
and the gammas adds the states left to right, every sum over time reads one
contiguous (series, state) row, and no sum's order depends on the batch.

The directional forecast is the sign of the posterior-weighted one-step-ahead
expected return: e = sum_j (sum_i posterior_i A_ij) mean_returns_j.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .directions import sign_direction
from .errors import InsufficientDataError, InvalidInputError, NumericalError, ParameterError

MIN_SAMPLES_PER_STATE = 10
# A fit converges once an EM iteration gains less log-likelihood than this.
CONVERGENCE_TOL = 1e-4
# The least variance a state's Gaussian keeps, so a state fitted to
# identical returns still has a density.
VARIANCE_FLOOR = 1e-12
LOG_2PI = np.log(2.0 * np.pi)


@dataclass
class HmmConfig:
    n_states: int = 5
    max_iterations: int = 10

    def __post_init__(self):
        if self.n_states < 1:
            raise ParameterError("n_states must be >= 1")
        if self.max_iterations < 1:
            raise ParameterError("max_iterations must be >= 1")


class HmmModel(NamedTuple):
    """Fitted models of S series, stacked: row s of each array is series s's
    state distribution, transitions or Gaussian emissions."""

    initial_probs: np.ndarray      # (S, K)
    transition: np.ndarray         # (S, K, K), row-stochastic
    mean_returns: np.ndarray       # (S, K)
    variances: np.ndarray          # (S, K)


class DirectionForecast(NamedTuple):
    """The one-step-ahead expected return's sign and value, as fusion reads them."""

    direction: str
    expected_return: float


def _as_batch(returns: np.ndarray) -> np.ndarray:
    """(S, T) float returns, C-ordered; InvalidInputError for another shape
    or a non-finite return."""
    obs = np.ascontiguousarray(returns, dtype=float)
    if obs.ndim != 2:
        raise InvalidInputError(f"batched returns must be (series, time), got shape {obs.shape}")
    if not np.isfinite(obs).all():
        raise InvalidInputError("returns must be finite")
    return obs


class _Buffers:
    """The (T, K, S) arrays of a forward-backward pass, and the M-step's two
    (S, K, T - 1) time-last copies for the transition counts, allocated once
    for ``n_series`` series. EM rewrites them every iteration. The copy of the
    alphas (``past``) is a view of ``scaled``, which only the backward pass
    reads. The M-step's gammas and temporaries are (S, K, T) time-last views
    of ``alphas``, ``betas`` and ``b``, each taken once the M-step has read
    what the array held."""

    def __init__(self, n_obs: int, n_states: int, n_series: int):
        self.b, self.alphas, self.betas = (np.empty((n_obs, n_states, n_series)) for _ in range(3))
        self.scaled = np.empty((n_obs - 1, n_states, n_series))
        self.past = self.scaled.reshape(n_series, n_states, n_obs - 1)
        self.future = np.empty((n_series, n_states, n_obs - 1))
        self.norms, self.shifts = np.empty((n_obs, n_series)), np.empty((n_obs, n_series))


def _emission_log_probs(obs, means, variances, out: np.ndarray) -> np.ndarray:
    """Into (T, K, S) out, the log density of every observation of obs (S, T)
    under every state's Gaussian, -0.5 * (log 2pi + log var + (x - mean)^2 / var)."""
    z = np.subtract(obs.T[:, None, :], means.T, out=out)
    z *= z
    z /= variances.T
    z += (LOG_2PI + np.log(variances)).T
    z *= -0.5
    return z


def _forward(obs, means, variances, pi, trans, buffers: _Buffers):
    """Scaled forward pass over S series at once: obs (S, T); means,
    variances and pi (S, K); trans (S, K, K). Writes buffers.b, .alphas (the
    normalized alphas), .norms (T, S) and .shifts at the width of obs.

    Returns (log-likelihoods, errors). b holds the emission probabilities,
    shifted per time step before exponentiation; the shift cancels in the
    normalized recursion and is added back to the log-likelihood, so the
    result is exact even for extreme densities. errors[s] is the
    NumericalError series s ran into, or None; the other outputs of a failed
    series are meaningless.
    """
    n_series, n_states = pi.shape
    errors: list[NumericalError | None] = [None] * n_series
    invalid = ~np.all(variances > 0, axis=1)
    for s in np.flatnonzero(invalid):
        errors[s] = NumericalError(f"state variances must be positive, got {variances[s]}")
    if invalid.any():
        # Harmless stand-ins keep the failed series from raising warnings
        # while the rest of the batch is computed.
        variances = np.where(invalid[:, None], 1.0, variances)
        means = np.where(invalid[:, None], 0.0, means)

    b, alphas, norms = buffers.b, buffers.alphas, buffers.norms
    _emission_log_probs(obs, means, variances, out=b)
    shifts = np.max(b, axis=1, out=buffers.shifts)
    b -= shifts[:, None, :]
    np.exp(b, out=b)
    into = trans.transpose(1, 2, 0).copy()  # [i, j, s]: from state i into state j
    a = np.empty((n_states, n_series))  # alpha_t-1 A, times b_t, before its norm
    sums = np.empty((n_states, n_series))  # running sums of a over states

    # A collapsed series divides by a zero norm and turns NaN from there
    # on; it is reported at its first zero norm, and nothing it computes
    # reaches another series.
    with np.errstate(divide="ignore", invalid="ignore"):
        np.multiply(pi.T, b[0], out=a)
        alpha = None
        for alpha_t, b_t, norm in zip(alphas, b, norms):
            if alpha is not None:
                np.einsum("is,ijs->js", alpha, into, out=a)
                np.multiply(a, b_t, out=a)
            # The last running sum is the norm, added left to right.
            np.add.accumulate(a, axis=0, out=sums)
            np.copyto(norm, sums[-1])
            alpha = np.divide(a, norm, out=alpha_t)
        # Summed pairwise along contiguous rows, as a batch of one would be.
        log_likelihood = np.log(norms.T.copy()).sum(axis=1) + shifts.T.copy().sum(axis=1)
    collapsed = (norms <= 0).T
    for s in np.flatnonzero(collapsed.any(axis=1)):
        if errors[s] is None:
            errors[s] = NumericalError(f"forward recursion collapsed at t={np.argmax(collapsed[s])}")
    return log_likelihood, errors


def _backward(buffers: _Buffers, trans: np.ndarray) -> np.ndarray:
    """Backward pass (Rabiner-style) scaled by the forward norms, into
    buffers.betas (T, K, S): beta_t,i = sum_j A_ij b_t+1,j beta_t+1,j / n_t+1,
    the sum over j left to right. Reads buffers.b and .norms."""
    b, betas, scaled = buffers.b, buffers.betas, buffers.scaled
    betas[-1] = 1.0
    with np.errstate(divide="ignore", invalid="ignore"):  # a collapsed series' zero norms
        np.divide(b[1:], buffers.norms[1:, None, :], out=scaled)
    into = trans.transpose(2, 1, 0).copy()  # [j, i, s]: from state i into state j
    step = np.empty(b.shape[1:])
    for t in range(b.shape[0] - 2, -1, -1):
        np.multiply(scaled[t], betas[t + 1], out=step)
        np.einsum("jis,js->is", into, step, out=betas[t])
    return betas


def _m_step(obs, buffers: _Buffers, trans, means, variances):
    """Re-estimate every series' parameters from one E-step's buffers
    (alphas, betas, b and norms, at the width of obs (S, T)); alphas, betas
    and b are overwritten, as the M-step's temporaries reuse them. Returns
    (pi, trans, means, variances, floored) with floored (S,) marking series
    whose new variance hit VARIANCE_FLOOR in some live state."""
    alphas, betas, b, norms = buffers.alphas, buffers.betas, buffers.b, buffers.norms
    # Expected transition counts, accumulated without materializing the
    # (T, K, K) tensor. With this scaling each xi_t is already a proper
    # posterior, so the sum is the expected count matrix; time-last copies
    # let einsum sum along a contiguous axis, several times faster.
    weighted = b[1:]
    weighted *= betas[1:]
    weighted /= norms[1:, None, :]
    past, future = buffers.past, buffers.future
    np.copyto(past, alphas[:-1].transpose(2, 1, 0))
    np.copyto(future, weighted.transpose(2, 1, 0))
    xi_sum = trans * np.einsum("sit,sjt->sij", past, future)

    # The gammas, time-last (S, K, T) in the alphas' memory: each sum over
    # time is numpy's pairwise sum along one contiguous (series, state) row,
    # and each sum over states adds those rows left to right, in any batch.
    time_last = (obs.shape[0], b.shape[1], obs.shape[1])
    betas *= alphas
    gammas = alphas.reshape(time_last)  # alphas are not needed again
    np.copyto(gammas, betas.transpose(2, 1, 0))
    gammas /= gammas.sum(axis=1, keepdims=True)

    first = np.ascontiguousarray(gammas[:, :, 0])
    pi = first / first.sum(axis=1, keepdims=True)
    # A row whose source state is (almost) never occupied keeps its
    # previous probabilities; the guarded denominator only avoids a
    # division by zero in rows that np.where discards.
    from_counts = gammas[:, :, :-1].sum(axis=2)
    live_rows = from_counts > 1e-12
    new_trans = np.where(
        live_rows[:, :, None],
        xi_sum / np.where(live_rows, from_counts, 1.0)[:, :, None],
        trans,
    )
    new_trans = np.clip(new_trans, 0.0, None)
    trans = new_trans / new_trans.sum(axis=2, keepdims=True)

    # Dead states keep their previous mean and variance.
    occupancy = gammas.sum(axis=2)
    live = ~(occupancy <= 1e-10)
    weights = np.where(live, occupancy, 1.0)
    # b and betas, not needed again, hold the time-last temporaries.
    spread, diff = b.reshape(time_last), betas.reshape(time_last)
    new_means = np.multiply(gammas, obs[:, None, :], out=spread).sum(axis=2) / weights
    np.subtract(obs[:, None, :], new_means[:, :, None], out=diff)
    np.multiply(gammas, diff, out=spread)
    spread *= diff
    new_vars = spread.sum(axis=2) / weights
    floored = np.any(live & (new_vars < VARIANCE_FLOOR), axis=1)
    means = np.where(live, new_means, means)
    variances = np.where(live, np.maximum(new_vars, VARIANCE_FLOOR), variances)
    return pi, trans, means, variances, floored


def _initial_parameters(obs: np.ndarray, config: HmmConfig, seeds: Sequence[int]):
    """Deterministic seeded initialization of the S series of obs (S, T).

    Means come from a quantile split of each series (sorted, cut into
    n_states buckets), every state starts from the series' pooled variance,
    pi is uniform, and the transition matrix puts 0.8 on self-transitions. A
    tiny jitter, seeded by ``seeds[s]``, separates duplicate bucket means so
    EM cannot lock states together on heavily discretized data.
    """
    n_series, n_states = obs.shape[0], config.n_states
    ordered = np.take_along_axis(obs, np.argsort(obs, axis=1, kind="stable"), axis=1)
    buckets = np.array_split(ordered, n_states, axis=1)
    means = np.stack([bucket.mean(axis=1) for bucket in buckets], axis=1)

    centered = obs - obs.mean(axis=1, keepdims=True)
    pooled = np.einsum("st,st->s", centered, centered) / obs.shape[1]
    pooled = np.maximum(pooled, VARIANCE_FLOOR)
    variances = np.repeat(pooled[:, None], n_states, axis=1)
    for row, seed, scale in zip(means, seeds, 1e-6 * (np.sqrt(pooled) + 1e-12)):
        row += np.random.default_rng(seed).normal(0.0, scale, size=n_states)

    pi = np.full((n_series, n_states), 1.0 / n_states)
    trans = np.full((n_states, n_states), 0.2 / max(n_states - 1, 1))
    np.fill_diagonal(trans, 0.8 if n_states > 1 else 1.0)
    return pi, np.repeat(trans[None], n_series, axis=0), means, variances


def fit_batch(
    returns: np.ndarray, config: HmmConfig, seeds: Sequence[int]
) -> tuple[HmmModel, list[dict | NumericalError]]:
    """Fit one model per row of an (S, T) return array by batched EM.

    Series s is initialized from ``seeds[s]`` and stops on its own
    iteration: when its log-likelihood gain drops below CONVERGENCE_TOL or the
    iteration cap is reached. Its recorded per-iteration log-likelihood path
    is non-decreasing (standard EM guarantee). Each series gets exactly the
    model it gets in a batch of one. Returns the stacked models, row s
    series s's (NaN for a failed fit), and one outcome per series: its fit
    record (iterations, converged, variance_floored and the log-likelihood
    of every EM iteration, the last the final parameters'), or the error its
    fit ran into. Raises for the whole batch when the series are too short
    or hold a non-finite return.
    """
    x = _as_batch(returns)
    n_series, n_obs = x.shape
    if n_obs < MIN_SAMPLES_PER_STATE * config.n_states:
        raise InsufficientDataError(
            f"need >= {MIN_SAMPLES_PER_STATE * config.n_states} returns "
            f"for {config.n_states} states, got {n_obs}"
        )
    if len(seeds) != n_series:
        raise ParameterError(f"need one seed per series, got {len(seeds)} for {n_series}")
    rows = np.arange(n_series)  # open fits, in batch order
    initial = _initial_parameters(x, config, seeds)
    models = HmmModel(*(np.full((n_series, *p.shape[1:]), np.nan) for p in initial))
    pi, trans, means, variances = initial
    outcomes: list = [None] * n_series
    paths: list[list[float]] = [[] for _ in range(n_series)]
    floored = np.zeros(n_series, dtype=bool)
    converged = np.zeros(n_series, dtype=bool)
    # A finished series makes one more forward pass, for the log-likelihood
    # of its final parameters (after the last M-step).
    finished = np.zeros(n_series, dtype=bool)
    prev_ll = np.full(n_series, -np.inf)
    iteration = 0

    buffers = _Buffers(n_obs, config.n_states, rows.size)
    while rows.size:
        log_likelihood, errors = _forward(x, means, variances, pi, trans, buffers)
        keep = []
        for pos, row in enumerate(rows):
            if errors[pos] is not None:
                outcomes[row] = errors[pos]
                continue
            paths[row].append(float(log_likelihood[pos]))
            if not finished[row]:
                keep.append(pos)
                continue
            for stack, fitted in zip(models, (pi, trans, means, variances)):
                stack[row] = fitted[pos]
            outcomes[row] = {
                "iterations": len(paths[row]) - 1,
                "converged": bool(converged[row]),
                "variance_floored": bool(floored[row]),
                "log_likelihood_path": paths[row],
            }
        if not keep:
            break
        if len(keep) < rows.size:
            # The series left keep their forward arrays, which the backward
            # pass and the M-step read, in buffers of the new width.
            narrow = _Buffers(n_obs, config.n_states, len(keep))
            for name in ("b", "alphas", "norms"):  # "clip": no buffered copy
                np.take(getattr(buffers, name), keep, axis=-1, out=getattr(narrow, name), mode="clip")
            buffers = narrow
            rows, x, log_likelihood = rows[keep], x[keep], log_likelihood[keep]
            pi, trans, means, variances = pi[keep], trans[keep], means[keep], variances[keep]

        _backward(buffers, trans)
        pi, trans, means, variances, floored_now = _m_step(
            x, buffers, trans, means, variances
        )
        iteration += 1
        floored[rows] |= floored_now
        converged[rows] = log_likelihood - prev_ll[rows] < CONVERGENCE_TOL
        prev_ll[rows] = log_likelihood
        finished[rows] = converged[rows] | (iteration == config.max_iterations)
    return models, outcomes


def _filter(models: HmmModel, returns: np.ndarray):
    """Normalized forward probabilities P(state_t | returns_1..t) of S series,
    row s of the (S, T) returns under row s of the stacked models: (S, T, K)
    alphas (a transposed view of the series-last (T, K, S) forward array) and
    one error (or None) per series."""
    obs = _as_batch(returns)
    if obs.shape[1] == 0:
        raise InsufficientDataError("filtering needs at least one return")
    pi, trans, means, variances = models
    if len(pi) != obs.shape[0]:
        raise ParameterError(f"need one model per series, got {len(pi)} for {obs.shape[0]}")
    buffers = _Buffers(obs.shape[1], pi.shape[1], obs.shape[0])
    _, errors = _forward(obs, means, variances, pi, trans, buffers)
    return buffers.alphas.transpose(2, 0, 1), errors


def forecast(
    models: HmmModel, rows: Sequence[int], returns: np.ndarray
) -> list[DirectionForecast | NumericalError]:
    """One-step-ahead expected returns of S series, and their signs.

    Gathers row ``rows[s]`` of the stacked models for series s of the (S, T)
    returns (a row may serve several series), runs one batched forward pass,
    then takes each series' expected return under its last posterior.
    Returns S entries: each series' forecast, or the error its filter ran
    into.
    """
    gathered = HmmModel(*(np.take(p, rows, axis=0) for p in models))
    alphas, errors = _filter(gathered, returns)
    predicted = np.einsum("si,sij->sj", alphas[:, -1], gathered.transition)
    expected = np.einsum("sj,sj->s", predicted, gathered.mean_returns).tolist()
    return [
        DirectionForecast(sign_direction(e), e) if error is None else error
        for e, error in zip(expected, errors)
    ]
