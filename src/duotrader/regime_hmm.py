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
states runs along contiguous rows of S series. ``fit_batch`` fits one model
per series, in arrays it allocates once per batch width and reuses every EM
iteration, and returns them as one stack (``HmmModel``, row s series s's);
``forecast`` gathers a row of the stack for each series it filters, so one
model can serve several windows. Both give a series with a non-finite
return (from a bad close) its own InvalidInputError. A series gets the same
bits in any batch and under any BLAS: products are two-operand
``np.einsum`` calls or elementwise, and no sum's order depends on the batch.

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


def _as_batch(returns: np.ndarray) -> tuple[np.ndarray, list[InvalidInputError | None]]:
    """(S, T) float returns, and each series' non-finite-return error or None."""
    obs = np.asarray(returns, dtype=float)
    if obs.ndim != 2:
        raise InvalidInputError(f"batched returns must be (series, time), got shape {obs.shape}")
    return obs, [
        None if ok else InvalidInputError("log returns require finite positive closes")
        for ok in np.isfinite(obs).all(axis=1).tolist()
    ]


class _Buffers:
    """The (T, K, S) arrays of a forward-backward pass and an M-step, and the
    M-step's two (S, K, T - 1) time-last copies, allocated once for
    ``n_series`` series. EM rewrites them every iteration. The copy of the
    alphas (``past``) is a view of ``scaled``, which only the backward pass
    reads."""

    def __init__(self, n_obs: int, n_states: int, n_series: int):
        self.b, self.alphas, self.betas = (np.empty((n_obs, n_states, n_series)) for _ in range(3))
        self.scaled = np.empty((n_obs - 1, n_states, n_series))
        self.past = self.scaled.reshape(n_series, n_states, n_obs - 1)
        self.future = np.empty((n_series, n_states, n_obs - 1))
        self.norms, self.shifts = np.empty((n_obs, n_series)), np.empty((n_obs, n_series))


def _over_states(op, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``op`` (np.add or np.maximum) over the state axis of (T, K, S) x into
    (T, S) out, as a chain of its state slices, k = 0, 1, ..., K - 1: each op
    reads contiguous rows of S series, and the chain's order is the same in
    any batch."""
    np.copyto(out, x[:, 0])
    for k in range(1, x.shape[1]):
        op(out, x[:, k], out=out)
    return out


def _state_sum(padded: np.ndarray, lanes: np.ndarray):
    """A function that writes to ``out`` the sum of the K state rows of
    ``padded`` in two interleaved lanes, (x0 + x2 + x4 + ...) + (x1 + x3 +
    ...), each lane added left to right.

    That is the order in which numpy's einsum sums a contiguous axis of fewer
    than 8 elements (the two lanes of its baseline SIMD loop), and the order
    the pinned fits and forecasts were recorded in. Spelled out as
    elementwise adds over rows of S series, it holds in any batch, at any K
    and under any dispatch target. ``padded`` holds the K rows and, for odd
    K, a zero row (x + 0 is x), so the lanes add row pair by row pair,
    (x0, x1) + (x2, x3) + ..., into ``lanes`` (2, ...): ceil(K / 2) adds in
    all. The operands are bound once per pass; only ``out`` changes from step
    to step.
    """
    pairs = list(padded.reshape(len(padded) // 2, 2, *padded.shape[1:]))
    adds = [(pairs[0], pairs[1]), *((lanes, pair) for pair in pairs[2:])] if len(pairs) > 1 else []
    first, second = lanes if adds else pairs[0]

    def state_sum(out: np.ndarray) -> np.ndarray:
        for x, y in adds:
            np.add(x, y, out=lanes)
        return np.add(first, second, out=out)

    return state_sum


def _over_time(x: np.ndarray) -> np.ndarray:
    """C-ordered (S, K) sums over time of (T, K, S) x, in an order the batch
    does not change: row by row in time, but with one state (where numpy sums
    a batch of one pairwise) pairwise along a contiguous copy of each series'
    row."""
    if x.shape[1] == 1:
        return np.ascontiguousarray(x[:, 0].T).sum(axis=1)[:, None]
    return np.ascontiguousarray(x.sum(axis=0).T)


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
    shifts = _over_states(np.maximum, b, out=buffers.shifts)
    b -= shifts[:, None, :]
    np.exp(b, out=b)
    into = trans.transpose(1, 2, 0).copy()  # [i, j, s]: from state i into state j
    padded = np.zeros((n_states + n_states % 2, n_series))
    a = padded[:n_states]  # alpha_t-1 A, times b_t, before its norm
    state_sum = _state_sum(padded, np.empty((2, n_series)))

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
            alpha = np.divide(a, state_sum(norm), out=alpha_t)
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
    the sum over j in ``_state_sum``'s order. Reads buffers.b and .norms."""
    b, betas, scaled = buffers.b, buffers.betas, buffers.scaled
    betas[-1] = 1.0
    with np.errstate(divide="ignore", invalid="ignore"):  # a collapsed series' zero norms
        np.divide(b[1:], buffers.norms[1:, None, :], out=scaled)
    n_states = b.shape[1]
    into = trans.transpose(2, 1, 0).copy()  # [j, i, s]: from state i into state j
    padded = np.zeros((n_states + n_states % 2, *b.shape[1:]))
    products = padded[:n_states]  # [j, i, s]: A_ij times step_j
    state_sum = _state_sum(padded, np.empty((2, *b.shape[1:])))
    step = np.empty(b.shape[1:])
    step_by_target = step[:, None, :]
    for t in range(b.shape[0] - 2, -1, -1):
        np.multiply(scaled[t], betas[t + 1], out=step)
        np.multiply(into, step_by_target, out=products)
        state_sum(betas[t])
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

    gammas = betas  # betas are not needed again
    gammas *= alphas
    gammas /= _over_states(np.add, gammas, out=buffers.shifts)[:, None, :]

    first = np.ascontiguousarray(gammas[0].T)
    pi = first / first.sum(axis=1, keepdims=True)
    # A row whose source state is (almost) never occupied keeps its
    # previous probabilities; the guarded denominator only avoids a
    # division by zero in rows that np.where discards.
    from_counts = _over_time(gammas[:-1])
    live_rows = from_counts > 1e-12
    new_trans = np.where(
        live_rows[:, :, None],
        xi_sum / np.where(live_rows, from_counts, 1.0)[:, :, None],
        trans,
    )
    new_trans = np.clip(new_trans, 0.0, None)
    trans = new_trans / new_trans.sum(axis=2, keepdims=True)

    # Dead states keep their previous mean and variance.
    occupancy = _over_time(gammas)
    live = ~(occupancy <= 1e-10)
    weights = np.where(live, occupancy, 1.0)
    weighted_obs = np.multiply(gammas, obs.T[:, None, :], out=alphas)  # alphas are not needed again
    new_means = _over_time(weighted_obs) / weights
    diff = np.subtract(obs.T[:, None, :], new_means.T, out=alphas)
    spread = np.multiply(gammas, diff, out=b)
    spread *= diff
    new_vars = _over_time(spread) / weights
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
) -> tuple[HmmModel, list[dict | InvalidInputError | NumericalError]]:
    """Fit one model per row of an (S, T) return array by batched EM.

    Series s is initialized from ``seeds[s]`` and stops on its own
    iteration: when its log-likelihood gain drops below CONVERGENCE_TOL or the
    iteration cap is reached. Its recorded per-iteration log-likelihood path
    is non-decreasing (standard EM guarantee). Each series gets exactly the
    model it gets in a batch of one. Returns the stacked models, row s
    series s's (NaN for a failed fit), and one outcome per series: its fit
    record (iterations, converged, variance_floored and the log-likelihood
    of every EM iteration, the last the final parameters'), or the error its
    fit ran into. Raises for the whole batch when the series are too short.
    """
    obs, outcomes = _as_batch(returns)
    n_series, n_obs = obs.shape
    if n_obs < MIN_SAMPLES_PER_STATE * config.n_states:
        raise InsufficientDataError(
            f"need >= {MIN_SAMPLES_PER_STATE * config.n_states} returns "
            f"for {config.n_states} states, got {n_obs}"
        )
    if len(seeds) != n_series:
        raise ParameterError(f"need one seed per series, got {len(seeds)} for {n_series}")
    rows = np.flatnonzero([error is None for error in outcomes])  # open fits, in batch order
    x = obs[rows]
    initial = _initial_parameters(x, config, [seeds[r] for r in rows])
    models = HmmModel(*(np.full((n_series, *p.shape[1:]), np.nan) for p in initial))
    pi, trans, means, variances = initial
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
    obs, bad = _as_batch(returns)
    if obs.shape[1] == 0:
        raise InsufficientDataError("filtering needs at least one return")
    pi, trans, means, variances = models
    if len(pi) != obs.shape[0]:
        raise ParameterError(f"need one model per series, got {len(pi)} for {obs.shape[0]}")
    buffers = _Buffers(obs.shape[1], pi.shape[1], obs.shape[0])
    _, errors = _forward(  # bad series run on zeros, which raise no warnings
        np.where(np.isfinite(obs).all(axis=1, keepdims=True), obs, 0.0),
        means, variances, pi, trans, buffers,
    )
    return buffers.alphas.transpose(2, 0, 1), [own or error for own, error in zip(bad, errors)]


def forecast(
    models: HmmModel, rows: Sequence[int], returns: np.ndarray
) -> list[DirectionForecast | InvalidInputError | NumericalError]:
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
