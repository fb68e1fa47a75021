"""Gaussian hidden Markov regime model over one stock's daily log returns.

Observations are univariate: every state k carries a mean return and a
variance. Fitting is expectation-maximization with a scaled
forward-backward pass, run for a bounded number of iterations; the M-step
updates every live state at once. Every routine works on S series at once,
with time-major (T, S, K) emission, forward and backward arrays (each step
reads and writes one contiguous block): ``fit_batch`` fits one model per
series and ``forecast`` filters each series under its own model. Both give
a series with a non-finite return (from a bad close) its own InvalidInputError.
A series gets the same bits in any batch and under any BLAS: products are
two-operand ``np.einsum`` calls, and no sum's order depends on the batch.

The directional forecast is the sign of the posterior-weighted one-step-ahead
expected return: e = sum_j (sum_i posterior_i A_ij) mean_returns_j.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .directions import sign_direction
from .errors import InsufficientDataError, InvalidInputError, NumericalError, ParameterError

MIN_SAMPLES_PER_STATE = 10
LOG_2PI = np.log(2.0 * np.pi)


@dataclass
class HmmConfig:
    n_states: int = 5
    max_iterations: int = 10
    convergence_tol: float = 1e-4
    variance_floor: float = 1e-12

    def __post_init__(self):
        if self.n_states < 1:
            raise ParameterError("n_states must be >= 1")
        if self.max_iterations < 1:
            raise ParameterError("max_iterations must be >= 1")
        if self.convergence_tol < 0 or self.variance_floor < 0:
            raise ParameterError("convergence_tol and variance_floor must be non-negative")


@dataclass
class HmmModel:
    """Fitted model: state distribution, transitions, and Gaussian emissions."""

    initial_probs: np.ndarray      # (K,)
    transition: np.ndarray         # (K, K), row-stochastic
    mean_returns: np.ndarray       # (K,)
    variances: np.ndarray          # (K,)
    # One log-likelihood per EM iteration; the last is the final parameters'.
    log_likelihood_path: list[float] = field(default_factory=list)
    diagnostics: dict = field(default_factory=dict)


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


def _over_states(op, x: np.ndarray) -> np.ndarray:
    """``op`` (np.add or np.maximum) over the last (state) axis as a chain of its
    slices: on (T, S, K) arrays numpy's own length-K loops are slower at the
    few states a regime model has, and the chain's order is the same in any
    batch."""
    out = x[..., 0].copy()
    for k in range(1, x.shape[-1]):
        op(out, x[..., k], out=out)
    return out


def _over_time(x: np.ndarray) -> np.ndarray:
    """(S, K) sums over time of (T, S, K) x, in an order the batch does not
    change: row by row in time, but with one state (where numpy sums a batch of
    one pairwise) pairwise along a contiguous copy of each series' row."""
    if x.shape[2] == 1:
        return np.ascontiguousarray(x[:, :, 0].T).sum(axis=1)[:, None]
    return x.sum(axis=0)


def _emission_log_probs(obs: np.ndarray, means: np.ndarray, variances: np.ndarray) -> np.ndarray:
    """(T, S, K) log density of every observation under every state's Gaussian,
    -0.5 * (log 2pi + log var + (x - mean)^2 / var), in one C-ordered buffer."""
    z = np.subtract(obs.T[:, :, None], means, order="C")
    z *= z
    z /= variances
    z += LOG_2PI + np.log(variances)
    z *= -0.5
    return z


def _forward(obs, means, variances, pi, trans):
    """Scaled forward pass over S series at once: obs (S, T); means,
    variances and pi (S, K); trans (S, K, K).

    Returns (normalized alphas, norms, log-likelihoods, b, errors), norms
    (T, S): b holds the emission probabilities, shifted per time step before
    exponentiation; the shift cancels in the normalized recursion and is
    added back to the log-likelihood, so the result is exact even for
    extreme densities. errors[s] is the NumericalError series s ran into, or
    None; the other outputs of a failed series are meaningless.
    """
    n_series, n_obs = obs.shape
    errors: list[NumericalError | None] = [None] * n_series
    invalid = ~np.all(variances > 0, axis=1)
    for s in np.flatnonzero(invalid):
        errors[s] = NumericalError(f"state variances must be positive, got {variances[s]}")
    if invalid.any():
        # Harmless stand-ins keep the failed series from raising warnings
        # while the rest of the batch is computed.
        variances = np.where(invalid[:, None], 1.0, variances)
        means = np.where(invalid[:, None], 0.0, means)

    b = _emission_log_probs(obs, means, variances)
    shifts = _over_states(np.maximum, b)
    b -= shifts[:, :, None]
    np.exp(b, out=b)
    alphas = np.empty_like(b)
    norms = np.empty((n_obs, n_series))

    # A collapsed series divides by a zero norm and turns NaN from there
    # on; it is reported at its first zero norm, and nothing it computes
    # reaches another series.
    with np.errstate(divide="ignore", invalid="ignore"):
        alpha = np.multiply(pi, b[0], out=alphas[0])
        for t in range(n_obs):
            a = alphas[t]
            if t:
                np.multiply(np.einsum("si,sij->sj", alpha, trans), b[t], out=a)
            norm = norms[t] = np.einsum("sk->s", a)  # one call, where a chain makes K
            alpha = np.divide(a, norm[:, None], out=a)
        # Summed pairwise along contiguous rows, as a batch of one would be.
        log_likelihood = np.log(norms.T.copy()).sum(axis=1) + shifts.T.copy().sum(axis=1)
    collapsed = (norms <= 0).T
    for s in np.flatnonzero(collapsed.any(axis=1)):
        if errors[s] is None:
            errors[s] = NumericalError(f"forward recursion collapsed at t={np.argmax(collapsed[s])}")
    return alphas, norms, log_likelihood, b, errors


def _backward(b: np.ndarray, trans: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """Backward pass scaled by the forward norms (Rabiner-style), (T, S, K)."""
    betas = np.empty_like(b)
    betas[-1] = 1.0
    with np.errstate(divide="ignore", invalid="ignore"):  # a collapsed series' zero norms
        scaled = b[1:] / norms[1:, :, None]
    for t in range(b.shape[0] - 2, -1, -1):
        np.einsum("sij,sj->si", trans, scaled[t] * betas[t + 1], out=betas[t])
    return betas


def _m_step(obs, alphas, betas, b, norms, trans, means, variances, floor):
    """Re-estimate every series' parameters from one (T, S, K) E-step
    (alphas, betas and b are overwritten: the M-step's temporaries reuse
    them). Returns (pi, trans, means, variances, floored) with floored (S,)
    marking series whose new variance hit the floor in some live state."""
    # Expected transition counts, accumulated without materializing the
    # (T, K, K) tensor. With this scaling each xi_t is already a proper
    # posterior, so the sum is the expected count matrix; time-last copies
    # let einsum sum along a contiguous axis, several times faster.
    weighted = b[1:]
    weighted *= betas[1:]
    weighted /= norms[1:, :, None]
    time_last = (alphas[:-1].transpose(1, 2, 0).copy(), weighted.transpose(1, 2, 0).copy())
    xi_sum = trans * np.einsum("sit,sjt->sij", *time_last)
    del weighted, time_last

    gammas = betas  # betas are not needed again
    gammas *= alphas
    gammas /= _over_states(np.add, gammas)[:, :, None]

    pi = gammas[0] / gammas[0].sum(axis=1, keepdims=True)
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
    weighted_obs = np.multiply(gammas, obs.T[:, :, None], out=alphas)  # alphas are not needed again
    new_means = _over_time(weighted_obs) / weights
    diff = np.subtract(obs.T[:, :, None], new_means, out=alphas)
    spread = np.multiply(gammas, diff, out=b)
    spread *= diff
    new_vars = _over_time(spread) / weights
    floored = np.any(live & (new_vars < floor), axis=1)
    means = np.where(live, new_means, means)
    variances = np.where(live, np.maximum(new_vars, floor), variances)
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
    pooled = np.maximum(pooled, config.variance_floor)
    variances = np.repeat(pooled[:, None], n_states, axis=1)
    for row, seed, scale in zip(means, seeds, 1e-6 * (np.sqrt(pooled) + 1e-12)):
        row += np.random.default_rng(seed).normal(0.0, scale, size=n_states)

    pi = np.full((n_series, n_states), 1.0 / n_states)
    trans = np.full((n_states, n_states), 0.2 / max(n_states - 1, 1))
    np.fill_diagonal(trans, 0.8 if n_states > 1 else 1.0)
    return pi, np.repeat(trans[None], n_series, axis=0), means, variances


def fit_batch(
    returns: np.ndarray, config: HmmConfig, seeds: Sequence[int]
) -> list[HmmModel | InvalidInputError | NumericalError]:
    """Fit one model per row of an (S, T) return array by batched EM.

    Series s is initialized from ``seeds[s]`` and stops on its own
    iteration: when its log-likelihood gain drops below tolerance or the
    iteration cap is reached. Its recorded per-iteration log-likelihood path
    is non-decreasing (standard EM guarantee). Each series gets exactly the
    model it gets in a batch of one. Returns one entry per series: its model,
    or the error its fit ran into. Raises for the whole batch when the
    series are too short.
    """
    obs, results = _as_batch(returns)
    n_series, n_obs = obs.shape
    if n_obs < MIN_SAMPLES_PER_STATE * config.n_states:
        raise InsufficientDataError(
            f"need >= {MIN_SAMPLES_PER_STATE * config.n_states} returns "
            f"for {config.n_states} states, got {n_obs}"
        )
    if len(seeds) != n_series:
        raise ParameterError(f"need one seed per series, got {len(seeds)} for {n_series}")
    rows = np.flatnonzero([error is None for error in results])  # open fits, in batch order
    pi, trans, means, variances = _initial_parameters(obs[rows], config, [seeds[r] for r in rows])
    paths: list[list[float]] = [[] for _ in range(n_series)]
    floored = np.zeros(n_series, dtype=bool)
    converged = np.zeros(n_series, dtype=bool)
    # A finished series makes one more forward pass, for the log-likelihood
    # of its final parameters (after the last M-step).
    finished = np.zeros(n_series, dtype=bool)
    prev_ll = np.full(n_series, -np.inf)
    iteration = 0

    while rows.size:
        x = obs[rows]
        alphas, norms, log_likelihood, b, errors = _forward(x, means, variances, pi, trans)
        keep = []
        for pos, row in enumerate(rows):
            if errors[pos] is not None:
                results[row] = errors[pos]
                continue
            paths[row].append(float(log_likelihood[pos]))
            if not finished[row]:
                keep.append(pos)
                continue
            results[row] = HmmModel(
                initial_probs=pi[pos],
                transition=trans[pos],
                mean_returns=means[pos],
                variances=variances[pos],
                log_likelihood_path=paths[row],
                diagnostics={
                    "iterations": len(paths[row]) - 1,
                    "converged": bool(converged[row]),
                    "variance_floored": bool(floored[row]),
                },
            )
        if len(keep) < rows.size:
            # One array at a time, so that only one old copy is alive at once;
            # np.take keeps them time-major in memory, alphas[:, keep] would not.
            alphas = np.take(alphas, keep, axis=1)
            b = np.take(b, keep, axis=1)
            rows, x, norms, log_likelihood = rows[keep], x[keep], norms[:, keep], log_likelihood[keep]
            pi, trans, means, variances = pi[keep], trans[keep], means[keep], variances[keep]
        if not rows.size:
            break

        betas = _backward(b, trans, norms)
        pi, trans, means, variances, floored_now = _m_step(
            x, alphas, betas, b, norms, trans, means, variances, config.variance_floor
        )
        # Free this pass's (T, S, K) arrays before the next pass makes its own.
        del alphas, betas, b
        iteration += 1
        floored[rows] |= floored_now
        converged[rows] = log_likelihood - prev_ll[rows] < config.convergence_tol
        prev_ll[rows] = log_likelihood
        finished[rows] = converged[rows] | (iteration == config.max_iterations)
    return results


def _filter(models: Sequence[HmmModel], returns: np.ndarray):
    """Normalized forward probabilities P(state_t | returns_1..t) of S series
    under their own models: (S, T, K) alphas (a transposed view of the
    time-major forward array) and one error (or None) per series."""
    obs, bad = _as_batch(returns)
    if obs.shape[1] == 0:
        raise InsufficientDataError("filtering needs at least one return")
    if len(models) != obs.shape[0]:
        raise ParameterError(f"need one model per series, got {len(models)} for {obs.shape[0]}")
    if not models:
        return np.empty((0, obs.shape[1], 0)), []
    alphas, _, _, _, errors = _forward(
        np.where([[error is None] for error in bad], obs, 0.0),  # no warnings from bad series
        np.stack([m.mean_returns for m in models]),
        np.stack([m.variances for m in models]),
        np.stack([m.initial_probs for m in models]),
        np.stack([m.transition for m in models]),
    )
    return alphas.transpose(1, 0, 2), [own or error for own, error in zip(bad, errors)]


def forecast(
    models: Sequence[HmmModel], returns: np.ndarray
) -> list[DirectionForecast | InvalidInputError | NumericalError]:
    """One-step-ahead expected returns of S series, and their signs.

    Runs one batched forward pass of the (S, T) returns, row s under
    ``models[s]``, then takes each series' expected return under its last
    posterior. Returns S entries: each series' forecast, or the error its
    filter ran into.
    """
    alphas, errors = _filter(models, returns)
    if not models:
        return []
    transitions = np.stack([m.transition for m in models])
    means = np.stack([m.mean_returns for m in models])
    predicted = np.einsum("si,sij->sj", alphas[:, -1], transitions)
    expected = np.einsum("sj,sj->s", predicted, means).tolist()
    return [
        DirectionForecast(sign_direction(e), e) if error is None else error
        for e, error in zip(expected, errors)
    ]
