"""Gaussian hidden Markov regime model over one stock's daily log returns.

Observations are univariate: every state k carries a mean return and a
variance. Fitting is expectation-maximization with a scaled
forward-backward pass, run for a bounded number of iterations; the M-step
updates every live state at once. Every routine works on S series at once,
with (S, T, K) emission, forward and backward arrays: ``fit_batch`` fits
one model per series and ``forward_posterior`` filters each series under its
own model.

The directional forecast is the sign of the posterior-weighted one-step-ahead
expected return: e = (posterior @ A) @ mean_returns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

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


@dataclass(frozen=True)
class DirectionForecast:
    expected_return: float
    direction: str


def _as_batch(returns: np.ndarray) -> np.ndarray:
    obs = np.asarray(returns, dtype=float)
    if obs.ndim != 2:
        raise InvalidInputError(f"batched returns must be (series, time), got shape {obs.shape}")
    return obs


def _emission_log_probs(obs: np.ndarray, means: np.ndarray, variances: np.ndarray) -> np.ndarray:
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


def _forward(obs, means, variances, pi, trans):
    """Scaled forward pass over S series at once: obs (S, T); means,
    variances and pi (S, K); trans (S, K, K).

    Returns (normalized alphas, norms, log-likelihoods, b, errors): b holds
    the emission probabilities, shifted per time step before
    exponentiation; the shift cancels in the normalized recursion and is
    added back to the log-likelihood, so the result is exact even for
    extreme densities. errors[s] is the NumericalError series s ran into, or
    None; the other outputs of a failed series are meaningless. Every array
    op acts on each series separately (matmul runs one BLAS call per
    series), so a series gets the same bits in any batch.
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


def _backward(b: np.ndarray, trans: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """Backward pass scaled by the forward norms (Rabiner-style), (S, T, K)."""
    betas = np.empty_like(b)
    beta = betas[:, -1] = np.ones((b.shape[0], b.shape[2]))
    for t in range(b.shape[1] - 2, -1, -1):
        carried = (b[:, t + 1] * beta)[:, :, None]
        beta = betas[:, t] = np.matmul(trans, carried)[:, :, 0] / norms[:, t + 1, None]
    return betas


def _m_step(obs, alphas, betas, b, norms, trans, means, variances, floor):
    """Re-estimate every series' parameters from one E-step (alphas, betas
    and b are overwritten: the M-step's (S, T, K) temporaries reuse them).
    Returns (pi, trans, means, variances, floored) with floored (S,) marking
    series whose new variance hit the floor in some live state."""
    # Expected transition counts, accumulated without materializing the
    # (T, K, K) tensor. With this scaling each xi_t is already a proper
    # posterior, so the sum is the expected count matrix.
    weighted = b[:, 1:]
    weighted *= betas[:, 1:]
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
    diff = np.subtract(obs[:, :, None], new_means[:, None, :], out=alphas)
    spread = np.multiply(gammas, diff, out=b)
    spread *= diff
    new_vars = spread.sum(axis=1) / weights
    floored = np.any(live & (new_vars < floor), axis=1)
    means = np.where(live, new_means, means)
    variances = np.where(live, np.maximum(new_vars, floor), variances)
    return pi, trans, means, variances, floored


def _initial_parameters(obs: np.ndarray, config: HmmConfig, seed: int):
    """Deterministic seeded initialization of one series.

    Means come from a quantile split of the observations (sorted, cut into
    n_states buckets), every state starts from the pooled variance, pi is
    uniform, and the transition matrix puts 0.8 on self-transitions. A tiny
    seeded jitter separates duplicate bucket means so EM cannot lock states
    together on heavily discretized data.
    """
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


def fit_batch(
    returns: np.ndarray, config: HmmConfig, seeds: Sequence[int]
) -> list[HmmModel | NumericalError]:
    """Fit one model per row of an (S, T) return array by batched EM.

    Series s is initialized from ``seeds[s]`` and stops on its own
    iteration: when its log-likelihood gain drops below tolerance or the
    iteration cap is reached. Its recorded per-iteration log-likelihood path
    is non-decreasing (standard EM guarantee). Each series gets exactly the
    model it gets in a batch of one. Returns one entry per series: its model,
    or the NumericalError its fit ran into. Raises for the whole batch when
    the series are too short.
    """
    obs = _as_batch(returns)
    n_series, n_obs = obs.shape
    if n_obs < MIN_SAMPLES_PER_STATE * config.n_states:
        raise InsufficientDataError(
            f"need >= {MIN_SAMPLES_PER_STATE * config.n_states} returns "
            f"for {config.n_states} states, got {n_obs}"
        )
    if len(seeds) != n_series:
        raise ParameterError(f"need one seed per series, got {len(seeds)} for {n_series}")
    if n_series == 0:
        return []

    initial = [_initial_parameters(row, config, seed) for row, seed in zip(obs, seeds)]
    pi, trans, means, variances = (np.stack(p) for p in zip(*initial))
    paths: list[list[float]] = [[] for _ in range(n_series)]
    floored = np.zeros(n_series, dtype=bool)
    converged = np.zeros(n_series, dtype=bool)
    # A finished series makes one more forward pass, for the log-likelihood
    # of its final parameters (after the last M-step).
    finished = np.zeros(n_series, dtype=bool)
    prev_ll = np.full(n_series, -np.inf)
    results: list[HmmModel | NumericalError | None] = [None] * n_series
    rows = np.arange(n_series)  # series with an open fit, in batch order
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
            # One array at a time, so that only one old copy is alive at once.
            alphas = alphas[keep]
            b = b[keep]
            rows, x, norms, log_likelihood = rows[keep], x[keep], norms[keep], log_likelihood[keep]
            pi, trans, means, variances = pi[keep], trans[keep], means[keep], variances[keep]
        if not rows.size:
            break

        betas = _backward(b, trans, norms)
        pi, trans, means, variances, floored_now = _m_step(
            x, alphas, betas, b, norms, trans, means, variances, config.variance_floor
        )
        # Free this pass's (S, T, K) arrays before the next pass makes its own.
        del alphas, betas, b
        iteration += 1
        floored[rows] |= floored_now
        converged[rows] = log_likelihood - prev_ll[rows] < config.convergence_tol
        prev_ll[rows] = log_likelihood
        finished[rows] = converged[rows] | (iteration == config.max_iterations)
    return results


def _filter(models: Sequence[HmmModel], returns: np.ndarray):
    """Normalized forward probabilities P(state_t | returns_1..t) of S series
    under their own models: (S, T, K) alphas and one error (or None) per
    series."""
    obs = _as_batch(returns)
    if obs.shape[1] == 0:
        raise InsufficientDataError("filtering needs at least one return")
    if len(models) != obs.shape[0]:
        raise ParameterError(f"need one model per series, got {len(models)} for {obs.shape[0]}")
    alphas, _, _, _, errors = _forward(
        obs,
        np.stack([m.mean_returns for m in models]),
        np.stack([m.variances for m in models]),
        np.stack([m.initial_probs for m in models]),
        np.stack([m.transition for m in models]),
    )
    return alphas, errors


def forward_posterior(
    models: Sequence[HmmModel], returns: np.ndarray
) -> list[np.ndarray | NumericalError]:
    """Filtered state distributions P(state_T | returns_1..T) of S series.

    Runs one batched forward pass of the (S, T) returns, row s under
    ``models[s]``, and returns S entries: each series' (K,) posterior, or
    the NumericalError it ran into. A posterior is a copy: it keeps no
    (S, T, K) forward array alive.
    """
    alphas, errors = _filter(models, returns)
    return [alphas[s, -1].copy() if error is None else error for s, error in enumerate(errors)]


def predict_direction(model: HmmModel, posterior: np.ndarray) -> DirectionForecast:
    """One-step-ahead expected return under the filtered posterior, and its sign."""
    posterior = np.asarray(posterior, dtype=float)
    expected = float((posterior @ model.transition) @ model.mean_returns)
    return DirectionForecast(expected, sign_direction(expected))
