"""Gaussian hidden Markov regime model over one stock's daily log returns.

Observations are univariate: every state k carries a mean return and a
variance, and emission densities for all states are evaluated in one
(T, K) array. Fitting is expectation-maximization with a scaled
forward-backward pass, run for a bounded number of iterations; the M-step
updates every live state at once.

The directional forecast is the sign of the posterior-weighted one-step-ahead
expected return: e = (posterior @ A) @ mean_returns.
"""

from __future__ import annotations

import json
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
    seed: int = 0
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
    fit_log_likelihood: float
    log_likelihood_path: list[float] = field(default_factory=list)
    diagnostics: dict = field(default_factory=dict)

    @property
    def n_states(self) -> int:
        return self.initial_probs.size

    def to_dict(self) -> dict:
        return {
            "initial_probs": self.initial_probs.tolist(),
            "transition": self.transition.tolist(),
            "mean_returns": self.mean_returns.tolist(),
            "variances": self.variances.tolist(),
            "fit_log_likelihood": self.fit_log_likelihood,
            "log_likelihood_path": list(self.log_likelihood_path),
            "diagnostics": dict(self.diagnostics),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, payload: dict) -> "HmmModel":
        return cls(
            initial_probs=np.array(payload["initial_probs"], dtype=float),
            transition=np.array(payload["transition"], dtype=float),
            mean_returns=np.array(payload["mean_returns"], dtype=float),
            variances=np.array(payload["variances"], dtype=float),
            fit_log_likelihood=float(payload["fit_log_likelihood"]),
            log_likelihood_path=list(payload.get("log_likelihood_path", [])),
            diagnostics=dict(payload.get("diagnostics", {})),
        )


@dataclass(frozen=True)
class DirectionForecast:
    expected_return: float
    direction: str


def _as_observations(returns: Sequence[float] | np.ndarray) -> np.ndarray:
    obs = np.asarray(returns, dtype=float)
    if obs.ndim != 1:
        raise InvalidInputError(f"returns must be one-dimensional, got shape {obs.shape}")
    return obs


def _emission_log_probs(obs: np.ndarray, means: np.ndarray, variances: np.ndarray) -> np.ndarray:
    """(T, K) log density of every observation under every state's Gaussian."""
    if not np.all(variances > 0):
        raise NumericalError(f"state variances must be positive, got {variances}")
    sd = np.sqrt(variances)
    # Multiplying by the reciprocal, not dividing, reproduces the densities
    # of the earlier Cholesky-based version bit for bit, which keeps
    # backtest fills unchanged.
    z = (obs[:, None] - means) * (1.0 / sd)
    return -0.5 * ((LOG_2PI + 2.0 * np.log(sd)) + z * z)


def _forward(log_b: np.ndarray, pi: np.ndarray, trans: np.ndarray):
    """Scaled forward pass. Returns (normalized alphas, norms, log-likelihood).

    Emission probabilities are shifted per time step before exponentiation;
    the shift cancels in the normalized recursion and is added back to the
    log-likelihood, so the result is exact even for extreme densities.
    """
    n_obs, _ = log_b.shape
    shifts = log_b.max(axis=1)
    b = np.exp(log_b - shifts[:, None])
    alphas = np.empty_like(b)
    norms = np.empty(n_obs)

    a = pi * b[0]
    norms[0] = a.sum()
    if norms[0] <= 0:
        raise NumericalError("forward recursion collapsed at t=0")
    alphas[0] = a / norms[0]
    for t in range(1, n_obs):
        a = (alphas[t - 1] @ trans) * b[t]
        norms[t] = a.sum()
        if norms[t] <= 0:
            raise NumericalError(f"forward recursion collapsed at t={t}")
        alphas[t] = a / norms[t]
    log_likelihood = float(np.log(norms).sum() + shifts.sum())
    return alphas, norms, log_likelihood, b


def _backward(b: np.ndarray, trans: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """Backward pass scaled by the forward norms (Rabiner-style)."""
    n_obs, n_states = b.shape
    betas = np.empty((n_obs, n_states))
    betas[-1] = 1.0
    for t in range(n_obs - 2, -1, -1):
        betas[t] = (trans @ (b[t + 1] * betas[t + 1])) / norms[t + 1]
    return betas


def _initial_parameters(obs: np.ndarray, config: HmmConfig):
    """Deterministic seeded initialization.

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

    rng = np.random.default_rng(config.seed)
    means = means + rng.normal(0.0, 1e-6 * (np.sqrt(pooled) + 1e-12), size=n_states)

    pi = np.full(n_states, 1.0 / n_states)
    if n_states == 1:
        trans = np.ones((1, 1))
    else:
        off = 0.2 / (n_states - 1)
        trans = np.full((n_states, n_states), off)
        np.fill_diagonal(trans, 0.8)
    return pi, trans, means, variances


def fit(returns: Sequence[float] | np.ndarray, config: HmmConfig) -> HmmModel:
    """Fit by EM until the log-likelihood gain drops below tolerance or the
    iteration cap is reached. The recorded per-iteration log-likelihood path
    is non-decreasing (standard EM guarantee)."""
    obs = _as_observations(returns)
    if obs.size < MIN_SAMPLES_PER_STATE * config.n_states:
        raise InsufficientDataError(
            f"need >= {MIN_SAMPLES_PER_STATE * config.n_states} returns "
            f"for {config.n_states} states, got {obs.size}"
        )

    pi, trans, means, variances = _initial_parameters(obs, config)
    floor = config.variance_floor
    floored = False
    path: list[float] = []
    prev_ll = -np.inf
    converged = False

    for _ in range(config.max_iterations):
        log_b = _emission_log_probs(obs, means, variances)
        alphas, norms, log_likelihood, b = _forward(log_b, pi, trans)
        betas = _backward(b, trans, norms)
        path.append(log_likelihood)

        gammas = alphas * betas
        gammas /= gammas.sum(axis=1, keepdims=True)

        # Expected transition counts, accumulated without materializing the
        # (T, K, K) tensor. With this scaling each xi_t is already a proper
        # posterior, so the sum is the expected count matrix.
        weighted = b[1:] * betas[1:] / norms[1:, None]
        xi_sum = trans * (alphas[:-1].T @ weighted)

        pi = gammas[0] / gammas[0].sum()
        # A row whose source state is (almost) never occupied keeps its
        # previous probabilities; the guarded denominator only avoids a
        # division by zero in rows that np.where discards.
        from_counts = gammas[:-1].sum(axis=0)
        live_rows = from_counts > 1e-12
        new_trans = np.where(
            live_rows[:, None], xi_sum / np.where(live_rows, from_counts, 1.0)[:, None], trans
        )
        new_trans = np.clip(new_trans, 0.0, None)
        trans = new_trans / new_trans.sum(axis=1, keepdims=True)

        # Dead states keep their previous mean and variance.
        occupancy = gammas.sum(axis=0)
        live = ~(occupancy <= 1e-10)
        weights = np.where(live, occupancy, 1.0)
        new_means = (obs @ gammas) / weights
        diff = obs[:, None] - new_means
        new_vars = ((gammas * diff) * diff).sum(axis=0) / weights
        floored |= bool(np.any(live & (new_vars < floor)))
        means = np.where(live, new_means, means)
        variances = np.where(live, np.maximum(new_vars, floor), variances)

        converged = log_likelihood - prev_ll < config.convergence_tol
        if converged:
            break
        prev_ll = log_likelihood

    iterations = len(path)
    # Log-likelihood of the final parameters (after the last M-step).
    log_b = _emission_log_probs(obs, means, variances)
    _, _, final_ll, _ = _forward(log_b, pi, trans)
    path.append(final_ll)

    return HmmModel(
        initial_probs=pi,
        transition=trans,
        mean_returns=means,
        variances=variances,
        fit_log_likelihood=final_ll,
        log_likelihood_path=path,
        diagnostics={
            "iterations": iterations,
            "converged": converged,
            "variance_floored": floored,
        },
    )


def _filter(model: HmmModel, returns: Sequence[float] | np.ndarray) -> np.ndarray:
    """Normalized forward probabilities P(state_t | returns_1..t), shape (T, K)."""
    obs = _as_observations(returns)
    if obs.size == 0:
        raise InsufficientDataError("filtering needs at least one return")
    log_b = _emission_log_probs(obs, model.mean_returns, model.variances)
    alphas, _, _, _ = _forward(log_b, model.initial_probs, model.transition)
    return alphas


def forward_posterior(model: HmmModel, returns: Sequence[float] | np.ndarray) -> np.ndarray:
    """Filtered state distribution P(state_T | returns_1..T)."""
    return _filter(model, returns)[-1]


def filtered_states(model: HmmModel, returns: Sequence[float] | np.ndarray) -> np.ndarray:
    """Arg-max filtered state index for every time step."""
    return np.argmax(_filter(model, returns), axis=1)


def predict_direction(model: HmmModel, posterior: np.ndarray) -> DirectionForecast:
    """One-step-ahead expected return under the filtered posterior, and its sign."""
    posterior = np.asarray(posterior, dtype=float)
    expected = float((posterior @ model.transition) @ model.mean_returns)
    return DirectionForecast(expected, sign_direction(expected))
