"""Black-Litterman portfolio construction.

Pipeline: annualized sample covariance of the universe's log returns, implied
equilibrium returns from market-cap weights, a posterior blend of equilibrium
and the active (non-flat) insights, then the unconstrained mean-variance
solution projected onto the long-only / per-asset-cap constraint set.

All solves are dense (the universe is at most a few dozen assets); a small
ridge keeps the covariance invertible when return series are collinear.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .alpha_fusion import Insight
from .directions import DOWN, UP
from .errors import (
    DataAlignmentError,
    InsufficientDataError,
    NumericalError,
    ParameterError,
)

COVARIANCE_RIDGE = 1e-8
TRADING_DAYS = 252


@dataclass
class BlConfig:
    risk_aversion: float = 2.5
    tau: float = 0.05
    covariance_lookback: int = 252
    long_only: bool = True
    max_weight: float = 0.20

    def __post_init__(self):
        if self.risk_aversion <= 0 or self.tau <= 0:
            raise ParameterError("risk_aversion and tau must be > 0")
        if not 0.0 < self.max_weight <= 1.0:
            raise ParameterError("max_weight must be in (0, 1]")
        # A rebalance needs more returns than assets + 1 to estimate a
        # covariance, so a shorter lookback would skip every rebalance.
        if self.covariance_lookback < 3:
            raise ParameterError("covariance_lookback must be >= 3")


@dataclass
class ViewSet:
    """One row per active insight: one-hot pick matrix, expected view returns,
    and the diagonal of the view-uncertainty matrix."""

    pick: np.ndarray        # (V, N)
    view_returns: np.ndarray  # (V,)
    omega_diag: np.ndarray    # (V,)

    @classmethod
    def empty(cls, n_assets: int) -> "ViewSet":
        return cls(
            np.zeros((0, n_assets)), np.zeros(0), np.zeros(0)
        )

    def __len__(self) -> int:
        return self.view_returns.size


@dataclass
class TargetPortfolio:
    """Per-symbol fractions of equity. Anything not allocated stays in cash."""

    weights: dict[str, float]


def estimate_covariance(windows: Mapping[str, Sequence[float] | np.ndarray]) -> np.ndarray:
    """Annualized sample covariance of aligned per-symbol return windows,
    with a ridge on the diagonal so downstream solves stay well posed."""
    if not windows:
        raise InsufficientDataError("no return windows supplied")
    arrays = [np.asarray(w, dtype=float) for w in windows.values()]
    n_assets = len(arrays)
    length = arrays[0].size
    if any(a.size != length for a in arrays):
        raise DataAlignmentError("return windows must share one length")
    if length < n_assets + 2:
        raise InsufficientDataError(
            f"need window length >= {n_assets + 2} for {n_assets} assets, got {length}"
        )
    matrix = np.column_stack(arrays)
    centered = matrix - matrix.mean(axis=0)
    cov = centered.T @ centered / (length - 1)
    cov = 0.5 * (cov + cov.T) * TRADING_DAYS
    return cov + COVARIANCE_RIDGE * np.eye(n_assets)


def equilibrium_returns(
    sigma: np.ndarray, market_weights: np.ndarray, risk_aversion: float
) -> np.ndarray:
    """Implied excess returns of the market-cap portfolio: delta * Sigma * w."""
    sigma = np.asarray(sigma, dtype=float)
    w = np.asarray(market_weights, dtype=float)
    if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1] or w.shape != (sigma.shape[0],):
        raise DataAlignmentError(
            f"shape mismatch: sigma {sigma.shape}, weights {w.shape}"
        )
    return risk_aversion * (sigma @ w)


def build_views(
    insights: Sequence[Insight],
    symbols: Sequence[str],
    sigma: np.ndarray,
    config: BlConfig,
) -> ViewSet:
    """One absolute view per non-flat insight on a universe symbol.

    View return is the signed insight magnitude; uncertainty follows the
    proportional rule Omega_ii = tau * (P Sigma P^T)_ii / confidence, so a
    more confident insight is weighted more heavily in the blend.
    """
    index = {s: i for i, s in enumerate(symbols)}
    rows, returns, omegas = [], [], []
    for insight in insights:
        if insight.direction not in (UP, DOWN) or insight.symbol not in index:
            continue
        row = np.zeros(len(symbols))
        row[index[insight.symbol]] = 1.0
        rows.append(row)
        signed = insight.magnitude if insight.direction == UP else -insight.magnitude
        returns.append(signed)
        var = float(row @ sigma @ row)
        omegas.append(config.tau * max(var, COVARIANCE_RIDGE) / insight.confidence)
    if not rows:
        return ViewSet.empty(len(symbols))
    return ViewSet(np.vstack(rows), np.array(returns), np.array(omegas))


def posterior_returns(
    pi: np.ndarray, sigma: np.ndarray, tau: float, views: ViewSet
) -> np.ndarray:
    """Blend equilibrium returns with views:

        mu = [(tau Sigma)^-1 + P^T Omega^-1 P]^-1 [(tau Sigma)^-1 pi + P^T Omega^-1 q]

    With no views the formula degenerates to the prior, which is returned
    exactly (no solve is performed).
    """
    pi = np.asarray(pi, dtype=float)
    if len(views) == 0:
        return pi.copy()
    if np.any(views.omega_diag <= 0):
        raise ParameterError("view uncertainties must be positive")
    n = pi.size
    try:
        prior_precision = np.linalg.solve(tau * sigma, np.eye(n))
        inv_omega = 1.0 / views.omega_diag
        system = prior_precision + views.pick.T @ (inv_omega[:, None] * views.pick)
        rhs = prior_precision @ pi + views.pick.T @ (inv_omega * views.view_returns)
        return np.linalg.solve(system, rhs)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"posterior blend solve failed: {exc}") from exc


def optimize_weights(
    mu: np.ndarray,
    sigma: np.ndarray,
    config: BlConfig,
    symbols: Sequence[str],
) -> TargetPortfolio:
    """Unconstrained mean-variance solution w = (delta Sigma)^-1 mu, projected
    onto the constraint set when long-only: clamp to [0, max_weight], then
    scale down proportionally if the clamped weights sum past 1."""
    mu = np.asarray(mu, dtype=float)
    try:
        raw = np.linalg.solve(config.risk_aversion * sigma, mu)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"mean-variance solve failed: {exc}") from exc
    if config.long_only:
        raw = np.clip(raw, 0.0, config.max_weight)
        total = raw.sum()
        if total > 1.0:
            raw = raw / total
    return TargetPortfolio({s: float(w) for s, w in zip(symbols, raw)})
