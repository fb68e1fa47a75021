"""Black-Litterman portfolio construction.

Pipeline: annualized sample covariance of the universe's log returns, implied
equilibrium returns from market-cap weights, a posterior blend of equilibrium
and the active (non-flat) insights, then the unconstrained mean-variance
solution projected onto the long-only / per-asset-cap constraint set.

Each view is absolute, on one symbol, so views are two per-symbol arrays: the
view return and its precision. There is no tau: under the proportional rule
Omega_ii = tau Sigma_ii / confidence it cancels out of the posterior mean
(He & Litterman, "The Intuition Behind Black-Litterman Model Portfolios",
1999). All solves are dense (the universe is at most a few dozen assets); a
small ridge keeps the covariance invertible when return series are collinear.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .alpha_fusion import VIEW_CONFIDENCE, Insight
from .directions import DOWN, UP
from .errors import (
    DataAlignmentError,
    InsufficientDataError,
    NumericalError,
    ParameterError,
)
from .metrics import TRADING_DAYS

COVARIANCE_RIDGE = 1e-8

# The risk aversion delta of the equilibrium prior and of the mean-variance solve.
RISK_AVERSION = 2.5


@dataclass
class BlConfig:
    covariance_lookback: int = 252
    max_weight: float = 0.20

    def __post_init__(self):
        if not 0.0 < self.max_weight <= 1.0:
            raise ParameterError("max_weight must be in (0, 1]")
        # A rebalance needs more returns than assets + 1 to estimate a
        # covariance, so a shorter lookback would skip every rebalance.
        if self.covariance_lookback < 3:
            raise ParameterError("covariance_lookback must be >= 3")


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
    insights: Sequence[Insight], symbols: Sequence[str], sigma: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """One absolute view per non-flat insight on a universe symbol, as two
    (N,) arrays: the view return q (the signed insight magnitude) and its
    precision VIEW_CONFIDENCE / Sigma_ii, so a view on a less volatile
    symbol weighs more in the blend. Both are 0 for a symbol without a view.
    The plan issues at most one insight per symbol.
    """
    index = {s: i for i, s in enumerate(symbols)}
    q, precision = np.zeros(len(symbols)), np.zeros(len(symbols))
    for insight in insights:
        if insight.direction not in (UP, DOWN) or insight.symbol not in index:
            continue
        i = index[insight.symbol]
        q[i] = insight.magnitude if insight.direction == UP else -insight.magnitude
        precision[i] = VIEW_CONFIDENCE / max(float(sigma[i, i]), COVARIANCE_RIDGE)
    return q, precision


def posterior_returns(
    pi: np.ndarray, sigma: np.ndarray, q: np.ndarray, precision: np.ndarray
) -> np.ndarray:
    """Blend equilibrium returns with per-symbol views:

        mu = [Sigma^-1 + diag(precision)]^-1 [Sigma^-1 pi + precision * q]

    With no views (every precision 0) the formula degenerates to the prior,
    which is returned exactly (no solve is performed).
    """
    pi = np.asarray(pi, dtype=float)
    if not np.all(np.isfinite(precision) & (precision >= 0)):
        raise ParameterError("view precisions must be finite and >= 0")
    if not precision.any():
        return pi.copy()
    try:
        prior_precision = np.linalg.solve(sigma, np.eye(pi.size))
        system = prior_precision + np.diag(precision)
        rhs = prior_precision @ pi + precision * q
        return np.linalg.solve(system, rhs)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"posterior blend solve failed: {exc}") from exc


def optimize_weights(
    mu: np.ndarray,
    sigma: np.ndarray,
    config: BlConfig,
    symbols: Sequence[str],
) -> dict[str, float]:
    """Each symbol's fraction of equity (the rest stays in cash): the
    mean-variance solution w = (delta Sigma)^-1 mu clamped to [0, max_weight],
    then scaled down proportionally if the clamped weights sum past 1."""
    mu = np.asarray(mu, dtype=float)
    try:
        raw = np.linalg.solve(RISK_AVERSION * sigma, mu)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"mean-variance solve failed: {exc}") from exc
    weights = np.clip(raw, 0.0, config.max_weight)
    total = weights.sum()
    if total > 1.0:
        weights = weights / total
    return {s: float(w) for s, w in zip(symbols, weights)}
