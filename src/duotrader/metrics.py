"""Performance report: return, risk, benchmark-relative, and trade statistics
computed from an equity curve, a fill log, and an aligned benchmark series.

Conventions (documented because several have competing definitions):
  - daily returns are simple returns of the equity curve; 252 trading days
    per year for annualization; the risk-free rate is quoted annually and
    applied at rate/252 per day
  - the Sharpe-style ratios use the sample standard deviation (ddof=1);
    Sortino's downside deviation is the root of the full-sample mean of
    squared negative returns
  - the probabilistic Sharpe ratio uses the per-day Sharpe, a zero benchmark
    Sharpe, and the skew/kurtosis-adjusted standard error
  - trade statistics come from FIFO round trips (a position opened and fully
    closed); break-even round trips count as wins; round-trip P&L excludes
    fees, which are reported separately
  - turnover is average daily traded value over average equity

Ratios that are undefined on the given data (zero return variance, zero
benchmark variance, no closed trades) are reported as 0.0 and listed in the
report's ``flags``. A fill whose fee is greater than its notional (quantity
times price) adds the ``fee-exceeds-notional`` flag. A benchmark whose last
bar comes before the last equity date adds ``benchmark-ends-early``: its
returns after that bar are forward-filled zeros. One whose first bar comes
after the first equity date adds ``benchmark-starts-late``: its first close
is back-filled, so its returns before that bar are zeros.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from datetime import date
from typing import Iterable, Sequence

import numpy as np

from .errors import DataAlignmentError, InsufficientDataError

TRADING_DAYS = 252


@dataclass
class MetricsReport:
    total_return: float
    cagr: float
    sharpe: float
    sortino: float
    probabilistic_sharpe: float
    max_drawdown: float
    annual_stdev: float
    annual_variance: float
    alpha: float
    beta: float
    information_ratio: float
    tracking_error: float
    treynor: float
    win_rate: float
    loss_rate: float
    average_win: float
    average_loss: float
    profit_loss_ratio: float
    total_orders: int
    turnover: float
    total_fees: float
    start_equity: float
    end_equity: float
    runtime_days: int
    flags: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return asdict(self)


# --- standalone formula helpers -------------------------------------------

def total_return(start_equity: float, end_equity: float) -> float:
    return end_equity / start_equity - 1.0


def cagr(start_equity: float, end_equity: float, calendar_days: int) -> float:
    """Compound annual growth rate over a calendar-day span (365.25-day year)."""
    if calendar_days <= 0:
        raise InsufficientDataError("calendar_days must be positive")
    return (end_equity / start_equity) ** (365.25 / calendar_days) - 1.0


def profit_loss_ratio(average_win: float, average_loss: float) -> float:
    if average_loss == 0:
        return 0.0
    return average_win / abs(average_loss)


def max_drawdown(equity: Sequence[float] | np.ndarray) -> float:
    """Largest peak-to-trough fractional decline; 0 for non-decreasing curves."""
    values = np.asarray(equity, dtype=float)
    peaks = np.maximum.accumulate(values)
    return float(np.max(1.0 - values / peaks))


def normal_cdf(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


# --- trade accounting ------------------------------------------------------

@dataclass(frozen=True)
class RoundTrip:
    """One completed position: opened from flat and closed back to flat."""

    symbol: str
    pnl: float          # price P&L, fees excluded
    cost_basis: float   # total purchase value
    return_pct: float   # pnl / cost_basis


def round_trips(fills: Iterable) -> list[RoundTrip]:
    """Net entry fills against exit fills FIFO, per symbol, in fill order.

    A round trip closes when the symbol's net position returns to zero; a
    position still open at the end of the log is not a completed trade and is
    excluded. Fills need symbol/side/quantity/price attributes.
    """
    lots: dict[str, list[list[float]]] = {}
    running: dict[str, dict[str, float]] = {}
    trips: list[RoundTrip] = []
    for fill in fills:
        symbol = fill.symbol
        lots.setdefault(symbol, [])
        acc = running.setdefault(symbol, {"pnl": 0.0, "cost": 0.0})
        if fill.side == "buy":
            lots[symbol].append([float(fill.quantity), float(fill.price)])
            acc["cost"] += fill.quantity * fill.price
        else:
            remaining = float(fill.quantity)
            while remaining > 0 and lots[symbol]:
                lot = lots[symbol][0]
                matched = min(remaining, lot[0])
                acc["pnl"] += matched * (fill.price - lot[1])
                lot[0] -= matched
                remaining -= matched
                if lot[0] <= 0:
                    lots[symbol].pop(0)
            if not lots[symbol]:
                trips.append(
                    RoundTrip(
                        symbol,
                        acc["pnl"],
                        acc["cost"],
                        acc["pnl"] / acc["cost"] if acc["cost"] else 0.0,
                    )
                )
                running[symbol] = {"pnl": 0.0, "cost": 0.0}
    return trips


# --- the full report -------------------------------------------------------

def compute_report(
    dates: Sequence[date],
    equity: Sequence[float] | np.ndarray,
    fills: Iterable,
    benchmark_returns: Sequence[float] | np.ndarray | None = None,
    risk_free_rate: float = 0.0,
    benchmark_end: date | None = None,
    benchmark_start: date | None = None,
) -> MetricsReport:
    """Compute every report statistic.

    ``benchmark_returns`` must hold one simple return per equity-curve day
    after the first (length = len(equity) - 1); pass None to skip
    benchmark-relative statistics (they are flagged and reported as 0).
    ``benchmark_start`` and ``benchmark_end`` are the dates of the
    benchmark's first and last bars, if known.
    """
    values = np.asarray(equity, dtype=float)
    if values.size < 2:
        raise InsufficientDataError("equity curve needs at least 2 points")
    if len(dates) != values.size:
        raise DataAlignmentError("dates and equity must have equal length")

    flags: list[str] = []
    returns = values[1:] / values[:-1] - 1.0
    n = returns.size
    rf_daily = risk_free_rate / TRADING_DAYS

    if benchmark_returns is None:
        bench = np.zeros(n)
        flags.append("no-benchmark")
    else:
        bench = np.asarray(benchmark_returns, dtype=float)
        if bench.size != n:
            raise DataAlignmentError(
                f"benchmark has {bench.size} returns, expected {n}"
            )
        if benchmark_end is not None and benchmark_end < dates[-1]:
            flags.append("benchmark-ends-early")
        if benchmark_start is not None and benchmark_start > dates[0]:
            flags.append("benchmark-starts-late")

    start, end = float(values[0]), float(values[-1])
    calendar_days = (dates[-1] - dates[0]).days
    tot = total_return(start, end)
    growth = cagr(start, end, calendar_days) if calendar_days > 0 else 0.0
    if calendar_days <= 0:
        flags.append("zero-calendar-span")

    excess = returns - rf_daily
    std = float(np.std(excess, ddof=1)) if n > 1 else 0.0
    ann_std = float(np.std(returns, ddof=1)) * math.sqrt(TRADING_DAYS) if n > 1 else 0.0
    if std > 0:
        sharpe = float(np.mean(excess)) / std * math.sqrt(TRADING_DAYS)
        sharpe_daily = float(np.mean(excess)) / std
    else:
        sharpe, sharpe_daily = 0.0, 0.0
        flags.append("sharpe-undefined")

    downside = float(np.sqrt(np.mean(np.minimum(returns, 0.0) ** 2)))
    if downside > 0:
        sortino = float(np.mean(excess)) / downside * math.sqrt(TRADING_DAYS)
    else:
        sortino = 0.0
        flags.append("sortino-undefined")

    psr = _probabilistic_sharpe(returns, sharpe_daily, flags)

    mdd = max_drawdown(values)

    ann_mean = float(np.mean(returns)) * TRADING_DAYS
    bench_ann_mean = float(np.mean(bench)) * TRADING_DAYS
    bench_var = float(np.var(bench, ddof=1)) if n > 1 else 0.0
    if bench_var > 0:
        # Elementwise, not np.cov's BLAS product: the same bits on any CPU.
        covariance = float(np.sum((returns - returns.mean()) * (bench - bench.mean()))) / (n - 1)
        beta = covariance / bench_var
        alpha = ann_mean - (risk_free_rate + beta * (bench_ann_mean - risk_free_rate))
        treynor = (ann_mean - risk_free_rate) / beta if beta != 0 else 0.0
        if beta == 0:
            flags.append("treynor-undefined")
    else:
        beta, alpha, treynor = 0.0, 0.0, 0.0
        flags.append("beta-undefined")

    active = returns - bench
    te = float(np.std(active, ddof=1)) * math.sqrt(TRADING_DAYS) if n > 1 else 0.0
    if te > 0:
        info_ratio = float(np.mean(active)) * TRADING_DAYS / te
    else:
        info_ratio = 0.0
        flags.append("information-ratio-undefined")

    fills = list(fills)
    trips = round_trips(fills)
    wins = [t.return_pct for t in trips if t.pnl >= 0.0]
    losses = [t.return_pct for t in trips if t.pnl < 0.0]
    if trips:
        win_rate = len(wins) / len(trips)
        loss_rate = len(losses) / len(trips)
    else:
        win_rate = loss_rate = 0.0
        flags.append("no-closed-trades")
    average_win = float(np.mean(wins)) if wins else 0.0
    average_loss = float(np.mean(losses)) if losses else 0.0
    plr = profit_loss_ratio(average_win, average_loss)

    total_fees = float(sum(f.fee for f in fills))
    if any(f.fee > f.quantity * f.price for f in fills):
        flags.append("fee-exceeds-notional")
    traded_value = float(sum(f.quantity * f.price for f in fills))
    turnover = (traded_value / values.size) / float(np.mean(values))

    return MetricsReport(
        total_return=tot,
        cagr=growth,
        sharpe=sharpe,
        sortino=sortino,
        probabilistic_sharpe=psr,
        max_drawdown=mdd,
        annual_stdev=ann_std,
        annual_variance=ann_std**2,
        alpha=alpha,
        beta=beta,
        information_ratio=info_ratio,
        tracking_error=te,
        treynor=treynor,
        win_rate=win_rate,
        loss_rate=loss_rate,
        average_win=average_win,
        average_loss=average_loss,
        profit_loss_ratio=plr,
        total_orders=len(fills),
        turnover=turnover,
        total_fees=total_fees,
        start_equity=start,
        end_equity=end,
        runtime_days=calendar_days,
        flags=flags,
    )


def _probabilistic_sharpe(returns: np.ndarray, sharpe_daily: float, flags: list[str]) -> float:
    """P(true Sharpe > 0) adjusted for sample length, skew, and kurtosis:

        PSR = Phi( SR * sqrt(n - 1) / sqrt(1 - skew*SR + (kurt - 1)/4 * SR^2) )

    with the per-day Sharpe and raw (non-excess) kurtosis.
    """
    n = returns.size
    if n < 2 or sharpe_daily == 0.0:
        flags.append("psr-undefined")
        return 0.0
    centered = returns - returns.mean()
    m2 = float(np.mean(centered**2))
    if m2 <= 0:
        flags.append("psr-undefined")
        return 0.0
    skew = float(np.mean(centered**3)) / m2**1.5
    kurt = float(np.mean(centered**4)) / m2**2
    denom = 1.0 - skew * sharpe_daily + (kurt - 1.0) / 4.0 * sharpe_daily**2
    if denom <= 0:
        flags.append("psr-undefined")
        return 0.0
    return normal_cdf(sharpe_daily * math.sqrt(n - 1) / math.sqrt(denom))
