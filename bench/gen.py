"""Seeded market generator for the backtest benchmark.

Log returns follow a two-regime Markov-switching process: one market regime
chain (calm / turbulent) drives a market factor, and each symbol's return is
beta * factor plus idiosyncratic noise whose scale also switches with the
regime. Symbols carry a sector and a share count. The market is written as
the bar, metadata and benchmark CSVs the program ingests, so the program
never sees the generator and a change to the program's own ``synth`` command
cannot move the benchmark's inputs.

The same (seed, shape) always gives bit-identical arrays and files.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date, timedelta
from pathlib import Path

import numpy as np

# (daily drift, daily volatility) of the market factor in each regime.
REGIMES = ((0.0005, 0.009), (-0.0008, 0.020))
TRANSITION = ((0.985, 0.015), (0.030, 0.970))
# Idiosyncratic volatility multiplier per regime.
IDIO_SCALE = (1.0, 1.6)
START_DATE = date(2015, 1, 2)
BAR_HEADER = "symbol,date,open,high,low,close,volume"
META_HEADER = "symbol,sector,shares_outstanding"
BENCHMARK_SYMBOL = "MKT"


@dataclass(frozen=True)
class Market:
    """A generated market: per-symbol OHLCV arrays of shape (S, T)."""

    symbols: list[str]
    sectors: list[str]
    shares: np.ndarray      # (S,) int
    dates: list[date]       # (T,)
    open: np.ndarray
    high: np.ndarray
    low: np.ndarray
    close: np.ndarray
    volume: np.ndarray      # (S, T) int
    bench_close: np.ndarray  # (T,)


def weekdays(start: date, count: int) -> list[date]:
    days, day = [], start
    while len(days) < count:
        if day.weekday() < 5:
            days.append(day)
        day += timedelta(days=1)
    return days


def sector_plan(n_symbols: int, sectors: tuple[tuple[str, float], ...]) -> list[str]:
    """Sector label per symbol slot: each sector gets round(share * n) slots,
    the last sector takes the remainder."""
    labels: list[str] = []
    for name, share in sectors[:-1]:
        labels += [name] * int(round(share * n_symbols))
    labels += [sectors[-1][0]] * (n_symbols - len(labels))
    return labels


def make_market(
    seed: int, n_symbols: int, n_bars: int, sectors: tuple[tuple[str, float], ...]
) -> Market:
    rng = np.random.default_rng(seed)
    trans = np.asarray(TRANSITION)
    regime = np.empty(n_bars, dtype=int)
    regime[0] = 0
    uniforms = rng.random(n_bars)
    for t in range(1, n_bars):
        regime[t] = int(uniforms[t] >= trans[regime[t - 1], 0])

    drift = np.array([r[0] for r in REGIMES])[regime]
    vol = np.array([r[1] for r in REGIMES])[regime]
    factor = drift + vol * rng.standard_normal(n_bars)

    beta = rng.uniform(0.6, 1.4, size=(n_symbols, 1))
    idio = rng.uniform(0.006, 0.016, size=(n_symbols, 1)) * np.asarray(IDIO_SCALE)[regime]
    returns = beta * factor + idio * rng.standard_normal((n_symbols, n_bars))

    start = rng.uniform(15.0, 150.0, size=(n_symbols, 1))
    close = start * np.exp(np.cumsum(returns, axis=1))
    gaps = np.exp(0.002 * rng.standard_normal((n_symbols, n_bars)))
    open_ = np.concatenate([start, close[:, :-1]], axis=1) * gaps
    spans = rng.uniform(0.0, 0.01, size=(2, n_symbols, n_bars))
    high = np.maximum(open_, close) * (1.0 + spans[0])
    low = np.minimum(open_, close) * (1.0 - spans[1])
    base_volume = np.exp(rng.uniform(np.log(2e5), np.log(5e6), size=(n_symbols, 1)))
    volume = (base_volume * np.exp(0.3 * rng.standard_normal((n_symbols, n_bars)))).astype(np.int64)

    labels = sector_plan(n_symbols, sectors)
    order = rng.permutation(n_symbols)
    shares = rng.integers(10_000_000, 1_000_000_000, size=n_symbols)
    return Market(
        symbols=[f"S{i:03d}" for i in range(n_symbols)],
        sectors=[labels[j] for j in order],
        shares=shares,
        dates=weekdays(START_DATE, n_bars),
        open=open_,
        high=high,
        low=low,
        close=close,
        volume=volume,
        bench_close=100.0 * np.exp(np.cumsum(factor)),
    )


def _bar_rows(symbol: str, iso_dates: list[str], o, h, lo, c, v) -> list[str]:
    return [
        f"{symbol},{d},{oo!r},{hh!r},{ll!r},{cc!r},{vv}"
        for d, oo, hh, ll, cc, vv in zip(
            iso_dates, o.tolist(), h.tolist(), lo.tolist(), c.tolist(), v.tolist()
        )
    ]


def write_csvs(market: Market, out_dir: Path) -> dict[str, Path]:
    """Write bars.csv, meta.csv and benchmark.csv; return their paths."""
    out_dir.mkdir(parents=True, exist_ok=True)
    iso = [d.isoformat() for d in market.dates]
    rows = [BAR_HEADER]
    for i, symbol in enumerate(market.symbols):
        rows += _bar_rows(
            symbol, iso, market.open[i], market.high[i], market.low[i],
            market.close[i], market.volume[i],
        )
    bench = market.bench_close
    bench_open = np.concatenate([[100.0], bench[:-1]])
    bench_rows = [BAR_HEADER] + _bar_rows(
        BENCHMARK_SYMBOL, iso, bench_open, np.maximum(bench_open, bench),
        np.minimum(bench_open, bench), bench, np.full(bench.size, 1_000_000),
    )
    meta_rows = [META_HEADER] + [
        f"{s},{sector},{int(n)}"
        for s, sector, n in zip(market.symbols, market.sectors, market.shares)
    ]
    paths = {
        "bars": out_dir / "bars.csv",
        "meta": out_dir / "meta.csv",
        "benchmark": out_dir / "benchmark.csv",
    }
    for key, lines in (("bars", rows), ("meta", meta_rows), ("benchmark", bench_rows)):
        paths[key].write_text("\n".join(lines) + "\n")
    return paths
