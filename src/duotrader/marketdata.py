"""Bar ingestion, feature extraction, and synthetic regime-switching data.

All prices are daily closes in currency units. Ingestion is strict about
closing prices (a bar without a valid positive close is dropped) and about
per-symbol timestamp ordering (a violation is fatal).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from datetime import date, timedelta
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DataOrderingError,
    DuotraderError,
    InsufficientDataError,
    InvalidInputError,
    ParameterError,
)

BAR_CSV_HEADER = ["symbol", "date", "open", "high", "low", "close", "volume"]
META_CSV_HEADER = ["symbol", "sector", "shares_outstanding"]


@dataclass(frozen=True)
class Bar:
    """One daily OHLCV observation for a symbol."""

    symbol: str
    timestamp: date
    open: float
    high: float
    low: float
    close: float
    volume: int


@dataclass(frozen=True)
class InstrumentMeta:
    """Static per-symbol metadata used by the universe filters."""

    symbol: str
    sector: str
    shares_outstanding: int


class RollingWindow:
    """Fixed-capacity FIFO of bars, newest last. Pushing at capacity evicts the oldest."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ParameterError(f"window capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._entries: list[Bar] = []

    def push(self, bar: Bar) -> None:
        self._entries.append(bar)
        if len(self._entries) > self.capacity:
            del self._entries[0]

    def __len__(self) -> int:
        return len(self._entries)

    def closes(self) -> np.ndarray:
        return np.array([b.close for b in self._entries], dtype=float)


@dataclass
class IngestResult:
    """Bars grouped by symbol plus ingestion diagnostics."""

    bars_by_symbol: dict[str, list[Bar]]
    rejected_rows: int = 0
    diagnostics: list[str] = field(default_factory=list)

    @property
    def symbols(self) -> list[str]:
        return sorted(self.bars_by_symbol)


def _parse_float(text: str, default: float | None = None) -> float | None:
    text = text.strip()
    if not text:
        return default
    return float(text)


def ingest_csv(path: str | Path) -> IngestResult:
    """Load a bar CSV (header: symbol,date,open,high,low,close,volume).

    Rows without a valid positive close are skipped and counted. A row whose
    optional open/high/low/volume fields are blank inherits the close (volume
    defaults to 0). Non-monotonic timestamps within a symbol are fatal.
    """
    path = Path(path)
    try:
        handle = path.open(newline="")
    except OSError as exc:
        raise DuotraderError(f"cannot read bar file {path}: {exc}") from exc

    bars: dict[str, list[Bar]] = {}
    rejected = 0
    diagnostics: list[str] = []
    with handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or [h.strip().lower() for h in header] != BAR_CSV_HEADER:
            raise DuotraderError(
                f"{path}: expected header {','.join(BAR_CSV_HEADER)}, got {header}"
            )
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != len(BAR_CSV_HEADER):
                rejected += 1
                diagnostics.append(f"{path}:{lineno}: wrong field count")
                continue
            symbol = row[0].strip()
            try:
                ts = date.fromisoformat(row[1].strip())
                close = _parse_float(row[5])
                if close is None or not np.isfinite(close) or close <= 0:
                    raise ValueError("invalid close")
                open_ = _parse_float(row[2], close)
                high = _parse_float(row[3], close)
                low = _parse_float(row[4], close)
                vol_text = row[6].strip()
                volume = int(float(vol_text)) if vol_text else 0
            except ValueError as exc:
                rejected += 1
                diagnostics.append(f"{path}:{lineno}: {exc}")
                continue
            if not symbol:
                rejected += 1
                diagnostics.append(f"{path}:{lineno}: empty symbol")
                continue
            if volume < 0 or low > min(open_, close) or max(open_, close) > high:
                rejected += 1
                diagnostics.append(f"{path}:{lineno}: inconsistent OHLCV fields")
                continue
            prior = bars.setdefault(symbol, [])
            if prior and ts <= prior[-1].timestamp:
                raise DataOrderingError(
                    f"{path}:{lineno}: {symbol} timestamp {ts} not after {prior[-1].timestamp}"
                )
            prior.append(Bar(symbol, ts, open_, high, low, close, volume))
    return IngestResult(bars, rejected, diagnostics)


def ingest_meta_csv(path: str | Path) -> dict[str, InstrumentMeta]:
    """Load instrument metadata (header: symbol,sector,shares_outstanding)."""
    path = Path(path)
    try:
        handle = path.open(newline="")
    except OSError as exc:
        raise DuotraderError(f"cannot read metadata file {path}: {exc}") from exc

    meta: dict[str, InstrumentMeta] = {}
    with handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or [h.strip().lower() for h in header] != META_CSV_HEADER:
            raise DuotraderError(
                f"{path}: expected header {','.join(META_CSV_HEADER)}, got {header}"
            )
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != 3:
                raise DuotraderError(f"{path}:{lineno}: wrong field count")
            symbol = row[0].strip()
            shares = int(float(row[2]))
            if not symbol or shares <= 0:
                raise DuotraderError(f"{path}:{lineno}: invalid metadata row")
            meta[symbol] = InstrumentMeta(symbol, row[1].strip(), shares)
    return meta


def log_returns(closes: Sequence[float] | np.ndarray) -> np.ndarray:
    """ln(c[i+1] / c[i]) for consecutive closes. Requires positive prices."""
    arr = np.asarray(closes, dtype=float)
    if arr.size < 2:
        raise InsufficientDataError(f"need at least 2 closes, got {arr.size}")
    if np.any(~np.isfinite(arr)) or np.any(arr <= 0):
        raise InvalidInputError("log returns require finite positive closes")
    return np.diff(np.log(arr))


def _next_weekday(day: date) -> date:
    day = day + timedelta(days=1)
    while day.weekday() >= 5:
        day = day + timedelta(days=1)
    return day


def synth_regime_series(
    seed: int,
    n_bars: int,
    regimes: Sequence[tuple[float, float]],
    transition: Iterable[Iterable[float]],
    symbol: str = "SYN",
    start_price: float = 100.0,
    start_date: date = date(2015, 1, 2),
) -> tuple[list[Bar], np.ndarray]:
    """Generate a geometric price path driven by a hidden Markov regime chain.

    Each regime is a (daily drift, daily volatility) pair for the Gaussian log
    return drawn while that regime is active. Returns the bar sequence and the
    true per-bar regime labels. Pure function of its arguments: identical seed
    gives a bit-identical series.
    """
    if n_bars < 1:
        raise ParameterError("n_bars must be >= 1")
    means = np.array([m for m, _ in regimes], dtype=float)
    stds = np.array([s for _, s in regimes], dtype=float)
    if means.size == 0:
        raise ParameterError("at least one regime is required")
    if np.any(stds <= 0):
        raise ParameterError("every regime stdev must be > 0")
    trans = np.asarray(transition, dtype=float)
    k = means.size
    if trans.shape != (k, k) or np.any(trans < 0) or np.any(
        np.abs(trans.sum(axis=1) - 1.0) > 1e-9
    ):
        raise ParameterError("transition must be a row-stochastic KxK matrix")

    rng = np.random.default_rng(seed)
    labels = np.empty(n_bars, dtype=int)
    labels[0] = rng.integers(k)
    for t in range(1, n_bars):
        labels[t] = rng.choice(k, p=trans[labels[t - 1]])
    returns = means[labels] + stds[labels] * rng.standard_normal(n_bars)

    closes = start_price * np.exp(np.cumsum(returns))
    opens = np.concatenate([[start_price], closes[:-1]])
    spans = rng.uniform(0.0, 0.002, size=(n_bars, 2))
    volumes = rng.integers(100_000, 2_000_000, size=n_bars)

    bars: list[Bar] = []
    day = start_date
    for t in range(n_bars):
        hi = max(opens[t], closes[t]) * (1.0 + spans[t, 0])
        lo = min(opens[t], closes[t]) * (1.0 - spans[t, 1])
        bars.append(
            Bar(symbol, day, float(opens[t]), float(hi), float(lo), float(closes[t]), int(volumes[t]))
        )
        day = _next_weekday(day)
    return bars, labels
