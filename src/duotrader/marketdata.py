"""Daily bar ingestion, feature extraction, and synthetic regime-switching data.

All prices are daily closes in currency units. Ingestion keeps each
symbol's history as columns (``SymbolBars``), not as one object per bar. It
is strict about prices (a bar without a valid positive close, open, high
and low, or with a non-finite volume, is dropped) and about per-symbol
timestamp ordering (a violation is fatal).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from datetime import date
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DataAlignmentError,
    DataOrderingError,
    DuotraderError,
    InsufficientDataError,
    InvalidInputError,
    ParameterError,
)

BAR_CSV_HEADER = ["symbol", "date", "open", "high", "low", "close", "volume"]
META_CSV_HEADER = ["symbol", "sector", "shares_outstanding"]


@dataclass(frozen=True)
class InstrumentMeta:
    """Static per-symbol metadata used by the universe filters."""

    symbol: str
    sector: str
    shares_outstanding: int


@dataclass(frozen=True, eq=False)
class SymbolBars:
    """One symbol's daily history as columns, oldest first: ``days`` holds
    strictly increasing day ordinals (``date.toordinal``) and the other five
    float64 arrays hold that day's fields. A volume is a whole number of
    shares. Construction checks that the six columns share one length and
    that the days strictly increase, and makes every column read-only; it
    copies none of them."""

    days: np.ndarray
    open: np.ndarray
    high: np.ndarray
    low: np.ndarray
    close: np.ndarray
    volume: np.ndarray

    def __post_init__(self):
        columns = (self.days, self.open, self.high, self.low, self.close, self.volume)
        if any(column.shape != (self.days.size,) for column in columns):
            raise DataAlignmentError("the columns of a SymbolBars must share one length")
        if np.any(np.diff(self.days) <= 0):
            raise DataOrderingError("bars must be in strictly increasing day order")
        for column in columns:
            column.flags.writeable = False

    def __len__(self) -> int:
        return self.days.size


@dataclass
class IngestResult:
    """Per-symbol columns, in the order each symbol first appears, plus
    ingestion diagnostics."""

    bars_by_symbol: dict[str, SymbolBars]
    rejected_rows: int = 0
    diagnostics: list[str] = field(default_factory=list)


# One CSV row as numpy's C parser reads it. Symbols and dates stay Python
# strings (a fixed-width string field would silently truncate a long one).
_ROW_DTYPE = np.dtype(
    [("symbol", object), ("date", object)]
    + [(name, np.float64) for name in BAR_CSV_HEADER[2:]]
)


def _parse_float(text: str, default: float | None = None) -> float | None:
    text = text.strip()
    if not text:
        return default
    return float(text)


def _parse_price(text: str, default: float | None, name: str) -> float:
    """A finite positive price; a blank field gives ``default``."""
    value = _parse_float(text, default)
    if value is None or not math.isfinite(value) or value <= 0:
        raise ValueError(f"invalid {name}")
    return value


def _open_bar_csv(path: Path):
    """Open a bar CSV and check its header; returns the open handle and a
    csv reader positioned after the header."""
    try:
        handle = path.open(newline="")
    except OSError as exc:
        raise DuotraderError(f"cannot read bar file {path}: {exc}") from exc
    reader = csv.reader(handle)
    header = next(reader, None)
    if header is None or [h.strip().lower() for h in header] != BAR_CSV_HEADER:
        handle.close()
        raise DuotraderError(
            f"{path}: expected header {','.join(BAR_CSV_HEADER)}, got {header}"
        )
    return handle, reader


def ingest_csv(path: str | Path) -> IngestResult:
    """Load a bar CSV (header: symbol,date,open,high,low,close,volume).

    Rows without a valid positive close, open, high and low, or with a
    non-finite volume, are skipped and counted. A row whose optional
    open/high/low/volume fields are blank inherits the close (volume
    defaults to 0); a volume is truncated to whole shares. Non-monotonic
    timestamps within a symbol are fatal.

    The file is first read by numpy's C parser and checked column-wise; a
    file that this cannot show to be clean (a parse error, a blank field, a
    row that would be rejected, a quoted or padded symbol, an out-of-order
    timestamp) is read again row by row, which gives the same columns plus
    the diagnostics.
    """
    path = Path(path)
    handle, reader = _open_bar_csv(path)
    with handle:
        if not any(reader):
            return IngestResult({})
    columns = _read_clean_columns(path)
    if columns is not None:
        return IngestResult(columns)
    return _read_rows(path)


def _distinct(values: np.ndarray) -> tuple[list[str], np.ndarray]:
    """The distinct strings of an object array in order of first appearance,
    and each element's index into them."""
    index: dict[str, int] = {}
    codes = np.fromiter(
        (index.setdefault(v, len(index)) for v in values), dtype=np.intp, count=values.size
    )
    return list(index), codes


def _read_clean_columns(path: Path) -> dict[str, SymbolBars] | None:
    """The fast path of ``ingest_csv``: None unless every row parses and
    passes the row-by-row rules, with each symbol's timestamps increasing."""
    try:
        with path.open() as handle:
            table = np.loadtxt(
                handle, dtype=_ROW_DTYPE, delimiter=",", skiprows=1, comments=None, ndmin=1
            )
    except OSError as exc:
        raise DuotraderError(f"cannot read bar file {path}: {exc}") from exc
    except ValueError:
        return None

    symbols, symbol_codes = _distinct(table["symbol"])
    if any(not s or s != s.strip() or '"' in s for s in symbols):
        return None
    dates, date_codes = _distinct(table["date"])
    try:
        ordinals = np.array([date.fromisoformat(d.strip()).toordinal() for d in dates])
    except ValueError:
        return None
    days = ordinals[date_codes]

    open_, high, low, close, volume = (table[name] for name in BAR_CSV_HEADER[2:])
    volume = np.trunc(volume) + 0.0  # int(float(text)), with -0.0 as 0
    # low > 0 and the OHLC ordering make every price positive.
    clean = (
        np.isfinite(open_) & np.isfinite(high) & np.isfinite(low)
        & np.isfinite(close) & np.isfinite(volume) & (low > 0) & (volume >= 0)
        & (low <= np.minimum(open_, close)) & (np.maximum(open_, close) <= high)
    )
    if not clean.all():
        return None

    # Group the rows by symbol, keeping file order within each symbol.
    order = np.argsort(symbol_codes, kind="stable")
    grouped_codes, days = symbol_codes[order], days[order]
    same_symbol = grouped_codes[1:] == grouped_codes[:-1]
    if np.any(np.diff(days)[same_symbol] <= 0):
        return None
    columns = [days, *(c[order] for c in (open_, high, low, close, volume))]
    bounds = np.concatenate([[0], np.flatnonzero(~same_symbol) + 1, [days.size]])
    return {
        symbol: SymbolBars(*(c[bounds[code]:bounds[code + 1]] for c in columns))
        for code, symbol in enumerate(symbols)
    }


def _read_rows(path: Path) -> IngestResult:
    """The row-by-row reader of ``ingest_csv``, which also accounts for
    every rejected row."""
    rows: dict[str, list[tuple]] = {}
    rejected = 0
    diagnostics: list[str] = []
    handle, reader = _open_bar_csv(path)
    with handle:
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
                close = _parse_price(row[5], None, "close")
                open_ = _parse_price(row[2], close, "open")
                high = _parse_price(row[3], close, "high")
                low = _parse_price(row[4], close, "low")
                vol_text = row[6].strip()
                volume = int(float(vol_text)) if vol_text else 0
            except (ValueError, OverflowError) as exc:
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
            prior = rows.setdefault(symbol, [])
            day = ts.toordinal()
            if prior and day <= prior[-1][0]:
                raise DataOrderingError(
                    f"{path}:{lineno}: {symbol} timestamp {ts} not after "
                    f"{date.fromordinal(prior[-1][0])}"
                )
            prior.append((day, open_, high, low, close, volume))
    columns = {}
    for symbol, records in rows.items():
        days, *fields = zip(*records)
        arrays = [np.array(days, dtype=np.int64)] + [np.array(f, dtype=float) for f in fields]
        columns[symbol] = SymbolBars(*arrays)
    return IngestResult(columns, rejected, diagnostics)


def ingest_meta_csv(path: str | Path) -> dict[str, InstrumentMeta]:
    """Load instrument metadata (header: symbol,sector,shares_outstanding)."""
    path = Path(path)
    try:
        handle = path.open(newline="")
    except OSError as exc:
        raise DuotraderError(f"cannot read metadata file {path}: {exc}") from exc

    meta: dict[str, InstrumentMeta] = {}
    first_line: dict[str, int] = {}
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
            try:
                shares = int(float(row[2]))
            except (ValueError, OverflowError) as exc:
                raise DuotraderError(f"{path}:{lineno}: invalid shares_outstanding: {exc}") from exc
            if not symbol or shares <= 0:
                raise DuotraderError(f"{path}:{lineno}: invalid metadata row")
            if symbol in first_line:
                at = first_line[symbol]
                raise DuotraderError(f"{path}:{lineno}: duplicate symbol {symbol} (first on line {at})")
            first_line[symbol] = lineno
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


def synth_regime_series(
    seed: int,
    n_bars: int,
    regimes: Sequence[tuple[float, float]],
    transition: Iterable[Iterable[float]],
    start_price: float = 100.0,
    start_date: date = date(2015, 1, 2),
) -> tuple[SymbolBars, np.ndarray]:
    """Generate a geometric price path driven by a hidden Markov regime chain.

    Each regime is a (daily drift, daily volatility) pair for the Gaussian log
    return drawn while that regime is active. Returns the bars and the true
    per-bar regime labels. The first bar is on ``start_date``, whatever its
    weekday, and each later bar on the next weekday. Pure function of its
    arguments: identical seed gives a bit-identical series.
    """
    if n_bars < 1:
        raise ParameterError("n_bars must be >= 1")
    if not start_price > 0:
        raise ParameterError("start_price must be > 0")
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

    highs = np.maximum(opens, closes) * (1.0 + spans[:, 0])
    lows = np.minimum(opens, closes) * (1.0 - spans[:, 1])
    # Rolling a weekend start_date back to its Friday makes the second bar
    # the Monday after it. datetime64[D] counts days from 1970-01-01.
    days = np.busday_offset(start_date, np.arange(n_bars), roll="backward").astype(np.int64)
    days += date(1970, 1, 1).toordinal()
    days[0] = start_date.toordinal()
    return SymbolBars(days, opens, highs, lows, closes, volumes.astype(float)), labels
