import hashlib
import json
from dataclasses import fields
from datetime import date, timedelta

import numpy as np
import pytest

from duotrader import workers
from duotrader.marketdata import SymbolBars


@pytest.fixture
def pools(monkeypatch):
    """The worker count of every pool ``fork_map`` starts."""
    started = []
    pool = workers.ProcessPoolExecutor

    def spy(max_workers, *args, **kwargs):
        started.append(max_workers)
        return pool(max_workers, *args, **kwargs)

    monkeypatch.setattr(workers, "ProcessPoolExecutor", spy)
    return started


def cache_of(path):
    """The ingest record that ``ingest_csv`` keeps beside a bar CSV."""
    return path.with_name(f".{path.name}.ingest.npz")


def fresh_copy(path, data):
    """``path`` with ``data`` written to it as a new file (a new inode) and
    its ingest record deleted, so that its next ingest parses it rather than
    loading the record."""
    cache_of(path).unlink(missing_ok=True)
    fresh = path.with_name(f"{path.name}.fresh")
    fresh.write_bytes(data)
    return fresh.replace(path)


def jsonl_sha256(records) -> str:
    """sha256 of the records as the CLI writes them to a ``.jsonl`` file."""
    text = "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)
    return hashlib.sha256(text.encode()).hexdigest()


def make_bars(closes, start=date(2020, 1, 2), volumes=None):
    """One bar per close on consecutive weekdays, each with its open, high
    and low at its close."""
    days = []
    day = start
    for _ in closes:
        days.append(day.toordinal())
        day = day + timedelta(days=1)
        while day.weekday() >= 5:
            day = day + timedelta(days=1)
    closes = np.array(closes, dtype=float)
    volumes = np.full(closes.size, 1000.0) if volumes is None else np.array(volumes, dtype=float)
    return SymbolBars(np.array(days, dtype=np.int64), closes, closes, closes, closes, volumes)


def log_returns(closes):
    """ln(c[i+1] / c[i]) for consecutive closes, as the plan computes them."""
    return np.diff(np.log(np.asarray(closes, dtype=float)))


def take_rows(bars, rows):
    """The bars of the rows that a slice, mask or index array selects."""
    return SymbolBars(*(getattr(bars, column.name)[rows] for column in fields(SymbolBars)))


def scale_prices(bars, factor, first=0):
    """The bars with every price from row ``first`` on multiplied by
    ``factor``."""
    prices = []
    for column in (bars.open, bars.high, bars.low, bars.close):
        column = column.copy()
        column[first:] *= factor
        prices.append(column)
    return SymbolBars(bars.days, *prices, bars.volume)


def day_of(bars, row):
    """The date of a row."""
    return date.fromordinal(int(bars.days[row]))


def fifo_accounting_gap(result, bars_by_symbol, initial=100_000.0):
    """Worst absolute violation of equity = initial + realized + unrealized - fees."""
    closes = {
        s: {date.fromordinal(d): c for d, c in zip(bars.days.tolist(), bars.close.tolist())}
        for s, bars in bars_by_symbol.items()
    }
    fills_by_date = {}
    for f in result.fills:
        fills_by_date.setdefault(f.timestamp, []).append(f)
    lots: dict[str, list[list[float]]] = {}
    realized = fees = 0.0
    last_close: dict[str, float] = {}
    worst = 0.0
    for point in result.equity_curve:
        for symbol, table in closes.items():
            if point.timestamp in table:
                last_close[symbol] = table[point.timestamp]
        for f in fills_by_date.get(point.timestamp, []):
            fees += f.fee
            if f.side == "buy":
                lots.setdefault(f.symbol, []).append([f.quantity, f.price])
            else:
                remaining = f.quantity
                while remaining > 0:
                    lot = lots[f.symbol][0]
                    taken = min(remaining, lot[0])
                    realized += taken * (f.price - lot[1])
                    lot[0] -= taken
                    remaining -= taken
                    if lot[0] == 0:
                        lots[f.symbol].pop(0)
        unrealized = sum(
            qty * (last_close[s] - px) for s, ls in lots.items() for qty, px in ls
        )
        identity = initial + realized + unrealized - fees
        worst = max(worst, abs(identity - point.equity))
    return worst
