from dataclasses import fields
from datetime import date, timedelta

import numpy as np

from duotrader.marketdata import SymbolBars


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


def closes_by_date(bars):
    """Each bar's close keyed by its date."""
    return {date.fromordinal(d): c for d, c in zip(bars.days.tolist(), bars.close.tolist())}
