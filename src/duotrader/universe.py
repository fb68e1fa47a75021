"""Two-stage tradable-universe filter.

Stage one ranks all candidates by trailing dollar volume (a liquidity proxy)
and keeps the most liquid ``coarse_count``. Stage two keeps candidates in the
configured sector and ranks them by market capitalization, returning at most
``fine_count`` symbols. Ties break lexicographically so selection is fully
deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date
from typing import Mapping

import numpy as np

from .errors import InsufficientDataError, ParameterError
from .marketdata import InstrumentMeta, SymbolBars


@dataclass
class UniverseConfig:
    coarse_count: int = 100
    fine_count: int = 20
    sector: str = "Energy"
    liquidity_lookback: int = 30

    def __post_init__(self):
        if self.fine_count < 1 or self.coarse_count < self.fine_count:
            raise ParameterError("need 1 <= fine_count <= coarse_count")
        if self.liquidity_lookback < 1:
            raise ParameterError("liquidity_lookback must be >= 1")


def dollar_volume(close: np.ndarray, volume: np.ndarray) -> float:
    """Total traded value: close * volume summed oldest first. A pairwise
    sum (``np.sum``) rounds differently and could reorder candidates."""
    if close.size == 0:
        raise InsufficientDataError("dollar_volume needs at least one bar")
    return float((close * volume).cumsum()[-1])


def select_universe(
    candidates: Mapping[str, tuple[SymbolBars, InstrumentMeta]],
    config: UniverseConfig,
    as_of: date,
) -> list[str]:
    """Apply the liquidity filter then the sector/market-cap filter.

    Each history is truncated to bars on or before ``as_of`` by binary
    search; symbols with no history by then are ignored. Liquidity is the
    dollar volume of the last ``liquidity_lookback`` bars. Returns an
    ordered list (largest market cap first), possibly shorter than
    ``fine_count``.
    """
    as_of_day = as_of.toordinal()
    liquidity: list[tuple[float, str]] = []
    latest_close: dict[str, float] = {}
    for symbol, (bars, _meta) in candidates.items():
        end = int(bars.days.searchsorted(as_of_day, "right"))
        if end == 0:
            continue
        lo = max(0, end - config.liquidity_lookback)
        liquidity.append((dollar_volume(bars.close[lo:end], bars.volume[lo:end]), symbol))
        latest_close[symbol] = float(bars.close[end - 1])

    liquidity.sort(key=lambda item: (-item[0], item[1]))
    coarse = [symbol for _, symbol in liquidity[: config.coarse_count]]

    sector = config.sector.lower()
    ranked: list[tuple[float, str]] = []
    for symbol in coarse:
        meta = candidates[symbol][1]
        if meta.sector.lower() != sector:
            continue
        ranked.append((meta.shares_outstanding * latest_close[symbol], symbol))
    ranked.sort(key=lambda item: (-item[0], item[1]))
    return [symbol for _, symbol in ranked[: config.fine_count]]
