"""Two-stage tradable-universe filter.

Stage one ranks all candidates by trailing dollar volume (a liquidity proxy)
and keeps the most liquid ``coarse_count``. Stage two keeps candidates in the
configured sector and ranks them by market capitalization, returning at most
``fine_count`` symbols. Ties break lexicographically so selection is fully
deterministic.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from datetime import date
from typing import Mapping, Sequence

from .errors import InsufficientDataError, ParameterError
from .marketdata import Bar, InstrumentMeta


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


def dollar_volume(bars: Sequence[Bar]) -> float:
    """Total traded value: sum of close * volume over the given bars."""
    if not bars:
        raise InsufficientDataError("dollar_volume needs at least one bar")
    return float(sum(b.close * b.volume for b in bars))


def select_universe(
    candidates: Mapping[str, tuple[Sequence[Bar], InstrumentMeta]],
    config: UniverseConfig,
    as_of: date,
) -> list[str]:
    """Apply the liquidity filter then the sector/market-cap filter.

    Each history must be in timestamp order (``ingest_csv`` enforces it), so
    it is truncated to bars on or before ``as_of`` by bisection; symbols
    with no history by then are ignored. Returns an ordered list (largest
    market cap first), possibly shorter than ``fine_count``.
    """
    liquidity: list[tuple[float, str]] = []
    latest_close: dict[str, float] = {}
    for symbol, (bars, _meta) in candidates.items():
        end = bisect_right(bars, as_of, key=lambda b: b.timestamp)
        if end == 0:
            continue
        window = bars[max(0, end - config.liquidity_lookback):end]
        liquidity.append((dollar_volume(window), symbol))
        latest_close[symbol] = bars[end - 1].close

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
