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

from .errors import ParameterError
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


_SPAN = date.max.toordinal() + 2  # every day ordinal is below _SPAN - 1


@dataclass(frozen=True, eq=False)
class CandidatePanel:
    """Every candidate's selection inputs, one candidate per symbol in sorted
    order, as (candidate, row) matrices zero-padded past a candidate's last
    bar: its closes, and a view whose ``windows[i, r]`` holds the ``close *
    volume`` of candidate i's last ``lookback`` rows up to row r, with zeros
    for rows before its first. ``day_keys`` flattens i * _SPAN + day of each
    row (i * _SPAN + _SPAN - 1 past the last bar), so it is sorted and one
    searchsorted finds every candidate's last row on or before a day."""

    symbols: list[str]
    sectors: np.ndarray  # lower-cased
    shares: np.ndarray
    day_keys: np.ndarray
    windows: np.ndarray
    close: np.ndarray


def candidate_panel(
    series: Mapping[str, SymbolBars], meta: Mapping[str, InstrumentMeta], lookback: int
) -> CandidatePanel:
    """The panel of every symbol with bars and metadata, over its whole history."""
    symbols = sorted(s for s in series if s in meta)
    width = max([1] + [series[s].days.size for s in symbols])
    day_keys = np.full((len(symbols), width), _SPAN - 1, np.int64)
    traded = np.zeros((len(symbols), lookback - 1 + width))
    close = np.zeros((len(symbols), width))
    for i, bars in enumerate(series[s] for s in symbols):
        day_keys[i, :bars.days.size] = bars.days
        with np.errstate(over="ignore"):  # a dollar volume that overflows is inf
            traded[i, lookback - 1:lookback - 1 + bars.days.size] = bars.close * bars.volume
        close[i, :bars.days.size] = bars.close
    day_keys += np.arange(len(symbols))[:, None] * _SPAN
    windows = np.lib.stride_tricks.sliding_window_view(traded, lookback, axis=1)
    sectors = np.array([meta[s].sector.lower() for s in symbols], dtype=object)
    shares = np.array([meta[s].shares_outstanding for s in symbols], dtype=float)
    return CandidatePanel(symbols, sectors, shares, day_keys.ravel(), windows, close)


def select_universe(panel: CandidatePanel, config: UniverseConfig, as_of: date) -> list[str]:
    """Apply the liquidity filter then the sector/market-cap filter.

    Candidates with no bar on or before ``as_of`` are ignored, and so is a
    candidate whose market cap overflows to inf, which no allocation could
    weigh. Liquidity is the dollar volume of the last ``liquidity_lookback``
    bars, summed oldest first: a pairwise sum rounds differently and could
    reorder candidates.
    Returns an ordered list (largest market cap first), possibly shorter
    than ``fine_count``.
    """
    if config.liquidity_lookback != panel.windows.shape[2]:
        raise ParameterError("the panel was built for another liquidity_lookback")
    count, width = panel.close.shape
    keys = np.arange(count) * _SPAN + as_of.toordinal()
    rows = panel.day_keys.searchsorted(keys, "right") - np.arange(count) * width - 1
    live = np.flatnonzero(rows >= 0)
    with np.errstate(over="ignore"):  # an overflow is inf: such a liquidity ranks first
        liquidity = panel.windows[live, rows[live]].cumsum(axis=1)[:, -1]
        coarse = live[np.argsort(-liquidity, kind="stable")[: config.coarse_count]]
        fine = coarse[panel.sectors[coarse] == config.sector.lower()]
        caps = panel.shares[fine] * panel.close[fine, rows[fine]]
    finite = np.isfinite(caps)
    fine, caps = fine[finite], caps[finite]
    return [panel.symbols[i] for i in fine[np.lexsort((fine, -caps))][: config.fine_count]]
