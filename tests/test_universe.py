from datetime import date

import numpy as np
import pytest

from duotrader.errors import InsufficientDataError, ParameterError
from duotrader.marketdata import InstrumentMeta
from duotrader.universe import UniverseConfig, dollar_volume, select_universe

from conftest import day_of, make_bars

AS_OF = date(2020, 6, 1)


def candidate(symbol, sector, shares, closes, volumes=None):
    bars = make_bars(closes, start=date(2020, 1, 2), volumes=volumes)
    return symbol, (bars, InstrumentMeta(symbol, sector, shares))


class TestDollarVolume:
    def test_single_product(self):
        assert dollar_volume(np.array([10.0]), np.array([1000.0])) == 10000.0

    def test_sum(self):
        assert dollar_volume(np.array([10.0, 20.0]), np.array([1000.0, 500.0])) == 20000.0

    def test_zero_volumes(self):
        assert dollar_volume(np.array([10.0, 20.0]), np.zeros(2)) == 0.0

    def test_empty_error(self):
        with pytest.raises(InsufficientDataError):
            dollar_volume(np.array([]), np.array([]))


class TestSelectUniverse:
    def test_top_by_market_cap(self):
        candidates = dict([
            candidate("AAA", "Energy", 100, [10.0] * 40),   # cap 1000
            candidate("BBB", "Energy", 300, [10.0] * 40),   # cap 3000
            candidate("CCC", "Energy", 200, [10.0] * 40),   # cap 2000
        ])
        config = UniverseConfig(coarse_count=10, fine_count=2)
        assert select_universe(candidates, config, AS_OF) == ["BBB", "CCC"]

    def test_no_sector_matches(self):
        candidates = dict([
            candidate("AAA", "Tech", 100, [10.0] * 40),
            candidate("BBB", "Utilities", 100, [10.0] * 40),
        ])
        config = UniverseConfig(coarse_count=10, fine_count=2)
        assert select_universe(candidates, config, AS_OF) == []

    def test_market_cap_tie_breaks_lexicographically(self):
        candidates = dict([
            candidate("ZZZ", "Energy", 100, [10.0] * 40),
            candidate("AAA", "Energy", 100, [10.0] * 40),
        ])
        config = UniverseConfig(coarse_count=10, fine_count=2)
        assert select_universe(candidates, config, AS_OF) == ["AAA", "ZZZ"]

    def test_liquidity_filter_excludes_illiquid(self):
        candidates = dict([
            candidate("LIQ1", "Energy", 100, [10.0] * 40, volumes=[9000] * 40),
            candidate("LIQ2", "Energy", 500, [10.0] * 40, volumes=[8000] * 40),
            candidate("THIN", "Energy", 900, [10.0] * 40, volumes=[10] * 40),
        ])
        # coarse keeps only the two most liquid, so THIN never reaches the
        # market-cap stage despite the largest cap
        config = UniverseConfig(coarse_count=2, fine_count=2)
        assert select_universe(candidates, config, AS_OF) == ["LIQ2", "LIQ1"]

    def test_sector_match_case_insensitive(self):
        candidates = dict([candidate("AAA", "ENERGY", 100, [10.0] * 40)])
        config = UniverseConfig(coarse_count=5, fine_count=5, sector="energy")
        assert select_universe(candidates, config, AS_OF) == ["AAA"]

    def test_symbols_without_history_skipped(self):
        symbol, payload = candidate("FUT", "Energy", 100, [10.0] * 5)
        future_bars = make_bars([10.0] * 5, start=date(2021, 1, 4))
        candidates = {symbol: (future_bars, payload[1])}
        config = UniverseConfig(coarse_count=5, fine_count=5)
        assert select_universe(candidates, config, AS_OF) == []

    def test_bar_dated_as_of_is_used_and_later_bars_are_not(self):
        # AAA's cap overtakes BBB's on the third day; BBB's overtakes it
        # again on the fourth
        aaa = make_bars([10.0, 10.0, 30.0, 1.0, 1.0])
        bbb = make_bars([20.0, 20.0, 20.0, 50.0, 50.0])
        candidates = {
            "AAA": (aaa, InstrumentMeta("AAA", "Energy", 100)),
            "BBB": (bbb, InstrumentMeta("BBB", "Energy", 100)),
        }
        config = UniverseConfig(coarse_count=2, fine_count=1)
        assert select_universe(candidates, config, day_of(aaa, 1)) == ["BBB"]
        assert select_universe(candidates, config, day_of(aaa, 2)) == ["AAA"]
        assert select_universe(candidates, config, day_of(aaa, 3)) == ["BBB"]

    def test_fewer_matches_than_fine_count(self):
        candidates = dict([candidate("AAA", "Energy", 100, [10.0] * 40)])
        config = UniverseConfig(coarse_count=10, fine_count=5)
        assert select_universe(candidates, config, AS_OF) == ["AAA"]

    def test_deterministic(self):
        candidates = dict([
            candidate("AAA", "Energy", 100, [10.0] * 40),
            candidate("BBB", "Energy", 300, [11.0] * 40),
            candidate("CCC", "Energy", 200, [12.0] * 40),
        ])
        config = UniverseConfig(coarse_count=3, fine_count=2)
        first = select_universe(candidates, config, AS_OF)
        assert all(select_universe(candidates, config, AS_OF) == first for _ in range(3))

    def test_output_subset_of_coarse_and_sector(self):
        candidates = dict([
            candidate("AAA", "Energy", 100, [10.0] * 40, volumes=[100] * 40),
            candidate("BBB", "Tech", 300, [10.0] * 40, volumes=[900] * 40),
            candidate("CCC", "Energy", 200, [10.0] * 40, volumes=[800] * 40),
        ])
        config = UniverseConfig(coarse_count=2, fine_count=2)
        result = select_universe(candidates, config, AS_OF)
        assert result == ["CCC"]
        assert len(result) <= config.fine_count
        assert all(candidates[s][1].sector.lower() == "energy" for s in result)


    def test_liquidity_summed_oldest_first(self):
        # AAA trades 1e16 on its first day and 1 on each of the next 29.
        # Summed oldest first, each 1 rounds away (1e16 + 1 is a tie that
        # rounds to even), so AAA's liquidity is 1e16, below BBB's 1e16 + 14;
        # numpy's pairwise sum adds the ones first and ranks AAA above BBB.
        aaa_volumes = [100_000_000] + [1] * 29
        aaa_closes = [1e8] + [1.0] * 29
        bbb_closes = [1e16 + 14] + [1.0] * 29
        candidates = dict([
            candidate("AAA", "Energy", 100, aaa_closes, volumes=aaa_volumes),
            candidate("BBB", "Energy", 100, bbb_closes, volumes=[1] + [0] * 29),
        ])
        products = np.array(aaa_closes) * np.array(aaa_volumes)
        assert np.sum(products) > 1e16 + 14 > float(np.cumsum(products)[-1]) == 1e16
        config = UniverseConfig(coarse_count=1, fine_count=1)
        assert select_universe(candidates, config, AS_OF) == ["BBB"]


class TestConfig:
    def test_invalid_counts(self):
        with pytest.raises(ParameterError):
            UniverseConfig(coarse_count=5, fine_count=10)
        with pytest.raises(ParameterError):
            UniverseConfig(fine_count=0)
        with pytest.raises(ParameterError):
            UniverseConfig(liquidity_lookback=0)
