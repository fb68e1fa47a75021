from datetime import date

import numpy as np
import pytest

from duotrader.errors import ParameterError
from duotrader.marketdata import InstrumentMeta, SymbolBars
from duotrader.universe import UniverseConfig, candidate_panel, select_universe

from conftest import day_of, make_bars

AS_OF = date(2020, 6, 1)


def candidate(symbol, sector, shares, closes, volumes=None):
    bars = make_bars(closes, start=date(2020, 1, 2), volumes=volumes)
    return symbol, (bars, InstrumentMeta(symbol, sector, shares))


def panel_of(candidates, config):
    """The panel of a {symbol: (bars, meta)} mapping."""
    series = {s: bars for s, (bars, _) in candidates.items()}
    meta = {s: m for s, (_, m) in candidates.items()}
    return candidate_panel(series, meta, config.liquidity_lookback)


def select(candidates, config, as_of):
    return select_universe(panel_of(candidates, config), config, as_of)


def reference_liquidity(candidates, lookback, as_of):
    """(liquidity, symbol) of every candidate with a bar on or before
    ``as_of``: a binary search for its last such bar, then an oldest-first
    cumsum of its last ``lookback`` dollar volumes."""
    liquidity = []
    for symbol, (bars, _meta) in candidates.items():
        end = int(bars.days.searchsorted(as_of.toordinal(), "right"))
        if end:
            lo = max(0, end - lookback)
            products = bars.close[lo:end] * bars.volume[lo:end]
            liquidity.append((float(products.cumsum()[-1]), symbol))
    return liquidity


def reference_select(candidates, config, as_of):
    """The per-candidate selection loop the panel replaced: two sorts by
    (-liquidity, symbol) and (-market cap, symbol)."""
    liquidity = reference_liquidity(candidates, config.liquidity_lookback, as_of)
    liquidity.sort(key=lambda item: (-item[0], item[1]))
    ranked = []
    for _, symbol in liquidity[: config.coarse_count]:
        bars, meta = candidates[symbol]
        if meta.sector.lower() == config.sector.lower():
            close = bars.close[bars.days.searchsorted(as_of.toordinal(), "right") - 1]
            ranked.append((meta.shares_outstanding * float(close), symbol))
    ranked.sort(key=lambda item: (-item[0], item[1]))
    return [symbol for _, symbol in ranked[: config.fine_count]]


class TestSelectUniverse:
    def test_top_by_market_cap(self):
        candidates = dict([
            candidate("AAA", "Energy", 100, [10.0] * 40),   # cap 1000
            candidate("BBB", "Energy", 300, [10.0] * 40),   # cap 3000
            candidate("CCC", "Energy", 200, [10.0] * 40),   # cap 2000
        ])
        config = UniverseConfig(coarse_count=10, fine_count=2)
        assert select(candidates, config, AS_OF) == ["BBB", "CCC"]

    def test_no_sector_matches(self):
        candidates = dict([
            candidate("AAA", "Tech", 100, [10.0] * 40),
            candidate("BBB", "Utilities", 100, [10.0] * 40),
        ])
        config = UniverseConfig(coarse_count=10, fine_count=2)
        assert select(candidates, config, AS_OF) == []

    def test_market_cap_tie_breaks_lexicographically(self):
        candidates = dict([
            candidate("ZZZ", "Energy", 100, [10.0] * 40),
            candidate("AAA", "Energy", 100, [10.0] * 40),
        ])
        config = UniverseConfig(coarse_count=10, fine_count=2)
        assert select(candidates, config, AS_OF) == ["AAA", "ZZZ"]

    def test_liquidity_filter_excludes_illiquid(self):
        candidates = dict([
            candidate("LIQ1", "Energy", 100, [10.0] * 40, volumes=[9000] * 40),
            candidate("LIQ2", "Energy", 500, [10.0] * 40, volumes=[8000] * 40),
            candidate("THIN", "Energy", 900, [10.0] * 40, volumes=[10] * 40),
        ])
        # coarse keeps only the two most liquid, so THIN never reaches the
        # market-cap stage despite the largest cap
        config = UniverseConfig(coarse_count=2, fine_count=2)
        assert select(candidates, config, AS_OF) == ["LIQ2", "LIQ1"]

    def test_sector_match_case_insensitive(self):
        candidates = dict([candidate("AAA", "ENERGY", 100, [10.0] * 40)])
        config = UniverseConfig(coarse_count=5, fine_count=5, sector="energy")
        assert select(candidates, config, AS_OF) == ["AAA"]

    def test_symbols_without_history_skipped(self):
        symbol, payload = candidate("FUT", "Energy", 100, [10.0] * 5)
        future_bars = make_bars([10.0] * 5, start=date(2021, 1, 4))
        candidates = {symbol: (future_bars, payload[1])}
        config = UniverseConfig(coarse_count=5, fine_count=5)
        assert select(candidates, config, AS_OF) == []

    def test_bar_dated_as_of_is_used_and_later_bars_are_not(self):
        # AAA's cap overtakes BBB's on the third day; BBB's overtakes it
        # again on the fourth. One panel serves every day.
        aaa = make_bars([10.0, 10.0, 30.0, 1.0, 1.0])
        bbb = make_bars([20.0, 20.0, 20.0, 50.0, 50.0])
        config = UniverseConfig(coarse_count=2, fine_count=1)
        meta = {s: InstrumentMeta(s, "Energy", 100) for s in ("AAA", "BBB")}
        panel = candidate_panel({"AAA": aaa, "BBB": bbb}, meta, config.liquidity_lookback)
        assert select_universe(panel, config, day_of(aaa, 1)) == ["BBB"]
        assert select_universe(panel, config, day_of(aaa, 2)) == ["AAA"]
        assert select_universe(panel, config, day_of(aaa, 3)) == ["BBB"]

    def test_fewer_matches_than_fine_count(self):
        candidates = dict([candidate("AAA", "Energy", 100, [10.0] * 40)])
        config = UniverseConfig(coarse_count=10, fine_count=5)
        assert select(candidates, config, AS_OF) == ["AAA"]

    def test_deterministic(self):
        candidates = dict([
            candidate("AAA", "Energy", 100, [10.0] * 40),
            candidate("BBB", "Energy", 300, [11.0] * 40),
            candidate("CCC", "Energy", 200, [12.0] * 40),
        ])
        config = UniverseConfig(coarse_count=3, fine_count=2)
        panel = panel_of(candidates, config)
        first = select_universe(panel, config, AS_OF)
        assert all(select_universe(panel, config, AS_OF) == first for _ in range(3))

    def test_output_subset_of_coarse_and_sector(self):
        candidates = dict([
            candidate("AAA", "Energy", 100, [10.0] * 40, volumes=[100] * 40),
            candidate("BBB", "Tech", 300, [10.0] * 40, volumes=[900] * 40),
            candidate("CCC", "Energy", 200, [10.0] * 40, volumes=[800] * 40),
        ])
        config = UniverseConfig(coarse_count=2, fine_count=2)
        result = select(candidates, config, AS_OF)
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
        assert select(candidates, config, AS_OF) == ["BBB"]

    def test_panel_of_symbols_with_metadata_sorted(self):
        config = UniverseConfig()
        bars = make_bars([10.0] * 3)
        panel = candidate_panel(
            {"ZZZ": bars, "AAA": bars, "NOMETA": bars},
            {"ZZZ": InstrumentMeta("ZZZ", "ENERGY", 5), "AAA": InstrumentMeta("AAA", "Tech", 7)},
            config.liquidity_lookback,
        )
        assert panel.symbols == ["AAA", "ZZZ"]
        assert panel.sectors.tolist() == ["tech", "energy"]
        assert panel.shares.tolist() == [7.0, 5.0]
        assert panel.windows.shape == (2, 3, config.liquidity_lookback)

    def test_panel_of_no_candidates(self):
        config = UniverseConfig()
        panel = candidate_panel({}, {}, config.liquidity_lookback)
        assert select_universe(panel, config, AS_OF) == []

    def test_panel_built_for_another_lookback_refused(self):
        candidates = dict([candidate("AAA", "Energy", 100, [10.0] * 40)])
        panel = panel_of(candidates, UniverseConfig(liquidity_lookback=30))
        with pytest.raises(ParameterError, match="liquidity_lookback"):
            select_universe(panel, UniverseConfig(liquidity_lookback=10), AS_OF)


def random_candidates(rng):
    """1-40 candidates with ragged histories on a day grid with gaps, in
    shuffled order, drawing closes, volumes and shares from small sets so
    that dollar volumes and market caps tie; plus a few symbols without
    metadata, which the panel must leave out."""
    grid = np.cumsum(rng.integers(1, 4, size=120)) + date(2020, 1, 2).toordinal()
    candidates, orphans = {}, {}
    names = [f"S{k:03d}" for k in rng.permutation(60)[: rng.integers(1, 41)]]
    for name in names + [f"X{k}" for k in range(rng.integers(0, 3))]:
        first = int(rng.integers(0, 100))
        count = int(rng.integers(1, len(grid) - first + 1))
        rows = np.sort(rng.choice(np.arange(first, len(grid)), size=count, replace=False))
        close = rng.choice([1.0, 2.0, 2.5, 10.0, 33.3], size=count)
        volume = rng.choice([0.0, 0.0, 100.0, 250.0, 1e4], size=count)
        bars = SymbolBars(grid[rows].astype(np.int64), close, close, close, close, volume)
        if name.startswith("X"):
            orphans[name] = bars
            continue
        sector = str(rng.choice(["Energy", "ENERGY", "energy", "Tech", "Utilities"]))
        shares = int(rng.choice([100, 200, 400, 1_000_000]))
        candidates[name] = (bars, InstrumentMeta(name, sector, shares))
    return grid, candidates, orphans


def as_of_days(rng, grid):
    """A bar day, a day between bar days, days before every bar and days
    after every bar, the first and last dates included."""
    on_bar = int(rng.choice(grid))
    bar_days = set(grid.tolist())
    between = next(d for d in range(int(grid[0]), int(grid[-1])) if d not in bar_days)
    return [
        date.fromordinal(d)
        for d in (on_bar, between, int(grid[0]) - 3, int(grid[-1]) + 2, int(rng.choice(grid)) + 1)
    ] + [date.min, date.max]


def test_panel_matches_per_candidate_loop():
    rng = np.random.default_rng(20261018)
    seen = {"non_empty": 0, "empty": 0, "long_lookback": 0, "liquidity_tie": 0, "cap_tie": 0}
    for _ in range(300):
        grid, candidates, orphans = random_candidates(rng)
        fine = int(rng.integers(1, 8))
        config = UniverseConfig(
            coarse_count=int(rng.integers(fine, 45)),
            fine_count=fine,
            sector=str(rng.choice(["Energy", "energy", "Tech"])),
            liquidity_lookback=int(rng.integers(1, 41)),
        )
        series = {s: bars for s, (bars, _) in candidates.items()} | orphans
        meta = {s: m for s, (_, m) in candidates.items()}
        panel = candidate_panel(series, meta, config.liquidity_lookback)
        for as_of in as_of_days(rng, grid):
            expected = reference_select(candidates, config, as_of)
            assert select_universe(panel, config, as_of) == expected, (config, as_of)
            seen["non_empty" if expected else "empty"] += 1
            liquidity = reference_liquidity(candidates, config.liquidity_lookback, as_of)
            seen["liquidity_tie"] += len({value for value, _ in liquidity}) < len(liquidity)
        lookback = config.liquidity_lookback
        seen["long_lookback"] += any(bars.days.size < lookback for bars, _ in candidates.values())
        caps = [m.shares_outstanding * bars.close[-1] for bars, m in candidates.values()]
        seen["cap_tie"] += len(set(caps)) < len(caps)
    assert all(count >= 20 for count in seen.values()), seen


class TestConfig:
    def test_invalid_counts(self):
        with pytest.raises(ParameterError):
            UniverseConfig(coarse_count=5, fine_count=10)
        with pytest.raises(ParameterError):
            UniverseConfig(fine_count=0)
        with pytest.raises(ParameterError):
            UniverseConfig(liquidity_lookback=0)
