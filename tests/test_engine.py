import faulthandler
import hashlib
import json
import os
import random
import re
import time
import zlib
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from datetime import date, timedelta

import numpy as np
import pytest

from duotrader import engine as eng
from duotrader.engine import (
    EngineConfig,
    Order,
    execute,
    order_fee,
    run_backtest,
)
from duotrader.alpha_fusion import fuse
from duotrader.errors import InsufficientDataError, InvalidInputError, NumericalError, ParameterError
from duotrader import marketdata, regime_hmm, trend_net, workers
from duotrader import plan as plan_mod
from duotrader.marketdata import (
    InstrumentMeta, SymbolBars, ingest_csv, synth_regime_series,
)
from duotrader.portfolio_bl import BlConfig
from duotrader.regime_hmm import HmmConfig
from duotrader.risk_controls import RiskConfig
from duotrader.runconfig import RunConfig
from duotrader.trend_net import MlpConfig
from duotrader.universe import UniverseConfig, candidate_panel, select_universe

from conftest import (
    day_of, fifo_accounting_gap, fresh_copy, log_returns, make_bars, scale_prices, take_rows,
)

DAY = date(2020, 1, 2)


def synth_market(n_symbols=6, n_bars=320, seed=11, sector="Energy"):
    regimes = [(0.0012, 0.008), (-0.0015, 0.018)]
    trans = [[0.96, 0.04], [0.05, 0.95]]
    bars_by_symbol, meta = {}, {}
    for i in range(n_symbols):
        sym = f"S{i:02d}"
        sub = (seed ^ zlib.crc32(sym.encode())) % 2**31
        bars, _ = synth_regime_series(sub, n_bars, regimes, trans, start_price=40 + 9 * i)
        bars_by_symbol[sym] = bars
        meta[sym] = InstrumentMeta(sym, sector, 2_000_000 + (sub % 500) * 100_000)
    return bars_by_symbol, meta


def small_config(**engine_kwargs):
    defaults = dict(warmup_bars=120, retrain_every=21, rebalance_every=21, window_bars=100)
    defaults.update(engine_kwargs)
    return RunConfig(
        seed=3,
        universe=UniverseConfig(fine_count=4),
        hmm=HmmConfig(n_states=2),
        mlp=MlpConfig(epochs=2),
        bl=BlConfig(covariance_lookback=60),
        engine=EngineConfig(**defaults),
    )


def small_run(bars_by_symbol, meta, **engine_kwargs):
    return run_backtest(bars_by_symbol, meta, small_config(**engine_kwargs))


class TestExecute:
    def test_fee_small_order_hits_minimum(self):
        config = EngineConfig()
        assert order_fee(100, config) == pytest.approx(1.0)  # max(0.5, 1.0)

    def test_fee_large_order_per_share(self):
        assert order_fee(1000, EngineConfig()) == pytest.approx(5.0)

    def test_fill_at_open(self):
        fill, diag = execute(Order("A", "buy", 10), 101.0, DAY, EngineConfig(), 10_000.0)
        assert fill.price == 101.0
        assert fill.timestamp == DAY
        assert fill.fee == pytest.approx(1.0)
        assert diag is None

    def test_zero_quantity_rejected(self):
        fill, diag = execute(Order("A", "buy", 0), 100.0, DAY, EngineConfig(), 1e6)
        assert fill is None
        assert "zero-quantity" in diag

    def test_buy_scaled_to_cash(self):
        fill, diag = execute(Order("A", "buy", 100), 100.0, DAY, EngineConfig(), 1_050.0)
        assert fill.quantity == 10  # 10*100 + 1.0 fee = 1001 <= 1050
        assert "scaled" in diag
        assert fill.quantity * fill.price + fill.fee <= 1_050.0

    def test_unaffordable_buy_dropped(self):
        fill, diag = execute(Order("A", "buy", 10), 100.0, DAY, EngineConfig(), 50.0)
        assert fill is None
        assert "insufficient cash" in diag

    def test_sell_not_cash_constrained(self):
        fill, _ = execute(Order("A", "sell", 500), 99.0, DAY, EngineConfig(), 0.0)
        assert fill.quantity == 500
        assert fill.fee == pytest.approx(2.5)

    @pytest.mark.parametrize(
        "price, per_share_fee, min_fee, cash, quantity",
        [
            (100.0, 0.005, 1.0, 1_050.0, 100),
            (37.13, 0.005, 1.0, 9_999.99, 400),
            (0.75, 0.005, 1.0, 120.0, 5_000),
            (0.01, 0.005, 1.0, 25.0, 20_000),
            (1e-4, 0.005, 1.0, 3.0, 20_000),
            (1e-6, 0.005, 1.0, 1.5, 20_000),
            (1e-6, 0.005, 1.0, 0.999, 20_000),
            (1e-6, 0.0, 1.0, 1.005, 20_000),
            (3.3, 0.0, 0.0, 1_000.0, 20_000),
            (1e-6, 0.0, 0.0, 0.0125, 20_000),
            (2.5, 0.01, 5.0, 55.0, 100),
        ],
    )
    def test_cash_limited_buy_matches_brute_force(
        self, price, per_share_fee, min_fee, cash, quantity
    ):
        config = EngineConfig(per_share_fee=per_share_fee, min_fee=min_fee)
        # oracle: the largest share count whose exact cost fits in cash
        expected = max(
            (q for q in range(1, quantity + 1)
             if q * price + order_fee(q, config) <= cash),
            default=0,
        )
        fill, _ = execute(Order("A", "buy", quantity), price, DAY, config, cash)
        if expected == 0:
            assert fill is None
        else:
            assert fill.quantity == expected
            assert fill.quantity * fill.price + fill.fee <= cash

    def test_tiny_price_buy_is_prompt(self):
        start = time.perf_counter()
        fill, diag = execute(Order("A", "buy", 10**14), 1e-9, DAY, EngineConfig(), 100_000.0)
        assert time.perf_counter() - start < 0.1
        assert "scaled" in diag
        # per-share fees dominate: q * (1e-9 + 0.005) <= 100000
        assert fill.quantity == 19_999_996
        assert fill.quantity * fill.price + fill.fee <= 100_000.0
        assert (fill.quantity + 1) * fill.price + order_fee(fill.quantity + 1, EngineConfig()) > 100_000.0


class TestRunBacktest:
    def test_null_strategy_constant_equity(self):
        bars_by_symbol, meta = synth_market(n_symbols=3, n_bars=60)
        result = small_run(bars_by_symbol, meta, warmup_bars=500)
        assert result.fills == []
        assert all(p.equity == 100_000.0 for p in result.equity_curve)

    def test_zero_orders_during_warmup(self):
        bars_by_symbol, meta = synth_market()
        result = small_run(bars_by_symbol, meta)
        warmup_end = result.equity_curve[120].timestamp
        assert result.fills
        assert all(f.timestamp > warmup_end for f in result.fills)

    def test_first_insight_after_warmup(self):
        bars_by_symbol, meta = synth_market()
        result = small_run(bars_by_symbol, meta)
        first_insight_day = min(i.issued_at for i in result.insights)
        assert first_insight_day >= result.equity_curve[120].timestamp

    def test_deterministic_fill_log(self):
        bars_by_symbol, meta = synth_market()
        a = small_run(bars_by_symbol, meta)
        b = small_run(bars_by_symbol, meta)
        assert [f.to_dict() for f in a.fills] == [f.to_dict() for f in b.fills]
        assert [p.equity for p in a.equity_curve] == [p.equity for p in b.equity_curve]

    def test_no_look_ahead_truncation(self):
        bars_by_symbol, meta = synth_market()
        full = small_run(bars_by_symbol, meta)
        cutoff = full.equity_curve[250].timestamp
        truncated_data = {
            s: take_rows(bars, bars.days <= cutoff.toordinal())
            for s, bars in bars_by_symbol.items()
        }
        truncated = small_run(truncated_data, meta)
        expected = [f.to_dict() for f in full.fills if f.timestamp <= cutoff]
        assert [f.to_dict() for f in truncated.fills] == expected

    def test_accounting_identity(self):
        bars_by_symbol, meta = synth_market()
        result = small_run(bars_by_symbol, meta)
        assert result.fills  # the check must actually exercise trades
        assert fifo_accounting_gap(result, bars_by_symbol) < 1e-6

    def test_liquidations_have_matching_risk_events(self):
        bars_by_symbol, meta = synth_market(n_bars=400)
        result = small_run(bars_by_symbol, meta)
        events = {(e["symbol"], e["reason"]) for e in result.risk_events}
        for f in result.fills:
            if f.reason != eng.REASON_REBALANCE:
                assert (f.symbol, f.reason) in events

    def test_empty_universe_stays_in_cash(self):
        bars_by_symbol, meta = synth_market(sector="Utilities")  # nothing matches Energy
        result = small_run(bars_by_symbol, meta)
        assert result.fills == []
        assert all(p.equity == 100_000.0 for p in result.equity_curve)

    def test_cash_never_negative(self):
        bars_by_symbol, meta = synth_market()
        result = small_run(bars_by_symbol, meta)
        gap = fifo_accounting_gap(result, bars_by_symbol)
        assert gap < 1e-6
        assert result.final_cash >= -1e-9

    def test_no_data_raises(self):
        with pytest.raises(InsufficientDataError):
            run_backtest({}, {}, RunConfig())

    def test_report_attached(self):
        bars_by_symbol, meta = synth_market()
        result = small_run(bars_by_symbol, meta)
        assert result.report.start_equity == 100_000.0
        assert result.report.total_orders == len(result.fills)

    def test_config_validation(self):
        with pytest.raises(ParameterError):
            EngineConfig(initial_equity=0)
        with pytest.raises(ParameterError):
            EngineConfig(retrain_every=0)

    def test_symbol_model_failure_is_isolated(self):
        # prices of 1e160 make the trend network's squared loss overflow; the
        # symbol must go flat with a diagnostic while the others trade on
        bars_by_symbol, meta = synth_market(n_symbols=6)
        bars_by_symbol["S02"] = scale_prices(bars_by_symbol["S02"], 1e160)
        result = small_run(bars_by_symbol, meta)
        assert len(result.equity_curve) == 320
        assert any("S02" in d and "fit skipped" in d for d in result.diagnostics)
        traded = {f.symbol for f in result.fills}
        assert "S02" not in traded
        assert len(traded) >= 2
        s02 = [i for i in result.insights if i.symbol == "S02"]
        assert s02 and all(i.direction == "flat" for i in s02)

    @pytest.mark.parametrize(
        "module, note",
        [("regime_hmm", "hmm forecast failed"), ("trend_net", "net forecast failed")],
        ids=["hmm", "net"],
    )
    def test_forecast_failure_gives_flat_insight(self, monkeypatch, module, note):
        def broken(*args):
            raise NumericalError("forward recursion collapsed at t=3")

        monkeypatch.setattr(getattr(plan_mod, module), "forecast", broken)
        bars_by_symbol, meta = synth_market()
        result = small_run(bars_by_symbol, meta)
        assert result.insights
        assert all(i.direction == "flat" for i in result.insights)
        assert any(note in d for d in result.diagnostics)

    def test_date_range_filters_calendar(self):
        bars_by_symbol, meta = synth_market(n_symbols=2, n_bars=80)
        all_days = sorted({
            date.fromordinal(day) for bars in bars_by_symbol.values() for day in bars.days.tolist()
        })
        result = small_run(
            bars_by_symbol, meta, warmup_bars=500,
            start_date=all_days[10], end_date=all_days[50],
        )
        assert result.equity_curve[0].timestamp == all_days[10]
        assert result.equity_curve[-1].timestamp == all_days[50]
        assert len(result.equity_curve) == 41

    def test_windows_exclude_bars_before_start_date(self):
        # Warm-up ends 30 bars after start_date while a window holds 100
        # bars, so the first refits would reach back before start_date if
        # the earlier history were not cut off.
        bars_by_symbol, meta = synth_market(n_symbols=4)
        start = day_of(bars_by_symbol["S00"], 150)
        result = small_run(bars_by_symbol, meta, warmup_bars=30, start_date=start)
        assert result.fits
        in_range = {
            s: take_rows(bars, bars.days >= start.toordinal())
            for s, bars in bars_by_symbol.items()
        }
        lengths = assert_fits_match_direct(result, in_range)
        assert min(lengths.values()) == 31
        assert max(lengths.values()) == 100

    def test_universe_liquidity_reaches_before_start_date(self, monkeypatch):
        # AAA trades heavily before start_date and BBB from it on. On the
        # first day the 30-bar liquidity window holds 29 earlier bars, so
        # AAA is the more liquid; counting only bars from start_date on
        # would pick BBB.
        closes = [10.0] * 60
        bars_by_symbol = {
            "AAA": make_bars(closes, volumes=[1e6] * 40 + [1.0] * 20),
            "BBB": make_bars(closes, volumes=[1.0] * 40 + [1e6] * 20),
        }
        meta = {s: InstrumentMeta(s, "Energy", 100) for s in bars_by_symbol}
        start = day_of(bars_by_symbol["AAA"], 40)
        selections = []

        def recording(panel, config, as_of):
            selections.append((as_of, select_universe(panel, config, as_of)))
            return selections[-1][1]

        monkeypatch.setattr(plan_mod, "select_universe", recording)
        config = RunConfig(
            universe=UniverseConfig(coarse_count=1, fine_count=1, liquidity_lookback=30),
            engine=EngineConfig(start_date=start, warmup_bars=500),
        )
        run_backtest(bars_by_symbol, meta, config)
        assert selections[0] == (start, ["AAA"])
        in_range = {s: take_rows(bars, slice(40, None)) for s, bars in bars_by_symbol.items()}
        masked = candidate_panel(in_range, meta, 30)
        assert select_universe(masked, config.universe, start) == ["BBB"]

    def test_pinned_diagnostics(self):
        # No artifact carries the diagnostics, so their order and wording are
        # pinned here: a note on a symbol without metadata, a dropped buy and
        # fills whose fee exceeds their notional (a $200 minimum fee on
        # $1,000), and S02's failed network fits once its prices jump by 1e160.
        bars_by_symbol, meta = synth_market(n_symbols=7)
        bars_by_symbol["S02"] = scale_prices(bars_by_symbol["S02"], 1e160, first=200)
        del meta["S06"]
        result = small_run(bars_by_symbol, meta, initial_equity=1000.0, min_fee=200.0)
        for note in ("S06: no metadata", "buy dropped", "exceeds notional", "S02 net fit skipped",
                     "S02: missing"):
            assert any(note in d for d in result.diagnostics)
        assert jsonl_sha256(result.diagnostics) == (
            "7a55a61ee23a9a2f9e4b5a79bb5babfe9b3bf31337c2d87ee3c408934708a841"
        )

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
    def test_bad_close_leaves_symbol_out_of_allocation(self, bad):
        # Every window that holds S02's bad close at row 100 leaves S02 out
        # of the allocation with a note; the run goes on and S02 comes back
        # once the window has moved past that row.
        bars_by_symbol, meta = synth_market()
        bars = bars_by_symbol["S02"]
        close = bars.close.copy()
        close[100] = bad
        bars_by_symbol["S02"] = SymbolBars(
            bars.days, bars.open, bars.high, bars.low, close, bars.volume
        )
        result = small_run(bars_by_symbol, meta)
        assert len(result.equity_curve) == 320 and result.fills
        note = "S02 left out of the allocation"
        left_out = {d.split(":")[0] for d in result.diagnostics if note in d}
        tainted = {day_of(bars, row).isoformat() for row in range(100, 200)}
        assert left_out
        for allocation in result.allocations:
            day = allocation["date"]
            assert ("S02" in allocation["symbols"]) == (day not in left_out)
            if day in left_out:
                assert day in tainted
        assert any("S02" in a["symbols"] for a in result.allocations)

    @pytest.mark.parametrize("market", ["shares", "close"])
    def test_overflowing_market_cap_leaves_symbol_out_of_allocation(self, market):
        # S02's market cap overflows to inf, from its shares outstanding or
        # from closes near 1e303 from row 200 on: its weight in the market
        # portfolio would be NaN. Each rebalance that would allocate to S02
        # leaves it out with a note instead, and the run goes on.
        bars_by_symbol, meta = synth_market()
        if market == "shares":
            meta["S02"] = InstrumentMeta("S02", "Energy", int(1e308))
            tainted = set()
        else:
            bars = bars_by_symbol["S02"] = scale_prices(bars_by_symbol["S02"], 2e301, first=200)
            tainted = {day_of(bars, row).isoformat() for row in range(200, 320)}
        result = small_run(bars_by_symbol, meta)
        assert len(result.equity_curve) == 320 and result.fills
        note = "S02 left out of the allocation: market cap is not finite"
        left_out = {d.split(":")[0] for d in result.diagnostics if note in d}
        assert left_out
        for allocation in result.allocations:
            day = allocation["date"]
            assert ("S02" in allocation["symbols"]) == (day not in left_out)
            assert np.isfinite(list(allocation["weights"].values())).all()
            if market == "close":
                assert (day in left_out) == (day in tainted)

    def test_rebalance_without_usable_symbols_goes_to_cash(self):
        # Without warm-up, the first rebalance's windows hold one close each.
        bars_by_symbol, meta = synth_market()
        result = small_run(bars_by_symbol, meta, warmup_bars=0)
        assert "2015-01-02: rebalance skipped, no usable symbols" in result.diagnostics

    def test_rebalance_on_too_few_returns_holds_the_book(self):
        # Windows of at most 4 closes give at most 3 returns, too few for a
        # covariance over 4 assets, so every rebalance holds the empty book.
        bars_by_symbol, meta = synth_market()
        result = small_run(bars_by_symbol, meta, warmup_bars=2, window_bars=4)
        days = [result.equity_curve[i].timestamp for i in range(2, 320, 21)]
        assert [d for d in result.diagnostics if "aligned returns" in d] == [
            f"{day}: rebalance skipped, only {3 if k else 2} aligned returns for 4 assets"
            for k, day in enumerate(days)
        ]
        assert len(days) == 16
        assert result.fills == []
        assert {p.equity for p in result.equity_curve} == {100_000.0}


class TestUnusablePrice:
    """A price the book reads for a symbol it holds or trades must be
    positive and finite; any other ends the run with an error that names the
    symbol, the column and the day."""

    @pytest.fixture(scope="class")
    def s02_days(self):
        """The day of S02's first buy fill (an open the book reads) and of
        the next rebalance, at whose close S02 is still held."""
        result = small_run(*synth_market())
        bought, sold = [f for f in result.fills if f.symbol == "S02"][:2]
        rebalance = min(
            day for a in result.allocations
            if (day := date.fromisoformat(a["date"])) > bought.timestamp
        )
        assert (bought.side, sold.side) == ("buy", "sell") and sold.timestamp > rebalance
        return {"open": bought.timestamp, "close": rebalance}

    @pytest.mark.parametrize("column", ["close", "open"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -1.0])
    def test_bad_price_ends_the_run(self, s02_days, column, bad):
        bars_by_symbol, meta = synth_market()
        bars, day = bars_by_symbol["S02"], s02_days[column]
        prices = getattr(bars, column).copy()
        prices[bars.days == day.toordinal()] = bad
        bars_by_symbol["S02"] = replace(bars, **{column: prices})
        message = f"{day}: S02 {column} must be a positive price, got {bad}"
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
            small_run(bars_by_symbol, meta)


BAR_CSV_HEADER_LINE = "symbol,date,open,high,low,close,volume\n"


def bar_csv_rows(bars_by_symbol):
    """Each symbol's bars as bar CSV lines, oldest first."""
    return {
        s: [
            ",".join([s, date.fromordinal(int(d)).isoformat()] + [repr(float(x)) for x in bar])
            for d, *bar in zip(b.days, b.open, b.high, b.low, b.close, b.volume)
        ]
        for s, b in bars_by_symbol.items()
    }


class TestBarCsvRowOrder:
    def test_row_order_leaves_the_run_unchanged(self, tmp_path):
        # One market written as a bar CSV in four row orders, each symbol's
        # own rows kept in date order: ingested, each gives the same run.
        bars_by_symbol, meta = synth_market()
        rows = bar_csv_rows(bars_by_symbol)
        symbols = sorted(rows)
        symbol_major = [s for s in symbols for _ in rows[s]]
        orders = {
            "symbol-major": symbol_major,
            "date-major": [
                s for _, s in sorted((d, s) for s, b in bars_by_symbol.items() for d in b.days)
            ],
            "reversed-symbol": [s for s in reversed(symbols) for _ in rows[s]],
            "interleaved": random.Random(5).sample(symbol_major, len(symbol_major)),
        }
        results = []
        for name, order in orders.items():
            taken = {s: iter(lines) for s, lines in rows.items()}
            path = tmp_path / f"{name}.csv"
            path.write_text(BAR_CSV_HEADER_LINE + "".join(next(taken[s]) + "\n" for s in order))
            results.append(small_run(ingest_csv(path).bars_by_symbol, meta))
        assert results[0].fills
        assert all(result == results[0] for result in results[1:])


def assert_fits_match_direct(result, bars_by_symbol, seed=3, window_bars=100):
    """Each fit record equals a fit of that symbol alone on its own window
    (the batch never changes a symbol's numbers). Returns the window length
    of every record."""
    lengths = {}
    for record in result.fits:
        symbol, day = record["symbol"], date.fromisoformat(record["date"])
        bars = bars_by_symbol[symbol]
        closes = bars.close[bars.days <= day.toordinal()][-window_bars:]
        lengths[(record["date"], symbol)] = closes.size
        if record["model"] == "hmm":
            hmm_seed = plan_mod.symbol_seed(seed, "hmm", symbol)
            _, (fit,) = regime_hmm.fit_batch(
                log_returns(closes)[None], HmmConfig(n_states=2), [hmm_seed]
            )
            assert record == {"date": record["date"], "symbol": symbol, "model": "hmm", **fit}
        else:
            config, mlp_seed = MlpConfig(epochs=2), plan_mod.symbol_seed(seed, "mlp", symbol)
            data = trend_net.build_training_set(closes)
            params = trend_net.init_params([mlp_seed])
            _, (history,) = trend_net.train_batch(params, [data], config, [mlp_seed])
            assert record["loss_history"] == history
    return lengths


class TestBatchedRefit:
    def test_two_window_lengths(self):
        # S03 lists 60 bars late, so its window is shorter than the others'
        # at the first two refits and the refit runs two batches per model
        bars_by_symbol, meta = synth_market(n_symbols=4)
        bars_by_symbol["S03"] = take_rows(bars_by_symbol["S03"], slice(60, None))
        result = small_run(bars_by_symbol, meta)
        lengths = assert_fits_match_direct(result, bars_by_symbol)
        first = min(day for day, _ in lengths)
        assert {lengths[(first, s)] for s in ("S00", "S03")} == {100, 61}
        assert {r["model"] for r in result.fits if r["symbol"] == "S03"} == {"hmm", "mlp"}

    def test_failing_symbol_leaves_batch_unchanged(self):
        bars_by_symbol, meta = synth_market(n_symbols=6)
        bars_by_symbol["S02"] = scale_prices(bars_by_symbol["S02"], 1e160)
        result = small_run(bars_by_symbol, meta)
        skipped = [d for d in result.diagnostics if "S02 net fit skipped" in d]
        assert skipped and all(d.endswith(": non-finite loss at step 1") for d in skipped)
        assert not any(r["symbol"] == "S02" and r["model"] == "mlp" for r in result.fits)
        assert any(r["model"] == "mlp" for r in result.fits)
        assert_fits_match_direct(result, bars_by_symbol)


def cadence_churn_run():
    """Refits every 42 bars, rebalances every 10 and reselects a universe of
    4 out of 8 symbols every month. S05 lists 60 bars late, so its first
    window is shorter than the others'. S07's prices jump by 1e160 at bar
    250, so its network refits fail from then on. Returns the bars and the
    result."""
    bars_by_symbol, meta = synth_market(n_symbols=8, n_bars=360)
    bars_by_symbol["S05"] = take_rows(bars_by_symbol["S05"], slice(60, None))
    bars_by_symbol["S07"] = scale_prices(bars_by_symbol["S07"], 1e160, first=250)
    result = run_backtest(
        bars_by_symbol,
        meta,
        RunConfig(
            seed=3,
            universe=UniverseConfig(fine_count=4, coarse_count=4, liquidity_lookback=10),
            hmm=HmmConfig(n_states=2),
            mlp=MlpConfig(epochs=2),
            bl=BlConfig(covariance_lookback=60),
            engine=EngineConfig(
                warmup_bars=120, retrain_every=42, rebalance_every=10, window_bars=100
            ),
        ),
    )
    return bars_by_symbol, result


def jsonl_sha256(records) -> str:
    text = "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)
    return hashlib.sha256(text.encode()).hexdigest()


class TestCadenceAndChurn:
    """Pins a run whose models outlive the universe membership they were fit
    in: a symbol out of the universe at a refit keeps its older models, and a
    failed refit drops the model it would have replaced."""

    FILLS_SHA256 = "8fea22de0c42ee50f7bc6bb0a6e98f30030e50959866a88d5513b0731ad2cbad"
    FITS_SHA256 = "492713004995070ea0d2cd0d1e35873a35b8b8544e43ea01e1d605c9154808e8"
    DIAGNOSTICS = [
        "2015-08-14: S04: missing model output: hmm,nn",
        "2016-01-01: S00: missing model output: hmm,nn",
        "2016-01-15: S00: missing model output: hmm,nn",
        "2016-01-29: S00: missing model output: hmm,nn",
        "2016-02-10: S07 net fit skipped: non-finite loss at step 1",
        "2016-02-12: S07: missing model output: nn",
        "2016-02-26: S07: missing model output: nn",
        "2016-03-11: S07: missing model output: nn",
        "2016-03-25: S07: missing model output: nn",
        "2016-04-08: S07 net fit skipped: non-finite loss at step 1",
        "2016-04-08: S07: missing model output: nn",
        "2016-04-22: S07: missing model output: nn",
        "2016-05-06: S07: missing model output: nn",
    ]

    def test_pinned_run(self):
        bars_by_symbol, result = cadence_churn_run()
        fitted: dict[date, set[str]] = {}
        for record in result.fits:
            fitted.setdefault(date.fromisoformat(record["date"]), set()).add(record["symbol"])
        universes: dict[date, set[str]] = {}
        for insight in result.insights:
            universes.setdefault(insight.issued_at, set()).add(insight.symbol)
        refit_days = sorted(fitted)

        def last_refit(day):
            return max(r for r in refit_days if r <= day)

        # Between two refits some symbol leaves the universe and comes back.
        periods: dict[tuple[date, str], str] = {}
        for day in sorted(universes):
            for symbol in bars_by_symbol:
                key = (last_refit(day), symbol)
                periods[key] = periods.get(key, "") + ("1" if symbol in universes[day] else "0")
        assert any("10" in membership.strip("0") for membership in periods.values())
        # Some universe symbol missed the latest refit but was refit earlier,
        # so it forecasts with its older models.
        assert any(
            symbol not in fitted[last_refit(day)]
            and any(symbol in fitted[r] for r in refit_days if r < last_refit(day))
            for day, universe in universes.items() for symbol in universe
        )
        lengths = assert_fits_match_direct(result, bars_by_symbol)
        assert lengths[(refit_days[0].isoformat(), "S05")] == 61

        assert jsonl_sha256(f.to_dict() for f in result.fills) == self.FILLS_SHA256
        assert jsonl_sha256(result.fits) == self.FITS_SHA256
        assert result.diagnostics == self.DIAGNOSTICS

    def test_chunk_boundaries_leave_the_run_unchanged(self, monkeypatch):
        # The spies count calls in this process only, so the refits stay here.
        monkeypatch.setattr(workers, "usable_cpus", lambda: 1)
        _, default = cadence_churn_run()
        widths = {"fit": [], "filter": [], "net": []}
        fit_batch, hmm_forecast, net_forecast = (
            regime_hmm.fit_batch, regime_hmm.forecast, trend_net.forecast
        )

        def spy_fit(returns, *args):
            widths["fit"].append(len(returns))
            return fit_batch(returns, *args)

        def spy_filter(models, rows, returns):
            widths["filter"].append(len(rows))
            return hmm_forecast(models, rows, returns)

        def spy_net(params, rows, inputs):
            widths["net"].append(len(rows))
            return net_forecast(params, rows, inputs)

        monkeypatch.setattr(plan_mod, "MODEL_CHUNK", 3)
        monkeypatch.setattr(regime_hmm, "fit_batch", spy_fit)
        monkeypatch.setattr(regime_hmm, "forecast", spy_filter)
        monkeypatch.setattr(trend_net, "forecast", spy_net)
        _, chunked = cadence_churn_run()
        # Each refit day has four windows, so chunks of 3 cut across days.
        assert max(widths["fit"]) == max(widths["filter"]) == max(widths["net"]) == 3
        assert len(widths["fit"]) > len({r["date"] for r in default.fits})
        assert chunked == default

    def test_pooled_refits_equal_serial(self, monkeypatch):
        # Chunks of 3 give several refit tasks; S07's failing network refits
        # send TrainingDivergedError outcomes back from the workers.
        monkeypatch.setattr(plan_mod, "MODEL_CHUNK", 3)
        monkeypatch.setattr(workers, "usable_cpus", lambda: 1)
        _, serial = cadence_churn_run()
        monkeypatch.setattr(workers, "usable_cpus", lambda: 2)
        _, pooled = cadence_churn_run()
        assert any("S07 net fit skipped: non-finite loss" in d for d in pooled.diagnostics)
        assert pooled == serial

    def test_dead_refit_worker_raises(self, monkeypatch):
        test_pid = os.getpid()
        fit_batch = regime_hmm.fit_batch

        def die_in_worker(*args):
            if os.getpid() != test_pid:
                os._exit(1)
            return fit_batch(*args)

        monkeypatch.setattr(plan_mod, "MODEL_CHUNK", 3)
        monkeypatch.setattr(workers, "usable_cpus", lambda: 2)
        monkeypatch.setattr(regime_hmm, "fit_batch", die_in_worker)
        # A hang ends the test process with a traceback instead of stalling.
        faulthandler.dump_traceback_later(120, exit=True)
        try:
            with pytest.raises(BrokenProcessPool):
                cadence_churn_run()
        finally:
            faulthandler.cancel_dump_traceback_later()


def record_calls(monkeypatch, log, module, name, fail=False):
    """Replace module.name with a spy that appends "<module>.<name> <pid>
    <width>" to the file ``log`` (forked workers inherit the spy and append
    too), then calls the original or, with ``fail``, raises a NumericalError.
    The width is the length of a batched call's first argument, else 0."""
    real = getattr(module, name)
    label = f"{module.__name__.rsplit('.', 1)[-1]}.{name}"

    def spy(*args):
        width = len(args[0]) if isinstance(args[0], (list, np.ndarray)) else 0
        with log.open("a") as out:
            out.write(f"{label} {os.getpid()} {width}\n")
        if fail:
            raise NumericalError("forward recursion collapsed at t=3")
        return real(*args)

    monkeypatch.setattr(module, name, spy)


def logged_calls(log):
    lines = log.read_text().splitlines()
    return [(name, int(pid), int(width)) for name, pid, width in map(str.split, lines)]


class TestRefitTasks:
    """A window-length group of refits is cut into one task per usable CPU
    only when each task keeps MIN_PART refits or, on average, a full forecast
    call (MODEL_CHUNK forecasts); each task then forecasts with its own
    models in the worker that fitted them. A smaller group is one task, which
    runs in-process."""

    def test_cut_rule_boundaries(self, monkeypatch):
        monkeypatch.setattr(plan_mod, "MIN_PART", 4)
        monkeypatch.setattr(plan_mod, "MODEL_CHUNK", 10)
        jobs = [plan_job(np.arange(1.0, 5.0)) for _ in range(12)]

        def sizes(jobs, parts, uses):
            return [len(c) for c in plan_mod._length_chunks(jobs, parts, uses)]

        assert sizes(jobs[:8], 2, [0] * 8) == [4, 4]  # 8 refits: 2 x MIN_PART
        assert sizes(jobs[:7], 2, [0] * 7) == [7]
        assert sizes(jobs[:4], 2, [5, 5, 5, 5]) == [2, 2]  # 20 forecasts: 2 x MODEL_CHUNK
        assert sizes(jobs[:4], 2, [5, 5, 5, 4]) == [4]
        assert sizes(jobs[:12], 3, [0] * 12) == [4, 4, 4]
        assert sizes(jobs[:11], 3, [0] * 11) == [5, 6]  # MODEL_CHUNK still caps a task
        # Each window length is a group of its own, cut by its own sizes.
        mixed = jobs[:4] + [plan_job(np.arange(1.0, 4.0)) for _ in range(10)]
        assert sizes(mixed, 2, [0] * 14) == [4, 5, 5]

    def test_few_refits_and_forecasts_start_no_pool(self, monkeypatch, tmp_path, pools):
        # Like the wide benchmark: 40 refits of one window length, under
        # 2 x MIN_PART, and 40 forecasts, under 2 x MODEL_CHUNK.
        log = tmp_path / "calls"
        record_calls(monkeypatch, log, regime_hmm, "fit_batch")
        record_calls(monkeypatch, log, regime_hmm, "forecast")
        monkeypatch.setattr(workers, "usable_cpus", lambda: 2)
        result = small_run(*synth_market())
        refits = len({(r["date"], r["symbol"]) for r in result.fits})
        assert refits == 40 < 2 * plan_mod.MIN_PART
        assert len(result.insights) < 2 * plan_mod.MODEL_CHUNK
        assert pools == []
        calls = logged_calls(log)
        assert {pid for _, pid, _ in calls} == {os.getpid()}
        assert [width for name, _, width in calls if name == "regime_hmm.fit_batch"] == [refits]

    def test_tasks_per_cpu_of_at_most_model_chunk(self, monkeypatch, tmp_path):
        counts, results = [], []
        fork_map = workers.fork_map

        def spy_fork_map(task, count):
            counts.append(count)
            return fork_map(task, count)

        bars_by_symbol, meta = synth_market()
        # Every window has one length, so the refits make one group; with
        # MIN_PART 1 it is cut for the CPUs whatever its size.
        for chunk in (plan_mod.MODEL_CHUNK, 7):
            monkeypatch.setattr(workers, "usable_cpus", lambda: 2)
            monkeypatch.setattr(workers, "fork_map", spy_fork_map)
            monkeypatch.setattr(plan_mod, "MODEL_CHUNK", chunk)
            monkeypatch.setattr(plan_mod, "MIN_PART", 1)
            log = tmp_path / f"fits-{chunk}"
            record_calls(monkeypatch, log, regime_hmm, "fit_batch")
            results.append(small_run(bars_by_symbol, meta))
            monkeypatch.undo()
            widths = [width for _, _, width in logged_calls(log)]
            refits = len({(r["date"], r["symbol"]) for r in results[-1].fits})
            assert sum(widths) == refits and len(widths) == counts[-1]
            assert counts[-1] == max(2, -(-refits // chunk))
            assert max(widths) <= chunk and max(widths) - min(widths) <= 1
        assert counts[0] == 2 < counts[1]
        assert results[0] == results[1]

    def assert_forecasts_in_the_fitting_workers(self, monkeypatch, tmp_path, pools, **engine):
        """Run small_run on 2 CPUs; check that its 40 refits were cut into
        two pool tasks of 20, and that every forecast ran in a worker that
        fitted models."""
        log = tmp_path / "calls"
        record_calls(monkeypatch, log, regime_hmm, "fit_batch")
        record_calls(monkeypatch, log, regime_hmm, "forecast")
        record_calls(monkeypatch, log, trend_net, "forecast")
        monkeypatch.setattr(workers, "usable_cpus", lambda: 2)
        result = small_run(*synth_market(), **engine)
        assert any(i.direction != "flat" for i in result.insights)
        assert pools == [2]
        calls = logged_calls(log)
        assert {name for name, _, _ in calls} == {
            "regime_hmm.fit_batch", "regime_hmm.forecast", "trend_net.forecast"
        }
        fits = [(pid, width) for name, pid, width in calls if name == "regime_hmm.fit_batch"]
        assert [width for _, width in fits] == [20, 20]
        fitters = {pid for pid, _ in fits}
        forecasters = {pid for name, pid, _ in calls if name.endswith(".forecast")}
        assert os.getpid() not in fitters and forecasters <= fitters

    def test_forecasts_run_in_the_workers(self, monkeypatch, tmp_path, pools):
        # 40 refits are 2 x MIN_PART once MIN_PART is 20.
        monkeypatch.setattr(plan_mod, "MIN_PART", 20)
        self.assert_forecasts_in_the_fitting_workers(monkeypatch, tmp_path, pools)

    def test_many_forecasts_get_a_task_per_cpu(self, monkeypatch, tmp_path, pools):
        # Rebalancing every bar, the 40 refits serve 800 forecasts, at least
        # 2 x MODEL_CHUNK, as daily's 40 serve 10,080.
        self.assert_forecasts_in_the_fitting_workers(
            monkeypatch, tmp_path, pools, rebalance_every=1
        )

    @pytest.mark.parametrize(
        "module, note",
        [("regime_hmm", "hmm forecast failed"), ("trend_net", "net forecast failed")],
        ids=["hmm", "net"],
    )
    def test_forecast_error_in_a_worker_matches_serial(self, monkeypatch, tmp_path, module, note):
        runs = {}
        for cpus in (1, 2):
            log = tmp_path / f"calls-{cpus}"
            record_calls(monkeypatch, log, getattr(plan_mod, module), "forecast", fail=True)
            monkeypatch.setattr(workers, "usable_cpus", lambda: cpus)
            monkeypatch.setattr(plan_mod, "MIN_PART", 1)  # 2 CPUs: two tasks in workers
            runs[cpus] = small_run(*synth_market())
            pids = {pid for _, pid, _ in logged_calls(log)}
            assert (os.getpid() in pids) == (cpus == 1)
            monkeypatch.undo()
        assert any(note in d for d in runs[2].diagnostics)
        assert runs[2].diagnostics == runs[1].diagnostics
        assert runs[2] == runs[1]


class TestWorkerCount:
    def test_worker_count_leaves_the_run_unchanged(self, tmp_path, monkeypatch, pools):
        # A whole run from the bar CSV: with 2 or 3 usable CPUs, its ingest
        # parses one byte range per worker, and its 40 refits run in as many
        # workers when MIN_PART is 1 and in this process when it is 48; with
        # 1, both run in this process. Each run ingests a fresh copy of the
        # file, so that each parses it.
        bars_by_symbol, meta = synth_market()
        data = (
            BAR_CSV_HEADER_LINE
            + "".join(line + "\n" for lines in bar_csv_rows(bars_by_symbol).values() for line in lines)
        ).encode()
        monkeypatch.setattr(marketdata, "INGEST_RANGE_BYTES", 1)
        results = []
        for min_part in (1, 48):
            monkeypatch.setattr(plan_mod, "MIN_PART", min_part)
            for cpus in (1, 2, 3):
                monkeypatch.setattr(workers, "usable_cpus", lambda: cpus)
                path = fresh_copy(tmp_path / "bars.csv", data)
                results.append(small_run(ingest_csv(path).bars_by_symbol, meta))
        assert pools == [2, 2, 3, 3, 2, 3]
        assert results[0].fills
        assert all(result == results[0] for result in results[1:])


PLAN_CONFIG = RunConfig(seed=3, hmm=HmmConfig(n_states=2), mlp=MlpConfig(epochs=2))


def plan_job(closes, symbol="S00"):
    """A plan job as _forecast reads it: no step, a symbol, its closes and
    their log returns (non-finite for a bad close, as the plan's are)."""
    closes = np.array(closes, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        returns = np.diff(np.log(closes))
    closes.flags.writeable = returns.flags.writeable = False
    return (None, symbol, closes, returns)


class TestPlanHelpers:
    """The plan's model helpers are functions of jobs and the config."""

    @pytest.fixture(scope="class")
    def fitted(self):
        """Jobs of three symbols' 100-bar windows and their refit's (stack,
        outcomes) pair per model kind."""
        bars_by_symbol, _ = synth_market(n_symbols=3)
        jobs = [plan_job(bars.close[100:200], s) for s, bars in bars_by_symbol.items()]
        return jobs, plan_mod._refit_chunk(PLAN_CONFIG, jobs)

    def test_no_use_has_a_shorter_window_than_its_refit(self, monkeypatch):
        # After a start_date and a late listing, windows grow from one plan
        # day to the next, and a model forecasts on later, longer windows than
        # the one it was fitted on; never on a shorter one, so a model that
        # fitted has the closes its forecast needs.
        bars_by_symbol, meta = synth_market()
        bars_by_symbol["S03"] = take_rows(bars_by_symbol["S03"], slice(150, None))
        config = small_config(
            start_date=day_of(bars_by_symbol["S00"], 40), retrain_every=63, rebalance_every=21
        )
        calls = []
        refit_chunk, forecast = plan_mod._refit_chunk, plan_mod._forecast

        def spy_refit(config, jobs):
            calls.append(jobs)
            return refit_chunk(config, jobs)

        def spy_forecast(uses, rows, fitted):
            calls.append((uses, rows, fitted))
            return forecast(uses, rows, fitted)

        monkeypatch.setattr(plan_mod, "_refit_chunk", spy_refit)
        monkeypatch.setattr(plan_mod, "_forecast", spy_forecast)
        monkeypatch.setattr(workers, "usable_cpus", lambda: 1)
        plan_mod.build_plan(bars_by_symbol, meta, config)
        grown = set()  # (symbol, whether its HMM fit failed) of uses on longer windows
        for jobs, (uses, rows, ((_, hmm_fits), _)) in zip(calls[::2], calls[1::2]):
            for (step, symbol, closes, _), r in zip(uses, rows):
                refit_step, refit_symbol, refit_closes, _ = jobs[r]
                assert symbol == refit_symbol and step.day >= refit_step.day
                assert closes.size >= refit_closes.size
                if closes.size > refit_closes.size:
                    grown.add((symbol, isinstance(hmm_fits[r], Exception)))
        # S03's first refit is too short for an HMM; a later one fits it.
        assert {("S03", True), ("S03", False)} <= grown

    def test_failing_forecasts_give_their_errors(self, fitted):
        # A NaN close fails the HMM's returns and the network's inputs; the
        # other use in the same batched filter still forecasts.
        jobs, models = fitted
        closes = jobs[0][2].copy()
        closes[-1] = np.nan
        bad, good = plan_mod._forecast([plan_job(closes), jobs[1]], [0, 1], models)
        for signal in bad:
            assert isinstance(signal, InvalidInputError)
        assert "finite positive closes" in str(bad[0]) and "must be finite" in str(bad[1])
        assert isinstance(good[0], regime_hmm.DirectionForecast)
        assert isinstance(good[1], trend_net.TrendForecast)

    def test_forecasts_are_fusions_pairs(self, fitted):
        # Each signal is what the model's forecast returns for that window
        # alone, whichever refit row it uses (out of order, with repeats),
        # and fuse reads it as it reads the plain (direction, size) tuple.
        jobs, models = fitted
        (hmm_stack, _), (net_stack, _) = models
        directions, rows = set(), [2, 0, 0, 1]
        signals = plan_mod._forecast([jobs[r] for r in rows], rows, models)
        for r, (hmm, net) in zip(rows, signals):
            _, symbol, closes, _ = jobs[r]
            assert [hmm] == regime_hmm.forecast(hmm_stack, [r], log_returns(closes)[None])
            diffs = np.diff(closes)[None, -5:]
            assert [net] == trend_net.forecast(net_stack, [r], diffs)
            assert tuple(hmm) == (hmm.direction, hmm.expected_return)
            assert tuple(net) == (net.direction, net.magnitude)
            insight = fuse(hmm, net, symbol, DAY, 21)
            assert insight == fuse(tuple(hmm), tuple(net), symbol, DAY, 21)
            directions.add(insight.direction)
        assert directions - {"flat"}

    def test_batched_results_land_on_their_ids(self):
        calls = []

        def call(ids):
            calls.append(ids)
            return "stack", [10 * i for i in ids]

        assert plan_mod._batched(call, [0, 2]) == ("stack", [0, 20])
        assert calls == [[0, 2]]

    def test_batched_batch_error_lands_on_every_id(self):
        error = NumericalError("batch failed")

        def call(ids):
            raise error

        assert plan_mod._batched(call, [0, 1, 2]) == (None, [error, error, error])

    def test_batched_makes_no_call_without_ids(self):
        assert plan_mod._batched(pytest.fail, []) == (None, [])


class TestReturnColumns:
    """The plan slices each symbol's one log-return column; every slice has
    the bytes of log_returns on its window's closes, on the CPU running this."""

    def test_column_slices_are_window_returns(self):
        column = 50.0 * np.exp(np.cumsum(np.random.default_rng(23).normal(0, 0.02, 300)))
        returns = np.diff(np.log(column))
        for lo in range(40):
            for n in (2, 3, 7, 8, 9, 15, 16, 17, 31, 33, 100, 251, 252):
                want = log_returns(column[lo:lo + n])
                assert returns[lo:lo + n - 1].tobytes() == want.tobytes(), (lo, n)

    def test_plan_windows_carry_their_returns(self):
        bars_by_symbol, meta = synth_market()
        bars_by_symbol["S03"] = take_rows(bars_by_symbol["S03"], slice(60, None))
        plan = plan_mod.build_plan(bars_by_symbol, meta, small_config())
        windows = [window for step in plan.steps.values() for window in step.windows.values()]
        assert len({closes.size for closes, _ in windows}) > 1
        for closes, returns in windows:
            assert not returns.flags.writeable
            assert returns.tobytes() == log_returns(closes).tobytes()


class TestDataGap:
    def test_gap_forces_liquidation(self):
        # one symbol stops trading for > max_gap_bars while others keep the
        # calendar alive, then returns; the position must be force-closed
        closes = list(np.linspace(50, 55, 60))
        steady = {f"K{i}": make_bars(closes) for i in range(2)}
        gappy = take_rows(make_bars(closes), np.r_[0:40, 52:60])
        bars_by_symbol = dict(steady, GAP=gappy)
        meta = {
            s: InstrumentMeta(s, "Energy", 1_000_000) for s in bars_by_symbol
        }
        result = run_backtest(
            bars_by_symbol,
            meta,
            RunConfig(
                seed=1,
                universe=UniverseConfig(fine_count=3),
                hmm=HmmConfig(n_states=1),
                mlp=MlpConfig(epochs=1),
                bl=BlConfig(covariance_lookback=20),
                risk=RiskConfig(max_drawdown_per_security=0.99, trailing_fraction=0.99),
                engine=EngineConfig(
                    warmup_bars=30, retrain_every=5, rebalance_every=5, window_bars=30
                ),
            ),
        )
        gap_events = [e for e in result.risk_events if e["reason"] == "data-gap"]
        gap_fills = [f for f in result.fills if f.reason == "data-gap"]
        bought_gap = any(f.symbol == "GAP" and f.side == "buy" for f in result.fills)
        assert bought_gap
        assert gap_events and gap_events[0]["symbol"] == "GAP"
        assert gap_fills and gap_fills[0].symbol == "GAP"
        assert gap_fills[0].side == "sell"
        # The 12-bar gap passes max_gap_bars on its 6th missing day; the
        # pending liquidation then blocks a second one on each later day.
        liquidating = [d for d in result.diagnostics if "force-liquidating" in d]
        assert len(gap_events) == 1
        assert len(liquidating) == 1 and "GAP missing 6 bars" in liquidating[0]
        assert len(gap_fills) == 1

    def test_same_day_risk_events_in_symbol_order(self):
        # Both symbols are bought at the second open. S1's last bar is the
        # third, so at the ninth close it has missed 6 > max_gap_bars bars;
        # at that close S0 falls 10 % from its peak, past its 5 % maximum
        # drawdown. The close-of-day stage logs both in symbol order.
        bars_by_symbol = {"S0": make_bars([10.0] * 8 + [9.0] * 4), "S1": make_bars([10.0] * 3)}
        day = day_of(bars_by_symbol["S0"], 0)
        step = plan_mod.Step(day, ["S0", "S1"], True, weights={"S0": 0.45, "S1": 0.45})
        config = RunConfig()  # its warm-up outlasts the calendar: the plan has no step
        plan = replace(plan_mod.build_plan(bars_by_symbol, {}, config), steps={0: step})
        book = eng.run_book(bars_by_symbol, plan, config)
        assert [(f.symbol, f.side) for f in book.fills] == [
            ("S0", "buy"), ("S1", "buy"), ("S0", "sell"),
        ]
        ninth = day_of(bars_by_symbol["S0"], 8).isoformat()
        assert [(e["date"], e["symbol"], e["reason"]) for e in book.risk_events] == [
            (ninth, "S0", "max-drawdown"), (ninth, "S1", "data-gap"),
        ]


class TestBenchmarkAlignment:
    def test_forward_fill(self):
        bars = make_bars([100.0, 102.0, 101.0])
        dates = [day_of(bars, row) for row in range(3)]
        curve = [dates[0], dates[1], dates[1] + timedelta(days=1), dates[2]]
        aligned = eng.align_benchmark(bars, curve)
        assert aligned["benchmark_returns"] == pytest.approx([0.02, 0.0, 101.0 / 102.0 - 1.0])
        assert (aligned["benchmark_start"], aligned["benchmark_end"]) == (dates[0], dates[2])

    def test_back_fill_before_first_bar(self):
        bars = make_bars([100.0, 102.0])
        first = day_of(bars, 0)
        curve = [first - timedelta(days=2), first - timedelta(days=1), first, day_of(bars, 1)]
        returns = eng.align_benchmark(bars, curve)["benchmark_returns"]
        assert returns == pytest.approx([0.0, 0.0, 0.02])

    def test_none_passthrough(self):
        assert eng.align_benchmark(None, [date(2020, 1, 2)]) == {}
        assert eng.align_benchmark(take_rows(make_bars([1.0]), slice(0)), [date(2020, 1, 2)]) == {}
