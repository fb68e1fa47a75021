import time
import zlib
from dataclasses import replace
from datetime import date, timedelta

import numpy as np
import pytest

from duotrader import engine as eng
from duotrader.alpha_fusion import FusionConfig
from duotrader.engine import (
    EngineConfig,
    Order,
    execute,
    order_fee,
    run_backtest,
)
from duotrader.errors import InsufficientDataError, NumericalError, ParameterError
from duotrader.marketdata import InstrumentMeta, synth_regime_series
from duotrader.portfolio_bl import BlConfig
from duotrader.regime_hmm import HmmConfig
from duotrader.risk_controls import RiskConfig
from duotrader.trend_net import MlpConfig
from duotrader.universe import UniverseConfig

from conftest import make_bar, make_bars


def synth_market(n_symbols=6, n_bars=320, seed=11, sector="Energy"):
    regimes = [(0.0012, 0.008), (-0.0015, 0.018)]
    trans = [[0.96, 0.04], [0.05, 0.95]]
    bars_by_symbol, meta = {}, {}
    for i in range(n_symbols):
        sym = f"S{i:02d}"
        sub = (seed ^ zlib.crc32(sym.encode())) % 2**31
        bars, _ = synth_regime_series(
            sub, n_bars, regimes, trans, symbol=sym, start_price=40 + 9 * i
        )
        bars_by_symbol[sym] = bars
        meta[sym] = InstrumentMeta(sym, sector, 2_000_000 + (sub % 500) * 100_000)
    return bars_by_symbol, meta


def small_run(bars_by_symbol, meta, **engine_kwargs):
    defaults = dict(
        seed=3, warmup_bars=120, retrain_every=21, rebalance_every=21, window_bars=100
    )
    defaults.update(engine_kwargs)
    return run_backtest(
        bars_by_symbol,
        meta,
        UniverseConfig(fine_count=4),
        HmmConfig(n_states=2),
        MlpConfig(epochs=2),
        FusionConfig(),
        BlConfig(covariance_lookback=60),
        RiskConfig(),
        EngineConfig(**defaults),
    )


def fifo_accounting_gap(result, bars_by_symbol, initial=100_000.0):
    """Worst absolute violation of equity = initial + realized + unrealized - fees."""
    closes = {s: {b.timestamp: b.close for b in bars} for s, bars in bars_by_symbol.items()}
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


class TestExecute:
    def test_fee_small_order_hits_minimum(self):
        config = EngineConfig()
        assert order_fee(100, config) == pytest.approx(1.0)  # max(0.5, 1.0)

    def test_fee_large_order_per_share(self):
        assert order_fee(1000, EngineConfig()) == pytest.approx(5.0)

    def test_fill_at_open(self):
        bar = make_bar("A", close=102.0, open_=101.0)
        fill, diag = execute(Order("A", "buy", 10), bar, EngineConfig(), 10_000.0)
        assert fill.price == 101.0
        assert fill.fee == pytest.approx(1.0)
        assert diag is None

    def test_zero_quantity_rejected(self):
        bar = make_bar("A", close=100.0)
        fill, diag = execute(Order("A", "buy", 0), bar, EngineConfig(), 1e6)
        assert fill is None
        assert "zero-quantity" in diag

    def test_buy_scaled_to_cash(self):
        bar = make_bar("A", close=100.0, open_=100.0)
        fill, diag = execute(Order("A", "buy", 100), bar, EngineConfig(), 1_050.0)
        assert fill.quantity == 10  # 10*100 + 1.0 fee = 1001 <= 1050
        assert "scaled" in diag
        assert fill.quantity * fill.price + fill.fee <= 1_050.0

    def test_unaffordable_buy_dropped(self):
        bar = make_bar("A", close=100.0, open_=100.0)
        fill, diag = execute(Order("A", "buy", 10), bar, EngineConfig(), 50.0)
        assert fill is None
        assert "insufficient cash" in diag

    def test_sell_not_cash_constrained(self):
        bar = make_bar("A", close=100.0, open_=99.0)
        fill, _ = execute(Order("A", "sell", 500), bar, EngineConfig(), 0.0)
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
        bar = make_bar("A", close=price, open_=price)
        # oracle: the largest share count whose exact cost fits in cash
        expected = max(
            (q for q in range(1, quantity + 1)
             if q * price + order_fee(q, config) <= cash),
            default=0,
        )
        fill, _ = execute(Order("A", "buy", quantity), bar, config, cash)
        if expected == 0:
            assert fill is None
        else:
            assert fill.quantity == expected
            assert fill.quantity * fill.price + fill.fee <= cash

    def test_tiny_price_buy_is_prompt(self):
        bar = make_bar("A", close=1e-9, open_=1e-9)
        start = time.perf_counter()
        fill, diag = execute(Order("A", "buy", 10**14), bar, EngineConfig(), 100_000.0)
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
            s: [b for b in bars if b.timestamp <= cutoff]
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
            run_backtest(
                {}, {}, UniverseConfig(), HmmConfig(), MlpConfig(), FusionConfig(),
                BlConfig(), RiskConfig(), EngineConfig(),
            )

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
        bars_by_symbol["S02"] = [
            replace(b, open=b.open * 1e160, high=b.high * 1e160,
                    low=b.low * 1e160, close=b.close * 1e160)
            for b in bars_by_symbol["S02"]
        ]
        result = small_run(bars_by_symbol, meta)
        assert len(result.equity_curve) == 320
        assert any("S02" in d and "fit skipped" in d for d in result.diagnostics)
        traded = {f.symbol for f in result.fills}
        assert "S02" not in traded
        assert len(traded) >= 2
        s02 = [i for i in result.insights if i.symbol == "S02"]
        assert s02 and all(i.direction == "flat" for i in s02)

    @pytest.mark.parametrize(
        "module, name, note",
        [
            ("regime_hmm", "forward_posterior", "hmm forecast failed"),
            ("trend_net", "predict_direction", "net forecast failed"),
        ],
    )
    def test_forecast_failure_gives_flat_insight(self, monkeypatch, module, name, note):
        def broken(*args):
            raise NumericalError("forward recursion collapsed at t=3")

        monkeypatch.setattr(getattr(eng, module), name, broken)
        bars_by_symbol, meta = synth_market()
        result = small_run(bars_by_symbol, meta)
        assert result.insights
        assert all(i.direction == "flat" for i in result.insights)
        assert any(note in d for d in result.diagnostics)

    def test_date_range_filters_calendar(self):
        bars_by_symbol, meta = synth_market(n_symbols=2, n_bars=80)
        all_days = sorted({b.timestamp for bars in bars_by_symbol.values() for b in bars})
        result = small_run(
            bars_by_symbol, meta, warmup_bars=500,
            start_date=all_days[10], end_date=all_days[50],
        )
        assert result.equity_curve[0].timestamp == all_days[10]
        assert result.equity_curve[-1].timestamp == all_days[50]
        assert len(result.equity_curve) == 41


class TestDataGap:
    def test_gap_forces_liquidation(self):
        # one symbol stops trading for > max_gap_bars while others keep the
        # calendar alive, then returns; the position must be force-closed
        closes = list(np.linspace(50, 55, 60))
        steady = {f"K{i}": make_bars(f"K{i}", closes) for i in range(2)}
        gappy_bars = make_bars("GAP", closes)
        gappy = gappy_bars[:40] + gappy_bars[52:]
        bars_by_symbol = dict(steady, GAP=gappy)
        meta = {
            s: InstrumentMeta(s, "Energy", 1_000_000) for s in bars_by_symbol
        }
        result = run_backtest(
            bars_by_symbol,
            meta,
            UniverseConfig(fine_count=3),
            HmmConfig(n_states=1),
            MlpConfig(epochs=1),
            FusionConfig(),
            BlConfig(covariance_lookback=20),
            RiskConfig(max_drawdown_per_security=0.99, trailing_fraction=0.99),
            EngineConfig(
                seed=1, warmup_bars=30, retrain_every=5, rebalance_every=5,
                window_bars=30,
            ),
        )
        gap_events = [e for e in result.risk_events if e["reason"] == "data-gap"]
        gap_fills = [f for f in result.fills if f.reason == "data-gap"]
        bought_gap = any(f.symbol == "GAP" and f.side == "buy" for f in result.fills)
        assert bought_gap
        assert gap_events and gap_events[0]["symbol"] == "GAP"
        assert gap_fills and gap_fills[0].symbol == "GAP"
        assert gap_fills[0].side == "sell"


class TestBenchmarkAlignment:
    def test_forward_fill(self):
        bars = make_bars("BMK", [100.0, 102.0, 101.0])
        dates = [b.timestamp for b in bars]
        curve = [dates[0], dates[1], dates[1] + timedelta(days=1), dates[2]]
        returns = eng.align_benchmark_returns(bars, curve)
        assert returns == pytest.approx([0.02, 0.0, 101.0 / 102.0 - 1.0])

    def test_none_passthrough(self):
        assert eng.align_benchmark_returns(None, [date(2020, 1, 2)]) is None
