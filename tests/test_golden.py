"""Behaviour fingerprint of a full backtest.

A refactor that claims to keep behaviour must keep these two values: the
sha256 of the fill log as the CLI writes it to ``fills.jsonl`` and the repr
of the final equity. Insights and allocations carry model floats whose last
digits may move under a change in summation order, so they are not pinned.
A change that moves the fingerprint on purpose says why in CHANGES.md.
"""

import hashlib
import json
import zlib

from duotrader.alpha_fusion import FusionConfig
from duotrader.engine import EngineConfig, run_backtest
from duotrader.marketdata import InstrumentMeta, synth_regime_series
from duotrader.portfolio_bl import BlConfig
from duotrader.regime_hmm import HmmConfig
from duotrader.risk_controls import RiskConfig
from duotrader.trend_net import MlpConfig
from duotrader.universe import UniverseConfig

GOLDEN_FILLS_SHA256 = "e227110ae77ce01d36e6c75b892635c3b0cd98c17c2c37907ca9d199d65396d5"
GOLDEN_FINAL_EQUITY = "99862.44534543942"


def golden_market(n_symbols=5, n_bars=504, seed=2024):
    regimes = [(0.0010, 0.009), (-0.0012, 0.017)]
    trans = [[0.97, 0.03], [0.04, 0.96]]
    bars_by_symbol, meta = {}, {}
    for i in range(n_symbols):
        sym = f"E{i:02d}"
        sub = (seed ^ zlib.crc32(sym.encode())) % 2**31
        bars, _ = synth_regime_series(
            sub, n_bars, regimes, trans, symbol=sym, start_price=30 + 11 * i
        )
        bars_by_symbol[sym] = bars
        meta[sym] = InstrumentMeta(sym, "Energy", 3_000_000 + (sub % 700) * 50_000)
    return bars_by_symbol, meta


def test_fill_log_and_final_equity_fingerprint():
    bars_by_symbol, meta = golden_market()
    result = run_backtest(
        bars_by_symbol,
        meta,
        UniverseConfig(),
        HmmConfig(),
        MlpConfig(),
        FusionConfig(),
        BlConfig(),
        RiskConfig(),
        EngineConfig(seed=7, warmup_bars=252),
    )
    fills_jsonl = "".join(
        json.dumps(fill.to_dict(), sort_keys=True) + "\n" for fill in result.fills
    )
    assert result.fills
    assert hashlib.sha256(fills_jsonl.encode()).hexdigest() == GOLDEN_FILLS_SHA256
    assert repr(result.equity_curve[-1].equity) == GOLDEN_FINAL_EQUITY
