"""Behaviour fingerprint of a full backtest.

A refactor that claims to keep behaviour must keep these two values: the
sha256 of the fill log as the CLI writes it to ``fills.jsonl`` and the repr
of the final equity. A change that moves the fingerprint on purpose says why
in CHANGES.md.

The model outputs of a run at the default model config are pinned apart
(``test_default_shape_model_outputs``): every other pinned fit runs two HMM
states, so only this pin sees the arithmetic of the default five. A change
in summation order may move these bits and keep the fingerprint; such a
change re-pins them and says why.
"""

import hashlib
import json
import zlib

from duotrader.engine import EngineConfig, run_backtest
from duotrader.marketdata import InstrumentMeta, synth_regime_series
from duotrader.runconfig import RunConfig

from conftest import jsonl_sha256

GOLDEN_FILLS_SHA256 = "e227110ae77ce01d36e6c75b892635c3b0cd98c17c2c37907ca9d199d65396d5"
GOLDEN_FINAL_EQUITY = "99862.44534543942"


def golden_market(n_symbols=5, n_bars=504, seed=2024):
    regimes = [(0.0010, 0.009), (-0.0012, 0.017)]
    trans = [[0.97, 0.03], [0.04, 0.96]]
    bars_by_symbol, meta = {}, {}
    for i in range(n_symbols):
        sym = f"E{i:02d}"
        sub = (seed ^ zlib.crc32(sym.encode())) % 2**31
        bars, _ = synth_regime_series(sub, n_bars, regimes, trans, start_price=30 + 11 * i)
        bars_by_symbol[sym] = bars
        meta[sym] = InstrumentMeta(sym, "Energy", 3_000_000 + (sub % 700) * 50_000)
    return bars_by_symbol, meta


def test_fill_log_and_final_equity_fingerprint():
    bars_by_symbol, meta = golden_market()
    result = run_backtest(
        bars_by_symbol, meta, RunConfig(seed=7, engine=EngineConfig(warmup_bars=252))
    )
    fills_jsonl = "".join(
        json.dumps(fill.to_dict(), sort_keys=True) + "\n" for fill in result.fills
    )
    assert result.fills
    assert hashlib.sha256(fills_jsonl.encode()).hexdigest() == GOLDEN_FILLS_SHA256
    assert repr(result.equity_curve[-1].equity) == GOLDEN_FINAL_EQUITY


def test_default_shape_model_outputs():
    # 6 symbols x 520 bars at the default model config (5 HMM states, 10 EM
    # iterations, 5 epochs) past a 252-bar warm-up. Pinned: the HMM's records
    # of fits.jsonl, and insights.jsonl. The network's loss histories go
    # through BLAS, whose kernel moves their last bits (they differ under
    # OPENBLAS_CORETYPE=Haswell), so they are left out; the HMM calls no BLAS.
    bars_by_symbol, meta = golden_market(n_symbols=6, n_bars=520)
    result = run_backtest(
        bars_by_symbol, meta, RunConfig(seed=7, engine=EngineConfig(warmup_bars=252))
    )
    hmm_fits = [record for record in result.fits if record["model"] == "hmm"]
    assert len(hmm_fits) == len(result.insights) == 78
    assert jsonl_sha256(hmm_fits) == (
        "f682bc2002141336fd343eabd404e29595e43751f65e710069273ef7012c2136"
    )
    assert jsonl_sha256(i.to_dict() for i in result.insights) == (
        "8bf707d51628dbbb766b096f87cb61bb70ddbdd6bf210e494efba45232914120"
    )
