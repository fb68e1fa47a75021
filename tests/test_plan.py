"""The seam between the plan and the book.

``plan.build_plan`` reads the data and the config's plan fields only, so
configs that differ only in what the book reads give the same plan; the book
(``engine.run_book``) then trades that plan's weights.
"""

import functools
import zlib
from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from duotrader import engine as eng
from duotrader.engine import EngineConfig
from duotrader.marketdata import InstrumentMeta, synth_regime_series
from duotrader.plan import build_plan
from duotrader.portfolio_bl import BlConfig
from duotrader.regime_hmm import HmmConfig
from duotrader.runconfig import RunConfig
from duotrader.trend_net import MlpConfig
from duotrader.universe import UniverseConfig

from conftest import take_rows

PLAN_ENGINE = EngineConfig(warmup_bars=100, retrain_every=30, rebalance_every=15, window_bars=60)


def small_market():
    """Five symbols of 180 bars, one listing 40 bars late and one without
    metadata."""
    bars_by_symbol, meta = {}, {}
    for i in range(5):
        symbol = f"S{i}"
        seed = zlib.crc32(symbol.encode())
        bars, _ = synth_regime_series(
            seed, 180, [(0.001, 0.01), (-0.001, 0.02)], [[0.95, 0.05], [0.05, 0.95]],
            start_price=30.0 + 7 * i,
        )
        bars_by_symbol[symbol] = bars
        meta[symbol] = InstrumentMeta(symbol, "Energy", 1_000_000 + 250_000 * i)
    bars_by_symbol["S3"] = take_rows(bars_by_symbol["S3"], slice(40, None))
    del meta["S4"]
    return bars_by_symbol, meta


def plan_config(engine):
    return RunConfig(
        seed=5, universe=UniverseConfig(fine_count=4), hmm=HmmConfig(n_states=2),
        mlp=MlpConfig(epochs=2), bl=BlConfig(covariance_lookback=40), engine=engine,
    )


def plain(value):
    """A plan or part of one as comparable plain values: arrays as their
    dtype, shape and bytes, errors as their type and message."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, Exception):
        return type(value).__name__, str(value)
    if isinstance(value, dict):
        return {key: plain(item) for key, item in value.items()}
    if isinstance(value, list) or type(value) is tuple:
        return [plain(item) for item in value]
    if hasattr(value, "__dataclass_fields__"):
        return type(value).__name__, plain(vars(value))
    return value


BOOK_FIELDS = st.fixed_dictionaries({
    "initial_equity": st.sampled_from([1.0, 5_000.0, 100_000.0, 1e9]),
    "per_share_fee": st.sampled_from([0.0, 0.005, 0.5]),
    "min_fee": st.sampled_from([0.0, 1.0, 25.0]),
    "max_gap_bars": st.integers(0, 10),
})
MARKET = small_market()


@functools.cache
def reference_plan():
    return build_plan(*MARKET, plan_config(PLAN_ENGINE))


def test_reference_plan_trades():
    # The reference plan has refits, forecasts, weights and a note on the
    # symbol without metadata, so equal plans below compare all of them.
    plan = reference_plan()
    assert plan.notes == ["S4: no metadata, excluded from universe selection"]
    assert any(step.fits for step in plan.steps.values())
    assert any(step.weights for step in plan.steps.values())
    assert any(i.direction != "flat" for step in plan.steps.values() for i in step.insights)


@settings(max_examples=8, derandomize=True, database=None, deadline=None)
@given(BOOK_FIELDS)
def test_book_fields_leave_the_plan_unchanged(fields):
    plan = build_plan(*MARKET, plan_config(replace(PLAN_ENGINE, **fields)))
    assert plain(plan) == plain(reference_plan())


def test_engine_holds_no_plan_names():
    # A patch of one of these on the engine would change a copy no code reads.
    for name in ("MODEL_CHUNK", "MODEL_ERRORS", "symbol_seed", "select_universe",
                 "candidate_panel", "regime_hmm", "trend_net", "portfolio_bl"):
        assert not hasattr(eng, name), name
