"""The seam between the plan and the book.

``plan.build_plan`` reads the data and the config's plan fields only, so
configs that differ only in what the book reads give the same plan; the book
(``engine.run_book``) then trades that plan's weights.
"""

import functools
import zlib
from dataclasses import replace
from datetime import date

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from duotrader import engine as eng
from duotrader import portfolio_bl
from duotrader.engine import EngineConfig
from duotrader.errors import InsufficientDataError
from duotrader.marketdata import InstrumentMeta, SymbolBars, synth_regime_series
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
    # Every rebalance's weights are its allocation record's (none without a
    # record), in [0, max_weight] and summing to at most 1 (to rounding of
    # the scaled sum): weights the long-only book can trade.
    cap = plan_config(PLAN_ENGINE).bl.max_weight
    for step in plan.steps.values():
        if not step.rebalance:
            continue
        if step.allocation is None:
            assert not step.weights
            continue
        assert step.weights == step.allocation["weights"]
        assert all(0.0 <= w <= cap for w in step.weights.values())
        assert sum(step.weights.values()) <= 1.0 + 1e-12


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


DAY0 = date(2021, 3, 1).toordinal()


@st.composite
def dated_markets(draw):
    """Up to four symbols, each on its own strictly increasing days drawn
    from a 91-day span (so some list late, end early or skip days, and a
    symbol may have no bar), with an optional start and end date in or just
    outside the span."""
    series = {}
    for i in range(draw(st.integers(1, 4))):
        offsets = draw(st.lists(st.integers(0, 90), unique=True, max_size=40))
        days = np.array(sorted(offsets), dtype=np.int64) + DAY0
        prices, volumes = np.full(days.size, 10.0), np.full(days.size, 100.0)
        series[f"S{i}"] = SymbolBars(days, prices, prices, prices, prices, volumes)
    bound = st.none() | st.integers(-5, 95).map(lambda k: date.fromordinal(DAY0 + k))
    return series, draw(bound), draw(bound)


def reference_calendar(series, start, end):
    """The calendar ordinals and row tables as a sort-unique of every
    in-range bar day and one searchsorted per symbol; None without an
    in-range bar."""
    first_row, in_range = {}, []
    for symbol, bars in series.items():
        days = bars.days
        lo = 0 if start is None else int(days.searchsorted(start.toordinal()))
        hi = days.size if end is None else int(days.searchsorted(end.toordinal(), "right"))
        first_row[symbol] = lo
        in_range.append(days[lo:hi])
    ordinals = np.sort(np.concatenate([np.empty(0, np.int64), *in_range]))
    if ordinals.size == 0:
        return None
    ordinals = ordinals[np.concatenate([[True], ordinals[1:] != ordinals[:-1]])]
    rows = {}
    for symbol, bars in series.items():
        table = bars.days.searchsorted(ordinals, "right") - 1
        table[table < first_row[symbol]] = -1
        rows[symbol] = table
    return ordinals, rows


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(dated_markets())
def test_calendar_and_row_tables(market):
    # The warm-up outlasts every drawn calendar, so the plan has no steps and
    # reads no row table before the test does.
    series, start, end = market
    config = RunConfig(engine=EngineConfig(start_date=start, end_date=end))
    meta = {s: InstrumentMeta(s, "Energy", 1_000_000) for s in series}
    reference = reference_calendar(series, start, end)
    if reference is None:
        with pytest.raises(InsufficientDataError):
            build_plan(series, meta, config)
        return
    plan = build_plan(series, meta, config)
    ordinals, rows = reference
    assert [day.toordinal() for day in plan.calendar] == ordinals.tolist()
    assert not plan.steps and not plan.rows  # each table is built on its first read
    for symbol, table in rows.items():
        assert plan.rows[symbol].tolist() == table.tolist()
        assert plan.rows[symbol] is plan.rows[symbol]
    with pytest.raises(KeyError):
        plan.rows["S9"]


@pytest.mark.xfail(strict=True, reason=(
    "a view return is the HMM's daily expected return, while Sigma and so pi "
    "are annualized: every up view pulls its posterior down toward a daily return"))
def test_an_up_view_lifts_its_posterior(monkeypatch):
    # Each symbol's up regime drifts 0.001 a day, about 0.25 a year, far above
    # every equilibrium return here (at most 0.1), so each of the plan's up
    # views must lift its symbol's posterior.
    blends, blend = [], portfolio_bl.posterior_returns

    def spy(pi, sigma, q, precision):
        mu = blend(pi, sigma, q, precision)
        blends.append((pi, q, mu))
        return mu

    monkeypatch.setattr(portfolio_bl, "posterior_returns", spy)
    build_plan(*MARKET, plan_config(PLAN_ENGINE))
    ups = [(pi[i], mu[i]) for pi, q, mu in blends for i in np.flatnonzero(q > 0)]
    assert ups
    assert all(mu > pi for pi, mu in ups)
