"""Properties of the book loop under drawn target weights.

``engine.run_book`` trades a plan whose steps are drawn and carry target
weights (None holds the book, {} is all cash), so no model runs: the book
loop is then a function of the calendar, the open and close columns, the
weights and the configs, and every fill, position and equity point can be
replayed from them alone.
"""

from dataclasses import replace
from datetime import date
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from duotrader.engine import EngineConfig, run_book
from duotrader.marketdata import SymbolBars
from duotrader.plan import Step, build_plan
from duotrader.runconfig import RunConfig

from conftest import take_rows

FIRST_DAY = date(2020, 1, 2).toordinal()


def weekdays(count: int) -> np.ndarray:
    """The ordinals of ``count`` consecutive weekdays from FIRST_DAY."""
    days = np.arange(FIRST_DAY, FIRST_DAY + 2 * count)
    return days[np.array([date.fromordinal(int(d)).weekday() < 5 for d in days])][:count]


class Book(NamedTuple):
    """The drawn parameters of one book: each symbol's share of missing days
    and log10 price scale, the calendar length, the random stream of prices
    and weights, the fee schedule, and the plan's first step, cadence and
    weight total."""

    symbols: list[tuple[float, int]]
    n_days: int
    seed: int
    per_share_fee: float
    min_fee: float
    first: int
    every: int
    total: float


books = st.builds(
    Book,
    symbols=st.lists(
        st.tuples(st.sampled_from([0.0, 0.05, 0.3]), st.sampled_from([-6, -2, -1, 0, 2, 4, 6])),
        min_size=2, max_size=6,
    ),
    n_days=st.integers(40, 300),
    seed=st.integers(0, 2**32 - 1),
    per_share_fee=st.sampled_from([0.0, 0.005, 0.01]),
    min_fee=st.sampled_from([0.0, 1.0]),
    first=st.integers(0, 30),
    every=st.integers(1, 25),
    total=st.sampled_from([0.5, 0.9, 1.0]),
)


def market(book: Book):
    """The book's bars, engine config and plan. Each symbol misses its share
    of the weekdays (keeping at least two) and its closes walk randomly from
    its price scale, with each open near its close. A plan step every
    ``every`` calendar days from ``first`` holds the book, goes all cash or
    sets random weights over a random subset of the symbols that sum to
    ``total``; each step is (day, weights) by calendar position."""
    rng = np.random.default_rng(book.seed)
    days = weekdays(book.n_days)
    bars_by_symbol = {}
    for i, (gap, scale) in enumerate(book.symbols):
        keep = rng.random(book.n_days) >= gap
        keep[rng.choice(book.n_days, 2, replace=False)] = True
        close = 10.0**scale * np.exp(np.cumsum(rng.normal(0.0, 0.02, book.n_days)))[keep]
        open_ = close * np.exp(rng.normal(0.0, 0.01, close.size))
        bars_by_symbol[f"S{i}"] = SymbolBars(
            days[keep], open_, np.maximum(open_, close), np.minimum(open_, close), close,
            np.full(close.size, 1000.0),
        )
    engine = EngineConfig(per_share_fee=book.per_share_fee, min_fee=book.min_fee)
    calendar = np.unique(np.concatenate([bars.days for bars in bars_by_symbol.values()]))
    symbols = sorted(bars_by_symbol)
    plan = {}
    for position in range(book.first, calendar.size, book.every):
        kind = rng.random()
        weights = None if kind < 0.15 else {}
        if kind >= 0.25:
            chosen = rng.choice(symbols, rng.integers(1, len(symbols) + 1), replace=False)
            raw = rng.random(chosen.size)
            weights = {str(s): w for s, w in zip(chosen, book.total * raw / raw.sum())}
        plan[position] = (date.fromordinal(int(calendar[position])), weights)
    return bars_by_symbol, engine, plan


def trade(bars_by_symbol, engine, plan):
    """The book run on the market's plan (its calendar and row table; no
    metadata, so no universe and no step) with steps carrying the drawn
    weights."""
    config = RunConfig(engine=engine)
    steps = {
        i: Step(day, sorted(bars_by_symbol), True, weights=weights)
        for i, (day, weights) in plan.items()
    }
    drawn = replace(build_plan(bars_by_symbol, {}, config), steps=steps)
    return run_book(bars_by_symbol, drawn, config)


def replay(result, bars_by_symbol, initial):
    """Cash and positions after each day's fills, replayed from the fill log,
    with the equity they give at that day's last closes: one (cash,
    positions, equity, magnitude) per equity point, where magnitude bounds
    the size of the terms summed."""
    fills_by_day: dict[date, list] = {}
    for fill in result.fills:
        fills_by_day.setdefault(fill.timestamp, []).append(fill)
    closes = {
        s: dict(zip(bars.days.tolist(), bars.close.tolist())) for s, bars in bars_by_symbol.items()
    }
    cash, positions, last_close, states = initial, {}, {}, []
    for point in result.equity_curve:
        ordinal = point.timestamp.toordinal()
        for symbol, table in closes.items():
            if ordinal in table:
                last_close[symbol] = table[ordinal]
        for fill in fills_by_day.get(point.timestamp, []):
            if fill.side == "buy":
                cash -= fill.quantity * fill.price + fill.fee
                positions[fill.symbol] = positions.get(fill.symbol, 0) + fill.quantity
            else:
                cash += fill.quantity * fill.price - fill.fee
                positions[fill.symbol] = positions.get(fill.symbol, 0) - fill.quantity
        marks = [q * last_close[s] for s, q in positions.items() if q]
        states.append((cash, dict(positions), cash + sum(marks), abs(cash) + sum(map(abs, marks))))
    return states


BOOK_SETTINGS = settings(max_examples=60, derandomize=True, database=None, deadline=None)
# Two symbols near a cent each, rebalanced daily under a $1 minimum fee: the
# smallest book found whose cash goes below zero (to -1.06).
CENT_BOOK = Book([(0.0, -2), (0.0, -2)], 40, 0, 0.005, 1.0, 0, 1, 0.9)


@BOOK_SETTINGS
@given(books)
@example(CENT_BOOK)
def test_book_loop_under_drawn_weights(book):
    bars_by_symbol, engine, plan = market(book)
    result = trade(bars_by_symbol, engine, plan)
    first_step_day = min((day for day, _ in plan.values()), default=date.max)
    for fill in result.fills:
        bars = bars_by_symbol[fill.symbol]
        row = int(bars.days.searchsorted(fill.timestamp.toordinal()))
        assert row < bars.days.size and bars.days[row] == fill.timestamp.toordinal()
        assert fill.price == bars.open[row]
        assert fill.timestamp > first_step_day
    states = replay(result, bars_by_symbol, engine.initial_equity)
    for (_, positions, equity, magnitude), point in zip(states, result.equity_curve):
        assert all(q >= 0 for q in positions.values())
        assert abs(point.equity - equity) <= 1e-9 * max(1.0, magnitude)
    assert states[-1][0] == result.cash
    assert {s: q for s, q in states[-1][1].items() if q} == result.positions


@BOOK_SETTINGS
@given(books, st.data())
def test_truncated_run_is_a_prefix_of_the_full_run(book, data):
    # No look-ahead: the run on the bars up to a calendar position, with the
    # plan steps up to it, is the full run up to that day.
    bars_by_symbol, engine, plan = market(book)
    full = trade(bars_by_symbol, engine, plan)
    cut = data.draw(st.integers(1, len(full.equity_curve) - 1), label="cut")
    last = full.equity_curve[cut].timestamp
    truncated = trade(
        {s: take_rows(bars, bars.days <= last.toordinal()) for s, bars in bars_by_symbol.items()},
        engine, {i: step for i, step in plan.items() if i <= cut},
    )
    assert truncated.equity_curve == full.equity_curve[:cut + 1]
    assert truncated.fills == [f for f in full.fills if f.timestamp <= last]
    assert truncated.risk_events == [
        e for e in full.risk_events if e["date"] <= last.isoformat()
    ]


@pytest.mark.xfail(
    strict=True,
    reason="FOUND CHANGES.md:3: order sizing ignores the fee schedule, so a fee "
    "larger than a fill's notional can take cash below zero",
)
@settings(BOOK_SETTINGS, phases=[Phase.explicit, Phase.generate])
@given(books)
@example(CENT_BOOK)
def test_cash_never_negative_under_drawn_weights(book):
    bars_by_symbol, engine, plan = market(book)
    result = trade(bars_by_symbol, engine, plan)
    states = replay(result, bars_by_symbol, engine.initial_equity)
    assert min(cash for cash, *_ in states) >= 0.0


@pytest.mark.xfail(
    strict=True,
    reason="FOUND CHANGES.md:3: order sizing ignores the fee schedule, so a fill "
    "can pay a fee above its notional and no diagnostic says so",
)
@settings(BOOK_SETTINGS, phases=[Phase.explicit, Phase.generate])
@given(books)
@example(CENT_BOOK)
def test_no_fee_above_notional_without_a_diagnostic(book):
    bars_by_symbol, engine, plan = market(book)
    result = trade(bars_by_symbol, engine, plan)
    for fill in result.fills:
        if fill.fee > fill.quantity * fill.price:
            prefix = f"{fill.timestamp.isoformat()}: {fill.symbol}: "
            assert any(d.startswith(prefix) and "fee" in d for d in result.diagnostics), fill
