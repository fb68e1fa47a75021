"""Deterministic event-driven daily backtest. ``run_backtest`` builds the
plan (``plan.build_plan``), runs the book over it (``run_book``) and reports.

The book loop trades the plan's weights per day of its calendar, in order:
  1. ``_fill_orders``: fill orders queued on the prior day at today's open
     (sells before buys)
  2. on a plan day, record the plan's notes (fit, forecast and target)
  3. ``_rebalance``: queue the orders that move holdings to the plan's
     target weights, if it has any
  4. ``_check_positions``: at the close, run the risk overlays on each held
     symbol with a bar today and liquidate one missing more than
     ``MAX_GAP_BARS`` bars
  5. ``Book.equity``: append the equity point (cash + positions at last
     known closes)

The stages read and change one ``Book`` and touch only the held symbols, the
pending orders (at most one per symbol) and, on rebalance days, the target
symbols, so the book is a function of the plan's calendar, row tables and
weights, the open and close columns and the config. Both liquidation paths
go through ``_queue_liquidation``. Orders always fill at the NEXT bar's open,
so no decision uses a price that was not yet observable. Every price the book
reads is positive and finite: ``SymbolBars`` holds no other.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from datetime import date
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from . import metrics, risk_controls
from .alpha_fusion import Insight
from .errors import ParameterError
from .marketdata import InstrumentMeta, SymbolBars
from .plan import Plan, build_plan

if TYPE_CHECKING:  # runconfig imports this module for EngineConfig
    from .runconfig import RunConfig

REASON_REBALANCE = "rebalance"
REASON_DATA_GAP = "data-gap"

# A held symbol that misses more than this many bars in a row is liquidated.
MAX_GAP_BARS = 5


@dataclass
class EngineConfig:
    start_date: date | None = None
    end_date: date | None = None
    initial_equity: float = 100_000.0
    warmup_bars: int = 756
    retrain_every: int = 21
    rebalance_every: int = 21
    window_bars: int = 252
    per_share_fee: float = 0.005
    min_fee: float = 1.0
    risk_free_rate: float = 0.0

    def __post_init__(self):
        if self.initial_equity <= 0:
            raise ParameterError("initial_equity must be positive")
        if self.retrain_every < 1 or self.rebalance_every < 1:
            raise ParameterError("cadences must be >= 1")
        if self.warmup_bars < 0 or self.window_bars < 2:
            raise ParameterError("invalid warmup_bars / window_bars")
        if self.per_share_fee < 0 or self.min_fee < 0:
            raise ParameterError("per_share_fee and min_fee must be non-negative")
        metrics.check_risk_free_rate(self.risk_free_rate)


@dataclass(frozen=True)
class Order:
    symbol: str
    side: str        # buy | sell
    quantity: int
    reason: str = REASON_REBALANCE


@dataclass(frozen=True)
class Fill:
    symbol: str
    side: str
    quantity: int
    price: float
    fee: float
    timestamp: date
    reason: str = REASON_REBALANCE

    def to_dict(self) -> dict:
        return {
            "symbol": self.symbol,
            "side": self.side,
            "quantity": self.quantity,
            "price": self.price,
            "fee": self.fee,
            "date": self.timestamp.isoformat(),
            "reason": self.reason,
        }


@dataclass(frozen=True)
class EquityPoint:
    timestamp: date
    equity: float


@dataclass
class BacktestResult:
    equity_curve: list[EquityPoint]
    fills: list[Fill]
    insights: list[Insight]
    risk_events: list[dict]
    allocations: list[dict]
    fits: list[dict]
    diagnostics: list[str]
    report: metrics.MetricsReport
    final_cash: float


def order_fee(quantity: int, config: EngineConfig) -> float:
    return max(config.per_share_fee * quantity, config.min_fee)


def execute(
    order: Order, price: float, day: date, config: EngineConfig, cash_available: float
) -> tuple[Fill | None, str | None]:
    """Fill an order at ``price``, the open of ``day``. Buys that exceed
    available cash are scaled down to the largest affordable share count; a
    zero affordable quantity drops the order. Returns (fill, diagnostic)."""
    if order.quantity <= 0:
        return None, f"{order.symbol}: zero-quantity order rejected"
    quantity = order.quantity
    diagnostic = None
    if order.side == "buy":
        cost = quantity * price + order_fee(quantity, config)
        if cost > cash_available:
            # The cost is the larger of q * price + min_fee and
            # q * (price + per_share_fee), so both bound q in closed form. The
            # bound and the cost check round differently, so the exact check
            # also tries one share either side of it: enough whenever one
            # share's price exceeds the rounding error of the cash amount.
            bound = min(
                (cash_available - config.min_fee) // price,
                cash_available // (price + config.per_share_fee),
            )
            top = quantity if bound >= quantity else int(bound)
            affordable = next(
                (
                    q for q in (top + 1, top, top - 1)
                    if 0 < q <= quantity
                    and q * price + order_fee(q, config) <= cash_available
                ),
                0,
            )
            if affordable <= 0:
                return None, f"{order.symbol}: buy dropped, insufficient cash"
            diagnostic = (
                f"{order.symbol}: buy scaled {quantity} -> {affordable} (cash limit)"
            )
            quantity = affordable
    return (
        Fill(
            symbol=order.symbol,
            side=order.side,
            quantity=quantity,
            price=price,
            fee=order_fee(quantity, config),
            timestamp=day,
            reason=order.reason,
        ),
        diagnostic,
    )


def align_benchmark(benchmark: SymbolBars | None, dates: Sequence[date]) -> dict:
    """The benchmark arguments of ``metrics.compute_report`` for an equity
    curve on ``dates``: the benchmark's daily simple returns, with each date
    taking its last close on or before that date (its first close before its
    first bar), and the dates of its first and last bars. Empty without a
    benchmark or with an empty one."""
    if not benchmark:
        return {}
    ordinals = [day.toordinal() for day in dates]
    rows = np.maximum(benchmark.days.searchsorted(ordinals, "right") - 1, 0)
    closes = benchmark.close[rows]
    return {
        "benchmark_returns": closes[1:] / closes[:-1] - 1.0,
        "benchmark_start": date.fromordinal(int(benchmark.days[0])),
        "benchmark_end": date.fromordinal(int(benchmark.days[-1])),
    }


@dataclass
class Book:
    """Everything the book loop reads and changes: the market columns, the
    plan's row tables and the current calendar position; the run config; the
    holdings (cash, integer share positions and the per-position risk
    states); the pending order of each symbol; and the book's logs."""

    series: Mapping[str, SymbolBars]
    rows: Mapping[str, np.ndarray]  # symbol -> row per calendar position, -1 before its first
    config: RunConfig
    cash: float
    today: int = 0  # calendar position of the current day
    positions: dict[str, int] = field(default_factory=dict)
    risk_states: dict[str, risk_controls.PositionRiskState] = field(default_factory=dict)
    pending: dict[str, Order] = field(default_factory=dict)
    equity_curve: list[EquityPoint] = field(default_factory=list)
    fills: list[Fill] = field(default_factory=list)
    risk_events: list[dict] = field(default_factory=list)
    diagnostics: list[str] = field(default_factory=list)

    def row_today(self, symbol: str) -> int | None:
        """The symbol's row of today's bar; None without a bar today. A new
        in-range bar is the only thing that moves a symbol's row."""
        rows = self.rows[symbol]
        row = rows[self.today]
        if row < 0 or (self.today > 0 and rows[self.today - 1] == row):
            return None
        return int(row)

    def price(self, symbol: str, column: str, row: int) -> float:
        """The symbol's ``column`` ("open" or "close") price at ``row``."""
        return float(getattr(self.series[symbol], column)[row])

    def last_close(self, symbol: str) -> float | None:
        row = self.rows[symbol][self.today]
        return None if row < 0 else self.price(symbol, "close", int(row))

    def equity(self) -> float:
        """Cash plus every position marked at its last known close."""
        value = self.cash
        for symbol, qty in self.positions.items():
            value += qty * self.last_close(symbol)
        return value


def run_backtest(
    bars_by_symbol: Mapping[str, SymbolBars], meta: Mapping[str, InstrumentMeta], config: RunConfig,
    benchmark: SymbolBars | None = None,
) -> BacktestResult:
    """Run the full warm-up / retrain / rebalance / risk loop over each
    symbol's bars and produce the equity curve, logs, and the performance
    report, with the benchmark's returns when one is given. Only the
    config's seed and module sections are read, not its data paths."""
    plan = build_plan(bars_by_symbol, meta, config)
    book = run_book(bars_by_symbol, plan, config)
    steps = plan.steps.values()
    report = metrics.compute_report(
        plan.calendar, [p.equity for p in book.equity_curve], book.fills,
        risk_free_rate=config.engine.risk_free_rate, **align_benchmark(benchmark, plan.calendar),
    )
    return BacktestResult(
        equity_curve=book.equity_curve, fills=book.fills, risk_events=book.risk_events,
        insights=[insight for step in steps for insight in step.insights],
        allocations=[step.allocation for step in steps if step.allocation is not None],
        fits=[record for step in steps for record in step.fits],
        diagnostics=book.diagnostics, report=report, final_cash=book.cash,
    )


def run_book(bars_by_symbol: Mapping[str, SymbolBars], plan: Plan, config: RunConfig) -> Book:
    """Trade the plan's weights from the initial equity in cash. Returns the
    final book: its cash, positions and logs (the plan's notes first)."""
    book = Book(bars_by_symbol, plan.rows, config, config.engine.initial_equity)
    book.diagnostics += plan.notes
    for day_index, day in enumerate(plan.calendar):
        book.today = day_index
        _fill_orders(book, day)
        step = plan.steps.get(day_index)
        if step is not None:
            book.diagnostics.extend(step.notes)
            _rebalance(book, step.weights)
        _check_positions(book, day)
        book.equity_curve.append(EquityPoint(day, book.equity()))
    return book


def _queue_liquidation(
    book: Book, day: date, symbol: str, reason: str, close: float, stop_level: float
) -> bool:
    """Replace the symbol's pending order with a sell of the whole position
    and log the risk event. Does nothing, and returns False, when a
    liquidation of the symbol is already pending."""
    pending = book.pending.get(symbol)
    if pending is not None and pending.reason != REASON_REBALANCE:
        return False
    book.pending[symbol] = Order(symbol, "sell", book.positions[symbol], reason)
    book.risk_events.append({
        "date": day.isoformat(), "symbol": symbol, "reason": reason,
        "close": close, "stop_level": stop_level,
    })
    return True


def _fill_orders(book: Book, day: date) -> None:
    """Step 1: fill pending orders at today's open, sells first. An order
    for a symbol without a bar today stays pending; a sell is capped at the
    shares held. A fill whose fee exceeds its notional gets a diagnostic."""
    for order in sorted(book.pending.values(), key=lambda o: (o.side != "sell", o.symbol)):
        row = book.row_today(order.symbol)
        if row is None:
            continue
        del book.pending[order.symbol]
        held = book.positions.get(order.symbol, 0)
        if order.side == "sell":
            if held <= 0:
                continue
            order = replace(order, quantity=min(order.quantity, held))
        price = book.price(order.symbol, "open", row)
        fill, diag = execute(order, price, day, book.config.engine, book.cash)
        if diag:
            book.diagnostics.append(f"{day}: {diag}")
        if fill is None:
            continue
        notional = fill.quantity * fill.price
        if fill.fee > notional:
            book.diagnostics.append(
                f"{day}: {fill.symbol}: fee {fill.fee:g} exceeds notional {notional:g}"
            )
        if fill.side == "buy":
            book.cash -= notional + fill.fee
            book.positions[fill.symbol] = held + fill.quantity
            if held == 0:
                book.risk_states[fill.symbol] = risk_controls.PositionRiskState.open_position(
                    fill.symbol, fill.price, book.config.risk
                )
        else:
            book.cash += notional - fill.fee
            if held > fill.quantity:
                book.positions[fill.symbol] = held - fill.quantity
            else:
                book.positions.pop(fill.symbol, None)
                book.risk_states.pop(fill.symbol, None)
        book.fills.append(fill)


def _rebalance(book: Book, weights: Mapping[str, float] | None) -> None:
    """Step 3: queue the orders that move each holding to its target share
    count, the target weight of today's equity at the last close; None
    holds the book. Replaces pending rebalance orders; a symbol with a
    pending liquidation is left alone."""
    if weights is None:
        return
    book.pending = {s: o for s, o in book.pending.items() if o.reason != REASON_REBALANCE}
    equity_now = book.equity()
    for symbol in sorted(set(weights) | set(book.positions)):
        if symbol in book.pending or (price := book.last_close(symbol)) is None:
            continue  # a pending liquidation wins; no bar yet, no price
        goal = int(weights.get(symbol, 0.0) * equity_now // price)
        delta = goal - book.positions.get(symbol, 0)
        if delta != 0:
            book.pending[symbol] = Order(symbol, "buy" if delta > 0 else "sell", abs(delta))


def _check_positions(book: Book, day: date) -> None:
    """Step 4: at the close, advance each held position with a bar today
    through the risk overlays, and count the trading days since the last bar
    of each without one; a breach, or a gap longer than ``MAX_GAP_BARS``,
    queues a liquidation. Fills happen only on days with a bar, so a held
    symbol was held on every day it missed, and a liquidation for a gap
    cannot fill before the close. A symbol's rows never decrease, so the
    calendar position of its last bar is where its current row first
    appears."""
    for symbol in sorted(book.positions):
        row = book.row_today(symbol)
        if row is not None:
            risk_state, decision = risk_controls.update_and_check(
                book.risk_states[symbol], book.price(symbol, "close", row), book.config.risk
            )
            book.risk_states[symbol] = risk_state
            if decision.action == risk_controls.LIQUIDATE:
                _queue_liquidation(
                    book, day, symbol, decision.reason, decision.close, decision.stop_level
                )
            continue
        rows = book.rows[symbol]
        missed = book.today - int(rows.searchsorted(rows[book.today]))
        if missed > MAX_GAP_BARS and _queue_liquidation(
            book, day, symbol, REASON_DATA_GAP, book.last_close(symbol), 0.0
        ):
            book.diagnostics.append(f"{day}: {symbol} missing {missed} bars, force-liquidating")

