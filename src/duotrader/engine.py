"""Deterministic event-driven daily backtest, run in two phases.

Each symbol's history is one ``SymbolBars`` (day ordinals plus OHLCV
columns). A symbol's rolling window on a day is a slice of its close column:
its last ``window_bars`` closes on or before that day, none before
``start_date``.

``run_backtest`` first builds the calendar (every day with an in-range bar)
and one row table: for each symbol and calendar position, the row of the
symbol's last in-range bar on or before that day, or -1 before its first. The
plan and the book stages read a symbol's rows, windows and closes through it.

Phase 1, the plan (``_plan_signals``), depends on the data and the config
alone. It builds the candidate panel (``candidate_panel``: every symbol with
metadata over its whole history, bars before ``start_date`` included) and
walks the calendar once: it re-selects the universe from the panel
(``select_universe``) on the first trading day of each month and, past
warm-up, notes every refit (on the retrain cadence: both models for every
universe symbol with a window) and every rebalance (on the rebalance
cadence). A rebalance forecasts each universe symbol with the models of its
latest refit; a failed refit leaves the symbol without that model, and a
symbol out of the universe at a refit keeps its older models. The plan then
cuts the refits into tasks of one window length, at least one per usable CPU
and at most ``MODEL_CHUNK`` refits each, and runs them through
``workers.fork_map``, in forked worker processes when several CPUs are
usable. Each refit and each forecast is a job that carries its window:
read-only slices of the symbol's close column and of its log-return column
(computed once), so the model helpers are functions of jobs and the config
alone. A task fits both models of its refits, then forecasts every rebalance
that uses them, each as batched calls per model over windows of one length,
at most ``MODEL_CHUNK`` per call. Each model's forecast is the (direction,
size) pair fusion reads. Only the fit logs and the forecasts come back, never
the models. The parent writes them into the plan in refit order, so the plan
is the same with any number of workers. It then finishes each rebalance: it
fuses the forecasts into insights (``_generate_insights``) and blends them as
views into target weights (``_build_targets``), leaving out, with a note, a
symbol whose window has a non-finite return. The plan never sees the book.

Phase 2, the book loop, then runs per trading day, in order:
  1. ``_fill_orders``: fill orders queued on the prior day at today's open
     (sells before buys)
  2. on a plan day, record the plan's notes (fit, forecast and target)
  3. ``_rebalance``: queue the orders that move holdings to the plan's
     target weights, if it has any
  4. ``_check_positions``: at the close, run the risk overlays on each held
     symbol with a bar today and liquidate one missing more than
     ``max_gap_bars`` bars
  5. ``_Run.equity``: append the equity point (cash + positions at last
     known closes)

The book stages read and change one ``_Run`` object and touch only the held
symbols, the pending orders (at most one per symbol) and, on rebalance days,
the target symbols, so the book is a function of the calendar, the open and
close columns, the plan's weights and the config. Both liquidation paths go
through ``_queue_liquidation``. Orders always fill at the NEXT bar's open, so
no decision ever uses a price that was not yet observable, and every price
the book reads must be positive and finite. The run is a pure
function of data + config: per-symbol model seeds are derived from the run's
top-level seed with a stable CRC, and every model call gives a series the
same bits in any batch.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field, replace
from datetime import date
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

import numpy as np

from . import alpha_fusion, metrics, portfolio_bl, regime_hmm, risk_controls, trend_net, workers
from .alpha_fusion import Insight
from .errors import (
    InsufficientDataError,
    InvalidInputError,
    NumericalError,
    ParameterError,
    TrainingDivergedError,
)
from .marketdata import InstrumentMeta, SymbolBars
from .universe import candidate_panel, select_universe

if TYPE_CHECKING:  # runconfig imports this module for EngineConfig
    from .runconfig import RunConfig

REASON_REBALANCE = "rebalance"
REASON_DATA_GAP = "data-gap"

# A model that raises one of these for one symbol leaves that symbol without
# a model (and so flat) for the period; the rest of the run goes on.
MODEL_ERRORS = (InsufficientDataError, InvalidInputError, NumericalError, TrainingDivergedError)

# Most series in one batched refit or posterior call. Wider calls spread the
# per-step Python overhead of the recursions over more series: pinned to one
# CPU, fitting the 480 HMMs of the ``acceptance`` benchmark (251 returns each)
# took 1.08 s in calls of 48 and 0.74 s in calls of 240. A call's (time,
# series, state) arrays grow with the width and count toward the peak memory of
# the process that runs it: that backtest, pinned, peaked at 47 MB with calls
# of 48 and 57 MB with calls of 240, about 0.05 MB per series.
MODEL_CHUNK = 240


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
    max_gap_bars: int = 5
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
        if self.max_gap_bars < 0:
            raise ParameterError("max_gap_bars must be non-negative")


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
    final_positions: dict[str, int]


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


def symbol_seed(base: int, salt: str, symbol: str) -> int:
    """The seed of one symbol's ``salt`` stream ("hmm", "mlp" or "synth")."""
    return (base ^ zlib.crc32(f"{salt}:{symbol}".encode())) % 2**31


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
class _Run:
    """Everything the book loop reads and changes: the market columns, the
    calendar-row table and the current calendar position; the run config;
    the book (cash, integer share positions and the per-position risk
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
        bars = self.series[symbol]
        value = float(getattr(bars, column)[row])
        if not 0.0 < value < np.inf:
            raise InvalidInputError(
                f"{date.fromordinal(int(bars.days[row]))}: {symbol} {column}"
                f" must be a positive price, got {value}"
            )
        return value

    def last_close(self, symbol: str) -> float | None:
        row = self.rows[symbol][self.today]
        return None if row < 0 else self.price(symbol, "close", int(row))

    def equity(self) -> float:
        """Cash plus every position marked at its last known close."""
        value = self.cash
        for symbol, qty in self.positions.items():
            value += qty * self.last_close(symbol)
        return value


@dataclass
class _Step:
    """The plan for one refit or rebalance day: the day, its universe and
    their (closes, log returns) windows; a refit's fit records; on a
    rebalance day, each universe symbol's (HMM signal, network signal) pair
    from ``_forecast``, the insights, the allocation record and the target
    weights (None holds the book, {} is all cash); and the day's notes."""

    day: date
    universe: list[str]
    rebalance: bool
    windows: dict[str, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)
    fits: list[dict] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    signals: dict[str, list] = field(default_factory=dict)
    insights: list[Insight] = field(default_factory=list)
    allocation: dict | None = None
    weights: dict[str, float] | None = None


# One symbol's window on a plan day: (plan step, symbol, closes, log returns).
_Job = tuple[_Step, str, np.ndarray, np.ndarray]


def run_backtest(
    bars_by_symbol: Mapping[str, SymbolBars],
    meta: Mapping[str, InstrumentMeta],
    config: RunConfig,
    benchmark: SymbolBars | None = None,
) -> BacktestResult:
    """Run the full warm-up / retrain / rebalance / risk loop over each
    symbol's bars and produce the equity curve, logs, and the performance
    report, with the benchmark's returns when one is given. Only the
    config's seed and module sections are read, not its data paths."""
    start, end = config.engine.start_date, config.engine.end_date
    first_row, in_range = {}, []
    for symbol, columns in bars_by_symbol.items():
        days = columns.days
        lo = 0 if start is None else int(days.searchsorted(start.toordinal()))
        hi = days.size if end is None else int(days.searchsorted(end.toordinal(), "right"))
        first_row[symbol] = lo
        in_range.append(days[lo:hi])
    ordinals = np.sort(np.concatenate([np.empty(0, np.int64), *in_range]))
    if ordinals.size == 0:
        raise InsufficientDataError("no bars inside the configured date range")
    ordinals = ordinals[np.concatenate([[True], ordinals[1:] != ordinals[:-1]])]
    calendar = [date.fromordinal(int(day)) for day in ordinals]
    rows = {}
    for symbol, columns in bars_by_symbol.items():
        table = columns.days.searchsorted(ordinals, "right") - 1
        table[table < first_row[symbol]] = -1
        rows[symbol] = table

    run = _Run(bars_by_symbol, rows, config, config.engine.initial_equity)
    for s in sorted(bars_by_symbol):
        if s not in meta:
            run.diagnostics.append(f"{s}: no metadata, excluded from universe selection")
    plan = _plan_signals(bars_by_symbol, first_row, rows, meta, config, calendar)
    for day_index, day in enumerate(calendar):
        run.today = day_index
        _fill_orders(run, day)
        step = plan.get(day_index)
        if step is not None:
            run.diagnostics.extend(step.notes)
            _rebalance(run, step.weights)
        _check_positions(run, day)
        run.equity_curve.append(EquityPoint(day, run.equity()))

    steps = plan.values()
    report = metrics.compute_report(
        calendar, [p.equity for p in run.equity_curve], run.fills,
        risk_free_rate=config.engine.risk_free_rate, **align_benchmark(benchmark, calendar),
    )
    return BacktestResult(
        equity_curve=run.equity_curve, fills=run.fills, risk_events=run.risk_events,
        insights=[insight for step in steps for insight in step.insights],
        allocations=[step.allocation for step in steps if step.allocation is not None],
        fits=[record for step in steps for record in step.fits],
        diagnostics=run.diagnostics, report=report, final_cash=run.cash,
        final_positions=dict(run.positions),
    )


def _queue_liquidation(
    run: _Run, day: date, symbol: str, reason: str, close: float, stop_level: float
) -> bool:
    """Replace the symbol's pending order with a sell of the whole position
    and log the risk event. Does nothing, and returns False, when a
    liquidation of the symbol is already pending."""
    pending = run.pending.get(symbol)
    if pending is not None and pending.reason != REASON_REBALANCE:
        return False
    run.pending[symbol] = Order(symbol, "sell", run.positions[symbol], reason)
    run.risk_events.append({
        "date": day.isoformat(), "symbol": symbol, "reason": reason,
        "close": close, "stop_level": stop_level,
    })
    return True


def _fill_orders(run: _Run, day: date) -> None:
    """Step 1: fill pending orders at today's open, sells first. An order
    for a symbol without a bar today stays pending; a sell is capped at the
    shares held."""
    for order in sorted(run.pending.values(), key=lambda o: (o.side != "sell", o.symbol)):
        row = run.row_today(order.symbol)
        if row is None:
            continue
        del run.pending[order.symbol]
        held = run.positions.get(order.symbol, 0)
        if order.side == "sell":
            if held <= 0:
                continue
            order = replace(order, quantity=min(order.quantity, held))
        price = run.price(order.symbol, "open", row)
        fill, diag = execute(order, price, day, run.config.engine, run.cash)
        if diag:
            run.diagnostics.append(f"{day}: {diag}")
        if fill is None:
            continue
        if fill.side == "buy":
            run.cash -= fill.quantity * fill.price + fill.fee
            run.positions[fill.symbol] = held + fill.quantity
            if held == 0:
                run.risk_states[fill.symbol] = risk_controls.PositionRiskState.open_position(
                    fill.symbol, fill.price, run.config.risk
                )
        else:
            run.cash += fill.quantity * fill.price - fill.fee
            if held > fill.quantity:
                run.positions[fill.symbol] = held - fill.quantity
            else:
                run.positions.pop(fill.symbol, None)
                run.risk_states.pop(fill.symbol, None)
        run.fills.append(fill)


def _rebalance(run: _Run, weights: Mapping[str, float] | None) -> None:
    """Step 3: queue the orders that move each holding to its target share
    count, the target weight of today's equity at the last close; None
    holds the book. Replaces pending rebalance orders; a symbol with a
    pending liquidation is left alone."""
    if weights is None:
        return
    run.pending = {s: o for s, o in run.pending.items() if o.reason != REASON_REBALANCE}
    equity_now = run.equity()
    for symbol in sorted(set(weights) | set(run.positions)):
        if symbol in run.pending or (price := run.last_close(symbol)) is None:
            continue  # a pending liquidation wins; no bar yet, no price
        goal = int(weights.get(symbol, 0.0) * equity_now // price)
        delta = goal - run.positions.get(symbol, 0)
        if delta != 0:
            run.pending[symbol] = Order(symbol, "buy" if delta > 0 else "sell", abs(delta))


def _check_positions(run: _Run, day: date) -> None:
    """Step 4: at the close, advance each held position with a bar today
    through the risk overlays, and count the trading days since the last bar
    of each without one; a breach, or a gap longer than ``max_gap_bars``,
    queues a liquidation. Fills happen only on days with a bar, so a held
    symbol was held on every day it missed, and a liquidation for a gap
    cannot fill before the close. A symbol's rows never decrease, so the
    calendar position of its last bar is where its current row first
    appears."""
    for symbol in sorted(run.positions):
        row = run.row_today(symbol)
        if row is not None:
            risk_state, decision = risk_controls.update_and_check(
                run.risk_states[symbol], run.price(symbol, "close", row), run.config.risk
            )
            run.risk_states[symbol] = risk_state
            if decision.action == risk_controls.LIQUIDATE:
                _queue_liquidation(
                    run, day, symbol, decision.reason, decision.close, decision.stop_level
                )
            continue
        rows = run.rows[symbol]
        missed = run.today - int(rows.searchsorted(rows[run.today]))
        if missed > run.config.engine.max_gap_bars and _queue_liquidation(
            run, day, symbol, REASON_DATA_GAP, run.last_close(symbol), 0.0
        ):
            run.diagnostics.append(f"{day}: {symbol} missing {missed} bars, force-liquidating")


def _plan_signals(
    series: Mapping[str, SymbolBars], first_row: Mapping[str, int], rows: Mapping[str, np.ndarray],
    meta: Mapping[str, InstrumentMeta], config: RunConfig, calendar: list[date],
) -> dict[int, _Step]:
    """Phase 1: the universe, every refit, every rebalance's forecasts,
    insights and target weights of the run, from the data alone. Returns
    the plan of each refit or rebalance day by its calendar index."""
    engine = config.engine
    panel = candidate_panel(series, meta, config.universe.liquidity_lookback)
    steps: dict[int, _Step] = {}
    refits: list[_Job] = []
    users: list[list[_Job]] = []  # per refit, the forecasts made with its models
    latest: dict[str, int] = {}  # symbol -> index of its latest refit
    columns: dict[str, np.ndarray] = {}  # symbol -> log returns of its whole close column
    month = universe = None
    for day_index, day in enumerate(calendar):
        if (day.year, day.month) != month:
            month = (day.year, day.month)
            universe = select_universe(panel, config.universe, day)
        since_warmup = day_index - engine.warmup_bars
        if since_warmup < 0:
            continue
        refit = since_warmup % engine.retrain_every == 0
        rebalance = since_warmup % engine.rebalance_every == 0
        if not (refit or rebalance):
            continue
        step = steps[day_index] = _Step(day, universe, rebalance)
        for s in universe:
            if (row := int(rows[s][day_index])) >= 0:
                if s not in columns:  # a bad close's returns are non-finite: the users report it
                    with np.errstate(divide="ignore", invalid="ignore"):
                        columns[s] = np.diff(np.log(series[s].close))
                    columns[s].flags.writeable = False
                lo = max(first_row[s], row + 1 - engine.window_bars)
                step.windows[s] = (series[s].close[lo:row + 1], columns[s][lo:row])
        if refit:
            for symbol, window in step.windows.items():
                latest[symbol] = len(refits)
                refits.append((step, symbol, *window))
                users.append([])
        if rebalance:
            for symbol, window in step.windows.items():
                if symbol in latest:
                    users[latest[symbol]].append((step, symbol, *window))

    # One task per chunk fits its refits and forecasts every rebalance that
    # uses them; only the fit logs and the forecast pairs come back.
    chunks = list(_length_chunks(refits, workers.usable_cpus()))
    uses = [[use for i in chunk for use in users[i]] for chunk in chunks]

    def fit_and_forecast(k: int) -> tuple[list, list]:
        jobs = [refits[i] for i in chunks[k]]
        outcomes = _refit_chunk(config, jobs)
        logs = [
            _fit_log(step.day, symbol, *pair) for (step, symbol, *_), pair in zip(jobs, outcomes)
        ]
        models = [outcome for outcome, i in zip(outcomes, chunks[k]) for _ in users[i]]
        return logs, _forecast(config, uses[k], models)

    logs: list[tuple[list[dict], list[str]]] = [([], [])] * len(refits)
    for k, (chunk_logs, signals) in enumerate(workers.fork_map(fit_and_forecast, len(chunks))):
        for i, log in zip(chunks[k], chunk_logs):
            logs[i] = log
        for (step, symbol, *_), signal in zip(uses[k], signals):
            step.signals[symbol] = signal
    for (step, *_), (records, notes) in zip(refits, logs):
        step.fits += records
        step.notes += notes
    for step in steps.values():
        if step.rebalance:
            _generate_insights(step, config)
            _build_targets(step, meta, config.bl)
    return steps


def _length_chunks(jobs: list[_Job], parts: int = 1) -> Iterable[list[int]]:
    """The job indices grouped by window length (first-seen order), each
    group cut into at least ``parts`` near-equal runs of at most MODEL_CHUNK:
    the inputs of one batched model call each."""
    groups: dict[int, list[int]] = {}
    for i, (_, _, closes, _) in enumerate(jobs):
        groups.setdefault(closes.size, []).append(i)
    for group in groups.values():
        count = min(len(group), max(parts, -(-len(group) // MODEL_CHUNK)))
        for k in range(count):
            yield group[k * len(group) // count:(k + 1) * len(group) // count]


def _batched(call, ids: list[int], outcomes: dict[int, object]) -> None:
    """Run one batched model ``call`` on the ids (it builds their inputs), if
    any, and store each id's outcome: its result, or the whole batch's error."""
    if not ids:
        return
    try:
        results = call(ids)
    except MODEL_ERRORS as exc:
        results = [exc] * len(ids)
    outcomes.update(zip(ids, results))


def _refit_chunk(config: RunConfig, jobs: list[_Job]):
    """Fit both models on each job's window, all of one length: one batched
    call per model. Returns each job's (HMM outcome, network outcome) pair (a
    model, a (model, loss history) pair, or an error), exactly those of a fit
    on that window alone. The networks' training sets are built after the
    HMM fit, so that they are not alive during EM."""

    def fit_hmms(positions):
        seeds = [symbol_seed(config.seed, "hmm", jobs[p][1]) for p in positions]
        return regime_hmm.fit_batch(np.stack([jobs[p][3] for p in positions]), config.hmm, seeds)

    def train_nets(positions):
        data = [trend_net.build_training_set(jobs[p][2], config.mlp.input_size) for p in positions]
        seeds = [symbol_seed(config.seed, "mlp", jobs[p][1]) for p in positions]
        models = [trend_net.init_model(config.mlp, sd) for sd in seeds]
        return trend_net.train_batch(models, data, config.mlp, seeds)

    ids, hmms, nets = list(range(len(jobs))), {}, {}
    _batched(fit_hmms, ids, hmms)
    _batched(train_nets, ids, nets)
    return [(hmms[p], nets[p]) for p in ids]


def _fit_log(day: date, symbol: str, hmm, net) -> tuple[list[dict], list[str]]:
    """The fit records and fit diagnostics of one symbol's refit."""
    records, notes, stamp = [], [], day.isoformat()
    if isinstance(hmm, regime_hmm.HmmModel):
        records.append({
            "date": stamp, "symbol": symbol, "model": "hmm",
            **hmm.diagnostics,
            "log_likelihood_path": hmm.log_likelihood_path,
        })
    else:
        notes.append(f"{day}: {symbol} hmm fit skipped: {hmm}")
    if isinstance(net, tuple):
        records.append({"date": stamp, "symbol": symbol, "model": "mlp", "loss_history": net[1]})
    else:
        notes.append(f"{day}: {symbol} net fit skipped: {net}")
    return records, notes


def _forecast(config: RunConfig, uses: list[_Job], models: list[tuple]) -> list[list]:
    """The (HMM signal, network signal) pair of each use, given the (HMM
    outcome, network outcome) of its refit: each signal the model's forecast
    (fusion's (direction, size) pair), the error its forecast ran into, or
    None without a model or with too short a window. Each model forecasts in
    batched calls over windows of one length, at most MODEL_CHUNK each."""
    n_inputs, hmms, nets = config.mlp.input_size, {}, {}

    def hmm_forecast(ids):
        return regime_hmm.forecast([models[i][0] for i in ids], np.stack([uses[i][3] for i in ids]))

    def net_forecast(ids):
        closes = np.stack([uses[i][2][-n_inputs - 1:] for i in ids])
        return trend_net.forecast([models[i][1][0] for i in ids], np.diff(closes, axis=1))

    for chunk in _length_chunks(uses):
        size = uses[chunk[0]][2].size
        with_hmm = [i for i in chunk if size >= 2 and isinstance(models[i][0], regime_hmm.HmmModel)]
        with_net = [i for i in chunk if size > n_inputs and isinstance(models[i][1], tuple)]
        _batched(hmm_forecast, with_hmm, hmms)
        _batched(net_forecast, with_net, nets)
    return [[hmms.get(i), nets.get(i)] for i in range(len(uses))]


def _generate_insights(step: _Step, config: RunConfig) -> None:
    """One fused insight per universe symbol from the step's forecasts, for
    a period of one rebalance interval; a symbol without a model or whose
    forecast failed is flat."""
    day = step.day
    for symbol in step.universe:
        signals = step.signals.get(symbol, (None, None))
        for name, signal in zip(("hmm", "net"), signals):
            if isinstance(signal, Exception):
                step.notes.append(f"{day}: {symbol} {name} forecast failed: {signal}")
        hmm_signal, nn_signal = (None if isinstance(s, Exception) else s for s in signals)
        insight = alpha_fusion.fuse(
            hmm_signal, nn_signal, symbol, day, config.engine.rebalance_every, config.fusion
        )
        if insight.diagnostic:
            step.notes.append(f"{day}: {symbol}: {insight.diagnostic}")
        step.insights.append(insight)


def _build_targets(
    step: _Step, meta: Mapping[str, InstrumentMeta], bl_config: portfolio_bl.BlConfig
) -> None:
    """Estimate the covariance over the universe, blend the step's insights
    as views, and optimize into the step's weights and allocation record. A
    symbol whose window has a non-finite return is left out.
    Weights stay None (hold the book) when the data is too thin for a
    covariance estimate, and are {} (all cash) without usable symbols."""
    day, returns = step.day, {}
    for s, (_, window) in step.windows.items():
        if not np.isfinite(window).all():
            step.notes.append(
                f"{day}: {s} left out of the allocation: log returns require finite positive closes"
            )
        elif window.size:
            returns[s] = window
    usable = list(returns)
    if not usable:
        if step.universe:
            step.notes.append(f"{day}: rebalance skipped, no usable symbols")
        step.weights = {}  # nothing to allocate -> all cash
        return

    depth = min(min(r.size for r in returns.values()), bl_config.covariance_lookback)
    if depth < len(usable) + 2:
        step.notes.append(
            f"{day}: rebalance skipped, only {depth} aligned returns for {len(usable)} assets"
        )
        return

    sigma = portfolio_bl.estimate_covariance({s: r[-depth:] for s, r in returns.items()})
    caps = np.array([meta[s].shares_outstanding * step.windows[s][0][-1] for s in usable])
    market_weights = caps / caps.sum()
    pi = portfolio_bl.equilibrium_returns(sigma, market_weights, bl_config.risk_aversion)
    views = portfolio_bl.build_views(step.insights, usable, sigma, bl_config)
    mu = portfolio_bl.posterior_returns(pi, sigma, bl_config.tau, views)
    step.weights = portfolio_bl.optimize_weights(mu, sigma, bl_config, usable).weights
    step.allocation = {
        "date": day.isoformat(),
        "symbols": usable,
        "weights": dict(step.weights),
        "posterior_returns": {s: float(m) for s, m in zip(usable, mu)},
        "active_views": int(len(views)),
    }
