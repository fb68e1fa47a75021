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
usable. A task fits both models of its refits as one batched call per
model, then forecasts every rebalance that uses them: the HMM posteriors as
batched calls over windows of one length, at most ``MODEL_CHUNK`` per call.
Its inputs are built from the window slices when it runs, and only the fit
logs and the forecast signals come back, never the models. The parent
writes them into the plan in refit order, so the plan is the same with any
number of workers.

Phase 2, the book loop, then runs per trading day, in order:
  1. ``_check_gaps``: a held symbol missing more than ``max_gap_bars`` bars
     is liquidated
  2. ``_fill_orders``: fill orders queued on the prior day at today's open
     (sells before buys)
  3. on a refit day, record the plan's fit records and fit diagnostics
  4. ``_rebalance``: on a rebalance day, fuse the plan's forecasts into
     insights (``_generate_insights``), blend views into target weights
     (``_build_targets``), and queue the orders that move holdings to target
  5. ``_check_risk``: run the risk overlays on today's closes; breaches
     queue a liquidation
  6. ``_Run.equity``: append the equity point (cash + positions at last
     known closes)

The book stages read and change one ``_Run`` object and touch only the held
symbols, the pending orders and, on rebalance days, the universe; both
liquidation paths go through ``_queue_liquidation``. Orders always fill at
the NEXT bar's open, so no decision ever uses a price that was not yet
observable. The run is a pure function of data + config: per-symbol model
seeds are derived from the run's top-level seed with a stable CRC, and every
model call gives a series the same bits in any batch.
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
from .marketdata import InstrumentMeta, SymbolBars, log_returns
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
# took 1.57 s in calls of 48 and 1.24 s in calls of 240. A call's (series,
# time, state) arrays grow with the width and count toward the peak memory of
# the process that runs it: that backtest, pinned, peaked at 49 MB with calls
# of 48 and 59 MB with calls of 240, about 0.05 MB per series.
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
    """Everything one backtest reads and changes: the market columns, each
    symbol's first row on or after the start date, the calendar-row table
    and the current calendar position; the run config and the instrument
    metadata; the book (cash, integer share positions and the per-position
    risk states); the pending orders; and the logs that become the
    BacktestResult."""

    series: Mapping[str, SymbolBars]
    first_row: Mapping[str, int]
    rows: Mapping[str, np.ndarray]  # symbol -> row per calendar position, -1 before its first
    meta: Mapping[str, InstrumentMeta]
    config: RunConfig
    cash: float
    today: int = 0  # calendar position of the current day
    positions: dict[str, int] = field(default_factory=dict)
    risk_states: dict[str, risk_controls.PositionRiskState] = field(default_factory=dict)
    pending: list[Order] = field(default_factory=list)
    equity_curve: list[EquityPoint] = field(default_factory=list)
    fills: list[Fill] = field(default_factory=list)
    insights: list[Insight] = field(default_factory=list)
    risk_events: list[dict] = field(default_factory=list)
    allocations: list[dict] = field(default_factory=list)
    fits: list[dict] = field(default_factory=list)
    diagnostics: list[str] = field(default_factory=list)

    def row_today(self, symbol: str) -> int | None:
        """The symbol's row of today's bar; None without a bar today. A new
        in-range bar is the only thing that moves a symbol's row."""
        rows = self.rows[symbol]
        row = rows[self.today]
        if row < 0 or (self.today > 0 and rows[self.today - 1] == row):
            return None
        return int(row)

    def last_close(self, symbol: str) -> float | None:
        row = self.rows[symbol][self.today]
        return None if row < 0 else float(self.series[symbol].close[row])

    def closes(self, symbol: str, row: int) -> np.ndarray:
        """The symbol's last ``window_bars`` closes up to the row (a
        read-only slice)."""
        lo = max(self.first_row[symbol], row + 1 - self.config.engine.window_bars)
        return self.series[symbol].close[lo:row + 1]

    def window(self, symbol: str) -> np.ndarray | None:
        """The symbol's window as of today, or None before its first bar."""
        row = int(self.rows[symbol][self.today])
        return None if row < 0 else self.closes(symbol, row)

    def equity(self) -> float:
        """Cash plus every position marked at its last known close."""
        value = self.cash
        for symbol, qty in self.positions.items():
            value += qty * self.last_close(symbol)
        return value


@dataclass
class _Step:
    """The plan for one refit or rebalance day: the day and its universe; a
    refit's fit records and fit diagnostics; and, on a rebalance day, each
    universe symbol's HMM and network forecast: its (direction, size)
    signal, or the error the forecast ran into. A symbol without a model, or
    with too short a window, has no forecast."""

    day: date
    universe: list[str]
    rebalance: bool
    fits: list[dict] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    hmm: dict[str, tuple | Exception] = field(default_factory=dict)
    net: dict[str, tuple | Exception] = field(default_factory=dict)


# One symbol's window on a plan day: (plan step, symbol, window row).
_Job = tuple[_Step, str, int]


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

    run = _Run(bars_by_symbol, first_row, rows, meta, config, config.engine.initial_equity)
    for s in sorted(bars_by_symbol):
        if s not in meta:
            run.diagnostics.append(f"{s}: no metadata, excluded from universe selection")
    plan = _plan_signals(run, calendar)
    for day_index, day in enumerate(calendar):
        run.today = day_index
        _check_gaps(run, day)
        _fill_orders(run, day)
        step = plan.pop(day_index, None)
        if step is not None:
            run.fits.extend(step.fits)
            run.diagnostics.extend(step.notes)
            if step.rebalance:
                _rebalance(run, step)
        _check_risk(run, day)
        run.equity_curve.append(EquityPoint(day, run.equity()))

    report = metrics.compute_report(
        calendar, [p.equity for p in run.equity_curve], run.fills,
        risk_free_rate=config.engine.risk_free_rate, **align_benchmark(benchmark, calendar),
    )
    return BacktestResult(
        equity_curve=run.equity_curve, fills=run.fills, insights=run.insights,
        risk_events=run.risk_events, allocations=run.allocations, fits=run.fits,
        diagnostics=run.diagnostics, report=report, final_cash=run.cash,
        final_positions=dict(run.positions),
    )


def _queue_liquidation(
    run: _Run, day: date, symbol: str, reason: str, close: float, stop_level: float
) -> bool:
    """Replace the symbol's pending orders with a sell of the whole position
    and log the risk event. Does nothing, and returns False, when a
    liquidation of the symbol is already pending."""
    if any(o.symbol == symbol and o.reason != REASON_REBALANCE for o in run.pending):
        return False
    run.pending = [o for o in run.pending if o.symbol != symbol]
    run.pending.append(Order(symbol, "sell", run.positions[symbol], reason))
    run.risk_events.append({
        "date": day.isoformat(), "symbol": symbol, "reason": reason,
        "close": close, "stop_level": stop_level,
    })
    return True


def _check_gaps(run: _Run, day: date) -> None:
    """Step 1: count the trading days since each held symbol's last bar; a
    gap longer than ``max_gap_bars`` queues a liquidation. Fills happen only
    on days with a bar, so a held symbol was held on every day it missed.
    A symbol's rows never decrease, so the calendar position of its last
    bar is where its current row first appears."""
    for symbol in sorted(run.positions):
        if run.row_today(symbol) is not None:
            continue
        rows = run.rows[symbol]
        missed = run.today - int(rows.searchsorted(rows[run.today]))
        if missed > run.config.engine.max_gap_bars and _queue_liquidation(
            run, day, symbol, REASON_DATA_GAP, run.last_close(symbol), 0.0
        ):
            run.diagnostics.append(f"{day}: {symbol} missing {missed} bars, force-liquidating")


def _fill_orders(run: _Run, day: date) -> None:
    """Step 2: fill pending orders at today's open, sells first. An order
    for a symbol without a bar today stays pending; a sell is capped at the
    shares held."""
    still_pending: list[Order] = []
    for order in sorted(run.pending, key=lambda o: (o.side != "sell", o.symbol)):
        row = run.row_today(order.symbol)
        if row is None:
            still_pending.append(order)
            continue
        held = run.positions.get(order.symbol, 0)
        if order.side == "sell":
            if held <= 0:
                continue
            order = replace(order, quantity=min(order.quantity, held))
        price = float(run.series[order.symbol].open[row])
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
    run.pending = still_pending


def _rebalance(run: _Run, step: _Step) -> None:
    """Step 4: insights -> Black-Litterman targets -> the orders that move
    each holding to its target share count. Replaces pending rebalance
    orders; a symbol with a pending liquidation is left alone."""
    insights = _generate_insights(run, step)
    run.insights.extend(insights)
    targets = _build_targets(run, step, insights)
    if targets is None:
        return
    run.pending = [o for o in run.pending if o.reason != REASON_REBALANCE]
    equity_now = run.equity()
    for symbol in sorted(set(targets.weights) | set(run.positions)):
        if any(o.symbol == symbol for o in run.pending):
            continue  # pending liquidation wins
        price = run.last_close(symbol)
        if price is None or price <= 0:
            continue
        goal = int(targets.weights.get(symbol, 0.0) * equity_now // price)
        delta = goal - run.positions.get(symbol, 0)
        if delta > 0:
            run.pending.append(Order(symbol, "buy", delta))
        elif delta < 0:
            run.pending.append(Order(symbol, "sell", -delta))


def _check_risk(run: _Run, day: date) -> None:
    """Step 5: advance each held position's risk state with today's close;
    a breach queues a liquidation."""
    for symbol in sorted(run.positions):
        row = run.row_today(symbol)
        risk_state = run.risk_states.get(symbol)
        if row is None or risk_state is None:
            continue
        close = float(run.series[symbol].close[row])
        risk_state, decision = risk_controls.update_and_check(risk_state, close, run.config.risk)
        run.risk_states[symbol] = risk_state
        if decision.action == risk_controls.LIQUIDATE:
            _queue_liquidation(
                run, day, symbol, decision.reason, decision.close, decision.stop_level
            )


def _plan_signals(run: _Run, calendar: list[date]) -> dict[int, _Step]:
    """Phase 1: the universe, every refit and every rebalance forecast of
    the run, from the data alone. Returns the plan of each refit or
    rebalance day by its calendar index."""
    engine = run.config.engine
    panel = candidate_panel(run.series, run.meta, run.config.universe.liquidity_lookback)
    steps: dict[int, _Step] = {}
    refits: list[_Job] = []
    users: list[list[_Job]] = []  # per refit, the forecasts made with its models
    latest: dict[str, int] = {}  # symbol -> index of its latest refit
    month = universe = None
    for day_index, day in enumerate(calendar):
        if (day.year, day.month) != month:
            month = (day.year, day.month)
            universe = select_universe(panel, run.config.universe, day)
        since_warmup = day_index - engine.warmup_bars
        if since_warmup < 0:
            continue
        refit = since_warmup % engine.retrain_every == 0
        rebalance = since_warmup % engine.rebalance_every == 0
        if not (refit or rebalance):
            continue
        step = steps[day_index] = _Step(day, universe, rebalance)
        rows = {s: row for s in universe if (row := int(run.rows[s][day_index])) >= 0}
        if refit:
            for symbol, row in rows.items():
                latest[symbol] = len(refits)
                refits.append((step, symbol, row))
                users.append([])
        if rebalance:
            for symbol, row in rows.items():
                if symbol in latest:
                    users[latest[symbol]].append((step, symbol, row))

    # One task per chunk fits its refits and forecasts every rebalance that
    # uses them; only the fit logs and the forecast pairs come back.
    chunks = list(_length_chunks(run, refits, workers.usable_cpus()))
    uses = [[use for i in chunk for use in users[i]] for chunk in chunks]

    def fit_and_forecast(k: int) -> tuple[list, list]:
        jobs = [refits[i] for i in chunks[k]]
        hmms, nets = _refit_chunk(run, jobs)
        logs = [
            _fit_log(step.day, symbol, hmms[pos], nets[pos])
            for pos, (step, symbol, _) in enumerate(jobs)
        ]
        models = [(hmms[pos], nets[pos]) for pos, i in enumerate(chunks[k]) for _ in users[i]]
        return logs, _forecast(run, uses[k], models)

    logs: list[tuple[list[dict], list[str]]] = [([], [])] * len(refits)
    for k, (chunk_logs, signals) in enumerate(workers.fork_map(fit_and_forecast, len(chunks))):
        for i, log in zip(chunks[k], chunk_logs):
            logs[i] = log
        for (step, symbol, _), (hmm, net) in zip(uses[k], signals):
            if hmm is not None:
                step.hmm[symbol] = hmm
            if net is not None:
                step.net[symbol] = net
    for (step, _, _), (records, notes) in zip(refits, logs):
        step.fits += records
        step.notes += notes
    return steps


def _length_chunks(run: _Run, jobs: list[_Job], parts: int = 1) -> Iterable[list[int]]:
    """The job indices grouped by window length (first-seen order), each
    group cut into at least ``parts`` near-equal runs of at most MODEL_CHUNK:
    the inputs of one batched model call each."""
    groups: dict[int, list[int]] = {}
    for i, (_, symbol, row) in enumerate(jobs):
        groups.setdefault(run.closes(symbol, row).size, []).append(i)
    for group in groups.values():
        count = min(len(group), max(parts, -(-len(group) // MODEL_CHUNK)))
        for k in range(count):
            yield group[k * len(group) // count:(k + 1) * len(group) // count]


def _batched(batch_call, inputs: dict[int, object], outcomes: dict[int, object]) -> None:
    """Run one batched model call on ``inputs`` (job -> prepared input) and
    store each job's outcome: its result, or the error it ran into. An error
    raised for the whole batch becomes every job's."""
    if not inputs:
        return
    try:
        results = batch_call(list(inputs), list(inputs.values()))
    except MODEL_ERRORS as exc:
        results = [exc] * len(inputs)
    outcomes.update(zip(inputs, results))


def _refit_chunk(run: _Run, jobs: list[_Job]):
    """Fit both models on each job's window, all of one length: one batched
    call per model. Returns each job's HMM outcome and network outcome (a
    model, a (model, loss history) pair, or an error), exactly those of a fit
    on that window alone."""
    config = run.config
    symbols = [symbol for _, symbol, _ in jobs]

    def fit_hmms(positions, series):
        seeds = [symbol_seed(config.seed, "hmm", symbols[p]) for p in positions]
        return regime_hmm.fit_batch(np.stack(series), config.hmm, seeds)

    def train_nets(positions, data):
        seeds = [symbol_seed(config.seed, "mlp", symbols[p]) for p in positions]
        models = [trend_net.init_model(config.mlp, sd) for sd in seeds]
        return trend_net.train_batch(models, data, config.mlp, seeds)

    # The training sets are built after the HMM fit, so that they are not
    # alive during EM.
    returns: dict[int, object] = {}
    training: dict[int, object] = {}
    hmms: dict[int, object] = {}
    nets: dict[int, object] = {}
    for pos, (_, symbol, row) in enumerate(jobs):
        try:
            returns[pos] = log_returns(run.closes(symbol, row))
        except MODEL_ERRORS as exc:
            hmms[pos] = exc
    _batched(fit_hmms, returns, hmms)
    del returns
    for pos, (_, symbol, row) in enumerate(jobs):
        try:
            closes = run.closes(symbol, row)
            training[pos] = trend_net.build_training_set(closes, config.mlp.input_size)
        except MODEL_ERRORS as exc:
            nets[pos] = exc
    _batched(train_nets, training, nets)
    return hmms, nets


def _fit_log(day: date, symbol: str, hmm, net) -> tuple[list[dict], list[str]]:
    """The fit records and fit diagnostics of one symbol's refit."""
    records, notes = [], []
    stamp = day.isoformat()
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


def _forecast(run: _Run, uses: list[_Job], models: list[tuple[object, object]]) -> list[list]:
    """The (HMM signal, network signal) pair of each use, given the (HMM
    outcome, network outcome) of its refit: each signal a (direction, size)
    pair, the error its forecast ran into, or None without a model or with
    too short a window. HMM posteriors come from batched forward passes over
    windows of one length, network forecasts from one forward pass per use."""
    signals = [[None, None] for _ in uses]
    with_hmm = [
        i for i, (job, (hmm, _)) in enumerate(zip(uses, models))
        if isinstance(hmm, regime_hmm.HmmModel) and run.closes(*job[1:]).size >= 2
    ]

    def filter_hmms(ids, series):
        return regime_hmm.forward_posterior([models[i][0] for i in ids], np.stack(series))

    for chunk in _length_chunks(run, [uses[i] for i in with_hmm]):
        chunk = [with_hmm[c] for c in chunk]
        returns: dict[int, object] = {}
        posteriors: dict[int, object] = {}
        for i in chunk:
            try:
                returns[i] = log_returns(run.closes(*uses[i][1:]))
            except MODEL_ERRORS as exc:
                posteriors[i] = exc
        _batched(filter_hmms, returns, posteriors)
        for i in chunk:
            posterior = posteriors[i]
            if isinstance(posterior, np.ndarray):
                forecast = regime_hmm.predict_direction(models[i][0], posterior)
                posterior = (forecast.direction, forecast.expected_return)
            signals[i][0] = posterior

    diff_window = run.config.mlp.input_size
    for (_, symbol, row), (_, net), signal in zip(uses, models, signals):
        closes = run.closes(symbol, row)
        if not isinstance(net, tuple) or closes.size <= diff_window:
            continue
        try:
            trend = trend_net.predict_direction(net[0], np.diff(closes)[-diff_window:])
            signal[1] = (trend.direction, trend.magnitude)
        except MODEL_ERRORS as exc:
            signal[1] = exc
    return signals


def _generate_insights(run: _Run, step: _Step) -> list[Insight]:
    """One fused insight per universe symbol from the plan's forecasts, for
    a period of one rebalance interval; a symbol without a model or whose
    forecast failed is flat."""
    day, insights = step.day, []
    for symbol in step.universe:
        hmm_signal, nn_signal = step.hmm.get(symbol), step.net.get(symbol)
        if isinstance(hmm_signal, Exception):
            run.diagnostics.append(f"{day}: {symbol} hmm forecast failed: {hmm_signal}")
            hmm_signal = None
        if isinstance(nn_signal, Exception):
            run.diagnostics.append(f"{day}: {symbol} net forecast failed: {nn_signal}")
            nn_signal = None
        insight = alpha_fusion.fuse(
            hmm_signal, nn_signal, symbol, day, run.config.engine.rebalance_every,
            run.config.fusion,
        )
        if insight.diagnostic:
            run.diagnostics.append(f"{day}: {symbol}: {insight.diagnostic}")
        insights.append(insight)
    return insights


def _build_targets(
    run: _Run, step: _Step, insights: list[Insight]
) -> portfolio_bl.TargetPortfolio | None:
    """Estimate the covariance over the universe, blend views, and optimize.
    Returns None (hold current book) when the universe is empty or data is
    too thin for a covariance estimate."""
    bl_config, day, universe = run.config.bl, step.day, step.universe
    windows = {
        s: w for s in universe
        if (w := run.window(s)) is not None and w.size >= 2 and s in run.meta
    }
    usable = list(windows)
    if not usable:
        if universe:
            run.diagnostics.append(f"{day}: rebalance skipped, no usable symbols")
        return portfolio_bl.TargetPortfolio({})  # empty universe -> all cash

    lengths = [windows[s].size - 1 for s in usable]
    depth = min(min(lengths), bl_config.covariance_lookback)
    if depth < len(usable) + 2:
        run.diagnostics.append(
            f"{day}: rebalance skipped, only {depth} aligned returns for {len(usable)} assets"
        )
        return None

    return_windows = {s: log_returns(windows[s])[-depth:] for s in usable}
    sigma = portfolio_bl.estimate_covariance(return_windows)
    caps = np.array([run.meta[s].shares_outstanding * run.last_close(s) for s in usable])
    market_weights = caps / caps.sum()
    pi = portfolio_bl.equilibrium_returns(sigma, market_weights, bl_config.risk_aversion)
    views = portfolio_bl.build_views(insights, usable, sigma, bl_config)
    mu = portfolio_bl.posterior_returns(pi, sigma, bl_config.tau, views)
    targets = portfolio_bl.optimize_weights(mu, sigma, bl_config, usable)
    run.allocations.append(
        {
            "date": day.isoformat(),
            "symbols": list(usable),
            "weights": {s: targets.weights[s] for s in usable},
            "posterior_returns": {s: float(m) for s, m in zip(usable, mu)},
            "active_views": int(len(views)),
        }
    )
    return targets
