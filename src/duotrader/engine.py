"""Deterministic event-driven daily backtest, run in two phases.

Each symbol's history is one ``SymbolBars`` (day ordinals plus OHLCV
columns). A symbol's rolling window on a day is a slice of its close column:
its last ``window_bars`` closes on or before that day, none before
``start_date``.

Phase 1, the plan (``_plan_signals``), depends on the data and the configs
alone. It walks the calendar once: it re-selects the universe
(``select_universe``) on the first trading day of each month and, past
warm-up, notes every refit (on the retrain cadence: both models for every
universe symbol with a window) and every rebalance (on the rebalance
cadence). A rebalance forecasts each universe symbol with the models of its
latest refit; a failed refit leaves the symbol without that model, and a
symbol out of the universe at a refit keeps its older models. The plan then
runs the refits and the rebalances' HMM posteriors as batched model calls
over windows of one length, at most ``MODEL_CHUNK`` series per call. Each
chunk's inputs are built from the window slices when the chunk runs, and its
models are dropped once every rebalance that uses them has its forecasts.
The refit chunks are independent of each other, so with several usable CPUs
they run in forked worker processes (``_refit_outcomes``); the parent takes
their outcomes back in chunk order and runs every posterior and forecast
itself, so the plan is the same with any number of workers.

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
observable. The run is a pure function of data + configs: per-symbol model
seeds are derived from the engine seed with a stable CRC, and every model
call gives a series the same bits in any batch.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
import zlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from datetime import date
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from . import alpha_fusion, metrics, portfolio_bl, regime_hmm, risk_controls, trend_net
from .alpha_fusion import FusionConfig, Insight
from .errors import (
    InsufficientDataError,
    InvalidInputError,
    NumericalError,
    ParameterError,
    TrainingDivergedError,
)
from .marketdata import Bar, InstrumentMeta, SymbolBars, log_returns
from .portfolio_bl import BlConfig
from .regime_hmm import HmmConfig
from .risk_controls import RiskConfig
from .trend_net import MlpConfig
from .universe import UniverseConfig, select_universe

REASON_REBALANCE = "rebalance"
REASON_DATA_GAP = "data-gap"

# A model that raises one of these for one symbol leaves that symbol without
# a model (and so flat) for the period; the rest of the run goes on.
MODEL_ERRORS = (InsufficientDataError, InvalidInputError, NumericalError, TrainingDivergedError)

# Most series in one batched refit or posterior call. Wider calls spread the
# per-step Python overhead of the recursions over more series; the gain
# levels off near 60, while a call's (series, time, state) arrays grow with
# the width and count toward the run's peak memory. A refit chunk is also the
# grain of the worker pool: one task per chunk, so a run with one chunk (or
# one usable CPU) refits in-process.
MODEL_CHUNK = 48


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
    seed: int = 0
    risk_free_rate: float = 0.0

    def __post_init__(self):
        if self.initial_equity <= 0:
            raise ParameterError("initial_equity must be positive")
        if self.retrain_every < 1 or self.rebalance_every < 1:
            raise ParameterError("cadences must be >= 1")
        if self.warmup_bars < 0 or self.window_bars < 2:
            raise ParameterError("invalid warmup_bars / window_bars")


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
    order: Order, bar: Bar, config: EngineConfig, cash_available: float
) -> tuple[Fill | None, str | None]:
    """Fill an order at the bar's open. Buys that exceed available cash are
    scaled down to the largest affordable share count; a zero affordable
    quantity drops the order. Returns (fill, diagnostic)."""
    if order.quantity <= 0:
        return None, f"{order.symbol}: zero-quantity order rejected"
    price = bar.open
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
            timestamp=bar.timestamp,
            reason=order.reason,
        ),
        diagnostic,
    )


def _symbol_seed(base: int, salt: str, symbol: str) -> int:
    return (base ^ zlib.crc32(f"{salt}:{symbol}".encode())) % 2**31


def align_benchmark_returns(
    benchmark_bars: Iterable[Bar] | None, curve_dates: list[date]
) -> np.ndarray | None:
    """Daily simple returns of the benchmark close, forward-filled onto the
    equity-curve calendar."""
    if benchmark_bars is None:
        return None
    closes_by_date = {b.timestamp: b.close for b in benchmark_bars}
    ordered = sorted(closes_by_date)
    if not ordered:
        return None
    aligned = []
    idx = 0
    last = closes_by_date[ordered[0]]
    for day in curve_dates:
        while idx < len(ordered) and ordered[idx] <= day:
            last = closes_by_date[ordered[idx]]
            idx += 1
        aligned.append(last)
    aligned = np.asarray(aligned, dtype=float)
    return aligned[1:] / aligned[:-1] - 1.0


@dataclass
class _Run:
    """Everything one backtest reads and changes: the market columns, each
    symbol's first row on or after the start date and the current day; the
    seven configs and the instrument metadata; the book (cash, integer share
    positions and the per-position risk states); the pending orders; and the
    logs that become the BacktestResult."""

    series: Mapping[str, SymbolBars]
    first_row: Mapping[str, int]
    calendar_index: Mapping[int, int]
    meta: Mapping[str, InstrumentMeta]
    universe_config: UniverseConfig
    hmm: HmmConfig
    mlp: MlpConfig
    fusion: FusionConfig
    bl: BlConfig
    risk: RiskConfig
    engine: EngineConfig
    cash: float
    positions: dict[str, int] = field(default_factory=dict)
    risk_states: dict[str, risk_controls.PositionRiskState] = field(default_factory=dict)
    today: int = 0  # ordinal of the current day
    latest_rows: dict[str, int | None] = field(default_factory=dict)
    pending: list[Order] = field(default_factory=list)
    equity_curve: list[EquityPoint] = field(default_factory=list)
    fills: list[Fill] = field(default_factory=list)
    insights: list[Insight] = field(default_factory=list)
    risk_events: list[dict] = field(default_factory=list)
    allocations: list[dict] = field(default_factory=list)
    fits: list[dict] = field(default_factory=list)
    diagnostics: list[str] = field(default_factory=list)

    def start_day(self, day: date) -> None:
        self.today = day.toordinal()
        self.latest_rows = {}

    def row_on(self, symbol: str, day: int) -> int | None:
        """Row of the symbol's last bar on or before the day ordinal and on
        or after the start date; None before its first such bar."""
        end = int(self.series[symbol].days.searchsorted(day, "right"))
        return end - 1 if end > self.first_row[symbol] else None

    def latest_row(self, symbol: str) -> int | None:
        """``row_on`` today, looked up once per day."""
        if symbol not in self.latest_rows:
            self.latest_rows[symbol] = self.row_on(symbol, self.today)
        return self.latest_rows[symbol]

    def bar_today(self, symbol: str) -> Bar | None:
        row = self.latest_row(symbol)
        if row is None or self.series[symbol].days[row] != self.today:
            return None
        return self.series[symbol].bar(symbol, row)

    def last_close(self, symbol: str) -> float | None:
        row = self.latest_row(symbol)
        return None if row is None else float(self.series[symbol].close[row])

    def closes(self, symbol: str, row: int) -> np.ndarray:
        """The symbol's last ``window_bars`` closes up to the row (a
        read-only slice)."""
        lo = max(self.first_row[symbol], row + 1 - self.engine.window_bars)
        return self.series[symbol].close[lo:row + 1]

    def window(self, symbol: str) -> np.ndarray | None:
        """The symbol's window as of today, or None before its first bar."""
        row = self.latest_row(symbol)
        return None if row is None else self.closes(symbol, row)

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
    bars_by_symbol: Mapping[str, SymbolBars | Sequence[Bar]],
    meta: Mapping[str, InstrumentMeta],
    universe_config: UniverseConfig,
    hmm_config: HmmConfig,
    mlp_config: MlpConfig,
    fusion_config: FusionConfig,
    bl_config: BlConfig,
    risk_config: RiskConfig,
    engine_config: EngineConfig,
    benchmark_bars: list[Bar] | None = None,
) -> BacktestResult:
    """Run the full warm-up / retrain / rebalance / risk loop over the data
    and produce the equity curve, logs, and the performance report. A
    symbol's history may be given as a timestamp-ordered Bar list, which is
    converted to columns once."""
    series = {
        s: bars if isinstance(bars, SymbolBars) else SymbolBars.from_bars(bars)
        for s, bars in bars_by_symbol.items()
    }
    start, end = engine_config.start_date, engine_config.end_date
    first_row, in_range = {}, []
    for symbol, columns in series.items():
        days = columns.days
        lo = 0 if start is None else int(days.searchsorted(start.toordinal()))
        hi = days.size if end is None else int(days.searchsorted(end.toordinal(), "right"))
        first_row[symbol] = lo
        in_range.append(days[lo:hi])
    ordinals = np.unique(np.concatenate([np.empty(0, np.int64), *in_range]))
    if ordinals.size == 0:
        raise InsufficientDataError("no bars inside the configured date range")
    calendar = [date.fromordinal(int(day)) for day in ordinals]

    run = _Run(
        series, first_row, {int(day): i for i, day in enumerate(ordinals)},
        meta, universe_config, hmm_config, mlp_config, fusion_config, bl_config,
        risk_config, engine_config, engine_config.initial_equity,
    )
    for s in sorted(series):
        if s not in meta:
            run.diagnostics.append(f"{s}: no metadata, excluded from universe selection")
    plan = _plan_signals(run, calendar)
    for day_index, day in enumerate(calendar):
        run.start_day(day)
        _check_gaps(run, day, day_index)
        _fill_orders(run, day)
        step = plan.pop(day_index, None)
        if step is not None:
            run.fits.extend(step.fits)
            run.diagnostics.extend(step.notes)
            if step.rebalance:
                _rebalance(run, step)
        _check_risk(run, day)
        run.equity_curve.append(EquityPoint(day, run.equity()))

    curve_dates = [p.timestamp for p in run.equity_curve]
    bench_dates = [b.timestamp for b in benchmark_bars or ()]
    report = metrics.compute_report(
        curve_dates, [p.equity for p in run.equity_curve], run.fills,
        align_benchmark_returns(benchmark_bars, curve_dates), engine_config.risk_free_rate,
        max(bench_dates, default=None), min(bench_dates, default=None),
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


def _check_gaps(run: _Run, day: date, day_index: int) -> None:
    """Step 1: count the trading days since each held symbol's last bar; a
    gap longer than ``max_gap_bars`` queues a liquidation. Fills happen only
    on days with a bar, so a held symbol was held on every day it missed."""
    for symbol in sorted(run.positions):
        row = run.latest_row(symbol)
        last_day = int(run.series[symbol].days[row])
        if last_day == run.today:
            continue
        missed = day_index - run.calendar_index[last_day]
        if missed > run.engine.max_gap_bars and _queue_liquidation(
            run, day, symbol, REASON_DATA_GAP, run.last_close(symbol), 0.0
        ):
            run.diagnostics.append(f"{day}: {symbol} missing {missed} bars, force-liquidating")


def _fill_orders(run: _Run, day: date) -> None:
    """Step 2: fill pending orders at today's open, sells first. An order
    for a symbol without a bar today stays pending; a sell is capped at the
    shares held."""
    still_pending: list[Order] = []
    for order in sorted(run.pending, key=lambda o: (o.side != "sell", o.symbol)):
        bar = run.bar_today(order.symbol)
        if bar is None:
            still_pending.append(order)
            continue
        held = run.positions.get(order.symbol, 0)
        if order.side == "sell":
            if held <= 0:
                continue
            order = replace(order, quantity=min(order.quantity, held))
        fill, diag = execute(order, bar, run.engine, run.cash)
        if diag:
            run.diagnostics.append(f"{day}: {diag}")
        if fill is None:
            continue
        if fill.side == "buy":
            run.cash -= fill.quantity * fill.price + fill.fee
            run.positions[fill.symbol] = held + fill.quantity
            if held == 0:
                run.risk_states[fill.symbol] = risk_controls.PositionRiskState.open_position(
                    fill.symbol, fill.price, run.risk
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
        bar = run.bar_today(symbol)
        risk_state = run.risk_states.get(symbol)
        if bar is None or risk_state is None:
            continue
        risk_state, decision = risk_controls.update_and_check(risk_state, bar.close, run.risk)
        run.risk_states[symbol] = risk_state
        if decision.action == risk_controls.LIQUIDATE:
            _queue_liquidation(
                run, day, symbol, decision.reason, decision.close, decision.stop_level
            )


def _plan_signals(run: _Run, calendar: list[date]) -> dict[int, _Step]:
    """Phase 1: the universe, every refit and every rebalance forecast of
    the run, from the data alone. Returns the plan of each refit or
    rebalance day by its calendar index."""
    engine = run.engine
    candidates = {s: (run.series[s], run.meta[s]) for s in sorted(run.series) if s in run.meta}
    steps: dict[int, _Step] = {}
    refits: list[_Job] = []
    users: list[list[_Job]] = []  # per refit, the forecasts made with its models
    latest: dict[str, int] = {}  # symbol -> index of its latest refit
    month = universe = None
    for day_index, day in enumerate(calendar):
        if (day.year, day.month) != month:
            month = (day.year, day.month)
            universe = select_universe(candidates, run.universe_config, day)
        since_warmup = day_index - engine.warmup_bars
        if since_warmup < 0:
            continue
        refit = since_warmup % engine.retrain_every == 0
        rebalance = since_warmup % engine.rebalance_every == 0
        if not (refit or rebalance):
            continue
        step = steps[day_index] = _Step(day, universe, rebalance)
        today = day.toordinal()
        rows = {s: row for s in universe if (row := run.row_on(s, today)) is not None}
        if refit:
            for symbol, row in rows.items():
                latest[symbol] = len(refits)
                refits.append((step, symbol, row))
                users.append([])
        if rebalance:
            for symbol, row in rows.items():
                if symbol in latest:
                    users[latest[symbol]].append((step, symbol, row))

    logs: list[tuple[list[dict], list[str]]] = [([], [])] * len(refits)
    for chunk, (hmms, nets) in _refit_outcomes(run, refits, list(_length_chunks(run, refits))):
        for pos, i in enumerate(chunk):
            step, symbol, _ = refits[i]
            logs[i] = _fit_log(step.day, symbol, hmms[pos], nets[pos])
        _forecast(run, [
            (use, hmms[pos], nets[pos]) for pos, i in enumerate(chunk) for use in users[i]
        ])
    for (step, _, _), (records, notes) in zip(refits, logs):
        step.fits += records
        step.notes += notes
    return steps


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def _refit_outcomes(
    run: _Run, refits: list[_Job], chunks: list[list[int]]
) -> Iterator[tuple[list[int], tuple[dict, dict]]]:
    """Each chunk of refit indices with its ``_refit_chunk`` outcomes, in
    chunk order. With more than one usable CPU and chunk, the chunks run in
    a pool of forked workers, one task per chunk: the workers inherit the run
    and the refits, and only the outcomes (models, loss histories and model
    errors) are pickled back. A worker that dies makes this raise
    ``BrokenProcessPool``."""
    workers = min(_usable_cpus(), len(chunks))
    if workers < 2 or "fork" not in multiprocessing.get_all_start_methods():
        for chunk in chunks:
            yield chunk, _refit_chunk(run, [refits[i] for i in chunk])
        return
    # fork, not spawn: a forked worker shares the market columns instead of
    # re-importing the package and unpickling them. The pool forks all its
    # workers before it starts its own thread.
    pool = ProcessPoolExecutor(
        workers, multiprocessing.get_context("fork"),
        initializer=_start_refit_worker, initargs=(run, refits, chunks, os.getpid()),
    )
    try:
        yield from zip(chunks, pool.map(_refit_in_worker, range(len(chunks))))
    finally:
        pool.shutdown(cancel_futures=True)


# What a refit worker was forked with: the run, its refits and the chunks.
# Set by the worker initializer, so only ever in a worker process.
_worker_plan: tuple[_Run, list[_Job], list[list[int]]] | None = None


def _start_refit_worker(
    run: _Run, refits: list[_Job], chunks: list[list[int]], parent: int
) -> None:
    """Refit worker initializer: keep the inherited plan, and exit once the
    parent is gone (an idle worker would otherwise wait for tasks forever)."""
    global _worker_plan
    _worker_plan = (run, refits, chunks)

    def exit_with_parent() -> None:
        while os.getppid() == parent:  # re-parented once the parent is gone
            time.sleep(0.5)
        os._exit(1)

    threading.Thread(target=exit_with_parent, daemon=True).start()


def _refit_in_worker(index: int) -> tuple[dict, dict]:
    run, refits, chunks = _worker_plan
    return _refit_chunk(run, [refits[i] for i in chunks[index]])


def _length_chunks(run: _Run, jobs: list[_Job]) -> Iterable[list[int]]:
    """The job indices grouped by window length (first-seen order) and cut
    into runs of at most MODEL_CHUNK: the inputs of one batched model call
    each."""
    groups: dict[int, list[int]] = {}
    for i, (_, symbol, row) in enumerate(jobs):
        groups.setdefault(run.closes(symbol, row).size, []).append(i)
    for group in groups.values():
        for start in range(0, len(group), MODEL_CHUNK):
            yield group[start:start + MODEL_CHUNK]


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
    symbols = [symbol for _, symbol, _ in jobs]

    def fit_hmms(positions, series):
        seeds = [_symbol_seed(run.engine.seed, "hmm", symbols[p]) for p in positions]
        return regime_hmm.fit_batch(np.stack(series), run.hmm, seeds)

    def train_nets(positions, data):
        seeds = [_symbol_seed(run.engine.seed, "mlp", symbols[p]) for p in positions]
        models = [trend_net.init_model(replace(run.mlp, seed=sd)) for sd in seeds]
        return trend_net.train_batch(models, data, run.mlp, seeds)

    returns: dict[int, object] = {}
    training: dict[int, object] = {}
    hmms: dict[int, object] = {}
    nets: dict[int, object] = {}
    for pos, (_, symbol, row) in enumerate(jobs):
        closes = run.closes(symbol, row)
        try:
            returns[pos] = log_returns(closes)
        except MODEL_ERRORS as exc:
            hmms[pos] = exc
        try:
            training[pos] = trend_net.build_training_set(closes, run.mlp.input_size)
        except MODEL_ERRORS as exc:
            nets[pos] = exc
    _batched(fit_hmms, returns, hmms)
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


def _forecast(run: _Run, uses: list[tuple[_Job, object, object]]) -> None:
    """Store each use's forecasts in its plan step, for a list of (job, HMM
    outcome, network outcome): HMM posteriors in batched forward passes over
    windows of one length, then one network forward pass per use."""
    with_hmm = [
        (job, hmm) for job, hmm, _ in uses
        if isinstance(hmm, regime_hmm.HmmModel) and run.closes(*job[1:]).size >= 2
    ]

    def filter_hmms(ids, series):
        return regime_hmm.forward_posterior([with_hmm[i][1] for i in ids], np.stack(series))

    for chunk in _length_chunks(run, [job for job, _ in with_hmm]):
        returns: dict[int, object] = {}
        posteriors: dict[int, object] = {}
        for i in chunk:
            try:
                returns[i] = log_returns(run.closes(*with_hmm[i][0][1:]))
            except MODEL_ERRORS as exc:
                posteriors[i] = exc
        _batched(filter_hmms, returns, posteriors)
        for i in chunk:
            (step, symbol, _), model = with_hmm[i]
            posterior = posteriors[i]
            if isinstance(posterior, np.ndarray):
                forecast = regime_hmm.predict_direction(model, posterior)
                posterior = (forecast.direction, forecast.expected_return)
            step.hmm[symbol] = posterior

    diff_window = run.mlp.input_size
    for (step, symbol, row), _, net in uses:
        closes = run.closes(symbol, row)
        if not isinstance(net, tuple) or closes.size <= diff_window:
            continue
        try:
            trend = trend_net.predict_direction(net[0], np.diff(closes)[-diff_window:])
            step.net[symbol] = (trend.direction, trend.magnitude)
        except MODEL_ERRORS as exc:
            step.net[symbol] = exc


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
            hmm_signal, nn_signal, symbol, day, run.engine.rebalance_every, run.fusion
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
    bl_config, day, universe = run.bl, step.day, step.universe
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
