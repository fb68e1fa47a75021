"""Deterministic event-driven daily backtest loop.

Each symbol's history is one ``SymbolBars`` (day ordinals plus OHLCV
columns). A symbol's rolling window on a day is a slice of its close column:
its last ``window_bars`` closes on or before that day, none before
``start_date``. Per trading day, in order:
  1. ``_check_gaps``: a held symbol missing more than ``max_gap_bars`` bars
     is liquidated
  2. ``_fill_orders``: fill orders queued on the prior day at today's open
     (sells before buys)
  3. ``select_universe``: re-select the universe on the first trading day of
     each month
  4. ``_refit_models``: past warm-up, on the retrain cadence, refit both
     models for every universe symbol on its rolling window, one batched
     call per model for each group of equal-length windows
  5. ``_rebalance``: past warm-up, on the rebalance cadence, generate
     insights (``_generate_insights``), blend views into target weights
     (``_build_targets``), and queue the orders that move holdings to target
  6. ``_check_risk``: run the risk overlays on today's closes; breaches
     queue a liquidation
  7. ``_Run.equity``: append the equity point (cash + positions at last
     known closes)

All stages read and change one ``_Run`` object and touch only the held
symbols, the pending orders and, on refit and rebalance days, the universe;
both liquidation paths go through ``_queue_liquidation``. Orders always fill
at the NEXT bar's open, so no decision ever uses a price that was not yet
observable. The run is a
pure function of data + configs: per-symbol model seeds are derived from the
engine seed with a stable CRC.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field, replace
from datetime import date
from typing import Iterable, Mapping, Sequence

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
    positions and the per-position risk states); the fitted models; the
    pending orders; the universe; and the logs that become the
    BacktestResult."""

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
    hmm_models: dict[str, regime_hmm.HmmModel] = field(default_factory=dict)
    mlp_models: dict[str, trend_net.MlpModel] = field(default_factory=dict)
    pending: list[Order] = field(default_factory=list)
    universe: list[str] = field(default_factory=list)
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

    def latest_row(self, symbol: str) -> int | None:
        """Row of the symbol's last bar on or before today and on or after
        the start date; None before its first such bar."""
        if symbol not in self.latest_rows:
            series = self.series[symbol]
            end = int(series.days.searchsorted(self.today, "right"))
            self.latest_rows[symbol] = end - 1 if end > self.first_row[symbol] else None
        return self.latest_rows[symbol]

    def bar_today(self, symbol: str) -> Bar | None:
        row = self.latest_row(symbol)
        if row is None or self.series[symbol].days[row] != self.today:
            return None
        return self.series[symbol].bar(symbol, row)

    def last_close(self, symbol: str) -> float | None:
        row = self.latest_row(symbol)
        return None if row is None else float(self.series[symbol].close[row])

    def window(self, symbol: str) -> np.ndarray | None:
        """The symbol's last ``window_bars`` closes as of today (a read-only
        slice), or None before its first bar."""
        row = self.latest_row(symbol)
        if row is None:
            return None
        lo = max(self.first_row[symbol], row + 1 - self.engine.window_bars)
        return self.series[symbol].close[lo:row + 1]

    def equity(self) -> float:
        """Cash plus every position marked at its last known close."""
        value = self.cash
        for symbol, qty in self.positions.items():
            value += qty * self.last_close(symbol)
        return value


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
    candidates = {s: (series[s], meta[s]) for s in sorted(series) if s in meta}
    for s in sorted(series):
        if s not in meta:
            run.diagnostics.append(f"{s}: no metadata, excluded from universe selection")
    month = None
    for day_index, day in enumerate(calendar):
        run.start_day(day)
        _check_gaps(run, day, day_index)
        _fill_orders(run, day)
        if (day.year, day.month) != month:
            month = (day.year, day.month)
            run.universe = select_universe(candidates, run.universe_config, day)
        since_warmup = day_index - engine_config.warmup_bars
        if since_warmup >= 0 and since_warmup % engine_config.retrain_every == 0:
            _refit_models(run, day)
        if since_warmup >= 0 and since_warmup % engine_config.rebalance_every == 0:
            _rebalance(run, day)
        _check_risk(run, day)
        run.equity_curve.append(EquityPoint(day, run.equity()))

    curve_dates = [p.timestamp for p in run.equity_curve]
    report = metrics.compute_report(
        curve_dates, [p.equity for p in run.equity_curve], run.fills,
        align_benchmark_returns(benchmark_bars, curve_dates), engine_config.risk_free_rate,
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


def _rebalance(run: _Run, day: date) -> None:
    """Step 5: insights -> Black-Litterman targets -> the orders that move
    each holding to its target share count. Replaces pending rebalance
    orders; a symbol with a pending liquidation is left alone."""
    insights = _generate_insights(run, day)
    run.insights.extend(insights)
    targets = _build_targets(run, day, insights)
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
    """Step 6: advance each held position's risk state with today's close;
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


def _length_groups(windows: Mapping[str, np.ndarray]) -> dict[int, list[str]]:
    """Symbols grouped by window length (one model batch each)."""
    groups: dict[int, list[str]] = {}
    for symbol, window in windows.items():
        groups.setdefault(window.size, []).append(symbol)
    return groups


def _batched(batch_call, inputs: dict[str, object], outcomes: dict[str, object]) -> None:
    """Run one batched model call on ``inputs`` (symbol -> prepared input)
    and store each symbol's outcome: its result, or the error it ran into.
    An error raised for the whole batch becomes every symbol's."""
    if not inputs:
        return
    try:
        results = batch_call(list(inputs), list(inputs.values()))
    except MODEL_ERRORS as exc:
        results = [exc] * len(inputs)
    outcomes.update(zip(inputs, results))


def _refit_models(run: _Run, day: date) -> None:
    """Step 4: refit both models for every universe symbol with a window:
    one batched call per model for each group of equal-length windows. Each
    symbol gets exactly the models of a fit on its own window."""

    def fit_hmms(symbols, series):
        seeds = [_symbol_seed(run.engine.seed, "hmm", s) for s in symbols]
        return regime_hmm.fit_batch(np.stack(series), run.hmm, seeds)

    def train_nets(symbols, data):
        seeds = [_symbol_seed(run.engine.seed, "mlp", s) for s in symbols]
        models = [trend_net.init_model(replace(run.mlp, seed=sd)) for sd in seeds]
        return trend_net.train_batch(models, data, run.mlp, seeds)

    windows = {s: w for s in run.universe if (w := run.window(s)) is not None}
    hmm_out: dict[str, object] = {}
    mlp_out: dict[str, object] = {}
    for symbols in _length_groups(windows).values():
        returns: dict[str, object] = {}
        training: dict[str, object] = {}
        for symbol in symbols:
            closes = windows[symbol]
            try:
                returns[symbol] = log_returns(closes)
            except MODEL_ERRORS as exc:
                hmm_out[symbol] = exc
            try:
                training[symbol] = trend_net.build_training_set(closes, run.mlp.input_size)
            except MODEL_ERRORS as exc:
                mlp_out[symbol] = exc
        _batched(fit_hmms, returns, hmm_out)
        _batched(train_nets, training, mlp_out)

    stamp = day.isoformat()
    for symbol in windows:
        outcome = hmm_out[symbol]
        if isinstance(outcome, regime_hmm.HmmModel):
            run.hmm_models[symbol] = outcome
            run.fits.append({
                "date": stamp, "symbol": symbol, "model": "hmm",
                **outcome.diagnostics,
                "log_likelihood_path": outcome.log_likelihood_path,
            })
        else:
            run.hmm_models.pop(symbol, None)
            run.diagnostics.append(f"{day}: {symbol} hmm fit skipped: {outcome}")
        outcome = mlp_out[symbol]
        if isinstance(outcome, tuple):
            run.mlp_models[symbol], history = outcome
            run.fits.append(
                {"date": stamp, "symbol": symbol, "model": "mlp", "loss_history": history}
            )
        else:
            run.mlp_models.pop(symbol, None)
            run.diagnostics.append(f"{day}: {symbol} net fit skipped: {outcome}")


def _generate_insights(run: _Run, day: date) -> list[Insight]:
    """One fused insight per universe symbol, for a period of one rebalance
    interval; a symbol without a model or whose forecast fails is flat."""
    hmm_models, diff_window = run.hmm_models, run.mlp.input_size
    closes = {
        s: w for s in run.universe if (w := run.window(s)) is not None and w.size >= 2
    }

    def filter_hmms(symbols, series):
        return regime_hmm.forward_posterior([hmm_models[s] for s in symbols], np.stack(series))

    # Filtered posteriors: one batched forward pass per window length.
    posteriors: dict[str, object] = {}
    for symbols in _length_groups({s: w for s, w in closes.items() if s in hmm_models}).values():
        returns: dict[str, object] = {}
        for symbol in symbols:
            try:
                returns[symbol] = log_returns(closes[symbol])
            except MODEL_ERRORS as exc:
                posteriors[symbol] = exc
        _batched(filter_hmms, returns, posteriors)

    insights = []
    for symbol in run.universe:
        hmm_signal = nn_signal = None
        posterior = posteriors.get(symbol)
        if isinstance(posterior, np.ndarray):
            forecast = regime_hmm.predict_direction(hmm_models[symbol], posterior)
            hmm_signal = (forecast.direction, forecast.expected_return)
        elif posterior is not None:
            run.diagnostics.append(f"{day}: {symbol} hmm forecast failed: {posterior}")
        net = run.mlp_models.get(symbol)
        if net is not None and symbol in closes and closes[symbol].size >= diff_window + 1:
            recent = np.diff(closes[symbol])[-diff_window:]
            try:
                trend = trend_net.predict_direction(net, recent)
                nn_signal = (trend.direction, trend.magnitude)
            except MODEL_ERRORS as exc:
                run.diagnostics.append(f"{day}: {symbol} net forecast failed: {exc}")
        insight = alpha_fusion.fuse(
            hmm_signal, nn_signal, symbol, day, run.engine.rebalance_every, run.fusion
        )
        if insight.diagnostic:
            run.diagnostics.append(f"{day}: {symbol}: {insight.diagnostic}")
        insights.append(insight)
    return insights


def _build_targets(
    run: _Run, day: date, insights: list[Insight]
) -> portfolio_bl.TargetPortfolio | None:
    """Estimate the covariance over the universe, blend views, and optimize.
    Returns None (hold current book) when the universe is empty or data is
    too thin for a covariance estimate."""
    bl_config = run.bl
    windows = {
        s: w for s in run.universe
        if (w := run.window(s)) is not None and w.size >= 2 and s in run.meta
    }
    usable = list(windows)
    if not usable:
        if run.universe:
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
