"""Deterministic event-driven daily backtest loop.

Per trading day, in order:
  1. ingest the day's bars into per-symbol rolling windows
  2. fill orders queued on the prior day at today's open (sells before buys)
  3. re-select the universe on the first trading day of each month
  4. past warm-up, on the retrain cadence: refit both models per universe
     symbol on its rolling window
  5. past warm-up, on the rebalance cadence: generate insights, blend views
     into target weights, and queue the orders that move holdings to target
  6. run the risk overlays on today's closes; breaches queue a liquidation
  7. append the equity point (cash + positions at last known closes)

Orders always fill at the NEXT bar's open, so no decision ever uses a price
that was not yet observable. The run is a pure function of data + configs:
per-symbol model seeds are derived from the engine seed with a stable CRC.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, replace
from datetime import date
from typing import Iterable, Mapping

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
from .marketdata import Bar, InstrumentMeta, RollingWindow, log_returns
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


class _PortfolioState:
    """Cash, integer share positions, and per-position risk states."""

    def __init__(self, cash: float):
        self.cash = cash
        self.positions: dict[str, int] = {}
        self.risk_states: dict[str, risk_controls.PositionRiskState] = {}

    def apply_fill(self, fill: Fill, risk_config: RiskConfig) -> None:
        held = self.positions.get(fill.symbol, 0)
        if fill.side == "buy":
            self.cash -= fill.quantity * fill.price + fill.fee
            self.positions[fill.symbol] = held + fill.quantity
            if held == 0:
                self.risk_states[fill.symbol] = risk_controls.PositionRiskState.open_position(
                    fill.symbol, fill.price, risk_config
                )
        else:
            self.cash += fill.quantity * fill.price - fill.fee
            remaining = held - fill.quantity
            if remaining > 0:
                self.positions[fill.symbol] = remaining
            else:
                self.positions.pop(fill.symbol, None)
                self.risk_states.pop(fill.symbol, None)

    def equity(self, last_close: Mapping[str, float]) -> float:
        value = self.cash
        for symbol, qty in self.positions.items():
            value += qty * last_close[symbol]
        return value


def run_backtest(
    bars_by_symbol: Mapping[str, list[Bar]],
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
    and produce the equity curve, logs, and the performance report."""
    calendar = sorted(
        {
            bar.timestamp
            for bars in bars_by_symbol.values()
            for bar in bars
            if (engine_config.start_date is None or bar.timestamp >= engine_config.start_date)
            and (engine_config.end_date is None or bar.timestamp <= engine_config.end_date)
        }
    )
    if not calendar:
        raise InsufficientDataError("no bars inside the configured date range")

    bars_at: dict[date, dict[str, Bar]] = {day: {} for day in calendar}
    for symbol, bars in bars_by_symbol.items():
        for bar in bars:
            if bar.timestamp in bars_at:
                bars_at[bar.timestamp][symbol] = bar

    state = _PortfolioState(engine_config.initial_equity)
    windows: dict[str, RollingWindow] = {}
    last_close: dict[str, float] = {}
    missing_streak: dict[str, int] = {}
    hmm_models: dict[str, regime_hmm.HmmModel] = {}
    mlp_models: dict[str, trend_net.MlpModel] = {}
    pending: list[Order] = []
    universe: list[str] = []
    prev_month: tuple[int, int] | None = None

    equity_curve: list[EquityPoint] = []
    fills: list[Fill] = []
    insights_log: list[Insight] = []
    risk_events: list[dict] = []
    allocations: list[dict] = []
    diagnostics: list[str] = []

    candidates = {s: (bars_by_symbol[s], meta[s]) for s in sorted(bars_by_symbol) if s in meta}
    for s in sorted(bars_by_symbol):
        if s not in meta:
            diagnostics.append(f"{s}: no metadata, excluded from universe selection")

    for day_index, day in enumerate(calendar):
        today = bars_at[day]

        # (1) ingest
        for symbol in sorted(today):
            bar = today[symbol]
            window = windows.get(symbol)
            if window is None:
                window = windows[symbol] = RollingWindow(engine_config.window_bars)
            window.push(bar)
            last_close[symbol] = bar.close
            missing_streak[symbol] = 0
        for symbol in sorted(state.positions):
            if symbol in today:
                continue
            missing_streak[symbol] = missing_streak.get(symbol, 0) + 1
            if missing_streak[symbol] > engine_config.max_gap_bars and not any(
                o.symbol == symbol and o.reason != REASON_REBALANCE for o in pending
            ):
                pending = [o for o in pending if o.symbol != symbol]
                pending.append(
                    Order(symbol, "sell", state.positions[symbol], REASON_DATA_GAP)
                )
                diagnostics.append(
                    f"{day}: {symbol} missing {missing_streak[symbol]} bars, force-liquidating"
                )
                risk_events.append(
                    {
                        "date": day.isoformat(),
                        "symbol": symbol,
                        "reason": REASON_DATA_GAP,
                        "close": last_close.get(symbol, 0.0),
                        "stop_level": 0.0,
                    }
                )

        # (2) fill pending orders at today's open, sells first
        still_pending: list[Order] = []
        for order in sorted(pending, key=lambda o: (o.side != "sell", o.symbol)):
            bar = today.get(order.symbol)
            if bar is None:
                still_pending.append(order)
                continue
            if order.side == "sell":
                held = state.positions.get(order.symbol, 0)
                if held <= 0:
                    continue
                order = replace(order, quantity=min(order.quantity, held))
            fill, diag = execute(order, bar, engine_config, state.cash)
            if diag:
                diagnostics.append(f"{day}: {diag}")
            if fill is None:
                continue
            state.apply_fill(fill, risk_config)
            fills.append(fill)
        pending = still_pending

        # (3) monthly universe re-selection
        month = (day.year, day.month)
        if month != prev_month:
            universe = select_universe(candidates, universe_config, day)
            prev_month = month

        past_warmup = day_index >= engine_config.warmup_bars

        # (4) scheduled retraining
        if past_warmup and (day_index - engine_config.warmup_bars) % engine_config.retrain_every == 0:
            for symbol in universe:
                window = windows.get(symbol)
                if window is None:
                    continue
                closes = window.closes()
                try:
                    returns = log_returns(closes)
                    cfg = replace(
                        hmm_config,
                        seed=_symbol_seed(engine_config.seed, "hmm", symbol),
                    )
                    hmm_models[symbol] = regime_hmm.fit(returns, cfg)
                except MODEL_ERRORS as exc:
                    hmm_models.pop(symbol, None)
                    diagnostics.append(f"{day}: {symbol} hmm fit skipped: {exc}")
                try:
                    data = trend_net.build_training_set(closes, mlp_config.input_size)
                    cfg = replace(
                        mlp_config,
                        seed=_symbol_seed(engine_config.seed, "mlp", symbol),
                    )
                    model = trend_net.init_model(cfg)
                    mlp_models[symbol], _ = trend_net.train(model, data, cfg)
                except MODEL_ERRORS as exc:
                    mlp_models.pop(symbol, None)
                    diagnostics.append(f"{day}: {symbol} net fit skipped: {exc}")

        # (5) rebalance: insights -> views -> Black-Litterman -> orders
        if past_warmup and (day_index - engine_config.warmup_bars) % engine_config.rebalance_every == 0:
            day_insights = _generate_insights(
                universe, windows, hmm_models, mlp_models, fusion_config,
                day, engine_config.rebalance_every, mlp_config.input_size, diagnostics,
            )
            insights_log.extend(day_insights)
            targets = _build_targets(
                universe, windows, meta, last_close, day_insights,
                bl_config, day, allocations, diagnostics,
            )
            if targets is not None:
                pending = [o for o in pending if o.reason != REASON_REBALANCE]
                equity_now = state.equity(last_close)
                for symbol in sorted(set(targets.weights) | set(state.positions)):
                    if any(o.symbol == symbol for o in pending):
                        continue  # pending liquidation wins
                    price = last_close.get(symbol)
                    if price is None or price <= 0:
                        continue
                    weight = targets.weights.get(symbol, 0.0)
                    goal = int(weight * equity_now // price)
                    delta = goal - state.positions.get(symbol, 0)
                    if delta > 0:
                        pending.append(Order(symbol, "buy", delta))
                    elif delta < 0:
                        pending.append(Order(symbol, "sell", -delta))

        # (6) risk overlays on today's closes
        for symbol in sorted(state.positions):
            bar = today.get(symbol)
            if bar is None:
                continue
            risk_state = state.risk_states.get(symbol)
            if risk_state is None:
                continue
            risk_state, decision = risk_controls.update_and_check(
                risk_state, bar.close, risk_config
            )
            state.risk_states[symbol] = risk_state
            if decision.action == risk_controls.LIQUIDATE and not any(
                o.symbol == symbol and o.reason != REASON_REBALANCE for o in pending
            ):
                pending = [o for o in pending if o.symbol != symbol]
                pending.append(
                    Order(symbol, "sell", state.positions[symbol], decision.reason)
                )
                risk_events.append(
                    {
                        "date": day.isoformat(),
                        "symbol": symbol,
                        "reason": decision.reason,
                        "close": decision.close,
                        "stop_level": decision.stop_level,
                    }
                )

        # (7) mark to market
        equity_curve.append(EquityPoint(day, state.equity(last_close)))

    curve_dates = [p.timestamp for p in equity_curve]
    report = metrics.compute_report(
        curve_dates,
        [p.equity for p in equity_curve],
        fills,
        align_benchmark_returns(benchmark_bars, curve_dates),
        engine_config.risk_free_rate,
    )
    return BacktestResult(
        equity_curve=equity_curve,
        fills=fills,
        insights=insights_log,
        risk_events=risk_events,
        allocations=allocations,
        diagnostics=diagnostics,
        report=report,
        final_cash=state.cash,
        final_positions=dict(state.positions),
    )


def _generate_insights(
    universe: list[str],
    windows: dict[str, RollingWindow],
    hmm_models: dict[str, regime_hmm.HmmModel],
    mlp_models: dict[str, trend_net.MlpModel],
    fusion_config: FusionConfig,
    day: date,
    period: int,
    diff_window: int,
    diagnostics: list[str],
) -> list[Insight]:
    insights = []
    for symbol in universe:
        window = windows.get(symbol)
        hmm_signal = nn_signal = None
        if window is not None and len(window) >= 2:
            closes = window.closes()
            model = hmm_models.get(symbol)
            if model is not None:
                try:
                    returns = log_returns(closes)
                    posterior = regime_hmm.forward_posterior(model, returns)
                    forecast = regime_hmm.predict_direction(model, posterior)
                    hmm_signal = (forecast.direction, forecast.expected_return)
                except MODEL_ERRORS as exc:
                    diagnostics.append(f"{day}: {symbol} hmm forecast failed: {exc}")
            net = mlp_models.get(symbol)
            if net is not None and closes.size >= diff_window + 1:
                recent = np.diff(closes)[-diff_window:]
                try:
                    trend = trend_net.predict_direction(net, recent)
                    nn_signal = (trend.direction, trend.magnitude)
                except MODEL_ERRORS as exc:
                    diagnostics.append(f"{day}: {symbol} net forecast failed: {exc}")
        insight = alpha_fusion.fuse(
            hmm_signal, nn_signal, symbol, day, period, fusion_config
        )
        if insight.diagnostic:
            diagnostics.append(f"{day}: {symbol}: {insight.diagnostic}")
        insights.append(insight)
    return insights


def _build_targets(
    universe: list[str],
    windows: dict[str, RollingWindow],
    meta: Mapping[str, InstrumentMeta],
    last_close: Mapping[str, float],
    day_insights: list[Insight],
    bl_config: BlConfig,
    day: date,
    allocations: list[dict],
    diagnostics: list[str],
) -> portfolio_bl.TargetPortfolio | None:
    """Estimate the covariance over the universe, blend views, and optimize.
    Returns None (hold current book) when the universe is empty or data is
    too thin for a covariance estimate."""
    usable = [
        s for s in universe
        if s in windows and len(windows[s]) >= 2 and s in meta and s in last_close
    ]
    if not usable:
        if universe:
            diagnostics.append(f"{day}: rebalance skipped, no usable symbols")
        return portfolio_bl.TargetPortfolio({})  # empty universe -> all cash

    lengths = [len(windows[s]) - 1 for s in usable]
    depth = min(min(lengths), bl_config.covariance_lookback)
    if depth < len(usable) + 2:
        diagnostics.append(
            f"{day}: rebalance skipped, only {depth} aligned returns for {len(usable)} assets"
        )
        return None

    return_windows = {
        s: log_returns(windows[s].closes())[-depth:] for s in usable
    }
    sigma = portfolio_bl.estimate_covariance(return_windows)
    caps = np.array([meta[s].shares_outstanding * last_close[s] for s in usable])
    market_weights = caps / caps.sum()
    pi = portfolio_bl.equilibrium_returns(sigma, market_weights, bl_config.risk_aversion)
    views = portfolio_bl.build_views(day_insights, usable, sigma, bl_config)
    mu = portfolio_bl.posterior_returns(pi, sigma, bl_config.tau, views)
    targets = portfolio_bl.optimize_weights(mu, sigma, bl_config, usable)
    allocations.append(
        {
            "date": day.isoformat(),
            "symbols": list(usable),
            "weights": {s: targets.weights[s] for s in usable},
            "posterior_returns": {s: float(m) for s, m in zip(usable, mu)},
            "active_views": int(len(views)),
        }
    )
    return targets
