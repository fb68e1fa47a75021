"""The plan of a backtest: every decision that the data and the config alone
determine, made before the book (``engine.run_book``) trades its weights.

``build_plan`` first builds the calendar (every day with an in-range bar)
and one row table: for each symbol and calendar position, the row of the
symbol's last in-range bar on or before that day, or -1 before its first. A
symbol's rolling window on a day is a slice of its close column: its last
``window_bars`` closes on or before that day, none before ``start_date``.

It then builds the candidate panel (``candidate_panel``: every symbol with
metadata over its whole history, bars before ``start_date`` included) and
walks the calendar once: it re-selects the universe from the panel
(``select_universe``) on the first trading day of each month and, past
warm-up, notes every refit (on the retrain cadence: both models for every
universe symbol with a window) and every rebalance (on the rebalance
cadence). A rebalance forecasts each universe symbol with the models of its
latest refit; a failed refit leaves the symbol without that model, and a
symbol out of the universe at a refit keeps its older models. The refits are
cut into tasks of one window length, at least one per usable CPU and at most
``MODEL_CHUNK`` refits each, run through ``workers.fork_map`` (in forked
workers when several CPUs are usable). Each job carries its window: read-only
slices of the symbol's close and log-return columns (computed once), so the
model helpers are functions of jobs and the config alone. A task fits both
models of its refits, then forecasts every rebalance that uses them, in
batched calls per model over windows of one length; only the fit logs and the
forecasts (fusion's (direction, size) pairs) come back, in refit order, so
the plan is the same with any number of workers. Each rebalance then fuses
its forecasts into insights (``_generate_insights``) and blends them as views
into target weights (``_build_targets``), leaving out, with a note, a symbol
whose window has a non-finite return. Model seeds derive from the run's seed
with a stable CRC and every model call gives a series the same bits in any
batch, so the plan is a pure function of data + config.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from datetime import date
from typing import TYPE_CHECKING, Iterable, Mapping

import numpy as np

from . import alpha_fusion, portfolio_bl, regime_hmm, trend_net, workers
from .alpha_fusion import Insight
from .errors import InsufficientDataError, InvalidInputError, NumericalError, TrainingDivergedError
from .marketdata import InstrumentMeta, SymbolBars
from .universe import candidate_panel, select_universe

if TYPE_CHECKING:  # runconfig imports engine, which imports this module
    from .runconfig import RunConfig

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


def symbol_seed(base: int, salt: str, symbol: str) -> int:
    """The seed of one symbol's ``salt`` stream ("hmm", "mlp" or "synth")."""
    return (base ^ zlib.crc32(f"{salt}:{symbol}".encode())) % 2**31


@dataclass
class Step:
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


@dataclass
class Plan:
    """The calendar, the row table, each refit or rebalance day's step by
    calendar position, and a note on each symbol without metadata."""

    calendar: list[date]
    rows: dict[str, np.ndarray]
    steps: dict[int, Step]
    notes: list[str]


# One symbol's window on a plan day: (plan step, symbol, closes, log returns).
_Job = tuple[Step, str, np.ndarray, np.ndarray]


def build_plan(
    bars_by_symbol: Mapping[str, SymbolBars], meta: Mapping[str, InstrumentMeta], config: RunConfig
) -> Plan:
    """The run's calendar, universe, refits, forecasts, insights and targets."""
    series, engine = bars_by_symbol, config.engine
    start, end = engine.start_date, engine.end_date
    first_row, in_range = {}, []
    for symbol, bars in series.items():
        days = bars.days
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
    for symbol, bars in series.items():
        table = bars.days.searchsorted(ordinals, "right") - 1
        table[table < first_row[symbol]] = -1
        rows[symbol] = table
    missing = [s for s in sorted(series) if s not in meta]
    notes = [f"{s}: no metadata, excluded from universe selection" for s in missing]

    panel = candidate_panel(series, meta, config.universe.liquidity_lookback)
    steps: dict[int, Step] = {}
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
        step = steps[day_index] = Step(day, universe, rebalance)
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
    for (step, *_), (records, fit_notes) in zip(refits, logs):
        step.fits += records
        step.notes += fit_notes
    for step in steps.values():
        if step.rebalance:
            _generate_insights(step, config)
            _build_targets(step, meta, config.bl)
    return Plan(calendar, rows, steps, notes)


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


def _generate_insights(step: Step, config: RunConfig) -> None:
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
    step: Step, meta: Mapping[str, InstrumentMeta], bl_config: portfolio_bl.BlConfig
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
