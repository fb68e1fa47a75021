"""The plan of a backtest: every decision that the data and the config alone
determine, made before the book (``engine.run_book``) trades its weights.

``build_plan`` first builds the calendar (every day with an in-range bar,
marked in one boolean array over the days' span) and the row tables
(``RowTables``): for each symbol and calendar position, the row of the
symbol's last in-range bar on or before that day, or -1 before its first,
each table built when it is first read. A symbol's rolling window on a day
is a slice of its close column: its last ``window_bars`` closes on or before
that day, none before ``start_date``.

It then builds the candidate panel (``candidate_panel``: every symbol with
metadata over its whole history, bars before ``start_date`` included) and
walks the calendar once: it re-selects the universe from the panel
(``select_universe``) on the first trading day of each month and, past
warm-up, notes every refit (on the retrain cadence: both models for every
universe symbol with a window) and every rebalance (on the rebalance
cadence). A rebalance forecasts each universe symbol with the models of its
latest refit; a failed refit leaves the symbol without that model, and a
symbol out of the universe at a refit keeps its older models. The refits are
cut into tasks of one window length and at most ``MODEL_CHUNK`` refits each;
a length group is cut into one task per usable CPU only when each task then
keeps ``MIN_PART`` refits or ``MODEL_CHUNK`` forecasts on average. The tasks
run through ``workers.fork_map``: in forked workers when there are several
tasks and usable CPUs, else in this process. Each job carries its window:
read-only slices of the symbol's close and log-return columns (computed
once), so the model helpers are functions of jobs and the config alone. A
task fits both models of its refits (one batched call per model, each
returning one stack of models), then forecasts every rebalance that uses
them, in batched calls per model over windows of one length that gather each
use's row from the stack; only the fit logs and the forecasts (fusion's
(direction, size) pairs) come back, in refit order, so the plan is the same
with any number of workers. Each rebalance then fuses its forecasts into
insights (``_generate_insights``) and blends them as views into target
weights (``_build_targets``), leaving out, with a note, a symbol whose
market cap is not finite or whose window holds no return. Model
seeds derive from the run's seed with a stable CRC and every model call
gives a series the same bits in any batch, so the plan is a pure function of
data + config.
"""

from __future__ import annotations

import math
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

# Most series in one batched refit or forecast call, and so in one refit
# task; a task whose refits get this many forecasts on average makes at
# least one full forecast call, which earns it a worker (see MIN_PART).
# Wider calls spread the per-step Python overhead of the recursions over
# more series: pinned to one CPU, fitting the 480 HMMs of the ``acceptance``
# benchmark (251 returns each) took 0.87 s in calls of 48 and 0.51 s in
# calls of 240 (medians of 6 alternating runs). A call's (time, state,
# series) arrays grow with the width and count toward the peak memory of the
# process that runs it: that backtest, pinned, peaked at 48 MB with calls of
# 48 and 60 MB with calls of 240, about 0.06 MB per series.
MODEL_CHUNK = 240

# Fewest refits in each task when a window-length group is cut for the
# CPUs, unless each task gets MODEL_CHUNK forecasts on average; otherwise the
# group is one task, which runs in-process. A batch of a few series costs
# about as much as one twice as wide (the per-step Python loops set it), two
# concurrent fits on 2 vCPUs each run slower than one alone, and a pool costs
# its start. Fitting both models of n 252-bar windows on 2 shared vCPUs in one
# in-process task against two forked tasks of n/2 (medians of 15 alternating
# runs, pool start included): 57 against 62 ms at n = 20 (one task faster in
# 15 of 15), 94 against 92 ms at 48, and 111 against 92 ms at 64 (two tasks
# faster in 15 of 15). So ``wide`` (20 refits, 240 forecasts) and the README
# quick start (60, 60) fit in-process, while ``daily`` (40 refits, 10,080
# forecasts) and ``acceptance`` (480 refits) keep one task per CPU.
MIN_PART = 32


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


class RowTables(dict):
    """symbol -> row table: for each calendar position, the row of the
    symbol's last in-range bar on or before that day, or -1 before its first.
    A table is computed when it is first read, as a run reads only those of
    the symbols it selects or holds; an unknown symbol raises KeyError.
    ``in``, ``get`` and iteration see only the tables built so far."""

    def __init__(
        self, series: Mapping[str, SymbolBars], ordinals: np.ndarray, first_row: Mapping[str, int]
    ):
        super().__init__()
        self.series, self.ordinals, self.first_row = series, ordinals, first_row

    def __missing__(self, symbol: str) -> np.ndarray:
        table = self.series[symbol].days.searchsorted(self.ordinals, "right") - 1
        table[table < self.first_row[symbol]] = -1
        self[symbol] = table
        return table


@dataclass
class Plan:
    """The calendar, the row tables, each refit or rebalance day's step by
    calendar position, and a note on each symbol without metadata."""

    calendar: list[date]
    rows: RowTables
    steps: dict[int, Step]
    notes: list[str]


# One symbol's window on a plan day: (plan step, symbol, closes, log returns).
_Job = tuple[Step, str, np.ndarray, np.ndarray]


def build_plan(
    bars_by_symbol: Mapping[str, SymbolBars], meta: Mapping[str, InstrumentMeta], config: RunConfig
) -> Plan:
    """The run's calendar, universe, refits, forecasts, insights and targets."""
    series, engine = bars_by_symbol, config.engine
    ordinals, first_row = _calendar(series, engine.start_date, engine.end_date)
    calendar = [date.fromordinal(int(day)) for day in ordinals]
    rows = RowTables(series, ordinals, first_row)
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
                if s not in columns:
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
    chunks = list(_length_chunks(refits, workers.usable_cpus(), [len(u) for u in users]))
    uses = [[use for i in chunk for use in users[i]] for chunk in chunks]

    def fit_and_forecast(k: int) -> tuple[list, list]:
        jobs = [refits[i] for i in chunks[k]]
        fitted = _refit_chunk(config, jobs)
        (_, hmms), (_, nets) = fitted
        logs = [
            _fit_log(step.day, symbol, hmm, net)
            for (step, symbol, *_), hmm, net in zip(jobs, hmms, nets)
        ]
        rows = [row for row, i in enumerate(chunks[k]) for _ in users[i]]
        return logs, _forecast(uses[k], rows, fitted)

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


def _calendar(
    series: Mapping[str, SymbolBars], start: date | None, end: date | None
) -> tuple[np.ndarray, dict[str, int]]:
    """The day ordinals with a bar inside [start, end], ascending, and each
    symbol's first in-range row. The days are marked in one boolean array
    over their span, which costs less than sorting every bar's day."""
    first_row, in_range = {}, []
    for symbol, bars in series.items():
        days = bars.days
        lo = 0 if start is None else int(days.searchsorted(start.toordinal()))
        hi = days.size if end is None else int(days.searchsorted(end.toordinal(), "right"))
        first_row[symbol] = lo
        if lo < hi:
            in_range.append(days[lo:hi])
    if not in_range:
        raise InsufficientDataError("no bars inside the configured date range")
    first = min(int(days[0]) for days in in_range)
    marked = np.zeros(max(int(days[-1]) for days in in_range) + 1 - first, dtype=bool)
    for days in in_range:
        marked[days - first] = True
    return np.flatnonzero(marked) + first, first_row


def _length_chunks(
    jobs: list[_Job], parts: int = 1, use_counts: list[int] | None = None
) -> Iterable[list[int]]:
    """The job indices grouped by window length (first-seen order), each
    group cut into near-equal runs of at most MODEL_CHUNK: the inputs of one
    batched model call each. A group is cut into ``parts`` runs only when
    each run then keeps MIN_PART jobs or, on average, MODEL_CHUNK forecasts
    (``use_counts[i]`` is job i's)."""
    groups: dict[int, list[int]] = {}
    for i, (_, _, closes, _) in enumerate(jobs):
        groups.setdefault(closes.size, []).append(i)
    for group in groups.values():
        used = sum(use_counts[i] for i in group) if use_counts else 0
        cut = parts if len(group) >= parts * MIN_PART or used >= parts * MODEL_CHUNK else 1
        count = min(len(group), max(cut, -(-len(group) // MODEL_CHUNK)))
        for k in range(count):
            yield group[k * len(group) // count:(k + 1) * len(group) // count]


def _batched(call, ids: list[int]) -> tuple:
    """Run one batched model ``call`` on the ids (it builds their inputs), if
    any: its (stack or None, one outcome per id), or, when the whole batch
    fails, (None, that error for every id)."""
    if not ids:
        return None, []
    try:
        return call(ids)
    except MODEL_ERRORS as exc:
        return None, [exc] * len(ids)


def _refit_chunk(config: RunConfig, jobs: list[_Job]):
    """Fit both models on each job's window, all of one length: one batched
    call per model. Returns one (stack, outcomes) pair per model kind, HMM
    then network: row p of the stack and outcome p (a fit record, a loss
    history or an error) are job p's, exactly those of a fit on its window
    alone. The training sets are built after the HMM fit, so that they are
    not alive during EM."""

    def fit_hmms(positions):
        seeds = [symbol_seed(config.seed, "hmm", jobs[p][1]) for p in positions]
        return regime_hmm.fit_batch(np.stack([jobs[p][3] for p in positions]), config.hmm, seeds)

    def train_nets(positions):
        data = [trend_net.build_training_set(jobs[p][2]) for p in positions]
        seeds = [symbol_seed(config.seed, "mlp", jobs[p][1]) for p in positions]
        params = trend_net.init_params(seeds)
        return trend_net.train_batch(params, data, config.mlp, seeds)

    ids = list(range(len(jobs)))
    return _batched(fit_hmms, ids), _batched(train_nets, ids)


def _fit_log(day: date, symbol: str, hmm, net) -> tuple[list[dict], list[str]]:
    """The fit records and fit diagnostics of one symbol's refit, from its
    two outcomes (a fit record or loss history, or an error)."""
    records, notes, stamp = [], [], day.isoformat()
    if isinstance(hmm, Exception):
        notes.append(f"{day}: {symbol} hmm fit skipped: {hmm}")
    else:
        records.append({"date": stamp, "symbol": symbol, "model": "hmm", **hmm})
    if isinstance(net, Exception):
        notes.append(f"{day}: {symbol} net fit skipped: {net}")
    else:
        records.append({"date": stamp, "symbol": symbol, "model": "mlp", "loss_history": net})
    return records, notes


def _forecast(uses: list[_Job], rows: list[int], fitted) -> list[list]:
    """The (HMM signal, network signal) pair of each use, given
    ``_refit_chunk``'s (stack, outcomes) pair per model kind and the row of
    each use's refit in them: each signal the model's forecast (fusion's
    (direction, size) pair), the error its forecast ran into, or None without
    a model. A use's window is never shorter than its refit's, so a model
    that fitted has the closes it needs to forecast. Each model forecasts in
    batched calls over windows of one length, at most MODEL_CHUNK each."""
    (hmm_stack, _), (net_stack, _) = fitted
    hmm_ok, net_ok = ([not isinstance(fits[r], Exception) for r in rows] for _, fits in fitted)
    hmms, nets = {}, {}

    def hmm_forecast(ids):
        returns = np.stack([uses[i][3] for i in ids])
        return None, regime_hmm.forecast(hmm_stack, [rows[i] for i in ids], returns)

    def net_forecast(ids):
        diffs = np.diff(np.stack([uses[i][2][-trend_net.INPUT_SIZE - 1:] for i in ids]), axis=1)
        return None, trend_net.forecast(net_stack, [rows[i] for i in ids], diffs)

    for chunk in _length_chunks(uses):
        with_hmm = [i for i in chunk if hmm_ok[i]]
        with_net = [i for i in chunk if net_ok[i]]
        hmms.update(zip(with_hmm, _batched(hmm_forecast, with_hmm)[1]))
        nets.update(zip(with_net, _batched(net_forecast, with_net)[1]))
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
        insight = alpha_fusion.fuse(hmm_signal, nn_signal, symbol, day, config.engine.rebalance_every)
        if insight.diagnostic:
            step.notes.append(f"{day}: {symbol}: {insight.diagnostic}")
        step.insights.append(insight)


def _build_targets(
    step: Step, meta: Mapping[str, InstrumentMeta], bl_config: portfolio_bl.BlConfig
) -> None:
    """Estimate the covariance over the universe, blend the step's insights
    as views, and optimize into the step's weights and allocation record. A
    symbol whose market cap (shares outstanding times last close) is not
    finite, or whose window holds no return, is left out with a note.
    Weights stay None (hold the book) when the data is too thin for a
    covariance estimate, and are {} (all cash) without usable symbols."""
    day, returns, caps = step.day, {}, {}
    for s, (closes, window) in step.windows.items():
        cap = meta[s].shares_outstanding * float(closes[-1])  # a float overflows to inf quietly
        if not math.isfinite(cap):
            step.notes.append(f"{day}: {s} left out of the allocation: market cap is not finite")
        elif not window.size:
            step.notes.append(f"{day}: {s} left out of the allocation: no returns in its window")
        else:
            returns[s], caps[s] = window, cap
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
    market_caps = np.array(list(caps.values()))
    market_weights = market_caps / market_caps.sum()
    pi = portfolio_bl.equilibrium_returns(sigma, market_weights, portfolio_bl.RISK_AVERSION)
    q, precision = portfolio_bl.build_views(step.insights, usable, sigma)
    mu = portfolio_bl.posterior_returns(pi, sigma, q, precision)
    step.weights = portfolio_bl.optimize_weights(mu, sigma, bl_config, usable)
    step.allocation = {
        "date": day.isoformat(),
        "symbols": usable,
        "weights": dict(step.weights),
        "posterior_returns": {s: float(m) for s, m in zip(usable, mu)},
        "active_views": int(np.count_nonzero(precision)),
    }
