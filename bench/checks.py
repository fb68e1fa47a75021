"""Checks of one backtest's artifacts, computed apart from the program.

Nothing here imports ``duotrader``: every expected value is recomputed from
the generated market arrays (the same numbers the input CSVs hold, written
with ``repr`` so they read back exactly) and from the workload's config.
Each check returns a list of human-readable errors; empty means it passed.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import deque
from pathlib import Path

import numpy as np

from gen import Market

TRADING_DAYS = 252
# Equity is a sum over held symbols; the program may add them in another
# order, so replayed and reported equity agree to rounding, not bit for bit.
EQUITY_RTOL = 1e-9
REPORT_RTOL = 1e-9
# EM guarantees a non-decreasing likelihood; allow float rounding only.
LL_RTOL = 1e-9


def read_artifacts(out_dir: Path) -> dict:
    fills_bytes = (out_dir / "fills.jsonl").read_bytes()
    lines = (out_dir / "equity_curve.csv").read_text().splitlines()
    if not lines or lines[0] != "date,equity":
        raise ValueError("equity_curve.csv: bad header")
    dates, values = [], []
    for line in lines[1:]:
        day, value = line.split(",")
        dates.append(day)
        values.append(float(value))
    return {
        "fills": [json.loads(line) for line in fills_bytes.decode().splitlines() if line],
        "fills_sha256": hashlib.sha256(fills_bytes).hexdigest(),
        "dates": dates,
        "equity": values,
        "allocations": [
            json.loads(line)
            for line in (out_dir / "allocations.jsonl").read_text().splitlines()
            if line
        ],
        "report": json.loads((out_dir / "report.json").read_text()),
    }


def check_backtest(market: Market, config: dict, art: dict) -> list[str]:
    """Ledger replay, fee schedule, fill prices, warm-up, report figures and
    target weights."""
    errors: list[str] = []
    iso = [d.isoformat() for d in market.dates]
    if art["dates"] != iso:
        return [f"equity curve has {len(art['dates'])} dates, not the {len(iso)}-day input calendar"]
    errors += _replay_ledger(market, config, art, iso)
    errors += _check_report(config, art)
    errors += _check_weights(config, art)
    return errors


def _replay_ledger(market: Market, config: dict, art: dict, iso: list[str]) -> list[str]:
    eng = config["engine"]
    per_share, min_fee = eng["per_share_fee"], eng["min_fee"]
    warmup = eng["warmup_bars"]
    row = {s: i for i, s in enumerate(market.symbols)}
    errors: list[str] = []
    cash = float(eng["initial_equity"])
    lots: dict[str, deque] = {}
    fills = art["fills"]
    k = 0
    for t, day in enumerate(iso):
        while k < len(fills) and fills[k]["date"] == day:
            fill = fills[k]
            k += 1
            where = f"fill {k} ({fill['symbol']} {fill['side']} {day})"
            i = row.get(fill["symbol"])
            q = fill["quantity"]
            if i is None or not isinstance(q, int) or q <= 0:
                errors.append(f"{where}: unknown symbol or bad quantity {q!r}")
                continue
            if t <= warmup - 1:
                errors.append(f"{where}: on or before the last warm-up bar {iso[warmup - 1]}")
            if fill["price"] != float(market.open[i, t]):
                errors.append(f"{where}: price {fill['price']!r} != open {market.open[i, t]!r}")
            fee = max(per_share * q, min_fee)
            if not math.isclose(fill["fee"], fee, rel_tol=1e-12, abs_tol=1e-12):
                errors.append(f"{where}: fee {fill['fee']!r} != max({per_share}*{q}, {min_fee})")
            book = lots.setdefault(fill["symbol"], deque())
            if fill["side"] == "buy":
                cash -= q * fill["price"] + fill["fee"]
                book.append([q, fill["price"]])
            elif fill["side"] == "sell":
                if sum(lot[0] for lot in book) < q:
                    errors.append(f"{where}: sells more shares than held")
                    continue
                remaining = q
                while remaining:
                    taken = min(remaining, book[0][0])
                    book[0][0] -= taken
                    remaining -= taken
                    if book[0][0] == 0:
                        book.popleft()
                cash += q * fill["price"] - fill["fee"]
            else:
                errors.append(f"{where}: unknown side")
            if cash < 0:
                errors.append(f"{where}: cash {cash!r} < 0")
        equity = cash + sum(
            lot[0] * float(market.close[row[s], t]) for s, book in lots.items() for lot in book
        )
        reported = art["equity"][t]
        if not math.isclose(reported, equity, rel_tol=EQUITY_RTOL, abs_tol=1e-6):
            errors.append(f"{day}: equity {reported!r} != replayed {equity!r}")
        if len(errors) > 20:
            return errors + ["(further ledger errors suppressed)"]
    if k != len(fills):
        errors.append(f"fill {k + 1} dated {fills[k]['date']} is out of calendar order")
    return errors


def _check_report(config: dict, art: dict) -> list[str]:
    values = np.asarray(art["equity"], dtype=float)
    returns = values[1:] / values[:-1] - 1.0
    excess = returns - config["engine"]["risk_free_rate"] / TRADING_DAYS
    std = float(np.std(excess, ddof=1))
    expected = {
        "total_return": values[-1] / values[0] - 1.0,
        "max_drawdown": float(np.max(1.0 - values / np.maximum.accumulate(values))),
        "sharpe": float(np.mean(excess)) / std * math.sqrt(TRADING_DAYS) if std > 0 else 0.0,
    }
    report = art["report"]
    return [
        f"report {key} {report.get(key)!r} != recomputed {value!r}"
        for key, value in expected.items()
        if not isinstance(report.get(key), (int, float))
        or not math.isclose(report[key], value, rel_tol=REPORT_RTOL, abs_tol=1e-12)
    ]


def _check_weights(config: dict, art: dict) -> list[str]:
    cap = config["bl"]["max_weight"]
    errors = []
    for record in art["allocations"]:
        weights = list(record["weights"].values())
        if any(not 0.0 <= w <= cap for w in weights) or sum(weights) > 1.0 + 1e-12:
            errors.append(f"{record['date']}: target weights outside [0, {cap}] or sum > 1")
    return errors


def check_trace(market: Market, config: dict, trace: dict) -> list[str]:
    """EM monotonicity of every HMM fit, and every universe selection against
    a numpy recomputation of liquidity -> sector -> market-cap."""
    errors = []
    for n, path in enumerate(trace["ll_paths"], start=1):
        for a, b in zip(path, path[1:]):
            if b < a - LL_RTOL * max(1.0, abs(a)):
                errors.append(f"hmm fit {n}: log-likelihood fell from {a!r} to {b!r}")
                break
    index = {d.isoformat(): t for t, d in enumerate(market.dates)}
    for as_of, chosen in trace["selections"]:
        expected = select_universe(market, config["universe"], index[as_of])
        if chosen != expected:
            errors.append(f"universe on {as_of}: {chosen} != recomputed {expected}")
    return errors


def select_universe(market: Market, universe: dict, t: int) -> list[str]:
    """Top ``coarse_count`` by trailing dollar volume, then the configured
    sector ranked by market cap at the day's close, top ``fine_count``.
    Ties break by symbol."""
    lo = max(0, t + 1 - universe["liquidity_lookback"])
    dollar_volume = (market.close[:, lo : t + 1] * market.volume[:, lo : t + 1]).sum(axis=1)
    symbols = market.symbols
    coarse = sorted(range(len(symbols)), key=lambda i: (-dollar_volume[i], symbols[i]))
    coarse = coarse[: universe["coarse_count"]]
    sector = universe["sector"].lower()
    caps = market.shares * market.close[:, t]
    fine = sorted(
        (i for i in coarse if market.sectors[i].lower() == sector),
        key=lambda i: (-caps[i], symbols[i]),
    )
    return [symbols[i] for i in fine[: universe["fine_count"]]]
