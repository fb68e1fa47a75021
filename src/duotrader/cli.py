"""Command-line entry point.

Subcommands:
  backtest  run the full engine from a config file and write all artifacts
  synth     generate synthetic regime-switching bar/metadata CSVs for testing
  report    recompute report.json from previously written artifacts

Every backtest writes the fully resolved configuration next to its outputs,
so a run can be reproduced from its artifacts alone.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field
from datetime import date
from pathlib import Path

from . import engine as engine_mod
from . import metrics
from .errors import ConfigError, DuotraderError, ParameterError
from .marketdata import (
    BAR_CSV_HEADER,
    META_CSV_HEADER,
    SymbolBars,
    ingest_csv,
    ingest_meta_csv,
    synth_regime_series,
)
from .runconfig import decode, load_config, read_json

EXIT_OK = 0
EXIT_DATA = 1
EXIT_CONFIG = 2


def _parse_override(text: str) -> tuple[str, object]:
    if "=" not in text:
        raise ConfigError(f"override must look like section.key=value, got {text!r}")
    key, raw = text.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return key, value


def _json(payload, indent: int | None = None) -> str:
    """Strict JSON: a non-finite float raises instead of writing a bare NaN."""
    return json.dumps(payload, sort_keys=True, indent=indent, allow_nan=False)


def _write_report(path: Path, report: metrics.MetricsReport) -> None:
    path.write_text(_json(report.to_dict(), indent=2) + "\n")


def _write_outputs(out_dir: Path, result: engine_mod.BacktestResult, resolved: dict) -> list[Path]:
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []

    equity_path = out_dir / "equity_curve.csv"
    with equity_path.open("w") as handle:
        handle.write("date,equity\n")
        for point in result.equity_curve:
            handle.write(f"{point.timestamp.isoformat()},{point.equity!r}\n")
    paths.append(equity_path)

    for name, records in (
        ("fills.jsonl", [f.to_dict() for f in result.fills]),
        ("insights.jsonl", [i.to_dict() for i in result.insights]),
        ("risk_events.jsonl", result.risk_events),
        ("allocations.jsonl", result.allocations),
        ("fits.jsonl", result.fits),
    ):
        path = out_dir / name
        path.write_text("".join(_json(r) + "\n" for r in records))
        paths.append(path)

    report_path = out_dir / "report.json"
    _write_report(report_path, result.report)
    paths.append(report_path)

    config_path = out_dir / "resolved_config.json"
    config_path.write_text(_json(resolved, indent=2) + "\n")
    paths.append(config_path)
    return paths


_SUMMARY_ROWS = [
    ("Runtime Days", "runtime_days", "{:d}"),
    ("Start Equity", "start_equity", "{:,.2f}"),
    ("End Equity", "end_equity", "{:,.2f}"),
    ("Total Return", "total_return", "{:.2%}"),
    ("CAGR", "cagr", "{:.2%}"),
    ("Sharpe Ratio", "sharpe", "{:.3f}"),
    ("Probabilistic SR", "probabilistic_sharpe", "{:.2%}"),
    ("Sortino Ratio", "sortino", "{:.3f}"),
    ("Drawdown", "max_drawdown", "{:.2%}"),
    ("Annual Standard Deviation", "annual_stdev", "{:.4f}"),
    ("Annual Variance", "annual_variance", "{:.4f}"),
    ("Alpha", "alpha", "{:.4f}"),
    ("Beta", "beta", "{:.4f}"),
    ("Information Ratio", "information_ratio", "{:.3f}"),
    ("Tracking Error", "tracking_error", "{:.4f}"),
    ("Treynor Ratio", "treynor", "{:.4f}"),
    ("Win Rate", "win_rate", "{:.2%}"),
    ("Loss Rate", "loss_rate", "{:.2%}"),
    ("Average Win", "average_win", "{:.2%}"),
    ("Average Loss", "average_loss", "{:.2%}"),
    ("Profit-Loss Ratio", "profit_loss_ratio", "{:.3f}"),
    ("Total Orders", "total_orders", "{:d}"),
    ("Portfolio Turnover", "turnover", "{:.2%}"),
    ("Total Fees", "total_fees", "{:,.2f}"),
]


def _print_summary(report: metrics.MetricsReport) -> None:
    width = max(len(label) for label, _, _ in _SUMMARY_ROWS)
    for label, attr, fmt in _SUMMARY_ROWS:
        print(f"{label:<{width}}  {fmt.format(getattr(report, attr))}")
    if report.flags:
        print(f"{'Flags':<{width}}  {', '.join(report.flags)}")


def _print_ingest_notes(ingested) -> None:
    """Report a CSV's rejected rows on stderr as ``[ingest]`` lines."""
    for note in ingested.diagnostics:
        print(f"[ingest] {note}", file=sys.stderr)
    if ingested.rejected_rows:
        print(f"[ingest] rejected {ingested.rejected_rows} row(s)", file=sys.stderr)


def _benchmark_bars(path: str) -> SymbolBars | None:
    """The bars of a one-symbol benchmark CSV; None if it has no bar.
    Rejected rows are reported on stderr."""
    ingested = ingest_csv(path)
    _print_ingest_notes(ingested)
    series = ingested.bars_by_symbol
    if len(series) > 1:
        raise DuotraderError(f"{path}: a benchmark file holds one symbol, got {', '.join(series)}")
    return next(iter(series.values()), None)


def cmd_backtest(args: argparse.Namespace) -> int:
    overrides = dict(_parse_override(item) for item in args.set or [])
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.out_dir is not None:
        overrides["out_dir"] = args.out_dir
    if args.benchmark is not None:
        overrides["data.benchmark"] = args.benchmark

    config = load_config(args.config, overrides)

    bars = ingest_csv(config.data.bars)
    _print_ingest_notes(bars)
    meta = ingest_meta_csv(config.data.meta)
    benchmark = _benchmark_bars(config.data.benchmark) if config.data.benchmark else None

    result = engine_mod.run_backtest(bars.bars_by_symbol, meta, config, benchmark=benchmark)

    out_dir = Path(config.out_dir)
    paths = _write_outputs(out_dir, result, config.resolved())

    _print_summary(result.report)
    print(f"\nwrote {len(paths)} artifact(s) to {out_dir}")
    return EXIT_OK


@dataclass
class SynthSpec:
    """The keys of a ``synth --spec`` file. ``symbols`` is a count or the
    names; a count of n stands for the names SYN00 .. SYN<n-1>."""
    symbols: int | list[str] = 5
    n_bars: int = 504
    regimes: list[tuple[float, float]] = field(default_factory=lambda: [(0.0003, 0.01)])
    transition: list[list[float]] = field(default_factory=lambda: [[1.0]])
    start_price: float = 100.0
    start_date: date = date(2015, 1, 2)
    sector: str = "Energy"

    def __post_init__(self):
        if isinstance(self.symbols, int):
            if self.symbols < 1:
                raise ParameterError(f"symbols must be a positive count, got {self.symbols}")
            self.symbols = [f"SYN{i:02d}" for i in range(self.symbols)]
        # A name that a CSV reader reads back changed, or twice, would make
        # files that ingest refuses.
        for key, names in (("symbols", self.symbols), ("sector", [self.sector])):
            if not names or len(set(names)) < len(names) or not all(
                name and name == name.strip() and not set(name) & set(',"\r\n') for name in names
            ):
                raise ParameterError(
                    f"{key} must be distinct names, each non-empty and free of commas,"
                    f" quotes, newlines and surrounding whitespace, got {names}"
                )


def cmd_synth(args: argparse.Namespace) -> int:
    spec = decode(SynthSpec, read_json(args.spec))
    seed = args.seed if args.seed is not None else 0
    bar_rows: list[str] = []
    label_rows: list[str] = []
    meta_rows: list[str] = []
    for symbol in spec.symbols:
        sub_seed = engine_mod.symbol_seed(seed, "synth", symbol)
        price = spec.start_price * (1.0 + (sub_seed % 97) / 97.0)
        bars, labels = synth_regime_series(
            sub_seed, spec.n_bars, spec.regimes, spec.transition,
            start_price=price, start_date=spec.start_date,
        )
        columns = (bars.open, bars.high, bars.low, bars.close, bars.volume, labels)
        for day, open_, high, low, close, volume, label in zip(
            bars.days.tolist(), *(column.tolist() for column in columns)
        ):
            day = date.fromordinal(day).isoformat()
            bar_rows.append(f"{symbol},{day},{open_!r},{high!r},{low!r},{close!r},{int(volume)}")
            label_rows.append(f"{symbol},{day},{label}")
        shares = 1_000_000 + (sub_seed % 1_000) * 250_000
        meta_rows.append(f"{symbol},{spec.sector},{shares}")

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, header, rows in (
        ("bars.csv", BAR_CSV_HEADER, bar_rows),
        ("meta.csv", META_CSV_HEADER, meta_rows),
        ("regimes.csv", ["symbol", "date", "regime"], label_rows),
    ):
        (out_dir / name).write_text(",".join(header) + "\n" + "\n".join(rows) + "\n")
    print(f"wrote {len(spec.symbols)} symbol(s) x {spec.n_bars} bars to {out_dir}")
    return EXIT_OK


def _read_equity_csv(path: Path) -> tuple[list[date], list[float]]:
    try:
        lines = path.read_text().strip().splitlines()
    except OSError as exc:
        raise DuotraderError(f"cannot read equity curve {path}: {exc}") from exc
    if not lines or lines[0] != "date,equity":
        raise DuotraderError(f"{path}: expected header 'date,equity'")
    dates, values = [], []
    for lineno, line in enumerate(lines[1:], start=2):
        try:
            day, value = line.split(",")
            day, value = date.fromisoformat(day), float(value)
        except ValueError as exc:
            raise DuotraderError(f"{path}:{lineno}: bad equity row: {exc}") from exc
        if not math.isfinite(value):
            raise DuotraderError(f"{path}:{lineno}: bad equity row: equity {value} is not finite")
        if value <= 0:
            raise DuotraderError(f"{path}:{lineno}: bad equity row: equity {value} is not positive")
        if dates and day <= dates[-1]:
            raise DuotraderError(f"{path}:{lineno}: bad equity row: {day} not after {dates[-1]}")
        dates.append(day)
        values.append(value)
    return dates, values


def _read_fills_jsonl(path: Path, dates: list[date]) -> list[engine_mod.Fill]:
    """The fills of a fills.jsonl, each dated within the span of the equity
    curve's ``dates``."""
    try:
        text = path.read_text()
    except OSError as exc:
        raise DuotraderError(f"cannot read fills {path}: {exc}") from exc
    fills = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
            fill = engine_mod.Fill(
                symbol=record["symbol"],
                side=record["side"],
                quantity=record["quantity"],
                price=float(record["price"]),
                fee=float(record["fee"]),
                timestamp=date.fromisoformat(record["date"]),
                reason=record.get("reason", "rebalance"),
            )
            # Refuse what backtest cannot write, so the report never
            # computes from an impossible fill.
            if not (isinstance(fill.symbol, str) and fill.symbol):
                raise ValueError(f"symbol {fill.symbol!r} is not a non-empty string")
            if not isinstance(fill.reason, str):
                raise ValueError(f"reason {fill.reason!r} is not a string")
            if not (dates and dates[0] <= fill.timestamp <= dates[-1]):
                raise ValueError(f"date {fill.timestamp} is outside the equity curve")
            if fill.side not in ("buy", "sell"):
                raise ValueError(f"side {fill.side!r} is not buy or sell")
            if type(fill.quantity) is not int or fill.quantity <= 0:
                raise ValueError(f"quantity {fill.quantity!r} is not a positive integer")
            if not (math.isfinite(fill.price) and fill.price > 0):
                raise ValueError(f"price {fill.price} is not finite and positive")
            if not (math.isfinite(fill.fee) and fill.fee >= 0):
                raise ValueError(f"fee {fill.fee} is not finite and non-negative")
            fills.append(fill)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise DuotraderError(f"{path}:{lineno}: bad fill record: {exc}") from exc
    return fills


def cmd_report(args: argparse.Namespace) -> int:
    dates, values = _read_equity_csv(Path(args.equity))
    fills = _read_fills_jsonl(Path(args.fills), dates)
    benchmark = _benchmark_bars(args.benchmark) if args.benchmark else None
    report = metrics.compute_report(
        dates, values, fills, risk_free_rate=args.risk_free,
        **engine_mod.align_benchmark(benchmark, dates),
    )
    _write_report(Path(args.out), report)
    _print_summary(report)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="duotrader",
        description="dual-model regime/trend backtester with Black-Litterman allocation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_back = sub.add_parser("backtest", help="run a backtest from a config file")
    p_back.add_argument("--config", required=True, help="JSON run configuration")
    p_back.add_argument("--seed", type=int, default=None, help="override the global seed")
    p_back.add_argument("--out-dir", default=None, help="override the output directory")
    p_back.add_argument("--benchmark", default=None, help="benchmark bar CSV")
    p_back.add_argument(
        "--set", action="append", metavar="KEY=VALUE",
        help="override any config field by dotted path (repeatable)",
    )
    p_back.set_defaults(func=cmd_backtest)

    p_synth = sub.add_parser("synth", help="generate synthetic bar/metadata CSVs")
    p_synth.add_argument("--spec", required=True, help="JSON synth spec")
    p_synth.add_argument("--out-dir", required=True, help="directory for the CSVs")
    p_synth.add_argument("--seed", type=int, default=None, help="generator seed")
    p_synth.set_defaults(func=cmd_synth)

    p_rep = sub.add_parser("report", help="recompute report.json from artifacts")
    p_rep.add_argument("--equity", required=True, help="equity_curve.csv path")
    p_rep.add_argument("--fills", required=True, help="fills.jsonl path")
    p_rep.add_argument("--benchmark", default=None, help="benchmark bar CSV")
    p_rep.add_argument("--risk-free", type=float, default=0.0, help="annual risk-free rate")
    p_rep.add_argument("--out", default="report.json", help="output path")
    p_rep.set_defaults(func=cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DuotraderError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
