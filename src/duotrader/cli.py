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
import sys
import zlib
from datetime import date
from pathlib import Path

from . import engine as engine_mod
from . import metrics
from .errors import ConfigError, DuotraderError
from .marketdata import (
    BAR_CSV_HEADER,
    META_CSV_HEADER,
    Bar,
    ingest_csv,
    ingest_meta_csv,
    synth_regime_series,
)
from .runconfig import load_config

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


def _json_line(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True)


def _write_report(path: Path, report: metrics.MetricsReport) -> None:
    path.write_text(json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n")


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
        path.write_text("".join(_json_line(r) + "\n" for r in records))
        paths.append(path)

    report_path = out_dir / "report.json"
    _write_report(report_path, result.report)
    paths.append(report_path)

    config_path = out_dir / "resolved_config.json"
    config_path.write_text(json.dumps(resolved, sort_keys=True, indent=2) + "\n")
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


def _benchmark_bars(path: str) -> list[Bar]:
    """The bars of a one-symbol benchmark CSV, oldest first. Rejected rows
    are reported on stderr."""
    ingested = ingest_csv(path)
    _print_ingest_notes(ingested)
    series = ingested.bars_by_symbol
    if len(series) > 1:
        raise DuotraderError(f"{path}: a benchmark file holds one symbol, got {', '.join(series)}")
    return [b for symbol, bars in series.items() for b in bars.to_bars(symbol)]


def cmd_backtest(args: argparse.Namespace) -> int:
    overrides: dict[str, object] = {}
    for item in args.set or []:
        key, value = _parse_override(item)
        overrides[key] = value
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
    benchmark_bars = None
    if config.data.benchmark:
        benchmark_bars = _benchmark_bars(config.data.benchmark)

    result = engine_mod.run_backtest(
        bars.bars_by_symbol,
        meta,
        config.universe,
        config.hmm,
        config.mlp,
        config.fusion,
        config.bl,
        config.risk,
        config.engine,
        benchmark_bars=benchmark_bars,
    )

    out_dir = Path(config.out_dir)
    paths = _write_outputs(out_dir, result, config.resolved())
    for path in paths:
        if not path.exists():
            print(f"output missing: {path}", file=sys.stderr)
            return EXIT_DATA
    json.loads((out_dir / "report.json").read_text())  # validate

    _print_summary(result.report)
    print(f"\nwrote {len(paths)} artifact(s) to {out_dir}")
    return EXIT_OK


def cmd_synth(args: argparse.Namespace) -> int:
    spec_path = Path(args.spec)
    try:
        spec = json.loads(spec_path.read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read synth spec {spec_path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{spec_path}: invalid JSON: {exc.msg}") from exc

    allowed = {
        "symbols", "n_bars", "regimes", "transition",
        "start_price", "start_date", "sector",
    }
    unknown = set(spec) - allowed
    if unknown:
        raise ConfigError(f"unknown synth spec key(s): {', '.join(sorted(unknown))}")

    symbols = spec.get("symbols", 5)
    if isinstance(symbols, int):
        symbols = [f"SYN{i:02d}" for i in range(symbols)]
    n_bars = int(spec.get("n_bars", 504))
    regimes = [tuple(r) for r in spec.get("regimes", [[0.0003, 0.01]])]
    transition = spec.get("transition", [[1.0]])
    start_price = float(spec.get("start_price", 100.0))
    start_date = date.fromisoformat(spec.get("start_date", "2015-01-02"))
    sector = spec.get("sector", "Energy")
    seed = args.seed if args.seed is not None else 0

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    bar_rows: list[str] = []
    label_rows: list[str] = []
    meta_rows: list[str] = []
    for symbol in symbols:
        sub_seed = (seed ^ zlib.crc32(f"synth:{symbol}".encode())) % 2**31
        price = start_price * (1.0 + (sub_seed % 97) / 97.0)
        bars, labels = synth_regime_series(
            sub_seed, n_bars, regimes, transition,
            symbol=symbol, start_price=price, start_date=start_date,
        )
        for bar, label in zip(bars, labels):
            bar_rows.append(
                f"{bar.symbol},{bar.timestamp.isoformat()},{bar.open!r},"
                f"{bar.high!r},{bar.low!r},{bar.close!r},{bar.volume}"
            )
            label_rows.append(f"{bar.symbol},{bar.timestamp.isoformat()},{label}")
        shares = 1_000_000 + (sub_seed % 1_000) * 250_000
        meta_rows.append(f"{symbol},{sector},{shares}")

    (out_dir / "bars.csv").write_text(
        ",".join(BAR_CSV_HEADER) + "\n" + "\n".join(bar_rows) + "\n"
    )
    (out_dir / "meta.csv").write_text(
        ",".join(META_CSV_HEADER) + "\n" + "\n".join(meta_rows) + "\n"
    )
    (out_dir / "regimes.csv").write_text(
        "symbol,date,regime\n" + "\n".join(label_rows) + "\n"
    )
    print(f"wrote {len(symbols)} symbol(s) x {n_bars} bars to {out_dir}")
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
            dates.append(date.fromisoformat(day))
            values.append(float(value))
        except ValueError as exc:
            raise DuotraderError(f"{path}:{lineno}: bad equity row: {exc}") from exc
    return dates, values


def _read_fills_jsonl(path: Path) -> list[engine_mod.Fill]:
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
            fills.append(
                engine_mod.Fill(
                    symbol=record["symbol"],
                    side=record["side"],
                    quantity=int(record["quantity"]),
                    price=float(record["price"]),
                    fee=float(record["fee"]),
                    timestamp=date.fromisoformat(record["date"]),
                    reason=record.get("reason", "rebalance"),
                )
            )
        except (json.JSONDecodeError, KeyError, ValueError) as exc:
            raise DuotraderError(f"{path}:{lineno}: bad fill record: {exc}") from exc
    return fills


def cmd_report(args: argparse.Namespace) -> int:
    dates, values = _read_equity_csv(Path(args.equity))
    fills = _read_fills_jsonl(Path(args.fills))
    benchmark_returns = benchmark_end = benchmark_start = None
    if args.benchmark:
        bars = _benchmark_bars(args.benchmark)
        benchmark_returns = engine_mod.align_benchmark_returns(bars, dates)
        bench_dates = [b.timestamp for b in bars]
        benchmark_end = max(bench_dates, default=None)
        benchmark_start = min(bench_dates, default=None)
    report = metrics.compute_report(
        dates, values, fills, benchmark_returns, args.risk_free, benchmark_end, benchmark_start
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
