"""Backtest benchmark for duotrader.

    python3 bench/run.py --workload {acceptance,daily,wide,all} --seed N \
        --seconds S --trace {0,1}

Generates the workload's market from ``--seed`` (bench/gen.py), writes it as
bar, metadata and benchmark CSVs, and runs ``duotrader backtest`` on them,
one fresh process per repetition (bench/rep.py). Every repetition's
artifacts are checked apart from the program (bench/checks.py).

``--trace 0`` repeats the backtest until ``--seconds`` have passed (at least
once), takes extra set-up-only samples until there are SETUP_SAMPLES, and
reports the medians of the end-to-end metrics. ``--trace 1`` runs one
untraced and one traced repetition and reports the per-module metrics of the
traced one (bench/tracer.py). ``--workload all`` runs every workload, traced
and untraced. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; a backtest that
raised or failed a check counts as failed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import gen

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PROGRAM = ROOT / "src" / "duotrader" / "__init__.py"
SETUP_SAMPLES = 3
REP_TIMEOUT_S = 170

N_BARS = 1260
ENERGY_ONLY = (("Energy", 1.0),)
WIDE_SECTORS = (
    ("Energy", 0.12), ("Technology", 0.24), ("Financials", 0.20),
    ("Health Care", 0.16), ("Industrials", 0.16), ("Utilities", 0.12),
)
# Every value the checks depend on is stated here instead of being left to
# the program's defaults; the rest of each config is the program's default.
BASE_CONFIG = {
    "universe": {"coarse_count": 100, "fine_count": 20, "sector": "Energy", "liquidity_lookback": 30},
    "bl": {"max_weight": 0.20},
    "engine": {
        "initial_equity": 100000.0, "warmup_bars": 756, "retrain_every": 21,
        "rebalance_every": 21, "per_share_fee": 0.005, "min_fee": 1.0,
        "risk_free_rate": 0.0,
    },
}
WORKLOADS = {
    # ROADMAP headline scale; monthly refits make it the model-training workload.
    "acceptance": {"symbols": 20, "sectors": ENERGY_ONLY, "config": {}},
    # Rebalancing every bar: HMM forward recursion for inference, BL, fills,
    # risk overlays and the report do their most work. Run by hand only; see
    # bench/README.md for why BENCHMARK.json does not list it.
    "daily": {
        "symbols": 20, "sectors": ENERGY_ONLY,
        "config": {"engine": {"rebalance_every": 1, "retrain_every": 252}},
    },
    # Hundreds of candidates, Energy a minority: ingest, universe selection
    # and the engine loop dominate; the models do little.
    "wide": {
        "symbols": 400, "sectors": WIDE_SECTORS,
        "config": {"universe": {"fine_count": 10}, "engine": {"retrain_every": 252}},
    },
}

END_TO_END = {"setup_s": "s", "backtest_s": "s", "peak_rss_mb": "MB"}


def layer_metrics(trace: dict, backtest_s: float, covered_s: float, untraced_s: float) -> dict:
    calls, group_s, counters = trace["calls"], trace["group_s"], trace["counters"]

    def share(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    fuse_calls = calls.get("alpha_fusion.fuse", 0)
    execute_calls = calls.get("engine.execute", 0)
    values = {
        "marketdata.ingest_csv.s": (group_s.get("marketdata.ingest_csv", 0.0), "s"),
        "marketdata.ingest_csv.rows": (counters.get("ingest_rows", 0), "count"),
        "marketdata.RollingWindow.s": (group_s.get("marketdata.RollingWindow", 0.0), "s"),
        "marketdata.log_returns.calls": (calls.get("marketdata.log_returns", 0), "count"),
        "universe.select_universe.s": (group_s.get("universe.select_universe", 0.0), "s"),
        "universe.select_universe.calls": (calls.get("universe.select_universe", 0), "count"),
        "regime_hmm.fit.s": (group_s.get("regime_hmm.fit", 0.0), "s"),
        "regime_hmm.fit.calls": (calls.get("regime_hmm.fit", 0), "count"),
        "regime_hmm.fit.em_iterations": (counters.get("em_iterations", 0), "count"),
        "regime_hmm.forward_posterior.s": (group_s.get("regime_hmm.forward_posterior", 0.0), "s"),
        "regime_hmm.forward_posterior.calls": (calls.get("regime_hmm.forward_posterior", 0), "count"),
        "trend_net.train.s": (group_s.get("trend_net.train", 0.0), "s"),
        "trend_net.train.calls": (calls.get("trend_net.train", 0), "count"),
        "trend_net.train.adam_steps": (counters.get("adam_steps", 0), "count"),
        "trend_net.predict_direction.s": (group_s.get("trend_net.predict_direction", 0.0), "s"),
        "alpha_fusion.fuse.calls": (fuse_calls, "count"),
        "alpha_fusion.active_share": (share(counters.get("active_insights", 0), fuse_calls), "ratio"),
        "portfolio_bl.s": (group_s.get("portfolio_bl", 0.0), "s"),
        "portfolio_bl.posterior_returns.calls": (calls.get("portfolio_bl.posterior_returns", 0), "count"),
        "risk_controls.update_and_check.s": (group_s.get("risk_controls.update_and_check", 0.0), "s"),
        "risk_controls.update_and_check.calls": (calls.get("risk_controls.update_and_check", 0), "count"),
        "risk_controls.liquidations": (counters.get("liquidations", 0), "count"),
        "engine.execute.s": (group_s.get("engine.execute", 0.0), "s"),
        "engine.execute.calls": (execute_calls, "count"),
        "engine.fill_share": (share(counters.get("fills", 0), execute_calls), "ratio"),
        "engine.self_s": (backtest_s - covered_s, "s"),
        "metrics.compute_report.s": (group_s.get("metrics.compute_report", 0.0), "s"),
        "trace.backtest_s": (backtest_s, "s"),
        "trace.overhead_s": (backtest_s - untraced_s, "s"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def make_config(overrides: dict, seed: int, data: dict[str, Path]) -> dict:
    """BASE_CONFIG with a workload's overrides, data paths and seed."""
    config = json.loads(json.dumps(BASE_CONFIG))
    for section, fields in overrides.items():
        config[section].update(fields)
    config["data"] = {key: str(path) for key, path in data.items()}
    config["seed"] = seed
    return config


class Session:
    """One workload run: generated inputs, repetitions and their checks."""

    def __init__(self, market: gen.Market, config: dict, work: Path):
        self.market = market
        self.config = config
        self.work = work
        self.attempted = self.failed = 0
        self.errors: list[str] = []
        self.fill_hashes: set[str] = set()
        self.samples: dict[str, list[float]] = {name: [] for name in END_TO_END}

    def spawn(self, tag: str, extra: list[str]) -> dict | None:
        """Run rep.py once with its own out_dir; return its result record, or
        None after recording why it failed."""
        out_dir = self.work / tag
        config_path = self.work / f"{tag}.json"
        config_path.write_text(json.dumps({**self.config, "out_dir": str(out_dir)}))
        result_path = self.work / f"{tag}.result.json"
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "rep.py"), "--config", str(config_path),
                 "--result", str(result_path), *extra],
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                timeout=REP_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            self.errors.append(f"{tag}: killed after {REP_TIMEOUT_S} s")
            return None
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-3:]
            self.errors.append(f"{tag}: exit {proc.returncode}: {' | '.join(tail)}")
            return None
        return json.loads(result_path.read_text())

    def backtest(self, traced: bool = False) -> dict | None:
        """One full repetition; returns its record if it ran and passed."""
        self.attempted += 1
        tag = f"rep{self.attempted}"
        record = self.spawn(tag, ["--trace"] if traced else [])
        problems = [] if record else ["did not complete"]
        if record:
            try:
                art = checks.read_artifacts(self.work / tag)
            except (OSError, ValueError, KeyError) as exc:
                art = None
                problems.append(f"artifacts unreadable: {exc!r}")
            if art:
                problems += checks.check_backtest(self.market, self.config, art)
                self.fill_hashes.add(art["fills_sha256"])
                if len(self.fill_hashes) > 1:
                    problems.append("fill log differs from an earlier repetition's")
            if traced:
                problems += checks.check_trace(self.market, self.config, record["trace"])
            shutil.rmtree(self.work / tag, ignore_errors=True)
        if problems:
            self.failed += 1
            self.errors += [f"{tag}: {p}" for p in problems]
            return None
        return record

    def setup_only(self) -> None:
        record = self.spawn(f"setup{len(self.samples['setup_s'])}", ["--setup-only"])
        if record:
            self.samples["setup_s"].append(record["setup_s"])

    def measure(self, seconds: float) -> dict:
        began = time.perf_counter()
        while self.attempted == 0 or time.perf_counter() - began < seconds:
            record = self.backtest()
            if record:
                for name, values in self.samples.items():
                    values.append(record[name])
            elif not self.samples["backtest_s"]:
                break
        if not self.samples["backtest_s"]:
            return {}
        while len(self.samples["setup_s"]) < SETUP_SAMPLES and not self.errors:
            self.setup_only()
        return {
            name: {"value": statistics.median(self.samples[name]), "unit": unit}
            for name, unit in END_TO_END.items()
        }

    def measure_traced(self) -> dict:
        plain = self.backtest()
        traced = self.backtest(traced=True)
        if not (plain and traced):
            return {}
        return layer_metrics(
            traced["trace"], traced["backtest_s"], traced["covered_s"], plain["backtest_s"]
        )


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    work = HERE / "work" / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    spec = WORKLOADS[name]
    market = gen.make_market(seed, spec["symbols"], N_BARS, spec["sectors"])
    try:
        config = make_config(spec["config"], seed, gen.write_csvs(market, work / "data"))
        session = Session(market, config, work)
        metrics = session.measure_traced() if trace else session.measure(seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for error in session.errors:
        print(f"[{name}] {error}", file=sys.stderr)
    return {
        "correct": not session.errors,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": metrics,
    }


def print_table(title: str, result: dict) -> None:
    print(f"== {title}: {result['attempted']} backtest(s) attempted, {result['failed']} failed")
    for name, metric in result["metrics"].items():
        print(f"  {name:<40} {metric['value']:>14.6g} {metric['unit']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="duotrader backtest benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into an exception so subprocess.run kills and reaps the
    # running repetition, and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not PROGRAM.is_file():
        print(f"program source not found at {PROGRAM}", file=sys.stderr)
        return 2

    if args.workload == "all":
        runs = [(name, trace) for name in WORKLOADS for trace in (False, True)]
    else:
        runs = [(args.workload, bool(args.trace))]
    results = {}
    for name, trace in runs:
        result = run_workload(name, args.seed, args.seconds, trace)
        results[(name, trace)] = result
        print_table(f"{name} ({'traced' if trace else 'untraced'})", result)

    if len(runs) == 1:
        final = results[runs[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{metric}": value
                for (name, _), r in results.items()
                for metric, value in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0 if final["metrics"] else 1


if __name__ == "__main__":
    sys.exit(main())
