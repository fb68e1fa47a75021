"""One benchmark repetition, run as a fresh process.

Runs ``duotrader backtest --config <config>`` in-process through the
program's own CLI entry point, so the work is exactly what a user's command
does: config load, bar/metadata/benchmark CSV ingest, the engine, and the
artifact writes. ``engine.run_backtest`` is wrapped once to split the time
into set-up (everything before the engine starts) and the engine call.

    python3 bench/rep.py --config CONFIG --result RESULT.json [--trace] [--setup-only]

``--trace`` installs the per-module tracer before anything runs.
``--setup-only`` stops at the engine's door, for extra set-up samples.
The result file holds the timings, the peak resident memory of this process
and, when traced, the tracer's summary.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class _SetupDone(Exception):
    """Raised at the engine's door in --setup-only mode."""


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import duotrader
    from duotrader import cli, engine

    if Path(duotrader.__file__).resolve().parent != SRC / "duotrader":
        print(f"duotrader imported from {duotrader.__file__}, not {SRC}", file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    timings: dict[str, float] = {}
    run_backtest = engine.run_backtest

    def timed_run_backtest(*a, **kw):
        timings["setup_s"] = time.perf_counter() - start
        if args.setup_only:
            raise _SetupDone
        covered_before = tracer.covered_s if tracer else 0.0
        began = time.perf_counter()
        result = run_backtest(*a, **kw)
        timings["backtest_s"] = time.perf_counter() - began
        if tracer:
            timings["covered_s"] = tracer.covered_s - covered_before
        return result

    engine.run_backtest = timed_run_backtest
    start = time.perf_counter()
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        try:
            code = cli.main(["backtest", "--config", args.config])
        except _SetupDone:
            code = 0
    if code != 0:
        return code

    record = dict(timings)
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        record["trace"] = tracer.summary()
    Path(args.result).write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
