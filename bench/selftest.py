"""Self-test of the benchmark's checks.

    python3 bench/selftest.py

Runs one small traced backtest (6 symbols x 300 bars) through the same
repetition script the benchmark uses, confirms its artifacts pass every
check, then confirms that each of these alterations is rejected:

  - one fill's price moved by a cent
  - one fill's fee raised by a quarter
  - one equity point shifted by one unit of currency
  - one universe selection with two symbols swapped
  - one HMM fit whose log-likelihood path falls

It also confirms that the metric names the benchmark prints are the ones
BENCHMARK.json lists. Exits 0 when everything holds, 1 otherwise.
"""

from __future__ import annotations

import copy
import json
import shutil
import sys

import checks
import gen
import run

SEED = 5


def main() -> int:
    work = run.HERE / "work" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    try:
        return _run(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(work) -> int:
    market = gen.make_market(SEED, 6, 300, (("Energy", 0.67), ("Technology", 0.33)))
    config = run.make_config(
        {
            "universe": {"fine_count": 3, "coarse_count": 5},
            "engine": {"warmup_bars": 150, "window_bars": 100},
        },
        SEED,
        gen.write_csvs(market, work / "data"),
    )
    session = run.Session(market, config, work)
    record = session.spawn("rep", ["--trace"])
    if record is None:
        print("FAIL: the backtest did not complete:", *session.errors, sep="\n  ")
        return 1
    art = checks.read_artifacts(work / "rep")
    trace = record["trace"]

    outcomes = []

    def expect(label: str, errors: list[str], rejected: bool) -> None:
        ok = bool(errors) == rejected
        outcomes.append(ok)
        verdict = "rejected" if errors else "accepted"
        print(f"{'PASS' if ok else 'FAIL'}: {label}: {verdict}")

    expect("unaltered backtest", checks.check_backtest(market, config, art), False)
    expect("unaltered trace", checks.check_trace(market, config, trace), False)
    if not art["fills"] or not trace["selections"] or not trace["ll_paths"]:
        print("FAIL: the small backtest made no fills, selections or fits to alter")
        return 1

    middle = len(art["fills"]) // 2
    for label, field, delta in (("fill price", "price", 0.01), ("fill fee", "fee", 0.25)):
        altered = copy.deepcopy(art)
        altered["fills"][middle][field] += delta
        expect(f"{label} altered", checks.check_backtest(market, config, altered), True)

    altered = copy.deepcopy(art)
    altered["equity"][len(altered["equity"]) * 3 // 4] += 1.0
    expect("equity point shifted", checks.check_backtest(market, config, altered), True)

    altered = copy.deepcopy(trace)
    chosen = altered["selections"][-1][1]
    chosen[0], chosen[-1] = chosen[-1], chosen[0]
    expect("universe selection swapped", checks.check_trace(market, config, altered), True)

    altered = copy.deepcopy(trace)
    altered["ll_paths"][0][-1] = altered["ll_paths"][0][-2] - 1.0
    expect("log-likelihood falls", checks.check_trace(market, config, altered), True)

    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    printed = set(run.layer_metrics(trace, 1.0, 0.5, 1.0)) | set(run.END_TO_END)
    listed = {m["name"] for m in declared["end_to_end"] + declared["per_layer"]}
    same = printed == listed
    outcomes.append(same)
    print(f"{'PASS' if same else 'FAIL'}: metric names match BENCHMARK.json"
          + ("" if same else f": {sorted(printed ^ listed)}"))
    return 0 if all(outcomes) else 1


if __name__ == "__main__":
    sys.exit(main())
