import json
from pathlib import Path

import pytest

from duotrader.cli import main

SYNTH_SPEC = {
    "symbols": 4,
    "n_bars": 180,
    "regimes": [[0.0012, 0.008], [-0.0015, 0.018]],
    "transition": [[0.96, 0.04], [0.05, 0.95]],
}

RUN_CONFIG = {
    "universe": {"fine_count": 3},
    "hmm": {"n_states": 2},
    "mlp": {"epochs": 2},
    "bl": {"covariance_lookback": 40},
    "engine": {
        "warmup_bars": 80,
        "retrain_every": 15,
        "rebalance_every": 15,
        "window_bars": 60,
    },
}

OUTPUT_FILES = [
    "equity_curve.csv", "fills.jsonl", "insights.jsonl",
    "risk_events.jsonl", "report.json", "fits.jsonl",
]


def write_json(path: Path, payload: dict) -> Path:
    path.write_text(json.dumps(payload))
    return path


def run_synth(tmp_path, seed=7, spec=None):
    tmp_path.mkdir(parents=True, exist_ok=True)
    spec_path = write_json(tmp_path / "synth.json", spec or SYNTH_SPEC)
    data_dir = tmp_path / "data"
    code = main(["synth", "--spec", str(spec_path), "--out-dir", str(data_dir), "--seed", str(seed)])
    assert code == 0
    return data_dir


def write_run_config(tmp_path, data_dir, out_dir, extra=None):
    payload = dict(RUN_CONFIG)
    payload.update(extra or {})
    payload["data"] = {"bars": str(data_dir / "bars.csv"), "meta": str(data_dir / "meta.csv")}
    payload["out_dir"] = str(out_dir)
    return write_json(tmp_path / "run.json", payload)


class TestSynth:
    def test_row_counts(self, tmp_path):
        spec = dict(SYNTH_SPEC, symbols=2, n_bars=100)
        data_dir = run_synth(tmp_path, spec=spec)
        lines = (data_dir / "bars.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 200
        assert lines[0] == "symbol,date,open,high,low,close,volume"
        meta_lines = (data_dir / "meta.csv").read_text().strip().splitlines()
        assert len(meta_lines) == 1 + 2
        regime_lines = (data_dir / "regimes.csv").read_text().strip().splitlines()
        assert len(regime_lines) == 1 + 200

    def test_same_seed_identical_files(self, tmp_path):
        a = run_synth(tmp_path / "a", seed=9)
        b = run_synth(tmp_path / "b", seed=9)
        for name in ("bars.csv", "meta.csv", "regimes.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_invalid_transition_nonzero_exit(self, tmp_path, capsys):
        spec = dict(SYNTH_SPEC, transition=[[0.5, 0.2], [0.5, 0.5]])
        spec_path = write_json(tmp_path / "synth.json", spec)
        code = main(["synth", "--spec", str(spec_path), "--out-dir", str(tmp_path / "d")])
        assert code != 0

    def test_unknown_spec_key(self, tmp_path):
        spec_path = write_json(tmp_path / "synth.json", dict(SYNTH_SPEC, wat=1))
        code = main(["synth", "--spec", str(spec_path), "--out-dir", str(tmp_path / "d")])
        assert code == 2


class TestBacktest:
    def test_happy_path_writes_outputs(self, tmp_path):
        data_dir = run_synth(tmp_path)
        out_dir = tmp_path / "out"
        config = write_run_config(tmp_path, data_dir, out_dir)
        code = main(["backtest", "--config", str(config), "--seed", "5"])
        assert code == 0
        for name in OUTPUT_FILES:
            assert (out_dir / name).exists(), name
        assert (out_dir / "resolved_config.json").exists()
        report = json.loads((out_dir / "report.json").read_text())
        assert report["start_equity"] == 100000.0

    def test_fits_log(self, tmp_path):
        data_dir = run_synth(tmp_path)
        out_dir = tmp_path / "out"
        config = write_run_config(tmp_path, data_dir, out_dir)
        assert main(["backtest", "--config", str(config), "--seed", "5"]) == 0
        records = [json.loads(line) for line in (out_dir / "fits.jsonl").read_text().splitlines()]
        hmm = [r for r in records if r["model"] == "hmm"]
        mlp = [r for r in records if r["model"] == "mlp"]
        assert hmm and len(hmm) == len(mlp)
        for record in hmm:
            assert set(record) == {
                "date", "symbol", "model", "iterations", "converged",
                "variance_floored", "log_likelihood_path",
            }
            path = record["log_likelihood_path"]
            assert len(path) == record["iterations"] + 1
            assert all(b >= a - 1e-9 * abs(a) for a, b in zip(path, path[1:]))
        for record in mlp:
            assert set(record) == {"date", "symbol", "model", "loss_history"}
            assert len(record["loss_history"]) == RUN_CONFIG["mlp"]["epochs"]

    def test_benchmark_flag_wires_through(self, tmp_path):
        data_dir = run_synth(tmp_path)
        bench_dir = run_synth(tmp_path / "bench", seed=99, spec=dict(SYNTH_SPEC, symbols=1))
        out_dir = tmp_path / "out"
        config = write_run_config(tmp_path, data_dir, out_dir)
        code = main([
            "backtest", "--config", str(config),
            "--benchmark", str(bench_dir / "bars.csv"),
        ])
        assert code == 0
        report = json.loads((out_dir / "report.json").read_text())
        assert "no-benchmark" not in report["flags"]
        assert "benchmark-ends-early" not in report["flags"]
        assert "benchmark-starts-late" not in report["flags"]
        resolved = json.loads((out_dir / "resolved_config.json").read_text())
        assert resolved["data"]["benchmark"].endswith("bars.csv")

    def test_rejected_benchmark_rows_reported(self, tmp_path, capsys):
        data_dir = run_synth(tmp_path)
        bench_dir = run_synth(tmp_path / "bench", seed=99, spec=dict(SYNTH_SPEC, symbols=1))
        bench = bench_dir / "bars.csv"
        lines = bench.read_text().splitlines(keepends=True)
        fields = lines[5].split(",")
        fields[5] = "abc"  # the close
        lines[5] = ",".join(fields)
        bench.write_text("".join(lines))
        out_dir = tmp_path / "out"
        config = write_run_config(tmp_path, data_dir, out_dir)
        capsys.readouterr()
        assert main(["backtest", "--config", str(config), "--benchmark", str(bench)]) == 0
        err = capsys.readouterr().err
        assert f"[ingest] {bench}:6: could not convert string to float: 'abc'" in err
        assert "[ingest] rejected 1 row(s)" in err
        code = main([
            "report",
            "--equity", str(out_dir / "equity_curve.csv"),
            "--fills", str(out_dir / "fills.jsonl"),
            "--benchmark", str(bench),
            "--out", str(tmp_path / "report2.json"),
        ])
        assert code == 0
        err = capsys.readouterr().err
        assert f"[ingest] {bench}:6: could not convert string to float: 'abc'" in err
        assert "[ingest] rejected 1 row(s)" in err

    def test_benchmark_ending_early_flagged(self, tmp_path):
        data_dir = run_synth(tmp_path)
        short = dict(SYNTH_SPEC, symbols=1, n_bars=SYNTH_SPEC["n_bars"] - 30)
        bench = run_synth(tmp_path / "bench", seed=99, spec=short) / "bars.csv"
        out_dir = tmp_path / "out"
        config = write_run_config(tmp_path, data_dir, out_dir)
        assert main(["backtest", "--config", str(config), "--benchmark", str(bench)]) == 0
        report = json.loads((out_dir / "report.json").read_text())
        assert "benchmark-ends-early" in report["flags"]
        redo = tmp_path / "report2.json"
        code = main([
            "report",
            "--equity", str(out_dir / "equity_curve.csv"),
            "--fills", str(out_dir / "fills.jsonl"),
            "--benchmark", str(bench),
            "--out", str(redo),
        ])
        assert code == 0
        assert redo.read_bytes() == (out_dir / "report.json").read_bytes()

    def test_benchmark_starting_late_flagged(self, tmp_path):
        data_dir = run_synth(tmp_path)
        spec = dict(SYNTH_SPEC, symbols=1)
        bench = run_synth(tmp_path / "bench", seed=99, spec=spec) / "bars.csv"
        lines = bench.read_text().splitlines(keepends=True)
        bench.write_text(lines[0] + "".join(lines[31:]))  # drop the first 30 bars
        out_dir = tmp_path / "out"
        config = write_run_config(tmp_path, data_dir, out_dir)
        assert main(["backtest", "--config", str(config), "--benchmark", str(bench)]) == 0
        report = json.loads((out_dir / "report.json").read_text())
        assert "benchmark-starts-late" in report["flags"]
        assert "benchmark-ends-early" not in report["flags"]
        redo = tmp_path / "report2.json"
        code = main([
            "report",
            "--equity", str(out_dir / "equity_curve.csv"),
            "--fills", str(out_dir / "fills.jsonl"),
            "--benchmark", str(bench),
            "--out", str(redo),
        ])
        assert code == 0
        assert redo.read_bytes() == (out_dir / "report.json").read_bytes()

    def test_multi_symbol_benchmark_exit_1(self, tmp_path, capsys):
        # Two symbols' closes keyed by date would interleave into one
        # benchmark series, so both commands refuse the file.
        data_dir = run_synth(tmp_path)
        bench_dir = run_synth(tmp_path / "bench", seed=99, spec=dict(SYNTH_SPEC, symbols=2))
        bench = str(bench_dir / "bars.csv")
        out_dir = tmp_path / "out"
        config = write_run_config(tmp_path, data_dir, out_dir)
        assert main(["backtest", "--config", str(config), "--benchmark", bench]) == 1
        assert "holds one symbol, got SYN00, SYN01" in capsys.readouterr().err
        assert main(["backtest", "--config", str(config)]) == 0
        code = main([
            "report",
            "--equity", str(out_dir / "equity_curve.csv"),
            "--fills", str(out_dir / "fills.jsonl"),
            "--benchmark", bench,
            "--out", str(tmp_path / "report2.json"),
        ])
        assert code == 1
        assert "holds one symbol, got SYN00, SYN01" in capsys.readouterr().err

    def test_seed_determinism(self, tmp_path):
        data_dir = run_synth(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        config = write_run_config(tmp_path, data_dir, out_a)
        assert main(["backtest", "--config", str(config), "--seed", "7"]) == 0
        assert main([
            "backtest", "--config", str(config), "--seed", "7",
            "--out-dir", str(out_b),
        ]) == 0
        assert (out_a / "report.json").read_bytes() == (out_b / "report.json").read_bytes()
        assert (out_a / "fills.jsonl").read_bytes() == (out_b / "fills.jsonl").read_bytes()

    def test_missing_data_file_names_path(self, tmp_path, capsys):
        config = write_json(tmp_path / "run.json", {
            "data": {"bars": str(tmp_path / "nope.csv"), "meta": str(tmp_path / "meta.csv")},
        })
        code = main(["backtest", "--config", str(config)])
        assert code == 1
        assert "nope.csv" in capsys.readouterr().err

    def test_unparsable_metadata_exit_1(self, tmp_path, capsys):
        data_dir = run_synth(tmp_path)
        meta = data_dir / "meta.csv"
        meta.write_text(meta.read_text().replace(",Energy,", ",Energy,abc", 1))
        config = write_run_config(tmp_path, data_dir, tmp_path / "out")
        code = main(["backtest", "--config", str(config)])
        assert code == 1
        assert "meta.csv:2: invalid shares_outstanding" in capsys.readouterr().err

    def test_unknown_config_key_exit_2(self, tmp_path, capsys):
        config = write_json(tmp_path / "run.json", {"tpyo": 1})
        code = main(["backtest", "--config", str(config)])
        assert code == 2
        assert "tpyo" in capsys.readouterr().err

    def test_unknown_section_key_exit_2(self, tmp_path, capsys):
        config = write_json(tmp_path / "run.json", {"engine": {"warmup": 10}})
        code = main(["backtest", "--config", str(config)])
        assert code == 2
        assert "warmup" in capsys.readouterr().err

    @pytest.mark.parametrize("section", ["engine", "hmm", "mlp"])
    def test_engine_seed_key_rejected(self, tmp_path, capsys, section):
        # Per-symbol seeds derive from the top-level seed; a section seed
        # would change nothing, so it is refused from a file and from --set.
        config = write_json(tmp_path / "run.json", {section: {"seed": 4}})
        assert main(["backtest", "--config", str(config)]) == 2
        assert f"{section}.seed" in capsys.readouterr().err
        config = write_json(tmp_path / "run.json", {})
        assert main(["backtest", "--config", str(config), "--set", f"{section}.seed=4"]) == 2
        assert f"{section}.seed" in capsys.readouterr().err

    def test_dotted_override_applies(self, tmp_path):
        data_dir = run_synth(tmp_path)
        out_dir = tmp_path / "out"
        config = write_run_config(tmp_path, data_dir, out_dir)
        code = main([
            "backtest", "--config", str(config),
            "--set", "engine.warmup_bars=9999",
        ])
        assert code == 0
        resolved = json.loads((out_dir / "resolved_config.json").read_text())
        assert resolved["engine"]["warmup_bars"] == 9999
        assert (out_dir / "fills.jsonl").read_text() == ""  # warm-up never ends

    def test_resolved_config_records_defaults_and_overrides(self, tmp_path):
        data_dir = run_synth(tmp_path)
        out_dir = tmp_path / "out"
        config = write_run_config(tmp_path, data_dir, out_dir)
        assert main(["backtest", "--config", str(config), "--seed", "13"]) == 0
        resolved = json.loads((out_dir / "resolved_config.json").read_text())
        assert resolved["seed"] == 13
        assert resolved["bl"]["risk_aversion"] == 2.5   # default preserved
        assert resolved["engine"]["warmup_bars"] == 80  # file value preserved
        assert resolved["hmm"]["n_states"] == 2


class TestReport:
    def make_run(self, tmp_path):
        data_dir = run_synth(tmp_path)
        out_dir = tmp_path / "out"
        config = write_run_config(tmp_path, data_dir, out_dir)
        assert main(["backtest", "--config", str(config), "--seed", "3"]) == 0
        return out_dir

    def test_idempotent_recompute(self, tmp_path):
        out_dir = self.make_run(tmp_path)
        redo = tmp_path / "report2.json"
        code = main([
            "report",
            "--equity", str(out_dir / "equity_curve.csv"),
            "--fills", str(out_dir / "fills.jsonl"),
            "--out", str(redo),
        ])
        assert code == 0
        assert redo.read_bytes() == (out_dir / "report.json").read_bytes()

    def test_truncated_fills_nonzero_exit(self, tmp_path, capsys):
        out_dir = self.make_run(tmp_path)
        fills_path = out_dir / "fills.jsonl"
        text = fills_path.read_text()
        assert text  # need at least one fill for a meaningful truncation
        fills_path.write_text(text[: len(text) // 2].rsplit("\n", 1)[0][:-5])
        code = main([
            "report",
            "--equity", str(out_dir / "equity_curve.csv"),
            "--fills", str(fills_path),
            "--out", str(tmp_path / "r.json"),
        ])
        assert code == 1

    def test_constant_equity_zero_return(self, tmp_path):
        equity = tmp_path / "equity_curve.csv"
        equity.write_text(
            "date,equity\n" + "".join(
                f"2020-01-{d:02d},100000.0\n" for d in range(1, 8)
            )
        )
        fills = tmp_path / "fills.jsonl"
        fills.write_text("")
        out = tmp_path / "r.json"
        code = main(["report", "--equity", str(equity), "--fills", str(fills), "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["total_return"] == 0.0

    def test_bad_equity_schema(self, tmp_path):
        equity = tmp_path / "equity_curve.csv"
        equity.write_text("when,value\n2020-01-01,5\n")
        fills = tmp_path / "fills.jsonl"
        fills.write_text("")
        code = main(["report", "--equity", str(equity), "--fills", str(fills)])
        assert code == 1
