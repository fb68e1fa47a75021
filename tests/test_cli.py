import hashlib
import json
from pathlib import Path

import pytest

from duotrader.cli import _json, main
from duotrader.errors import ConfigError
from duotrader.runconfig import load_config

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


def strict_loads(text: str):
    """json.loads that refuses the NaN and Infinity literals."""
    def refuse(name):
        raise ValueError(f"non-finite JSON constant {name}")
    return json.loads(text, parse_constant=refuse)


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

    # The README quick-start spec, and one whose first bar falls on its
    # start_date, a Saturday: the next bar is the Monday after it.
    README_SPEC = {
        "symbols": 8,
        "n_bars": 420,
        "regimes": [[0.0010, 0.009], [-0.0012, 0.018]],
        "transition": [[0.97, 0.03], [0.04, 0.96]],
    }
    SATURDAY_SPEC = {
        "symbols": ["ALPHA", "BETA"],
        "n_bars": 30,
        "start_date": "2016-01-02",
        "regimes": [[0.0005, 0.012]],
        "start_price": 40.0,
        "sector": "Utilities",
    }

    @pytest.mark.parametrize("spec, sha256", [
        (README_SPEC, {
            "bars.csv": "04c392a286e878156e86ffdde0be1bc40a96e1abbe33f37b0ac8f12dddb86ec9",
            "meta.csv": "05a8fb8416eabcde72b6301121ce783fb648ee2a463c99274d152d13dc73907e",
            "regimes.csv": "b80768b9d5800ed034799dfa109b0832d0b122abd929ec742eb0b9dd0c3fe1d7",
        }),
        (SATURDAY_SPEC, {
            "bars.csv": "dea02dcff1cb5444750f275e94eb4be7186b90419cdd2d8bc05c62895eb1cd8a",
            "meta.csv": "651389eb130ed346735b680467557cb3520345f29a9b9b948c929a67d3bdf57c",
            "regimes.csv": "3009200d68b16bef5d3ca1cc5debb3bc881ecd0d82b35e63c704fe85c1a869d7",
        }),
    ], ids=["readme", "saturday-start"])
    def test_pinned_files(self, tmp_path, spec, sha256):
        data_dir = run_synth(tmp_path, seed=7, spec=spec)
        assert {
            name: hashlib.sha256((data_dir / name).read_bytes()).hexdigest() for name in sha256
        } == sha256

    def test_invalid_transition_nonzero_exit(self, tmp_path, capsys):
        spec = dict(SYNTH_SPEC, transition=[[0.5, 0.2], [0.5, 0.5]])
        spec_path = write_json(tmp_path / "synth.json", spec)
        code = main(["synth", "--spec", str(spec_path), "--out-dir", str(tmp_path / "d")])
        assert code != 0

    def test_unknown_spec_key(self, tmp_path):
        spec_path = write_json(tmp_path / "synth.json", dict(SYNTH_SPEC, wat=1))
        code = main(["synth", "--spec", str(spec_path), "--out-dir", str(tmp_path / "d")])
        assert code == 2


def test_json_refuses_non_finite():
    # A non-finite value fails the write instead of becoming a bare NaN.
    for value in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            _json({"equity": value})


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
        # Every JSON and JSONL artifact is strict JSON: no NaN or Infinity.
        artifacts = sorted(out_dir.glob("*.json*"))
        assert len(artifacts) == 7
        for path in artifacts:
            text = path.read_text()
            for doc in [text] if path.suffix == ".json" else text.splitlines():
                strict_loads(doc)
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

    def test_duplicate_metadata_symbol_exit_1(self, tmp_path, capsys):
        data_dir = run_synth(tmp_path)
        meta = data_dir / "meta.csv"
        text = meta.read_text()
        lines = text.splitlines()
        symbol = lines[1].split(",")[0]
        meta.write_text(text + f"{symbol},Technology,5\n")
        config = write_run_config(tmp_path, data_dir, tmp_path / "out")
        code = main(["backtest", "--config", str(config)])
        assert code == 1
        duplicate = f"meta.csv:{len(lines) + 1}: duplicate symbol {symbol} (first on line 2)"
        assert duplicate in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

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
        # Per-symbol seeds derive from the top-level seed, so no section has
        # a seed field; one is refused as unknown from a file and from --set.
        config = write_json(tmp_path / "run.json", {section: {"seed": 4}})
        assert main(["backtest", "--config", str(config)]) == 2
        assert f"unknown key(s) at {section}: seed" in capsys.readouterr().err
        config = write_json(tmp_path / "run.json", {})
        assert main(["backtest", "--config", str(config), "--set", f"{section}.seed=4"]) == 2
        assert f"unknown key(s) at {section}: seed" in capsys.readouterr().err

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

    def test_override_through_a_value_exit_2(self, tmp_path, capsys):
        config = write_json(tmp_path / "run.json", {"engine": {"warmup_bars": 5}})
        assert main(["backtest", "--config", str(config), "--set", "engine.warmup_bars.x=1"]) == 2
        assert "override path engine.warmup_bars.x crosses a non-object" in capsys.readouterr().err

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
        # Model seeds derive from the top-level seed; the sections list none.
        assert all("seed" not in resolved[section] for section in ("engine", "hmm", "mlp"))

    def test_resolved_config_replays_the_run(self, tmp_path):
        data_dir = run_synth(tmp_path)
        out_dir, replay_dir = tmp_path / "out", tmp_path / "replay"
        config = write_run_config(tmp_path, data_dir, out_dir)
        assert main(["backtest", "--config", str(config), "--seed", "13"]) == 0
        resolved = out_dir / "resolved_config.json"
        assert main(["backtest", "--config", str(resolved), "--out-dir", str(replay_dir)]) == 0
        for path in sorted(out_dir.iterdir()):
            if path.name != "resolved_config.json":
                assert path.read_bytes() == (replay_dir / path.name).read_bytes(), path.name

    @pytest.mark.parametrize("key, value", [
        ("bl.risk_aversion", float("nan")),
        ("engine.per_share_fee", float("nan")),
        ("hmm.n_states", float("nan")),
        ("engine.initial_equity", float("nan")),
        ("engine.initial_equity", float("inf")),
        ("mlp.epochs", float("-inf")),
    ])
    def test_non_finite_config_value_exit_2(self, tmp_path, capsys, key, value):
        # json.loads reads the NaN and Infinity literals, from a file and
        # from --set alike; no config field takes one.
        section, field = key.split(".")
        config = write_json(tmp_path / "run.json", {section: {field: value}})
        assert main(["backtest", "--config", str(config)]) == 2
        assert f"non-finite value(s) at {section}: {field}" in capsys.readouterr().err
        config = write_json(tmp_path / "run.json", {})
        override = f"{key}={json.dumps(value)}"
        assert main(["backtest", "--config", str(config), "--set", override]) == 2
        assert f"non-finite value(s) at {section}: {field}" in capsys.readouterr().err

    @pytest.mark.parametrize("rate", ["1e308", "-1.5"])
    def test_unreportable_risk_free_rate_exit_2(self, tmp_path, capsys, rate):
        # A rate whose ratios the report cannot hold is refused before the run.
        out_dir = tmp_path / "out"
        config = write_run_config(tmp_path, run_synth(tmp_path), out_dir)
        assert main(["backtest", "--config", str(config), "--set", f"engine.risk_free_rate={rate}"]) == 2
        assert "at engine: risk_free_rate must be finite" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("key, value", [
        ("engine.min_fee", -1), ("engine.per_share_fee", -0.01),
    ])
    def test_negative_fee_exit_2(self, tmp_path, capsys, key, value):
        with pytest.raises(ConfigError, match="non-negative"):
            load_config(None, {key: value})
        config = write_json(tmp_path / "run.json", {})
        assert main(["backtest", "--config", str(config), "--set", f"{key}={value}"]) == 2
        assert "per_share_fee and min_fee must be non-negative" in capsys.readouterr().err


# One wrong value for each declared type form, a section that is not an
# object, each value a run or the generator cannot use, and an override
# without "=": every one exits 2 before any file is written, with a message
# naming its key.
@pytest.mark.parametrize("command, value, named", [
    ("backtest", "hmm.n_states=2.5", "at hmm: n_states"),                # int
    ("backtest", "universe.fine_count=2.5", "at universe: fine_count"),
    ("backtest", "engine.warmup_bars=180.5", "at engine: warmup_bars"),
    ("backtest", "seed=true", "at top level: seed"),                     # int refuses bool
    ("backtest", 'bl.risk_aversion="0.1"', "at bl: risk_aversion"),      # float
    ("backtest", "bl.long_only=true", "at bl: long_only"),               # removed key
    ("backtest", "universe.sector=5", "at universe: sector"),            # str
    ("backtest", "data.benchmark=5", "at data: benchmark"),              # str | None
    ("backtest", 'engine.start_date="2020-13-45"', "at engine: start_date"),  # date | None
    ("backtest", "engine.end_date=20200101", "at engine: end_date"),
    ("backtest", "mlp.layer_sizes=[5,10,10,10,5,1]", "unknown key(s) at mlp: layer_sizes"),
    ("backtest", "mlp.learning_rate=0.001", "unknown key(s) at mlp: learning_rate"),
    ("backtest", "hmm=3", "hmm must be a JSON object"),                  # section
    ("backtest", "hmm.n_states=0", "at hmm: n_states"),                  # ParameterError
    ("backtest", "bl.covariance_lookback=0", "at bl: covariance_lookback"),
    ("synth", {"n_bars": "abc"}, "at top level: n_bars"),
    ("synth", {"n_bars": 50.7}, "at top level: n_bars"),
    ("synth", {"symbols": 2.5}, "at top level: symbols"),                # int | list[str]
    ("synth", {"symbols": ["A", 5]}, "at top level: symbols"),
    ("synth", {"symbols": 0}, "at top level: symbols"),
    ("synth", {"symbols": []}, "at top level: symbols"),
    ("synth", {"symbols": ["A", "A"]}, "at top level: symbols"),
    ("synth", {"symbols": ["A,B"]}, "at top level: symbols"),
    ("synth", {"symbols": ['A"B']}, "at top level: symbols"),
    ("synth", {"symbols": [" A"]}, "at top level: symbols"),
    ("synth", {"symbols": ["A\nB"]}, "at top level: symbols"),
    ("synth", {"sector": "Oil, Gas"}, "at top level: sector"),
    ("synth", {"regimes": [[0.001]]}, "at top level: regimes"),         # tuple[float, float]
    ("synth", {"transition": "x"}, "at top level: transition"),         # list[list[float]]
    ("synth", {"start_date": "2015-02-30"}, "at top level: start_date"),  # date
    ("synth", [], "top level must be a JSON object"),
    ("synth", {"regimes": [[0.001, "x"]]}, "at top level: regimes"),    # an element's type
    ("synth", {"regimes": 0.001}, "at top level: regimes"),             # not a list
    ("synth", {"regimes": [[0.001, float("inf")]]}, "non-finite value(s) at top level: regimes"),
    ("backtest", "bl.tau=0.05", "at bl: tau"),                           # removed key
    ("backtest", "hmm.convergence_tol=0.0001", "unknown key(s) at hmm: convergence_tol"),
    ("backtest", "hmm.variance_floor=1e-12", "unknown key(s) at hmm: variance_floor"),
    ("backtest", "foo", "override must look like section.key=value, got 'foo'"),
])
def test_wrong_input_exit_2(tmp_path, capsys, command, value, named):
    if command == "backtest":
        config = write_json(tmp_path / "run.json", {"out_dir": str(tmp_path / "d")})
        argv = ["backtest", "--config", str(config), "--set", value]
    else:
        spec = write_json(tmp_path / "synth.json", value)
        argv = ["synth", "--spec", str(spec), "--out-dir", str(tmp_path / "d")]
    assert main(argv) == 2
    assert named in capsys.readouterr().err
    assert not (tmp_path / "d").exists()


def test_synth_non_positive_start_price_exit_1(tmp_path, capsys):
    # The generator's own value errors exit 1, as the invalid transition does.
    spec = write_json(tmp_path / "synth.json", dict(SYNTH_SPEC, start_price=-5))
    assert main(["synth", "--spec", str(spec), "--out-dir", str(tmp_path / "d")]) == 1
    assert "error: start_price must be > 0" in capsys.readouterr().err
    assert not (tmp_path / "d" / "bars.csv").exists()


def fill_line(**fields) -> str:
    """A fills.jsonl record that buys 5 A on 2020-01-03, with each of ``fields``
    given as the JSON text of its value, or dropped when None."""
    record = {
        "symbol": '"A"', "side": '"buy"', "quantity": "5", "price": "10.0", "fee": "1.0",
        "date": '"2020-01-03"', "reason": '"rebalance"', **fields,
    }
    return "{" + ", ".join(f'"{key}": {value}' for key, value in record.items()
                           if value is not None) + "}"


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

    def write_report_inputs(self, tmp_path, equity_rows, fill_lines=()):
        equity = tmp_path / "equity_curve.csv"
        equity.write_text("date,equity\n" + "".join(row + "\n" for row in equity_rows))
        fills = tmp_path / "fills.jsonl"
        fills.write_text("".join(line + "\n" for line in fill_lines))
        return equity, fills

    def refused(self, tmp_path, capsys, equity_rows, fill_lines=(), flags=()):
        """report's exit code and error text on those inputs; it must write no report."""
        equity, fills = self.write_report_inputs(tmp_path, equity_rows, fill_lines)
        out = tmp_path / "r.json"
        code = main(["report", "--equity", str(equity), "--fills", str(fills), *flags,
                     "--out", str(out)])
        assert not out.exists()
        return code, capsys.readouterr().err

    @pytest.mark.parametrize("record, defect", [
        pytest.param("[1, 2]", "indices must be integers", id="list"),
        pytest.param('"fill"', "indices must be integers", id="string"),
        pytest.param(fill_line(quantity="null"), "quantity None is not a positive integer",
                     id="null-quantity"),
        pytest.param(fill_line(quantity="1e400"), "quantity inf is not a positive integer",
                     id="infinite-quantity"),
        pytest.param(fill_line(date="3"), "fromisoformat: argument must be str",
                     id="numeric-date"),
        pytest.param(fill_line(side='"hold"'), "side 'hold' is not buy or sell", id="hold-side"),
        pytest.param(fill_line(quantity="-5"), "quantity -5 is not a positive integer",
                     id="negative-quantity"),
        pytest.param(fill_line(quantity="2.7"), "quantity 2.7 is not a positive integer",
                     id="fractional-quantity"),
        pytest.param(fill_line(price="0.0"), "price 0.0 is not finite and positive",
                     id="zero-price"),
        pytest.param(fill_line(price="1e400"), "price inf is not finite and positive",
                     id="infinite-price"),
        pytest.param(fill_line(fee="-1.0"), "fee -1.0 is not finite and non-negative",
                     id="negative-fee"),
        pytest.param(fill_line(fee="NaN"), "fee nan is not finite and non-negative",
                     id="nan-fee"),
        pytest.param(fill_line(symbol="5"), "symbol 5 is not a non-empty string",
                     id="numeric-symbol"),
        pytest.param(fill_line(symbol='""'), "symbol '' is not a non-empty string",
                     id="empty-symbol"),
        pytest.param(fill_line(reason='["x"]'), "reason ['x'] is not a string", id="list-reason"),
        pytest.param(fill_line(reason=None), "'reason'", id="missing-reason"),
        pytest.param(fill_line(date='"2031-01-02"'), "date 2031-01-02 is outside the equity curve",
                     id="date-after-curve"),
        pytest.param(fill_line(date='"2019-12-31"'), "date 2019-12-31 is outside the equity curve",
                     id="date-before-curve"),
        pytest.param(fill_line(side='"sell"', quantity="8"),
                     "sell of 8 exceeds the 5 shares of A held", id="sell-beyond-holdings"),
        pytest.param(fill_line(symbol='"B"', side='"sell"', quantity="3"),
                     "sell of 3 exceeds the 0 shares of B held", id="sell-without-position"),
    ])
    def test_malformed_fill_record_exit_1(self, tmp_path, capsys, record, defect):
        # Line 1 buys 5 A; line 2 is refused for its own defect alone.
        good = fill_line(date='"2020-01-02"')
        equity_rows = [f"2020-01-0{d},100000.0" for d in range(1, 6)]
        code, err = self.refused(tmp_path, capsys, equity_rows, [good, record])
        assert code == 1 and f"{tmp_path / 'fills.jsonl'}:2: bad fill record: " in err
        assert defect in err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_equity_exit_1(self, tmp_path, capsys, value):
        rows = ["2020-01-01,100000.0", "2020-01-02,100010.0", f"2020-01-03,{value}"]
        code, err = self.refused(tmp_path, capsys, rows)
        equity = tmp_path / "equity_curve.csv"
        assert code == 1 and f"{equity}:4: bad equity row: equity {float(value)} is not finite" in err

    @pytest.mark.parametrize("rate", ["nan", "inf", "1e308", "-1.01"])
    def test_unreportable_risk_free_rate_exit_2(self, tmp_path, capsys, rate):
        rows = ["2020-01-01,100.0", "2020-01-02,101.0"]
        code, err = self.refused(tmp_path, capsys, rows, flags=["--risk-free", rate])
        assert code == 2 and "config error: --risk-free must be finite" in err

    @pytest.mark.parametrize("value", ["0.0", "-100.0"])
    def test_non_positive_equity_exit_1(self, tmp_path, capsys, value):
        rows = ["2020-01-01,100000.0", f"2020-01-02,{value}", "2020-01-03,100.0"]
        code, err = self.refused(tmp_path, capsys, rows)
        equity = tmp_path / "equity_curve.csv"
        assert code == 1 and f"{equity}:3: bad equity row: equity {float(value)} is not positive" in err

    @pytest.mark.parametrize("second", ["2020-01-01", "2019-12-31"])
    def test_dates_not_increasing_exit_1(self, tmp_path, capsys, second):
        rows = ["2020-01-01,100000.0", f"{second},100010.0", "2020-01-03,100020.0"]
        code, err = self.refused(tmp_path, capsys, rows)
        equity = tmp_path / "equity_curve.csv"
        assert code == 1 and f"{equity}:3: bad equity row: {second} not after 2020-01-01" in err

    def test_empty_benchmark_file_is_no_benchmark(self, tmp_path):
        out_dir = self.make_run(tmp_path)
        bench = tmp_path / "empty.csv"
        bench.write_text("symbol,date,open,high,low,close,volume\n")
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
        assert "no-benchmark" in json.loads(redo.read_text())["flags"]
