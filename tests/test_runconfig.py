import json
from datetime import date

import pytest

from duotrader.cli import _json
from duotrader.errors import ConfigError
from duotrader.runconfig import RunConfig, decode, load_config


def test_defaults_without_file():
    config = load_config(None)
    assert config.seed == 0
    assert config.engine.warmup_bars == 756
    assert config.hmm.n_states == 5
    assert config.mlp.layer_sizes == (5, 10, 10, 10, 5, 1)
    assert config.bl.risk_aversion == 2.5


def test_file_values_applied(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({
        "seed": 11,
        "engine": {"warmup_bars": 100, "start_date": "2019-01-02"},
        "mlp": {"layer_sizes": [5, 10, 10, 10, 5, 1], "epochs": 3},
    }))
    config = load_config(path)
    assert config.seed == 11
    assert config.engine.warmup_bars == 100
    assert config.engine.start_date == date(2019, 1, 2)
    assert config.mlp.epochs == 3
    assert config.mlp.layer_sizes == (5, 10, 10, 10, 5, 1)


def test_dotted_overrides_beat_file(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"engine": {"warmup_bars": 100}}))
    config = load_config(path, {"engine.warmup_bars": 5, "seed": 3})
    assert config.engine.warmup_bars == 5
    assert config.seed == 3


def test_unknown_top_level_key():
    with pytest.raises(ConfigError, match="mystery"):
        load_config(None, {"mystery": 1})


def test_unknown_section_key(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"risk": {"maxdrawdown": 0.1}}))
    with pytest.raises(ConfigError, match="maxdrawdown"):
        load_config(path)
    # Adam's decay rates and epsilon are module constants, not config fields.
    with pytest.raises(ConfigError, match="adam_beta1"):
        load_config(None, {"mlp.adam_beta1": 0.8})


def test_invalid_section_value(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"risk": {"trailing_fraction": 2.0}}))
    with pytest.raises(ConfigError, match="risk"):
        load_config(path)


@pytest.mark.parametrize("key, value", [
    ("engine.max_gap_bars", -3), ("hmm.variance_floor", -1.0), ("hmm.convergence_tol", -5.0),
])
def test_negative_limit_rejected(key, value):
    # A negative gap limit would act as 0 and a negative tolerance never
    # converges; zero is a legal value of each.
    section, field = key.split(".")
    with pytest.raises(ConfigError, match=f"invalid values at {section}: .*{field}"):
        load_config(None, {key: value})
    assert getattr(getattr(load_config(None, {key: 0}), section), field) == 0


@pytest.mark.parametrize("key, value", [
    ("engine.start_date", "2020-13-45"), ("mlp.layer_sizes", ["a"]),
])
def test_uncoercible_value_rejected(key, value):
    with pytest.raises(ConfigError, match=key.split(".")[0]):
        load_config(None, {key: value})


def test_engine_seed_rejected(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"engine": {"seed": 9}}))
    with pytest.raises(ConfigError, match="seed"):
        load_config(path)


def test_invalid_json_reports_line(tmp_path):
    path = tmp_path / "run.json"
    path.write_text('{"seed": }')
    with pytest.raises(ConfigError, match="line"):
        load_config(path)


def test_resolved_is_json_serializable():
    resolved = load_config(None, {"engine.start_date": "2020-06-01"}).resolved()
    text = json.dumps(resolved, sort_keys=True)
    assert json.loads(text)["engine"]["start_date"] == "2020-06-01"
    assert json.loads(text)["mlp"]["layer_sizes"] == [5, 10, 10, 10, 5, 1]


def test_bool_seed_rejected():
    with pytest.raises(ConfigError):
        load_config(None, {"seed": True})


QUICK_START = {
    "data": {"bars": "data/bars.csv", "meta": "data/meta.csv"},
    "out_dir": "out",
    "universe": {"fine_count": 5},
    "hmm": {"n_states": 3},
    "engine": {"warmup_bars": 180, "window_bars": 150, "start_date": "2015-06-01"},
}


@pytest.mark.parametrize("payload", [{}, QUICK_START], ids=["defaults", "quick-start"])
def test_resolved_config_decodes_to_the_config(tmp_path, payload):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(payload))
    config = load_config(path)
    # The text backtest writes as resolved_config.json.
    assert decode(RunConfig, json.loads(_json(config.resolved(), indent=2))) == config


def test_int_for_float_field_stored_as_float():
    config = load_config(None, {"bl.risk_aversion": 1, "engine.initial_equity": 50000})
    assert type(config.bl.risk_aversion) is float and config.bl.risk_aversion == 1.0
    assert type(config.resolved()["engine"]["initial_equity"]) is float
