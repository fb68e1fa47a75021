import dataclasses
import itertools
import json
import re
from datetime import date
from pathlib import Path

import pytest

from duotrader.cli import _json
from duotrader.errors import ConfigError
from duotrader.runconfig import RunConfig, decode, load_config


def test_defaults_without_file():
    config = load_config(None)
    assert config.seed == 0
    assert config.engine.warmup_bars == 756
    assert config.hmm.n_states == 5
    assert config.mlp.epochs == 5
    assert config.bl.max_weight == 0.2


def test_file_values_applied(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({
        "seed": 11,
        "engine": {"warmup_bars": 100, "start_date": "2019-01-02"},
        "mlp": {"epochs": 3, "batch_size": 8},
    }))
    config = load_config(path)
    assert config.seed == 11
    assert config.engine.warmup_bars == 100
    assert config.engine.start_date == date(2019, 1, 2)
    assert config.mlp.epochs == 3
    assert config.mlp.batch_size == 8


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
    ("engine.per_share_fee", -0.01), ("engine.min_fee", -1.0),
])
def test_negative_limit_rejected(key, value):
    # A negative fee would pay the trader; zero is a legal value of each.
    section, field = key.split(".")
    with pytest.raises(ConfigError, match=f"invalid values at {section}: .*{field}"):
        load_config(None, {key: value})
    assert getattr(getattr(load_config(None, {key: 0}), section), field) == 0


@pytest.mark.parametrize("key, value", [
    ("engine.start_date", "2020-13-45"), ("bl.max_weight", ["a"]),
])
def test_uncoercible_value_rejected(key, value):
    with pytest.raises(ConfigError, match=key.split(".")[0]):
        load_config(None, {key: value})


def test_engine_seed_rejected(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"engine": {"seed": 9}}))
    with pytest.raises(ConfigError, match="seed"):
        load_config(path)


@pytest.mark.parametrize("payload, message", [
    ({"fusion": {"confidence": 0.5}}, "unknown key(s) at top level: fusion"),
    ({"bl": {"risk_aversion": 2.5}}, "unknown key(s) at bl: risk_aversion"),
    ({"engine": {"max_gap_bars": 5}}, "unknown key(s) at engine: max_gap_bars"),
])
def test_key_made_a_constant_rejected(tmp_path, payload, message):
    # The view confidence, the risk aversion and the gap limit are module
    # constants; a file that still sets one fails the load.
    path = tmp_path / "run.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ConfigError, match=re.escape(message)):
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
    assert json.loads(text)["mlp"] == {"epochs": 5, "batch_size": 16}


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
    config = load_config(None, {"bl.max_weight": 1, "engine.initial_equity": 50000})
    assert type(config.bl.max_weight) is float and config.bl.max_weight == 1.0
    assert type(config.resolved()["engine"]["initial_equity"]) is float


def test_readme_key_fields_are_the_config_fields():
    # The README's "Key fields" table names each section's fields, and only
    # those: a removed key cannot stay documented. Names only, in any order.
    text = (Path(__file__).parents[1] / "README.md").read_text()
    rows = text.split("Key fields:", 1)[1].strip().splitlines()[2:]  # past the header
    documented = {}
    for row in itertools.takewhile(lambda line: line.startswith("|"), rows):
        section, fields = row.strip().strip("|").split("|")
        documented[re.fullmatch(r"\s*`(\w+)`\s*", section).group(1)] = set(
            re.findall(r"`(\w+)`", fields)
        )
    config = RunConfig()
    sections = {f.name: getattr(config, f.name) for f in dataclasses.fields(config)}
    assert documented == {
        name: {f.name for f in dataclasses.fields(section)}
        for name, section in sections.items()
        if dataclasses.is_dataclass(section)
    }
