"""One self-describing run configuration: every module config plus data
paths and the global seed, loadable from a single JSON file with dotted-path
overrides. ``decode`` builds it, or any other config dataclass, from parsed
JSON by its declared field types, so a typo or a value of the wrong type
fails the load instead of falling back to a default or breaking the run.
"""

from __future__ import annotations

import dataclasses
import json
import math
import types
import typing
from dataclasses import dataclass, field
from datetime import date
from pathlib import Path
from typing import Any

from .engine import EngineConfig
from .errors import ConfigError, ParameterError
from .portfolio_bl import BlConfig
from .regime_hmm import HmmConfig
from .risk_controls import RiskConfig
from .trend_net import MlpConfig
from .universe import UniverseConfig


@dataclass
class DataConfig:
    bars: str = "bars.csv"
    meta: str = "meta.csv"
    benchmark: str | None = None


@dataclass
class RunConfig:
    data: DataConfig = field(default_factory=DataConfig)
    out_dir: str = "backtest_out"
    seed: int = 0
    universe: UniverseConfig = field(default_factory=UniverseConfig)
    hmm: HmmConfig = field(default_factory=HmmConfig)
    mlp: MlpConfig = field(default_factory=MlpConfig)
    bl: BlConfig = field(default_factory=BlConfig)
    risk: RiskConfig = field(default_factory=RiskConfig)
    engine: EngineConfig = field(default_factory=EngineConfig)

    def resolved(self) -> dict:
        """Fully expanded config (defaults + file + overrides) for the audit
        trail written next to every run's outputs."""
        return json.loads(json.dumps(dataclasses.asdict(self), default=date.isoformat))


class _NonFinite(Exception):
    """A NaN or infinite float, which ``json.loads`` parses and no field takes."""


def _value(tp: Any, value: Any, path: str) -> Any:
    """``value`` as the declared type ``tp``; TypeError or ValueError if it
    is not one, _NonFinite or OverflowError if it is a float out of range."""
    if isinstance(value, float) and not math.isfinite(value):
        raise _NonFinite
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if dataclasses.is_dataclass(tp):
        return decode(tp, value, path)
    if origin in (typing.Union, types.UnionType):
        for member in args:
            try:
                return _value(member, value, path)
            except (TypeError, ValueError):
                pass
    elif origin is list and type(value) is list:
        return [_value(args[0], item, path) for item in value]
    elif origin is tuple and type(value) is list and len(args) == len(value):
        return tuple(_value(a, item, path) for a, item in zip(args, value))
    elif tp is float and type(value) in (int, float):
        return float(value)
    elif tp is date and type(value) is str:
        return date.fromisoformat(value)
    elif type(value) is tp:
        return value
    raise TypeError


def decode(cls: type, payload: Any, path: str = "") -> Any:
    """Build the config dataclass ``cls`` from parsed JSON, ``path`` naming
    it in errors. A value must have its field's declared type (the README
    states the rule); an unknown key, a wrong type and the class's own
    ParameterError are each a ConfigError naming the key."""
    where = path or "top level"
    if not isinstance(payload, dict):
        raise ConfigError(f"{where} must be a JSON object")
    hints = typing.get_type_hints(cls)
    declared = {f.name: f.type for f in dataclasses.fields(cls)}  # as written
    unknown = set(payload) - set(declared)
    if unknown:
        raise ConfigError(f"unknown key(s) at {where}: {', '.join(sorted(unknown))}")
    kwargs, nan_or_inf = {}, []
    for key, value in payload.items():
        try:
            kwargs[key] = _value(hints[key], value, f"{path}.{key}".lstrip("."))
        except (_NonFinite, OverflowError):
            nan_or_inf.append(key)
        except (TypeError, ValueError):
            raise ConfigError(
                f"wrong type at {where}: {key} must be {declared[key]}, got {value!r}"
            ) from None
    if nan_or_inf:
        raise ConfigError(f"non-finite value(s) at {where}: {', '.join(sorted(nan_or_inf))}")
    try:
        return cls(**kwargs)
    except ParameterError as exc:
        raise ConfigError(f"invalid values at {where}: {exc}") from exc


def read_json(path: str | Path | None, overrides: dict[str, Any] | None = None) -> Any:
    """The parsed JSON file at ``path`` (``{}`` for None) with each dotted
    override (e.g. ``{"engine.warmup_bars": 10}``) set in it."""
    payload: Any = {}
    if path is not None:
        try:
            payload = json.loads(Path(path).read_text())
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    for dotted, value in (overrides or {}).items():
        *parents, last = dotted.split(".")
        node = payload
        for part in parents:
            if isinstance(node, dict):
                node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise ConfigError(f"override path {dotted} crosses a non-object")
        node[last] = value
    return payload


def load_config(
    path: str | Path | None,
    overrides: dict[str, Any] | None = None,
) -> RunConfig:
    """Build a RunConfig from an optional JSON file plus dotted-path overrides
    (e.g. ``{"engine.warmup_bars": 10}``), refusing unknown keys such as ``engine.seed``."""
    return decode(RunConfig, read_json(path, overrides))
