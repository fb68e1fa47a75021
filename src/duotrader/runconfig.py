"""One self-describing run configuration: every module config plus data
paths and the global seed, loadable from a single JSON file with dotted-path
overrides. Unknown keys are rejected so a typo cannot silently fall back to
a default.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from datetime import date
from pathlib import Path
from typing import Any

from .alpha_fusion import FusionConfig
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
    fusion: FusionConfig = field(default_factory=FusionConfig)
    bl: BlConfig = field(default_factory=BlConfig)
    risk: RiskConfig = field(default_factory=RiskConfig)
    engine: EngineConfig = field(default_factory=EngineConfig)

    def resolved(self) -> dict:
        """Fully expanded config (defaults + file + overrides) for the audit
        trail written next to every run's outputs."""
        def encode(value: Any) -> Any:
            if dataclasses.is_dataclass(value) and not isinstance(value, type):
                return {
                    f.name: encode(getattr(value, f.name))
                    for f in dataclasses.fields(value)
                }
            if isinstance(value, date):
                return value.isoformat()
            if isinstance(value, tuple):
                return list(value)
            return value

        return encode(self)


_SECTION_TYPES = {
    "data": DataConfig,
    "universe": UniverseConfig,
    "hmm": HmmConfig,
    "mlp": MlpConfig,
    "fusion": FusionConfig,
    "bl": BlConfig,
    "risk": RiskConfig,
    "engine": EngineConfig,
}


def _coerce(name: str, value: Any) -> Any:
    if name in ("start_date", "end_date") and isinstance(value, str):
        return date.fromisoformat(value)
    if name == "layer_sizes" and isinstance(value, list):
        return tuple(int(v) for v in value)
    return value


def _finite(value: Any) -> bool:
    """False for a NaN or infinite float, alone or in a list: ``json.loads``
    parses the ``NaN`` and ``Infinity`` literals, and no field takes one."""
    if isinstance(value, float):
        return math.isfinite(value)
    return not isinstance(value, list) or all(_finite(v) for v in value)


def _build_section(cls: type, payload: dict, path: str) -> Any:
    names = {f.name for f in dataclasses.fields(cls)}
    unknown = set(payload) - names
    if unknown:
        raise ConfigError(f"unknown key(s) at {path}: {', '.join(sorted(unknown))}")
    bad = sorted(k for k, v in payload.items() if not _finite(v))
    if bad:
        raise ConfigError(f"non-finite value(s) at {path}: {', '.join(bad)}")
    try:
        return cls(**{k: _coerce(k, v) for k, v in payload.items()})
    except (ParameterError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid values at {path}: {exc}") from exc


def load_config(
    path: str | Path | None,
    overrides: dict[str, Any] | None = None,
) -> RunConfig:
    """Build a RunConfig from an optional JSON file plus dotted-path
    overrides (e.g. ``{"engine.warmup_bars": 10}``)."""
    payload: dict[str, Any] = {}
    if path is not None:
        path = Path(path)
        try:
            payload = json.loads(path.read_text())
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
        if not isinstance(payload, dict):
            raise ConfigError(f"{path}: top level must be a JSON object")

    for dotted, value in (overrides or {}).items():
        parts = dotted.split(".")
        node = payload
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"override path {dotted} crosses a non-object")
        node[parts[-1]] = value

    top_names = {f.name for f in dataclasses.fields(RunConfig)}
    unknown = set(payload) - top_names
    if unknown:
        raise ConfigError(f"unknown top-level key(s): {', '.join(sorted(unknown))}")

    # The engine derives every per-symbol model seed from the top-level seed;
    # a section seed is refused with a pointer to it.
    for section in ("engine", "hmm", "mlp"):
        if isinstance(payload.get(section), dict) and "seed" in payload[section]:
            raise ConfigError(
                f"set the top-level 'seed' key; {section}.seed is derived from it"
            )

    kwargs: dict[str, Any] = {}
    for key, value in payload.items():
        if key in _SECTION_TYPES:
            if not isinstance(value, dict):
                raise ConfigError(f"section {key} must be a JSON object")
            kwargs[key] = _build_section(_SECTION_TYPES[key], value, key)
        else:
            kwargs[key] = value
    try:
        config = RunConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid top-level config: {exc}") from exc
    if not isinstance(config.seed, int) or isinstance(config.seed, bool):
        raise ConfigError("seed must be an integer")
    return config
