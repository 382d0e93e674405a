"""Pipeline configuration: one JSON-serializable object covering every stage.

The config is the single source of defaults (k=5 retrievals, 7-day windows,
14-day trend lookback, rules fusion). Credentials never live here; remote
backends read their API key from an environment variable named in the config.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from types import UnionType
from typing import IO, Mapping, Union, get_args, get_origin, get_type_hints
from zoneinfo import ZoneInfo, ZoneInfoNotFoundError

from .agents import _check_weights
from .memory import DeterministicEmbedder, RemoteEmbedder, RetentionPolicy
from .wipseries import GAP_POLICIES, LifecycleConfig


@dataclass(frozen=True)
class InputConfig:
    path: str = ""
    format: str = "auto"  # auto | xes | csv
    case_column: str = "case"
    activity_column: str = "activity"
    timestamp_column: str = "timestamp"
    lifecycle_column: str | None = None
    timestamp_format: str | None = None
    timezone: str = "UTC"

    def __post_init__(self):
        if self.format not in ("auto", "xes", "csv"):
            raise ValueError(f"unknown input format: {self.format}")
        try:
            ZoneInfo(self.timezone)
        except (ZoneInfoNotFoundError, ValueError) as exc:
            raise ValueError(f"unknown input timezone {self.timezone!r}: {exc}") from exc


@dataclass(frozen=True)
class EmbedderConfig:
    kind: str = "deterministic"  # deterministic | remote
    endpoint: str = ""
    model: str = "bge-base-en-v1.5"

    def __post_init__(self):
        if self.kind not in ("deterministic", "remote"):
            raise ValueError(f"unknown embedder kind: {self.kind}")
        if self.kind == "remote" and not self.endpoint:
            raise ValueError("remote embedder needs an endpoint")


@dataclass(frozen=True)
class BackendConfig:
    kind: str = "stub"  # stub | remote
    endpoint: str = ""
    model: str = "o3-mini"
    api_key_env: str = "OPENAI_API_KEY"
    timeout: float = 60.0
    retries: int = 2

    def __post_init__(self):
        if self.kind not in ("stub", "remote"):
            raise ValueError(f"unknown backend kind: {self.kind}")
        if self.kind == "remote" and not self.endpoint:
            raise ValueError("remote backend needs an endpoint")
        if self.timeout <= 0 or self.retries < 0:
            raise ValueError("timeout must be positive and retries nonnegative")


@dataclass(frozen=True)
class ForecastParams:
    k: int = 5
    window: int = 7
    trend_window: int = 7
    trend_lookback: int = 14
    trend_thresholds: tuple[float, float] = (0.01, 0.05)
    fusion_mode: str = "rules"  # rules | react
    fusion_weights: dict[str, dict[str, float]] | None = None
    max_age_days: int | None = None
    min_similarity: float | None = None

    def __post_init__(self):
        for name in ("k", "window", "trend_window", "trend_lookback"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        minor, major = self.trend_thresholds
        if not 0 < minor < major:
            raise ValueError("trend thresholds must satisfy 0 < minor < major")
        if self.fusion_mode not in ("rules", "react"):
            raise ValueError(f"unknown fusion mode: {self.fusion_mode}")
        if self.fusion_weights is not None:
            _check_weights(self.fusion_weights)

    def retention(self) -> RetentionPolicy:
        return RetentionPolicy(max_age_days=self.max_age_days,
                               min_similarity=self.min_similarity)


@dataclass(frozen=True)
class PipelineConfig:
    input: InputConfig = field(default_factory=InputConfig)
    lifecycle: str = "default"
    gap_policy: str = "carry"
    forecast: ForecastParams = field(default_factory=ForecastParams)
    embedder: EmbedderConfig = field(default_factory=EmbedderConfig)
    backend: BackendConfig = field(default_factory=BackendConfig)
    split_date: str | None = None  # ISO date; None = last 20% of days as test
    test_fraction: float = 0.2
    out_dir: str = "out"
    freeze_timestamps: bool = False

    def __post_init__(self):
        if self.gap_policy not in GAP_POLICIES:
            raise ValueError(f"unknown gap policy: {self.gap_policy}")
        if not 0 < self.test_fraction < 1:
            raise ValueError("test_fraction must be in (0, 1)")


def _matches(value, hint) -> bool:
    """Whether a JSON value fits a declared type. An int counts as a float, a
    bool as neither, and a list as a tuple."""
    origin, args = get_origin(hint), get_args(hint)
    if origin in (Union, UnionType):
        return any(_matches(value, arg) for arg in args)
    if origin is tuple:
        return (isinstance(value, (list, tuple)) and len(value) == len(args)
                and all(map(_matches, value, args)))
    if origin is dict:
        return isinstance(value, dict) and all(
            _matches(k, args[0]) and _matches(v, args[1]) for k, v in value.items())
    if isinstance(value, bool):
        return hint is bool
    return isinstance(value, (int, float) if hint is float else hint)


def _build(cls, data: Mapping, prefix: str = ""):
    """``cls`` from parsed JSON, its sections built the same way. A key that
    ``cls`` has no field for, or a value that does not fit its field's
    declared type, is a ValueError naming the key."""
    if not isinstance(data, Mapping):
        raise ValueError(f"{prefix.rstrip('.') or 'config'} must be a JSON object, got {data!r}")
    declared = {f.name: f.type for f in fields(cls)}
    unknown = set(data) - set(declared)
    if unknown:
        raise ValueError(f"unknown {cls.__name__ if prefix else 'config'} keys: {sorted(unknown)}")
    hints = get_type_hints(cls)
    kwargs = {}
    for key, value in data.items():
        if is_dataclass(hints[key]):
            value = _build(hints[key], value, f"{prefix}{key}.")
        elif not _matches(value, hints[key]):
            raise ValueError(f"config key {prefix}{key} must be {declared[key]}, got {value!r}")
        elif isinstance(value, list):  # only a tuple field takes a list
            value = tuple(value)
        kwargs[key] = value
    return cls(**kwargs)


def config_from_dict(data: Mapping) -> PipelineConfig:
    return _build(PipelineConfig, data)


def config_to_dict(cfg: PipelineConfig) -> dict:
    data = asdict(cfg)
    data["forecast"]["trend_thresholds"] = list(cfg.forecast.trend_thresholds)
    return data


def load_config(fp: IO[str] | str) -> PipelineConfig:
    text = fp if isinstance(fp, str) else fp.read()
    return config_from_dict(json.loads(text))


def save_config(cfg: PipelineConfig, fp: IO[str]) -> None:
    json.dump(config_to_dict(cfg), fp, indent=2, sort_keys=True)
    fp.write("\n")


LIFECYCLES = {"default": LifecycleConfig()}


def build_lifecycle(name: str) -> LifecycleConfig:
    if name not in LIFECYCLES:
        raise ValueError(f"unknown lifecycle ruleset: {name} (have: {sorted(LIFECYCLES)})")
    return LIFECYCLES[name]


def build_embedder(cfg: EmbedderConfig):
    if cfg.kind == "deterministic":
        return DeterministicEmbedder()
    return RemoteEmbedder(endpoint=cfg.endpoint, model=cfg.model)


def build_backend(cfg: BackendConfig):
    from .llm import RemoteChatBackend, StubBackend

    if cfg.kind == "stub":
        return StubBackend()
    return RemoteChatBackend(endpoint=cfg.endpoint, model=cfg.model,
                             api_key_env=cfg.api_key_env, timeout=cfg.timeout,
                             retries=cfg.retries)
