"""Pipeline configuration: one JSON-serializable object covering every stage.

The config gathers every stage's defaults (k=5 retrievals, 7-day windows,
14-day trend lookback, rules fusion); one a lower module also uses is named
there and imported here. Credentials never live here; remote backends read
their API key from an environment variable named in the config.
"""

from __future__ import annotations

import json
import threading
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from datetime import date as Date
from types import UnionType
from typing import IO, Mapping, Union, get_args, get_origin, get_type_hints
from urllib.parse import urlsplit
from zoneinfo import ZoneInfo, ZoneInfoNotFoundError

from .agents import TREND_LOOKBACK, TREND_THRESHOLDS, TREND_WINDOW, _check_weights
from .llm import API_KEY_ENV, CHAT_TIMEOUT, RETRIES
from .memory import EMBED_MODEL, TOP_K, DeterministicEmbedder, RemoteEmbedder, RetentionPolicy

TEST_FRACTION = 0.2  # evaluate's default share of trailing days held out


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


def iso_date(name: str, text: str) -> Date:
    """``text`` as a date; ValueError naming ``name`` unless it is an ISO date."""
    try:
        return Date.fromisoformat(text)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be an ISO date, got {text!r}") from None


def _check_endpoint(key: str, endpoint: str) -> None:
    """ValueError naming ``key`` unless ``endpoint`` is empty or an http(s) URL with a host."""
    if not endpoint:
        return
    try:
        parts = urlsplit(endpoint)
        ok = parts.scheme in ("http", "https") and bool(parts.hostname)
    except ValueError:  # e.g. an unclosed IPv6 bracket
        ok = False
    if not ok:
        raise ValueError(f"config key {key} must be an http:// or https:// URL with a host, "
                         f"got {endpoint!r}")


@dataclass(frozen=True)
class EmbedderConfig:
    kind: str = "deterministic"  # deterministic | remote
    endpoint: str = ""
    model: str = EMBED_MODEL

    def __post_init__(self):
        if self.kind not in ("deterministic", "remote"):
            raise ValueError(f"unknown embedder kind: {self.kind}")
        if self.kind == "remote" and not self.endpoint:
            raise ValueError("remote embedder needs an endpoint")
        _check_endpoint("embedder.endpoint", self.endpoint)


@dataclass(frozen=True)
class BackendConfig:
    kind: str = "stub"  # stub | remote
    endpoint: str = ""
    model: str = "o3-mini"
    api_key_env: str = API_KEY_ENV
    timeout: float = CHAT_TIMEOUT
    retries: int = RETRIES

    def __post_init__(self):
        if self.kind not in ("stub", "remote"):
            raise ValueError(f"unknown backend kind: {self.kind}")
        if self.kind == "remote" and not self.endpoint:
            raise ValueError("remote backend needs an endpoint")
        _check_endpoint("backend.endpoint", self.endpoint)
        # NaN and infinity too; a socket takes no timeout beyond TIMEOUT_MAX (OverflowError)
        if not 0 < self.timeout <= threading.TIMEOUT_MAX:
            raise ValueError(f"config key backend.timeout must be positive and at most "
                             f"{threading.TIMEOUT_MAX:.0f} s, got {self.timeout}")
        if self.retries < 0:
            raise ValueError(f"config key backend.retries must be nonnegative, got {self.retries}")


@dataclass(frozen=True)
class ForecastParams:
    k: int = TOP_K
    window: int = 7
    trend_window: int = TREND_WINDOW
    trend_lookback: int = TREND_LOOKBACK
    trend_thresholds: tuple[float, float] = TREND_THRESHOLDS
    fusion_mode: str = "rules"  # rules | react
    fusion_weights: dict[str, dict[str, float]] | None = None
    max_age_days: int | None = None
    min_similarity: float | None = None

    def __post_init__(self):
        for name in ("k", "window", "trend_window", "trend_lookback"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.trend_window >= self.trend_lookback:  # the trend compares trend_window + 1 closes
            raise ValueError(f"forecast.trend_window ({self.trend_window}) must be less than "
                             f"forecast.trend_lookback ({self.trend_lookback})")
        minor, major = self.trend_thresholds
        if not 0 < minor < major:
            raise ValueError("trend thresholds must satisfy 0 < minor < major")
        if self.fusion_mode not in ("rules", "react"):
            raise ValueError(f"unknown fusion mode: {self.fusion_mode}")
        if self.fusion_weights is not None:
            _check_weights(self.fusion_weights, "forecast.fusion_weights")
        self.retention()  # checks max_age_days and min_similarity

    def retention(self) -> RetentionPolicy:
        return RetentionPolicy(max_age_days=self.max_age_days,
                               min_similarity=self.min_similarity)


@dataclass(frozen=True)
class PipelineConfig:
    input: InputConfig = field(default_factory=InputConfig)
    forecast: ForecastParams = field(default_factory=ForecastParams)
    embedder: EmbedderConfig = field(default_factory=EmbedderConfig)
    backend: BackendConfig = field(default_factory=BackendConfig)
    split_date: str | None = None  # ISO date; None = the last test_fraction of days as test
    test_fraction: float = TEST_FRACTION
    out_dir: str = "out"
    freeze_timestamps: bool = False

    def __post_init__(self):
        if not 0 < self.test_fraction < 1:
            raise ValueError("test_fraction must be in (0, 1)")
        if self.split_date:  # empty: the default split, as None
            iso_date("config key split_date", self.split_date)


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
