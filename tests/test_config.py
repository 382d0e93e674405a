"""Config parsing, validation, and round-trip serialization."""

import inspect
import io
import json
import re
from dataclasses import fields
from pathlib import Path

import pytest

from wipcast.agents import DEFAULT_FUSION_WEIGHTS, TREND_LABELS
from wipcast.cli import main
from wipcast.config import (
    BackendConfig,
    EmbedderConfig,
    ForecastParams,
    InputConfig,
    PipelineConfig,
    build_backend,
    build_embedder,
    config_from_dict,
    config_to_dict,
    load_config,
    save_config,
)
from wipcast.llm import RemoteChatBackend, StubBackend
from wipcast.memory import DeterministicEmbedder, RemoteEmbedder


def test_default_config_is_valid():
    cfg = PipelineConfig()
    assert cfg.forecast.k == 5
    assert cfg.forecast.window == 7
    assert cfg.forecast.trend_lookback == 14
    assert cfg.backend.kind == "stub"
    assert cfg.embedder.kind == "deterministic"


def test_round_trip_preserves_config():
    cfg = PipelineConfig(
        input=InputConfig(path="log.xes", format="xes"),
        forecast=ForecastParams(k=3, window=5, fusion_mode="react"),
        split_date="2024-06-01",
        out_dir="results",
    )
    assert config_from_dict(config_to_dict(cfg)) == cfg


def test_serialize_parse_is_stable():
    cfg = PipelineConfig()
    once = config_to_dict(config_from_dict(config_to_dict(cfg)))
    assert once == config_to_dict(cfg)


def test_save_load_round_trip():
    cfg = PipelineConfig(out_dir="elsewhere", freeze_timestamps=True)
    buf = io.StringIO()
    save_config(cfg, buf)
    buf.seek(0)
    assert load_config(buf) == cfg


def test_unknown_top_level_key_rejected():
    with pytest.raises(ValueError, match="unknown config keys"):
        config_from_dict({"nonsense": 1})


def test_unknown_section_key_rejected():
    with pytest.raises(ValueError, match="unknown ForecastParams keys"):
        config_from_dict({"forecast": {"k": 5, "quux": 1}})


@pytest.mark.parametrize("data, key", [
    ({"forecast": {"k": "5"}}, "forecast.k"),
    ({"forecast": {"k": True}}, "forecast.k"),
    ({"forecast": {"trend_thresholds": 0.5}}, "forecast.trend_thresholds"),
    ({"forecast": {"trend_thresholds": [0.01, "0.05"]}}, "forecast.trend_thresholds"),
    ({"forecast": {"trend_thresholds": [0.01]}}, "forecast.trend_thresholds"),
    ({"forecast": {"fusion_weights": {"stable": {"daily": "1"}}}}, "forecast.fusion_weights"),
    ({"input": {"timezone": 5}}, "input.timezone"),
    ({"freeze_timestamps": 1}, "freeze_timestamps"),
    ({"split_date": 20240601}, "split_date"),
    ({"backend": {"timeout": True}}, "backend.timeout"),
])
def test_value_of_the_wrong_type_rejected_naming_the_key(data, key):
    with pytest.raises(ValueError, match=f"config key {key} must be "):
        config_from_dict(data)


def test_config_and_sections_must_be_objects():
    with pytest.raises(ValueError, match="forecast must be a JSON object"):
        config_from_dict({"forecast": 5})
    for text in ("5", "null", "[1]"):
        with pytest.raises(ValueError, match="config must be a JSON object"):
            load_config(text)


def test_values_of_the_declared_types_accepted():
    cfg = config_from_dict({
        "forecast": {"k": 3, "trend_thresholds": [0.02, 0.1], "fusion_weights": {"stable": {
                         "daily": 1, "weekday": 0, "windowed": 0.0}}},
        "backend": {"timeout": 5}, "split_date": None,
    })
    assert cfg.forecast.trend_thresholds == (0.02, 0.1)
    assert (cfg.forecast.k, cfg.backend.timeout) == (3, 5)


def test_positive_numerics_enforced():
    for field in ("k", "window", "trend_window", "trend_lookback"):
        with pytest.raises(ValueError):
            ForecastParams(**{field: 0})


@pytest.mark.parametrize("forecast", [{"trend_window": 14}, {"trend_window": 20},
                                      {"trend_window": 5, "trend_lookback": 5}])
def test_trend_window_must_be_below_trend_lookback(forecast):
    # the trend compares trend_window + 1 of the trend_lookback closes it reads,
    # so such a config labelled every day stable
    window, lookback = forecast["trend_window"], forecast.get("trend_lookback", 14)
    with pytest.raises(ValueError, match=rf"forecast\.trend_window \({window}\) must be less "
                                         rf"than forecast\.trend_lookback \({lookback}\)"):
        config_from_dict({"forecast": forecast})
    assert ForecastParams(trend_window=lookback - 1, trend_lookback=lookback).trend_window < lookback


def test_threshold_order_enforced():
    with pytest.raises(ValueError):
        ForecastParams(trend_thresholds=(0.05, 0.01))
    with pytest.raises(ValueError):
        ForecastParams(trend_thresholds=(0.0, 0.05))


def test_custom_weights_must_sum_to_one():
    row = {"daily": 0.5, "weekday": 0.3, "windowed": 0.3}
    with pytest.raises(ValueError, match="sum to 1"):
        ForecastParams(fusion_weights={"stable": row})


def test_custom_weights_must_cover_all_agents():
    with pytest.raises(ValueError, match="must cover"):
        ForecastParams(fusion_weights={"stable": {"daily": 1.0}})


def test_custom_weights_reject_unknown_label():
    row = {"daily": 1.0, "weekday": 0.0, "windowed": 0.0}
    with pytest.raises(ValueError, match="unknown trend label"):
        ForecastParams(fusion_weights={"sideways": row})


def test_weights_within_tolerance_accepted():
    row = {"daily": 1 / 3, "weekday": 1 / 3, "windowed": 1 / 3}
    params = ForecastParams(fusion_weights={"stable": row})
    assert params.fusion_weights["stable"] == row
    # the default table, which fills labels an override leaves out, covers all five
    assert set(DEFAULT_FUSION_WEIGHTS) == set(TREND_LABELS) == {
        "stable", "increasing", "decreasing",
        "increasing_significantly", "decreasing_significantly",
    }


def test_fusion_mode_validated():
    with pytest.raises(ValueError):
        ForecastParams(fusion_mode="vote")


def test_gap_policy_validated():
    # every calendar day is a row of the series, so there is no policy to set
    with pytest.raises(ValueError, match=re.escape("unknown config keys: ['gap_policy']")):
        config_from_dict({"gap_policy": "carry"})


@pytest.mark.parametrize("text, key", [
    ('{"forecast": {"fusion_weights": {"stable": {"daily": NaN, "weekday": NaN, "windowed": NaN}}}}',
     "forecast.fusion_weights.stable"),
    ('{"forecast": {"fusion_weights": {"stable": {"daily": NaN, "weekday": 0.5, "windowed": 0.5}}}}',
     "forecast.fusion_weights.stable"),
    ('{"backend": {"timeout": NaN}}', "backend.timeout"),
], ids=["nan-weights", "one-nan-weight", "nan-timeout"])
def test_nan_values_rejected_naming_the_key(text, key, tmp_path, capsys):
    # NaN fails every comparison, so a check written as `value < 0` lets it
    # through; a NaN weight made rules fusion forecast nan
    with pytest.raises(ValueError, match=re.escape(key)):
        load_config(text)
    path = tmp_path / "nan.json"
    path.write_text(text)
    assert main(["ingest", "--config", str(path), "--out", str(tmp_path)]) == 1
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("split_date", ["2024-13-01", "nope", "2024-02-30"])
def test_split_date_must_be_an_iso_date(split_date, tmp_path, capsys):
    # it used to fail only once evaluate parsed it, with a bare "month must be in 1..12"
    want = f"config key split_date must be an ISO date, got {split_date!r}"
    with pytest.raises(ValueError, match=re.escape(want)):
        config_from_dict({"split_date": split_date})
    path = tmp_path / "split.json"
    path.write_text(json.dumps({"split_date": split_date}))
    assert main(["ingest", "--config", str(path), "--out", str(tmp_path)]) == 1
    assert want in capsys.readouterr().err
    assert config_from_dict({"split_date": "2024-02-29"}).split_date == "2024-02-29"


def test_config_defaults_are_the_remote_clients_defaults():
    chat = inspect.signature(RemoteChatBackend).parameters
    backend = BackendConfig()
    assert (backend.api_key_env, backend.timeout, backend.retries) == (
        chat["api_key_env"].default, chat["timeout"].default, chat["retries"].default)
    assert EmbedderConfig().model == inspect.signature(RemoteEmbedder).parameters["model"].default


def test_remote_sections_need_endpoints():
    with pytest.raises(ValueError):
        BackendConfig(kind="remote")
    with pytest.raises(ValueError):
        EmbedderConfig(kind="remote")
    BackendConfig(kind="remote", endpoint="https://api.example/v1/chat")
    EmbedderConfig(kind="remote", endpoint="https://api.example/v1/embed")


@pytest.mark.parametrize("endpoint", ["llm.example/v1/chat", "localhost:8080/v1",
                                      "ftp://llm.example/v1", "http://", "https:///v1",
                                      "http://[::1/v1"])
def test_remote_endpoint_needs_an_http_scheme_and_a_host(endpoint):
    with pytest.raises(ValueError, match="config key backend.endpoint must be"):
        BackendConfig(kind="remote", endpoint=endpoint)
    with pytest.raises(ValueError, match="config key embedder.endpoint must be"):
        EmbedderConfig(kind="remote", endpoint=endpoint)
    with pytest.raises(ValueError, match="backend.endpoint"):
        config_from_dict({"backend": {"kind": "remote", "endpoint": endpoint}})


def test_input_timezone_validated():
    assert InputConfig(timezone="Asia/Tokyo").timezone == "Asia/Tokyo"
    for zone in ("Mars/Olympus_Mons", "", "../etc/passwd"):
        with pytest.raises(ValueError):
            InputConfig(timezone=zone)
    with pytest.raises(ValueError):
        config_from_dict({"input": {"timezone": "Not/AZone"}})


def test_build_helpers():
    assert isinstance(build_embedder(EmbedderConfig()), DeterministicEmbedder)
    remote = build_embedder(EmbedderConfig(kind="remote", endpoint="https://e/x"))
    assert isinstance(remote, RemoteEmbedder)
    assert isinstance(build_backend(BackendConfig()), StubBackend)
    chat = build_backend(BackendConfig(kind="remote", endpoint="https://e/c", model="m1"))
    assert chat.backend_id == "remote:m1"


README = Path(__file__).resolve().parent.parent / "README.md"
SECTIONS = {"input": InputConfig, "forecast": ForecastParams, "backend": BackendConfig,
            "embedder": EmbedderConfig}


def test_every_config_key_the_readme_names_is_a_key_and_its_json_examples_load():
    # a key deleted from the config but still named in README sends a reader
    # to set what now fails as unknown; a removed key is named bare there
    text = README.read_text(encoding="utf-8")
    named = set(re.findall(r"`(input|forecast|backend|embedder)\.(\w+)", text))
    named.discard(("forecast", "jsonl"))  # the file `forecast` writes
    assert len(named) >= 8
    assert sorted(f"{section}.{key}" for section, key in named
                  if key not in {f.name for f in fields(SECTIONS[section])}) == []
    examples = re.findall(r"```json\n(.*?)```", text, re.S)
    assert len(examples) >= 2
    for example in examples:
        load_config(example)
