"""Config parsing, validation, and round-trip serialization."""

import io

import pytest

from wipcast.agents import DEFAULT_FUSION_WEIGHTS, TREND_LABELS
from wipcast.config import (
    BackendConfig,
    EmbedderConfig,
    ForecastParams,
    InputConfig,
    PipelineConfig,
    build_backend,
    build_embedder,
    build_lifecycle,
    config_from_dict,
    config_to_dict,
    load_config,
    save_config,
)
from wipcast.llm import StubBackend
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
        forecast=ForecastParams(k=3, window=5, fusion_mode="react",
                                max_age_days=90, min_similarity=0.1),
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
    ({"test_fraction": "0.2"}, "test_fraction"),
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
        "forecast": {"k": 3, "trend_thresholds": [0.02, 0.1], "max_age_days": None,
                     "min_similarity": 0, "fusion_weights": {"stable": {
                         "daily": 1, "weekday": 0, "windowed": 0.0}}},
        "backend": {"timeout": 5}, "test_fraction": 0.25, "split_date": None,
    })
    assert cfg.forecast.trend_thresholds == (0.02, 0.1)
    assert (cfg.forecast.k, cfg.backend.timeout, cfg.test_fraction) == (3, 5, 0.25)


def test_positive_numerics_enforced():
    for field in ("k", "window", "trend_window", "trend_lookback"):
        with pytest.raises(ValueError):
            ForecastParams(**{field: 0})


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
    with pytest.raises(ValueError):
        PipelineConfig(gap_policy="interpolate")


def test_test_fraction_validated():
    with pytest.raises(ValueError):
        PipelineConfig(test_fraction=0.0)
    with pytest.raises(ValueError):
        PipelineConfig(test_fraction=1.0)


def test_remote_sections_need_endpoints():
    with pytest.raises(ValueError):
        BackendConfig(kind="remote")
    with pytest.raises(ValueError):
        EmbedderConfig(kind="remote")
    BackendConfig(kind="remote", endpoint="https://api.example/v1/chat")
    EmbedderConfig(kind="remote", endpoint="https://api.example/v1/embed")


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
    assert build_lifecycle("default").name == "default"
    with pytest.raises(ValueError):
        build_lifecycle("exotic")


def test_retention_built_from_params():
    params = ForecastParams(max_age_days=30, min_similarity=0.25)
    retention = params.retention()
    assert retention.max_age_days == 30
    assert retention.min_similarity == 0.25
