"""wipcast: forecast daily work-in-progress from business-process event logs.

The pipeline turns an event log into a daily WiP series with OHLC-style
columns, narrates each day as a short story, retrieves similar past stories
from a date-bounded vector memory, and fuses three retrieval-augmented
predictor agents (guided by a moving-average trend analyst) into a next-day
forecast. A walk-forward harness evaluates the whole thing against a
persistence baseline.
"""

from .agents import (
    ForecastReport,
    Prediction,
    TrendInsight,
    fuse,
    predictor_predict,
    trend_analyze,
)
from .config import (
    BackendConfig,
    EmbedderConfig,
    ForecastParams,
    InputConfig,
    PipelineConfig,
    load_config,
    save_config,
)
from .eventlog import (
    ColumnMapping,
    EmptyLogError,
    Event,
    EventLog,
    EventLogError,
    export_csv,
    parse_csv,
    parse_xes,
    validate,
)
from .evaluation import (
    MetricsSummary,
    PredictionTrace,
    TraceEntry,
    emit_report,
    mae,
    mape,
    merge_traces,
    persistence_baseline,
    rolling_forecast,
    summarize,
)
from .llm import ChatRequest, ChatResponse, RemoteChatBackend, StubBackend
from .memory import (
    DeterministicEmbedder,
    RemoteEmbedder,
    RetentionPolicy,
    StoryIndex,
    load_index,
    save_index,
)
from .narrative import (
    Story,
    parse_story,
    render_contextual_story,
    render_query_story,
    render_windowed_story,
)
from .synthetic import synthetic_event_log, synthetic_series
from .wipseries import (
    WipEvent,
    WipSeries,
    active_count_at,
    build_wip_series,
    export_wip_csv,
    load_wip_csv,
    wip_event,
)

__version__ = "0.1.0"

__all__ = [
    "BackendConfig",
    "ChatRequest",
    "ChatResponse",
    "ColumnMapping",
    "DeterministicEmbedder",
    "EmbedderConfig",
    "EmptyLogError",
    "Event",
    "EventLog",
    "EventLogError",
    "ForecastParams",
    "ForecastReport",
    "InputConfig",
    "MetricsSummary",
    "PipelineConfig",
    "Prediction",
    "PredictionTrace",
    "RemoteChatBackend",
    "RemoteEmbedder",
    "RetentionPolicy",
    "Story",
    "StoryIndex",
    "StubBackend",
    "TraceEntry",
    "TrendInsight",
    "WipEvent",
    "WipSeries",
    "active_count_at",
    "build_wip_series",
    "emit_report",
    "export_csv",
    "export_wip_csv",
    "fuse",
    "load_config",
    "load_index",
    "load_wip_csv",
    "mae",
    "mape",
    "merge_traces",
    "parse_csv",
    "parse_story",
    "parse_xes",
    "persistence_baseline",
    "predictor_predict",
    "render_contextual_story",
    "render_query_story",
    "render_windowed_story",
    "rolling_forecast",
    "save_config",
    "save_index",
    "summarize",
    "synthetic_event_log",
    "synthetic_series",
    "trend_analyze",
    "validate",
    "wip_event",
]
