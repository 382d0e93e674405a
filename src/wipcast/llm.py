"""Chat backend abstraction: a remote HTTP client and a deterministic stub.

Every prompt carries a machine-readable twin of its human-readable content
(structured_context) so the stub backend can act without parsing prose. All
backends answer through the same "PREDICTION: <number>" output protocol;
extract_prediction is the single place that parses model text back into a
number.
"""

from __future__ import annotations

import json
import os
import re
import statistics
import threading
import time
from dataclasses import dataclass, field
from datetime import date as Date, datetime, timezone

from .narrative import GRANULARITIES

# One predictor agent per story granularity, named after it.
AGENT_IDS = GRANULARITIES

PREDICTION_RE = re.compile(r"PREDICTION:\s*(-?\d+(?:\.\d+)?)")
NUMBER_RE = re.compile(r"-?\d+(?:\.\d+)?")
ACTION_RE = re.compile(r"ACTION:\s*(\w+)\(([^)]*)\)")

# Client errors that a later retry can cure: request timeout and rate limiting.
RETRYABLE_4XX = (408, 429)


class LlmError(Exception):
    """Base error for the chat layer."""


class TransportError(LlmError):
    """A single request attempt failed (network, non-2xx, timeout)."""


class ResponseFormatError(LlmError):
    """The provider answered, but not in a shape we can use."""


class BackendUnavailable(LlmError):
    """All attempts exhausted; carries the retry count."""

    def __init__(self, message: str, retries: int):
        super().__init__(f"{message} (after {retries} retries)")
        self.retries = retries


class NoNumberError(LlmError):
    """Model text contained no extractable number."""


@dataclass(frozen=True)
class RetrievedExample:
    """One retrieved story as the prompt sees it: when, what happened next, how close."""

    date: Date
    target: float
    similarity: float

    def to_dict(self) -> dict:
        return {"date": self.date.isoformat(), "target": self.target,
                "similarity": self.similarity}


@dataclass(frozen=True)
class StructuredContext:
    """Machine-readable mirror of the prompt. Exactly the values the prose states."""

    retrieved: tuple[RetrievedExample, ...] | None = None
    current_close: float | None = None
    agent_predictions: dict[str, float] | None = None
    trend_label: str | None = None
    tools: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        out: dict = {}
        if self.retrieved is not None:
            out["retrieved"] = [ex.to_dict() for ex in self.retrieved]
        if self.current_close is not None:
            out["current_close"] = self.current_close
        if self.agent_predictions is not None:
            out["agent_predictions"] = dict(sorted(self.agent_predictions.items()))
        if self.trend_label is not None:
            out["trend_label"] = self.trend_label
        if self.tools:
            out["tools"] = list(self.tools)
        return out


@dataclass(frozen=True)
class ChatRequest:
    system_text: str
    user_text: str
    structured_context: StructuredContext | None = None
    deterministic: bool = True
    max_steps: int = 4


@dataclass(frozen=True)
class ChatResponse:
    text: str
    backend_id: str

    def __post_init__(self):
        if not self.text:
            raise ValueError("response text must be non-empty")


def extract_prediction(text: str) -> float:
    """Number after the last "PREDICTION:" marker, else the last number in the text."""
    markers = PREDICTION_RE.findall(text)
    if markers:
        return float(markers[-1])
    numbers = NUMBER_RE.findall(text)
    if numbers:
        return float(numbers[-1])
    raise NoNumberError(f"no number found in model output: {text!r}")


def parse_action(text: str) -> tuple[str, str] | None:
    """First "ACTION: tool(arg)" request in the text, if any."""
    match = ACTION_RE.search(text)
    if match is None:
        return None
    return match.group(1), match.group(2).strip()


class StubBackend:
    """Deterministic offline backend: a pure function of the request.

    Predictor-style requests (retrieved examples present) answer with the
    similarity-weighted mean of the retrieved targets, or the current close
    when nothing usable was retrieved. Fusion-style requests (agent
    predictions present) answer with the median, first requesting any missing
    agent prediction through the tool protocol when tools are offered.
    """

    backend_id = "stub"

    def chat(self, req: ChatRequest) -> ChatResponse:
        ctx = req.structured_context
        if ctx is None:
            raise ResponseFormatError("stub backend needs structured_context to act")
        if ctx.agent_predictions is not None:
            return self._fuse(ctx)
        if ctx.retrieved is not None:
            return self._predict(ctx)
        raise ResponseFormatError("structured_context carries neither retrievals nor predictions")

    def _answer(self, value: float) -> ChatResponse:
        return ChatResponse(text=f"PREDICTION: {value:.2f}", backend_id=self.backend_id)

    def _predict(self, ctx: StructuredContext) -> ChatResponse:
        weights = [max(ex.similarity, 0.0) for ex in ctx.retrieved]
        total = sum(weights)
        if total == 0.0:
            if ctx.current_close is None:
                raise ResponseFormatError("no retrievals and no current close to fall back on")
            return self._answer(ctx.current_close)
        value = sum(w * ex.target for w, ex in zip(weights, ctx.retrieved)) / total
        return self._answer(value)

    def _fuse(self, ctx: StructuredContext) -> ChatResponse:
        missing = [a for a in AGENT_IDS if a not in ctx.agent_predictions]
        if missing and "get_prediction" in ctx.tools:
            return ChatResponse(
                text=f"ACTION: get_prediction({missing[0]})", backend_id=self.backend_id
            )
        if not ctx.agent_predictions:
            raise ResponseFormatError("fusion request without any agent predictions")
        return self._answer(statistics.median(ctx.agent_predictions.values()))


class RemoteChatBackend:
    """Chat-completions-compatible HTTP client with retries and a concurrency cap.

    Transport failures, 5xx, 408 and 429 responses are retried with
    exponential backoff. Other 4xx statuses and an empty completion fail on
    the first attempt, since sending the same request again cannot help.

    ``io_bound`` tells callers that requests mostly wait on the network, so
    independent calls are worth issuing from several threads.
    """

    io_bound = True

    def __init__(self, endpoint: str, model: str, api_key_env: str = "OPENAI_API_KEY",
                 timeout: float = 60.0, retries: int = 2, backoff: float = 1.0,
                 max_concurrency: int = 4, session=None):
        import requests

        self.endpoint = endpoint
        self.model = model
        self.api_key_env = api_key_env
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.backend_id = f"remote:{model}"
        self._session = session if session is not None else requests.Session()
        self._gate = threading.BoundedSemaphore(max_concurrency)

    def _headers(self) -> dict:
        headers = {"Content-Type": "application/json"}
        key = os.environ.get(self.api_key_env)
        if key:
            headers["Authorization"] = f"Bearer {key}"
        return headers

    def chat(self, req: ChatRequest) -> ChatResponse:
        payload = {
            "model": self.model,
            "messages": [
                {"role": "system", "content": req.system_text},
                {"role": "user", "content": req.user_text},
            ],
        }
        if req.deterministic:
            payload["temperature"] = 0
        last_error: Exception | None = None
        for attempt in range(self.retries + 1):
            if attempt:
                time.sleep(self.backoff * (2 ** (attempt - 1)))
            try:
                with self._gate:
                    resp = self._session.post(
                        self.endpoint, json=payload, headers=self._headers(),
                        timeout=self.timeout,
                    )
                status = resp.status_code
                ok = 200 <= status < 300
                if ok:
                    text = resp.json()["choices"][0]["message"]["content"]
                else:
                    detail = resp.text[:200]
            except Exception as exc:
                last_error = TransportError(str(exc))
                continue
            if not ok:
                last_error = TransportError(f"status {status}: {detail}")
                if 400 <= status < 500 and status not in RETRYABLE_4XX:
                    raise last_error  # resending the same request cannot succeed
                continue
            if not text:
                raise ResponseFormatError("empty completion text")
            return ChatResponse(text=text, backend_id=self.backend_id)
        raise BackendUnavailable(str(last_error), retries=self.retries)


@dataclass
class RunLogger:
    """Appends every prompt/response pair to a JSON-lines audit file."""

    path: str
    freeze_timestamps: bool = False
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def _now(self) -> str:
        if self.freeze_timestamps:
            return "1970-01-01T00:00:00+00:00"
        return datetime.now(timezone.utc).isoformat(timespec="seconds")

    def log(self, req: ChatRequest, resp: ChatResponse | None, error: str | None = None) -> None:
        record = {
            "ts": self._now(),
            "system_text": req.system_text,
            "user_text": req.user_text,
            "structured_context": (
                req.structured_context.to_dict() if req.structured_context else None
            ),
            "response_text": resp.text if resp else None,
            "backend_id": resp.backend_id if resp else None,
            "error": error,
        }
        line = json.dumps(record, sort_keys=True)
        with self._lock:
            with open(self.path, "a", encoding="utf-8") as fh:
                fh.write(line + "\n")


class LoggingBackend:
    """Wraps any backend so every exchange lands in the run log."""

    def __init__(self, inner, run_logger: RunLogger):
        self.inner = inner
        self.run_logger = run_logger
        self.backend_id = inner.backend_id
        self.io_bound = getattr(inner, "io_bound", False)

    def chat(self, req: ChatRequest) -> ChatResponse:
        try:
            resp = self.inner.chat(req)
        except LlmError as exc:
            self.run_logger.log(req, None, error=str(exc))
            raise
        self.run_logger.log(req, resp)
        return resp
