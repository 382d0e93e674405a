"""Chat backend abstraction: a remote HTTP client and a deterministic stub.

Every prompt carries a machine-readable twin of its human-readable content
(structured_context) so the stub backend can act without parsing prose. All
backends answer through the same "PREDICTION: <number>" output protocol;
extract_prediction is the single place that parses model text back into a
number.
"""

from __future__ import annotations

import math
import os
import re
import statistics
import time
from dataclasses import dataclass
from datetime import date as Date

from .narrative import GRANULARITIES

# One predictor agent per story granularity, named after it.
AGENT_IDS = GRANULARITIES

# a decimal with optional comma thousands groups and exponent: 42, -3.25, 1,234.5, 1.2e3
NUMBER_RE = re.compile(r"-?(?:\d{1,3}(?:,\d{3})+|\d+)(?:\.\d+)?(?:[eE][-+]?\d+)?")
PREDICTION_RE = re.compile(rf"PREDICTION:\s*({NUMBER_RE.pattern})")
ACTION_RE = re.compile(r"ACTION:\s*(\w+)\(([^)]*)\)")

# Client errors that a later retry can cure: request timeout and rate limiting.
RETRYABLE_4XX = (408, 429)
# Both remote clients' default retries after the first attempt, and seconds
# to wait before the first retry.
RETRIES, BACKOFF = 2, 1.0
# The chat client's default request timeout (s) and API-key environment variable.
CHAT_TIMEOUT, API_KEY_ENV = 60.0, "OPENAI_API_KEY"


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


@dataclass(frozen=True, slots=True)  # a walk-forward keeps ~14,000 of them
class RetrievedExample:
    """One story retrieved from memory, as the prompt sees it: which one and when,
    its text, what happened next, how close."""

    doc_id: int
    date: Date
    text: str
    target: float
    similarity: float


@dataclass(frozen=True)
class StructuredContext:
    """Machine-readable mirror of the prompt: the values the prose states, plus
    each retrieved story's doc_id."""

    retrieved: tuple[RetrievedExample, ...] | None = None
    current_close: float | None = None
    agent_predictions: dict[str, float] | None = None
    trend_label: str | None = None
    tools: tuple[str, ...] = ()


@dataclass(frozen=True)
class ChatRequest:
    system_text: str
    user_text: str
    structured_context: StructuredContext | None = None


@dataclass(frozen=True)
class ChatResponse:
    text: str
    backend_id: str

    def __post_init__(self):
        if not self.text:
            raise ValueError("response text must be non-empty")


def extract_prediction(text: str) -> float:
    """Number after the last "PREDICTION:", else the text's last number; NoNumberError if none or not finite."""
    found = PREDICTION_RE.findall(text) or NUMBER_RE.findall(text)
    value = float(found[-1].replace(",", "")) if found else math.nan
    if not math.isfinite(value):
        raise NoNumberError(f"no finite number found in model output: {text!r}")
    return value


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


def post_json(session, url: str, payload: dict, *, timeout: float, retries: int,
              backoff: float, **post_args):
    """POST ``payload`` as JSON and return the 2xx response. Transport errors
    (OSError, requests' included), 5xx, 408 and 429 are retried up to ``retries``
    times, the wait doubling from ``backoff`` seconds; BackendUnavailable once they
    run out. Any other status, and a request that cannot be sent at all (requests'
    MissingSchema, InvalidSchema, InvalidURL: an OSError that is also a
    ValueError), raise TransportError at once: resending cannot help."""
    last_error: Exception | None = None
    for attempt in range(retries + 1):
        if attempt:
            time.sleep(backoff * (2 ** (attempt - 1)))
        try:
            resp = session.post(url, json=payload, timeout=timeout, **post_args)
        except OSError as exc:
            if isinstance(exc, ValueError):
                raise TransportError(f"invalid request to {url!r}: {exc}") from exc
            last_error = TransportError(str(exc))
            continue
        status = resp.status_code
        if 200 <= status < 300:
            return resp
        last_error = TransportError(f"status {status}: {resp.text[:200]}")
        if status < 500 and status not in RETRYABLE_4XX:
            raise last_error
    raise BackendUnavailable(str(last_error), retries=retries)


class RemoteChatBackend:
    """Chat-completions-compatible HTTP client, retrying as :func:`post_json` does.

    An empty or malformed completion fails on the first attempt.

    ``io_bound`` tells callers that requests mostly wait on the network, so
    independent calls are worth issuing from several threads.
    """

    io_bound = True

    def __init__(self, endpoint: str, model: str, api_key_env: str = API_KEY_ENV,
                 timeout: float = CHAT_TIMEOUT, retries: int = RETRIES, backoff: float = BACKOFF,
                 session=None):
        import requests

        self.endpoint = endpoint
        self.model = model
        self.api_key_env = api_key_env
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.backend_id = f"remote:{model}"
        self._session = session if session is not None else requests.Session()

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
            "temperature": 0,
        }
        resp = post_json(self._session, self.endpoint, payload, timeout=self.timeout,
                         retries=self.retries, backoff=self.backoff, headers=self._headers())
        try:
            text = resp.json()["choices"][0]["message"]["content"]
        except (ValueError, LookupError, TypeError) as exc:
            raise ResponseFormatError(f"malformed completion: {exc!r}") from exc
        if not isinstance(text, str) or not text:
            raise ResponseFormatError(f"completion text is empty or not a string: {text!r}")
        return ChatResponse(text=text, backend_id=self.backend_id)
