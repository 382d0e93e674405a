"""Chat layer tests: extraction protocol, stub determinism, remote retry behavior."""

from __future__ import annotations

import random
import time
from datetime import date

import pytest
import requests

from wipcast.llm import (
    BackendUnavailable,
    ChatRequest,
    ChatResponse,
    NoNumberError,
    RemoteChatBackend,
    ResponseFormatError,
    RetrievedExample,
    StructuredContext,
    StubBackend,
    TransportError,
    extract_prediction,
    parse_action,
)


def _ex(target, similarity, day=date(2024, 1, 1)):
    return RetrievedExample(doc_id=0, date=day, text="a past story", target=target,
                            similarity=similarity)


def predictor_request(targets_sims, current_close=None):
    ctx = StructuredContext(
        retrieved=tuple(_ex(t, s) for t, s in targets_sims),
        current_close=current_close,
    )
    return ChatRequest(system_text="forecast", user_text="story", structured_context=ctx)


def fusion_request(preds, trend="stable", tools=()):
    ctx = StructuredContext(agent_predictions=dict(preds), trend_label=trend, tools=tools)
    return ChatRequest(system_text="fuse", user_text="fuse", structured_context=ctx)


def test_extract_prediction_marker():
    assert extract_prediction("PREDICTION: 42") == 42


def test_extract_prediction_uses_last_marker():
    assert extract_prediction("I think 40, but PREDICTION: 42.5") == 42.5


def test_extract_prediction_fallback_last_number():
    assert extract_prediction("the value will be 37 tomorrow") == 37


def test_extract_prediction_negative():
    assert extract_prediction("PREDICTION: -3.25") == -3.25


def test_extract_prediction_no_number_raises():
    with pytest.raises(NoNumberError):
        extract_prediction("no digits here")


def test_extract_prediction_round_trip():
    rng = random.Random(17)
    for _ in range(50):
        x = round(rng.uniform(-500, 500), rng.randint(0, 4))
        assert extract_prediction(f"PREDICTION: {x}") == x


@pytest.mark.parametrize("text, want", [
    ("PREDICTION: 1,234", 1234.0),  # a thousands group, not 1 and 234
    ("PREDICTION: -1,234,567.5", -1234567.5),
    ("PREDICTION: 1.2e3", 1200.0),  # the exponent is part of the number
    ("PREDICTION: 5E-1", 0.5),
    ("PREDICTION: 12, give or take", 12.0),
    ("about 2,500 open items tomorrow", 2500.0),
    ("somewhere in 10,20,30", 30.0),  # not thousands groups: three numbers
])
def test_extract_prediction_number_forms(text, want):
    assert extract_prediction(text) == want


@pytest.mark.parametrize("text", ["PREDICTION: 1e999", "PREDICTION: -1e999", "maybe 9e400"])
def test_extract_prediction_rejects_a_number_that_is_not_finite(text):
    with pytest.raises(NoNumberError, match="no finite number"):
        extract_prediction(text)


def test_parse_action_forms():
    assert parse_action("ACTION: get_prediction(daily)") == ("get_prediction", "daily")
    assert parse_action("ACTION: get_trend()") == ("get_trend", "")
    assert parse_action("thinking... ACTION: retrieve(The WiP items opened at 5)") == (
        "retrieve",
        "The WiP items opened at 5",
    )
    assert parse_action("PREDICTION: 12.00") is None


def test_stub_weighted_mean():
    resp = StubBackend().chat(predictor_request([(10, 0.9), (12, 0.8), (14, 0.7)]))
    assert "PREDICTION: 11.83" in resp.text


def test_stub_singleton():
    resp = StubBackend().chat(predictor_request([(71, 1.0)]))
    assert resp.text == "PREDICTION: 71.00"


def test_stub_empty_retrieval_falls_back_to_current_close():
    resp = StubBackend().chat(predictor_request([], current_close=66))
    assert resp.text == "PREDICTION: 66.00"


def test_stub_clips_negative_similarities():
    resp = StubBackend().chat(predictor_request([(100, -0.5), (40, 0.5)]))
    assert resp.text == "PREDICTION: 40.00"


def test_stub_all_nonpositive_similarities_is_persistence():
    resp = StubBackend().chat(predictor_request([(100, -0.5), (40, -0.1)], current_close=7))
    assert resp.text == "PREDICTION: 7.00"


def test_stub_fusion_median():
    resp = StubBackend().chat(fusion_request({"daily": 10, "weekday": 12, "windowed": 20}))
    assert resp.text == "PREDICTION: 12.00"


def test_stub_fusion_requests_missing_predictions_in_order():
    resp = StubBackend().chat(fusion_request({}, tools=("get_prediction", "get_trend")))
    assert resp.text == "ACTION: get_prediction(daily)"
    resp = StubBackend().chat(
        fusion_request({"daily": 10.0}, tools=("get_prediction",))
    )
    assert resp.text == "ACTION: get_prediction(weekday)"


def test_stub_is_pure():
    req = predictor_request([(10, 0.9), (12, 0.8)])
    a = StubBackend().chat(req)
    b = StubBackend().chat(req)
    assert a == b


def test_stub_requires_structured_context():
    with pytest.raises(ResponseFormatError):
        StubBackend().chat(ChatRequest(system_text="s", user_text="u"))


def test_chat_response_rejects_empty_text():
    with pytest.raises(ValueError):
        ChatResponse(text="", backend_id="stub")


class FakeResponse:
    def __init__(self, status_code=200, body=None, text=""):
        self.status_code = status_code
        self._body = body
        self.text = text

    def json(self):
        if self._body is None:
            raise ValueError("not json")
        return self._body


class FakeSession:
    def __init__(self, outcomes):
        self.outcomes = list(outcomes)
        self.calls = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.calls.append({"url": url, "json": json, "headers": headers, "timeout": timeout})
        outcome = self.outcomes.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome


def _completion(text):
    return FakeResponse(body={"choices": [{"message": {"content": text}}]})


def test_remote_backend_success():
    session = FakeSession([_completion("PREDICTION: 9.50")])
    backend = RemoteChatBackend("http://llm.test/v1/chat", "o3-mini", session=session,
                                backoff=0.0)
    resp = backend.chat(ChatRequest(system_text="sys", user_text="usr"))
    assert resp.text == "PREDICTION: 9.50"
    assert resp.backend_id == "remote:o3-mini"
    sent = session.calls[0]["json"]
    assert sent["model"] == "o3-mini"
    assert sent["temperature"] == 0
    assert [m["role"] for m in sent["messages"]] == ["system", "user"]


def test_remote_backend_retries_then_succeeds():
    session = FakeSession([ConnectionError("boom"), _completion("PREDICTION: 1.00")])
    backend = RemoteChatBackend("http://llm.test", "m", session=session, backoff=0.0)
    resp = backend.chat(ChatRequest(system_text="s", user_text="u"))
    assert resp.text == "PREDICTION: 1.00"
    assert len(session.calls) == 2


def test_remote_backend_exhausts_retries():
    session = FakeSession([FakeResponse(status_code=500, text="err")] * 3)
    backend = RemoteChatBackend("http://llm.test", "m", session=session, retries=2,
                                backoff=0.0)
    with pytest.raises(BackendUnavailable) as exc:
        backend.chat(ChatRequest(system_text="s", user_text="u"))
    assert exc.value.retries == 2
    assert len(session.calls) == 3


def test_remote_backend_does_not_retry_malformed_body():
    session = FakeSession([FakeResponse(body={"nope": []})] * 2)
    backend = RemoteChatBackend("http://llm.test", "m", session=session, retries=1,
                                backoff=0.0)
    with pytest.raises(ResponseFormatError):
        backend.chat(ChatRequest(system_text="s", user_text="u"))
    assert len(session.calls) == 1


@pytest.mark.parametrize("status", [400, 401, 404])
def test_remote_backend_does_not_retry_client_errors(status):
    session = FakeSession([FakeResponse(status_code=status, text="no")] * 3)
    backend = RemoteChatBackend("http://llm.test", "m", session=session, retries=2,
                                backoff=0.0)
    with pytest.raises(TransportError, match=str(status)):
        backend.chat(ChatRequest(system_text="s", user_text="u"))
    assert len(session.calls) == 1


@pytest.mark.parametrize("status", [408, 429, 500])
def test_remote_backend_retries_transient_statuses(status):
    session = FakeSession([FakeResponse(status_code=status, text="later")] * 3)
    backend = RemoteChatBackend("http://llm.test", "m", session=session, retries=2,
                                backoff=0.0)
    with pytest.raises(BackendUnavailable):
        backend.chat(ChatRequest(system_text="s", user_text="u"))
    assert len(session.calls) == 3


def test_remote_backend_does_not_retry_empty_completion():
    session = FakeSession([_completion("")] * 3)
    backend = RemoteChatBackend("http://llm.test", "m", session=session, retries=2,
                                backoff=0.0)
    with pytest.raises(ResponseFormatError):
        backend.chat(ChatRequest(system_text="s", user_text="u"))
    assert len(session.calls) == 1


def test_remote_backend_sends_bearer_from_env(monkeypatch):
    monkeypatch.setenv("MY_KEY", "sk-test")
    session = FakeSession([_completion("ok 1")])
    backend = RemoteChatBackend("http://llm.test", "m", api_key_env="MY_KEY",
                                session=session, backoff=0.0)
    backend.chat(ChatRequest(system_text="s", user_text="u"))
    assert session.calls[0]["headers"]["Authorization"] == "Bearer sk-test"


def test_remote_backend_nondeterministic_omits_temperature():
    session = FakeSession([_completion("ok 1")])
    backend = RemoteChatBackend("http://llm.test", "m", session=session, backoff=0.0)
    backend.chat(ChatRequest(system_text="s", user_text="u", deterministic=False))
    assert "temperature" not in session.calls[0]["json"]


INVALID_REQUESTS = [requests.exceptions.MissingSchema("No scheme supplied"),
                    requests.exceptions.InvalidSchema("No connection adapters"),
                    requests.exceptions.InvalidURL("No host supplied")]


@pytest.mark.parametrize("error", INVALID_REQUESTS, ids=lambda e: type(e).__name__)
def test_remote_backend_does_not_retry_a_request_that_cannot_be_sent(error, monkeypatch):
    waited = []
    monkeypatch.setattr(time, "sleep", waited.append)
    session = FakeSession([error] * 3)
    backend = RemoteChatBackend("http://llm.test", "m", session=session)
    with pytest.raises(TransportError, match="invalid request") as exc:
        backend.chat(ChatRequest(system_text="s", user_text="u"))
    assert not isinstance(exc.value, BackendUnavailable)
    assert len(session.calls) == 1
    assert waited == []


def test_scheme_less_endpoint_fails_before_any_wait(monkeypatch):
    # requests rejects the URL while preparing the request, before any connection
    waited = []
    monkeypatch.setattr(time, "sleep", waited.append)
    backend = RemoteChatBackend("llm.example/v1/chat", "m")
    with pytest.raises(TransportError, match="No scheme supplied"):
        backend.chat(ChatRequest(system_text="s", user_text="u"))
    assert waited == []
