"""Providers, prompt hashing, transcript cache, retry/backoff behavior."""

from __future__ import annotations

import json
import os
import sys
import threading

import pytest

from coqharness.client import (
    BudgetExceeded,
    CacheMiss,
    CachingProvider,
    DecodingParams,
    HttpChatProvider,
    ProviderError,
    ScriptedProvider,
    ScriptParseError,
    Transcript,
    TranscriptCache,
    complete,
    prompt_hash,
)
from coqharness.prompting import ChatMessage, ChatPrompt


def make_prompt(text="Prove Lemma t: True.", tag="zs", target="file.v::t"):
    return ChatPrompt(
        (ChatMessage("system", "be helpful"), ChatMessage("user", text)),
        config_tag=tag,
        target_id=target,
    )


def test_decoding_defaults_match_run_settings():
    params = DecodingParams()
    assert params.temperature == 1.0
    assert params.presence_penalty == 0.1
    assert params.n == 5
    assert params.max_tokens == 1024


def test_decoding_validation():
    with pytest.raises(ValueError):
        DecodingParams(n=0)
    with pytest.raises(ValueError):
        DecodingParams(max_tokens=0)
    with pytest.raises(ValueError):
        DecodingParams(temperature=-0.1)


def test_prompt_hash_stability_and_sensitivity():
    prompt = make_prompt()
    params = DecodingParams(n=2)
    key = prompt_hash(prompt, params)
    assert key == prompt_hash(make_prompt(), DecodingParams(n=2))
    assert key != prompt_hash(prompt, DecodingParams(n=2, temperature=0.5))
    assert key != prompt_hash(make_prompt(text="Prove Lemma u: False."), params)
    assert key != prompt_hash(prompt, DecodingParams(n=3))


def test_scripted_provider_in_order_and_cycling():
    provider = ScriptedProvider(
        {"entries": [{"theorem": "t", "completions": ["one", "two", "three"]}]}
    )
    assert complete(make_prompt(), DecodingParams(n=3), provider) == ["one", "two", "three"]
    # cursor advanced; next call wraps around cyclically
    assert provider.complete(make_prompt(), DecodingParams(n=2)) == ["one", "two"]
    provider.reset()
    assert provider.complete(make_prompt(), DecodingParams(n=1)) == ["one"]


def test_scripted_provider_selectors_and_default():
    provider = ScriptedProvider(
        {
            "default": "fallback",
            "entries": [
                {"theorem": "t", "config_tag": "fs-sim", "completions": ["sim answer"]},
                {"theorem": "t", "completions": ["generic answer"]},
            ],
        }
    )
    assert provider.complete(make_prompt(tag="fs-sim"), DecodingParams(n=1)) == ["sim answer"]
    assert provider.complete(make_prompt(tag="zs"), DecodingParams(n=1)) == ["generic answer"]
    assert provider.complete(
        make_prompt(text="unrelated", target="other.v::x"), DecodingParams(n=2)
    ) == ["fallback", "fallback"]


def test_scripted_provider_empty_script_means_default_everywhere():
    provider = ScriptedProvider({"entries": []}, default="(* refusing *)")
    out = provider.complete(make_prompt(), DecodingParams(n=3))
    assert out == ["(* refusing *)"] * 3


def test_scripted_provider_parse_errors(tmp_path):
    with pytest.raises(ScriptParseError):
        ScriptedProvider({"not-entries": []})
    bad = tmp_path / "script.json"
    bad.write_text("{broken json")
    with pytest.raises(ScriptParseError):
        ScriptedProvider(bad)
    with pytest.raises(ScriptParseError):
        ScriptedProvider({"entries": [{"theorem": "x", "completions": []}]})


def test_cache_miss_store_hit(tmp_path):
    cache = TranscriptCache(tmp_path)
    inner = ScriptedProvider({"entries": [{"theorem": "t", "completions": ["alpha"]}]})
    provider = CachingProvider(inner, cache)
    prompt, params = make_prompt(), DecodingParams(n=2)
    first = provider.complete(prompt, params)
    assert provider.misses == 1
    second = provider.complete(prompt, params)
    assert provider.hits == 1
    assert second == first  # served from cache, not the advancing script cursor


def test_replay_mode_hits_and_misses(tmp_path):
    cache = TranscriptCache(tmp_path)
    key = prompt_hash(make_prompt(), DecodingParams(n=1))
    cache.append(Transcript(key, ["cached!"], "test", 0.0))
    replay = CachingProvider(None, cache, replay_only=True)
    assert replay.complete(make_prompt(), DecodingParams(n=1)) == ["cached!"]
    with pytest.raises(CacheMiss):
        replay.complete(make_prompt(text="never seen"), DecodingParams(n=1))
    with pytest.raises(ValueError):
        CachingProvider(None, cache, replay_only=False)


def test_cache_survives_reserialization(tmp_path):
    cache = TranscriptCache(tmp_path)
    key = prompt_hash(make_prompt(), DecodingParams())
    cache.append(Transcript(key, ["a", "b"], "x", 1.0, (10, 20), retries=2))
    reread = TranscriptCache(tmp_path).lookup(key)
    assert reread.completions == ["a", "b"]
    assert reread.token_usage == (10, 20)
    assert reread.retries == 2


class FakeResponse:
    def __init__(self, status_code: int, payload=None):
        self.status_code = status_code
        self.text = json.dumps(payload or {})


class FakeSession:
    def __init__(self, responses):
        self.responses = list(responses)
        self.calls = 0

    def post(self, url, json=None, headers=None, timeout=None):
        self.calls += 1
        return self.responses.pop(0)


def _ok_payload(contents, usage=(5, 7)):
    return {
        "choices": [{"message": {"content": c}} for c in contents],
        "usage": {"prompt_tokens": usage[0], "completion_tokens": usage[1]},
    }


def test_http_provider_retries_429_then_succeeds(monkeypatch):
    monkeypatch.setattr("time.sleep", lambda s: None)
    session = FakeSession(
        [FakeResponse(429), FakeResponse(429), FakeResponse(200, _ok_payload(["done"]))]
    )
    provider = HttpChatProvider("http://fake", "model-x", rpm_limit=0, session=session)
    out = provider.complete(make_prompt(), DecodingParams(n=1))
    assert out == ["done"]
    assert session.calls == 3
    assert provider.last_retries == 2
    assert provider.tokens_used == 12


def test_http_provider_gives_up_after_max_tries(monkeypatch):
    monkeypatch.setattr("time.sleep", lambda s: None)
    session = FakeSession([FakeResponse(500)] * 5)
    provider = HttpChatProvider("http://fake", "model-x", rpm_limit=0, session=session)
    with pytest.raises(ProviderError) as err:
        provider.complete(make_prompt(), DecodingParams(n=1))
    assert err.value.status == 500
    assert session.calls == 5


def test_http_provider_nonretryable_is_immediate(monkeypatch):
    monkeypatch.setattr("time.sleep", lambda s: None)
    session = FakeSession([FakeResponse(401)])
    provider = HttpChatProvider("http://fake", "model-x", rpm_limit=0, session=session)
    with pytest.raises(ProviderError):
        provider.complete(make_prompt(), DecodingParams(n=1))
    assert session.calls == 1


def test_http_provider_budgets(monkeypatch):
    monkeypatch.setattr("time.sleep", lambda s: None)
    session = FakeSession([FakeResponse(200, _ok_payload(["x"], usage=(600, 600)))])
    provider = HttpChatProvider(
        "http://fake", "model-x", rpm_limit=0, token_budget=1000, session=session
    )
    provider.complete(make_prompt(), DecodingParams(n=1))
    with pytest.raises(BudgetExceeded):
        provider.complete(make_prompt(), DecodingParams(n=1))


def test_complete_checks_count():
    provider = ScriptedProvider({"entries": [{"theorem": "t", "completions": ["only"]}]})

    class Short:
        name = "short"

        def complete(self, prompt, params):
            return ["too few"]

    assert len(complete(make_prompt(), DecodingParams(n=4), provider)) == 4
    with pytest.raises(ProviderError):
        complete(make_prompt(), DecodingParams(n=2), Short())


class RetryScriptedSession:
    """Fails each prompt with 503 a scripted number of times, then answers it;
    the usage it reports is the prompt's length in prompt tokens plus one."""

    def __init__(self, retries: dict[str, int]):
        self.remaining = dict(retries)

    def post(self, url, json=None, headers=None, timeout=None):
        key = json["messages"][-1]["content"]
        if self.remaining[key] > 0:
            self.remaining[key] -= 1
            return FakeResponse(503)
        return FakeResponse(200, _ok_payload([key], usage=(len(key), 1)))


def test_http_provider_under_threads_counts_tokens_and_caches_own_retries(tmp_path, monkeypatch):
    monkeypatch.setattr("time.sleep", lambda s: None)
    texts = [f"Prove Lemma t{i}: True." for i in range(240)]
    retries = {text: i % 3 for i, text in enumerate(texts)}
    provider = HttpChatProvider("http://fake", "model-x", rpm_limit=0,
                                session=RetryScriptedSession(retries))
    caching = CachingProvider(provider, TranscriptCache(tmp_path))
    params = DecodingParams(n=1)
    n_threads = 4 * (os.cpu_count() or 1)
    start = threading.Barrier(n_threads)

    def work(shard: list[str]) -> None:
        start.wait(timeout=10)
        for text in shard:
            caching.complete(make_prompt(text=text), params)

    threads = [threading.Thread(target=work, args=(texts[k::n_threads],)) for k in range(n_threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert provider.tokens_used == sum(len(text) + 1 for text in texts)
    assert (caching.hits, caching.misses) == (0, len(texts))
    for text in texts:
        cached = caching.cache.lookup(prompt_hash(make_prompt(text=text), params))
        assert cached.retries == retries[text], text
