"""Providers, prompt hashing, transcript cache, retry/backoff behavior."""

from __future__ import annotations

import dataclasses
import json
import math
import os
import re
import socket
import sys
import tempfile
import threading
import urllib.request
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coqharness import client, store
from coqharness.cli import run_config_from_dict
from coqharness.client import (
    BudgetExceeded,
    CacheMiss,
    CachingProvider,
    DecodingParams,
    HttpChatProvider,
    ProviderError,
    ScriptedProvider,
    Transcript,
    TranscriptCache,
    complete,
    prompt_hash,
)
from coqharness.prompting import ChatMessage, ChatPrompt

from chat_stub import serve_chat_stub
from oracles import oracle_cache_lookup


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
    for value in (math.nan, math.inf, -math.inf):  # not JSON, so no request or row could hold it
        with pytest.raises(ValueError, match="temperature must be finite"):
            DecodingParams(temperature=value)
        with pytest.raises(ValueError, match="presence_penalty must be finite"):
            DecodingParams(presence_penalty=value)


def test_prompt_hash_stability_and_sensitivity():
    prompt = make_prompt()
    params = DecodingParams(n=2)
    key = prompt_hash(prompt, params)
    assert key == prompt_hash(make_prompt(), DecodingParams(n=2))
    assert key != prompt_hash(prompt, DecodingParams(n=2, temperature=0.5))
    assert key != prompt_hash(make_prompt(text="Prove Lemma u: False."), params)
    assert key != prompt_hash(prompt, DecodingParams(n=3))


def test_prompt_hash_keeps_the_spelling_of_every_recorded_transcript():
    """Literal keys: any change to the canonical JSON (sorted keys, compact
    separators, non-ASCII kept) or to the hash would re-key every cache."""
    prompt = ChatPrompt(
        (ChatMessage("system", "You prove Coq lemmas."),
         ChatMessage("user", "Prove Lemma é : ∀ n : nat, n = n.")),
        config_tag="zs", target_id="f.v::é",
    )
    assert prompt_hash(prompt, DecodingParams(temperature=0.5, n=2, max_tokens=64, seed=7)) == (
        "5a66aeb80b9ec8773043455384c4dac4a770f9542735fcf4a8ba54fcd19c6051")
    assert prompt_hash(prompt, DecodingParams()) == (
        "ca3574e880ba2dd34152356aa1c28e313ff543a4ac4701bb511944aec6c18926")


def test_scripted_provider_in_order_and_cycling():
    provider = ScriptedProvider(
        {"entries": [{"theorem": "t", "completions": ["one", "two", "three"]}]}
    )
    assert complete(make_prompt(), DecodingParams(n=3), provider) == ["one", "two", "three"]
    # cursor advanced; next call wraps around cyclically
    assert provider.complete(make_prompt(), DecodingParams(n=2)) == ["one", "two"]


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


def test_a_theorem_selector_matches_the_target_id_only():
    provider = ScriptedProvider(
        {"default": "fallback", "entries": [{"theorem": "t", "completions": ["named"]}]}
    )
    assert provider.complete(make_prompt(target="t"), DecodingParams(n=1)) == ["named"]
    assert provider.complete(make_prompt(target="dir/f.v::t"), DecodingParams(n=1)) == ["named"]
    for target in ("", "f.v::tt", "f.v::t2"):  # "Lemma t" in the message is not a match
        assert provider.complete(make_prompt(target=target), DecodingParams(n=1)) == ["fallback"]


def test_scripted_provider_empty_script_means_default_everywhere():
    provider = ScriptedProvider({"entries": [], "default": "(* refusing *)"})
    out = provider.complete(make_prompt(), DecodingParams(n=3))
    assert out == ["(* refusing *)"] * 3


def test_scripted_provider_parse_errors(tmp_path):
    with pytest.raises(store.DecodeError, match="unknown key 'not-entries'"):
        ScriptedProvider({"not-entries": []})
    with pytest.raises(store.DecodeError, match="missing key 'entries'"):
        ScriptedProvider({"default": "x"})
    with pytest.raises(store.DecodeError, match="unknown key 'defualt'"):
        ScriptedProvider({"entries": [], "defualt": "x"})
    bad = tmp_path / "script.json"
    bad.write_text("{broken json")
    with pytest.raises(json.JSONDecodeError):
        ScriptedProvider(bad)
    with pytest.raises(store.DecodeError, match=re.escape("entries[0]: empty completions list")):
        ScriptedProvider({"entries": [{"theorem": "x", "completions": []}]})
    # Read leniently, these would serve one character per call, match every prompt,
    # and pass a non-string on as a completion.
    for entry, named in [({"completions": "Proof."}, "completions must be list[str], not 'Proof.'"),
                         ({"theorem_id": "t", "completions": ["a"]}, "unknown key 'theorem_id'"),
                         ({"completions": [7]}, "completions must be list[str], not [7]")]:
        with pytest.raises(store.DecodeError, match=re.escape(f"entries[3]: {named}")):
            ScriptedProvider({"entries": [{"completions": ["a"]}] * 3 + [entry]})


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
    replay = CachingProvider(None, cache)
    assert replay.complete(make_prompt(), DecodingParams(n=1)) == ["cached!"]
    with pytest.raises(CacheMiss):
        replay.complete(make_prompt(text="never seen"), DecodingParams(n=1))


def test_cache_survives_reserialization(tmp_path):
    cache = TranscriptCache(tmp_path)
    key = prompt_hash(make_prompt(), DecodingParams())
    cache.append(Transcript(key, ["a", "b"], "x", 1.0, (10, 20), retries=2))
    reread = TranscriptCache(tmp_path).lookup(key)
    assert reread.completions == ["a", "b"]
    assert reread.token_usage == (10, 20)
    assert reread.retries == 2



def test_cache_lookup_ignores_a_key_inside_another_row(tmp_path):
    cache = TranscriptCache(tmp_path)
    key = prompt_hash(make_prompt(), DecodingParams())
    decoy = key[:2] + "0" * 62  # same shard; its completion quotes `key`
    cache.append(Transcript(decoy, [f"(* see {key} *)"], "x", 1.0))
    assert cache.lookup(key) is None
    cache.append(Transcript(key, ["mine"], "x", 2.0))
    assert cache.lookup(key).completions == ["mine"]
    assert cache.lookup(decoy).completions == [f"(* see {key} *)"]


def test_a_key_stored_twice_replays_its_newer_row(tmp_path):
    """Two recorders racing on one key can both append it; a replay serves
    the row appended last."""
    cache = TranscriptCache(tmp_path)
    params = DecodingParams(n=1)
    key = prompt_hash(make_prompt(), params)
    cache.append(Transcript(key, ["older"], "x", 1.0))
    cache.append(Transcript(key[:2] + "0" * 62, ["other"], "x", 2.0))
    cache.append(Transcript(key, ["newer"], "x", 3.0))
    assert CachingProvider(None, cache).complete(make_prompt(), params) == ["newer"]
    assert cache.lookup(key).timestamp == 3.0


def test_looking_up_a_shards_last_row_decodes_one_row(tmp_path, monkeypatch):
    """A replayed call's row is near its shard's end, so a lookup decodes
    from the end: the 50 earlier rows that quote the key are never read."""
    cache = TranscriptCache(tmp_path)
    key = prompt_hash(make_prompt(), DecodingParams())
    for i in range(50):
        cache.append(Transcript(f"{key[:2]}{i:062x}", [f"(* see {key} *)"], "x", float(i)))
    cache.append(Transcript(key, ["mine"], "x", 50.0))
    decoded = []
    real_decode = store._decode

    def counting(path, data, start, end, decode):
        decoded.append(data[start:end])
        return real_decode(path, data, start, end, decode)

    monkeypatch.setattr(store, "_decode", counting)
    assert cache.lookup(key).completions == ["mine"]
    assert len(decoded) == 1 and json.loads(decoded[0])["prompt_hash"] == key


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="lists open descriptors on Linux")
def test_cache_lookups_leave_no_file_descriptor_open(tmp_path):
    cache = TranscriptCache(tmp_path)
    key = prompt_hash(make_prompt(), DecodingParams())
    cache.append(Transcript(key, ["mine"], "x", 1.0))
    others = [key[:2] + "0" * 62, "zz" + key[2:]]  # a miss in the shard, and a missing shard
    before = len(os.listdir("/proc/self/fd"))
    for _ in range(1000):
        assert cache.lookup(key).completions == ["mine"]
        assert cache.lookup(others[0]) is None and cache.lookup(others[1]) is None
    assert len(os.listdir("/proc/self/fd")) == before


_HEX = "0123456789abcdef"
_SHARD_KEYS = st.lists(
    st.text(_HEX, min_size=62, max_size=62).map(lambda tail: "ab" + tail),
    min_size=1, max_size=4, unique=True,
)


@st.composite
def _shards(draw):
    """A shard's keys and its bytes: own rows, duplicate keys, rows that
    quote another key in a completion or extend it in their own hash,
    CRLF or LF row ends, and an optional final newline."""
    keys = draw(_SHARD_KEYS)
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        key = draw(st.sampled_from(keys))
        text = draw(st.text(max_size=12))  # non-ASCII and control characters too
        kind = draw(st.sampled_from(["own", "quotes", "extends"]))
        if kind == "quotes":
            owner, completion = draw(st.sampled_from(keys)), f"{text} (* {key} *)"
        elif kind == "extends":
            owner, completion = key + draw(st.sampled_from(_HEX)), text
        else:
            owner, completion = key, text
        row = {"prompt_hash": owner, "completions": [completion], "provider": "x",
               "timestamp": float(len(rows)), "token_usage": [len(rows), 1], "retries": 0}
        ending = draw(st.sampled_from([b"\n", b"\r\n"]))
        rows.append(json.dumps(row, ensure_ascii=False).encode("utf-8") + ending)
    data = b"".join(rows)
    if rows and draw(st.booleans()):
        data = data.rstrip(b"\r\n")
    absent = "ab" + "f" * 61 + "e"  # absent unless drawn; either way it is checked
    return keys + [absent], data


@settings(max_examples=300, deadline=None)
@given(_shards())
def test_cache_lookup_agrees_with_line_scan_oracle(shard):
    keys, data = shard
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "ab.jsonl"
        path.write_bytes(data)
        cache = TranscriptCache(directory)
        for key in keys:
            expected = oracle_cache_lookup(path, key)
            found = cache.lookup(key)
            if expected is None:
                assert found is None
            else:
                expected["token_usage"] = tuple(expected["token_usage"])
                assert dataclasses.asdict(found) == expected


def test_cache_lookup_reads_rows_around_invalid_utf8(tmp_path):
    first, second = "ab" + "1" * 62, "ab" + "2" * 62
    cache = TranscriptCache(tmp_path)
    cache.append(Transcript(first, ["before"], "x", 1.0))
    with open(tmp_path / "ab.jsonl", "ab") as fh:
        fh.write(b'{"prompt_hash": "ab' + b"3" * 62 + b'", "completions": ["\xff\xfe"]}\n')
    cache.append(Transcript(second, ["after"], "x", 2.0))
    assert cache.lookup(first).completions == ["before"]
    assert cache.lookup(second).completions == ["after"]
    assert cache.lookup("ab" + "4" * 62) is None


def _ok(contents, usage=(5, 7)) -> str:
    return json.dumps({
        "choices": [{"message": {"content": c}} for c in contents],
        "usage": {"prompt_tokens": usage[0], "completion_tokens": usage[1]},
    })


def _scripted(stub, replies) -> None:
    """The stub answers its requests with `replies`, one each, in order."""
    replies = iter(replies)
    stub.reply = lambda request: next(replies)


def _provider(stub, rpm_limit=0, **settings) -> HttpChatProvider:
    return HttpChatProvider(f"http://127.0.0.1:{stub.server_address[1]}/v1", "model-x",
                            rpm_limit=rpm_limit, **settings)


def test_http_provider_retries_429_then_succeeds(monkeypatch, chat_stub):
    monkeypatch.setattr("time.sleep", lambda s: None)
    _scripted(chat_stub, [(429, "{}"), (429, "{}"), _ok(["done"])])
    provider = _provider(chat_stub)
    out = provider.complete(make_prompt(), DecodingParams(n=1))
    assert out == ["done"]
    assert len(chat_stub.requests) == 3
    assert provider.last_retries == 2
    assert provider.tokens_used == 12


def test_a_manifest_decoding_seed_reaches_the_http_payload(monkeypatch, chat_stub):
    monkeypatch.setattr("time.sleep", lambda s: None)
    _scripted(chat_stub, [_ok(["done"])] * 2)
    provider = _provider(chat_stub)
    for decoding in ({"n": 1, "seed": 7}, {"n": 1}):
        config = run_config_from_dict({"tag": "t", "mode": "zs", "decoding": decoding},
                                      DecodingParams())
        provider.complete(make_prompt(), config.decoding)
    payloads = [request for _, _, request in chat_stub.requests]
    assert payloads[0]["seed"] == 7
    assert "seed" not in payloads[1]


def test_recorded_transcript_keeps_the_tokens_its_call_paid(tmp_path, monkeypatch, chat_stub):
    monkeypatch.setattr("time.sleep", lambda s: None)
    _scripted(chat_stub, [_ok(["done"], usage=(5, 7)), _ok(["other"], usage=(11, 13))])
    provider = _provider(chat_stub)
    caching = CachingProvider(provider, TranscriptCache(tmp_path))
    params = DecodingParams(n=1)
    assert caching.complete(make_prompt(), params) == ["done"]
    assert provider.last_usage == (5, 7)
    assert caching.cache.lookup(prompt_hash(make_prompt(), params)).token_usage == (5, 7)

    seen = {}

    def other_thread() -> None:
        seen["before"] = provider.last_usage
        caching.complete(make_prompt(text="Prove Lemma u: True."), params)
        seen["after"] = provider.last_usage

    thread = threading.Thread(target=other_thread)
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive()
    assert seen == {"before": (0, 0), "after": (11, 13)}
    assert provider.last_usage == (5, 7)
    other = caching.cache.lookup(prompt_hash(make_prompt(text="Prove Lemma u: True."), params))
    assert other.token_usage == (11, 13)

    scripted = ScriptedProvider({"entries": [{"theorem": "t", "completions": ["alpha"]}]})
    CachingProvider(scripted, TranscriptCache(tmp_path / "scripted")).complete(
        make_prompt(), params
    )
    assert TranscriptCache(tmp_path / "scripted").lookup(
        prompt_hash(make_prompt(), params)
    ).token_usage == (0, 0)


def test_http_provider_gives_up_after_max_tries(monkeypatch, chat_stub):
    monkeypatch.setattr("time.sleep", lambda s: None)
    _scripted(chat_stub, [(500, "{}")] * 5)
    provider = _provider(chat_stub)
    with pytest.raises(ProviderError) as err:
        provider.complete(make_prompt(), DecodingParams(n=1))
    assert err.value.status == 500
    assert len(chat_stub.requests) == 5


def test_http_provider_retries_a_refused_connection_as_minus_1(monkeypatch, no_proxy):
    slept = []
    monkeypatch.setattr("time.sleep", slept.append)
    with socket.socket() as unlistened:  # bound, so no other test takes the port; never listening
        unlistened.bind(("127.0.0.1", 0))
        provider = HttpChatProvider(f"http://127.0.0.1:{unlistened.getsockname()[1]}/v1",
                                    "model-x", rpm_limit=0)
        with pytest.raises(ProviderError) as err:
            provider.complete(make_prompt(), DecodingParams(n=1))
    assert err.value.status == -1 and "Connection refused" in err.value.body
    assert slept == [1.0, 2.0, 4.0, 8.0]  # no wait after the last try


def test_http_provider_retries_a_reply_slower_than_its_timeout(monkeypatch, caplog, chat_stub):
    monkeypatch.setattr("time.sleep", lambda s: None)
    release = threading.Event()  # not time.sleep, which this test patches

    def reply(request):
        if len(chat_stub.requests) == 1:  # answered only after the provider gave up on it
            release.wait(timeout=30)
        return _ok(["in time"])

    chat_stub.reply = reply
    provider = _provider(chat_stub, timeout=1.0)
    try:
        assert provider.complete(make_prompt(), DecodingParams(n=1)) == ["in time"]
    finally:
        release.set()
    assert len(chat_stub.requests) == 2 and provider.last_retries == 1
    assert "provider returned -1; retry 1/5" in caplog.text


@pytest.mark.parametrize("status", [301, 302, 303, 307, 308])
def test_http_provider_does_not_follow_a_redirect(monkeypatch, chat_stub, status):
    """A redirect ends the call at once as a provider error with its status,
    and its target, here another host, gets no request and so no API key."""
    monkeypatch.setattr("time.sleep", lambda s: None)
    monkeypatch.setenv("COQHARNESS_API_KEY", "sk-secret")
    with serve_chat_stub() as elsewhere:
        target = f"http://127.0.0.1:{elsewhere.server_address[1]}/v1/chat/completions"
        chat_stub.reply = lambda request: (status, "moved", {"Location": target})
        provider = _provider(chat_stub)
        with pytest.raises(ProviderError) as err:
            provider.complete(make_prompt(), DecodingParams(n=1))
    assert (err.value.status, err.value.body) == (status, "moved")
    assert [(path, key) for path, key, _ in chat_stub.requests] == [
        ("/v1/chat/completions", "Bearer sk-secret")]
    assert elsewhere.requests == []


def test_a_fault_on_the_request_path_is_raised_after_one_call(monkeypatch):
    """Only a connection failure or a retried status is retried: a bug in
    the harness's own request code surfaces as itself, not as a ProviderError."""
    calls, slept = [], []

    def broken(*args, **kwargs):
        calls.append(args)
        raise TypeError("a harness bug")

    monkeypatch.setattr(urllib.request.OpenerDirector, "open", broken)
    monkeypatch.setattr("time.sleep", slept.append)
    provider = HttpChatProvider("http://127.0.0.1:9/v1", "model-x", rpm_limit=0)
    with pytest.raises(TypeError, match="a harness bug"):
        provider.complete(make_prompt(), DecodingParams(n=1))
    assert len(calls) == 1 and slept == []


def test_http_provider_nonretryable_is_immediate(monkeypatch, chat_stub):
    monkeypatch.setattr("time.sleep", lambda s: None)
    _scripted(chat_stub, [(401, "{}")])
    provider = _provider(chat_stub)
    with pytest.raises(ProviderError) as err:
        provider.complete(make_prompt(), DecodingParams(n=1))
    assert err.value.status == 401
    assert len(chat_stub.requests) == 1


def test_http_provider_budgets(monkeypatch, chat_stub):
    monkeypatch.setattr("time.sleep", lambda s: None)
    _scripted(chat_stub, [_ok(["x"], usage=(600, 600))])
    provider = _provider(chat_stub, token_budget=1000)
    provider.complete(make_prompt(), DecodingParams(n=1))
    with pytest.raises(BudgetExceeded):
        provider.complete(make_prompt(), DecodingParams(n=1))


@pytest.mark.parametrize(
    "body",
    [
        "<html>502 Bad Gateway</html>",
        "[]",
        '{"error": "overloaded"}',
        '{"choices": [{"message": {}}]}',
        '{"choices": "none"}',
        '{"choices": [{"message": {"content": "x"}}], "usage": {"prompt_tokens": "3"}}',
        '{"choices": [{"message": {"content": "x"}}], "usage": []}',
    ],
)
def test_http_provider_malformed_200_reply_is_a_provider_error(chat_stub, body):
    _scripted(chat_stub, [body])
    provider = _provider(chat_stub)
    with pytest.raises(ProviderError) as err:
        complete(make_prompt(), DecodingParams(n=1), provider)
    assert err.value.status == 200 and body in err.value.body
    assert len(chat_stub.requests) == 1
    assert provider.tokens_used == 0


def test_http_provider_null_content_is_an_empty_completion(chat_stub):
    _scripted(chat_stub, [_ok(["x", None])])
    provider = _provider(chat_stub)
    assert complete(make_prompt(), DecodingParams(n=2), provider) == ["x", ""]


@pytest.mark.parametrize("rpm_limit, posted_at", [(120, [100.0, 100.5]), (0, [100.0, 100.1])])
def test_http_provider_throttles_to_its_rpm_limit(monkeypatch, chat_stub, rpm_limit, posted_at):
    now, slept, posts = [100.0], [], []

    def sleep(seconds):
        slept.append(seconds)
        now[0] += seconds

    def reply(request):
        posts.append(now[0])  # the fake clock when the request arrives
        return _ok(["x"])

    monkeypatch.setattr(client, "time", SimpleNamespace(monotonic=lambda: now[0], sleep=sleep))
    chat_stub.reply = reply
    provider = _provider(chat_stub, rpm_limit=rpm_limit)
    provider.complete(make_prompt(), DecodingParams(n=1))
    now[0] += 0.1  # the caller's own work between two calls
    provider.complete(make_prompt(), DecodingParams(n=1))
    assert posts == pytest.approx(posted_at)
    assert slept == ([pytest.approx(0.4)] if rpm_limit else [])


def test_complete_checks_count():
    provider = ScriptedProvider({"entries": [{"theorem": "t", "completions": ["only"]}]})

    class Short:
        name = "short"

        def complete(self, prompt, params):
            return ["too few"]

    assert len(complete(make_prompt(), DecodingParams(n=4), provider)) == 4
    with pytest.raises(ProviderError):
        complete(make_prompt(), DecodingParams(n=2), Short())


def test_http_provider_under_threads_counts_tokens_and_caches_own_retries(
    tmp_path, monkeypatch, chat_stub
):
    monkeypatch.setattr("time.sleep", lambda s: None)
    texts = [f"Prove Lemma t{i}: True." for i in range(240)]
    retries = {text: i % 3 for i, text in enumerate(texts)}
    remaining, lock = dict(retries), threading.Lock()

    def reply(request):
        """503 for each prompt its scripted number of times, then its answer,
        with the prompt's length in prompt tokens plus one as its usage."""
        key = request["messages"][-1]["content"]
        with lock:
            remaining[key] -= 1
            if remaining[key] >= 0:
                return 503, "{}"
        return _ok([key], usage=(len(key), 1))

    chat_stub.reply = reply
    provider = _provider(chat_stub)
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
