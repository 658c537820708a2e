"""Completion providers: live HTTP chat endpoint, scripted replay, cache.

The wire format is the de-facto chat-completions JSON schema, so any
compatible endpoint works through one base-URL config. Every successful
call can be appended to a content-addressed transcript cache (JSON Lines
keyed by prompt hash prefix), which doubles as the reproducibility artifact
and as a no-network replay source.
"""

from __future__ import annotations

import json
import logging
import math
import os
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from . import store
from .prompting import ChatPrompt

log = logging.getLogger(__name__)

MAX_TRIES = 5


class ProviderError(Exception):
    def __init__(self, status: int, body: str):
        super().__init__(f"provider error {status}: {body[:500]}")
        self.status = status
        self.body = body


class BudgetExceeded(Exception):
    pass


class CacheMiss(Exception):
    pass


@dataclass(frozen=True)
class DecodingParams:  # §-style run defaults: T=1, presence_penalty=0.1, n=5 samples per prompt
    temperature: float = 1.0
    presence_penalty: float = 0.1
    n: int = 5
    max_tokens: int = 1024
    seed: int | None = None

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.max_tokens < 1:
            raise ValueError("max_tokens must be >= 1")
        if not 0 <= self.temperature < math.inf:
            raise ValueError(f"temperature must be finite and >= 0, not {self.temperature}")
        if not math.isfinite(self.presence_penalty):
            raise ValueError(f"presence_penalty must be finite, not {self.presence_penalty}")


@dataclass
class Transcript:
    prompt_hash: str
    completions: list[str]
    provider: str
    timestamp: float
    token_usage: tuple[int, int] = (0, 0)
    retries: int = 0


def prompt_hash(prompt: ChatPrompt, params: DecodingParams) -> str:
    """Stable content hash over messages and decoding parameters."""
    return store.content_hash({
        "messages": [[m.role, m.content] for m in prompt.messages],
        "temperature": params.temperature,
        "presence_penalty": params.presence_penalty,
        "n": params.n,
        "max_tokens": params.max_tokens,
        "seed": params.seed,
    })


class Provider:
    name = "provider"

    def complete(self, prompt: ChatPrompt, params: DecodingParams) -> list[str]:
        raise NotImplementedError


def complete(prompt: ChatPrompt, params: DecodingParams, provider: Provider) -> list[str]:
    """Sample params.n completions for the prompt from the provider."""
    completions = provider.complete(prompt, params)
    if len(completions) != params.n:
        raise ProviderError(0, f"provider returned {len(completions)} completions, wanted {params.n}")
    return completions


# ---------------------------------------------------------------------------
# Scripted provider
# ---------------------------------------------------------------------------


@dataclass
class _ScriptEntry:
    completions: list[str]
    theorem: str | None = None
    config_tag: str | None = None
    variant_id: str | None = None
    last_message_contains: str | None = None

    def __post_init__(self):
        if not self.completions:
            raise ValueError("empty completions list")

    def matches(self, prompt: ChatPrompt) -> bool:
        theorem, target = self.theorem, prompt.target_id
        return ((theorem is None or target == theorem or target.endswith(f"::{theorem}"))
                and self.config_tag in (None, prompt.config_tag)
                and self.variant_id in (None, prompt.variant_id)
                and (self.last_message_contains is None
                     or self.last_message_contains in prompt.messages[-1].content))


@dataclass
class _ScriptFile:
    entries: list[_ScriptEntry]
    default: str | None = None  # the completion of a prompt that no entry matches


class ScriptedProvider(Provider):
    """Deterministic provider driven by a selector -> completions table.

    Selectors match on theorem id/name, config tag, variant id, and a
    substring of the final message; the first matching entry wins. Each
    entry hands out its completions cyclically across the calls for one
    target, which lets a single entry script a multi-turn dialogue. A
    prompt that no entry matches gets the script's `default`, if it has one.
    """

    name = "scripted"

    def __init__(self, script: dict | str | Path):
        """A script file or its JSON object; store.DecodeError if it is malformed."""
        if isinstance(script, (str, Path)):
            script = json.loads(Path(script).read_text(encoding="utf-8"))
        script = store.decode(_ScriptFile, script)
        self.entries, self.default = script.entries, script.default
        self._cursors: dict[tuple[int, str], int] = {}  # (entry position, target id)
        self._lock = threading.Lock()

    def complete(self, prompt: ChatPrompt, params: DecodingParams) -> list[str]:
        for position, entry in enumerate(self.entries):
            if entry.matches(prompt):
                key = (position, prompt.target_id)
                with self._lock:
                    start = self._cursors.get(key, 0)
                    self._cursors[key] = start + params.n
                cycle = entry.completions
                return [cycle[i % len(cycle)] for i in range(start, start + params.n)]
        if self.default is None:
            raise ProviderError(0, f"no scripted completion for prompt {prompt.target_id!r}")
        return [self.default] * params.n


# ---------------------------------------------------------------------------
# Live HTTP provider
# ---------------------------------------------------------------------------


class HttpChatProvider(Provider):
    """Chat-completions client with bounded retries and an RPM ceiling."""

    name = "http"

    def __init__(self, base_url: str, model_name: str, api_key_env: str = "COQHARNESS_API_KEY",
                 rpm_limit: float = 60.0, token_budget: int | None = None,
                 timeout: float = 120.0):
        self.base_url = base_url.rstrip("/")
        self.model_name = model_name
        self.api_key = os.environ.get(api_key_env, "")
        if math.isnan(rpm_limit):  # else the throttle never waits
            raise ValueError("rpm_limit must be a number, not nan")
        self.rpm_limit = rpm_limit
        self.token_budget = token_budget
        self.timeout = timeout
        self.tokens_used = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._last_request = 0.0

    @property
    def last_retries(self) -> int:  # of this thread's last successful call
        return getattr(self._local, "retries", 0)

    @property
    def last_usage(self) -> tuple[int, int]:  # (prompt, completion) tokens, likewise
        return getattr(self._local, "usage", (0, 0))

    def _throttle(self) -> None:
        if self.rpm_limit <= 0:
            return
        interval = 60.0 / self.rpm_limit
        with self._lock:
            wait = self._last_request + interval - time.monotonic()
            if wait > 0:
                time.sleep(wait)
            self._last_request = time.monotonic()

    def complete(self, prompt: ChatPrompt, params: DecodingParams) -> list[str]:
        import http.client  # here, not at the top: with ssl they load ~3 MB no other command uses
        import urllib.error
        import urllib.request
        if self.token_budget is not None and self.tokens_used >= self.token_budget:
            raise BudgetExceeded(f"token budget of {self.token_budget} reached")
        payload = {
            "model": self.model_name,
            "messages": [{"role": m.role, "content": m.content} for m in prompt.messages],
            "temperature": params.temperature,
            "presence_penalty": params.presence_penalty,
            "n": params.n,
            "max_tokens": params.max_tokens,
        }
        if params.seed is not None:
            payload["seed"] = params.seed
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        request = urllib.request.Request(f"{self.base_url}/chat/completions",
                                         json.dumps(payload).encode(), headers)

        class NoRedirect(urllib.request.HTTPRedirectHandler):
            def redirect_request(self, *args):  # a 3xx is an HTTPError: the key stays here
                return None

        opener = urllib.request.build_opener(NoRedirect)  # proxies from *_proxy; a connection per call
        backoff = 1.0
        for attempt in range(MAX_TRIES):
            self._throttle()
            try:
                try:
                    response = opener.open(request, timeout=self.timeout)
                except urllib.error.HTTPError as exc:  # a status outside 2xx, a 3xx too
                    response = exc
                with response:
                    status, body = response.status, response.read().decode(errors="replace")
            except (OSError, http.client.HTTPException) as exc:  # a connection failure
                status, body = -1, repr(exc)
            if status == 200:
                completions, paid = _read_reply(body)
                self._local.retries = attempt
                self._local.usage = paid
                with self._lock:
                    self.tokens_used += sum(paid)
                    if self.token_budget is not None and self.tokens_used > self.token_budget:
                        log.warning("token budget exceeded after call; aborting run")
                return completions
            if attempt + 1 == MAX_TRIES or not (status in (-1, 408, 409, 429) or 500 <= status < 600):
                break  # the last try, or a status that a retry cannot mend
            log.warning("provider returned %s; retry %d/%d", status, attempt + 1, MAX_TRIES)
            time.sleep(backoff)
            backoff *= 2
        raise ProviderError(status, body)


def _read_reply(body: str) -> tuple[list[str], tuple[int, int]]:
    """A status-200 body's completions and token usage, else a ProviderError."""
    try:
        data = json.loads(body)
        completions = [choice["message"]["content"] for choice in data["choices"]]
        completions = ["" if c is None else c for c in completions]  # a refused reply
        usage = data.get("usage", {})
        paid = (usage.get("prompt_tokens", 0), usage.get("completion_tokens", 0))
        if not all(isinstance(c, str) for c in completions):
            raise TypeError("a completion is not a string")
        if not all(isinstance(t, int) for t in paid):
            raise TypeError("a token count is not an integer")
        return completions, paid
    except (ValueError, LookupError, TypeError, AttributeError) as exc:
        raise ProviderError(200, f"malformed reply ({exc!r}): {body}") from None


# ---------------------------------------------------------------------------
# Transcript cache
# ---------------------------------------------------------------------------


class TranscriptCache:
    """Append-only JSON Lines store (`store`) sharded by prompt-hash prefix."""

    def __init__(self, directory: str | Path):
        Path(directory).mkdir(parents=True, exist_ok=True)
        self.directory = str(Path(directory))

    def _shard(self, key: str) -> str:
        return f"{self.directory}/{key[:2]}.jsonl"

    def lookup(self, key: str) -> Transcript | None:
        """Newest row of the key's shard whose prompt_hash is `key`, found by
        byte search from the shard's end (`store.find_row`): a replay asks
        for the rows its recording appended last."""
        shard = self._shard(key)
        try:
            data = store.read(shard)
        except FileNotFoundError:
            return None
        found = store.find_row(shard, data, key.encode(), lambda row: (
            row.get("prompt_hash") == key and store.decode(Transcript, row)), last=True)
        return found and found[0]

    def append(self, transcript: Transcript) -> None:
        store.append(self._shard(transcript.prompt_hash), transcript)


class CachingProvider(Provider):
    """Wraps a provider with the transcript cache. With no inner provider it
    replays: a miss is a CacheMiss."""

    def __init__(self, inner: Provider | None, cache: TranscriptCache):
        self.inner = inner
        self.cache = cache
        self.hits = 0
        self.misses = 0
        self._lock = threading.Lock()

    def complete(self, prompt: ChatPrompt, params: DecodingParams) -> list[str]:
        key = prompt_hash(prompt, params)
        cached = self.cache.lookup(key)
        if cached is not None:
            with self._lock:
                self.hits += 1
            return list(cached.completions)
        if self.inner is None:
            raise CacheMiss(f"no cached transcript for {key}")
        with self._lock:
            self.misses += 1
        completions = self.inner.complete(prompt, params)
        retries = getattr(self.inner, "last_retries", 0)
        usage = getattr(self.inner, "last_usage", (0, 0))
        self.cache.append(
            Transcript(key, list(completions), self.inner.name, time.time(), usage, retries)
        )
        return completions
