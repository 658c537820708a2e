"""Completion providers: live HTTP chat endpoint, scripted replay, cache.

The wire format is the de-facto chat-completions JSON schema, so any
compatible endpoint works through one base-URL config. Every successful
call can be appended to a content-addressed transcript cache (JSON Lines
keyed by prompt hash prefix), which doubles as the reproducibility artifact
and as a no-network replay source.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import re
import threading
import time
from dataclasses import dataclass, fields
from pathlib import Path

from .prompting import ChatPrompt

log = logging.getLogger(__name__)

# §-style run defaults: T=1, presence_penalty=0.1, n=5 samples per prompt.
DEFAULT_TEMPERATURE = 1.0
DEFAULT_PRESENCE_PENALTY = 0.1
DEFAULT_N = 5
DEFAULT_MAX_TOKENS = 1024

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


class ScriptParseError(Exception):
    pass


@dataclass(frozen=True)
class DecodingParams:
    temperature: float = DEFAULT_TEMPERATURE
    presence_penalty: float = DEFAULT_PRESENCE_PENALTY
    n: int = DEFAULT_N
    max_tokens: int = DEFAULT_MAX_TOKENS
    seed: int | None = None

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.max_tokens < 1:
            raise ValueError("max_tokens must be >= 1")
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")


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
    payload = {
        "messages": [[m.role, m.content] for m in prompt.messages],
        "temperature": params.temperature,
        "presence_penalty": params.presence_penalty,
        "n": params.n,
        "max_tokens": params.max_tokens,
        "seed": params.seed,
    }
    canonical = json.dumps(payload, sort_keys=True, ensure_ascii=False, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


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
    cursor: int = 0

    def matches(self, prompt: ChatPrompt) -> bool:
        if self.theorem is not None:
            target = prompt.target_id or ""
            if target:
                named = self.theorem == target or target.endswith(f"::{self.theorem}")
            else:
                # hand-built prompts without ids: match the theorem name in
                # the final message instead
                named = bool(
                    re.search(rf"\b{re.escape(self.theorem)}\b", prompt.messages[-1].content)
                )
            if not named:
                return False
        if self.config_tag is not None and self.config_tag != prompt.config_tag:
            return False
        if self.variant_id is not None and self.variant_id != prompt.variant_id:
            return False
        if self.last_message_contains is not None and (
            self.last_message_contains not in prompt.messages[-1].content
        ):
            return False
        return True


class ScriptedProvider(Provider):
    """Deterministic provider driven by a selector -> completions table.

    Selectors match on theorem id/name, config tag, variant id, and a
    substring of the final message; the first matching entry wins. Each
    entry hands out its completions cyclically across calls, which lets a
    single entry script a multi-turn dialogue.
    """

    name = "scripted"

    def __init__(self, script: dict | str | Path, default: str | None = None):
        if isinstance(script, (str, Path)):
            try:
                script = json.loads(Path(script).read_text(encoding="utf-8"))
            except (OSError, json.JSONDecodeError) as exc:
                raise ScriptParseError(str(exc)) from exc
        if not isinstance(script, dict) or "entries" not in script:
            raise ScriptParseError("script must be an object with an 'entries' list")
        self.default = script.get("default") if default is None else default
        self.entries: list[_ScriptEntry] = []
        for raw in script["entries"]:
            try:
                completions = list(raw["completions"])
            except (TypeError, KeyError) as exc:
                raise ScriptParseError(f"bad entry {raw!r}") from exc
            if not completions:
                raise ScriptParseError("entry with empty completions list")
            self.entries.append(
                _ScriptEntry(
                    completions=completions,
                    theorem=raw.get("theorem"),
                    config_tag=raw.get("config_tag"),
                    variant_id=raw.get("variant_id"),
                    last_message_contains=raw.get("last_message_contains"),
                )
            )

    def reset(self) -> None:
        for entry in self.entries:
            entry.cursor = 0

    def complete(self, prompt: ChatPrompt, params: DecodingParams) -> list[str]:
        for entry in self.entries:
            if entry.matches(prompt):
                out = []
                for _ in range(params.n):
                    out.append(entry.completions[entry.cursor % len(entry.completions)])
                    entry.cursor += 1
                return out
        if self.default is None:
            raise ProviderError(0, f"no scripted completion for prompt {prompt.target_id!r}")
        return [self.default] * params.n


# ---------------------------------------------------------------------------
# Live HTTP provider
# ---------------------------------------------------------------------------


class HttpChatProvider(Provider):
    """Chat-completions client with bounded retries and an RPM ceiling."""

    name = "http"

    def __init__(
        self,
        base_url: str,
        model_name: str,
        api_key_env: str = "COQHARNESS_API_KEY",
        rpm_limit: float = 60.0,
        token_budget: int | None = None,
        timeout: float = 120.0,
        session=None,
    ):
        self.base_url = base_url.rstrip("/")
        self.model_name = model_name
        self.api_key = os.environ.get(api_key_env, "")
        self.rpm_limit = rpm_limit
        self.token_budget = token_budget
        self.timeout = timeout
        self.tokens_used = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._last_request = 0.0
        if session is None:
            import requests

            session = requests.Session()
        self._session = session

    @property
    def last_retries(self) -> int:  # of this thread's last successful call
        return getattr(self._local, "retries", 0)

    def _throttle(self) -> None:
        if self.rpm_limit <= 0:
            return
        interval = 60.0 / self.rpm_limit
        with self._lock:
            wait = self._last_request + interval - time.monotonic()
            if wait > 0:
                time.sleep(wait)
            self._last_request = time.monotonic()

    def _check_budgets(self) -> None:
        if self.token_budget is not None and self.tokens_used >= self.token_budget:
            raise BudgetExceeded(f"token budget of {self.token_budget} reached")

    def complete(self, prompt: ChatPrompt, params: DecodingParams) -> list[str]:
        self._check_budgets()
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

        backoff = 1.0
        last_status, last_body = 0, ""
        for attempt in range(MAX_TRIES):
            self._throttle()
            try:
                response = self._session.post(
                    f"{self.base_url}/chat/completions",
                    json=payload,
                    headers=headers,
                    timeout=self.timeout,
                )
                status = response.status_code
                body = response.text
            except Exception as exc:  # connection-level failure: retryable
                status, body = -1, repr(exc)
            if status == 200:
                self._local.retries = attempt
                data = json.loads(body)
                usage = data.get("usage", {})
                spent = usage.get("prompt_tokens", 0) + usage.get("completion_tokens", 0)
                with self._lock:
                    self.tokens_used += spent
                    if self.token_budget is not None and self.tokens_used > self.token_budget:
                        log.warning("token budget exceeded after call; aborting run")
                return [choice["message"]["content"] for choice in data["choices"]]
            last_status, last_body = status, body
            if status not in (-1, 408, 409, 429) and not 500 <= status < 600:
                break  # non-retryable client error
            log.warning("provider returned %s; retry %d/%d", status, attempt + 1, MAX_TRIES)
            time.sleep(backoff)
            backoff *= 2
        raise ProviderError(last_status, last_body)


# ---------------------------------------------------------------------------
# Transcript cache
# ---------------------------------------------------------------------------


class TranscriptCache:
    """Append-only JSON Lines store sharded by prompt-hash prefix."""

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()

    def _shard(self, key: str) -> Path:
        return self.directory / f"{key[:2]}.jsonl"

    def lookup(self, key: str) -> Transcript | None:
        shard = self._shard(key)
        if not shard.exists():
            return None
        with open(shard, encoding="utf-8") as fh:
            for line in fh:
                if not line.strip():
                    continue
                row = json.loads(line)
                if row["prompt_hash"] == key:
                    values = {f.name: row[f.name] for f in fields(Transcript) if f.name in row}
                    values["token_usage"] = tuple(values.get("token_usage", (0, 0)))
                    return Transcript(**values)
        return None

    def append(self, transcript: Transcript) -> None:
        line = json.dumps(transcript, ensure_ascii=False, default=vars) + "\n"
        with self._lock:
            with open(self._shard(transcript.prompt_hash), "a", encoding="utf-8") as fh:
                fh.write(line)


class CachingProvider(Provider):
    """Wraps a provider with the transcript cache; replay mode never
    touches the wrapped provider and fails on a miss."""

    def __init__(self, inner: Provider | None, cache: TranscriptCache, replay_only: bool = False):
        if inner is None and not replay_only:
            raise ValueError("a live inner provider is required outside replay mode")
        self.inner = inner
        self.cache = cache
        self.replay_only = replay_only
        self.hits = 0
        self.misses = 0
        self._lock = threading.Lock()

    @property
    def name(self) -> str:
        return f"cache({self.inner.name if self.inner else 'replay'})"

    def complete(self, prompt: ChatPrompt, params: DecodingParams) -> list[str]:
        key = prompt_hash(prompt, params)
        cached = self.cache.lookup(key)
        if cached is not None:
            with self._lock:
                self.hits += 1
            return list(cached.completions)
        if self.replay_only:
            raise CacheMiss(f"no cached transcript for {key}")
        with self._lock:
            self.misses += 1
        assert self.inner is not None
        completions = self.inner.complete(prompt, params)
        retries = getattr(self.inner, "last_retries", 0)
        self.cache.append(
            Transcript(key, list(completions), self.inner.name, time.time(), retries=retries)
        )
        return completions
