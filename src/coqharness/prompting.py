"""Chat prompt construction and model-output parsing.

Prompt wordings live in a template file (data/prompt_templates.txt) so
experiments can vary them without touching code; builders here assemble the
message lists for every run mode and parse completions back into proof
scripts or refusals.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path

from .sentences import (
    LexicalError, Sentence, _skip_comment, is_closing, is_statement, normalize_space,
    segment_sentences,
)

ROLES = ("system", "user", "assistant")

PROOF, REFUSAL, EMPTY, MALFORMED = "proof", "refusal", "empty", "malformed"

REFUSAL_PATTERNS = (
    "provide more information",
    "cannot generate",
    "please define",
)

STRATEGIES = ("simple-tactics-first", "no-lemma-use", "verbose-stepwise", "example-reorder")

_REORDER_RE = re.compile(r"^example-reorder(?::(\d+)|\((\d+)\))\Z")
_PLACEHOLDER_RE = re.compile(r"\{(statement|lemmas|examples|state|error)\}")


class PromptError(Exception):
    pass


@dataclass(frozen=True)
class ChatMessage:
    role: str
    content: str

    def __post_init__(self):
        if self.role not in ROLES:
            raise ValueError(f"bad role {self.role!r}")
        if not self.content:
            raise ValueError("empty message content")


@dataclass(frozen=True)
class ChatPrompt:
    messages: tuple[ChatMessage, ...]
    config_tag: str
    variant_id: str = "base"
    target_id: str = ""
    dropped_examples: int = 0

    def __post_init__(self):
        if not self.messages or self.messages[0].role != "system":
            raise ValueError("first message must be the system message")
        if sum(1 for m in self.messages if m.role == "system") != 1:
            raise ValueError("exactly one system message allowed")
        if self.messages[-1].role != "user":
            raise ValueError("final message must have role user")

    def appended(self, *extra: ChatMessage) -> "ChatPrompt":
        return replace(self, messages=self.messages + tuple(extra))


@dataclass(frozen=True)
class ParsedCompletion:
    kind: str
    raw: str
    proof_script: str | None = None
    refusal_text: str | None = None
    appended_qed: bool = False
    lexical: bool = False  # malformed specifically because segmentation failed
    # a proof's sentences, less an appended Qed.; spans index the unfenced reply
    sentences: tuple[Sentence, ...] = ()


# ---------------------------------------------------------------------------
# Templates
# ---------------------------------------------------------------------------


class TemplateSet:
    """Named plain-text sections with {placeholder} substitution."""

    def __init__(self, sections: dict[str, str]):
        self.sections = sections

    @staticmethod
    def parse(text: str) -> "TemplateSet":
        sections: dict[str, str] = {}
        name: str | None = None
        body: list[str] = []
        for line in text.splitlines():
            if line.startswith(";"):
                continue
            header = re.fullmatch(r"\[([A-Za-z0-9_.\-]+)\]\s*", line)
            if header:
                if name is not None:
                    sections[name] = "\n".join(body).strip("\n")
                name = header.group(1)
                body = []
            elif name is not None:
                body.append(line)
        if name is not None:
            sections[name] = "\n".join(body).strip("\n")
        return TemplateSet(sections)

    @staticmethod
    def load(path: str | Path | None = None) -> "TemplateSet":
        if path is None:
            text = resources.files("coqharness.data").joinpath("prompt_templates.txt").read_text(
                encoding="utf-8"
            )
        else:
            try:
                text = Path(path).read_text(encoding="utf-8")
            except UnicodeDecodeError as exc:
                raise PromptError(f"bad template file {path}: {exc}") from None
        return TemplateSet.parse(text)

    def render(self, section: str, **values: object) -> str:
        try:
            template = self.sections[section]
        except KeyError:
            raise PromptError(f"missing template section [{section}]") from None
        return _PLACEHOLDER_RE.sub(lambda m: str(values.get(m.group(1), m.group(0))), template)


# ---------------------------------------------------------------------------
# Prompt builders
# ---------------------------------------------------------------------------


def _render_lemmas(lemmas: list[tuple[str, str]]) -> str:
    return "\n".join(f"{name}: {statement.strip()}" for name, statement in lemmas)


def build_prompt(
    config,
    target,
    templates: TemplateSet,
    examples: list = (),
    lemmas: list[tuple[str, str]] = (),
    example_lemmas: list[list[tuple[str, str]]] | None = None,
    interactive: bool = False,
) -> ChatPrompt:
    """Assemble the prompt for one theorem under one run configuration.

    `config` needs .mode, .tag, .zero_shot, .with_lemmas and
    .max_prompt_chars (see agent.RunConfig). Examples arrive
    least-similar first so over-budget prompts shed the farthest example;
    each example renders as a user/assistant turn pair. `example_lemmas`
    optionally carries, per example, the (name, statement) list shown with
    it in the +lemma formats.
    """
    zero_shot, with_lemmas = config.zero_shot, config.with_lemmas
    target_id = getattr(target, "id", "")
    if not zero_shot and not examples:
        raise PromptError(f"{target_id}, config {config.tag!r}: {config.mode} requires few-shot examples")

    system_text = templates.render("system.base")
    if not zero_shot:
        system_text += "\n\n" + templates.render("system.fewshot_suffix", examples=len(examples))
    if with_lemmas:
        system_text += "\n\n" + templates.render("system.lemma_suffix")
    if interactive:
        system_text += "\n\n" + templates.render("system.interactive_suffix")

    def user(section: str, record, record_lemmas) -> ChatMessage:
        """The record's user message from `section`, or from `section`_with_lemmas to show lemmas."""
        if with_lemmas and record_lemmas:
            return ChatMessage("user", templates.render(
                f"{section}_with_lemmas",
                statement=record.statement_text,
                lemmas=_render_lemmas(record_lemmas),
            ))
        return ChatMessage("user", templates.render(section, statement=record.statement_text))

    target_message = user("user.target", target, lemmas)
    pairs = [(user("user.example", record, record_lemmas), ChatMessage("assistant", record.proof_text))
             for record, record_lemmas in zip(examples, example_lemmas or [()] * len(examples))]
    total = len(system_text) + len(target_message.content)
    total += sum(len(example.content) + len(proof.content) for example, proof in pairs)
    dropped, max_prompt_chars = 0, config.max_prompt_chars
    while max_prompt_chars is not None and total > max_prompt_chars and pairs:
        example, proof = pairs.pop(0)
        total -= len(example.content) + len(proof.content)
        dropped += 1
    messages = [ChatMessage("system", system_text), *(m for pair in pairs for m in pair), target_message]

    return ChatPrompt(
        tuple(messages),
        config_tag=config.tag,
        target_id=target_id,
        dropped_examples=dropped,
    )


def known_strategy(strategy: str) -> bool:
    """Whether diversify accepts `strategy`: a STRATEGIES name or example-reorder:N."""
    if _REORDER_RE.match(strategy):
        return True
    return strategy in STRATEGIES and strategy != "example-reorder"


def diversify(prompt: ChatPrompt, strategies: list[str], templates: TemplateSet) -> list[ChatPrompt]:
    """One variant per strategy, differing from the base only in system
    message text and/or example order."""
    variants: list[ChatPrompt] = []
    for strategy in strategies:
        reorder = _REORDER_RE.match(strategy)
        if reorder:
            pairs = _example_pairs(prompt)
            rng = random.Random(int(reorder.group(1) or reorder.group(2)))
            rng.shuffle(pairs)
            flat = [m for pair in pairs for m in pair]
            messages = (prompt.messages[0], *flat, prompt.messages[-1])
            variants.append(replace(prompt, messages=messages, variant_id=strategy))
            continue
        addendum = templates.render(f"variant.{strategy}")
        system = ChatMessage("system", prompt.messages[0].content + "\n\n" + addendum)
        variants.append(
            replace(prompt, messages=(system,) + prompt.messages[1:], variant_id=strategy)
        )
    return variants


def _example_pairs(prompt: ChatPrompt) -> list[tuple[ChatMessage, ChatMessage]]:
    """build_prompt's (user, assistant) example pairs, between the system and target messages."""
    middle = prompt.messages[1:-1]
    return list(zip(middle[::2], middle[1::2]))


# ---------------------------------------------------------------------------
# Completion parsing
# ---------------------------------------------------------------------------

_FENCE_RE = re.compile(r"```[a-zA-Z]*\n(.*?)```", re.DOTALL)


def _strip_fences(raw: str) -> str:
    blocks = _FENCE_RE.findall(raw)
    if blocks:
        return "\n".join(blocks)
    return raw


def _comment_text(text: str) -> str:
    """Comment bodies of text that segmented into no sentences, so every
    comment in it is terminated and only whitespace lies between them."""
    bodies, i = [], text.find("(*")
    while i >= 0:
        end = _skip_comment(text, i)
        bodies.append(text[i + 2 : end - 2].strip())
        i = text.find("(*", end)
    return " ".join(bodies)


def _matches_refusal(text: str) -> bool:
    lowered = text.lower()
    return any(pattern in lowered for pattern in REFUSAL_PATTERNS)


def parse_completion(raw: str, target_statement: str | None = None) -> ParsedCompletion:
    """Classify a model completion as proof / refusal / empty / malformed.

    Code fences are stripped; a restated theorem line is dropped (and must
    match `target_statement` modulo whitespace when that is given); a proof
    lacking a closing command gets "Qed." appended, flagged as a repair.
    A proof keeps its sentences, so no caller segments the reply again.
    """
    if not raw.strip():
        return ParsedCompletion(EMPTY, raw)
    text = _strip_fences(raw).strip()

    try:
        sentences = segment_sentences(text)
    except LexicalError:
        sentences = None

    if not sentences:  # nothing but comments/prose: refusal or malformed
        commentary = _comment_text(text) if sentences == [] else text
        if _matches_refusal(commentary):
            return ParsedCompletion(REFUSAL, raw, refusal_text=commentary.strip())
        return ParsedCompletion(MALFORMED, raw, lexical=sentences is None)

    if is_statement(sentences[0]):
        if target_statement is not None:
            if normalize_space(sentences[0].text) != normalize_space(target_statement):
                return ParsedCompletion(MALFORMED, raw)
        start = sentences[0].span[1]
        text = text.encode("utf-8")[start:].decode("utf-8").strip()
        sentences = sentences[1:]
        if not sentences:
            return ParsedCompletion(MALFORMED, raw)

    script = text
    appended = False
    if not is_closing(sentences[-1]):
        script = script.rstrip() + "\nQed."
        appended = True
    return ParsedCompletion(PROOF, raw, script, appended_qed=appended, sentences=tuple(sentences))
