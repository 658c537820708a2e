"""Proof-attempt orchestration.

Four loop styles over one theorem:

  one_shot     sample n candidate proofs from one prompt, machine-check each:
               the ensemble with no variants
  interactive  converse with the prover: state feedback, QUERY tool calls,
               stepwise execution with rollback on errors
  repair       one-shot round 0, then feed each unique failing script its
               prover error back and sample one fix per round
  ensemble     one-shot once per prompt-diversity variant, splitting the
               sample budget, base variant taking the remainder

`prove` lends each loop a session borrowed from a FileWalk and closes the
loan when the loop returns; no loop opens or closes a session itself. All
loops are deterministic under the scripted provider and mock prover for a
fixed seed.
"""

from __future__ import annotations

import contextlib
import logging
import random
import re
import time
from dataclasses import dataclass, field, replace

from .client import DecodingParams, Provider, complete
from .corpus import TRAIN, Corpus, TheoremRecord, preceding_lemmas
from .driver import QUERY_COMMANDS, FileWalk, QueryRejected, SessionConfig, SessionHandle
from .prompting import (
    EMPTY,
    MALFORMED,
    PROOF,
    REFUSAL,
    ChatMessage,
    ChatPrompt,
    PromptError,
    TemplateSet,
    build_prompt,
    diversify,
    known_strategy,
    parse_completion,
)
from .proofstate import render_proof_state
from .retriever import Index, retrieve
from .sentences import opens_proof

log = logging.getLogger(__name__)

MODES = ("zs", "fs-rand", "fs-sim", "zs+lem", "fs+lem")
LOOPS = ("one_shot", "interactive", "repair", "ensemble")

DEFAULT_K_SHOTS = 6
MAX_TACTICS_PER_TURN = 5

# the argument less one trailing period: the session adds the terminator itself
_QUERY_LINE_RE = re.compile(rf"^QUERY\s+({'|'.join(QUERY_COMMANDS)})\s+(.+?)\s*\.?\s*$", re.MULTILINE)


class AgentError(Exception):
    pass


@dataclass
class RunConfig:
    tag: str
    mode: str
    loop: str = "one_shot"
    k_shots: int | None = None
    n_lemmas: int = 6
    decoding: DecodingParams = field(default_factory=DecodingParams)
    seed: int = 0
    repair_rounds: int = 2
    strategies: tuple[str, ...] = ()
    max_turns: int = 30
    max_queries: int = 10
    wall_clock: float | None = None  # seconds per theorem for looping agents
    max_prompt_chars: int | None = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.loop not in LOOPS:
            raise ValueError(f"unknown agent loop {self.loop!r}")
        if self.k_shots is None:
            self.k_shots = 0 if self.zero_shot else DEFAULT_K_SHOTS
        if self.zero_shot != (self.k_shots == 0) or self.k_shots < 0:
            raise ValueError(f"k_shots must be 0 in zero-shot modes, > 0 in others, not {self.k_shots}")
        if self.loop == "repair" and self.repair_rounds < 1:
            raise ValueError("repair needs at least one round")
        if self.loop == "ensemble" and not self.strategies:
            raise PromptError("ensemble needs a non-empty strategy list")
        if self.strategies and self.loop != "ensemble":
            raise PromptError(f"strategies are for the ensemble loop, not {self.loop}")
        for strategy in self.strategies:
            if not known_strategy(strategy):
                raise PromptError(f"unknown ensemble strategy {strategy!r}")
        if self.max_turns < 1:
            raise ValueError("max_turns must be >= 1")
        if self.max_queries < 0:
            raise ValueError("max_queries must be >= 0")
        for key in ("wall_clock", "max_prompt_chars"):
            if getattr(self, key) is not None and getattr(self, key) <= 0:
                raise ValueError(f"{key} must be > 0")

    @property
    def zero_shot(self) -> bool:
        return self.mode.startswith("zs")

    @property
    def with_lemmas(self) -> bool:
        return self.mode.endswith("+lem")

    @property
    def ranks_by_similarity(self) -> bool:  # the modes that read a retrieval index
        return self.mode in ("fs-sim", "fs+lem")


@dataclass(frozen=True)
class Turn:
    prompt_delta: str
    completion: str
    tool_calls: tuple[tuple[str, str, str], ...] = ()


@dataclass
class AttemptRecord:
    theorem_id: str
    config_tag: str
    variant_id: str
    candidate_index: int
    proof_script: str
    accepted: bool
    failing_step: tuple[int, str, str] | None  # (index, sentence, error message)
    turns: list[Turn]
    completion_kind: str
    refusal_text: str | None = None
    category: str | None = None
    round: int = 0
    budget_exhausted: bool = False
    appended_qed: bool = False
    lexical_error: bool = False
    dropped_examples: int = 0
    missed_simple: bool = False

    @property
    def error_message(self) -> str:
        return self.failing_step[2] if self.failing_step else ""


def _attempt(target: TheoremRecord, config: RunConfig, prompt: ChatPrompt, **fields) -> AttemptRecord:
    """The row of one attempt at `target` under `config` from `prompt`: the
    one place rows are built, so the fields those three decide are never missed."""
    return AttemptRecord(theorem_id=target.id, config_tag=config.tag, variant_id=prompt.variant_id,
                         dropped_examples=prompt.dropped_examples, **fields)


@dataclass
class AgentDeps:
    corpus: Corpus
    provider: Provider
    prover: SessionConfig
    templates: TemplateSet
    index: Index | None = None


# ---------------------------------------------------------------------------
# Prompt assembly
# ---------------------------------------------------------------------------


def _select_examples(
    target: TheoremRecord, config: RunConfig, deps: AgentDeps
) -> list[TheoremRecord]:
    if config.zero_shot:
        return []
    train = deps.corpus.train
    if deps.corpus.split_labels.get(target.id) == TRAIN:
        train = [r for r in train if r.id != target.id]
    if not train:
        raise AgentError(f"no train records available for few-shot mode {config.mode}")
    k = min(config.k_shots, len(train))
    if k < config.k_shots:
        log.warning("only %d train records for k_shots=%d", len(train), config.k_shots)
    if config.ranks_by_similarity:  # cli.build_deps loads or builds the index
        ranked = retrieve(deps.index, target, k)  # never the target itself
        labels = deps.corpus.split_labels
        # least similar first, so the budget trimmer sheds the farthest one
        return [deps.corpus.by_id(rid) for rid, _ in reversed(ranked) if labels.get(rid) == TRAIN]
    rng = random.Random(f"{config.seed}:{target.id}")
    return rng.sample(train, k)


def _lemma_pairs(target_or_example: TheoremRecord, config: RunConfig, deps: AgentDeps):
    if not config.with_lemmas:
        return []
    return preceding_lemmas(deps.corpus, target_or_example.id, config.n_lemmas)


def _build_target_prompt(
    target: TheoremRecord, config: RunConfig, deps: AgentDeps, interactive: bool = False
) -> ChatPrompt:
    examples = _select_examples(target, config, deps)
    lemmas = _lemma_pairs(target, config, deps)
    example_lemmas = [_lemma_pairs(e, config, deps) for e in examples]
    prompt = build_prompt(
        config,
        target,
        deps.templates,
        examples=examples,
        lemmas=lemmas,
        example_lemmas=example_lemmas,
        interactive=interactive,
    )
    reference = target.proof_text
    if reference and any(reference in m.content for m in prompt.messages):
        log.warning("target %s reference proof leaked into its prompt", target.id)
    return prompt


# ---------------------------------------------------------------------------
# Candidate checks
# ---------------------------------------------------------------------------


def _check_candidates(
    prompt: ChatPrompt,
    target: TheoremRecord,
    config: RunConfig,
    deps: AgentDeps,
    session: SessionHandle,
    n: int,
    first_index: int = 0,
    round_no: int = 0,
) -> list[AttemptRecord]:
    """Sample n completions for the prompt, parse, and check the proofs."""
    decoding = replace(config.decoding, n=n)
    completions = complete(prompt, decoding, deps.provider)
    records: list[AttemptRecord] = []
    for i, raw in enumerate(completions):
        parsed = parse_completion(raw, target.statement_text)
        accepted, failing_step = False, None
        if parsed.kind == PROOF:
            # a duplicate script is served by the loan's check memo (driver.BorrowedSession)
            result = session.check_proof(target.statement, parsed.proof_script)
            accepted = result.accepted
            if not accepted:  # a proof that ends still open has no failing sentence
                index, sentence = result.failing_step or (-1, None)
                failing_step = (index, sentence.text if sentence else "", result.message)
        records.append(_attempt(
            target, config, prompt, candidate_index=first_index + i,
            proof_script=parsed.proof_script or "", accepted=accepted, failing_step=failing_step,
            turns=[Turn(prompt.messages[-1].content, raw)], completion_kind=parsed.kind,
            refusal_text=parsed.refusal_text, round=round_no,
            appended_qed=parsed.appended_qed, lexical_error=parsed.lexical,
        ))
    return records


# ---------------------------------------------------------------------------
# Interactive
# ---------------------------------------------------------------------------


def _parse_turn_reply(raw: str, statement_text: str):
    """A turn reply is a QUERY line, tactic sentences, a refusal, or noise;
    the tactics are parse_completion's sentences less any proof opener."""
    text = raw.strip()
    m = _QUERY_LINE_RE.search(text)
    if m:
        return ("query", m.group(1), m.group(2))
    parsed = parse_completion(raw, statement_text)
    if parsed.kind == REFUSAL:
        return ("refusal", parsed.refusal_text or "", None)
    if parsed.kind in (EMPTY, MALFORMED):
        return ("noise", None, None)
    tactics = [s for s in parsed.sentences if not opens_proof(s)]
    if not tactics:
        return ("noise", None, None)
    return ("tactics", tactics, None)


def prove_interactive(
    target: TheoremRecord, config: RunConfig, deps: AgentDeps, session: SessionHandle
) -> AttemptRecord:
    """Turn loop with proof-state feedback and QUERY tool calls.

    Every model call consumes one turn (bounded by max_turns); QUERY lines
    also count against max_queries. Errors roll the session back and the
    verbatim message is fed back. Terminates on proof completion, budget
    exhaustion, refusal, or two consecutive contentless replies.
    """
    templates = deps.templates
    prompt = _build_target_prompt(target, config, deps, interactive=True)
    decoding = replace(config.decoding, n=1)
    turns: list[Turn] = []
    executed: list[str] = []
    queries_used = 0
    accepted = False
    budget_exhausted = False
    kind = PROOF
    refusal_text = None
    last_failing: tuple[int, str, str] | None = None
    stall_streak = 0

    started = time.monotonic()
    opening = session.execute(target.statement)
    if not opening.ok:
        return _attempt(target, config, prompt, candidate_index=0, proof_script="", accepted=False,
                        failing_step=(-1, target.statement.text, opening.message),
                        turns=[], completion_kind=MALFORMED)
    history = list(prompt.messages)

    def feedback(error: str | None = None) -> str:
        """The error, if any, then the session's proof state as the model sees it."""
        state = session.current_state()
        shown = None if state is None else templates.render(
            "interactive.state", state=render_proof_state(state))
        if error is None:
            return templates.render("interactive.no_goals") if shown is None else shown
        block = templates.render("interactive.error", error=error)
        return block if shown is None else block + "\n\n" + shown

    delta = feedback()

    for _ in range(config.max_turns):
        if config.wall_clock is not None and time.monotonic() - started >= config.wall_clock:
            budget_exhausted = True
            break
        history.append(ChatMessage("user", delta))
        conversation = replace(prompt, messages=tuple(history))
        completion = complete(conversation, decoding, deps.provider)[0]
        history.append(ChatMessage("assistant", completion or "(empty completion)"))
        kind_tag, payload, extra = _parse_turn_reply(completion, target.statement.text)
        calls, next_delta = (), None  # no next delta ends the loop
        if kind_tag == "query" and queries_used < config.max_queries:
            try:
                output = session.query(payload, extra)
            except QueryRejected as exc:  # the model's failure: fed back in-band
                output = exc.message
            queries_used += 1
            calls = ((payload, extra, output),)
            next_delta = templates.render("interactive.query_result", state=output)
        elif kind_tag == "query":
            budget_exhausted = True
        elif kind_tag == "refusal":
            kind, refusal_text = REFUSAL, payload
        elif kind_tag == "noise":
            next_delta = templates.render(
                "interactive.error",
                error="Reply with tactic sentences or a QUERY line.",
            )
        else:
            error_message = None
            for sentence in payload[:MAX_TACTICS_PER_TURN]:
                result = session.execute(sentence)
                if not result.ok:
                    error_message = result.message
                    last_failing = (len(executed), sentence.text, result.message)
                    break
                executed.append(sentence.text)
                if result.proof_complete:
                    accepted = True
                    break
            if not accepted:
                next_delta = feedback(error_message)
        turns.append(Turn(delta, completion, calls))
        stall_streak = stall_streak + 1 if kind_tag == "noise" else 0
        if next_delta is None or stall_streak >= 2:
            break
        delta = next_delta
    else:
        budget_exhausted = True

    if kind == PROOF and not accepted and stall_streak >= 2:
        kind = MALFORMED  # stalled: no tactics, no queries
    return _attempt(target, config, prompt, candidate_index=0, proof_script=" ".join(executed),
                    accepted=accepted, failing_step=None if accepted else last_failing,
                    turns=turns, completion_kind=kind, refusal_text=refusal_text,
                    budget_exhausted=budget_exhausted)


# ---------------------------------------------------------------------------
# Repair loop
# ---------------------------------------------------------------------------


def _repair_feedback(record: AttemptRecord) -> str:
    if record.failing_step and record.failing_step[0] >= 0:
        index, sentence, message = record.failing_step
        return f'Step {index} ("{sentence}") failed with error:\n{message}'
    return record.error_message or "The proof was not accepted."


def repair_loop(
    target: TheoremRecord, config: RunConfig, deps: AgentDeps, session: SessionHandle
) -> list[AttemptRecord]:
    """Round 0 is one-shot; each later round feeds every unique still-failing
    script its prover error and samples one repair, stopping early on any
    acceptance."""
    started = time.monotonic()
    prompt = _build_target_prompt(target, config, deps)
    records = _check_candidates(prompt, target, config, deps, session, config.decoding.n)
    if any(r.accepted for r in records):
        return records

    # One [conversation, latest] repair chain per distinct failing script from round 0.
    chains: dict[str, list] = {}
    for record in records:
        if record.completion_kind == PROOF:
            chains.setdefault(record.proof_script, [prompt, record])

    for round_no in range(1, config.repair_rounds + 1):
        if config.wall_clock is not None and time.monotonic() - started >= config.wall_clock:
            break
        for chain in chains.values():
            conversation, latest = chain
            feedback = deps.templates.render("repair.feedback", error=_repair_feedback(latest))
            conversation = conversation.appended(
                ChatMessage("assistant", latest.proof_script or latest.turns[-1].completion),
                ChatMessage("user", feedback),
            )
            [repaired] = _check_candidates(
                conversation, target, config, deps, session, 1,
                first_index=len(records), round_no=round_no,
            )
            records.append(repaired)
            chain[:] = conversation, repaired
            if repaired.accepted:
                return records
    return records


# ---------------------------------------------------------------------------
# Ensemble
# ---------------------------------------------------------------------------


def run_ensemble(
    target: TheoremRecord, config: RunConfig, deps: AgentDeps, session: SessionHandle
) -> list[AttemptRecord]:
    """One pass per prompt: the base, then one per diversity variant, none
    without strategies. n splits evenly, the remainder going to the base."""
    base = _build_target_prompt(target, config, deps)
    groups = [base, *diversify(base, list(config.strategies), deps.templates)]
    per, remainder = divmod(config.decoding.n, len(groups))

    records: list[AttemptRecord] = []
    for position, variant_prompt in enumerate(groups):
        budget = per + (remainder if position == 0 else 0)
        if budget:
            records.extend(_check_candidates(
                variant_prompt, target, config, deps, session, budget, first_index=len(records)
            ))
    return records


DISPATCH = {
    "one_shot": run_ensemble,
    "interactive": lambda t, c, d, s: [prove_interactive(t, c, d, s)],
    "repair": repair_loop,
    "ensemble": run_ensemble,
}


def prove(
    target: TheoremRecord, config: RunConfig, deps: AgentDeps, walk: FileWalk
) -> list[AttemptRecord]:
    """Run the config's loop on a session borrowed from `walk` at the target."""
    with contextlib.closing(walk(target)) as session:
        return DISPATCH[config.loop](target, config, deps, session)
