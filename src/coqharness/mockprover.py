"""Table-driven mock prover.

The behavior table maps theorem names to the exact tactic sequences that
prove them, plus scripted query responses and error messages phrased like
the real toplevel's, so classifier rules can be exercised with no Coq
installed. File format (JSON)::

    {
      "theorems": {
        "weak_refl": {
          "statement_goal": "forall x, Weak T x x",       // optional
          "initial_state": "<rendered proof state>",       // optional
          "scripts": [
            ["intros x.", "constructor.", "reflexivity.", "Qed."],
            {"steps": ["auto.", "Qed."], "states": [null]}
          ],
          "errors": [{"contains": "stutter_bisim",
                      "message": "The reference stutter_bisim was not found in the current environment."}]
        }
      },
      "queries": {"Check": {"nat": "nat\\n     : Set"}},
      "query_default_error": "The reference {arg} was not found in the current environment.",
      "errors": [ ... ]     // matched against sentences outside proofs
    }

Script steps are matched on whitespace-normalized text; a bare "Proof."
is a no-op and never part of the match. A script's last step must be a
closing command (one is appended when missing). `compile_behavior_table`
reads a table into a BehaviorTable that any number of sessions can share,
so a command reads its table once; each theorem entry is compiled, its
initial and scripted states parsed, when a session first opens it.
"""

from __future__ import annotations

import json
import re
from collections.abc import Mapping
from dataclasses import dataclass, field
from pathlib import Path
from types import MappingProxyType

from .driver import (
    ERROR,
    OK,
    QueryRejected,
    SessionConfig,
    SessionHandle,
    StepResult,
    _coerce_sentence,
)
from .proofstate import MalformedState, ProofState, parse_proof_state
from .sentences import Sentence, is_closing, is_statement, statement_name

INCOMPLETE_PROOF_MESSAGE = "Attempt to save an incomplete proof."
NO_FOCUSED_PROOF_MESSAGE = "No focused proof (No proof-editing in progress)."
NO_MORE_GOALS_MESSAGE = "No more goals."
DEFAULT_TACTIC_FAILURE = "No applicable tactic."
DEFAULT_QUERY_ERROR = "The reference {arg} was not found in the current environment."

_INTRO_RE = re.compile(r"^intros?\b(.*)\.$")
_IDENT_RE = re.compile(r"^[^\W\d][\w']*$")


def _norm(text: str) -> str:
    return " ".join(text.split())


@dataclass(frozen=True)
class _Script:
    steps: tuple[str, ...]
    states: tuple[ProofState | None, ...]  # parsed when the entry compiles


@dataclass(frozen=True)
class _TheoremEntry:
    name: str
    goal: str | None = None
    initial_state: ProofState | None = None
    scripts: tuple[_Script, ...] = ()
    errors: tuple[tuple[re.Pattern, str], ...] = ()


def _compile_error_rules(raw: list[dict]) -> tuple[tuple[re.Pattern, str], ...]:
    rules = []
    for item in raw:
        if "contains" in item:
            pattern = re.compile(re.escape(item["contains"]))
        else:
            pattern = re.compile(item["regex"])
        rules.append((pattern, item["message"]))
    return tuple(rules)


def _parse_script(raw) -> _Script:
    if isinstance(raw, dict):
        steps = [_norm(s) for s in raw["steps"]]
        states = list(raw.get("states") or [])
    else:
        steps = [_norm(s) for s in raw]
        states = []
    steps = [s for s in steps if s != "Proof."]
    if not steps or not is_closing(steps[-1]):
        steps.append("Qed.")
    states = [parse_proof_state(s) if s else None for s in states[: len(steps) - 1]]
    states += [None] * (len(steps) - 1 - len(states))
    return _Script(tuple(steps), tuple(states))


@dataclass(frozen=True)
class BehaviorTable:
    """A behavior table read once and shared by every session. Compiling an
    entry is pure, so threads that race to compile one keep the first stored."""

    source: str
    raw_theorems: Mapping[str, dict]
    queries: Mapping[tuple[str, str], str]
    query_default: str
    errors: tuple[tuple[re.Pattern, str], ...]
    _compiled: dict[str, _TheoremEntry] = field(default_factory=dict, compare=False, repr=False)

    def entry(self, name: str) -> _TheoremEntry | None:
        """`name`'s entry, compiled on first use; a ValueError names the table if it fails."""
        entry = self._compiled.get(name)
        if entry is None and name in self.raw_theorems:
            raw = self.raw_theorems[name]
            try:
                initial = raw.get("initial_state")
                entry = _TheoremEntry(
                    name,
                    goal=raw.get("statement_goal"),
                    initial_state=parse_proof_state(initial) if initial else None,
                    scripts=tuple(_parse_script(s) for s in raw.get("scripts", [])),
                    errors=_compile_error_rules(raw.get("errors", [])),
                )
            except (ValueError, KeyError, TypeError, AttributeError, re.error, MalformedState) as exc:
                raise ValueError(f"bad mock table {self.source}: {exc}") from exc
            entry = self._compiled.setdefault(name, entry)
        return entry


def compile_behavior_table(source: BehaviorTable | dict | str | Path | None) -> BehaviorTable:
    """Read a table given as a dict or a JSON file path; None is the empty table."""
    if isinstance(source, BehaviorTable):
        return source
    path = "<dict>"
    if isinstance(source, (str, Path)):
        path = str(source)
        with open(source, encoding="utf-8") as fh:
            source = json.load(fh)
    table = source or {}
    queries = {
        (command, argument): response
        for command, answers in table.get("queries", {}).items()
        for argument, response in answers.items()
    }
    return BehaviorTable(
        path,
        MappingProxyType(dict(table.get("theorems", {}))),
        MappingProxyType(queries),
        table.get("query_default_error", DEFAULT_QUERY_ERROR),
        _compile_error_rules(table.get("errors", [])),
    )


class MockSession(SessionHandle):
    """Deterministic scripted prover honoring the SessionHandle contract."""

    def __init__(self, config: SessionConfig):
        self.config = config
        self._table = compile_behavior_table(config.mock_table)

        # Mutable session state: the open proof (if any) and its executed steps.
        self._entry: _TheoremEntry | None = None
        self._steps: list[str] = []
        # Prelude replay is trusted file content: tactics inside its proofs
        # pass without adjudication so a whole file can be fed through.
        self._prelude_mode = False

    def set_prelude_mode(self, enabled: bool) -> None:
        self._prelude_mode = enabled

    # -- helpers --

    def _open_proof(self, statement: Sentence) -> StepResult:
        name = statement_name(statement) or "_unnamed"
        entry = self._table.entry(name)
        if entry is None:
            m = re.match(r"[^:]*:\s*(.*)\.\s*$", statement.text, re.DOTALL)
            entry = _TheoremEntry(name, goal=_norm(m.group(1)) if m else "True")
        self._entry = entry
        self._steps = []
        return StepResult(OK, "", None if self._prelude_mode else self._synthesized_state())

    def _initial_state(self) -> ProofState:
        entry = self._entry
        assert entry is not None
        if entry.initial_state is not None:
            return entry.initial_state
        goal = entry.goal or "True"
        return ProofState((), (goal,), (1, 1))

    def _introduced_names(self) -> list[str]:
        names = []
        for step in self._steps:
            m = _INTRO_RE.match(step)
            if m:
                names += [t for t in m.group(1).split() if _IDENT_RE.match(t)]
        return names

    def _synthesized_state(self) -> ProofState:
        base = self._initial_state()
        known = set(base.hypothesis_names)
        extra = []
        for name in self._introduced_names():
            if name not in known:
                known.add(name)
                extra.append(((name,), "_"))
        return ProofState(base.hypotheses + tuple(extra), base.goals, base.goal_index)

    def _matching_scripts(self, steps: list[str]) -> list[_Script]:
        entry = self._entry
        assert entry is not None
        prefix = tuple(steps)
        return [s for s in entry.scripts if s.steps[: len(prefix)] == prefix]

    def _state_after(self, script: _Script, k: int) -> tuple[ProofState | None, str]:
        """State and message after executing steps[:k] of an accepted prefix."""
        scripted = script.states[k - 1] if 0 < k <= len(script.states) else None
        if scripted is not None:
            return scripted, ""
        if k == len(script.steps) - 1:  # only the closer remains
            return None, NO_MORE_GOALS_MESSAGE
        return self._synthesized_state(), ""

    def _fail(self, text: str) -> StepResult:
        entry = self._entry
        m = _INTRO_RE.match(text)
        if m:
            current = set(self.current_state().hypothesis_names) if self.current_state() else set()
            for name in (t for t in m.group(1).split() if _IDENT_RE.match(t)):
                if name in current:
                    return StepResult(ERROR, f"{name} is already used.")
        if entry is not None:
            for pattern, message in entry.errors:
                if pattern.search(text):
                    return StepResult(ERROR, message)
        for pattern, message in self._table.errors:
            if pattern.search(text):
                return StepResult(ERROR, message)
        return StepResult(ERROR, DEFAULT_TACTIC_FAILURE)

    # -- SessionHandle contract --

    def execute(self, sentence: Sentence | str) -> StepResult:
        """One step. In prelude mode a step reports no proof state: it opens
        and matches entries as any step does, but builds no state."""
        sentence = _coerce_sentence(sentence)
        text = _norm(sentence.text)

        if self._entry is None:
            if is_statement(sentence):
                return self._open_proof(sentence)
            if is_closing(sentence):
                return StepResult(ERROR, NO_FOCUSED_PROOF_MESSAGE)
            for pattern, message in self._table.errors:
                if pattern.search(text):
                    return StepResult(ERROR, message)
            return StepResult(OK, "")

        if is_statement(sentence):
            return StepResult(ERROR, "Nested proofs are not supported.")
        if text == "Proof." or text.startswith("Proof using"):
            if self._prelude_mode:
                return StepResult(OK, "")
            matches = self._matching_scripts(self._steps)
            if matches:
                state, message = self._state_after(matches[0], len(self._steps))
            else:
                state, message = self._synthesized_state(), ""
            return StepResult(OK, message, state)

        candidate = self._steps + [text]
        matches = self._matching_scripts(candidate)
        if matches:
            self._steps = candidate
            script = matches[0]
            if len(candidate) == len(script.steps):
                complete = is_closing(text, proving_only=True)
                self._entry = None
                self._steps = []
                return StepResult(OK, "", None, proof_complete=complete)
            if self._prelude_mode:
                return StepResult(OK, "")
            state, message = self._state_after(script, len(candidate))
            return StepResult(OK, message, state)

        if is_closing(sentence, proving_only=True):
            if self._prelude_mode:
                self._entry = None
                self._steps = []
                return StepResult(OK, "", None, proof_complete=True)
            return StepResult(ERROR, INCOMPLETE_PROOF_MESSAGE)
        if is_closing(sentence):
            # Admitted./Abort. close the proof without completing it.
            self._entry = None
            self._steps = []
            return StepResult(OK, "")
        if self._prelude_mode:
            return StepResult(OK, "")
        return self._fail(text)

    def query(self, command: str, argument: str) -> str:
        self._validate_query(command, argument)
        argument = argument.strip()
        response = self._table.queries.get((command, argument))
        if response is None:
            raise QueryRejected(self._table.query_default.format(arg=argument))
        return response

    def current_state(self) -> ProofState | None:
        if self._entry is None:
            return None
        matches = self._matching_scripts(self._steps)
        if matches and self._steps:
            state, _ = self._state_after(matches[0], len(self._steps))
            return state
        return self._synthesized_state()

    def _snapshot(self):
        return (self._entry, list(self._steps))

    def _restore(self, token) -> None:
        self._entry, steps = token
        self._steps = list(steps)
