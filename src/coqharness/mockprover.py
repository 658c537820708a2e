"""Table-driven mock prover.

The behavior table maps theorem names to the exact tactic sequences that
prove them, plus scripted query responses and error messages phrased like
the real toplevel's and printed as it prints them (``Error: ...``), so
classifier rules can be exercised with no Coq installed. File format (JSON)::

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

A key not shown here is an error, at any level. Script steps are matched
on whitespace-normalized text; a proof opener ("Proof." or "Proof using
...") is a no-op and never part of the match. A script's last step must be
a closing command (one is appended when missing). `compile_behavior_table`
reads a table into a BehaviorTable that any number of sessions can share,
so a command reads its table once; each theorem entry is compiled, its
states parsed, when a session first executes its statement.
`MockSession.replay` opens no entry: its proofs pass unchecked.
"""

from __future__ import annotations

import json
import re
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, field, replace
from pathlib import Path
from types import MappingProxyType

from . import store
from .driver import (
    ERROR,
    OK,
    PreludeError,
    QueryRejected,
    SessionConfig,
    SessionHandle,
    StepResult,
    _coerce_sentence,
)
from .proofstate import MalformedState, ProofState, parse_proof_state
from .sentences import (
    IDENT, Sentence, is_closing, is_statement, normalize_space, opens_proof, statement_name,
)

INCOMPLETE_PROOF_MESSAGE = "Attempt to save an incomplete proof."
NO_FOCUSED_PROOF_MESSAGE = "No focused proof (No proof-editing in progress)."
NO_MORE_GOALS_MESSAGE = "No more goals."
NESTED_PROOF_MESSAGE = "Nested proofs are not supported."
DEFAULT_TACTIC_FAILURE = "No applicable tactic."
DEFAULT_QUERY_ERROR = "The reference {arg} was not found in the current environment."

_INTRO_RE = re.compile(r"^intros?\b(.*)\.$")
_IDENT_RE = re.compile(rf"^{IDENT}$")


# A rule's test of a sentence's text, and the message it fails with.
_ErrorRule = tuple[Callable[[str], object], str]


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
    errors: tuple[_ErrorRule, ...] = ()


def _contains(needle: str) -> Callable[[str], bool]:
    if not isinstance(needle, str):
        raise TypeError(f"a contains rule is not a string: {needle!r}")
    return lambda text: needle in text


def _compile_error_rules(raw: list[dict]) -> tuple[_ErrorRule, ...]:
    """Each rule as a test and its message: a `contains` rule matches its
    text as a substring, a `regex` rule by a search of its pattern."""
    for item in raw:
        store.check_keys(item, ("contains", "regex", "message"))
    return tuple(
        (_contains(item["contains"]) if "contains" in item else re.compile(item["regex"]).search,
         item["message"])
        for item in raw
    )


def _first_error(rules: tuple[_ErrorRule, ...], text: str) -> str | None:
    return next((message for matches, message in rules if matches(text)), None)


def _coq_error(message: str) -> str:
    """A rejection's message as Coq prints it."""
    return f"Error: {message}"


def _parse_script(raw) -> _Script:
    if isinstance(raw, dict):
        store.check_keys(raw, ("steps", "states"))
        steps = [normalize_space(s) for s in raw["steps"]]
        states = list(raw.get("states") or [])
    else:
        steps = [normalize_space(s) for s in raw]
        states = []
    steps = [s for s in steps if not opens_proof(s)]
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
    errors: tuple[_ErrorRule, ...]
    _compiled: dict[str, _TheoremEntry] = field(default_factory=dict, compare=False, repr=False)

    def entry(self, name: str) -> _TheoremEntry | None:
        """`name`'s entry, compiled on first use; a ValueError names the table if it fails."""
        entry = self._compiled.get(name)
        if entry is None and name in self.raw_theorems:
            raw = self.raw_theorems[name]
            try:
                store.check_keys(raw, ("statement_goal", "initial_state", "scripts", "errors"))
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
    """Read a table given as a dict or a JSON file path; None is the empty
    table. A ValueError names the table if it cannot be read or parsed."""
    if isinstance(source, BehaviorTable):
        return source
    path = "<dict>"
    try:
        if isinstance(source, (str, Path)):
            path = str(source)
            with open(source, encoding="utf-8") as fh:
                source = json.load(fh)
        table = source or {}
        store.check_keys(table, ("theorems", "queries", "query_default_error", "errors"))
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
    except (OSError, ValueError, KeyError, TypeError, AttributeError, re.error) as exc:
        raise ValueError(f"bad mock table {path}: {exc}") from exc


class MockSession(SessionHandle):
    """Deterministic scripted prover honoring the SessionHandle contract."""

    def __init__(self, config: SessionConfig):
        self.config = config
        self._table = compile_behavior_table(config.mock_table)

        # Mutable session state: the open proof (if any) and its executed steps.
        self._entry: _TheoremEntry | None = None
        self._steps: list[str] = []

    # -- helpers --

    def _open_proof(self, statement: Sentence) -> None:
        """Open the statement's entry, or an empty one. With no initial state
        or goal, it shows the statement's goal, in a copy: sessions share it."""
        name = statement_name(statement) or "_unnamed"
        entry = self._table.entry(name) or _TheoremEntry(name)
        if entry.initial_state is None and not entry.goal:
            m = re.match(r"[^:]*:\s*(.*)\.\s*$", statement.text, re.DOTALL)
            entry = replace(entry, goal=normalize_space(m.group(1)) if m else "True")
        self._entry, self._steps = entry, []

    def _close_proof(self) -> None:
        self._entry, self._steps = None, []

    def _initial_state(self) -> ProofState:
        entry = self._entry
        assert entry is not None
        if entry.initial_state is not None:
            return entry.initial_state
        return ProofState((), (entry.goal,), (1, 1))

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

    def _matching_script(self, steps: list[str]) -> _Script | None:
        """The open entry's first script that `steps` begin."""
        entry = self._entry
        assert entry is not None
        prefix = tuple(steps)
        return next((s for s in entry.scripts if s.steps[: len(prefix)] == prefix), None)

    def _fail(self, text: str) -> StepResult:
        entry = self._entry
        m = _INTRO_RE.match(text)
        if m:
            state = self.current_state()
            current = set(state.hypothesis_names) if state else set()
            for name in (t for t in m.group(1).split() if _IDENT_RE.match(t)):
                if name in current:  # shown, or named earlier in this intros
                    return StepResult(ERROR, _coq_error(f"{name} is already used."))
                current.add(name)
        rules = self._table.errors if entry is None else entry.errors + self._table.errors
        message = _first_error(rules, text)
        return StepResult(ERROR, _coq_error(DEFAULT_TACTIC_FAILURE if message is None else message))

    # -- SessionHandle contract --

    def execute(self, sentence: Sentence | str) -> StepResult:
        """One step. It builds no proof state: current_state() reads that."""
        sentence = _coerce_sentence(sentence)
        text = normalize_space(sentence.text)

        if self._entry is None:
            if is_statement(sentence):
                self._open_proof(sentence)
                return StepResult(OK)
            if is_closing(sentence):
                return StepResult(ERROR, _coq_error(NO_FOCUSED_PROOF_MESSAGE))
            message = _first_error(self._table.errors, text)
            return StepResult(OK) if message is None else StepResult(ERROR, _coq_error(message))

        if is_statement(sentence):
            return StepResult(ERROR, _coq_error(NESTED_PROOF_MESSAGE))
        if opens_proof(text):
            return StepResult(OK)

        candidate = self._steps + [text]
        script = self._matching_script(candidate)
        if script is not None:
            left = len(script.steps) - len(candidate)
            if left == 0:
                self._close_proof()
                return StepResult(OK, proof_complete=is_closing(text, proving_only=True))
            self._steps = candidate
            return StepResult(OK, NO_MORE_GOALS_MESSAGE if left == 1 else "")

        if is_closing(sentence, proving_only=True):
            return StepResult(ERROR, _coq_error(INCOMPLETE_PROOF_MESSAGE))
        if is_closing(sentence):
            # Admitted./Abort. close the proof without completing it.
            self._close_proof()
            return StepResult(OK)
        return self._fail(text)

    def replay(self, sentences: Sequence[Sentence], first_index: int = 0) -> None:
        """Trusted file content, from outside a proof: a statement opens no
        table entry and its proof passes unchecked up to its closer. Outside a
        proof the table's error rules apply, and a closer ends the proof of a
        command the mock does not open, such as a Definition or an Instance."""
        opened = None  # the index of the statement whose proof is open
        for index, sentence in enumerate(sentences, first_index):
            if is_statement(sentence):
                if opened is not None:
                    raise PreludeError(index, _coq_error(NESTED_PROOF_MESSAGE))
                opened = index
            elif is_closing(sentence):
                opened = None
            elif opened is None:
                message = _first_error(self._table.errors, normalize_space(sentence.text))
                if message is not None:
                    raise PreludeError(index, _coq_error(message))
        if opened is not None:
            raise PreludeError(opened, "the replayed sentences end inside this statement's proof")

    def query(self, command: str, argument: str) -> str:
        self._validate_query(command, argument)
        argument = argument.strip()
        response = self._table.queries.get((command, argument))
        if response is None:
            raise QueryRejected(_coq_error(self._table.query_default.format(arg=argument)))
        return response

    def current_state(self) -> ProofState | None:
        if self._entry is None:
            return None
        script = self._matching_script(self._steps) if self._steps else None
        if script is not None:
            scripted = script.states[len(self._steps) - 1]
            if scripted is not None:
                return scripted
            if len(self._steps) == len(script.steps) - 1:  # only the closer remains
                return None
        return self._synthesized_state()

    def _snapshot(self):
        return (self._entry, list(self._steps))

    def _restore(self, token) -> None:
        self._entry, steps = token
        self._steps = list(steps)
