"""Sessions against a Coq toplevel, real or mock.

The real backend drives a line-oriented toplevel (``coqtop -emacs`` by
default) over stdin/stdout, delimiting responses with the emacs prompt
marker. The mock backend (mockprover module) replays a deterministic
behavior table. Both satisfy the same contract:

  * execute() either advances the session or leaves it untouched on error;
  * check_proof() restores the session to its pre-check state;
  * one session is strictly single-threaded.
"""

from __future__ import annotations

import codecs
import io
import logging
import os
import re
import select
import shlex
import subprocess
import time
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from .proofstate import MalformedState, ProofState, parse_proof_state
from .sentences import Sentence, is_closing, segment_sentences

if TYPE_CHECKING:
    from .mockprover import BehaviorTable

log = logging.getLogger(__name__)

OK = "ok"
ERROR = "error"

QUERY_COMMANDS = ("Print", "Check", "Search", "About", "Locate")

DEFAULT_TIMEOUT = 20.0
TIMEOUT_MESSAGE = "TIMEOUT"


class ProverError(Exception):
    pass


class SpawnFailure(ProverError):
    pass


class SessionDead(ProverError):
    pass


class PreludeError(ProverError):
    def __init__(self, step_index: int, message: str):
        super().__init__(f"prelude step {step_index} rejected: {message}")
        self.step_index = step_index
        self.message = message


class QueryRejected(ProverError):
    def __init__(self, message: str):
        super().__init__(message)
        self.message = message


@dataclass
class SessionConfig:
    backend: str = "mock"
    prover_command: str = "coqtop -emacs -q"
    prelude: Sequence[Sentence] = ()
    timeout_per_step: float = DEFAULT_TIMEOUT
    workdir: str | Path = "."
    # mock backend: behavior table (dict), path to its JSON file, or the
    # BehaviorTable compiled from either
    mock_table: dict | str | Path | BehaviorTable | None = None

    def __post_init__(self):
        if self.timeout_per_step <= 0:
            raise ValueError("timeout_per_step must be positive")
        if self.backend == "real" and not self.prover_command.strip():
            raise ValueError("prover_command required for the real backend")


@dataclass
class StepResult:
    outcome: str
    message: str = ""
    state: ProofState | None = None
    proof_complete: bool = False

    @property
    def ok(self) -> bool:
        return self.outcome == OK


@dataclass
class ProofCheckResult:
    accepted: bool
    failing_step: tuple[int, Sentence] | None
    message: str
    states: list[ProofState]


def _coerce_sentence(sentence: Sentence | str) -> Sentence:
    if isinstance(sentence, Sentence):
        return sentence
    parsed = segment_sentences(sentence)
    if len(parsed) != 1:
        raise ValueError(f"expected exactly one sentence, got {len(parsed)}: {sentence!r}")
    return parsed[0]


class SessionHandle:
    """Base session: step execution, informational queries, whole-proof checks."""

    def execute(self, sentence: Sentence | str) -> StepResult:
        raise NotImplementedError

    def query(self, command: str, argument: str) -> str:
        raise NotImplementedError

    def close(self) -> None:
        pass

    def set_prelude_mode(self, enabled: bool) -> None:
        """While enabled, a backend may accept prelude sentences unchecked, and
        reports no proof states: execute_prelude reads only `ok` and `message`."""

    # Backend-specific checkpointing used by check_proof.
    def _snapshot(self):
        raise NotImplementedError

    def _restore(self, token) -> None:
        raise NotImplementedError

    def current_state(self) -> ProofState | None:
        raise NotImplementedError

    def _validate_query(self, command: str, argument: str) -> None:
        if command not in QUERY_COMMANDS:
            raise QueryRejected(f"command {command!r} is not in the query allow-list")
        if not argument.strip():
            raise QueryRejected("empty query argument")

    def check_proof(self, theorem_statement: Sentence | str, proof_script: str) -> ProofCheckResult:
        """Run statement + script, restore the session, report acceptance.

        The statement is source text or one already segmented Sentence.
        failing_step indexes into the script's sentences; -1 marks a
        rejected statement. Lexical errors in the script propagate as
        LexicalError, distinct from prover rejection.
        """
        if isinstance(theorem_statement, Sentence):
            statement_sentences = [theorem_statement]
        else:
            statement_sentences = segment_sentences(theorem_statement)
        script_sentences = segment_sentences(proof_script)
        token = self._snapshot()
        states: list[ProofState] = []
        try:
            for offset, sentence in enumerate(statement_sentences):
                result = self.execute(sentence)
                if not result.ok:
                    return ProofCheckResult(False, (-1, sentence), result.message, states)
                if result.state is not None:
                    states.append(result.state)
            result = None
            for index, sentence in enumerate(script_sentences):
                result = self.execute(sentence)
                if not result.ok:
                    return ProofCheckResult(False, (index, sentence), result.message, states)
                if result.state is not None:
                    states.append(result.state)
            if result is not None and result.proof_complete:
                return ProofCheckResult(True, None, "", states)
            return ProofCheckResult(
                False, None, "proof incomplete: no closing command accepted", states
            )
        finally:
            self._restore(token)


def execute_prelude(
    session: SessionHandle, prelude: Sequence[Sentence], first_index: int = 0
) -> None:
    """Execute prelude sentences in prelude mode; PreludeError on a rejected one.

    `first_index` is the prelude index of prelude[0], so a session walked
    forward reports the step a fresh start would.
    """
    session.set_prelude_mode(True)
    try:
        for index, sentence in enumerate(prelude, first_index):
            result = session.execute(sentence)
            if not result.ok:
                raise PreludeError(index, result.message)
    finally:
        session.set_prelude_mode(False)


def start_session(config: SessionConfig) -> SessionHandle:
    """Spawn (or mock) a prover with the prelude already executed."""
    if config.backend == "mock":
        from .mockprover import MockSession

        session: SessionHandle = MockSession(config)
    elif config.backend == "real":
        session = RealCoqSession(config)
    else:
        raise ValueError(f"unknown backend {config.backend!r}")
    try:
        execute_prelude(session, config.prelude)
    except PreludeError:
        session.close()
        raise
    return session


class BorrowedSession(SessionHandle):
    """A session lent to one caller: close() restores the state it was lent in.

    Loans lent in one state may share a check memo, keyed by (statement
    text, script): a check whose pair is in it is not run again. A loan
    uses the memo only until it executes a step, since the session may then
    have left the state the memo's results hold for. A TIMEOUT result is
    never stored; exceptions propagate and are not stored either.
    """

    def __init__(self, session: SessionHandle, memo: dict | None = None):
        self._session = session
        self._token = session._snapshot()
        self._memo = memo

    def execute(self, sentence: Sentence | str) -> StepResult:
        self._memo = None
        return self._session.execute(sentence)

    def check_proof(self, theorem_statement: Sentence | str, proof_script: str) -> ProofCheckResult:
        if self._memo is None:
            return SessionHandle.check_proof(self, theorem_statement, proof_script)
        if isinstance(theorem_statement, Sentence):
            key = (theorem_statement.text, proof_script)
        else:
            key = (theorem_statement, proof_script)
        result = self._memo.get(key)
        if result is None:
            # on the lent session itself, so that its steps leave the memo in use
            result = SessionHandle.check_proof(self._session, theorem_statement, proof_script)
            if result.message != TIMEOUT_MESSAGE:
                self._memo[key] = result
        return result

    def query(self, command: str, argument: str) -> str:
        return self._session.query(command, argument)

    def current_state(self) -> ProofState | None:
        return self._session.current_state()

    def _snapshot(self):
        return self._session._snapshot()

    def _restore(self, token) -> None:
        self._session._restore(token)

    def close(self) -> None:
        self._session._restore(self._token)


# ---------------------------------------------------------------------------
# Real toplevel backend
# ---------------------------------------------------------------------------

# coqtop -emacs wraps its prompt in these markers (written to stderr, which
# we merge into stdout). The prompt body carries the current state id and
# the stack of open proofs: e.g. "Coq < 4 |lem| 4 < ".
PROMPT_RE = re.compile(r"<prompt>(.*?)</prompt>", re.DOTALL)
PROMPT_FIELDS_RE = re.compile(r"<\s*(\d+)\s*\|([^|]*)\|")
ERROR_RE = re.compile(r"^\s*(?:Error\b|Anomaly\b|Toplevel input, characters)", re.MULTILINE)
NO_MORE_GOALS_RE = re.compile(r"No more (?:sub)?goals", re.IGNORECASE)
PROMPT_OPEN = "<prompt>"
READ_CHUNK = 64 * 1024


class RealCoqSession(SessionHandle):
    """Subprocess-backed session speaking to coqtop in emacs-prompt mode."""

    def __init__(self, config: SessionConfig):
        self.config = config
        self._history: list[Sentence] = []
        self._state_id = 0
        self._open_proofs = ""
        self._proc: subprocess.Popen | None = None
        self._replaying = False
        self._prelude_mode = False
        self._spawn()

    # -- process plumbing --

    def _spawn(self) -> None:
        template = self.config.prover_command.replace("{workdir}", str(self.config.workdir))
        command = shlex.split(template)
        try:
            self._proc = subprocess.Popen(
                command,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT,
                cwd=str(self.config.workdir),
                bufsize=0,
            )
        except OSError as exc:
            raise SpawnFailure(f"cannot spawn {self.config.prover_command!r}: {exc}") from exc
        self._pending = ""  # output after the last prompt, not yet returned
        self._decoder = io.IncrementalNewlineDecoder(
            codecs.getincrementaldecoder("utf-8")(), translate=True
        )
        try:
            self._read_until_prompt()
        except TimeoutError as exc:
            self._kill()
            raise SpawnFailure(f"no initial prompt from prover: {exc}") from exc

    def _kill(self) -> None:
        if self._proc is not None:
            try:
                self._proc.kill()
                self._proc.wait(timeout=5)
            except OSError:
                pass
            self._proc.stdin.close()
            self._proc.stdout.close()
            self._proc = None

    def close(self) -> None:
        self._kill()

    def set_prelude_mode(self, enabled: bool) -> None:
        self._prelude_mode = enabled

    def _read_until_prompt(self) -> str:
        """Return the output before the next prompt; keep what follows it."""
        stdout = self._proc.stdout.fileno()
        buffer, self._pending = self._pending, ""
        start = 0  # no prompt can begin before this offset
        deadline = time.monotonic() + self.config.timeout_per_step
        while True:
            match = PROMPT_RE.search(buffer, start)
            if match:
                fields = PROMPT_FIELDS_RE.search(match.group(1))
                if fields:
                    self._state_id = int(fields.group(1))
                    self._open_proofs = fields.group(2).strip()
                self._pending = buffer[match.end() :]
                return buffer[: match.start()]
            opened = buffer.find(PROMPT_OPEN, start)
            start = opened if opened >= 0 else max(start, len(buffer) - len(PROMPT_OPEN) + 1)
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not select.select([stdout], [], [], remaining)[0]:
                raise TimeoutError(buffer)
            chunk = os.read(stdout, READ_CHUNK)
            if not chunk:
                self._kill()
                raise SessionDead(f"prover exited; output so far: {buffer[-500:]!r}")
            buffer += self._decoder.decode(chunk)

    def _send(self, text: str) -> str:
        if self._proc is None or self._proc.poll() is not None:
            raise SessionDead("prover process is not running")
        flat = re.sub(r"[\r\n]+", " ", text).strip()
        self._proc.stdin.write((flat + "\n").encode("utf-8"))
        return self._read_until_prompt()

    # -- session operations --

    @property
    def in_proof(self) -> bool:
        return bool(self._open_proofs)

    def execute(self, sentence: Sentence | str) -> StepResult:
        sentence = _coerce_sentence(sentence)
        was_in_proof = self.in_proof
        pre_state_id = self._state_id
        try:
            response = self._send(sentence.text)
        except TimeoutError:
            if self._replaying:
                raise SessionDead("timeout while replaying after a restart") from None
            self._restart_from_checkpoint()
            return StepResult(ERROR, TIMEOUT_MESSAGE)

        if ERROR_RE.search(response):
            if self._state_id != pre_state_id:
                # The toplevel normally does not advance on error; undo if it did.
                self._send(f"BackTo {pre_state_id}.")
            return StepResult(ERROR, response.strip())

        self._history.append(sentence)
        proof_complete = bool(
            was_in_proof and not self.in_proof and is_closing(sentence, proving_only=True)
        )
        state = self._parse_state(response) if self.in_proof and not self._prelude_mode else None
        return StepResult(OK, response.strip(), state, proof_complete)

    @staticmethod
    def _parse_state(response: str) -> ProofState | None:
        if NO_MORE_GOALS_RE.search(response):
            return None
        try:
            return parse_proof_state(response)
        except MalformedState:
            return None

    def query(self, command: str, argument: str) -> str:
        self._validate_query(command, argument)
        pre_state_id = self._state_id
        try:
            response = self._send(f"{command} {argument.strip()}.")
        except TimeoutError:
            self._restart_from_checkpoint()
            raise QueryRejected(TIMEOUT_MESSAGE) from None
        if self._state_id != pre_state_id:
            self._send(f"BackTo {pre_state_id}.")
        if ERROR_RE.search(response):
            raise QueryRejected(response.strip())
        return response.strip()

    def current_state(self) -> ProofState | None:
        if not self.in_proof:
            return None
        try:
            response = self._send("Show.")
        except TimeoutError:
            self._restart_from_checkpoint()
            return None
        return self._parse_state(response)

    def _snapshot(self):
        return (self._state_id, len(self._history))

    def _restore(self, token) -> None:
        state_id, history_len = token
        if self._proc is None or self._proc.poll() is not None:
            self._restart_from_checkpoint(history_len)
            return
        response = self._send(f"BackTo {state_id}.")
        if ERROR_RE.search(response):
            raise SessionDead(f"BackTo {state_id} rejected: {response.strip()}")
        del self._history[history_len:]

    def _restart_from_checkpoint(self, keep: int | None = None) -> None:
        """Kill and respawn, replaying the accepted history (prelude included)."""
        cause = "step timeout" if self._proc and self._proc.poll() is None else "prover exit"
        self._kill()
        replay = self._history[: keep if keep is not None else len(self._history)]
        log.warning("restarting the prover after a %s; replaying %d sentences", cause, len(replay))
        self._history = []
        self._open_proofs = ""
        self._spawn()
        self._replaying = True
        try:
            for sentence in replay:
                result = self.execute(sentence)
                if not result.ok:
                    raise SessionDead(
                        f"replay after restart failed at {sentence.text!r}: {result.message}"
                    )
        finally:
            self._replaying = False
