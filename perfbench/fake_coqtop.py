#!/usr/bin/env python3
"""A fake Coq toplevel speaking the emacs-prompt protocol over stdin/stdout.

It stands in for ``coqtop -emacs -q`` so the real backend's protocol code
can be measured and tested with no Coq installed. Usage::

    python3 fake_coqtop.py --table fake_table.json

One command per input line. After every reply it writes
``<prompt>Coq < SID |OPEN| SID < </prompt>``, where SID is the state id and
OPEN the name of the open proof (empty outside proofs). Behaviour:

* a theorem-like statement opens a proof and answers with its goal display;
* inside a proof, a tactic is accepted only when the tactics so far are a
  prefix of one of the table's scripts for that theorem; ``Proof.`` is a
  no-op and ``Qed.``/``Defined.`` close a finished script;
* a rejected step answers ``Error: ...`` and leaves the state id unchanged;
* ``BackTo N.`` restores state N;
* ``Search ARG.`` answers with exactly the number of characters the table
  states for ARG (text from ``search_text``); other queries answer briefly;
* ``Show.`` prints the current goal display.

Outside proofs every other command is accepted. The table format::

    {"theorems": {"NAME": {"hyps": "n, m : nat", "goal": "...",
                           "scripts": [["intros x y H.", "apply a.", "Qed."]],
                           "errors": [{"contains": "g", "message": "..."}]}},
     "search": {"ARG": {"size": 2048, "seed": 7}}}
"""

from __future__ import annotations

import json
import random
import re
import sys

SEPARATOR = "_" * 38 + "(1/1)"
_WORDS = ("forall", "nat", "exists", "le_trans", "plus_comm", "eq_sym", "Prop",
          "rel", "->", "x", "y", "n", "m", "S", "0", "lemma", "proof")
_STATEMENT_RE = re.compile(r"\s*(?:Lemma|Theorem|Fact|Remark|Corollary|Proposition)\s+([^\W\d][\w']*)")
_INTRO_RE = re.compile(r"^intros?\b(.*)\.$")
_QUERY_RE = re.compile(r"^(Search|Check|Print|About|Locate)\s+(.+?)\.$")


def search_text(seed: int, size: int) -> str:
    """Deterministic ``Search`` output of exactly `size` characters.

    Lines look like ``name_k: forall x y : nat, ...``; the text never starts
    or ends with whitespace, so a stripped reply keeps its size.
    """
    rng = random.Random(seed)
    parts: list[str] = []
    total = 0
    k = 0
    while total < size:
        line = f"hit_{k}: " + " ".join(rng.choice(_WORDS) for _ in range(rng.randint(4, 12)))
        parts.append(line)
        total += len(line) + 1
        k += 1
    text = "\n".join(parts)[:size]
    return text.rstrip() + "z" * (size - len(text.rstrip()))


def _norm(text: str) -> str:
    return " ".join(text.split())


class Toplevel:
    def __init__(self, table: dict):
        self.theorems = table.get("theorems", {})
        self.search = table.get("search", {})
        # state id -> (open proof name or None, accepted tactic steps)
        self.states: dict[int, tuple[str | None, tuple[str, ...]]] = {1: (None, ())}
        self.sid = 1

    @property
    def current(self) -> tuple[str | None, tuple[str, ...]]:
        return self.states[self.sid]

    def prompt(self) -> str:
        name = self.current[0] or ""
        return f"<prompt>Coq < {self.sid} |{name}| {self.sid} < </prompt>"

    def _advance(self, state) -> None:
        self.sid += 1
        self.states[self.sid] = state

    def _display(self, name: str, steps: tuple[str, ...]) -> str:
        entry = self.theorems.get(name, {})
        hyps = entry.get("hyps", "")
        intro = _INTRO_RE.match(steps[0]) if steps else None
        if intro:
            names = intro.group(1).split()
            hyps = "\n".join(filter(None, [hyps] + [f"{n} : _" for n in names]))
        lines = [hyps] if hyps else []
        return "\n".join(lines + [SEPARATOR, entry.get("goal", "True")])

    def _scripts(self, name: str) -> list[list[str]]:
        return [[_norm(s) for s in script] for script in self.theorems.get(name, {}).get("scripts", [])]

    def _reject(self, name: str, steps: tuple[str, ...], text: str) -> str:
        intro = _INTRO_RE.match(text)
        if intro:
            used = set(self.theorems.get(name, {}).get("hyps", "").split(":")[0].replace(",", " ").split())
            if steps:
                first = _INTRO_RE.match(steps[0])
                used |= set(first.group(1).split()) if first else set()
            for ident in intro.group(1).split():
                if ident in used:
                    return f"Error: {ident} is already used."
        for rule in self.theorems.get(name, {}).get("errors", []):
            if rule["contains"] in text:
                return f"Error: {rule['message']}"
        return "Error: No applicable tactic."

    def handle(self, line: str) -> str:
        text = _norm(line)
        name, steps = self.current
        back = re.match(r"^BackTo (\d+)\.$", text)
        if back:
            target = int(back.group(1))
            if target not in self.states or target > self.sid:
                return f"Error: Invalid state {target}."
            self.sid = target
            for sid in [s for s in self.states if s > target]:
                del self.states[sid]
            return ""
        query = _QUERY_RE.match(text)
        if query:
            command, argument = query.groups()
            if command == "Search" and argument in self.search:
                spec = self.search[argument]
                return search_text(spec["seed"], spec["size"])
            if command == "Search":
                return f"Error: The reference {argument} was not found in the current environment."
            return f"{argument}\n     : Prop"
        if text == "Show.":
            return self._display(name, steps) if name else "Error: No focused proof."
        statement = _STATEMENT_RE.match(text)
        if name is None:
            if statement:
                opened = statement.group(1)
                self._advance((opened, ()))
                return self._display(opened, ())
            if re.match(r"^(Qed|Defined|Admitted|Abort)\.$", text):
                return "Error: No focused proof (No proof-editing in progress)."
            self._advance((None, ()))
            return ""
        if statement:
            return "Error: Nested proofs are not supported."
        if text == "Proof.":
            self._advance((name, steps))
            return self._display(name, steps)
        candidate = steps + (text,)
        for script in self._scripts(name):
            if script[: len(candidate)] == list(candidate):
                if len(candidate) == len(script):
                    self._advance((None, ()))
                    return f"{name} is defined"
                self._advance((name, candidate))
                if len(candidate) == len(script) - 1:
                    return "No more goals."
                return self._display(name, candidate)
        if re.match(r"^(Qed|Defined)\.$", text):
            return "Error: Attempt to save an incomplete proof."
        return self._reject(name, steps, text)


def main() -> int:
    args = sys.argv[1:]
    if len(args) != 2 or args[0] != "--table":
        sys.stderr.write("usage: fake_coqtop.py --table TABLE.json\n")
        return 2
    with open(args[1], encoding="utf-8") as fh:
        top = Toplevel(json.load(fh))
    out = sys.stdout
    out.write(top.prompt())
    out.flush()
    for line in sys.stdin:
        if not line.strip():
            continue
        reply = top.handle(line)
        out.write((reply + "\n" if reply else "") + top.prompt())
        out.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
