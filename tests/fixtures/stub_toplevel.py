#!/usr/bin/env python3
"""A minimal emacs-prompt toplevel for the real backend's protocol tests.

Every reply ends in ``<prompt>Coq < SID |NAME| SID < </prompt>``, NAME being
the open proof's, if any. Commands, one per line: ``BackTo N.`` returns to
state N, proof included; ``Emit N S.`` writes N characters, then sleeps S
seconds; ``Slip.`` fails but still advances the state id; ``Quit.`` exits;
a line naming ``nosuch`` fails; ``Show.`` shows the open proof's goal. A
``Lemma NAME : GOAL.`` opens a proof of GOAL; inside it ``intros X Y.``
adds hypotheses (a name already used fails), a closer (``Qed.``,
``Defined.``, ``Admitted.``, ``Abort.``) ends it, and any other sentence
shows the goal. Outside a proof anything else is echoed. Every accepted
command but ``Show.`` advances the state id.
"""

import re
import sys
import time

sid = 1
proof = None  # (name, hypothesis names, goal) of the open proof
proofs = {1: None}  # state id -> its open proof


def show(proof) -> str:
    _, names, goal = proof
    return "".join(f"{name} : nat\n" for name in names) + "_" * 30 + f"(1/1)\n{goal}\n"


def step(text: str):
    """The reply to `text` and the proof it leaves open; None when it fails."""
    if "nosuch" in text:
        return "Error: The reference nosuch was not found in the current environment.\n", None
    if text == "Slip.":
        return "Error: slipped, yet the state moved.\n", proof
    statement = re.fullmatch(r"(?:Lemma|Theorem)\s+([\w']+)\s*:\s*(.*)\.", text)
    if proof is None:
        if statement:
            opened = (statement.group(1), (), statement.group(2))
            return show(opened), opened
        if re.fullmatch(r"(?:Qed|Defined|Admitted|Abort)\.", text):
            return "Error: No focused proof (No proof-editing in progress).\n", None
        return text + "\n", None
    if statement:
        return "Error: Nested proofs are not allowed.\n", None
    if re.fullmatch(r"(?:Qed|Defined|Admitted|Abort)\.", text):
        return f"{proof[0]} is defined\n", None
    intros = re.fullmatch(r"intros?((?:\s+[\w']+)+)\.", text)
    if intros:
        names = proof[1]
        for name in intros.group(1).split():
            if name in names:
                return f"Error: {name} is already used.\n", None
            names += (name,)
        proof_after = (proof[0], names, proof[2])
        return show(proof_after), proof_after
    return show(proof), proof


while True:
    name = proof[0] if proof else ""
    sys.stdout.write(f"<prompt>Coq < {sid} |{name}| {sid} < </prompt>")
    sys.stdout.flush()
    line = sys.stdin.readline()
    if not line or line.strip() == "Quit.":
        break
    text = line.strip()
    back = re.fullmatch(r"BackTo (\d+)\.", text)
    emit = re.fullmatch(r"Emit (\d+) ([\d.]+)\.", text)
    if back:
        sid = int(back.group(1))
        proof = proofs[sid]
    elif emit:
        sys.stdout.write("x" * int(emit.group(1)) + "\n")
        sys.stdout.flush()
        time.sleep(float(emit.group(2)))
    elif text == "Show.":
        sys.stdout.write(show(proof) if proof else "Error: No focused proof.\n")
    else:
        reply, after = step(text)
        sys.stdout.write(reply)
        if not reply.startswith("Error") or text == "Slip.":
            sid += 1
            proof = proofs[sid] = after
