#!/usr/bin/env python3
"""An emacs-prompt toplevel over the mock prover, for the real backend's tests.

    python stub_toplevel.py [TABLE]

Each line read is one sentence for a `MockSession` over the mock table
TABLE (a JSON file; none is the empty table), so the mock's proof rules and
error messages are the stub's. A query (``Check``, ``Print``, ...) goes to
its `query` and ``Show.`` shows its current state, or ``No more goals.``;
neither moves the state id, which every accepted sentence advances. Every
reply ends in ``<prompt>Coq < SID |NAME| SID < </prompt>``, NAME being the
open proof's, if any.

Fault commands: ``BackTo N.`` returns to state N and fails for a state it
never reached; ``Emit N S.`` writes N characters, then sleeps S seconds;
``Slip.`` fails but still advances the state id; ``Quit.`` exits. A reply
to a query or a ``Show.`` that names ``stall`` comes only after five
seconds, a shown state that names ``garbled`` loses its underscores, so
that it cannot be parsed, and a query's reply that names ``drift``
advances the state id.
"""

import re
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

from coqharness.driver import QUERY_COMMANDS, QueryRejected, SessionConfig  # noqa: E402
from coqharness.mockprover import MockSession  # noqa: E402
from coqharness.proofstate import render_proof_state  # noqa: E402

session = MockSession(SessionConfig(mock_table=sys.argv[1] if len(sys.argv) > 1 else None))
sid = 1
states = {1: session._snapshot()}  # state id -> the session's snapshot there

while True:
    name = session._entry.name if session._entry else ""
    sys.stdout.write(f"<prompt>Coq < {sid} |{name}| {sid} < </prompt>")
    sys.stdout.flush()
    line = sys.stdin.readline()
    if not line or line.strip() == "Quit.":
        break
    text = line.strip()
    command, _, argument = text.partition(" ")
    back = re.fullmatch(r"BackTo (\d+)\.", text)
    emit = re.fullmatch(r"Emit (\d+) ([\d.]+)\.", text)
    reply, moved = "", False
    if back and int(back.group(1)) in states:
        sid = int(back.group(1))
        session._restore(states[sid])
    elif back:
        reply = f"Error: Invalid backtrack to state {back.group(1)}."
    elif emit:
        sys.stdout.write("x" * int(emit.group(1)) + "\n")
        sys.stdout.flush()
        time.sleep(float(emit.group(2)))
    elif text == "Slip.":
        reply, moved = "Error: slipped, yet the state moved.", True
    elif command in QUERY_COMMANDS:
        try:
            reply = session.query(command, argument.removesuffix("."))
        except QueryRejected as exc:
            reply = exc.message
        moved = "drift" in reply
    elif text == "Show.":
        state = session.current_state()
        reply = render_proof_state(state) if state else "No more goals."
        if "garbled" in reply:
            reply = reply.replace("_", "")
    else:
        result = session.execute(text)
        reply, moved = result.message, result.ok
    if "stall" in reply and (command in QUERY_COMMANDS or text == "Show."):
        time.sleep(5)
    if reply:
        sys.stdout.write(reply + "\n")
    if moved:
        sid += 1
        states[sid] = session._snapshot()
