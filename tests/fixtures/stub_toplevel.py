#!/usr/bin/env python3
"""A minimal emacs-prompt toplevel for the real backend's protocol tests.

Every reply ends in ``<prompt>Coq < SID || SID < </prompt>``. Commands, one
per line: ``BackTo N.`` sets the state id; ``Emit N S.`` writes N characters,
then sleeps S seconds; ``Slip.`` fails but still advances the state id;
``Quit.`` exits; anything else advances the state id and is echoed.
"""

import re
import sys
import time

sid = 1
while True:
    sys.stdout.write(f"<prompt>Coq < {sid} || {sid} < </prompt>")
    sys.stdout.flush()
    line = sys.stdin.readline()
    if not line or line.strip() == "Quit.":
        break
    text = line.strip()
    back = re.fullmatch(r"BackTo (\d+)\.", text)
    emit = re.fullmatch(r"Emit (\d+) ([\d.]+)\.", text)
    if back:
        sid = int(back.group(1))
    elif emit:
        sys.stdout.write("x" * int(emit.group(1)) + "\n")
        sys.stdout.flush()
        time.sleep(float(emit.group(2)))
    else:
        sid += 1
        sys.stdout.write("Error: slipped, yet the state moved.\n" if text == "Slip." else text + "\n")
