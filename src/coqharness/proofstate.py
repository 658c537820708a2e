"""Parsing and rendering prover goal displays.

The canonical display lists hypotheses one group per line (``x, y : T``),
then one separator line of underscores carrying the goal index, for each
goal::

    H : P x
    ______(1/2)
    Q x
    ______(2/2)
    R x

Only the current (first) goal shows hypotheses. Multi-line hypothesis types
and goals are whitespace-normalized on parse, so parse(render(state)) is the
identity on values. The newer toplevel style that separates with ``=====``
and announces trailing goals as ``goal k is:`` is accepted on input and
normalized to the canonical form.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .sentences import IDENT, normalize_space


class MalformedState(Exception):
    def __init__(self, detail: str):
        super().__init__(detail)
        self.detail = detail


_SEPARATOR = re.compile(r"^\s*_{4,}\s*\((\d+)\s*/\s*(\d+)\)\s*$")
_EQ_SEPARATOR = re.compile(r"^\s*={4,}\s*$")
_GOAL_COUNT = re.compile(r"^\s*(\d+)\s+(?:sub)?goals?\b")
_TRAILING_GOAL = re.compile(r"^\s*goal\s+(\d+)\s+is\s*:\s*$", re.IGNORECASE)
_HYP_LINE = re.compile(r"^(%s(?:\s*,\s*%s)*)\s*:(?!=)\s*(.*)$" % (IDENT, IDENT))


@dataclass(frozen=True)
class ProofState:
    """Named hypotheses and numbered goals of an open proof."""

    hypotheses: tuple[tuple[tuple[str, ...], str], ...]
    goals: tuple[str, ...]
    goal_index: tuple[int, int]

    @property
    def hypothesis_names(self) -> list[str]:
        return [name for names, _ in self.hypotheses for name in names]

    def __post_init__(self):
        if len(self.goals) < 1:
            raise MalformedState("a proof state needs at least one goal")
        current, total = self.goal_index
        if total < 1 or not (1 <= current <= total):
            raise MalformedState(f"bad goal index ({current}/{total})")
        names = self.hypothesis_names
        if len(names) != len(set(names)):
            raise MalformedState("duplicate hypothesis names")
        if any(not group for group, _ in self.hypotheses):
            raise MalformedState("empty hypothesis name group")


def _block_indent(hyp_lines: list[str]) -> int:
    for line in hyp_lines:
        if line.strip() and not _GOAL_COUNT.match(line):
            return len(line) - len(line.lstrip())
    return 0


def parse_proof_state(raw: str) -> ProofState:
    """Parse a goal display into a ProofState.

    Raises MalformedState when no goal separator is present or the
    hypothesis block does not scan.
    """
    lines = raw.splitlines()

    # (line number, current, total); -1 marks an index-free "====" separator.
    separators: list[tuple[int, int, int]] = []
    declared_total: int | None = None
    for idx, line in enumerate(lines):
        m = _SEPARATOR.match(line)
        if m:
            separators.append((idx, int(m.group(1)), int(m.group(2))))
            continue
        if _EQ_SEPARATOR.match(line):
            separators.append((idx, -1, -1))
            continue
        c = _GOAL_COUNT.match(line)
        if c and not separators:
            declared_total = int(c.group(1))
    if not separators:
        raise MalformedState("no goal separator line found")

    hyp_lines = lines[: separators[0][0]]
    base_indent = _block_indent(hyp_lines)
    hypotheses: list[tuple[tuple[str, ...], str]] = []
    for line in hyp_lines:
        if not line.strip() or _GOAL_COUNT.match(line):
            continue
        m = _HYP_LINE.match(line.strip())
        indent = len(line) - len(line.lstrip())
        if hypotheses and (m is None or indent > base_indent):
            names, type_text = hypotheses[-1]
            hypotheses[-1] = (names, normalize_space(type_text + " " + line.strip()))
        elif m:
            names = tuple(n.strip() for n in m.group(1).split(","))
            hypotheses.append((names, normalize_space(m.group(2))))
        else:
            raise MalformedState(f"unparseable hypothesis line: {line!r}")

    goals: list[str] = []
    sep_line_numbers = [s[0] for s in separators]
    for k, (line_no, _cur, _tot) in enumerate(separators):
        end = sep_line_numbers[k + 1] if k + 1 < len(separators) else len(lines)
        text_lines: list[str] = []
        for line in lines[line_no + 1 : end]:
            if _TRAILING_GOAL.match(line):
                goals.append(normalize_space("\n".join(text_lines)))
                text_lines = []
                continue
            text_lines.append(line)
        goals.append(normalize_space("\n".join(text_lines)))
    goals = [g for g in goals if g]
    if not goals:
        raise MalformedState("no goal text after separator")

    if separators[0][1] != -1:
        current, total = separators[0][1], separators[0][2]
    else:
        current = 1
        total = declared_total if declared_total is not None else len(goals)
    total = max(total, len(goals))

    return ProofState(tuple(hypotheses), tuple(goals), (current, total))


def render_proof_state(state: ProofState, underscores: int = 38) -> str:
    """Render to the canonical display; parse_proof_state inverts this."""
    lines: list[str] = []
    for names, type_text in state.hypotheses:
        lines.append(f"{', '.join(names)} : {type_text}")
    current, total = state.goal_index
    for offset, goal in enumerate(state.goals):
        lines.append("_" * underscores + f"({current + offset}/{total})")
        lines.append(goal)
    return "\n".join(lines)
