"""Output checks: each returns a list of problems, empty when the output is right.

They compare the program's outputs with what the generator built (the
plan's expected counts, the fake toplevel's query sizes and checksums) or
with a property the method must have (a report recomputed from the attempt
files equals the report; a replay equals its record pass). None compares
with a saved copy of an earlier output.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

REPORT_KEYS = ("per_config", "proven", "coincidence", "refusal_share_percent")
HARNESS_ERROR = "harness error:"


def read_json(path: Path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


def check_report(report: dict, expected: dict) -> list[str]:
    problems = []
    for tag, want in expected["per_config"].items():
        got = report["per_config"].get(tag)
        if got is None:
            problems.append(f"config {tag} missing from report")
            continue
        for key, value in want.items():
            if got.get(key) != value:
                problems.append(f"{tag}.{key}: got {got.get(key)}, expected {value}")
    if set(report["per_config"]) != set(expected["per_config"]):
        problems.append(f"report configs {sorted(report['per_config'])} differ from the manifest")
    if report["proven"] != expected["proven"]:
        problems.append("proven theorem lists differ from the construction")
    if sorted(report["coincidence"]) != expected["coincidence"]:
        problems.append("coincidence matrix differs from the construction")
    return problems


def check_recomputed(report: dict, recomputed: dict) -> list[str]:
    return [f"`report` over the attempt files changes {key}"
            for key in REPORT_KEYS if report.get(key) != recomputed.get(key)]


def attempts(attempts_dir: Path) -> list[dict]:
    rows = []
    for path in sorted(Path(attempts_dir).glob("*.jsonl")):
        with open(path, encoding="utf-8") as fh:
            rows.extend(json.loads(line) for line in fh if line.strip())
    return rows


def failed_operations(rows: list[dict]) -> set[tuple[str, str]]:
    """(config, theorem) pairs whose attempts record a harness error."""
    return {(r["config_tag"], r["theorem_id"]) for r in rows
            if r.get("failing_step") and HARNESS_ERROR in str(r["failing_step"][2])}


def check_queries(rows: list[dict], queries: dict) -> tuple[int, list[str]]:
    """Every recorded Search output must have the size and checksum the fake
    toplevel was told to emit. Returns (outputs checked, problems)."""
    checked, problems = 0, []
    for row in rows:
        for turn in row.get("turns", ()):
            for command, argument, output in turn.get("tool_calls", ()):
                spec = queries.get(argument)
                if command != "Search" or spec is None:
                    problems.append(f"unexpected query {command} {argument}")
                    continue
                checked += 1
                digest = hashlib.sha256(output.encode("utf-8")).hexdigest()
                if len(output) != spec["size"] or digest != spec["sha256"]:
                    problems.append(f"Search {argument}: {len(output)} chars, expected {spec['size']}"
                                    " with the stated checksum")
    return checked, problems
