"""Eval outputs are byte-identical to the committed golden files.

The golden files under tests/fixtures/golden/ were written by golden.py.
Each case is evaluated at workers 1 and 4, recorded into a fresh transcript
cache and then replayed from it; every run must reproduce every report and
attempt file byte for byte. `prove` of any (target, config) pair, replayed
from a recorded eval's cache, prints exactly the attempt rows that eval wrote.
"""

from __future__ import annotations

import json

import pytest

from coqharness.cli import EXIT_OK, main
from golden import CASES, GOLDEN, MANIFESTS, config_of, golden_files, run_case


@pytest.mark.parametrize("workers", [1, 4])
@pytest.mark.parametrize("case", CASES)
def test_eval_reproduces_golden_bytes(case, workers, tmp_path):
    expected = GOLDEN / case
    names = golden_files(expected)
    assert len(names) > 3
    for replay in (False, True):
        out = run_case(case, tmp_path, workers, replay=replay)
        assert golden_files(out) == names
        for name in names:
            assert (out / name).read_bytes() == (expected / name).read_bytes(), (name, replay)


def printed_rows(out: str) -> list[str]:
    """The attempt records a `prove` printed, each as an attempts/*.jsonl line."""
    body, verdict = out.rstrip("\n").rsplit("\n", 1)
    assert verdict in ("ACCEPTED", "REJECTED")
    rows, body = [], body.strip()
    while body:
        row, end = json.JSONDecoder().raw_decode(body)
        rows.append(json.dumps(row, ensure_ascii=False))
        body = body[end:].lstrip()
    return rows


@pytest.mark.parametrize("case", CASES)
def test_prove_prints_the_rows_eval_wrote_for_every_target_and_config(case, tmp_path, capsys):
    out = run_case(case, tmp_path, workers=1)
    capsys.readouterr()
    pairs = 0
    for path in sorted((out / "attempts").glob("*.jsonl")):
        by_target: dict[str, list[str]] = {}
        for line in path.read_text(encoding="utf-8").splitlines():
            by_target.setdefault(json.loads(line)["theorem_id"], []).append(line)
        for theorem, lines in by_target.items():
            code = main(["--config", str(config_of(tmp_path)), "prove", "--manifest",
                         str(MANIFESTS[case]), "--config-tag", path.stem, "--theorem", theorem,
                         "--replay"])
            assert code == EXIT_OK
            assert printed_rows(capsys.readouterr().out) == lines, (path.stem, theorem)
            pairs += 1
    assert pairs == {"fixtures": 4 * 5, "walk": 7 * 10}[case]
