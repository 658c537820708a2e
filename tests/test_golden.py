"""Eval outputs are byte-identical to the committed golden files.

The golden files under tests/fixtures/golden/ were written by golden.py.
Each case is evaluated on the mock backend and on the real one (driving the
stub toplevel over the same mock table), at workers 1 and 4, recorded into a
fresh transcript cache and then replayed from it; every run must reproduce
every report, attempt and run file byte for byte, and `report` over each
run's attempts every report file. `prove` of a (target, config)
pair, replayed from a recorded eval's cache, prints exactly the attempt rows
that eval wrote.
"""

from __future__ import annotations

import json
import sys

import pytest

from coqharness.cli import EXIT_CONFIG, EXIT_OK, EXIT_PROVIDER, main
from golden import (BACKENDS, CASES, GOLDEN, MANIFESTS, REPORT_FILES, config_of, golden_files,
                    report_case, run_case)
from walk_project import WALK_WRONG, build_walk_project


def on_each_backend(*params: tuple) -> list:
    """Each tuple of `params` on each backend; an id names the backend unless it is mock."""
    return [pytest.param(*values, backend,
                         id="-".join(map(str, values + ((backend,) if backend != "mock" else ()))))
            for values in params for backend in BACKENDS]


@pytest.mark.parametrize("case, workers, backend",
                         on_each_backend(*[(case, w) for case in CASES for w in (1, 4)]))
def test_eval_reproduces_golden_bytes(case, workers, backend, tmp_path):
    expected = GOLDEN / case
    names = golden_files(expected)
    assert len(names) > 3
    for replay in (False, True):
        out = run_case(case, tmp_path, workers, replay=replay, backend=backend)
        assert golden_files(out) == names
        for name in names:
            assert (out / name).read_bytes() == (expected / name).read_bytes(), (name, replay)
        reported = report_case(tmp_path, out, backend)
        for name in REPORT_FILES:
            assert (reported / name).read_bytes() == (expected / name).read_bytes(), \
                (name, replay, "report")


def test_a_script_entry_for_every_target_evals_alike_at_any_worker_count(tmp_path):
    """An entry with no selector hands out its completions per target, so
    threads that prove several files at once write the bytes one worker
    writes, however often they switch."""
    built = build_walk_project(tmp_path)
    right = "Proof.\nintros x.\nreflexivity.\nQed."
    script = {"entries": [{"completions": [WALK_WRONG, right, "(* I cannot generate it. *)"]}]}
    manifest = {"configs": [{"tag": "zs", "mode": "zs", "decoding": {"n": 2}},
                            {"tag": "inter", "mode": "zs", "loop": "interactive", "max_turns": 3}]}
    (tmp_path / "s.json").write_text(json.dumps(script), encoding="utf-8")
    (tmp_path / "m.json").write_text(json.dumps(manifest), encoding="utf-8")
    config = tmp_path / "c.ini"
    config.write_text(f"[provider]\nscript_file = {tmp_path}/s.json\n\n"
                      f"[prover]\nbackend = mock\nmock_table = {built['mock_table']}\n")
    assert main(["--config", str(config), "ingest", "--root", str(built["project"]), "--out",
                 str(tmp_path / "c.jsonl"), "--split", "explicit", "--explicit-test",
                 *[r.id for r in built["corpus"].test]]) == EXIT_OK

    def outputs(run: str, workers: int) -> list[bytes]:
        out = tmp_path / run
        assert main(["--config", str(config), "eval", "--corpus", str(tmp_path / "c.jsonl"),
                     "--manifest", str(tmp_path / "m.json"), "--out", str(out),
                     "--workers", str(workers)]) == EXIT_OK
        return [(out / name).read_bytes() for name in golden_files(out)]

    expected = outputs("w1", 1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for run in range(5):
            assert outputs(f"w4-{run}", 4) == expected, run
    finally:
        sys.setswitchinterval(interval)


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


@pytest.mark.parametrize("case, backend", on_each_backend(*[(case,) for case in CASES]))
def test_prove_prints_the_rows_eval_wrote_for_every_target_and_config(
    case, backend, tmp_path, capsys
):
    """On the real backend, which starts a prover per `prove`, only each
    config's first target is proved."""
    out = run_case(case, tmp_path, workers=1, backend=backend)
    capsys.readouterr()
    pairs = 0
    for path in sorted((out / "attempts").glob("*.jsonl")):
        by_target: dict[str, list[str]] = {}
        for line in path.read_text(encoding="utf-8").splitlines():
            by_target.setdefault(json.loads(line)["theorem_id"], []).append(line)
        for theorem, lines in list(by_target.items())[: None if backend == "mock" else 1]:
            code = main(["--config", str(config_of(tmp_path, backend)), "prove", "--manifest",
                         str(MANIFESTS[case]), "--config-tag", path.stem, "--theorem", theorem,
                         "--replay"])
            assert code == EXIT_OK
            assert printed_rows(capsys.readouterr().out) == lines, (path.stem, theorem)
            pairs += 1
    targets = {"fixtures": 4, "walk": 7}[case] if backend == "mock" else 1
    assert pairs == targets * {"fixtures": 5, "walk": 10}[case]


def _eval_argv(work, out: str) -> list[str]:
    return ["--config", str(config_of(work)), "eval", "--manifest", str(MANIFESTS["fixtures"]),
            "--out", str(work / out)]


def test_a_cut_transcript_row_is_recorded_again_and_a_replay_names_its_key(tmp_path, caplog):
    """A kill or a full disk can leave a shard's last row cut short. A replay
    misses only that row's key; a recording run records it again, writing
    the uncut run's bytes."""
    uncut = run_case("fixtures", tmp_path, workers=1)
    shard = sorted((tmp_path / "cache").glob("*.jsonl"))[0]
    data = shard.read_bytes()
    n_rows = data.count(b"\n")
    start = data.rfind(b"\n", 0, len(data) - 1) + 1
    key = json.loads(data[start:])["prompt_hash"]
    shard.write_bytes(data[: (start + len(data)) // 2])

    caplog.clear()
    assert main(_eval_argv(tmp_path, "replay") + ["--replay"]) == EXIT_PROVIDER
    assert caplog.text.count("no cached transcript for ") == 1
    assert f"no cached transcript for {key}" in caplog.text
    assert caplog.text.count(f"{shard}:{n_rows}: ignored a final row with no newline") == 1

    assert main(_eval_argv(tmp_path, "again")) == EXIT_OK
    rows = shard.read_bytes().splitlines(keepends=True)
    assert len(rows) == n_rows and all(row.endswith(b"\n") for row in rows)
    assert [json.loads(row)["prompt_hash"] for row in rows].count(key) == 1
    for name in golden_files(uncut):
        assert (tmp_path / "again" / name).read_bytes() == (uncut / name).read_bytes(), name


def _edited(**edit):
    """A transcript row's edit: `edit`'s keys set, those set to None removed."""
    def apply(row: bytes) -> bytes:
        fields = {**json.loads(row), **edit}
        return json.dumps({k: v for k, v in fields.items() if v is not None}).encode() + b"\n"
    return apply


@pytest.mark.parametrize("break_row, logged", [
    (lambda row: row[: len(row) // 2] + b"\n", "Unterminated string"),
    (_edited(completions=7), "completions must be list[str], not 7"),
    (_edited(completions=[7, 7]), "completions must be list[str], not [7, 7]"),
    (_edited(token_usage="xy"), "token_usage must be tuple[int, int], not 'xy'"),
    (_edited(timestamp="now"), "timestamp must be float, not 'now'"),
    (_edited(tokens=[1, 2]), "unknown key 'tokens'"),
    (_edited(completions=None), "missing key 'completions'"),
], ids=["cut", "completions-not-a-list", "completions-not-strings", "token-usage-a-string",
        "timestamp-a-string", "unknown-key", "completions-missing"])
def test_a_malformed_transcript_row_exits_2_naming_it(break_row, logged, tmp_path, caplog):
    run_case("fixtures", tmp_path, workers=1)
    shard = sorted((tmp_path / "cache").glob("*.jsonl"))[0]
    rows = shard.read_bytes().splitlines(keepends=True)
    key = json.loads(rows[0])["prompt_hash"]
    rows[0] = break_row(rows[0])
    assert key.encode() in rows[0]  # so a lookup of the key decodes the row
    shard.write_bytes(b"".join(rows))
    for replay in ([], ["--replay"]):
        caplog.clear()
        assert main(_eval_argv(tmp_path, "out") + replay) == EXIT_CONFIG
        assert f"bad row {shard}:1: {logged}" in caplog.text and "Traceback" not in caplog.text
