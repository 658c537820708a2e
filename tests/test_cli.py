"""End-to-end subcommand behavior: exit codes, files, determinism."""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import coqharness
from coqharness import corpus as corpus_mod, mockprover, retriever
from coqharness.cli import EXIT_CONFIG, EXIT_OK, EXIT_PROVER, EXIT_PROVIDER, main, parse_args
from coqharness.corpus import load_corpus
from coqharness.proofstate import ProofState
from coqharness.sentences import Sentence


@pytest.fixture()
def config_file(tmp_path, fixtures_dir) -> Path:
    path = tmp_path / "harness.ini"
    path.write_text(
        f"""
[paths]
cache_dir = {tmp_path}/cache
corpus_file = {tmp_path}/corpus.jsonl

[provider]
kind = scripted
script_file = {fixtures_dir}/provider_script.json

[prover]
backend = mock
mock_table = {fixtures_dir}/mock_table.json

[defaults]
n = 2
"""
    )
    return path


@pytest.fixture()
def ingested(config_file, fixtures_dir, tmp_path) -> Path:
    corpus_path = tmp_path / "corpus.jsonl"
    code = main(
        [
            "--config", str(config_file),
            "ingest",
            "--root", str(fixtures_dir / "project"),
            "--out", str(corpus_path),
            "--split", "explicit",
            "--explicit-test",
            "relations.v::union_incl", "relations.v::trans_incl",
            "weak.v::weak_refl", "weak.v::G_wmon",
        ]
    )
    assert code == EXIT_OK
    return corpus_path


def test_ingest_writes_corpus(ingested, capsys):
    assert ingested.exists()
    corpus = load_corpus(ingested)
    assert len(corpus.records) == 8
    assert len(corpus.test) == 4


def test_ingest_missing_path_exit_2(config_file, capsys, caplog):
    code = main(["--config", str(config_file), "ingest", "--root", "/no/such/dir"])
    assert code == EXIT_CONFIG
    assert "/no/such/dir" in caplog.text


def test_ingest_by_file_split(config_file, fixtures_dir, tmp_path):
    out = tmp_path / "byfile.jsonl"
    code = main(
        [
            "--config", str(config_file),
            "ingest", "--root", str(fixtures_dir / "project"),
            "--out", str(out), "--split", "by_file", "--seed", "2",
        ]
    )
    assert code == EXIT_OK
    corpus = load_corpus(out)
    test_files = {r.file for r in corpus.test}
    train_files = {r.file for r in corpus.train}
    assert test_files and train_files and not (test_files & train_files)


def test_index(config_file, ingested, tmp_path, capsys):
    out = tmp_path / "index.json"
    code = main(
        [
            "--config", str(config_file),
            "index", "--corpus", str(ingested), "--out", str(out),
        ]
    )
    assert code == EXIT_OK
    assert out.exists()
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert summary["size"] == 4  # train records only
    with pytest.raises(SystemExit) as exit_info:
        main(["--config", str(config_file), "index", "--corpus", str(ingested),
              "--out", str(out), "--train-embedding"])
    assert exit_info.value.code == EXIT_CONFIG

    code = main(
        [
            "--config", str(config_file),
            "index", "--corpus", str(ingested), "--out", str(tmp_path / "st.json"),
            "--space", "statement_text",
        ]
    )
    assert code == EXIT_OK


def test_index_bytes_independent_of_hash_seed(config_file, ingested, tmp_path):
    src = str(Path(coqharness.__file__).resolve().parents[1])
    outputs = []
    for seed in ("1", "2"):
        out = tmp_path / f"index-{seed}.json"
        env = {**os.environ, "PYTHONHASHSEED": seed,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        subprocess.run(
            [sys.executable, "-m", "coqharness.cli", "--config", str(config_file),
             "index", "--corpus", str(ingested), "--out", str(out)],
            env=env, check=True, capture_output=True, timeout=120,
        )
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_prove_scripted_weak_refl_prints_accepted(config_file, ingested, capsys):
    code = main(
        [
            "--config", str(config_file),
            "prove", "--corpus", str(ingested),
            "--theorem", "weak.v::weak_refl", "--mode", "zs", "--config-tag", "zs",
        ]
    )
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert out.strip().endswith("ACCEPTED")


def test_prove_unknown_id_nonzero(config_file, ingested, caplog):
    code = main(
        [
            "--config", str(config_file),
            "prove", "--corpus", str(ingested), "--theorem", "no_such_theorem",
        ]
    )
    assert code == EXIT_CONFIG
    assert "no_such_theorem" in caplog.text


# A row of the format that stored each record's whole preceding source.
_FORMAT_1_ROWS = [
    {"format": "coqharness-corpus/1", "root": "project"},
    {"id": "relations.v::union_incl", "name": "union_incl",
     "statement": {"text": "Lemma union_incl: True.", "span": [0, 23]},
     "proof": [{"text": "Qed.", "span": [24, 28]}], "file": "relations.v",
     "preceding_source": "", "index_in_file": 0, "split": "test"},
]


@pytest.mark.parametrize("command", [
    ["eval", "--manifest", "MANIFEST", "--out", "OUT"],
    ["index", "--out", "OUT"],
    ["prove", "--theorem", "relations.v::union_incl", "--mode", "zs"],
    ["prove", "--theorem", "relations.v::union_incl", "--mode", "fs-sim"],
])
def test_a_format_1_corpus_exits_2_and_asks_for_ingest(
    command, config_file, manifest_path, tmp_path, caplog
):
    corpus_path = tmp_path / "old.jsonl"
    corpus_path.write_text("".join(json.dumps(row) + "\n" for row in _FORMAT_1_ROWS))
    argv = [str(manifest_path) if a == "MANIFEST" else str(tmp_path / "out") if a == "OUT" else a
            for a in command]
    code = main(["--config", str(config_file), argv[0], "--corpus", str(corpus_path), *argv[1:]])
    assert code == EXIT_CONFIG
    assert ("line 1: corpus format 'coqharness-corpus/1', expected 'coqharness-corpus/2': "
            "re-run ingest") in caplog.text


def test_prove_interactive_flag(config_file, ingested, tmp_path, fixtures_dir, capsys):
    # interactive needs a dialogue script: reuse eval mock; G_wmon dialogue
    script = {
        "default": "(* nothing *)",
        "entries": [
            {
                "theorem": "G_wmon",
                "completions": [
                    "QUERY Print G",
                    "unfold wmonotonic, G; intuition.",
                    "apply wunfold; auto.",
                    "Qed.",
                ],
            }
        ],
    }
    script_path = tmp_path / "dialogue.json"
    script_path.write_text(json.dumps(script))
    config = tmp_path / "inter.ini"
    config.write_text(
        f"""
[provider]
kind = scripted
script_file = {script_path}

[prover]
backend = mock
mock_table = {fixtures_dir}/mock_table.json
"""
    )
    code = main(
        [
            "--config", str(config),
            "prove", "--corpus", str(ingested),
            "--theorem", "weak.v::G_wmon", "--mode", "zs", "--interactive",
        ]
    )
    assert code == EXIT_OK
    assert capsys.readouterr().out.strip().endswith("ACCEPTED")


def test_eval_writes_reports_and_is_deterministic(
    config_file, ingested, manifest_path, tmp_path, capsys
):
    out1, out2 = tmp_path / "out1", tmp_path / "out2"
    for out in (out1, out2):
        code = main(
            [
                "--config", str(config_file),
                "eval", "--corpus", str(ingested),
                "--manifest", str(manifest_path), "--out", str(out),
            ]
        )
        assert code == EXIT_OK
    report = (out1 / "report.md").read_text()
    assert "| #Correct Proof |" in report and "| #Proven Theorems |" in report
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
    payload = json.loads((out1 / "report.json").read_text())
    assert payload["config_echo"]["zs"]["mode"] == "zs"
    attempt_files = sorted(p.name for p in (out1 / "attempts").glob("*.jsonl"))
    assert "zs.jsonl" in attempt_files
    assert attempt_files == sorted(p.name for p in (out2 / "attempts").glob("*.jsonl"))
    for name in attempt_files:
        assert (out1 / "attempts" / name).read_bytes() == (out2 / "attempts" / name).read_bytes()


def test_eval_replay_without_cache_dir_fails(ingested, manifest_path, tmp_path):
    config = tmp_path / "nocache.ini"
    config.write_text("[provider]\nkind = scripted\n")
    code = main(
        [
            "--config", str(config),
            "eval", "--corpus", str(ingested),
            "--manifest", str(manifest_path), "--out", str(tmp_path / "o"),
            "--replay",
        ]
    )
    assert code == EXIT_CONFIG


def test_eval_replay_serves_from_cache(config_file, ingested, manifest_path, tmp_path):
    live_out = tmp_path / "live"
    code = main(
        [
            "--config", str(config_file),
            "eval", "--corpus", str(ingested),
            "--manifest", str(manifest_path), "--out", str(live_out),
        ]
    )
    assert code == EXIT_OK
    replay_out = tmp_path / "replayed"
    code = main(
        [
            "--config", str(config_file),
            "eval", "--corpus", str(ingested),
            "--manifest", str(manifest_path), "--out", str(replay_out),
            "--replay",
        ]
    )
    assert code == EXIT_OK
    assert (live_out / "report.json").read_bytes() == (replay_out / "report.json").read_bytes()


def test_eval_replay_empty_cache_exit_3(config_file, ingested, manifest_path, tmp_path):
    out = tmp_path / "o"
    code = main(
        [
            "--config", str(config_file),
            "eval", "--corpus", str(ingested),
            "--manifest", str(manifest_path), "--out", str(out), "--replay",
        ]
    )
    assert code == EXIT_PROVIDER
    assert not (out / "report.json").exists()


def test_eval_unspawnable_prover_exit_4(ingested, manifest_path, tmp_path, fixtures_dir):
    config = tmp_path / "real.ini"
    config.write_text(
        f"""
[provider]
kind = scripted
script_file = {fixtures_dir}/provider_script.json

[prover]
backend = real
prover_command = {tmp_path}/no-such-coqtop -emacs
"""
    )
    out = tmp_path / "o"
    code = main(
        [
            "--config", str(config),
            "eval", "--corpus", str(ingested),
            "--manifest", str(manifest_path), "--out", str(out),
        ]
    )
    assert code == EXIT_PROVER
    assert not (out / "report.json").exists()


def test_report_recompute_matches(config_file, ingested, manifest_path, tmp_path, capsys):
    out = tmp_path / "out"
    main(
        [
            "--config", str(config_file),
            "eval", "--corpus", str(ingested),
            "--manifest", str(manifest_path), "--out", str(out),
        ]
    )
    recomputed = tmp_path / "recomputed"
    code = main(["report", "--attempts", str(out / "attempts"), "--out", str(recomputed)])
    assert code == EXIT_OK
    original = json.loads((out / "report.json").read_text())
    clone = json.loads((recomputed / "report.json").read_text())
    assert clone["per_config"] == original["per_config"]
    assert clone["coincidence"] == original["coincidence"]

    capsys.readouterr()
    code = main(["report", "--attempts", str(out / "attempts"), "--taxonomy-only"])
    assert code == EXIT_OK
    histogram = json.loads(capsys.readouterr().out)
    assert "zs" in histogram and "correct" in histogram["zs"]


def test_provider_failure_exit_3(ingested, tmp_path, fixtures_dir):
    script_path = tmp_path / "empty.json"
    script_path.write_text(json.dumps({"entries": []}))  # no default: misses raise
    config = tmp_path / "prov.ini"
    config.write_text(
        f"""
[provider]
kind = scripted
script_file = {script_path}

[prover]
backend = mock
mock_table = {fixtures_dir}/mock_table.json
"""
    )
    code = main(
        [
            "--config", str(config),
            "prove", "--corpus", str(ingested), "--theorem", "weak.v::weak_refl",
        ]
    )
    assert code == EXIT_PROVIDER


def test_help_on_every_subcommand(capsys):
    for command in ("ingest", "index", "prove", "eval", "report"):
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--help"])
        assert exit_info.value.code == 0
        assert "--" in capsys.readouterr().out


# Help texts and usage errors as printed when every subcommand's arguments
# were built at once, captured at COLUMNS=80 on Python 3.11.
CLI_GOLDEN = json.loads((Path(__file__).parent / "fixtures" / "cli_golden.json").read_text("utf-8"))


@pytest.mark.parametrize("case", CLI_GOLDEN, ids=lambda case: " ".join(case["argv"]) or "none")
def test_help_and_usage_errors_are_unchanged(case, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_info:
        main(case["argv"])
    printed = capsys.readouterr()
    assert (exit_info.value.code, printed.out, printed.err) == \
        (case["code"], case["stdout"], case["stderr"])


@pytest.mark.parametrize("argv, expected", [
    (["--config", "eval", "prove", "--theorem", "index", "--corpus", "report"],
     {"config": "eval", "command": "prove", "theorem": "index", "corpus": "report"}),
    (["--config=ingest", "-v", "index", "--out", "eval"],
     {"config": "ingest", "verbose": True, "command": "index", "out": "eval", "space": "proof_text"}),
    (["report", "--attempts", "prove", "--out", "ingest"],
     {"config": None, "command": "report", "attempts": "prove", "out": "ingest"}),
])
def test_a_command_name_as_an_option_value_parses(argv, expected):
    args = vars(parse_args(argv))
    assert {key: args[key] for key in expected} == expected
    assert "arguments" not in args


def test_only_the_invoked_subcommand_builds_its_arguments(monkeypatch):
    added = []
    add_argument = argparse._ActionsContainer.add_argument
    monkeypatch.setattr(argparse._ActionsContainer, "add_argument",
                        lambda self, *names, **kw: added.extend(names) or add_argument(self, *names, **kw))
    args = parse_args(["prove", "--theorem", "t", "--mode", "fs-sim"])
    assert (args.command, args.theorem, args.mode, args.corpus) == ("prove", "t", "fs-sim", None)
    assert sorted(added) == sorted([
        "-h", "--help", "--config", "-v", "--verbose",  # the top-level parser's
        "-h", "--help", "--corpus", "--theorem", "--config-tag", "--manifest", "--mode",
        "--interactive", "--replay", "--cache-dir",
    ])


def test_a_malformed_scripted_state_exits_2(
    config_file, ingested, manifest_path, mock_table, fixtures_dir, tmp_path, caplog
):
    table = json.loads(json.dumps(mock_table))
    table["theorems"]["weak_refl"]["scripts"] = [
        {"steps": ["intros x.", "constructor.", "reflexivity.", "Qed."], "states": ["garbage"]}]
    bad = tmp_path / "bad-state-table.json"
    bad.write_text(json.dumps(table), encoding="utf-8")
    config = tmp_path / "bad-state.ini"
    config.write_text(config_file.read_text().replace(str(fixtures_dir / "mock_table.json"), str(bad)))
    code = main(["--config", str(config), "prove", "--theorem", "weak.v::weak_refl"])
    assert code == EXIT_CONFIG
    assert f"bad mock table {bad}: no goal separator line found" in caplog.text
    caplog.clear()
    out = tmp_path / "o"
    code = main(["--config", str(config), "eval", "--manifest", str(manifest_path), "--out", str(out)])
    assert code == EXIT_CONFIG  # every entry compiles before any theorem runs
    assert f"bad mock table {bad}: no goal separator line found" in caplog.text
    assert "Traceback" not in caplog.text and not out.exists()


def test_prove_builds_few_sentences_and_no_prelude_states(long_project, tmp_path, monkeypatch, capsys):
    """An fs-sim prove on the 3 x 200 project builds the sentences it reads,
    not the corpus's, and its mock prelude replay builds no proof state."""
    corpus = long_project["corpus"]
    corpus_mod.save_corpus(corpus, tmp_path / "corpus.jsonl")
    (tmp_path / "table.json").write_text(json.dumps({"theorems": {
        r.name: {"scripts": [["intros n.", "reflexivity.", "Qed."]]} for r in corpus.records}}))
    (tmp_path / "script.json").write_text(json.dumps(
        {"default": "Proof.\nintros n.\nreflexivity.\nQed.", "entries": []}))
    config = tmp_path / "long.ini"
    config.write_text(f"""
[paths]
corpus_file = {tmp_path}/corpus.jsonl
index_file = {tmp_path}/index.json

[provider]
kind = scripted
script_file = {tmp_path}/script.json

[prover]
backend = mock
mock_table = {tmp_path}/table.json
""")
    assert main(["--config", str(config), "index", "--out", str(tmp_path / "index.json")]) == EXIT_OK
    in_file = [r for r in corpus.test if r.file == "m1.v"]
    target = in_file[len(in_file) // 2]
    held = sum(len(source.sentences) for source in {id(r.source): r.source for r in corpus.records}.values())

    built, prelude = Counter(), [False]
    sentence_init, state_init = Sentence.__init__, ProofState.__init__
    set_prelude_mode, execute = mockprover.MockSession.set_prelude_mode, mockprover.MockSession.execute

    def count(kind, init):
        def counted(self, *args):
            built[kind, prelude[0]] += 1
            init(self, *args)
        return counted

    def set_mode(session, enabled):
        prelude[0] = enabled
        set_prelude_mode(session, enabled)

    def counted_execute(session, sentence):
        built["execute", prelude[0]] += 1
        return execute(session, sentence)

    monkeypatch.setattr(Sentence, "__init__", count("sentence", sentence_init))
    monkeypatch.setattr(ProofState, "__init__", count("state", state_init))
    monkeypatch.setattr(mockprover.MockSession, "set_prelude_mode", set_mode)
    monkeypatch.setattr(mockprover.MockSession, "execute", counted_execute)
    code = main(["--config", str(config), "prove", "--theorem", target.id, "--mode", "fs-sim"])
    assert code == EXIT_OK and capsys.readouterr().out.strip().endswith("ACCEPTED")
    assert built["execute", True] == target.statement_index  # the whole prelude was replayed
    assert built["state", True] == 0 < built["state", False]
    assert target.statement_index < built["sentence", False] + built["sentence", True] < held // 2


def _manifest(tmp_path, configs) -> Path:
    path = tmp_path / "manifest-extra.json"
    path.write_text(json.dumps({"configs": configs}))
    return path


@pytest.mark.parametrize(
    "strategies, logged",
    [(["verbose-stepwise", bad], repr(bad))
     for bad in ("zs", "example-reorder", "example-reorder:x", "simple-tactics-first ")]
    + [([], "non-empty strategy list")],
)
def test_eval_unknown_ensemble_strategy_exit_2(
    config_file, ingested, tmp_path, caplog, strategies, logged
):
    manifest = _manifest(tmp_path, [
        {"tag": "ens", "mode": "zs", "loop": "ensemble", "strategies": strategies},
    ])
    out = tmp_path / "o"
    code = main(["--config", str(config_file), "eval", "--corpus", str(ingested),
                 "--manifest", str(manifest), "--out", str(out)])
    assert code == EXIT_CONFIG
    assert logged in caplog.text
    assert not (out / "report.json").exists()


def test_eval_embedded_retrieval_mode_exit_2(config_file, ingested, tmp_path, caplog):
    manifest = _manifest(tmp_path, [
        {"tag": "zs", "mode": "zs"},
        {"tag": "emb", "mode": "fs-sim", "k_shots": 2, "retrieval_mode": "embedded"},
    ])
    out = tmp_path / "o"
    code = main(["--config", str(config_file), "eval", "--corpus", str(ingested),
                 "--manifest", str(manifest), "--out", str(out)])
    assert code == EXIT_CONFIG
    assert "unknown retrieval mode 'embedded'" in caplog.text
    assert not (out / "report.json").exists()
    code = main(["--config", str(config_file), "prove", "--corpus", str(ingested),
                 "--theorem", "weak.v::weak_refl", "--manifest", str(manifest),
                 "--config-tag", "emb"])
    assert code == EXIT_CONFIG
    assert caplog.text.count("unknown retrieval mode 'embedded'") == 2


@pytest.mark.parametrize("source", ["flag", "config"])
def test_missing_index_file_exit_2(
    config_file, ingested, manifest_path, tmp_path, caplog, source
):
    missing = tmp_path / "does-not-exist.json"
    config, index_flag = config_file, ["--index", str(missing)]
    if source == "config":
        config = tmp_path / "with-index.ini"
        config.write_text(config_file.read_text().replace(
            "[paths]\n", f"[paths]\nindex_file = {missing}\n"))
        index_flag = []
    out = tmp_path / "o"
    code = main(["--config", str(config), "eval", "--corpus", str(ingested),
                 "--manifest", str(manifest_path), "--out", str(out), *index_flag])
    assert code == EXIT_CONFIG
    assert f"index file not found: {missing}" in caplog.text
    assert not (out / "report.json").exists()
    if source == "config":
        caplog.clear()
        code = main(["--config", str(config), "prove", "--corpus", str(ingested),
                     "--theorem", "weak.v::weak_refl"])
        assert code == EXIT_CONFIG
        assert f"index file not found: {missing}" in caplog.text


def test_report_classifies_uncategorized_rows_with_configured_patterns(tmp_path, capsys):
    attempts = tmp_path / "attempts"
    attempts.mkdir()
    row = {
        "theorem_id": "f.v::t", "config_tag": "zs", "variant_id": "base",
        "candidate_index": 0, "proof_script": "Proof. auto. Qed.", "accepted": False,
        "failing_step": [1, "auto.", "glacial slowness"], "turns": [],
        "completion_kind": "proof",
    }
    (attempts / "zs.jsonl").write_text(json.dumps(row) + "\n")
    patterns = tmp_path / "patterns.json"
    patterns.write_text(
        json.dumps({"rules": [{"category": "resource", "patterns": ["glacial"]}]}))
    config = tmp_path / "report.ini"
    config.write_text(f"[paths]\nclassifier_patterns = {patterns}\n")
    code = main(["--config", str(config), "report", "--attempts", str(attempts),
                 "--taxonomy-only"])
    assert code == EXIT_OK
    histogram = json.loads(capsys.readouterr().out)
    assert histogram["zs"]["resource"] == 1
    assert histogram["zs"]["wrong_tactic"] == 0


def test_eval_unreadable_mock_table_exit_2(ingested, manifest_path, tmp_path, fixtures_dir):
    config = tmp_path / "bad-table.ini"
    config.write_text(
        f"""
[provider]
kind = scripted
script_file = {fixtures_dir}/provider_script.json

[prover]
backend = mock
mock_table = {tmp_path}/no-such-table.json
"""
    )
    code = main(["--config", str(config), "eval", "--corpus", str(ingested),
                 "--manifest", str(manifest_path), "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG


def _walk_config(walk_project, table: dict | None = None, index: bool = False) -> Path:
    """Ingest the walk project; returns a config naming its corpus, and its
    index when `index`. `table` replaces the project's mock table."""
    root = walk_project["root"]
    mock_table = walk_project["mock_table"]
    if table is not None:
        mock_table = root / "edited_table.json"
        mock_table.write_text(json.dumps(table), encoding="utf-8")
    config = root / "walk.ini"
    config.write_text(
        f"""
[paths]
corpus_file = {root}/corpus.jsonl

[provider]
kind = scripted
script_file = {walk_project["script"]}

[prover]
backend = mock
mock_table = {mock_table}
"""
    )
    test_ids = [r.id for r in walk_project["corpus"].test]
    code = main(["--config", str(config), "ingest", "--root", str(walk_project["project"]),
                 "--out", str(root / "corpus.jsonl"), "--split", "explicit",
                 "--explicit-test", *test_ids])
    assert code == EXIT_OK
    if index:
        code = main(["--config", str(config), "index", "--out", str(root / "index.json")])
        assert code == EXIT_OK
        config.write_text(config.read_text().replace(
            "[paths]\n", f"[paths]\nindex_file = {root}/index.json\n"))
    return config


def test_eval_workers_1_and_4_write_identical_bytes(walk_project, tmp_path):
    config = _walk_config(walk_project)
    test_ids = [r.id for r in walk_project["corpus"].test]
    manifest = _manifest(tmp_path, [
        {"tag": "zs", "mode": "zs", "decoding": {"n": 2}},
        {"tag": "fs", "mode": "fs-sim", "k_shots": 2, "decoding": {"n": 2}},
        {"tag": "inter", "mode": "zs", "loop": "interactive", "max_turns": 3},
        {"tag": "rep", "mode": "zs", "loop": "repair", "repair_rounds": 1, "decoding": {"n": 2}},
        {"tag": "ens", "mode": "zs", "loop": "ensemble", "decoding": {"n": 2},
         "strategies": ["example-reorder:1"]},
    ])
    outs = [tmp_path / f"w{workers}" for workers in (1, 4)]
    for workers, out in zip((1, 4), outs):
        code = main(["--config", str(config), "eval", "--manifest", str(manifest),
                     "--out", str(out), "--workers", str(workers)])
        assert code == EXIT_OK
    payload = json.loads((outs[0] / "report.json").read_text())
    assert payload["per_config"]["zs"]["n_proven_theorems"] == len(test_ids)
    assert payload["per_config"]["zs"]["n_attempts"] == 2 * len(test_ids)
    names = ["report.json", "report.md", "report.csv"] + [
        f"attempts/{p.name}" for p in sorted((outs[0] / "attempts").glob("*.jsonl"))
    ]
    assert len(names) == 3 + 5
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


@pytest.mark.parametrize(
    "content, detail",
    [('{"format": "nope"}', "index format 'nope', expected 'coqharness-index/2'"),
     ('{"format": "coqharness-index/1", "space": "proof_text", "vectors": {}}',
      "index format 'coqharness-index/1', expected 'coqharness-index/2': re-run index"),
     ({"postings": None}, "'postings'"),
     ({"norms": []}, "a field has the wrong type"),
     ({"postings": {"7": [["weak.v::weak_refl"]]}}, "not enough values to unpack"),
     ({"norms": {}}, "has no norm or no weight"),
     ('{"format": "coqharness-index/2", "space"', "Expecting")],
    ids=["wrong-format", "format-1", "no-postings", "wrong-type", "short-pair", "no-norms",
         "truncated"],
)
def test_unreadable_index_file_exit_2(
    config_file, ingested, manifest_path, tmp_path, caplog, content, detail
):
    bad = tmp_path / "bad-index.json"
    if isinstance(content, dict):  # a real index with a field deleted (None) or replaced
        assert main(["--config", str(config_file), "index", "--out", str(bad)]) == EXIT_OK
        payload = json.loads(bad.read_text())
        for key, value in content.items():
            if value is None:
                del payload[key]
            else:
                payload[key] = value
        content = json.dumps(payload)
    bad.write_text(content)
    out = tmp_path / "o"
    code = main(["--config", str(config_file), "eval", "--manifest", str(manifest_path),
                 "--out", str(out), "--index", str(bad)])
    assert code == EXIT_CONFIG
    assert f"bad index file {bad}: " in caplog.text and detail in caplog.text
    assert not (out / "report.json").exists()

    config = tmp_path / "with-index.ini"
    config.write_text(config_file.read_text().replace("[paths]\n", f"[paths]\nindex_file = {bad}\n"))
    caplog.clear()
    code = main(["--config", str(config), "prove", "--theorem", "weak.v::weak_refl",
                 "--mode", "fs-sim"])
    assert code == EXIT_CONFIG
    assert f"bad index file {bad}: " in caplog.text and detail in caplog.text
    # a config that never ranks by similarity does not read the index
    assert main(["--config", str(config), "prove", "--theorem", "weak.v::weak_refl"]) == EXIT_OK


@pytest.fixture()
def broken_table(walk_project) -> dict:
    """The walk project's table with a3's initial state missing its goal separator."""
    table = json.loads(json.dumps(walk_project["table"]))
    table["theorems"]["a3"]["initial_state"] = "n : nat\nforall x : nat, x + 3 = x + 3"
    return table


@pytest.mark.parametrize("workers", [1, 4])
def test_eval_malformed_mock_table_entry_exit_2(
    walk_project, broken_table, manifest_path, tmp_path, caplog, workers
):
    config = _walk_config(walk_project, broken_table)
    out = tmp_path / "o"
    code = main(["--config", str(config), "eval", "--manifest", str(manifest_path),
                 "--out", str(out), "--workers", str(workers)])
    assert code == EXIT_CONFIG
    assert "bad mock table" in caplog.text and "separator" in caplog.text
    assert not (out / "report.json").exists()


@pytest.mark.parametrize(
    "theorem, expected",
    [("a.v::a3", EXIT_CONFIG),   # the broken entry is the target
     ("a.v::a5", EXIT_CONFIG),   # ... or a lemma of the prelude
     ("a.v::a1", EXIT_OK),       # ... or comes after the target
     ("b.v::b2", EXIT_OK)],      # ... or is in another file
)
def test_prove_opens_only_the_entries_it_needs(
    walk_project, broken_table, caplog, capsys, theorem, expected
):
    config = _walk_config(walk_project, broken_table)
    code = main(["--config", str(config), "prove", "--theorem", theorem])
    assert code == expected
    if expected == EXIT_CONFIG:
        assert f"bad mock table {walk_project['root'] / 'edited_table.json'}: " in caplog.text
        assert "Traceback" not in caplog.text
    else:
        assert capsys.readouterr().out.strip().endswith("ACCEPTED")


def test_prove_set_up_reads_only_what_its_config_uses(walk_project, monkeypatch, capsys):
    config = _walk_config(walk_project, index=True)
    calls = {}
    for module, name in [(corpus_mod, "load_corpus"), (retriever, "load_index"),
                         (mockprover, "parse_proof_state")]:
        def counted(*args, _original=getattr(module, name), _name=name):
            calls[_name] += 1
            return _original(*args)
        monkeypatch.setattr(module, name, counted)
    opened = set()
    entry = mockprover.BehaviorTable.entry

    def counted_entry(table, name):
        if name in table.raw_theorems:
            opened.add(name)
        return entry(table, name)

    monkeypatch.setattr(mockprover.BehaviorTable, "entry", counted_entry)
    for mode, loads in [("zs", 0), ("fs-sim", 1)]:
        calls.update(load_corpus=0, load_index=0, parse_proof_state=0)
        opened.clear()
        code = main(["--config", str(config), "prove", "--theorem", "a.v::a3", "--mode", mode])
        assert code == EXIT_OK
        assert capsys.readouterr().out.strip().endswith("ACCEPTED")
        assert (calls["load_corpus"], calls["load_index"]) == (loads, loads), mode
        # a.v's entries carry initial states: a prove parses those of a0..a3 only
        assert opened == {"a0", "a1", "a2", "a3"}
        assert 0 < calls["parse_proof_state"] <= len(opened)


def test_prove_finds_a_name_and_reports_a_bad_row_from_the_full_corpus(
    config_file, ingested, tmp_path, caplog, capsys, monkeypatch
):
    code = main(["--config", str(config_file), "prove", "--theorem", "weak.v::weak_refl"])
    assert code == EXIT_OK
    by_id = capsys.readouterr().out
    loads = []
    monkeypatch.setattr(corpus_mod, "load_corpus",
                        lambda path, _load=corpus_mod.load_corpus: loads.append(path) or _load(path))
    code = main(["--config", str(config_file), "prove", "--theorem", "weak_refl"])
    assert code == EXIT_OK
    assert capsys.readouterr().out == by_id
    assert len(loads) == 1  # a name is not an id: the whole corpus is read

    lines = ingested.read_text(encoding="utf-8").splitlines(keepends=True)
    row = next(i for i, line in enumerate(lines) if '"id": "weak.v::weak_refl"' in line)
    broken = json.loads(lines[row])
    del broken["proof_end"]
    lines[row] = json.dumps(broken, ensure_ascii=False) + "\n"
    ingested.write_text("".join(lines), encoding="utf-8")
    code = main(["--config", str(config_file), "prove", "--theorem", "weak.v::weak_refl"])
    assert code == EXIT_CONFIG
    assert f"line {row + 1}: missing fields: ['proof_end']" in caplog.text


@pytest.mark.parametrize("argv", [
    ["eval", "--manifest", "MANIFEST"],
    ["prove", "--theorem", "weak.v::weak_refl", "--mode", "zs"],
    ["prove", "--theorem", "weak.v::weak_refl", "--mode", "fs-sim"],
], ids=["eval", "prove-zs", "prove-fs-sim"])
def test_missing_corpus_file_exit_2(config_file, manifest_path, tmp_path, caplog, argv):
    missing = tmp_path / "nonexistent.jsonl"
    argv = [str(manifest_path) if a == "MANIFEST" else a for a in argv]
    code = main(["--config", str(config_file), *argv, "--corpus", str(missing)])
    assert code == EXIT_CONFIG
    assert f"cannot read corpus {missing}: No such file or directory" in caplog.text


def test_no_corpus_file_named_exit_2(tmp_path, caplog):
    config = tmp_path / "empty.ini"
    config.write_text("[paths]\n")
    code = main(["--config", str(config), "index", "--out", str(tmp_path / "i.json")])
    assert code == EXIT_CONFIG
    assert "no corpus file: pass --corpus or set paths.corpus_file" in caplog.text
