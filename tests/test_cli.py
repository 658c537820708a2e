"""End-to-end subcommand behavior: exit codes, files, determinism."""

from __future__ import annotations

import argparse
import configparser
import inspect
import json
import os
import subprocess
import sys
import urllib.request
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

import coqharness
from coqharness import client, corpus as corpus_mod, mockprover, retriever
from coqharness.agent import RunConfig
from coqharness.cli import (
    EXIT_CONFIG, EXIT_OK, EXIT_PROVER, EXIT_PROVIDER, build_provider, build_session_config,
    decoding_from, main, parse_args, run_config_from_dict,
)
from coqharness.corpus import load_corpus
from coqharness.driver import SessionConfig, SessionDead
from coqharness.prompting import TemplateSet
from coqharness.proofstate import ProofState
from coqharness.sentences import Sentence

from chat_stub import http_config as _http_config


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


def test_prove_a_name_that_two_files_use_exit_2(tmp_path, caplog):
    """A name that two records share picks neither: the message lists their ids."""
    project = tmp_path / "project"
    project.mkdir()
    for name in ("a.v", "b.v"):
        (project / name).write_text("Lemma same : True.\nProof. exact I. Qed.\n", encoding="utf-8")
    corpus = tmp_path / "corpus.jsonl"
    assert main(["ingest", "--root", str(project), "--out", str(corpus)]) == EXIT_OK
    assert main(["prove", "--corpus", str(corpus), "--theorem", "same"]) == EXIT_CONFIG
    assert "theorem name 'same' is ambiguous: a.v::same, b.v::same" in caplog.text


FIXTURE_IDS = (
    "relations.v::comp_incl", "relations.v::comp_eeq", "relations.v::union_incl",
    "relations.v::union2_evolve_left", "relations.v::union2_evolve_right",
    "relations.v::trans_incl", "weak.v::weak_refl", "weak.v::G_wmon",
)


def _ingest_with_test_ids(config_file, fixtures_dir, tmp_path, test_ids) -> Path:
    corpus_path = tmp_path / "split.jsonl"
    code = main(["--config", str(config_file), "ingest", "--root", str(fixtures_dir / "project"),
                 "--out", str(corpus_path), "--split", "explicit", "--explicit-test", *test_ids])
    assert code == EXIT_OK
    return corpus_path


@pytest.mark.parametrize("mode", ["fs-rand", "fs-sim", "fs+lem"])
def test_few_shot_prove_on_a_corpus_with_no_train_records_exits_2(
    config_file, fixtures_dir, tmp_path, capsys, caplog, mode
):
    corpus_path = _ingest_with_test_ids(config_file, fixtures_dir, tmp_path, FIXTURE_IDS)
    capsys.readouterr()
    code = main(["--config", str(config_file), "prove", "--corpus", str(corpus_path),
                 "--theorem", "weak.v::weak_refl", "--mode", mode])
    assert code == EXIT_CONFIG
    assert "no train records" in caplog.text
    assert capsys.readouterr().out == ""


def test_eval_with_few_shot_configs_on_a_corpus_with_no_train_records_exits_2(
    config_file, fixtures_dir, manifest_path, tmp_path, caplog
):
    corpus_path = _ingest_with_test_ids(config_file, fixtures_dir, tmp_path, FIXTURE_IDS)
    out = tmp_path / "out"
    code = main(["--config", str(config_file), "eval", "--corpus", str(corpus_path),
                 "--manifest", str(manifest_path), "--out", str(out)])
    assert code == EXIT_CONFIG
    assert "no train records for few-shot configs: fs-rand, fs-sim, fs+lem" in caplog.text
    assert not out.exists()


def test_few_shot_prove_of_the_only_train_record_exits_2(
    config_file, fixtures_dir, tmp_path, capsys, caplog
):
    only_train = "weak.v::weak_refl"
    test_ids = [i for i in FIXTURE_IDS if i != only_train]
    corpus_path = _ingest_with_test_ids(config_file, fixtures_dir, tmp_path, test_ids)
    capsys.readouterr()
    code = main(["--config", str(config_file), "prove", "--corpus", str(corpus_path),
                 "--theorem", only_train, "--mode", "fs-rand"])
    assert code == EXIT_CONFIG
    assert "no train records available for few-shot mode fs-rand" in caplog.text
    assert capsys.readouterr().out == ""


# Rows of the format that stored each record's whole preceding source, and of
# the format that wrote a file row followed by one row per record.
_FORMAT_1_ROWS = [
    {"format": "coqharness-corpus/1", "root": "project"},
    {"id": "relations.v::union_incl", "name": "union_incl",
     "statement": {"text": "Lemma union_incl: True.", "span": [0, 23]},
     "proof": [{"text": "Qed.", "span": [24, 28]}], "file": "relations.v",
     "preceding_source": "", "index_in_file": 0, "split": "test"},
]
_FORMAT_2_ROWS = [
    {"format": "coqharness-corpus/2", "root": "project"},
    {"path": "relations.v", "text": "Lemma union_incl: True. Qed.", "spans": [0, 23, 1, 4]},
    {"id": "relations.v::union_incl", "name": "union_incl", "file": "relations.v",
     "index_in_file": 0, "statement_index": 0, "proof_end": 2, "split": "test"},
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
    argv = [str(manifest_path) if a == "MANIFEST" else str(tmp_path / "out") if a == "OUT" else a
            for a in command]
    for version, rows in ((1, _FORMAT_1_ROWS), (2, _FORMAT_2_ROWS)):
        corpus_path = tmp_path / f"old-{version}.jsonl"
        corpus_path.write_text("".join(json.dumps(row) + "\n" for row in rows))
        caplog.clear()
        code = main(["--config", str(config_file), argv[0], "--corpus", str(corpus_path),
                     *argv[1:]])
        assert code == EXIT_CONFIG
        assert (f"bad row {corpus_path}:1: corpus format 'coqharness-corpus/{version}', expected "
                "'coqharness-corpus/3': re-run ingest to rewrite it") in caplog.text
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("content", ["", "\n", '{"path": "relations.v"}\n'],
                         ids=["empty", "blank-first-line", "no-header"])
@pytest.mark.parametrize("command", [
    ["eval", "--manifest", "MANIFEST", "--out", "OUT"],
    ["index", "--out", "OUT"],
    ["prove", "--theorem", "relations.v::union_incl", "--mode", "zs"],
    ["prove", "--theorem", "relations.v::union_incl", "--mode", "fs-sim"],
])
def test_a_corpus_file_without_a_header_exits_2(
    command, content, config_file, manifest_path, tmp_path, caplog
):
    corpus_path = tmp_path / "headless.jsonl"
    corpus_path.write_text(content)
    argv = [str(manifest_path) if a == "MANIFEST" else str(tmp_path / "out") if a == "OUT" else a
            for a in command]
    code = main(["--config", str(config_file), argv[0], "--corpus", str(corpus_path), *argv[1:]])
    assert code == EXIT_CONFIG
    assert (f"bad row {corpus_path}:1: corpus format None, expected 'coqharness-corpus/3': "
            "re-run ingest to rewrite it") in caplog.text
    assert not (tmp_path / "out").exists()


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
    # an ensemble config's interactive loop leaves its strategies behind
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({"configs": [
        {"tag": "ens", "mode": "zs", "loop": "ensemble", "strategies": ["no-lemma-use"]}]}))
    code = main(["--config", str(config), "prove", "--corpus", str(ingested), "--theorem",
                 "weak.v::G_wmon", "--manifest", str(manifest), "--config-tag", "ens", "--interactive"])
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


def test_a_rerun_into_an_output_directory_leaves_no_attempts_of_configs_it_did_not_run(
    config_file, ingested, tmp_path, caplog
):
    """`report --attempts` reads every attempts file, so an eval first removes
    each one that no config of its manifest is tagged, with one warning."""
    out, manifest = tmp_path / "o", tmp_path / "m.json"
    for tags in (("zs", "lem"), ("zs",)):
        manifest.write_text(json.dumps({"configs": [{"tag": t, "mode": "zs"} for t in tags]}))
        caplog.clear()
        assert main(["--config", str(config_file), "eval", "--manifest", str(manifest),
                     "--out", str(out)]) == EXIT_OK
    assert sorted(p.name for p in (out / "attempts").iterdir()) == ["run.json", "zs.jsonl"]
    stale = out / "attempts" / "lem.jsonl"
    assert caplog.text.count("removing ") == 1
    assert f"removing {stale}: no config of this run is tagged 'lem'" in caplog.text
    assert main(["report", "--attempts", str(out / "attempts"), "--out", str(tmp_path / "r")]) \
        == EXIT_OK
    assert list(json.loads((tmp_path / "r" / "report.json").read_text())["per_config"]) == ["zs"]


def _rewrite_run(attempts, **changes):
    run = json.loads((attempts / "run.json").read_text())
    (attempts / "run.json").write_text(json.dumps({**run, **changes}))


@pytest.mark.parametrize("spoil", [
    lambda attempts: (attempts / "lem.jsonl").unlink(),
    lambda attempts: (attempts / "extra.jsonl").write_bytes((attempts / "zs.jsonl").read_bytes()),
    lambda attempts: (attempts / "run.json").write_text("[]"),
    lambda attempts: (attempts / "run.json").write_text("{"),
    lambda attempts: _rewrite_run(attempts, extra=1),
    lambda attempts: _rewrite_run(attempts, corpus_hash=None),
], ids=["config-without-file", "file-without-config", "not-an-object", "not-json", "extra-key",
        "hash-not-a-string"])
def test_report_on_attempts_its_run_file_does_not_describe_exits_2_naming_it(
    spoil, config_file, ingested, tmp_path, caplog
):
    out, manifest = tmp_path / "o", tmp_path / "m.json"
    manifest.write_text(json.dumps({"configs": [{"tag": t, "mode": "zs"} for t in ("zs", "lem")]}))
    assert main(["--config", str(config_file), "eval", "--manifest", str(manifest),
                 "--out", str(out)]) == EXIT_OK
    spoil(out / "attempts")
    caplog.clear()
    assert main(["report", "--attempts", str(out / "attempts"), "--out", str(tmp_path / "r")]) \
        == EXIT_CONFIG
    assert str(out / "attempts" / "run.json") in caplog.text and "Traceback" not in caplog.text


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


def test_an_ini_key_left_out_keeps_the_default_of_the_type_it_is_passed_to(monkeypatch):
    config = configparser.ConfigParser()
    assert decoding_from(config) == client.DecodingParams()
    session, default = build_session_config(config), SessionConfig()
    for key in ("backend", "prover_command", "timeout_per_step", "workdir"):
        assert getattr(session, key) == getattr(default, key)
    config.read_string("[provider]\nkind = http\nbase_url = http://127.0.0.1:9\nmodel_name = m\n")
    parameters = inspect.signature(client.HttpChatProvider).parameters
    monkeypatch.setenv(parameters["api_key_env"].default, "sk-default-env")
    provider = build_provider(config, replay=False, cache_dir=None)
    assert provider.rpm_limit == parameters["rpm_limit"].default
    assert provider.api_key == "sk-default-env"
    assert provider.token_budget is None


def test_eval_through_the_http_provider_and_its_replay(
    ingested, manifest_path, fixtures_dir, tmp_path, monkeypatch, chat_stub
):
    config = _http_config(tmp_path, fixtures_dir, chat_stub, monkeypatch)
    argv = ["--config", str(config), "eval", "--corpus", str(ingested),
            "--manifest", str(manifest_path)]
    assert main([*argv, "--out", str(tmp_path / "live")]) == EXIT_OK
    requests = list(chat_stub.requests)
    assert len(requests) == 5 * 4  # 5 one-shot configs x 4 test theorems
    assert {(path, auth) for path, auth, _ in requests} == {
        ("/v1/chat/completions", "Bearer sk-stub")
    }
    assert {request["model"] for _, _, request in requests} == {"stub-model"}
    assert main([*argv, "--out", str(tmp_path / "replayed"), "--replay"]) == EXIT_OK
    assert chat_stub.requests == requests
    for name in ("report.json", "report.md", "report.csv"):
        live = (tmp_path / "live" / name).read_bytes()
        assert live == (tmp_path / "replayed" / name).read_bytes(), name


@pytest.mark.parametrize("body", ["<html>502 Bad Gateway</html>", '{"choices": [{"message": {}}]}'],
                         ids=["not-json", "no-content"])
def test_a_malformed_http_reply_exits_3(
    ingested, fixtures_dir, tmp_path, monkeypatch, caplog, chat_stub, body
):
    chat_stub.reply = lambda request: body
    config = _http_config(tmp_path, fixtures_dir, chat_stub, monkeypatch)
    code = main(["--config", str(config), "prove", "--corpus", str(ingested),
                 "--theorem", "weak.v::weak_refl"])
    assert code == EXIT_PROVIDER
    assert len(chat_stub.requests) == 1
    assert "provider failure: provider error 200: malformed reply" in caplog.text


def test_a_null_http_completion_is_an_empty_attempt(
    ingested, fixtures_dir, tmp_path, monkeypatch, capsys, chat_stub
):
    chat_stub.reply = lambda request: json.dumps(
        {"choices": [{"message": {"content": None}}] * request["n"]}
    )
    config = _http_config(tmp_path, fixtures_dir, chat_stub, monkeypatch)
    code = main(["--config", str(config), "prove", "--corpus", str(ingested),
                 "--theorem", "weak.v::weak_refl"])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert '"completion_kind": "empty"' in out and '"completion_kind": "proof"' not in out
    assert out.rstrip().endswith("REJECTED")


def test_a_fault_on_the_http_request_path_is_raised_not_retried(
    ingested, fixtures_dir, tmp_path, monkeypatch, chat_stub
):
    """A bug in the harness's own request code is neither a provider failure
    (exit 3) nor retried: it surfaces as itself."""
    def broken(*args, **kwargs):
        raise TypeError("a harness bug")

    slept = []
    monkeypatch.setattr("time.sleep", slept.append)
    monkeypatch.setattr(urllib.request.OpenerDirector, "open", broken)
    config = _http_config(tmp_path, fixtures_dir, chat_stub, monkeypatch)
    with pytest.raises(TypeError, match="a harness bug"):
        main(["--config", str(config), "prove", "--corpus", str(ingested),
              "--theorem", "weak.v::weak_refl"])
    assert slept == [] and chat_stub.requests == []


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


_WEAK_REFL_STEPS = ["intros x.", "constructor.", "reflexivity.", "Qed."]


@pytest.mark.parametrize("edit, logged", [
    (lambda table, entry: entry.update(scripts=[{"steps": _WEAK_REFL_STEPS, "states": ["garbage"]}]),
     "no goal separator line found"),
    (lambda table, entry: table.update(query_default="x"), "unknown key 'query_default'"),
    (lambda table, entry: [e.update(script=e.pop("scripts")) for e in table["theorems"].values()],
     "unknown key 'script'"),  # read leniently, this table proves no theorem, as if the model failed
    (lambda table, entry: entry.update(scripts=[{"steps": _WEAK_REFL_STEPS, "state": []}]),
     "unknown key 'state'"),
    (lambda table, entry: entry.update(errors=[{"contains": "x", "mesage": "m"}]),
     "unknown key 'mesage'"),
], ids=["state", "table-key", "entry-key", "script-key", "error-rule-key"])
def test_a_malformed_mock_table_exits_2(
    config_file, ingested, manifest_path, mock_table, fixtures_dir, tmp_path, caplog, edit, logged
):
    """A bad state or an unknown key, at any level of the table, is named
    by `prove` when it opens the entry and by `eval` before any theorem runs."""
    table = json.loads(json.dumps(mock_table))
    edit(table, table["theorems"]["weak_refl"])
    bad = tmp_path / "bad-table.json"
    bad.write_text(json.dumps(table), encoding="utf-8")
    config = tmp_path / "bad-table.ini"
    config.write_text(config_file.read_text().replace(str(fixtures_dir / "mock_table.json"), str(bad)))
    code = main(["--config", str(config), "prove", "--theorem", "weak.v::weak_refl"])
    assert code == EXIT_CONFIG
    assert f"bad mock table {bad}: {logged}" in caplog.text
    caplog.clear()
    out = tmp_path / "o"
    code = main(["--config", str(config), "eval", "--manifest", str(manifest_path), "--out", str(out)])
    assert code == EXIT_CONFIG  # every entry compiles before any theorem runs
    assert f"bad mock table {bad}: {logged}" in caplog.text
    assert "Traceback" not in caplog.text and not out.exists()


def test_prove_builds_few_sentences_and_no_prelude_states(long_project, tmp_path, monkeypatch, capsys):
    """An fs-sim prove on the 3 x 200 project builds the sentences it reads,
    not the corpus's, and its mock prover builds no proof state: a one-shot
    prove reads none, and its target's entry holds none."""
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

    built = Counter()
    sentence_init, state_init = Sentence.__init__, ProofState.__init__
    replay = mockprover.MockSession.replay

    def count(kind, init):
        def counted(self, *args):
            built[kind] += 1
            init(self, *args)
        return counted

    def counted_replay(session, sentences, first_index=0):
        built["replayed"] += len(sentences)
        return replay(session, sentences, first_index)

    monkeypatch.setattr(Sentence, "__init__", count("sentence", sentence_init))
    monkeypatch.setattr(ProofState, "__init__", count("state", state_init))
    monkeypatch.setattr(mockprover.MockSession, "replay", counted_replay)
    code = main(["--config", str(config), "prove", "--theorem", target.id, "--mode", "fs-sim"])
    assert code == EXIT_OK and capsys.readouterr().out.strip().endswith("ACCEPTED")
    assert built["replayed"] == target.statement_index  # the whole prelude was replayed
    assert built["state"] == 0
    assert target.statement_index < built["sentence"] < held // 2


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


@pytest.mark.parametrize("entry, logged", [
    ({"max_turn": 3}, "unknown key 'max_turn'"),
    ({"n": 2, "retrieval": "lexical"}, "unknown key 'n', 'retrieval'"),
    ({"decoding": {"temprature": 0.5}}, "decoding: unknown key 'temprature'"),
])
def test_an_unknown_manifest_key_exits_2(config_file, ingested, tmp_path, caplog, entry, logged):
    """A misspelt key is not ignored: the config it names would run with a
    default in its place."""
    manifest = _manifest(tmp_path, [
        {"tag": "zs", "mode": "zs"},
        {"tag": "i", "mode": "zs", "loop": "interactive", **entry},
    ])
    out = tmp_path / "o"
    code = main(["--config", str(config_file), "eval", "--corpus", str(ingested),
                 "--manifest", str(manifest), "--out", str(out)])
    assert code == EXIT_CONFIG
    assert f"bad manifest entry 'i': {logged}" in caplog.text
    assert not (out / "report.json").exists()
    code = main(["--config", str(config_file), "prove", "--corpus", str(ingested),
                 "--theorem", "weak.v::weak_refl", "--manifest", str(manifest),
                 "--config-tag", "zs"])
    assert code == EXIT_CONFIG
    assert caplog.text.count(f"bad manifest entry 'i': {logged}") == 2


@pytest.mark.parametrize("entry, logged", [
    ({"loop": "interactive", "wall_clock": "10"}, "'w': wall_clock must be float | None, not '10'"),
    ({"tag": 7}, "7: tag must be str, not 7"),
    ({"max_queries": "3"}, "'w': max_queries must be int, not '3'"),
    ({"n_lemmas": "2"}, "'w': n_lemmas must be int, not '2'"),
    ({"seed": True}, "'w': seed must be int, not True"),
    ({"mode": "fs-rand", "k_shots": -2}, "'w': k_shots must be 0 in zero-shot modes, > 0 in others, not -2"),
    ({"decoding": {"temperature": "hot"}}, "'w': decoding: temperature must be float, not 'hot'"),
    ({"decoding": {"n": 2.0}}, "'w': decoding: n must be int, not 2.0"),
    ({"decoding": [1]}, "'w': decoding must be DecodingParams, not [1]"),
    ({"loop": "ensemble", "strategies": "verbose-stepwise"},
     "'w': strategies must be tuple[str, ...], not 'verbose-stepwise'"),
], ids=["wall_clock", "tag", "max_queries", "n_lemmas", "seed-bool", "k_shots", "temperature",
        "n-float", "decoding", "strategies"])
def test_a_manifest_value_of_the_wrong_type_exits_2(
    config_file, ingested, tmp_path, caplog, entry, logged
):
    """A value of the wrong JSON type, a bool where a number belongs
    included, is named with its config before any theorem runs."""
    manifest = _manifest(tmp_path, [{"tag": "zs", "mode": "zs"}, {"tag": "w", "mode": "zs", **entry}])
    out = tmp_path / "o"
    code = main(["--config", str(config_file), "eval", "--corpus", str(ingested),
                 "--manifest", str(manifest), "--out", str(out)])
    assert code == EXIT_CONFIG
    assert f"bad manifest entry {logged}" in caplog.text
    assert not out.exists()
    code = main(["--config", str(config_file), "prove", "--corpus", str(ingested),
                 "--theorem", "weak.v::weak_refl", "--manifest", str(manifest),
                 "--config-tag", "zs"])
    assert code == EXIT_CONFIG
    assert caplog.text.count(f"bad manifest entry {logged}") == 2


def test_a_manifest_entry_is_its_own_keys_over_the_run_config_defaults(
    config_file, ingested, tmp_path, capsys
):
    defaults = client.DecodingParams(n=3)
    assert run_config_from_dict({"tag": "t", "mode": "zs"}, defaults) == \
        RunConfig(tag="t", mode="zs", decoding=defaults)
    entry = {"tag": "e", "mode": "zs", "loop": "ensemble", "retrieval_mode": "lexical",
             "strategies": ["verbose-stepwise"], "decoding": {"n": 2}, "max_turns": 3}
    assert run_config_from_dict(entry, defaults) == RunConfig(
        tag="e", mode="zs", loop="ensemble", strategies=("verbose-stepwise",),
        decoding=replace(defaults, n=2), max_turns=3)
    manifest = _manifest(tmp_path, [entry])
    code = main(["--config", str(config_file), "prove", "--corpus", str(ingested),
                 "--theorem", "weak.v::weak_refl", "--manifest", str(manifest),
                 "--config-tag", "e"])
    assert code == EXIT_OK
    assert capsys.readouterr().out.count('"config_tag": "e"') == 2  # its own n, one per variant


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


@pytest.fixture()
def stale_index_config(config_file, fixtures_dir, tmp_path) -> Path:
    """A config naming an index built over another split: it ranks only ids
    that are no longer train records, so `weak.v::G_wmon`'s similarity
    prompts have no examples."""
    stale = tmp_path / "stale"
    stale.mkdir()
    assert main(["--config", str(config_file), "ingest", "--root", str(fixtures_dir / "project"),
                 "--out", str(stale / "corpus.jsonl"), "--split", "by_index"]) == EXIT_OK
    assert main(["--config", str(config_file), "index", "--corpus", str(stale / "corpus.jsonl"),
                 "--out", str(stale / "index.json")]) == EXIT_OK
    config = tmp_path / "stale.ini"
    config.write_text(config_file.read_text().replace(
        "[paths]\n", f"[paths]\nindex_file = {stale}/index.json\n"))
    return config


@pytest.mark.parametrize("tag", ["fs-sim", "fs+lem"])
def test_prove_with_a_stale_index_and_no_examples_exit_2(
    stale_index_config, ingested, manifest_path, caplog, tag
):
    """A prompt with no examples is a config error, not a crash."""
    code = main(["--config", str(stale_index_config), "prove", "--corpus", str(ingested),
                 "--theorem", "weak.v::G_wmon", "--manifest", str(manifest_path),
                 "--config-tag", tag])
    assert code == EXIT_CONFIG
    assert f"{tag} requires few-shot examples" in caplog.text
    assert f"weak.v::G_wmon, config '{tag}': {tag} requires few-shot examples" in caplog.text


@pytest.mark.parametrize("workers", [1, 4])
def test_eval_with_a_stale_index_and_no_examples_exit_2(
    stale_index_config, ingested, manifest_path, tmp_path, caplog, workers
):
    """The same prompt aborts `eval` too: no attempt records it as the model's failure."""
    out = tmp_path / "o"
    code = main(["--config", str(stale_index_config), "eval", "--corpus", str(ingested),
                 "--manifest", str(manifest_path), "--out", str(out),
                 "--workers", str(workers)])
    assert code == EXIT_CONFIG
    assert "fs-sim requires few-shot examples" in caplog.text
    assert "weak.v::G_wmon, config 'fs-sim': fs-sim requires few-shot examples" in caplog.text
    assert not (out / "report.json").exists()


def test_a_template_file_missing_a_section_exits_2(
    config_file, ingested, manifest_path, tmp_path, caplog
):
    """A +lem config's prompt needs [user.target_with_lemmas]: `eval`
    exits 2 without it and writes no report."""
    sections = TemplateSet.load().sections
    del sections["user.target_with_lemmas"]
    templates = tmp_path / "templates.txt"
    templates.write_text("".join(f"[{name}]\n{body}\n" for name, body in sections.items()))
    config = tmp_path / "templates.ini"
    config.write_text(config_file.read_text().replace(
        "[paths]\n", f"[paths]\ntemplate_file = {templates}\n"))
    out = tmp_path / "o"
    code = main(["--config", str(config), "eval", "--corpus", str(ingested),
                 "--manifest", str(manifest_path), "--out", str(out)])
    assert code == EXIT_CONFIG
    assert "missing template section [user.target_with_lemmas]" in caplog.text
    assert not (out / "report.json").exists()


def test_eval_prover_death_during_a_query_exit_4(
    config_file, ingested, fixtures_dir, tmp_path, monkeypatch, caplog
):
    """A prover that dies while answering a QUERY is the harness's failure,
    not the query's output."""

    def dying_query(self, command, argument):
        raise SessionDead("prover exited; output so far: ''")

    monkeypatch.setattr(mockprover.MockSession, "query", dying_query)
    script = tmp_path / "query_script.json"
    script.write_text(json.dumps({
        "default": "(* nothing scripted *)",
        "entries": [{"theorem": "G_wmon", "completions": ["QUERY Print G"]}],
    }))
    config = tmp_path / "query.ini"
    config.write_text(config_file.read_text().replace(
        f"{fixtures_dir}/provider_script.json", str(script)))
    manifest = _manifest(tmp_path, [
        {"tag": "inter", "mode": "zs", "loop": "interactive", "max_turns": 3},
    ])
    out = tmp_path / "o"
    code = main(["--config", str(config), "eval", "--corpus", str(ingested),
                 "--manifest", str(manifest), "--out", str(out)])
    assert code == EXIT_PROVER
    assert "prover unavailable: prover exited" in caplog.text
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("case", ["ingest-out", "index-out", "template", "patterns"])
def test_an_unreadable_or_unwritable_path_exits_2(
    config_file, ingested, fixtures_dir, manifest_path, tmp_path, caplog, case
):
    """A path that cannot be read or written is a config error naming it."""
    missing = tmp_path / "no-such-dir" / "file"
    config, argv = config_file, ["eval", "--corpus", str(ingested),
                                 "--manifest", str(manifest_path), "--out", str(tmp_path / "o")]
    if case == "ingest-out":
        argv = ["ingest", "--root", str(fixtures_dir / "project"), "--out", str(missing)]
    elif case == "index-out":
        argv = ["index", "--corpus", str(ingested), "--out", str(missing)]
    else:
        key = {"template": "template_file", "patterns": "classifier_patterns"}[case]
        config = tmp_path / "paths.ini"
        config.write_text(config_file.read_text().replace(
            "[paths]\n", f"[paths]\n{key} = {missing}\n"))
    code = main(["--config", str(config), *argv])
    assert code == EXIT_CONFIG
    assert f"No such file or directory: '{missing}'" in caplog.text
    assert "Traceback" not in caplog.text
    assert not (tmp_path / "o" / "report.json").exists()


@pytest.mark.parametrize("content, detail", [
    ({"rules": [{"patterns": ["x"]}]}, "'category'"),
    ({"rules": [{"category": "resource", "patterns": ["("]}]}, "missing ), unterminated"),
    ([], "list indices must be integers"),
    ("{", "Expecting property name"),
], ids=["no-category", "bad-regex", "top-level-list", "not-json"])
@pytest.mark.parametrize("command", ["eval", "prove"])
def test_bad_classifier_patterns_exit_2(
    config_file, ingested, manifest_path, tmp_path, monkeypatch, caplog, content, detail,
    command,
):
    """A patterns file that does not decode or has the wrong shape exits 2
    before any theorem is proved."""
    patterns = tmp_path / "patterns.json"
    patterns.write_text(content if isinstance(content, str) else json.dumps(content))
    config = tmp_path / "patterns.ini"
    config.write_text(config_file.read_text().replace(
        "[paths]\n", f"[paths]\nclassifier_patterns = {patterns}\n"))

    def never(*args):
        raise AssertionError("proved a theorem with unusable classifier patterns")

    monkeypatch.setattr(coqharness.agent, "prove", never)
    monkeypatch.setattr(coqharness.evaluate, "prove", never)
    argv = {
        "eval": ["eval", "--manifest", str(manifest_path), "--out", str(tmp_path / "o")],
        "prove": ["prove", "--theorem", "weak.v::weak_refl"],
    }[command]
    code = main(["--config", str(config), *argv, "--corpus", str(ingested)])
    assert code == EXIT_CONFIG
    assert f"bad classifier patterns {patterns}: " in caplog.text and detail in caplog.text
    assert "Traceback" not in caplog.text


def test_ingest_groups_its_records_once(config_file, fixtures_dir, tmp_path, monkeypatch):
    """Each record is sorted into its file's order once per `ingest`: the
    unsplit corpus is never grouped, only the split one that is saved."""
    sorted_records = []
    in_file_order = corpus_mod._IN_FILE_ORDER

    def counted(record):
        sorted_records.append(record.id)
        return in_file_order(record)

    monkeypatch.setattr(corpus_mod, "_IN_FILE_ORDER", counted)
    out = tmp_path / "once.jsonl"
    assert main(["--config", str(config_file), "ingest", "--root", str(fixtures_dir / "project"),
                 "--out", str(out)]) == EXIT_OK
    monkeypatch.undo()
    assert sorted(sorted_records) == sorted(r.id for r in load_corpus(out).records)


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


_GOOD_ROW = ('{"theorem_id": "f.v::t", "config_tag": "zs", "variant_id": "base", "candidate_index": 1,'
             ' "proof_script": "", "accepted": false, "failing_step": null, "turns": [],'
             ' "completion_kind": "malformed"')


@pytest.mark.parametrize("bad, logged", [
    ("[1, 2]", "not a JSON object: [1, 2]"),
    ('{"theorem_id": "f.v::t"}', "missing"),
    (_GOOD_ROW.replace(' "turns": [],', '') + "}", "missing key 'turns'"),
    ("{not json", "Expecting property name"),
    ("\udcff", "can't decode byte 0xff"),
    (_GOOD_ROW + ', "category": "bogus"}', "unknown category 'bogus'"),
    ('{"accepted": "false"}', "accepted must be bool, not 'false'"),
    ('{"candidate_index": "x"}', "candidate_index must be int, not 'x'"),
    ('{"candidate_index": true}', "candidate_index must be int, not True"),
    ('{"failing_step": [1, "auto."]}', "failing_step must be tuple[int, str, str] | None"),
    ('{"failing_step": ["1", "auto.", "m"]}', "failing_step must be tuple[int, str, str] | None"),
    ('{"refusal_text": 0}', "refusal_text must be str | None, not 0"),
    (_GOOD_ROW.replace('"turns": []', '"turns": [{"prompt_delta": 1, "completion": ["x"]}]') + "}",
     "prompt_delta must be str, not 1"),
    (_GOOD_ROW.replace('"turns": []', '"turns": [{"prompt_delta": "p", "completion": "c"}, '
                                      '{"prompt_delta": "p", "completion": "c", "tool_call": []}]') + "}",
     "turns[1]: unknown key 'tool_call'"),
    (_GOOD_ROW + ', "x": 1, "acepted": true}', "unknown key 'acepted', 'x'"),
])
def test_report_on_a_bad_attempt_row_exits_2_naming_it(tmp_path, caplog, bad, logged):
    attempts = tmp_path / "attempts"
    attempts.mkdir()
    row = {
        "theorem_id": "f.v::t", "config_tag": "zs", "variant_id": "base",
        "candidate_index": 0, "proof_script": "Proof. auto. Qed.", "accepted": True,
        "failing_step": None, "turns": [], "completion_kind": "proof",
    }
    (attempts / "zs.jsonl").write_text(json.dumps(row) + "\n\n" + bad + "\n",
                                       encoding="utf-8", errors="surrogateescape")
    code = main(["report", "--attempts", str(attempts), "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    assert f"bad row {attempts / 'zs.jsonl'}:3: " in caplog.text
    assert logged in caplog.text and "Traceback" not in caplog.text


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
    [('{"format": "nope"}', "index format 'nope', expected 'coqharness-index/3'"),
     ('{"format": "coqharness-index/1", "space": "proof_text", "vectors": {}}',
      "index format 'coqharness-index/1', expected 'coqharness-index/3': re-run index"),
     ('{"format": "coqharness-index/2", "space": "proof_text", "feature_dim": 4096, '
      '"n_docs": 0, "df": {}, "postings": {}, "norms": {}}',
      "index format 'coqharness-index/2', expected 'coqharness-index/3': re-run index"),
     ({"postings": None}, "'postings'"),
     ({"df": {}}, "unknown key 'df'"),
     ({"norms": []}, "a field has the wrong type"),
     ({"postings": {"auto": [["weak.v::weak_refl"]]}}, "not enough values to unpack"),
     ({"norms": {}}, "has no norm or no weight"),
     ({"postings": {"auto": [["relations.v::comp_incl", 1.5]] * 2}},
      "the posting list of 'auto' names an id twice"),
     ('{"format": "coqharness-index/3", "space"', "Expecting")],
    ids=["wrong-format", "format-1", "format-2", "no-postings", "unknown-key", "wrong-type",
         "short-pair", "no-norms", "repeated-id", "truncated"],
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
     ("a.v::a5", EXIT_OK),       # ... or a lemma of the prelude, which opens no entry
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
        # a.v's entries carry initial states: a prove parses its target's only
        assert opened == {"a3"}
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
    row = next(i for i, line in enumerate(lines) if '["weak.v::weak_refl"' in line)
    broken = json.loads(lines[row])
    position = next(k for k, entry in enumerate(broken["records"], start=1)
                    if entry[0] == "weak.v::weak_refl")
    del broken["records"][position - 1][4]  # its proof_end
    lines[row] = json.dumps(broken, ensure_ascii=False) + "\n"
    ingested.write_text("".join(lines), encoding="utf-8")
    code = main(["--config", str(config_file), "prove", "--theorem", "weak.v::weak_refl"])
    assert code == EXIT_CONFIG
    assert f"bad row {ingested}:{row + 1}: record {position}: malformed record" in caplog.text


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


_PROVER = "\n[prover]\nbackend = mock\nmock_table = {fixtures}/mock_table.json\n"
_PROVE = ["prove", "--corpus", "{corpus}", "--theorem", "weak.v::weak_refl"]
_EVAL = ["eval", "--corpus", "{corpus}", "--out", "{tmp}/out"]


@pytest.mark.parametrize("files, argv, logged", [
    ({}, ["--config", "{tmp}/missing.ini", "index", "--out", "{tmp}/i.json"],
     "config file not found: {tmp}/missing.ini"),
    ({"d/c.ini": "[paths]\n"}, ["--config", "{tmp}/d", "index", "--out", "{tmp}/i.json"],
     "cannot read config {tmp}/d: Is a directory"),
    ({"c.ini": "[provider]\nkind = scripted\n" + _PROVER}, ["--config", "{tmp}/c.ini", *_PROVE],
     "provider.script_file required for the scripted provider"),
    ({"c.ini": "[provider]\nscript_file = {tmp}/s.json\n" + _PROVER, "s.json": "[]"},
     ["--config", "{tmp}/c.ini", *_PROVE],
     "bad provider script: not a JSON object: []"),
    ({"c.ini": "[provider]\nscript_file = {tmp}/s.json\n" + _PROVER,
      "s.json": '{{"entries": [{{"theorem_id": "t", "completions": ["a"]}}]}}'},
     ["--config", "{tmp}/c.ini", *_EVAL, "--manifest", "{fixtures}/manifest.json"],
     "bad provider script: entries[0]: unknown key 'theorem_id'"),
    ({"c.ini": "[provider]\nkind = http\nmodel_name = m\n" + _PROVER},
     ["--config", "{tmp}/c.ini", *_PROVE], "provider.base_url and provider.model_name are required"),
    ({"c.ini": "[provider]\nkind = pigeon\n" + _PROVER}, ["--config", "{tmp}/c.ini", *_PROVE],
     "unknown provider kind 'pigeon'"),
    ({"m.json": "{{"}, ["--config", "{config}", *_EVAL, "--manifest", "{tmp}/m.json"],
     "cannot read manifest {tmp}/m.json: "),
    ({"m.json": '{{"configs": []}}'}, ["--config", "{config}", *_EVAL, "--manifest", "{tmp}/m.json"],
     "bad manifest {tmp}/m.json: no configs"),
    ({"m.json": "[]"}, ["--config", "{config}", *_EVAL, "--manifest", "{tmp}/m.json"],
     "bad manifest {tmp}/m.json: not a JSON object: []"),
    ({"m.json": "{{}}"}, ["--config", "{config}", *_EVAL, "--manifest", "{tmp}/m.json"],
     "bad manifest {tmp}/m.json: missing key 'configs'"),
    ({"m.json": '{{"configs": [{{"tag": "zs", "mode": "zs"}}, 7]}}'},
     ["--config", "{config}", *_EVAL, "--manifest", "{tmp}/m.json"],
     "bad manifest {tmp}/m.json: configs must be list[dict], not [{{'tag': 'zs', 'mode': 'zs'}}, 7]"),
    ({"m.json": '{{"configs": [{{"tag": "zs", "mode": "zs"}}], "defaults": {{"n": 2}}}}'},
     ["--config", "{config}", *_EVAL, "--manifest", "{tmp}/m.json"],
     "bad manifest {tmp}/m.json: unknown key 'defaults'"),
    ({"c.ini": "[provider]\nscript_file = {tmp}/s.json\n" + _PROVER,
      "s.json": '{{"entries": [], "defualt": "x"}}'}, ["--config", "{tmp}/c.ini", *_PROVE],
     "bad provider script: unknown key 'defualt'"),
    ({}, ["--config", "{config}", "index", "--corpus", "{all_test}", "--out", "{tmp}/i.json"],
     "corpus has no train records; run ingest/split first"),
    ({}, ["--config", "{config}", *_PROVE, "--manifest", "{fixtures}/manifest.json",
          "--config-tag", "nope"], "config tag 'nope' not in manifest"),
    ({"attempts/notes.txt": ""}, ["--config", "{config}", "report", "--attempts", "{tmp}/attempts"],
     "no attempt files under {tmp}/attempts"),
    ({}, ["--config", "{config}", "ingest", "--root", "{fixtures}/project", "--out", "{tmp}/c.jsonl",
          "--test-fraction", "1.5"], "test_fraction must lie in (0, 1)"),
    ({"one/a.v": "Lemma a : True.\nProof. exact I. Qed.\nLemma b : True.\nProof. exact I. Qed.\n"},
     ["--config", "{config}", "ingest", "--root", "{tmp}/one", "--out", "{tmp}/c.jsonl",
      "--split", "by_file"], "by_file split needs at least 2 files with eligible records"),
    *[({"m.json": '{{"configs": [{{"tag": "w", "mode": "zs", "loop": "interactive", %s}}]}}' % value},
       ["--config", "{config}", *_EVAL, "--manifest", "{tmp}/m.json"],
       f"bad manifest entry 'w': {logged}")
      for value, logged in [('"wall_clock": -1', "wall_clock must be > 0"),
                            ('"wall_clock": 0', "wall_clock must be > 0"),
                            ('"max_queries": -1', "max_queries must be >= 0"),
                            ('"max_prompt_chars": 0', "max_prompt_chars must be > 0")]],
    *[({"m.json": '{{"configs": [{{"tag": "w", "mode": "zs", "loop": "%s", '
                  '"strategies": ["no-lemma-use"]}}]}}' % loop},
       ["--config", "{config}", *_EVAL, "--manifest", "{tmp}/m.json"],
       f"bad manifest entry 'w': strategies are for the ensemble loop, not {loop}")
      for loop in ("one_shot", "repair", "interactive")],
    ({"c.ini": "[provider]\nscript_file = {fixtures}/provider_script.json\n"
               "[prover]\nbackend = bogus\n"},
     ["--config", "{tmp}/c.ini", *_PROVE], "unknown backend 'bogus'"),
    ({"c.jsonl": '{{"format": "coqharness-corpus/3", "root": "r"}}\n\n[1]\n'},
     ["--config", "{config}", "eval", "--corpus", "{tmp}/c.jsonl", "--manifest",
      "{fixtures}/manifest.json", "--out", "{tmp}/out"], "bad row {tmp}/c.jsonl:3: not a JSON object"),
    *[({"m.json": '{{"configs": [{{"tag": "zs", "mode": "zs"}}, {{"tag": %s, "mode": "zs"}}]}}' % tag},
       ["--config", "{config}", *_EVAL, "--manifest", "{tmp}/m.json"],
       f"bad manifest entry {shown}: a tag must be a file name")
      for tag, shown in [('"../escaped"', "'../escaped'"), ('""', "''"), ('"."', "'.'"),
                         ('".."', "'..'"), ('"a\\u0000b"', "'a\\x00b'")]],
    *[({"m.json": '{{"configs": [{{"tag": "zs", "mode": "zs"}}, {{"tag": "zs", "mode": "fs-sim"}}]}}'},
       ["--config", "{config}", *argv, "--manifest", "{tmp}/m.json"], "bad manifest entry 'zs': repeated tag")
      for argv in (_EVAL, [*_PROVE, "--config-tag", "zs"])],
    *[({"c.ini": "[provider]\nscript_file = {fixtures}/provider_script.json\n" + ini + _PROVER + tail},
       ["--config", "{tmp}/c.ini", *_PROVE], "bad config {tmp}/c.ini: " + logged)
      for ini, tail, logged in [
          ("", "timeout_per_stp = 5\n", "unknown key 'timeout_per_stp' in [prover]"),
          ("", "[defaults]\ntemprature = 0.2\nn = 1\n", "unknown key 'temprature' in [defaults]"),
          ("default = x\n", "", "unknown key 'default' in [provider]"),
          ("", "[provers]\nbackend = mock\n", "unknown section [provers]"),
          ("", "[DEFAULT]\nroot = /tmp\n", "unknown key 'root' in [DEFAULT]"),
          ("", "backend = real\n", "While reading from '{tmp}/c.ini' [line  7]: "
                                    "option 'backend' in section 'prover' already exists"),
          ("", "workdir = /tmp/100%\n", "'%' must be followed by '%' or '(', found: '%'")]],
    *[({"c.ini": "[provider]\nscript_file = {fixtures}/provider_script.json\n" + _PROVER + ini},
       ["--config", "{tmp}/c.ini", *_EVAL, "--manifest", "{fixtures}/manifest.json"], logged)
      for ini, logged in [
          ("[defaults]\ntemperature = nan\n", "temperature must be finite and >= 0, not nan"),
          ("[defaults]\npresence_penalty = inf\n", "presence_penalty must be finite, not inf"),
          ("timeout_per_step = inf\n", "timeout_per_step must be finite and > 0, not inf"),
          ("timeout_per_step = nan\n", "timeout_per_step must be finite and > 0, not nan")]],
    *[({"c.ini": "[provider]\nkind = http\nmodel_name = m\nbase_url = %s\n" % url + _PROVER},
       ["--config", "{tmp}/c.ini", *_EVAL, "--manifest", "{fixtures}/manifest.json"],
       f"provider.base_url must be an http:// or https:// URL, not '{url}'")
      for url in ("api.example.com/v1", "file:///tmp/v1")],
    ({"c.ini": "[provider]\nkind = http\nmodel_name = m\nbase_url = http://127.0.0.1:9/v1\n"
               "rpm_limit = nan\n" + _PROVER},
     ["--config", "{tmp}/c.ini", *_EVAL, "--manifest", "{fixtures}/manifest.json"],
     "rpm_limit must be a number, not nan"),
    ({"m.json": '{{"configs": [{{"tag": "w", "mode": "zs", "decoding": {{"temperature": NaN}}}}]}}'},
     ["--config", "{config}", *_EVAL, "--manifest", "{tmp}/m.json"],
     "bad manifest entry 'w': decoding: temperature must be finite and >= 0, not nan"),
], ids=["config-file", "config-directory", "script-file", "provider-script", "provider-script-entry", "http",
        "provider-kind", "manifest-json", "manifest-configs", "manifest-list", "manifest-empty",
        "manifest-entry-not-object", "manifest-key",
        "script-key", "index-train",
        "config-tag", "report-attempts", "test-fraction", "by-file", "wall-clock-negative",
        "wall-clock-zero", "max-queries", "max-prompt-chars",
        "strategies-one-shot", "strategies-repair", "strategies-interactive", "prover-backend",
        "corpus-row", "tag-escapes", "tag-empty", "tag-dot", "tag-dot-dot", "tag-nul",
        "tag-repeated-eval", "tag-repeated-prove", "ini-key", "ini-defaults-key",
        "ini-removed-key", "ini-section", "ini-default-section", "ini-repeated-key",
        "ini-percent", "ini-temperature-nan", "ini-presence-penalty-inf", "ini-timeout-inf",
        "ini-timeout-nan", "ini-base-url-scheme", "ini-base-url-file", "ini-rpm-nan",
        "manifest-temperature-nan"])
def test_a_config_error_exits_2_with_its_message(
    config_file, ingested, fixtures_dir, tmp_path, caplog, files, argv, logged
):
    places = {"tmp": tmp_path, "fixtures": fixtures_dir, "config": config_file, "corpus": ingested}
    if "{all_test}" in argv:
        places["all_test"] = _ingest_with_test_ids(config_file, fixtures_dir, tmp_path, FIXTURE_IDS)
    for name, text in files.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(text.format(**places))
    assert main([arg.format(**places) for arg in argv]) == EXIT_CONFIG
    assert logged.format(**places) in caplog.text


def test_a_prelude_with_proved_definitions_and_instances_proves_and_evals(tmp_path, capsys):
    """A Definition and an Instance proved by tactics before the target
    replay in its prelude, so `prove` accepts and `eval` reports no error."""
    project = tmp_path / "project"
    project.mkdir()
    (project / "m.v").write_text(
        "Definition two : nat.\nProof. exact 2. Defined.\n\n"
        "Class Pointed (A : Type) := point : A.\n"
        "Instance nat_pointed : Pointed nat.\nProof. exact 0. Qed.\n\n"
        "Lemma base : True.\nProof. exact I. Qed.\n\n"
        "Lemma two_is_two : two = 2.\nProof. reflexivity. Qed.\n",
        encoding="utf-8")
    table = {"theorems": {"base": {"scripts": [["exact I.", "Qed."]]},
                          "two_is_two": {"scripts": [["reflexivity.", "Qed."]]}}}
    script = {"default": "no idea",
              "entries": [{"theorem": "two_is_two", "completions": ["Proof.\nreflexivity.\nQed."]}]}
    manifest = {"configs": [{"tag": "zs", "mode": "zs", "decoding": {"n": 1}, "seed": 1}]}
    for name, payload in (("table", table), ("script", script), ("manifest", manifest)):
        (tmp_path / f"{name}.json").write_text(json.dumps(payload), encoding="utf-8")
    config = tmp_path / "prelude.ini"
    config.write_text(f"""
[paths]
cache_dir = {tmp_path}/cache
corpus_file = {tmp_path}/corpus.jsonl

[provider]
kind = scripted
script_file = {tmp_path}/script.json

[prover]
backend = mock
mock_table = {tmp_path}/table.json
""")
    assert main(["--config", str(config), "ingest", "--root", str(project), "--split", "explicit",
                 "--explicit-test", "m.v::two_is_two", "--out", str(tmp_path / "corpus.jsonl")]) \
        == EXIT_OK
    capsys.readouterr()
    assert main(["--config", str(config), "prove", "--theorem", "m.v::two_is_two"]) == EXIT_OK
    assert capsys.readouterr().out.splitlines()[-1] == "ACCEPTED"
    out = tmp_path / "out"
    assert main(["--config", str(config), "eval", "--manifest", str(tmp_path / "manifest.json"),
                 "--out", str(out)]) == EXIT_OK
    [attempt] = map(json.loads, (out / "attempts" / "zs.jsonl").read_text().splitlines())
    assert attempt["theorem_id"] == "m.v::two_is_two" and attempt["accepted"]
