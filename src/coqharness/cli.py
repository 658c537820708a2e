"""Command-line entry point.

One binary, five subcommands (ingest, index, prove, eval, report) sharing an
INI config file. Flags override config values; the effective configuration
is echoed into report.json. Exit codes: 0 success, 2 config error,
3 provider error, 4 prover unavailable. Logs go to stderr, data to files.
"""

from __future__ import annotations

import argparse
import configparser
import json
import logging
import os
import re
import sys
from dataclasses import replace
from pathlib import Path

from . import agent, client, corpus as corpus_mod, evaluate, retriever
from .driver import PreludeError, SessionConfig, SessionDead, SpawnFailure
from .mockprover import compile_behavior_table
from .prompting import PromptError, TemplateSet

log = logging.getLogger("coqharness")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PROVIDER = 3
EXIT_PROVER = 4

_SECRET_KEY_RE = re.compile(r"(_key|_token)$")
_ENV_RE = re.compile(r"\$\{([A-Za-z_][A-Za-z0-9_]*)\}")


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_CONFIG):
        super().__init__(message)
        self.code = code


def load_config(path: str | None) -> configparser.ConfigParser:
    parser = configparser.ConfigParser()
    if path:
        if not Path(path).exists():
            raise CliError(f"config file not found: {path}")
        parser.read(path, encoding="utf-8")
    # environment interpolation, for secret-bearing keys only
    for section in parser.sections():
        for key, value in parser.items(section):
            if _SECRET_KEY_RE.search(key) and "${" in value:
                parser.set(section, key, _ENV_RE.sub(
                    lambda m: os.environ.get(m.group(1), ""), value))
    return parser


def _get(config: configparser.ConfigParser, section: str, key: str, fallback=None):
    if config.has_option(section, key):
        value = config.get(section, key)
        return value if value != "" else fallback
    return fallback


def build_provider(config: configparser.ConfigParser, replay: bool, cache_dir: str | None):
    cache_dir = cache_dir or _get(config, "paths", "cache_dir")
    cache = client.TranscriptCache(cache_dir) if cache_dir else None
    if replay:
        if cache is None:
            raise CliError("--replay needs a cache_dir")
        return client.CachingProvider(None, cache, replay_only=True)

    kind = _get(config, "provider", "kind", "scripted")
    if kind == "scripted":
        script_file = _get(config, "provider", "script_file")
        if not script_file:
            raise CliError("provider.script_file required for the scripted provider")
        try:
            inner = client.ScriptedProvider(script_file, _get(config, "provider", "default"))
        except client.ScriptParseError as exc:
            raise CliError(f"bad provider script: {exc}") from exc
    elif kind == "http":
        base_url = _get(config, "provider", "base_url")
        model_name = _get(config, "provider", "model_name")
        if not base_url or not model_name:
            raise CliError("provider.base_url and provider.model_name are required")
        token_budget = _get(config, "provider", "token_budget")
        inner = client.HttpChatProvider(
            base_url,
            model_name,
            api_key_env=_get(config, "provider", "api_key_env", "COQHARNESS_API_KEY"),
            rpm_limit=float(_get(config, "provider", "rpm_limit", "60")),
            token_budget=int(token_budget) if token_budget else None,
        )
    else:
        raise CliError(f"unknown provider kind {kind!r}")
    if cache is not None:
        return client.CachingProvider(inner, cache)
    return inner


def build_session_config(
    config: configparser.ConfigParser, whole_table: bool = True
) -> SessionConfig:
    """The prover settings. A mock table is read here, once per command; its
    theorem entries are compiled here too with `whole_table`, else on first use."""
    backend = _get(config, "prover", "backend", "mock")
    mock_table = _get(config, "prover", "mock_table")
    if backend == "mock":
        try:
            mock_table = compile_behavior_table(mock_table)
        except (OSError, ValueError, KeyError, TypeError, AttributeError, re.error) as exc:
            raise CliError(f"bad mock table {mock_table}: {exc}") from exc
        if whole_table:  # a malformed entry raises a ValueError naming the table: exit 2
            for name in mock_table.raw_theorems:
                mock_table.entry(name)
    return SessionConfig(
        backend=backend,
        prover_command=_get(config, "prover", "prover_command", "coqtop -emacs -q"),
        timeout_per_step=float(_get(config, "prover", "timeout_per_step", "20")),
        workdir=_get(config, "prover", "workdir", "."),
        mock_table=mock_table,
    )


def decoding_from(config: configparser.ConfigParser, section: str = "defaults") -> client.DecodingParams:
    return client.DecodingParams(
        temperature=float(_get(config, section, "temperature", client.DEFAULT_TEMPERATURE)),
        presence_penalty=float(
            _get(config, section, "presence_penalty", client.DEFAULT_PRESENCE_PENALTY)
        ),
        n=int(_get(config, section, "n", client.DEFAULT_N)),
        max_tokens=int(_get(config, section, "max_tokens", client.DEFAULT_MAX_TOKENS)),
    )


def run_config_from_dict(raw: dict, defaults: client.DecodingParams) -> agent.RunConfig:
    decoding = replace(defaults, **raw.get("decoding", {}))
    return agent.RunConfig(
        tag=raw["tag"],
        mode=raw["mode"],
        loop=raw.get("loop", "one_shot"),
        k_shots=raw.get("k_shots"),
        n_lemmas=raw.get("n_lemmas", agent.DEFAULT_N_LEMMAS),
        decoding=decoding,
        seed=raw.get("seed", 0),
        repair_rounds=raw.get("repair_rounds", agent.DEFAULT_REPAIR_ROUNDS),
        strategies=tuple(raw.get("strategies", ())),
        max_turns=raw.get("max_turns", agent.DEFAULT_MAX_TURNS),
        max_queries=raw.get("max_queries", agent.DEFAULT_MAX_QUERIES),
        wall_clock=raw.get("wall_clock"),
        max_prompt_chars=raw.get("max_prompt_chars"),
        retrieval_mode=raw.get("retrieval_mode", "lexical"),
    )


def load_manifest(path: str, defaults: client.DecodingParams) -> list[agent.RunConfig]:
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot read manifest {path}: {exc}") from exc
    entries = raw.get("configs")
    if not entries:
        raise CliError("manifest has no configs")
    try:
        return [run_config_from_dict(entry, defaults) for entry in entries]
    except (KeyError, ValueError, TypeError, PromptError) as exc:
        raise CliError(f"bad manifest entry: {exc}") from exc


def build_deps(
    config: configparser.ConfigParser,
    corpus: corpus_mod.Corpus,
    run_configs: list[agent.RunConfig],
    replay: bool = False,
    cache_dir: str | None = None,
    index_file: str | None = None,
    whole_table: bool = True,
) -> agent.AgentDeps:
    provider = build_provider(config, replay, cache_dir)
    session_config = build_session_config(config, whole_table)
    templates = TemplateSet.load(_get(config, "paths", "template_file"))
    index = None
    index_path = index_file or _get(config, "paths", "index_file")
    if index_path and not Path(index_path).exists():
        raise CliError(f"index file not found: {index_path}")
    similarity = any(c.ranks_by_similarity for c in run_configs)
    if similarity and index_path:
        try:
            index = retriever.load_index(index_path)
        except (OSError, ValueError, KeyError, TypeError, AttributeError,
                retriever.RetrieverError) as exc:
            raise CliError(f"bad index file {index_path}: {exc}") from exc
    elif similarity and corpus.train:
        index = retriever.build_index(corpus.train)
    return agent.AgentDeps(
        corpus=corpus,
        provider=provider,
        session_factory=agent.SessionFactory(session_config),
        index=index,
        templates=templates,
    )


def _corpus_file(args, config: configparser.ConfigParser) -> str:
    path = args.corpus or _get(config, "paths", "corpus_file")
    if not path:
        raise CliError("no corpus file: pass --corpus or set paths.corpus_file")
    return path


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_ingest(args, config) -> int:
    root = args.root or _get(config, "paths", "corpus_root")
    if not root or not Path(root).exists():
        raise CliError(f"corpus root not found: {root}")
    excludes = tuple(args.exclude or ())
    cps = corpus_mod.ingest_project(root, follow_subdirs=not args.no_subdirs, exclude_globs=excludes)
    for warning in cps.warnings:
        log.warning("%s", warning)
    explicit = tuple(args.explicit_test or ())
    cps = corpus_mod.split_corpus(
        cps,
        policy=args.split,
        seed=args.seed,
        test_fraction=args.test_fraction,
        explicit_test_ids=explicit,
    )
    out = args.out or _get(config, "paths", "corpus_file", "corpus.jsonl")
    corpus_mod.save_corpus(cps, out)
    counts = {
        "records": len(cps.records),
        "train": len(cps.train),
        "test": len(cps.test),
        "excluded": len(cps.with_label(corpus_mod.EXCLUDED)),
    }
    print(json.dumps({"corpus": str(out), **counts}))
    return EXIT_OK


def cmd_index(args, config) -> int:
    cps = corpus_mod.load_corpus(_corpus_file(args, config))
    train = cps.train
    if not train:
        raise CliError("corpus has no train records; run ingest/split first")
    index = retriever.build_index(train, space=args.space)
    retriever.save_index(index, args.out)
    print(json.dumps({"index": str(args.out), "size": len(index.norms), "space": args.space}))
    return EXIT_OK


def cmd_prove(args, config) -> int:
    defaults = decoding_from(config)
    if args.manifest:
        manifest = load_manifest(args.manifest, defaults)
        chosen = [c for c in manifest if c.tag == args.config_tag]
        if not chosen:
            raise CliError(f"config tag {args.config_tag!r} not in manifest")
        run_config = chosen[0]
    else:
        run_config = run_config_from_dict(
            {"tag": args.config_tag or args.mode, "mode": args.mode}, defaults
        )
    if args.interactive:
        run_config = replace(run_config, loop="interactive")
    corpus_path = _corpus_file(args, config)
    # zs needs no record but its target; few-shot modes need the train split, +lem the lemmas.
    cps = corpus_mod.load_record(corpus_path, args.theorem) if run_config.mode == "zs" else None
    if cps is None:
        cps = corpus_mod.load_corpus(corpus_path)
    try:
        target = cps.by_id(args.theorem)
    except corpus_mod.UnknownId:
        matches = [r for r in cps.records if r.name == args.theorem]
        if len(matches) != 1:
            raise CliError(f"unknown theorem id {args.theorem!r}")
        target = matches[0]
    deps = build_deps(config, cps, [run_config], args.replay, args.cache_dir, whole_table=False)
    records = agent.prove(target, run_config, deps)
    rules = evaluate.ClassifierRules.load(_get(config, "paths", "classifier_patterns"))
    for record in records:
        record.category = evaluate.classify_failure(record, rules)
    for record in records:
        print(json.dumps(record, ensure_ascii=False, indent=2, default=vars))
    verdict = "ACCEPTED" if any(r.accepted for r in records) else "REJECTED"
    print(verdict)
    return EXIT_OK


def cmd_eval(args, config) -> int:
    cps = corpus_mod.load_corpus(_corpus_file(args, config))
    defaults = decoding_from(config)
    manifest = load_manifest(args.manifest, defaults)
    deps = build_deps(
        config, cps, manifest, replay=args.replay, cache_dir=args.cache_dir, index_file=args.index
    )
    rules = evaluate.ClassifierRules.load(_get(config, "paths", "classifier_patterns"))
    report = evaluate.run_eval(cps, manifest, deps, rules, workers=args.workers)
    out_dir = args.out or _get(config, "paths", "output_dir", "out")
    written = evaluate.emit_report(report, out_dir)
    print(json.dumps({"out": str(out_dir), "files": [str(p) for p in written]}))
    return EXIT_OK


def cmd_report(args, config) -> int:
    attempts = evaluate.load_attempts_dir(args.attempts)
    if not attempts:
        raise CliError(f"no attempt files under {args.attempts}")
    rules = evaluate.ClassifierRules.load(_get(config, "paths", "classifier_patterns"))
    report = evaluate.build_report(attempts, rules)
    if args.taxonomy_only:
        histogram = {
            tag: metrics.taxonomy for tag, metrics in report.per_config.items()
        }
        print(json.dumps(histogram, indent=2, sort_keys=True))
        return EXIT_OK
    written = evaluate.emit_report(report, args.out, write_attempts=False)
    print(json.dumps({"out": str(args.out), "files": [str(p) for p in written]}))
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _ingest_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--root", help="project directory containing .v files")
    p.add_argument("--out", help="corpus JSONL output path")
    p.add_argument("--split", default="by_index", choices=["by_index", "by_file", "explicit"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--test-fraction", type=float, default=0.3)
    p.add_argument("--explicit-test", nargs="*", help="record ids for the explicit policy")
    p.add_argument("--exclude", nargs="*", help="glob patterns of files to skip")
    p.add_argument("--no-subdirs", action="store_true")


def _index_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--space", default=retriever.PROOF_SPACE,
                   choices=[retriever.PROOF_SPACE, retriever.STATEMENT_SPACE])


def _prove_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--corpus")
    p.add_argument("--theorem", required=True, help="record id or unique theorem name")
    p.add_argument("--config-tag")
    p.add_argument("--manifest")
    p.add_argument("--mode", default="zs", choices=list(agent.MODES))
    p.add_argument("--interactive", action="store_true")
    p.add_argument("--replay", action="store_true")
    p.add_argument("--cache-dir")


def _eval_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--corpus")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out")
    p.add_argument("--index")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--replay", action="store_true",
                   help="serve completions from the cache only; fail on misses")
    p.add_argument("--cache-dir")


def _report_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--attempts", required=True, help="directory of <config>.jsonl files")
    p.add_argument("--out", default="out")
    p.add_argument("--taxonomy-only", action="store_true")


# name: (help, adds its arguments, runs it)
_COMMANDS = {
    "ingest": ("extract a corpus from a Coq project and split it", _ingest_arguments, cmd_ingest),
    "index": ("build the retrieval index", _index_arguments, cmd_index),
    "prove": ("run one theorem under one config, dumping the transcript",
              _prove_arguments, cmd_prove),
    "eval": ("run a manifest of configs and emit reports", _eval_arguments, cmd_eval),
    "report": ("recompute reports from stored attempt records", _report_arguments, cmd_report),
}


class _Unparsed:
    """A subcommand's place in the top-level parser: it keeps the arguments
    after the command name, unparsed, for that command's own parser."""

    def __init__(self, **_):
        pass

    def parse_known_args(self, args, namespace=None):
        return argparse.Namespace(arguments=list(args)), []


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    """Parse `argv` as argparse would with every subcommand's arguments
    built, building only the invoked subcommand's: the same namespace, help
    texts, usage errors and exit codes."""
    parser = argparse.ArgumentParser(
        prog="coqharness",
        description="LLM proof-synthesis harness for Coq: corpus extraction, "
        "retrieval, prompting, agent loops, machine-checked evaluation.",
    )
    parser.add_argument("--config", help="INI config file shared by all subcommands")
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Unparsed)
    for name, (help_text, _, _) in _COMMANDS.items():
        sub.add_parser(name, help=help_text)
    args, unknown = parser.parse_known_args(argv)

    command = argparse.ArgumentParser(prog=f"{parser.prog} {args.command}")
    _COMMANDS[args.command][1](command)
    parsed, unknown_after = command.parse_known_args(vars(args).pop("arguments"))
    vars(args).update(vars(parsed))
    if unknown or unknown_after:
        parser.error("unrecognized arguments: " + " ".join(unknown + unknown_after))
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        config = load_config(args.config)
        return _COMMANDS[args.command][2](args, config)
    except CliError as exc:
        log.error("%s", exc)
        return exc.code
    except (corpus_mod.CorpusError, evaluate.EvalError, ValueError) as exc:
        log.error("%s", exc)
        return EXIT_CONFIG
    except (client.ProviderError, client.BudgetExceeded, client.CacheMiss) as exc:
        log.error("provider failure: %s", exc)
        return EXIT_PROVIDER
    except (SpawnFailure, PreludeError, SessionDead) as exc:
        log.error("prover unavailable: %s", exc)
        return EXIT_PROVER


if __name__ == "__main__":
    sys.exit(main())
