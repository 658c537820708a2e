"""Command-line entry point.

One binary, five subcommands (ingest, index, prove, eval, report) sharing an
INI config file. Flags override config values; the effective configuration
is echoed into report.json. Exit codes: 0 success, 2 config error,
3 provider error, 4 prover unavailable. Logs go to stderr, data to files.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import json
import logging
import sys
from dataclasses import dataclass, replace
from pathlib import Path

from . import agent, client, corpus as corpus_mod, evaluate, retriever, store
from .driver import FileWalk, PreludeError, SessionConfig, SessionDead, SpawnFailure
from .mockprover import compile_behavior_table
from .prompting import PromptError, TemplateSet

log = logging.getLogger("coqharness")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PROVIDER = 3
EXIT_PROVER = 4

class CliError(Exception):
    """A command's input is wrong: exit 2 with this message."""


# Every ini key, by section, with the type its value is read as: load_config
# refuses any other key, since a misspelt one would otherwise run with its
# default unseen, and any value its type cannot read.
INI_KEYS = {
    "paths": dict.fromkeys(("corpus_root", "corpus_file", "index_file", "cache_dir",
                            "template_file", "classifier_patterns", "output_dir"), str),
    "provider": {"kind": str, "script_file": str, "base_url": str, "model_name": str,
                 "api_key_env": str, "rpm_limit": float, "token_budget": int},
    "prover": {"backend": str, "prover_command": str, "timeout_per_step": float, "workdir": str,
               "mock_table": str},
    "defaults": {"temperature": float, "presence_penalty": float, "n": int, "max_tokens": int},
}


def load_config(path: str | None) -> configparser.ConfigParser:
    parser = configparser.ConfigParser()
    if path:
        try:
            with open(path, encoding="utf-8") as fh:
                parser.read_file(fh)
            for section in (parser.default_section, *parser.sections()):
                if section not in INI_KEYS and section != parser.default_section:
                    raise CliError(f"bad config {path}: unknown section [{section}]")
                # items() reads each value, so a stray '%' fails here, not in a command
                store.check_keys(dict(parser.items(section)), INI_KEYS.get(section, ()))
            for section in INI_KEYS:
                _set_keys(parser, section)  # so a value its type cannot read fails here
        except FileNotFoundError:
            raise CliError(f"config file not found: {path}") from None
        except OSError as exc:
            raise CliError(f"cannot read config {path}: {exc.strerror or exc}") from exc
        except (configparser.Error, ValueError) as exc:  # a UnicodeDecodeError is a ValueError
            raise CliError(f"bad config {path}: {exc}") from exc
        except store.DecodeError as exc:
            raise CliError(f"bad config {path}: {exc} in [{section}]") from exc
    return parser


def _get(config: configparser.ConfigParser, section: str, key: str, fallback=None):
    return config.get(section, key, fallback=None) or fallback  # a blank value is no value


def _set_keys(config: configparser.ConfigParser, section: str, *keys: str) -> dict:
    """The keys of `section` that the ini sets, of `keys` if any are named,
    each read by its type in INI_KEYS: a key left out keeps the default of
    the type it is passed to. A ValueError names the key a value fails."""
    values = {}
    for key in keys or INI_KEYS[section]:
        if (value := _get(config, section, key)) is not None:
            try:
                values[key] = INI_KEYS[section][key](value)
            except ValueError as exc:
                raise ValueError(f"[{section}] {key}: {exc}") from exc
    return values


def build_provider(config: configparser.ConfigParser, replay: bool, cache_dir: str | None):
    cache_dir = cache_dir or _get(config, "paths", "cache_dir")
    cache = client.TranscriptCache(cache_dir) if cache_dir else None
    if replay:
        if cache is None:
            raise CliError("--replay needs a cache_dir")
        return client.CachingProvider(None, cache)

    kind = _get(config, "provider", "kind", "scripted")
    if kind == "scripted":
        script_file = _get(config, "provider", "script_file")
        if not script_file:
            raise CliError("provider.script_file required for the scripted provider")
        try:
            inner = client.ScriptedProvider(script_file)
        except (OSError, ValueError, TypeError) as exc:
            raise CliError(f"bad provider script {script_file}: {exc}") from exc
    elif kind == "http":
        base_url = _get(config, "provider", "base_url")
        model_name = _get(config, "provider", "model_name")
        if not base_url or not model_name:
            raise CliError("provider.base_url and provider.model_name are required")
        if not base_url.lower().startswith(("http://", "https://")):  # else urllib fails mid-run
            raise CliError(f"provider.base_url must be an http:// or https:// URL, not {base_url!r}")
        inner = client.HttpChatProvider(base_url, model_name, **_set_keys(
            config, "provider", "api_key_env", "rpm_limit", "token_budget"))
    else:
        raise CliError(f"unknown provider kind {kind!r}")
    if cache is not None:
        return client.CachingProvider(inner, cache)
    return inner


def build_session_config(config: configparser.ConfigParser) -> SessionConfig:
    """The prover settings. A mock table is read here, once per command; each
    theorem entry is compiled when a session first opens it. A table or an
    entry that is malformed raises a ValueError naming the table: exit 2."""
    session = SessionConfig(**_set_keys(config, "prover"))
    if session.backend == "mock":
        session.mock_table = compile_behavior_table(session.mock_table)
    return session


def decoding_from(config: configparser.ConfigParser) -> client.DecodingParams:
    return client.DecodingParams(**_set_keys(config, "defaults"))


def run_config_from_dict(raw: dict, defaults: client.DecodingParams) -> agent.RunConfig:
    """The RunConfig of a manifest entry's own keys over the ini's decoding defaults."""
    values = dict(raw)
    if values.pop("retrieval_mode", "lexical") != "lexical":  # the one mode there is
        raise ValueError(f"unknown retrieval mode {raw['retrieval_mode']!r}")
    if type(decoding := values.get("decoding", {})) is dict:
        values["decoding"] = {**vars(defaults), **decoding}
    return store.decode(agent.RunConfig, values)


@dataclass
class _Manifest:
    configs: list[dict]  # each read by run_config_from_dict

    def __post_init__(self):
        if not self.configs:
            raise ValueError("no configs")


def load_manifest(path: str, defaults: client.DecodingParams) -> list[agent.RunConfig]:
    try:
        manifest = store.decode(_Manifest, json.loads(Path(path).read_text(encoding="utf-8")))
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot read manifest {path}: {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise CliError(f"bad manifest {path}: {exc}") from exc
    run_configs: dict[str, agent.RunConfig] = {}
    for entry in manifest.configs:
        try:
            run_config = run_config_from_dict(entry, defaults)
            tag = run_config.tag  # it names the attempts file attempts/<tag>.jsonl
            if tag in run_configs or tag in ("", ".", "..") or "/" in tag or "\0" in tag:
                raise ValueError("repeated tag" if tag in run_configs else "a tag must be a file name")
            run_configs[tag] = run_config
        except (ValueError, TypeError, PromptError) as exc:
            raise CliError(f"bad manifest entry {entry.get('tag')!r}: {exc}") from exc
    return list(run_configs.values())


def build_deps(
    config: configparser.ConfigParser,
    corpus: corpus_mod.Corpus,
    run_configs: list[agent.RunConfig],
    replay: bool = False,
    cache_dir: str | None = None,
    index_file: str | None = None,
) -> agent.AgentDeps:
    few_shot = [c.tag for c in run_configs if not c.zero_shot]
    if few_shot and not corpus.train:
        raise CliError(f"corpus has no train records for few-shot configs: {', '.join(few_shot)}")
    provider = build_provider(config, replay, cache_dir)
    session_config = build_session_config(config)
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
    elif similarity:
        index = retriever.build_index(corpus.train)
    return agent.AgentDeps(corpus=corpus, provider=provider, prover=session_config, index=index,
                           templates=templates)


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
        run_config = replace(run_config, loop="interactive", strategies=())
    corpus_path = _corpus_file(args, config)
    # zs needs no record but its target; few-shot modes need the train split, +lem the lemmas.
    cps = corpus_mod.load_record(corpus_path, args.theorem) if run_config.mode == "zs" else None
    if cps is None:
        cps = corpus_mod.load_corpus(corpus_path)
    try:
        target = cps.by_id(args.theorem)
    except corpus_mod.UnknownId:
        matches = [r for r in cps.records if r.name == args.theorem]
        if len(matches) > 1:
            ids = ", ".join(r.id for r in matches)
            raise CliError(f"theorem name {args.theorem!r} is ambiguous: {ids}")
        if not matches:
            raise CliError(f"unknown theorem id {args.theorem!r}")
        target = matches[0]
    deps = build_deps(config, cps, [run_config], args.replay, args.cache_dir)
    rules = evaluate.ClassifierRules.load(_get(config, "paths", "classifier_patterns"))
    with contextlib.closing(FileWalk(deps.prover)) as walk:
        records = agent.prove(target, run_config, deps, walk)
    evaluate.annotate(records, cps, rules)
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
    attempts = evaluate.run_eval(cps, manifest, deps, rules, workers=args.workers)
    run = evaluate.run_info(cps, manifest)
    out_dir = args.out or _get(config, "paths", "output_dir", "out")
    written = evaluate.emit_report(evaluate.build_report(attempts, rules, run), out_dir)
    written += evaluate.emit_attempts(attempts, run, Path(out_dir) / "attempts")
    print(json.dumps({"out": str(out_dir), "files": [str(p) for p in written]}))
    return EXIT_OK


def cmd_report(args, config) -> int:
    run = evaluate.load_run(args.attempts)
    attempts = evaluate.load_attempts_dir(args.attempts, run)
    if not attempts:
        raise CliError(f"no attempt files under {args.attempts}")
    rules = evaluate.ClassifierRules.load(_get(config, "paths", "classifier_patterns"))
    report = evaluate.build_report(attempts, rules, run)
    if args.taxonomy_only:
        histogram = {tag: row["taxonomy"] for tag, row in report["per_config"].items()}
        print(json.dumps(histogram, indent=2, sort_keys=True))
        return EXIT_OK
    written = evaluate.emit_report(report, args.out)
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
    except (CliError, corpus_mod.CorpusError, evaluate.EvalError, agent.AgentError, PromptError,
            ValueError, OSError) as exc:
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
