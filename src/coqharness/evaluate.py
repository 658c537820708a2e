"""Metrics, failure taxonomy, and report emission.

Aggregation is a pure fold over attempt records, so reports are invariant
under attempt reordering and can be recomputed from stored attempt files
without re-proving anything. The taxonomy is a rule cascade over prover
error messages; the patterns live in data/classifier_patterns.json so new
toplevel phrasings need no code change.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import logging
import re
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from importlib import resources
from pathlib import Path

from . import store
from .agent import AgentDeps, AttemptRecord, RunConfig, prove
from .corpus import Corpus
from .driver import FileWalk
from .prompting import REFUSAL as REFUSAL_KIND
from .sentences import is_closing, opens_proof

log = logging.getLogger(__name__)

CORRECT = "correct"
REFUSAL = "refusal"
HALLUCINATED_REFERENCE = "hallucinated_reference"
PROOF_STATE_MISMATCH = "proof_state_mismatch"
WRONG_TACTIC = "wrong_tactic"
SYNTAX_ERROR = "syntax_error"
RESOURCE = "resource"
OTHER = "other"

CATEGORIES = (
    CORRECT,
    REFUSAL,
    HALLUCINATED_REFERENCE,
    PROOF_STATE_MISMATCH,
    WRONG_TACTIC,
    SYNTAX_ERROR,
    RESOURCE,
    OTHER,
)

TAXONOMY_NOTE = (
    "Failure taxonomy reconstructed by rule-based classification of prover "
    "errors; category labels are harness-defined, not expert annotations."
)
PROTOCOL_NOTE = (
    "Interactive/repair/ensemble turn protocols and retriever margin/distance "
    "defaults are harness design choices, not reported settings."
)


class EvalError(Exception):
    pass


# ---------------------------------------------------------------------------
# Classifier
# ---------------------------------------------------------------------------


@dataclass
class ClassifierRules:
    ordered: list[tuple[str, list[re.Pattern]]]

    @staticmethod
    def load(path: str | Path | None = None) -> "ClassifierRules":
        if path is None:
            source = resources.files("coqharness.data").joinpath("classifier_patterns.json")
        else:
            source = Path(path)
        ordered = []
        try:  # an unreadable file raises an OSError that names it
            for rule in json.loads(source.read_text(encoding="utf-8"))["rules"]:
                category = rule["category"]
                if category not in CATEGORIES:
                    raise EvalError(f"unknown category {category!r} in pattern file")
                ordered.append((category, [re.compile(p) for p in rule["patterns"]]))
        except (ValueError, KeyError, TypeError, re.error) as exc:
            raise EvalError(f"bad classifier patterns {path}: {exc}") from exc
        return ClassifierRules(ordered)


def classify_failure(attempt: AttemptRecord, rules: ClassifierRules) -> str:
    """First-match rule cascade approximating the expert annotation."""
    if attempt.accepted:
        return CORRECT
    if attempt.completion_kind == REFUSAL_KIND:
        return REFUSAL
    message = attempt.error_message
    if message:
        for category, patterns in rules.ordered:
            if any(p.search(message) for p in patterns):
                return category
    if attempt.lexical_error:
        return SYNTAX_ERROR
    if attempt.budget_exhausted:
        return RESOURCE
    if attempt.completion_kind == "proof":
        # The prover saw it and rejected it for none of the named reasons.
        return WRONG_TACTIC
    return OTHER


def annotate(records: list[AttemptRecord], corpus: Corpus, rules: ClassifierRules) -> None:
    """Set each record's category, and flag `missed_simple` on a failed one
    whose theorem's reference proof is at most two tactics. `eval` and
    `prove` both annotate through here."""
    for record in records:
        record.category = classify_failure(record, rules)
        if not record.accepted:
            proof = corpus.by_id(record.theorem_id).proof
            record.missed_simple = sum(not (opens_proof(s) or is_closing(s)) for s in proof) <= 2


# ---------------------------------------------------------------------------
# Running
# ---------------------------------------------------------------------------


@dataclass
class RunInfo:
    """What a report echoes of the run behind its attempts, kept as
    attempts/run.json: the manifest and corpus hashes, and each config's
    echo in manifest order."""

    manifest_hash: str
    corpus_hash: str
    config_echo: dict


def run_info(corpus: Corpus, manifest: list[RunConfig]) -> RunInfo:
    echo = {config.tag: asdict(config) for config in manifest}
    return RunInfo(
        manifest_hash=store.content_hash(list(echo.values())),
        corpus_hash=store.content_hash([
            [r.id, r.statement.text, [s.text for s in r.proof], corpus.split_labels[r.id]]
            for r in corpus.records
        ]),
        config_echo=echo,
    )


def run_eval(corpus: Corpus, manifest: list[RunConfig], deps: AgentDeps, rules: ClassifierRules,
             workers: int = 1) -> dict[str, list[AttemptRecord]]:
    """Run every manifest config over the corpus test split: per config tag,
    in manifest order, its annotated records in test order.

    Per-attempt failures are data; every other exception is the harness's
    (a manifest or corpus problem, a prompt that cannot be built, a cache
    miss, a provider or prover unavailable) and propagates, aborting the
    run with no report, so no harness failure is ever counted as a model
    failure. Deterministic under the scripted provider.
    Each test file gets one prover session, walked forward from target to
    target by a FileWalk; at each target every config borrows it in
    manifest order. `workers` threads share out the files.
    """
    tests = corpus.test
    if not tests:
        raise EvalError("corpus has no test split")

    files: dict[str, list[int]] = {}
    for position, target in enumerate(tests):
        files.setdefault(target.file, []).append(position)
    groups = list(files.values())

    def prove_file(positions):
        """Per test position of the file, per config: that config's records."""
        with contextlib.closing(FileWalk(deps.prover)) as walk:
            return {p: [prove(tests[p], config, deps, walk) for config in manifest]
                    for p in positions}

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            per_file = list(pool.map(prove_file, groups))
    else:
        per_file = [prove_file(positions) for positions in groups]
    per_target = {p: batches for file_batches in per_file for p, batches in file_batches.items()}

    attempts_by_config: dict[str, list[AttemptRecord]] = {}
    for c, config in enumerate(manifest):
        records = [record for p in range(len(tests)) for record in per_target[p][c]]
        annotate(records, corpus, rules)
        attempts_by_config[config.tag] = records
    return attempts_by_config


# ---------------------------------------------------------------------------
# Report table
# ---------------------------------------------------------------------------

def _refusal_share(per_config: dict[str, dict]) -> float:
    attempts = sum(row["n_attempts"] for row in per_config.values())
    refusals = sum(row["taxonomy"][REFUSAL] for row in per_config.values())
    return 100.0 * refusals / attempts if attempts else 0.0


def build_report(attempts_by_config: dict[str, list[AttemptRecord]], rules: ClassifierRules,
                 run: RunInfo | None = None) -> dict:
    """The report table, report.json's object, which the md and csv render:
    per config (in the order given) its counts and taxonomy, its proven
    theorem ids, the pairwise overlaps, and `run`'s hashes and config echo,
    empty with no `run`. A fold over the records, so their order changes no
    count; `rules` classify those with no category."""
    per_config: dict[str, dict] = {}
    proven: dict[str, list[str]] = {}
    for tag, records in attempts_by_config.items():
        taxonomy = dict.fromkeys(CATEGORIES, 0)
        accepted: set[tuple[str, str]] = set()  # (theorem id, script)
        for record in records:
            taxonomy[record.category or classify_failure(record, rules)] += 1
            if record.accepted:
                accepted.add((record.theorem_id, record.proof_script))
        proven[tag] = sorted({theorem for theorem, _ in accepted})
        per_config[tag] = {
            "n_attempts": len(records),
            "n_correct_proofs": len(accepted),  # distinct accepted scripts per theorem
            "n_proven_theorems": len(proven[tag]),
            "n_accepted_raw": sum(record.accepted for record in records),
            "taxonomy": taxonomy,
        }
    return {
        "per_config": per_config,
        "proven": proven,
        "coincidence": [[a, b, len(set(proven[a]) & set(proven[b]))]
                        for a in sorted(proven) for b in sorted(proven)],
        "refusal_share_percent": round(_refusal_share(per_config), 4),
        **vars(run or RunInfo("", "", {})),
        "notes": [TAXONOMY_NOTE, PROTOCOL_NOTE],
    }


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def _overlaps(report: dict) -> dict[tuple[str, str], int]:
    return {(a, b): count for a, b, count in report["coincidence"]}


def coincidence_matrix(report: dict) -> str:
    """Lower-triangular text table of pairwise proven-theorem overlaps."""
    tags = list(report["per_config"])
    overlaps = _overlaps(report)
    width = max(len(t) for t in tags) + 2
    lines = ["".ljust(width) + "".join(t.ljust(width) for t in tags)]
    for i, row_tag in enumerate(tags):
        cells = [str(overlaps[(row_tag, col)]) if j < i else "-" for j, col in enumerate(tags)]
        lines.append("".join(cell.ljust(width) for cell in [row_tag, *cells]))
    return "\n".join(lines)


_COUNT_LABELS = (
    ("n_correct_proofs", "#Correct Proof"),
    ("n_proven_theorems", "#Proven Theorems"),
    ("n_accepted_raw", "accepted samples (raw)"),
    ("n_attempts", "attempts"),
)


def render_markdown(report: dict) -> str:
    rows = report["per_config"]
    tags = list(rows)
    out = ["# Proof synthesis results", ""]
    out += ["| | " + " | ".join(tags) + " |", "|---" * (len(tags) + 1) + "|"]
    for key, label in _COUNT_LABELS:
        out.append(f"| {label} | " + " | ".join(str(rows[t][key]) for t in tags) + " |")
    out += [
        "",
        "#Correct Proof counts distinct accepted scripts per theorem; the raw",
        "row counts accepted samples before dedup.",
        "",
        "## Failure taxonomy",
        "",
        "| category | " + " | ".join(tags) + " | total |",
        "|---" * (len(tags) + 2) + "|",
    ]
    for category in CATEGORIES:
        counts = [rows[t]["taxonomy"][category] for t in tags]
        out.append(
            f"| {category} | " + " | ".join(str(c) for c in counts) + f" | {sum(counts)} |"
        )
    out += ["", f"Refusal share: {_refusal_share(rows):.1f}% of attempts", ""]
    if len(tags) >= 2:
        out += ["## Coinciding proven theorems", "", "```", coincidence_matrix(report), "```", ""]
    out += ["---", *(f"note: {note}" for note in report["notes"])]
    return "\n".join(out) + "\n"


def render_csv(report: dict) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(
        ["config", "n_attempts", "n_correct_proofs", "n_proven_theorems", "n_accepted_raw"]
        + [f"taxonomy_{c}" for c in CATEGORIES]
    )
    for tag, row in report["per_config"].items():
        *counts, taxonomy = row.values()
        writer.writerow([tag, *counts, *taxonomy.values()])
    writer.writerow([])
    writer.writerow(["coincidence_a", "coincidence_b", "count"])
    tags = list(report["per_config"])
    overlaps = _overlaps(report)
    for i, a in enumerate(tags):
        for b in tags[:i]:
            writer.writerow([a, b, overlaps[(a, b)]])
    return buffer.getvalue()


# ---------------------------------------------------------------------------
# Files
# ---------------------------------------------------------------------------


def emit_report(report: dict, out_dir: str | Path) -> list[Path]:
    """Write report.{md,csv,json} under out_dir."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    texts = {
        "report.md": render_markdown(report),
        "report.csv": render_csv(report),
        "report.json": json.dumps(report, indent=2, sort_keys=True, ensure_ascii=False) + "\n",
    }
    for name, text in texts.items():
        (out_dir / name).write_text(text, encoding="utf-8")
    return [out_dir / name for name in texts]


def emit_attempts(attempts_by_config: dict[str, list[AttemptRecord]], run: RunInfo,
                  directory: str | Path) -> list[Path]:
    """Write <tag>.jsonl per config and run.json under `directory`, first
    removing every other *.jsonl there, so that none is stale."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for path in sorted(directory.glob("*.jsonl")):
        if path.stem not in attempts_by_config:
            log.warning("removing %s: no config of this run is tagged %r", path, path.stem)
            path.unlink()
    written: list[Path] = []
    for tag, records in attempts_by_config.items():
        written.append(directory / f"{tag}.jsonl")
        with open(written[-1], "w", encoding="utf-8") as fh:
            for record in records:
                fh.write(json.dumps(record, ensure_ascii=False, default=vars) + "\n")
    written.append(directory / "run.json")  # unsorted: config_echo keeps the manifest order
    written[-1].write_text(json.dumps(vars(run), indent=2, ensure_ascii=False) + "\n", encoding="utf-8")
    return written


def load_run(directory: str | Path) -> RunInfo | None:
    """The run.json under an attempts directory, or None if it has none."""
    path = Path(directory) / "run.json"
    if not path.exists():
        return None
    try:
        return store.decode(RunInfo, json.loads(path.read_text(encoding="utf-8")))
    except (ValueError, TypeError) as exc:
        raise EvalError(f"bad run file {path}: {exc}") from None


def _attempt_row(row) -> AttemptRecord:
    record = store.decode(AttemptRecord, row)
    if record.category not in (None, *CATEGORIES):  # None: build_report classifies it
        raise ValueError(f"unknown category {record.category!r}")
    return record


def load_attempts_dir(directory: str | Path,
                      run: RunInfo | None = None) -> dict[str, list[AttemptRecord]]:
    """Each config's records from <tag>.jsonl under `directory`: in the order
    of `run`'s config echo, which names every file, or with no `run` in
    file-name order."""
    paths = {path.stem: path for path in sorted(Path(directory).glob("*.jsonl"))}
    if run is not None:
        if sorted(run.config_echo) != sorted(paths):
            raise EvalError(f"{Path(directory) / 'run.json'}: configs {sorted(run.config_echo)}"
                            f" are not the attempt files {sorted(paths)}")
        paths = {tag: paths[tag] for tag in run.config_echo}
    return {
        tag: [record for _, record in store.rows(path, path.read_bytes(), _attempt_row)]
        for tag, path in paths.items()
    }
