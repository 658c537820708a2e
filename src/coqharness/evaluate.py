"""Metrics, failure taxonomy, and report emission.

Aggregation is a pure fold over attempt records, so reports are invariant
under attempt reordering and can be recomputed from stored attempt files
without re-proving anything. The taxonomy is a rule cascade over prover
error messages; the patterns live in data/classifier_patterns.json so new
toplevel phrasings need no code change.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import logging
import re
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from importlib import resources
from pathlib import Path

from .agent import AgentDeps, AttemptRecord, RunConfig, attempt_from_json, prove
from .client import BudgetExceeded, CacheMiss, ProviderError
from .corpus import Corpus, UnknownId
from .driver import PreludeError, SessionDead, SpawnFailure
from .prompting import REFUSAL as REFUSAL_KIND
from .sentences import is_closing

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


class TooFewConfigs(EvalError):
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
            text = resources.files("coqharness.data").joinpath(
                "classifier_patterns.json"
            ).read_text(encoding="utf-8")
        else:
            text = Path(path).read_text(encoding="utf-8")
        raw = json.loads(text)
        ordered = []
        for rule in raw["rules"]:
            category = rule["category"]
            if category not in CATEGORIES:
                raise EvalError(f"unknown category {category!r} in pattern file")
            ordered.append((category, [re.compile(p) for p in rule["patterns"]]))
        return ClassifierRules(ordered)


def classify_failure(attempt: AttemptRecord, rules: ClassifierRules | None = None) -> str:
    """First-match rule cascade approximating the expert annotation."""
    rules = rules or ClassifierRules.load()
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


def _reference_tactic_count(corpus: Corpus, theorem_id: str) -> int | None:
    try:
        record = corpus.by_id(theorem_id)
    except UnknownId:
        return None
    count = 0
    for sentence in record.proof:
        text = sentence.text.strip()
        if text == "Proof." or text.startswith("Proof using") or is_closing(sentence):
            continue
        count += 1
    return count


# ---------------------------------------------------------------------------
# Report data
# ---------------------------------------------------------------------------


@dataclass
class ConfigMetrics:
    n_attempts: int = 0
    n_correct_proofs: int = 0  # distinct accepted scripts per theorem, summed
    n_accepted_raw: int = 0  # accepted samples before dedup
    n_proven_theorems: int = 0
    taxonomy: dict[str, int] = field(default_factory=dict)


@dataclass
class EvalReport:
    per_config: dict[str, ConfigMetrics]
    proven: dict[str, list[str]]  # config tag -> sorted proven theorem ids
    coincidence: dict[tuple[str, str], int]
    manifest_hash: str = ""
    corpus_hash: str = ""
    config_echo: dict = field(default_factory=dict)
    attempts: dict[str, list[AttemptRecord]] = field(default_factory=dict)

    @property
    def total_attempts(self) -> int:
        return sum(m.n_attempts for m in self.per_config.values())

    @property
    def total_refusals(self) -> int:
        return sum(m.taxonomy.get(REFUSAL, 0) for m in self.per_config.values())

    @property
    def refusal_share(self) -> float:
        total = self.total_attempts
        return 100.0 * self.total_refusals / total if total else 0.0


def build_report(
    attempts_by_config: dict[str, list[AttemptRecord]],
    manifest_hash: str = "",
    corpus_hash: str = "",
    config_echo: dict | None = None,
) -> EvalReport:
    """Pure aggregation over classified attempt records."""
    per_config: dict[str, ConfigMetrics] = {}
    proven: dict[str, list[str]] = {}
    for tag, records in attempts_by_config.items():
        metrics = ConfigMetrics(taxonomy={c: 0 for c in CATEGORIES})
        accepted_scripts: dict[str, set[str]] = {}
        proven_ids: set[str] = set()
        for record in sorted(records, key=lambda r: (r.theorem_id, r.round, r.candidate_index)):
            metrics.n_attempts += 1
            category = record.category
            if category is None:
                category = classify_failure(record)
            metrics.taxonomy[category] = metrics.taxonomy.get(category, 0) + 1
            if record.accepted:
                metrics.n_accepted_raw += 1
                accepted_scripts.setdefault(record.theorem_id, set()).add(record.proof_script)
                proven_ids.add(record.theorem_id)
        metrics.n_correct_proofs = sum(len(s) for s in accepted_scripts.values())
        metrics.n_proven_theorems = len(proven_ids)
        per_config[tag] = metrics
        proven[tag] = sorted(proven_ids)

    tags = list(attempts_by_config)
    coincidence: dict[tuple[str, str], int] = {}
    for a in tags:
        for b in tags:
            coincidence[(a, b)] = len(set(proven[a]) & set(proven[b]))

    return EvalReport(
        per_config=per_config,
        proven=proven,
        coincidence=coincidence,
        manifest_hash=manifest_hash,
        corpus_hash=corpus_hash,
        config_echo=config_echo or {},
        attempts=attempts_by_config,
    )


def corpus_hash(corpus: Corpus) -> str:
    payload = [
        [r.id, r.statement.text, [s.text for s in r.proof], corpus.split_labels[r.id]]
        for r in corpus.records
    ]
    return hashlib.sha256(json.dumps(payload, ensure_ascii=False).encode("utf-8")).hexdigest()


def manifest_hash(manifest: list[RunConfig]) -> str:
    payload = [asdict(config) for config in manifest]
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True, ensure_ascii=False).encode("utf-8")
    ).hexdigest()


def run_eval(
    corpus: Corpus,
    manifest: list[RunConfig],
    deps: AgentDeps,
    workers: int = 1,
    rules: ClassifierRules | None = None,
) -> EvalReport:
    """Run every manifest config over the corpus test split and aggregate.

    Per-attempt failures are data. Manifest/corpus schema problems abort,
    and so do harness failures (cache miss, provider or prover unavailable),
    which are not the model's. Deterministic under the scripted provider.
    """
    if not manifest:
        raise EvalError("empty manifest")
    tags = [config.tag for config in manifest]
    if len(tags) != len(set(tags)):
        raise EvalError("duplicate config tags in manifest")
    tests = corpus.test
    if not tests:
        raise EvalError("corpus has no test split")
    rules = rules or ClassifierRules.load()

    attempts_by_config: dict[str, list[AttemptRecord]] = {}
    for config in manifest:
        def prove_one(target):
            try:
                return prove(target, config, deps)
            except (CacheMiss, ProviderError, BudgetExceeded, SpawnFailure, SessionDead,
                    PreludeError):
                raise
            except Exception as exc:
                log.error("config %s theorem %s failed: %s", config.tag, target.id, exc)
                return [
                    AttemptRecord(
                        theorem_id=target.id, config_tag=config.tag, variant_id="base",
                        candidate_index=0, proof_script="", accepted=False,
                        failing_step=(-1, "", f"harness error: {exc}"), turns=[],
                        completion_kind="malformed",
                    )
                ]

        if workers > 1:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                batches = list(pool.map(prove_one, tests))
        else:
            batches = [prove_one(t) for t in tests]
        records = [record for batch in batches for record in batch]
        for record in records:
            record.category = classify_failure(record, rules)
            if not record.accepted:
                reference = _reference_tactic_count(corpus, record.theorem_id)
                if reference is not None and reference <= 2:
                    record.missed_simple = True
        attempts_by_config[config.tag] = records

    echo = {config.tag: asdict(config) for config in manifest}
    return build_report(
        attempts_by_config,
        manifest_hash=manifest_hash(manifest),
        corpus_hash=corpus_hash(corpus),
        config_echo=echo,
    )


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def coincidence_matrix(report: EvalReport) -> str:
    """Lower-triangular text table of pairwise proven-theorem overlaps."""
    tags = list(report.per_config)
    if len(tags) < 2:
        raise TooFewConfigs("need at least 2 configs for a coincidence matrix")
    width = max(len(t) for t in tags) + 2
    lines = ["".ljust(width) + "".join(t.ljust(width) for t in tags)]
    for i, row_tag in enumerate(tags):
        cells = []
        for j, col_tag in enumerate(tags):
            if j < i:
                cells.append(str(report.coincidence[(row_tag, col_tag)]).ljust(width))
            else:
                cells.append("-".ljust(width))
        lines.append(row_tag.ljust(width) + "".join(cells))
    return "\n".join(lines)


_COUNT_LABELS = (
    ("n_correct_proofs", "#Correct Proof"),
    ("n_proven_theorems", "#Proven Theorems"),
    ("n_accepted_raw", "accepted samples (raw)"),
    ("n_attempts", "attempts"),
)


def config_rows(report: EvalReport) -> dict[str, dict]:
    """Per config: the counts, then the taxonomy over CATEGORIES."""
    return {
        tag: {
            "n_attempts": m.n_attempts,
            "n_correct_proofs": m.n_correct_proofs,
            "n_proven_theorems": m.n_proven_theorems,
            "n_accepted_raw": m.n_accepted_raw,
            "taxonomy": {c: m.taxonomy.get(c, 0) for c in CATEGORIES},
        }
        for tag, m in report.per_config.items()
    }


def render_markdown(report: EvalReport) -> str:
    rows = config_rows(report)
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
    out += ["", f"Refusal share: {report.refusal_share:.1f}% of attempts", ""]
    if len(tags) >= 2:
        out += ["## Coinciding proven theorems", "", "```", coincidence_matrix(report), "```", ""]
    out += ["---", f"note: {TAXONOMY_NOTE}", f"note: {PROTOCOL_NOTE}"]
    return "\n".join(out) + "\n"


def render_csv(report: EvalReport) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(
        ["config", "n_attempts", "n_correct_proofs", "n_proven_theorems", "n_accepted_raw"]
        + [f"taxonomy_{c}" for c in CATEGORIES]
    )
    for tag, row in config_rows(report).items():
        taxonomy = row.pop("taxonomy")
        writer.writerow([tag, *row.values(), *taxonomy.values()])
    writer.writerow([])
    writer.writerow(["coincidence_a", "coincidence_b", "count"])
    tags = list(report.per_config)
    for i, a in enumerate(tags):
        for b in tags[:i]:
            writer.writerow([a, b, report.coincidence[(a, b)]])
    return buffer.getvalue()


def report_to_json(report: EvalReport) -> dict:
    return {
        "per_config": config_rows(report),
        "proven": report.proven,
        "coincidence": [
            [a, b, count] for (a, b), count in sorted(report.coincidence.items())
        ],
        "refusal_share_percent": round(report.refusal_share, 4),
        "manifest_hash": report.manifest_hash,
        "corpus_hash": report.corpus_hash,
        "config_echo": report.config_echo,
        "notes": [TAXONOMY_NOTE, PROTOCOL_NOTE],
    }


def emit_report(
    report: EvalReport,
    out_dir: str | Path,
    formats: tuple[str, ...] = ("markdown", "csv", "json"),
    write_attempts: bool = True,
) -> list[Path]:
    """Write report.{md,csv,json} plus attempts/<tag>.jsonl under out_dir."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    if "markdown" in formats:
        path = out_dir / "report.md"
        path.write_text(render_markdown(report), encoding="utf-8")
        written.append(path)
    if "csv" in formats:
        path = out_dir / "report.csv"
        path.write_text(render_csv(report), encoding="utf-8")
        written.append(path)
    if "json" in formats:
        path = out_dir / "report.json"
        path.write_text(
            json.dumps(report_to_json(report), indent=2, sort_keys=True, ensure_ascii=False)
            + "\n",
            encoding="utf-8",
        )
        written.append(path)
    if write_attempts and report.attempts:
        attempts_dir = out_dir / "attempts"
        attempts_dir.mkdir(exist_ok=True)
        for tag, records in report.attempts.items():
            path = attempts_dir / f"{tag}.jsonl"
            with open(path, "w", encoding="utf-8") as fh:
                for record in records:
                    fh.write(json.dumps(record, ensure_ascii=False, default=vars) + "\n")
            written.append(path)
    return written


def load_attempts_dir(directory: str | Path) -> dict[str, list[AttemptRecord]]:
    directory = Path(directory)
    out: dict[str, list[AttemptRecord]] = {}
    for path in sorted(directory.glob("*.jsonl")):
        records = []
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                if line.strip():
                    records.append(attempt_from_json(json.loads(line)))
        out[path.stem] = records
    return out
