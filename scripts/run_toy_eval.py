#!/usr/bin/env python3
"""Run the full scripted evaluation on the bundled toy corpus.

Everything is hermetic: the mock prover adjudicates candidates against its
behavior table and the scripted provider plays the model. Reports land in
--out (default ./out-toy).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from coqharness import corpus as corpus_mod  # noqa: E402
from coqharness.agent import AgentDeps, SessionFactory  # noqa: E402
from coqharness.cli import load_manifest  # noqa: E402
from coqharness.client import DecodingParams, ScriptedProvider  # noqa: E402
from coqharness.driver import SessionConfig  # noqa: E402
from coqharness.evaluate import ClassifierRules, emit_report, run_eval  # noqa: E402
from coqharness.prompting import TemplateSet  # noqa: E402
from coqharness.retriever import build_index  # noqa: E402

FIXTURES = ROOT / "tests" / "fixtures"
TEST_IDS = (
    "relations.v::union_incl",
    "relations.v::trans_incl",
    "weak.v::weak_refl",
    "weak.v::G_wmon",
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out-toy")
    parser.add_argument("--workers", type=int, default=1)
    args = parser.parse_args()

    corpus = corpus_mod.ingest_project(FIXTURES / "project")
    corpus = corpus_mod.split_corpus(corpus, policy="explicit", explicit_test_ids=TEST_IDS)
    table = json.loads((FIXTURES / "mock_table.json").read_text())
    deps = AgentDeps(
        corpus=corpus,
        provider=ScriptedProvider(FIXTURES / "provider_script.json"),
        session_factory=SessionFactory(
            SessionConfig(backend="mock", mock_table=table)
        ),
        templates=TemplateSet.load(),
        index=build_index(corpus.train),
    )
    manifest = load_manifest(str(FIXTURES / "manifest.json"), DecodingParams())
    report = run_eval(corpus, manifest, deps, ClassifierRules.load(), workers=args.workers)
    files = emit_report(report, args.out)
    print(f"wrote {len(files)} files under {args.out}/")
    for tag, metrics in report.per_config.items():
        print(
            f"  {tag:8s}  correct={metrics.n_correct_proofs}  "
            f"proven={metrics.n_proven_theorems}  attempts={metrics.n_attempts}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
