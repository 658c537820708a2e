"""Acceptance suite: one test per criterion, one PASS line each.

Run `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
Criterion 6 (live toplevel) runs only when coqtop is installed.
"""

from __future__ import annotations

import json
import random
import shutil
import time

import pytest

from coqharness.agent import RunConfig
from coqharness.client import DecodingParams, ScriptedProvider
from coqharness.driver import SessionConfig, start_session
from coqharness.evaluate import (
    ClassifierRules,
    build_report,
    classify_failure,
    emit_report,
    render_markdown,
    run_eval,
)
from coqharness.retriever import FeatureVector, build_index, retrieve, similarity
from coqharness.sentences import segment_sentences

from oracles import oracle_segment
from test_agent import (
    REFUSAL_TEXT,
    interactive_config,
    prove_alone,
    repair_config,
    scripted,
    synthetic_record,
)
from test_retriever import make_record, to_fv
from test_sentences import TRICKY_SNIPPETS, assert_segmentation_invariants

RULES = ClassifierRules.load()

ANSWER = "ACCEPTANCE {num} ({name}): PASS ({elapsed:.2f}s)"


def report_pass(num: int, name: str, started: float, budget: float) -> None:
    elapsed = time.perf_counter() - started
    assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget: {elapsed:.2f}s"
    print(ANSWER.format(num=num, name=name, elapsed=elapsed))


def test_criterion_1_segmentation_oracle_suite(fixtures_dir):
    started = time.perf_counter()
    assert len(TRICKY_SNIPPETS) >= 30
    for snippet in TRICKY_SNIPPETS:
        got = segment_sentences(snippet)
        assert [(s.text, *s.span) for s in got] == oracle_segment(snippet)
        assert_segmentation_invariants(snippet, got)
    # round-trip on every ingested corpus file
    for path in sorted((fixtures_dir / "project").glob("*.v")):
        source = path.read_text()
        assert_segmentation_invariants(source, segment_sentences(source))
    report_pass(1, "segmentation oracle suite", started, 1.0)


def test_criterion_2_retriever_properties():
    started = time.perf_counter()

    # self-retrieval rank-1 on a 20-record synthetic corpus
    records = [
        make_record(f"r{i}", f"Lemma r{i}: prop{i} alpha{i}.", f"Proof. tac{i} beta{i}; auto. Qed.", index=i)
        for i in range(20)
    ]
    index = build_index(records)
    probe = make_record("probe", records[7].proof_text, "Proof. x. Qed.")
    ranked = retrieve(index, probe, 5)
    assert ranked[0][0] == records[7].id
    assert ranked[0][1] == pytest.approx(1.0, abs=1e-12)

    # cosine symmetry + scale invariance, 100 seeded pairs, tol 1e-9
    rng = random.Random(20240817)
    for _ in range(100):
        a = to_fv([rng.gauss(0, 1) for _ in range(16)])
        b = to_fv([rng.gauss(0, 1) for _ in range(16)])
        c = rng.uniform(0.2, 8.0)
        scaled = FeatureVector.from_entries({k: c * v for k, v in a.entries.items()})
        assert abs(similarity(a, b) - similarity(b, a)) < 1e-9
        assert abs(similarity(scaled, b) - similarity(a, b)) < 1e-9

    report_pass(2, "retriever properties", started, 10.0)


# Hand-computed oracle counts for the scripted toy evaluation: for each
# config, the scripted completions were traced against the mock behavior
# table by hand (which candidates the table accepts, which error each
# rejected candidate hits), n=2 identical samples per theorem.
EXPECTED_PER_CONFIG = {
    "zs": {
        "n_attempts": 8, "n_correct_proofs": 1, "n_proven_theorems": 1, "n_accepted_raw": 2,
        "taxonomy": {"correct": 2, "refusal": 2, "hallucinated_reference": 2,
                     "proof_state_mismatch": 0, "wrong_tactic": 2, "syntax_error": 0,
                     "resource": 0, "other": 0},
    },
    "fs-rand": {
        "n_attempts": 8, "n_correct_proofs": 2, "n_proven_theorems": 2, "n_accepted_raw": 4,
        "taxonomy": {"correct": 4, "refusal": 2, "hallucinated_reference": 0,
                     "proof_state_mismatch": 0, "wrong_tactic": 2, "syntax_error": 0,
                     "resource": 0, "other": 0},
    },
    "fs-sim": {
        "n_attempts": 8, "n_correct_proofs": 2, "n_proven_theorems": 2, "n_accepted_raw": 4,
        "taxonomy": {"correct": 4, "refusal": 2, "hallucinated_reference": 0,
                     "proof_state_mismatch": 0, "wrong_tactic": 2, "syntax_error": 0,
                     "resource": 0, "other": 0},
    },
    "zs+lem": {
        "n_attempts": 8, "n_correct_proofs": 1, "n_proven_theorems": 1, "n_accepted_raw": 2,
        "taxonomy": {"correct": 2, "refusal": 0, "hallucinated_reference": 0,
                     "proof_state_mismatch": 2, "wrong_tactic": 4, "syntax_error": 0,
                     "resource": 0, "other": 0},
    },
    "fs+lem": {
        "n_attempts": 8, "n_correct_proofs": 3, "n_proven_theorems": 3, "n_accepted_raw": 6,
        "taxonomy": {"correct": 6, "refusal": 0, "hallucinated_reference": 0,
                     "proof_state_mismatch": 0, "wrong_tactic": 2, "syntax_error": 0,
                     "resource": 0, "other": 0},
    },
}

EXPECTED_PROVEN = {
    "zs": {"weak.v::weak_refl"},
    "fs-rand": {"weak.v::weak_refl", "relations.v::union_incl"},
    "fs-sim": {"relations.v::union_incl", "relations.v::trans_incl"},
    "zs+lem": {"weak.v::G_wmon"},
    "fs+lem": {"weak.v::weak_refl", "relations.v::union_incl", "weak.v::G_wmon"},
}

EXPECTED_COINCIDENCE = {
    ("zs", "fs-rand"): 1, ("zs", "fs-sim"): 0, ("zs", "zs+lem"): 0, ("zs", "fs+lem"): 1,
    ("fs-rand", "fs-sim"): 1, ("fs-rand", "zs+lem"): 0, ("fs-rand", "fs+lem"): 2,
    ("fs-sim", "zs+lem"): 0, ("fs-sim", "fs+lem"): 1, ("zs+lem", "fs+lem"): 1,
}


def test_criterion_3_scripted_end_to_end(toy_deps, manifest_path, tmp_path):
    started = time.perf_counter()
    from coqharness.cli import load_manifest

    manifest = load_manifest(str(manifest_path), DecodingParams())

    def run(out_dir):
        deps = toy_deps()
        report = build_report(run_eval(deps.corpus, manifest, deps, RULES), RULES)
        emit_report(report, out_dir)
        return report

    report = run(tmp_path / "run1")
    payload = json.loads((tmp_path / "run1" / "report.json").read_text())
    for tag, expected in EXPECTED_PER_CONFIG.items():
        assert payload["per_config"][tag] == expected, tag
    for tag, proven in EXPECTED_PROVEN.items():
        assert set(report["proven"][tag]) == proven, tag
    coincidence = {(a, b): count for a, b, count in report["coincidence"]}
    for (a, b), count in EXPECTED_COINCIDENCE.items():
        assert coincidence[(a, b)] == count, (a, b)
        assert coincidence[(b, a)] == count, (b, a)
        bound = min(report["per_config"][a]["n_proven_theorems"],
                    report["per_config"][b]["n_proven_theorems"])
        assert count <= bound

    run(tmp_path / "run2")
    assert (tmp_path / "run1" / "report.json").read_bytes() == (
        tmp_path / "run2" / "report.json"
    ).read_bytes()
    report_pass(3, "scripted end-to-end vs hand-computed oracle", started, 10.0)


def test_criterion_4_taxonomy_fixtures():
    started = time.perf_counter()
    from test_eval import make_attempt

    refusal = make_attempt(kind="refusal")
    assert classify_failure(refusal, RULES) == "refusal"
    assert (
        classify_failure(make_attempt(message="The reference stutter_bisim was not found."), RULES)
        == "hallucinated_reference"
    )
    assert (
        classify_failure(make_attempt(message="R is already used."), RULES)
        == "proof_state_mismatch"
    )
    assert classify_failure(make_attempt(accepted=True), RULES) == "correct"

    attempts = [
        make_attempt(f"f.v::t{i}", "A", message="No applicable tactic.", index=i)
        for i in range(35)
    ] + [make_attempt("f.v::r1", "A", kind="refusal"),
         make_attempt("f.v::r2", "A", kind="refusal")]
    report = build_report({"A": attempts}, RULES)
    row = report["per_config"]["A"]
    assert row["n_attempts"] == 37 and row["taxonomy"]["refusal"] == 2
    assert f"{report['refusal_share_percent']:.1f}" == "5.4"
    assert "Refusal share: 5.4% of attempts" in render_markdown(report)
    report_pass(4, "failure-taxonomy fixtures", started, 1.0)


def test_criterion_5_agent_loop_properties(toy_deps, fixtures_dir):
    started = time.perf_counter()

    # interactive: QUERY tool call + completed proof within budgets
    deps = toy_deps(
        scripted(
            [{
                "theorem": "G_wmon",
                "completions": [
                    "QUERY Print G",
                    "unfold wmonotonic, G; intuition.",
                    "apply wunfold; auto.",
                    "Qed.",
                ],
            }]
        )
    )
    target = next(r for r in deps.corpus.records if r.name == "G_wmon")
    config = interactive_config(max_turns=10, max_queries=3)
    [record] = prove_alone(target, config, deps)
    assert record.accepted
    assert sum(len(t.tool_calls) for t in record.turns) == 1
    assert len(record.turns) <= config.max_turns

    # repair: the hallucination fixture flips to accepted in round 1
    deps = toy_deps(ScriptedProvider(fixtures_dir / "provider_script.json"))
    bisim = synthetic_record(
        "bisimulation_bisim", "Lemma bisimulation_bisim: bisimulation bisim."
    )
    records = prove_alone(bisim, repair_config(), deps)
    assert not records[0].accepted and "stutter_bisim" in records[0].error_message
    assert records[-1].round == 1 and records[-1].accepted

    # ensemble: the auto-only variant proves what the base misses
    deps = toy_deps(
        scripted(
            [
                {"theorem": "trans_incl", "variant_id": "base",
                 "completions": ["Proof.\nfirstorder.\nQed."]},
                {"theorem": "trans_incl", "variant_id": "simple-tactics-first",
                 "completions": ["Proof.\nauto.\nQed."]},
            ]
        )
    )
    trans = next(r for r in deps.corpus.records if r.name == "trans_incl")
    ens_config = RunConfig(
        tag="ens", mode="zs", loop="ensemble",
        strategies=("simple-tactics-first",), decoding=DecodingParams(n=5),
    )
    ens_records = prove_alone(trans, ens_config, deps)
    assert not any(r.accepted for r in ens_records if r.variant_id == "base")
    assert any(r.accepted for r in ens_records)

    # budget limits never exceeded across 100 randomized scripted runs
    pool = [
        "QUERY Print G", "QUERY Check nat", "QUERY Print missing_thing",
        "auto.", "intros q.", "", "(* pondering *)",
        "unfold wmonotonic, G; intuition.", "apply wunfold; auto.", "Qed.",
        "intro T. split.",
        REFUSAL_TEXT,
    ]

    class RandomDialogue:
        name = "random-dialogue"

        def __init__(self, seed: int):
            self.rng = random.Random(seed)

        def complete(self, prompt, params):
            return [self.rng.choice(pool) for _ in range(params.n)]

    budget_config = interactive_config(max_turns=6, max_queries=2)
    for seed in range(100):
        rand_deps = toy_deps(RandomDialogue(seed))
        [outcome] = prove_alone(target, budget_config, rand_deps)
        assert len(outcome.turns) <= budget_config.max_turns
        assert sum(len(t.tool_calls) for t in outcome.turns) <= budget_config.max_queries

    report_pass(5, "agent-loop properties", started, 10.0)


COQTOP = shutil.which("coqtop")


@pytest.mark.skipif(COQTOP is None, reason="no Coq toplevel installed")
def test_criterion_6_live_toplevel_integration():
    started = time.perf_counter()
    from coqharness.proofstate import parse_proof_state, render_proof_state

    config = SessionConfig(backend="real", prover_command=f"{COQTOP} -emacs -q")
    session = start_session(config)
    try:
        accepted = session.check_proof("Lemma t: True.", "Proof. exact I. Qed.")
        assert accepted.accepted

        broken = session.check_proof("Lemma t2: True.", "Proof. exact O. Qed.")
        assert not broken.accepted
        assert broken.failing_step is not None
        index, sentence = broken.failing_step
        assert sentence.text == "exact O." and index == 1
        assert broken.message.strip()

        assert session.execute("Lemma live1: 1 + 1 = 2.").ok
        one_goal = session.current_state()
        assert one_goal is not None
        assert parse_proof_state(render_proof_state(one_goal)) == one_goal
        session.execute("Abort.")

        session.execute("Lemma live2: True /\\ True.")
        assert session.execute("split.").ok
        two_goal = session.current_state()
        assert two_goal is not None and two_goal.goal_index[1] >= 2
        assert parse_proof_state(render_proof_state(two_goal)) == two_goal
        session.execute("Abort.")

        check = session.query("Check", "nat")
        assert check.strip()
    finally:
        session.close()
    report_pass(6, "live toplevel integration", started, 60.0)


def test_criterion_6_placeholder_when_skipped():
    if COQTOP is None:
        print("ACCEPTANCE 6 (live toplevel integration): SKIPPED (no coqtop installed)")
