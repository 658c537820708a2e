"""Classifier rules, metric aggregation, coincidence matrix, report formats."""

from __future__ import annotations

import json

import pytest

from coqharness import evaluate
from coqharness.agent import AttemptRecord, RunConfig, Turn
from coqharness.client import DecodingParams
from coqharness.evaluate import (
    CATEGORIES,
    ClassifierRules,
    EvalError,
    RunInfo,
    build_report,
    classify_failure,
    coincidence_matrix,
    emit_attempts,
    emit_report,
    load_attempts_dir,
    load_run,
    render_csv,
    render_markdown,
    run_eval,
    run_info,
)

RULES = ClassifierRules.load()

REFUSAL_TEXT = (
    "Without further information on what TX and G are, I cannot generate a "
    "valid proof. Please provide more information or define the related "
    "functions and types."
)


def make_attempt(
    theorem="f.v::t",
    tag="zs",
    accepted=False,
    script="Proof. auto. Qed.",
    message=None,
    kind="proof",
    index=0,
    budget=False,
    lexical=False,
):
    return AttemptRecord(
        theorem_id=theorem,
        config_tag=tag,
        variant_id="base",
        candidate_index=index,
        proof_script=script if kind == "proof" else "",
        accepted=accepted,
        failing_step=(1, "auto.", message) if message else None,
        turns=[Turn("prompt", "completion")],
        completion_kind=kind,
        refusal_text=REFUSAL_TEXT if kind == "refusal" else None,
        budget_exhausted=budget,
        lexical_error=lexical,
    )


# -- classifier ---------------------------------------------------------------


def test_classifier_paper_fixtures():
    assert classify_failure(make_attempt(accepted=True), RULES) == "correct"
    assert classify_failure(make_attempt(kind="refusal"), RULES) == "refusal"
    assert (
        classify_failure(make_attempt(message="The reference stutter_bisim was not found."), RULES)
        == "hallucinated_reference"
    )
    assert (
        classify_failure(make_attempt(message="R is already used."), RULES)
        == "proof_state_mismatch"
    )


def test_classifier_remaining_rules():
    assert (
        classify_failure(make_attempt(message="Unknown identifier foo"), RULES)
        == "hallucinated_reference"
    )
    assert (
        classify_failure(make_attempt(message="No such hypothesis: H0"), RULES)
        == "proof_state_mismatch"
    )
    assert (
        classify_failure(make_attempt(message="No product even after head-reduction."), RULES)
        == "proof_state_mismatch"
    )
    assert classify_failure(make_attempt(message="There are not enough products"), RULES)\
        == "proof_state_mismatch"
    assert (
        classify_failure(make_attempt(message="Syntax error: '.' expected"), RULES)
        == "syntax_error"
    )
    assert classify_failure(make_attempt(message="TIMEOUT"), RULES) == "resource"
    assert classify_failure(make_attempt(budget=True), RULES) == "resource"
    assert classify_failure(make_attempt(kind="malformed", lexical=True), RULES) == "syntax_error"
    assert classify_failure(make_attempt(message="No applicable tactic."), RULES) == "wrong_tactic"
    assert classify_failure(make_attempt(), RULES) == "wrong_tactic"  # prover saw it, no rule hit
    assert classify_failure(make_attempt(kind="malformed"), RULES) == "other"
    assert classify_failure(make_attempt(kind="empty"), RULES) == "other"


def test_classifier_rules_from_custom_file(tmp_path):
    path = tmp_path / "rules.json"
    path.write_text(
        json.dumps({"rules": [{"category": "resource", "patterns": ["glacial"]}]})
    )
    rules = ClassifierRules.load(path)
    assert classify_failure(make_attempt(message="glacial slowness"), rules) == "resource"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"rules": [{"category": "nope", "patterns": ["x"]}]}))
    with pytest.raises(EvalError):
        ClassifierRules.load(bad)


# -- aggregation --------------------------------------------------------------


def two_config_attempts():
    a = [
        make_attempt("f.v::t1", "A", accepted=True, script="Proof. auto. Qed."),
        make_attempt("f.v::t1", "A", accepted=True, script="Proof. auto. Qed.", index=1),
        make_attempt("f.v::t1", "A", accepted=True, script="Proof. tauto. Qed.", index=2),
        make_attempt("f.v::t2", "A", accepted=True, script="Proof. easy. Qed."),
        make_attempt("f.v::t3", "A", message="No applicable tactic."),
        make_attempt("f.v::t4", "A", kind="refusal"),
    ]
    b = [
        make_attempt("f.v::t2", "B", accepted=True, script="Proof. easy. Qed."),
        make_attempt("f.v::t3", "B", accepted=True, script="Proof. auto. Qed."),
        make_attempt("f.v::t4", "B", message="R is already used."),
    ]
    return {"A": a, "B": b}


def test_build_report_counts_and_dedup():
    report = build_report(two_config_attempts(), RULES)
    metrics = report["per_config"]["A"]
    assert metrics["n_attempts"] == 6
    assert metrics["n_accepted_raw"] == 4
    assert metrics["n_correct_proofs"] == 3  # t1 has 2 distinct scripts, t2 one
    assert metrics["n_proven_theorems"] == 2
    assert metrics["taxonomy"]["correct"] == 4
    assert metrics["taxonomy"]["wrong_tactic"] == 1
    assert metrics["taxonomy"]["refusal"] == 1
    assert sum(metrics["taxonomy"].values()) == metrics["n_attempts"]
    assert report["proven"]["A"] == ["f.v::t1", "f.v::t2"]
    coincidence = {(a, b): count for a, b, count in report["coincidence"]}
    assert coincidence[("A", "B")] == 1  # only t2 overlaps
    assert coincidence[("A", "B")] == coincidence[("B", "A")]
    assert coincidence[("A", "A")] == metrics["n_proven_theorems"]


def test_report_invariant_under_reordering():
    attempts = two_config_attempts()
    reordered = {tag: list(reversed(records)) for tag, records in attempts.items()}
    assert build_report(attempts, RULES) == build_report(reordered, RULES)


def test_coincidence_bounds_and_rendering():
    report = build_report(two_config_attempts(), RULES)
    for a, b, count in report["coincidence"]:
        assert count <= min(report["per_config"][a]["n_proven_theorems"],
                            report["per_config"][b]["n_proven_theorems"])
    rendered = coincidence_matrix(report)
    lines = rendered.splitlines()
    assert lines[0].split() == ["A", "B"]
    assert lines[1].split() == ["A", "-", "-"]
    assert lines[2].split() == ["B", "1", "-"]


def test_coincidence_disjoint_identical_and_shape():
    disjoint = build_report(
        {
            "A": [make_attempt("f.v::t1", "A", accepted=True)],
            "B": [make_attempt("f.v::t2", "B", accepted=True)],
        },
        RULES,
    )
    assert ["A", "B", 0] in disjoint["coincidence"]

    identical = build_report(
        {
            tag: [
                make_attempt(f"f.v::t{i}", tag, accepted=True, script=f"Proof. s{i}. Qed.")
                for i in range(3)
            ]
            for tag in ("A", "B")
        },
        RULES,
    )
    assert ["A", "B", 3] in identical["coincidence"]

    six = build_report(
        {
            f"c{k}": [make_attempt("f.v::t", f"c{k}", accepted=True)] for k in range(6)
        },
        RULES,
    )
    rendered = coincidence_matrix(six)
    cells = rendered.splitlines()[1:]
    populated = sum(cell.split()[1:].count("1") for cell in cells)
    dashes = sum(cell.split()[1:].count("-") for cell in cells)
    assert populated == 15  # 6 choose 2
    assert dashes == 21  # diagonal and above

    # render_markdown draws the matrix only from 2 configs up
    assert "Coinciding" not in render_markdown(build_report({"A": [make_attempt()]}, RULES))


# -- end-to-end over the toy corpus ------------------------------------------


def test_run_eval_validation(toy_corpus, toy_deps):
    deps = toy_deps()
    config = RunConfig(tag="zs", mode="zs", decoding=DecodingParams(n=1))

    from coqharness.corpus import Corpus

    no_test = Corpus(list(toy_corpus.records), toy_corpus.root,
                     {r.id: "train" for r in toy_corpus.records})
    with pytest.raises(EvalError):
        run_eval(no_test, [config], deps, RULES)


@pytest.mark.parametrize("workers", [1, 4])
def test_run_eval_propagates_a_harness_error(toy_deps, monkeypatch, workers):
    """An exception from proving one target aborts the run: it is never
    recorded as a failed attempt."""
    prove = evaluate.prove

    def failing_prove(target, config, deps, walk):
        if target.id == "weak.v::G_wmon":
            raise RuntimeError("injected at G_wmon")
        return prove(target, config, deps, walk)

    monkeypatch.setattr(evaluate, "prove", failing_prove)
    deps = toy_deps()
    config = RunConfig(tag="zs", mode="zs", decoding=DecodingParams(n=1))
    with pytest.raises(RuntimeError, match="injected at G_wmon"):
        run_eval(deps.corpus, [config], deps, RULES, workers=workers)


def test_run_eval_annotates_missed_simple(toy_deps):
    deps = toy_deps()
    config = RunConfig(tag="zs", mode="zs", decoding=DecodingParams(n=2), seed=11)
    records = run_eval(deps.corpus, [config], deps, RULES)["zs"]
    trans = [r for r in records if r.theorem_id == "relations.v::trans_incl"]
    assert trans and all(not r.accepted for r in trans)
    assert all(r.missed_simple for r in trans)  # one-tactic reference proof
    run = run_info(deps.corpus, [config])
    assert run.manifest_hash and run.corpus_hash

    # weak_refl's reference proof is three tactics: failures stay unflagged
    sim = RunConfig(tag="fs-sim", mode="fs-sim", k_shots=2,
                    decoding=DecodingParams(n=2), seed=11)
    sim_records = run_eval(deps.corpus, [sim], toy_deps(), RULES)["fs-sim"]
    weak = [r for r in sim_records if r.theorem_id == "weak.v::weak_refl"]
    assert weak and all(not r.accepted for r in weak)
    assert all(not r.missed_simple for r in weak)


def test_run_eval_parallel_matches_serial(toy_deps, manifest_path):
    from coqharness.cli import load_manifest

    manifest = load_manifest(str(manifest_path), DecodingParams())
    serial = run_eval(toy_deps().corpus, manifest, toy_deps(), RULES)
    parallel = run_eval(toy_deps().corpus, manifest, toy_deps(), RULES, workers=3)
    assert build_report(serial, RULES) == build_report(parallel, RULES)


# -- emission -----------------------------------------------------------------


def test_markdown_row_labels_and_csv_json_agreement(tmp_path):
    report = build_report(two_config_attempts(), RULES)
    markdown = render_markdown(report)
    assert "| #Correct Proof |" in markdown
    assert "| #Proven Theorems |" in markdown

    files = emit_report(report, tmp_path)
    names = {p.name for p in files}
    assert {"report.md", "report.csv", "report.json"} <= names

    payload = json.loads((tmp_path / "report.json").read_text())
    csv_lines = (tmp_path / "report.csv").read_text().splitlines()
    header = csv_lines[0].split(",")
    for row in csv_lines[1:]:
        if not row or row.startswith("coincidence") or not row.split(",")[0]:
            break
        cells = dict(zip(header, row.split(",")))
        tag = cells["config"]
        assert int(cells["n_correct_proofs"]) == payload["per_config"][tag]["n_correct_proofs"]
        assert int(cells["n_proven_theorems"]) == payload["per_config"][tag]["n_proven_theorems"]
        for category in CATEGORIES:
            assert (
                int(cells[f"taxonomy_{category}"])
                == payload["per_config"][tag]["taxonomy"][category]
            )


def test_refusal_share_five_point_four_percent(tmp_path):
    # 2 refusals among 37 attempts = 5.4%
    attempts = [make_attempt(f"f.v::t{i}", "A", message="No applicable tactic.", index=i)
                for i in range(35)]
    attempts += [make_attempt("f.v::r1", "A", kind="refusal"),
                 make_attempt("f.v::r2", "A", kind="refusal")]
    assert len(attempts) == 37
    report = build_report({"A": attempts}, RULES)
    assert f"{report['refusal_share_percent']:.1f}" == "5.4"
    markdown = render_markdown(report)
    assert "Refusal share: 5.4% of attempts" in markdown


def test_recompute_from_attempts_dir(tmp_path):
    attempts = two_config_attempts()
    run = RunInfo("m", "c", {"B": {}, "A": {}})
    original = build_report(attempts, RULES, run)
    emit_attempts(attempts, run, tmp_path / "attempts")
    clone = build_report(load_attempts_dir(tmp_path / "attempts"), RULES)
    for field in ("per_config", "proven", "coincidence", "refusal_share_percent"):
        assert clone[field] == original[field]
    stored = load_run(tmp_path / "attempts")
    assert stored == run and list(stored.config_echo) == ["B", "A"]
    clone = build_report(load_attempts_dir(tmp_path / "attempts", stored), RULES, stored)
    assert clone == original and list(clone["per_config"]) == ["B", "A"]


def test_csv_roundtrip_of_coincidence(tmp_path):
    report = build_report(two_config_attempts(), RULES)
    csv_text = render_csv(report)
    assert "coincidence_a,coincidence_b,count" in csv_text
    assert "B,A,1" in csv_text
