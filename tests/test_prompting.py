"""Prompt construction, diversity variants, completion parsing."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coqharness.agent import RunConfig
from coqharness.prompting import (
    ChatMessage,
    ChatPrompt,
    PromptError,
    TemplateSet,
    build_prompt,
    diversify,
    PROOF,
    parse_completion,
)
from coqharness.sentences import segment_sentences

REFUSAL_TEXT = (
    "(* Without further information on what TX and G are, I cannot generate a "
    "valid proof. Please provide more information or define the related "
    "functions and types. *)"
)


@pytest.fixture(scope="module")
def templates():
    return TemplateSet.load()


def get(corpus, name):
    return next(r for r in corpus.records if r.name == name)


def test_template_sections_present(templates):
    for section in (
        "system.base",
        "system.fewshot_suffix",
        "system.lemma_suffix",
        "system.interactive_suffix",
        "user.target",
        "user.target_with_lemmas",
        "interactive.state",
        "interactive.error",
        "repair.feedback",
        "variant.simple-tactics-first",
        "variant.no-lemma-use",
        "variant.verbose-stepwise",
    ):
        assert section in templates.sections, section


def test_render_substitutes_only_known_placeholders(templates):
    text = templates.render("user.target", statement="Lemma t: {x} = {x}.")
    assert "Lemma t: {x} = {x}." in text  # Coq braces survive


def test_chat_prompt_invariants():
    system = ChatMessage("system", "s")
    user = ChatMessage("user", "u")
    with pytest.raises(ValueError):
        ChatPrompt((user,), config_tag="zs")
    with pytest.raises(ValueError):
        ChatPrompt((system, system, user), config_tag="zs")
    with pytest.raises(ValueError):
        ChatPrompt((system, user, ChatMessage("assistant", "a")), config_tag="zs")
    with pytest.raises(ValueError):
        ChatMessage("tool", "x")
    with pytest.raises(ValueError):
        ChatMessage("user", "")


def test_zero_shot_prompt_shape(toy_corpus, templates):
    config = RunConfig(tag="zs", mode="zs")
    target = get(toy_corpus, "weak_refl")
    prompt = build_prompt(config, target, templates=templates)
    assert len(prompt.messages) == 2
    assert prompt.messages[0].role == "system"
    assert prompt.messages[1].role == "user"
    assert target.statement_text in prompt.messages[1].content
    assert target.proof_text not in prompt.messages[1].content
    assert prompt.target_id == target.id


def test_few_shot_prompt_alternation(toy_corpus, templates):
    config = RunConfig(tag="fs-rand", mode="fs-rand", k_shots=6)
    target = get(toy_corpus, "weak_refl")
    examples = [r for r in toy_corpus.records if r.name != "weak_refl"][:6]
    prompt = build_prompt(config, target, examples=examples, templates=templates)
    assert len(prompt.messages) == 2 + 2 * 6
    roles = [m.role for m in prompt.messages]
    assert roles == ["system"] + ["user", "assistant"] * 6 + ["user"]
    assert sum(1 for r in roles if r == "assistant") == len(examples)
    # deterministic
    again = build_prompt(config, target, examples=examples, templates=templates)
    assert again == prompt


def test_lemma_prompt_contains_names_before_statement(toy_corpus, templates):
    config = RunConfig(tag="fs+lem", mode="fs+lem", k_shots=1, n_lemmas=2)
    target = get(toy_corpus, "union_incl")
    examples = [get(toy_corpus, "comp_eeq")]
    lemmas = [
        ("comp_incl", "Lemma comp_incl: incl R R' -> incl S S' -> incl (comp R S) (comp R' S')."),
        ("comp_eeq", "Lemma comp_eeq: eeq R R' -> eeq S S' -> eeq (comp R S) (comp R' S')."),
    ]
    prompt = build_prompt(config, target, examples=examples, lemmas=lemmas, templates=templates)
    final = prompt.messages[-1].content
    assert final.index("comp_incl") < final.index("Lemma union_incl")
    assert final.index("comp_eeq") < final.index("Lemma union_incl")


def test_config_mismatch_cases(toy_corpus, templates):
    target = get(toy_corpus, "weak_refl")
    with pytest.raises(PromptError, match="fs-rand requires few-shot examples"):
        build_prompt(RunConfig(tag="fs-rand", mode="fs-rand"), target, templates=templates)


def test_over_budget_drops_farthest_example(toy_corpus, templates):
    config = RunConfig(tag="fs-rand", mode="fs-rand", k_shots=3, max_prompt_chars=900)
    target = get(toy_corpus, "weak_refl")
    examples = [get(toy_corpus, n) for n in ("comp_incl", "comp_eeq", "union_incl")]
    prompt = build_prompt(config, target, examples=examples, templates=templates)
    assert prompt.dropped_examples >= 1
    kept = [m.content for m in prompt.messages if m.role == "assistant"]
    # the farthest (first-listed) examples go first
    assert get(toy_corpus, "union_incl").proof_text in "\n".join(kept)


def test_diversify_variants(toy_corpus, templates):
    config = RunConfig(tag="fs-rand", mode="fs-rand", k_shots=3)
    target = get(toy_corpus, "weak_refl")
    examples = [get(toy_corpus, n) for n in ("comp_incl", "comp_eeq", "union_incl")]
    base = build_prompt(config, target, examples=examples, templates=templates)

    assert diversify(base, [], templates) == []

    variants = diversify(base, ["simple-tactics-first"], templates)
    assert len(variants) == 1
    assert variants[0].variant_id == "simple-tactics-first"
    system = variants[0].messages[0].content
    assert "auto" in system and "reflexivity" in system
    assert variants[0].messages[1:] == base.messages[1:]

    reorders = diversify(base, ["example-reorder(3)", "example-reorder(5)"], templates)
    multisets = []
    for variant in reorders:
        pairs = [
            (variant.messages[i].content, variant.messages[i + 1].content)
            for i in range(1, len(variant.messages) - 1, 2)
        ]
        multisets.append(sorted(pairs))
    base_pairs = sorted(
        (base.messages[i].content, base.messages[i + 1].content)
        for i in range(1, len(base.messages) - 1, 2)
    )
    assert multisets[0] == multisets[1] == base_pairs
    orders = [
        [m.content for m in variant.messages[1:-1]] for variant in reorders
    ]
    assert orders[0] != orders[1]

    with pytest.raises(PromptError, match=r"missing template section \[variant\.make-it-better\]"):
        diversify(base, ["make-it-better"], templates)


# -- parse_completion ---------------------------------------------------------


def test_parse_weak_refl_proof():
    parsed = parse_completion("Proof. intros x. constructor. reflexivity. Qed.")
    assert parsed.kind == "proof"
    assert not parsed.appended_qed
    body = [s.text for s in segment_sentences(parsed.proof_script) if s.text != "Proof."]
    assert body == ["intros x.", "constructor.", "reflexivity.", "Qed."]


def test_parse_refusal():
    parsed = parse_completion(REFUSAL_TEXT)
    assert parsed.kind == "refusal"
    assert "cannot generate a valid proof" in parsed.refusal_text


def test_parse_empty_and_whitespace():
    assert parse_completion("").kind == "empty"
    assert parse_completion("   \n ").kind == "empty"


def test_parse_strips_code_fences():
    raw = "```coq\nProof.\nauto.\nQed.\n```"
    parsed = parse_completion(raw)
    assert parsed.kind == "proof"
    assert "```" not in parsed.proof_script


def test_parse_restated_theorem():
    statement = "Lemma t: True."
    parsed = parse_completion("Lemma t: True.\nProof. exact I. Qed.", statement)
    assert parsed.kind == "proof"
    assert "Lemma" not in parsed.proof_script
    mismatched = parse_completion("Lemma other: False.\nProof. auto. Qed.", statement)
    assert mismatched.kind == "malformed"
    # whitespace-normalized match is tolerated
    spaced = parse_completion("Lemma   t:   True.\nProof. exact I. Qed.", statement)
    assert spaced.kind == "proof"


def test_parse_appends_missing_qed():
    parsed = parse_completion("Proof. intros x. constructor.")
    assert parsed.kind == "proof"
    assert parsed.appended_qed
    assert parsed.proof_script.endswith("Qed.")


def test_parse_malformed_prose():
    parsed = parse_completion("This proof is left as an exercise")
    assert parsed.kind == "malformed"
    assert parsed.lexical
    commented = parse_completion("(* just musing, no request here *)")
    assert commented.kind == "malformed"
    assert not commented.lexical


def test_parse_roundtrip_wellformed():
    script = "Proof.\n  intros x y.\n  apply comp_incl; auto.\nQed."
    parsed = parse_completion(script)
    assert parsed.kind == "proof"
    assert parsed.proof_script == script


def test_parse_keeps_the_sentences_it_segmented():
    """A proof carries its sentences: a restated statement and an appended
    Qed. are not among them, a closer the reply wrote is."""
    statement = "Lemma t: True."
    partial = parse_completion("```coq\nLemma t: True.\nProof. exact I.\n```", statement)
    assert partial.appended_qed
    assert [s.text for s in partial.sentences] == ["Proof.", "exact I."]
    closed = parse_completion("Proof. exact I. Qed.", statement)
    assert [s.text for s in closed.sentences] == ["Proof.", "exact I.", "Qed."]
    for not_a_proof in ("", REFUSAL_TEXT, "no sentence here"):
        assert parse_completion(not_a_proof).sentences == ()


_REPLY_PIECES = st.sampled_from([
    "Proof.", "intros x.", "auto.", "Qed.", "Admitted.", "Lemma t: True.", "Lemma u: é.",
    "- ", "+", "*", "{", "}", "(* c. *)", "(*", "*)", '"s. t"', "```coq\n", "```", "x", ".",
    " ", "\n", "é",
])


@given(st.lists(_REPLY_PIECES, max_size=30).map("".join))
@settings(max_examples=500, deadline=None)
def test_a_parsed_proof_segments_again_into_its_sentences(raw):
    """What a prover check of a proof reply segments is what parse_completion
    kept, plus an appended Qed.: so that check raises no LexicalError."""
    parsed = parse_completion(raw, "Lemma t: True.")
    if parsed.kind != PROOF:
        return
    texts = [s.text for s in parsed.sentences] + (["Qed."] if parsed.appended_qed else [])
    assert [s.text for s in segment_sentences(parsed.proof_script)] == texts
