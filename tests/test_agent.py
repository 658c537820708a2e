"""Agent loops against the mock prover and scripted providers."""

from __future__ import annotations

import contextlib
import json
from dataclasses import dataclass, replace

import pytest

from coqharness import agent, driver, mockprover, prompting
from coqharness.agent import AgentDeps, RunConfig, prove
from coqharness.client import DecodingParams, Provider, ProviderError, ScriptedProvider
from coqharness.corpus import SourceFile, TheoremRecord
from coqharness.driver import (
    TIMEOUT_MESSAGE,
    FileWalk,
    PreludeError,
    ProofCheckResult,
    SessionConfig,
    SessionHandle,
    start_session,
)
from coqharness.evaluate import ClassifierRules, run_eval
from coqharness.prompting import PromptError, TemplateSet
from coqharness.proofstate import ProofState, render_proof_state
from coqharness.retriever import build_index
from coqharness.sentences import segment_sentences
from test_driver import STUB_COMMAND
from walk_project import WALK_WRONG, build_walk_project

C3_PROOF = "Proof.\nintros x.\nconstructor.\nreflexivity.\nQed."
REFUSAL_TEXT = (
    "(* Without further information on what TX and G are, I cannot generate a "
    "valid proof. Please provide more information or define the related "
    "functions and types. *)"
)


def get(corpus, name):
    return next(r for r in corpus.records if r.name == name)


def synthetic_record(name: str, statement: str) -> TheoremRecord:
    text = statement + " Proof. admit. Admitted."
    sentences = tuple(segment_sentences(text))
    return TheoremRecord(
        id=f"synthetic.v::{name}",
        name=name,
        source=SourceFile("synthetic.v", text, sentences),
        statement_index=0,
        proof_end=len(sentences),
        index_in_file=0,
    )


def scripted(entries, default="(* nothing scripted *)"):
    return ScriptedProvider({"default": default, "entries": entries})


def prove_alone(target, config, deps):
    """Prove through a one-target walk, as `coqharness prove` does."""
    with contextlib.closing(FileWalk(deps.prover)) as walk:
        return prove(target, config, deps, walk)


@dataclass
class Started:
    session: SessionHandle
    closes: int = 0
    executes: int = 0  # steps run after start_session returned it


@pytest.fixture()
def started(monkeypatch) -> list[Started]:
    """Every session that `driver.start_session` starts, with the number of
    times each is closed and of the steps it executes after its start."""
    sessions = []
    start = driver.start_session

    def counted_start(config):
        entry = Started(start(config))
        sessions.append(entry)
        session = entry.session
        close, execute = session.close, session.execute

        def counted_close():
            entry.closes += 1
            close()

        def counted_execute(sentence):
            entry.executes += 1
            return execute(sentence)

        session.close, session.execute = counted_close, counted_execute
        return session

    monkeypatch.setattr(driver, "start_session", counted_start)
    return sessions


# -- RunConfig ----------------------------------------------------------------


def test_run_config_invariants():
    assert RunConfig(tag="a", mode="zs").k_shots == 0
    assert RunConfig(tag="a", mode="fs-sim").k_shots == 6
    with pytest.raises(ValueError):
        RunConfig(tag="a", mode="zs", k_shots=3)
    with pytest.raises(ValueError):
        RunConfig(tag="a", mode="fs-rand", k_shots=0)
    with pytest.raises(ValueError):
        RunConfig(tag="a", mode="nope")
    with pytest.raises(ValueError):
        RunConfig(tag="a", mode="zs", loop="repair", repair_rounds=0)
    with pytest.raises(PromptError, match="ensemble needs a non-empty strategy list"):
        RunConfig(tag="a", mode="zs", loop="ensemble")
    with pytest.raises(ValueError):
        RunConfig(tag="a", mode="zs", max_turns=0)


# -- one-shot -----------------------------------------------------------------


def test_one_shot_weak_refl_accepted(toy_deps):
    deps = toy_deps()
    config = RunConfig(tag="zs", mode="zs", decoding=DecodingParams(n=1), seed=11)
    records = prove_alone(get(deps.corpus, "weak_refl"), config, deps)
    assert len(records) == 1
    assert records[0].accepted
    assert records[0].completion_kind == "proof"
    assert records[0].failing_step is None


def test_one_shot_refusal_never_reaches_prover(toy_deps, started):
    deps = toy_deps(scripted([{"theorem": "G_wmon", "completions": [REFUSAL_TEXT]}]))
    config = RunConfig(tag="zs", mode="zs", decoding=DecodingParams(n=2), seed=0)
    records = prove_alone(get(deps.corpus, "G_wmon"), config, deps)
    assert len(records) == 2
    assert all(r.completion_kind == "refusal" for r in records)
    assert all(not r.accepted for r in records)
    assert [s.executes for s in started] == [0]


def test_one_shot_identical_samples_one_unique_script(toy_deps):
    deps = toy_deps(
        scripted([{"theorem": "weak_refl", "completions": [C3_PROOF]}])
    )
    config = RunConfig(tag="zs", mode="zs", decoding=DecodingParams(n=5), seed=0)
    records = prove_alone(get(deps.corpus, "weak_refl"), config, deps)
    assert len(records) == 5
    assert len({r.proof_script for r in records}) == 1
    assert all(r.accepted for r in records)


def test_one_shot_checks_a_timed_out_duplicate_once_per_loan(toy_deps, monkeypatch):
    """Duplicate samples are served by the loan's check memo. A TIMEOUT is
    kept by its loan alone: a duplicate of a timed-out script is not checked
    again within one config's samples, but the next config's loan checks it."""
    slow = "Proof.\nintros x.\ncrawl.\nQed."
    deps = toy_deps(scripted([{"theorem": "weak_refl", "completions": [C3_PROOF, slow]}]))
    raw_checks = []
    check_proof = SessionHandle.check_proof

    def timing_out(self, statement, script):
        if not isinstance(self, driver.BorrowedSession):
            raw_checks.append(script)
            if script == slow:
                return ProofCheckResult(False, None, TIMEOUT_MESSAGE)
        return check_proof(self, statement, script)

    monkeypatch.setattr(SessionHandle, "check_proof", timing_out)
    target = get(deps.corpus, "weak_refl")
    config = RunConfig(tag="zs", mode="zs", decoding=DecodingParams(n=4))
    with contextlib.closing(FileWalk(deps.prover)) as walk:
        first = prove(target, config, deps, walk)
        second = prove(target, replace(config, tag="zs-again"), deps, walk)
    for records in (first, second):
        assert [r.accepted for r in records] == [True, False, True, False]
        assert [r.error_message for r in records] == ["", TIMEOUT_MESSAGE, "", TIMEOUT_MESSAGE]
    assert raw_checks == [C3_PROOF, slow, slow]


def test_one_shot_fs_modes_build_and_check(toy_deps):
    deps = toy_deps()
    for tag in ("fs-rand", "fs-sim"):
        config = RunConfig(tag=tag, mode=tag, k_shots=2, decoding=DecodingParams(n=2), seed=11)
        records = prove_alone(get(deps.corpus, "union_incl"), config, deps)
        assert len(records) == 2


def test_determinism_byte_identical(toy_deps):
    config = RunConfig(tag="fs-sim", mode="fs-sim", k_shots=2, decoding=DecodingParams(n=2), seed=11)

    def run():
        deps = toy_deps()
        out = []
        for name in ("union_incl", "trans_incl", "weak_refl", "G_wmon"):
            out.extend(prove_alone(get(deps.corpus, name), config, deps))
        return json.dumps(out, sort_keys=True, default=vars)

    assert run() == run()


def test_no_leakage_in_prompts_and_turns(toy_deps):
    deps = toy_deps()
    for name in ("union_incl", "trans_incl", "weak_refl", "G_wmon"):
        target = get(deps.corpus, name)
        reference = target.proof_text
        for tag in ("zs", "fs-rand", "fs-sim", "zs+lem", "fs+lem"):
            config = RunConfig(
                tag=tag, mode=tag,
                k_shots=0 if tag.startswith("zs") else 2,
                n_lemmas=2, decoding=DecodingParams(n=1), seed=11,
            )
            for record in prove_alone(target, config, deps):
                for turn in record.turns:
                    assert reference not in turn.prompt_delta


# -- interactive --------------------------------------------------------------


def interactive_config(tag="inter", max_turns=10, max_queries=3):
    return RunConfig(
        tag=tag, mode="zs", loop="interactive",
        decoding=DecodingParams(n=1), max_turns=max_turns, max_queries=max_queries,
    )


def test_interactive_query_then_proof(toy_deps):
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
    [record] = prove_alone(get(deps.corpus, "G_wmon"), interactive_config(), deps)
    assert record.accepted
    tool_calls = [c for t in record.turns for c in t.tool_calls]
    assert len(tool_calls) == 1
    command, argument, output = tool_calls[0]
    assert (command, argument) == ("Print", "G")
    assert "function A A" in output
    assert len(record.turns) <= 10
    assert record.proof_script.endswith("Qed.")


def test_an_interactive_query_ending_in_a_period_gets_the_tables_answer(toy_deps):
    """The session adds the query's terminator, so the argument drops one."""
    deps = toy_deps(scripted([{"theorem": "G_wmon", "completions": ["QUERY Check nat.", ""]}]))
    [record] = prove_alone(get(deps.corpus, "G_wmon"), interactive_config(), deps)
    assert record.turns[0].tool_calls == (("Check", "nat", "nat\n     : Set"),)


def test_interactive_name_collision_recovery(toy_deps):
    deps = toy_deps(
        scripted(
            [{
                "theorem": "G_evolve",
                "completions": [
                    "intro R.",
                    "intro RR.",
                    "apply evolve_step; auto.",
                    "Qed.",
                ],
            }]
        )
    )
    target = synthetic_record(
        "G_evolve",
        "Lemma G_evolve: forall (R0 : relation2 X Y) (n : nat), "
        "incl (comp (star B) (UExp G R0 n)) (UExp G R0 (S n)).",
    )
    [record] = prove_alone(target, interactive_config(), deps)
    assert record.accepted
    feedback = [t.prompt_delta for t in record.turns]
    assert any("R is already used." in delta for delta in feedback)
    assert "intro RR." in record.proof_script


def test_interactive_on_the_real_backend_feeds_back_the_shown_state(toy_deps, monkeypatch):
    """On backend = real a step reports no state: the state fed back at the
    opening and after a turn that ran its tactics is the toplevel's reply
    to one `Show.` each."""
    sent = []
    send = driver.RealCoqSession._send
    monkeypatch.setattr(driver.RealCoqSession, "_send",
                        lambda session, text: sent.append(text) or send(session, text))
    deps = replace(
        toy_deps(scripted([{"theorem": "l", "completions": ["intros x.", "Qed."]}])),
        prover=SessionConfig(backend="real", prover_command=STUB_COMMAND),
    )
    statement = "Lemma l : forall x y : nat, x = y."
    [record] = prove_alone(synthetic_record("l", statement), interactive_config(), deps)
    assert record.accepted and record.proof_script == "intros x. Qed."
    shown = [ProofState((), ("forall x y : nat, x = y",), (1, 1)),
             ProofState(((("x",), "nat"),), ("forall y : nat, x = y",), (1, 1))]
    assert [turn.prompt_delta for turn in record.turns] == [
        deps.templates.render("interactive.state", state=render_proof_state(state))
        for state in shown
    ]
    assert sent == [statement, "Show.", "intros x.", "Show.", "Qed.", "BackTo 1."]


def test_interactive_on_the_real_backend_with_a_rejected_statement_is_malformed(toy_deps):
    """A statement the toplevel rejects ends the attempt before any model
    call: one malformed record failing at step -1 with the toplevel's error.
    Here the toplevel rejects it as nested: its prelude leaves a proof open."""
    provider = scripted([], default=None)
    deps = replace(toy_deps(provider),
                   prover=SessionConfig(backend="real", prover_command=STUB_COMMAND))
    text = "Lemma k : True. Proof. Lemma nested : True. Proof. admit. Admitted."
    sentences = tuple(segment_sentences(text))
    target = TheoremRecord(id="synthetic.v::nested", name="nested",
                           source=SourceFile("synthetic.v", text, sentences),
                           statement_index=2, proof_end=len(sentences), index_in_file=1)
    [record] = prove_alone(target, interactive_config(), deps)
    assert (record.accepted, record.completion_kind, record.turns) == (False, "malformed", [])
    assert record.failing_step == (
        -1, "Lemma nested : True.", "Error: Nested proofs are not supported.")


def test_an_interactive_row_for_a_rejected_statement_counts_its_dropped_examples(toy_deps):
    """The row of a statement the toplevel rejects carries its prompt's
    dropped_examples, as every other row does."""
    deps = replace(toy_deps(scripted([], default=None)),
                   prover=SessionConfig(backend="real", prover_command=STUB_COMMAND))
    text = "Lemma k : True. Proof. Lemma nested : True. Proof. admit. Admitted."
    sentences = tuple(segment_sentences(text))
    target = TheoremRecord(id="synthetic.v::nested", name="nested",
                           source=SourceFile("synthetic.v", text, sentences),
                           statement_index=2, proof_end=len(sentences), index_in_file=1)
    config = RunConfig(tag="fs-inter", mode="fs-rand", loop="interactive", k_shots=2,
                       decoding=DecodingParams(n=1))
    whole = agent._build_target_prompt(target, config, deps, interactive=True)
    config = replace(config, max_prompt_chars=sum(len(m.content) for m in whole.messages) - 1)
    assert agent._build_target_prompt(target, config, deps, interactive=True).dropped_examples == 1
    [record] = prove_alone(target, config, deps)
    assert (record.completion_kind, record.failing_step[0]) == ("malformed", -1)
    assert record.dropped_examples == 1


def test_interactive_executes_the_sentences_it_segmented(toy_deps, monkeypatch):
    """Each reply is segmented once, by parse_completion; the tactics it holds
    reach the session as those sentences and are not segmented again."""
    replies = [
        "unfold wmonotonic, G; intuition.\napply wunfold; auto.",
        "Qed.",
    ]
    deps = toy_deps(scripted([{"theorem": "G_wmon", "completions": replies}]))
    target = get(deps.corpus, "G_wmon")
    segmented = []
    for module in (driver, prompting):
        segment = module.segment_sentences

        def counted(text, segment=segment):
            segmented.append(text)
            return segment(text)

        monkeypatch.setattr(module, "segment_sentences", counted)
    [record] = prove_alone(target, interactive_config(), deps)
    assert record.accepted
    assert record.proof_script == "unfold wmonotonic, G; intuition. apply wunfold; auto. Qed."
    assert segmented == replies


@pytest.mark.parametrize("reply", ["Proof.", "```coq\nProof using x.\n```", "Proof. (* next *)"])
def test_a_turn_reply_of_only_a_proof_opener_is_noise(reply):
    assert agent._parse_turn_reply(reply, "Lemma t: True.") == ("noise", None, None)


def test_turn_tactics_are_the_parsed_sentences_less_opener_and_appended_qed():
    kind, tactics, _ = agent._parse_turn_reply(
        "Lemma t: True.\nProof using x.\nintros x. auto.", "Lemma t: True."
    )
    assert kind == "tactics"
    assert [s.text for s in tactics] == ["intros x.", "auto."]


def test_interactive_stall_terminates(toy_deps):
    deps = toy_deps(
        scripted([{"theorem": "G_wmon", "completions": ["", "  "]}], default="")
    )
    [record] = prove_alone(get(deps.corpus, "G_wmon"), interactive_config(), deps)
    assert not record.accepted
    assert record.completion_kind == "malformed"
    assert len(record.turns) == 2


def test_interactive_refusal_terminates(toy_deps):
    deps = toy_deps(scripted([{"theorem": "G_wmon", "completions": [REFUSAL_TEXT]}]))
    [record] = prove_alone(get(deps.corpus, "G_wmon"), interactive_config(), deps)
    assert not record.accepted
    assert record.completion_kind == "refusal"


def test_interactive_turn_budget(toy_deps):
    deps = toy_deps(
        scripted([{"theorem": "G_wmon", "completions": ["idtac nonsense."]}])
    )
    [record] = prove_alone(
        get(deps.corpus, "G_wmon"), interactive_config(max_turns=4), deps
    )
    assert not record.accepted
    assert record.budget_exhausted
    assert len(record.turns) == 4


def test_interactive_query_budget(toy_deps):
    deps = toy_deps(scripted([{"theorem": "G_wmon", "completions": ["QUERY Check nat"]}]))
    [record] = prove_alone(
        get(deps.corpus, "G_wmon"), interactive_config(max_turns=10, max_queries=2), deps
    )
    assert not record.accepted
    assert record.budget_exhausted
    tool_calls = [c for t in record.turns for c in t.tool_calls]
    assert len(tool_calls) == 2  # third attempt tripped the ceiling


@pytest.mark.parametrize("failure", [driver.SessionDead("prover exited"),
                                     driver.SpawnFailure("cannot respawn")])
def test_interactive_query_harness_failure_propagates(toy_deps, monkeypatch, failure):
    """Only a rejected query is the model's: a prover that dies during a
    QUERY ends the run instead of becoming the query's output."""

    def dying_query(self, command, argument):
        raise failure

    monkeypatch.setattr(mockprover.MockSession, "query", dying_query)
    deps = toy_deps(scripted([{"theorem": "G_wmon", "completions": ["QUERY Print G"]}]))
    with pytest.raises(type(failure)):
        prove_alone(get(deps.corpus, "G_wmon"), interactive_config(), deps)


def test_interactive_wall_clock_budget(toy_deps):
    deps = toy_deps()
    config = RunConfig(
        tag="i", mode="zs", loop="interactive",
        decoding=DecodingParams(n=1), max_turns=10, wall_clock=1e-9,  # spent before turn 1
    )
    [record] = prove_alone(get(deps.corpus, "G_wmon"), config, deps)
    assert record.budget_exhausted
    assert record.turns == []


def test_repair_wall_clock_budget(toy_deps):
    deps = toy_deps(
        scripted([{"theorem": "weak_refl", "completions": ["Proof.\neauto.\nQed."]}])
    )
    config = RunConfig(
        tag="rep", mode="zs", loop="repair", repair_rounds=3,
        decoding=DecodingParams(n=1), wall_clock=1e-9,  # spent before round 1
    )
    records = prove_alone(get(deps.corpus, "weak_refl"), config, deps)
    assert len(records) == 1  # round 0 only; no repair rounds started


# -- repair -------------------------------------------------------------------


def repair_config(rounds=2, n=1):
    return RunConfig(
        tag="rep", mode="zs", loop="repair",
        repair_rounds=rounds, decoding=DecodingParams(n=n),
    )


def test_repair_fixes_hallucinated_reference(toy_deps, fixtures_dir):
    deps = toy_deps(ScriptedProvider(fixtures_dir / "provider_script.json"))
    target = synthetic_record("bisimulation_bisim", "Lemma bisimulation_bisim: bisimulation bisim.")
    records = prove_alone(target, repair_config(), deps)
    assert len(records) == 2
    round0, round1 = records
    assert not round0.accepted
    assert "stutter_bisim" in round0.error_message
    assert round1.round == 1
    assert round1.accepted


def test_repair_early_stop_when_round0_accepted(toy_deps):
    deps = toy_deps(scripted([{"theorem": "weak_refl", "completions": [C3_PROOF]}]))
    records = prove_alone(get(deps.corpus, "weak_refl"), repair_config(n=3), deps)
    assert len(records) == 3  # exactly n, no repair rounds
    assert all(r.round == 0 for r in records)


def test_repair_all_rounds_fail_record_count(toy_deps):
    provider = scripted(
        [
            {
                "theorem": "weak_refl",
                "last_message_contains": "failed with error",
                "completions": ["Proof.\nidtac.\nQed."],
            },
            {
                "theorem": "weak_refl",
                "completions": ["Proof.\neauto.\nQed.", "Proof.\ntauto.\nQed."],
            },
        ]
    )
    deps = toy_deps(provider)
    records = prove_alone(get(deps.corpus, "weak_refl"), repair_config(rounds=3, n=2), deps)
    # n=2 round-0 records with 2 unique failing scripts, then 3 rounds x 2 chains
    assert len(records) == 2 + 3 * 2
    assert not any(r.accepted for r in records)
    assert [r.round for r in records] == [0, 0, 1, 1, 2, 2, 3, 3]


def test_repair_queues_a_repeated_failing_script_once(toy_deps):
    provider = scripted([
        {"theorem": "weak_refl", "last_message_contains": "failed with error",
         "completions": ["Proof.\nidtac.\nQed."]},
        {"theorem": "weak_refl", "completions": ["Proof.\neauto.\nQed."]},
    ])
    deps = toy_deps(provider)
    records = prove_alone(get(deps.corpus, "weak_refl"), repair_config(rounds=2, n=3), deps)
    # 3 identical round-0 scripts make one repair chain, not three
    assert [r.round for r in records] == [0, 0, 0, 1, 2]
    assert not any(r.accepted for r in records)


def test_repair_feedback_after_a_reply_that_is_no_proof(toy_deps):
    """A repair round whose reply is not a proof leaves no prover error to
    feed back, so the next round is told only that the proof was rejected."""
    provider = scripted([
        {"theorem": "weak_refl", "last_message_contains": "The proof was not accepted.",
         "completions": [C3_PROOF]},
        {"theorem": "weak_refl", "last_message_contains": "failed with error",
         "completions": [REFUSAL_TEXT]},
        {"theorem": "weak_refl", "completions": ["Proof.\neauto.\nQed."]},
    ])
    deps = toy_deps(provider)
    records = prove_alone(get(deps.corpus, "weak_refl"), repair_config(rounds=2), deps)
    assert [(r.round, r.completion_kind, r.accepted) for r in records] == [
        (0, prompting.PROOF, False), (1, prompting.REFUSAL, False), (2, prompting.PROOF, True)]
    assert "assistant.\n\nThe proof was not accepted.\n\n" in records[2].turns[0].prompt_delta


# -- ensemble -----------------------------------------------------------------


def ensemble_config(strategies, n=5):
    return RunConfig(
        tag="ens", mode="zs", loop="ensemble",
        strategies=tuple(strategies), decoding=DecodingParams(n=n),
    )


def test_ensemble_budget_split(toy_deps):
    deps = toy_deps(
        scripted(
            [
                {"theorem": "trans_incl", "variant_id": "base",
                 "completions": ["Proof.\nfirstorder.\nQed."]},
                {"theorem": "trans_incl", "variant_id": "simple-tactics-first",
                 "completions": ["Proof.\nauto.\nQed."]},
                {"theorem": "trans_incl", "variant_id": "no-lemma-use",
                 "completions": ["Proof.\nconstructor.\nQed."]},
            ]
        )
    )
    config = ensemble_config(["simple-tactics-first", "no-lemma-use"], n=5)
    records = prove_alone(get(deps.corpus, "trans_incl"), config, deps)
    by_variant = {}
    for record in records:
        by_variant.setdefault(record.variant_id, []).append(record)
    assert len(by_variant["base"]) == 3
    assert len(by_variant["simple-tactics-first"]) == 1
    assert len(by_variant["no-lemma-use"]) == 1
    assert len(records) == 5


def test_ensemble_skips_a_variant_whose_share_of_n_is_zero(toy_deps):
    deps = toy_deps(scripted([{"theorem": "trans_incl", "completions": ["Proof.\nauto.\nQed."]}]))
    config = ensemble_config(["simple-tactics-first", "no-lemma-use"], n=1)
    records = prove_alone(get(deps.corpus, "trans_incl"), config, deps)
    assert [(r.variant_id, r.candidate_index) for r in records] == [("base", 0)]


def test_ensemble_proves_what_base_misses(toy_deps):
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
    config = ensemble_config(["simple-tactics-first"], n=5)
    records = prove_alone(get(deps.corpus, "trans_incl"), config, deps)
    base = [r for r in records if r.variant_id == "base"]
    variant = [r for r in records if r.variant_id == "simple-tactics-first"]
    assert not any(r.accepted for r in base)
    assert any(r.accepted for r in variant)
    # monotone: ensemble-proven superset of base-proven
    assert {r.theorem_id for r in records if r.accepted} >= {
        r.theorem_id for r in base if r.accepted
    }


def test_ensemble_empty_strategies_rejected():
    with pytest.raises(PromptError, match="non-empty strategy list"):
        RunConfig(tag="ens", mode="zs", loop="ensemble", strategies=())
    one_shot = RunConfig(tag="ens", mode="zs", strategies=())
    with pytest.raises(PromptError, match="non-empty strategy list"):
        replace(one_shot, loop="ensemble")  # replace re-runs the check


# -- session lifecycle --------------------------------------------------------

LIFECYCLE_CONFIGS = {
    "one_shot": RunConfig(tag="zs", mode="zs", decoding=DecodingParams(n=2)),
    "interactive": RunConfig(tag="inter", mode="zs", loop="interactive", max_turns=3),
    "repair": RunConfig(
        tag="rep", mode="zs", loop="repair", repair_rounds=1, decoding=DecodingParams(n=2)
    ),
    "ensemble": RunConfig(
        tag="ens", mode="zs", loop="ensemble", strategies=("simple-tactics-first",),
        decoding=DecodingParams(n=2),
    ),
}


class FailingProvider(Provider):
    """Delegates to `inner`, except that call number `fail_on` raises."""

    def __init__(self, inner: Provider, fail_on: int | None):
        self.inner = inner
        self.fail_on = fail_on
        self.calls = 0

    def complete(self, prompt, params):
        self.calls += 1
        if self.calls == self.fail_on:
            raise ProviderError(503, "service unavailable")
        return self.inner.complete(prompt, params)


@pytest.mark.parametrize("fail_on", [None, 2])
@pytest.mark.parametrize("loop", sorted(LIFECYCLE_CONFIGS))
def test_every_opened_session_is_closed_once(toy_deps, started, loop, fail_on):
    deps = toy_deps()
    deps.provider = FailingProvider(deps.provider, fail_on)
    try:
        for targets in by_file(deps.corpus.test):
            with contextlib.closing(FileWalk(deps.prover)) as walk:
                for target in targets:
                    with contextlib.closing(walk(target)) as loan:
                        lent_in = (loan._snapshot(), loan.current_state())
                    try:
                        prove(target, LIFECYCLE_CONFIGS[loop], deps, walk)
                    finally:  # the loan left the session as it was lent
                        with contextlib.closing(walk(target)) as loan:
                            assert (loan._snapshot(), loan.current_state()) == lent_in
    except ProviderError:
        assert fail_on is not None
    else:
        assert fail_on is None
    assert started
    assert [s.closes for s in started] == [1] * len(started)


def test_prove_checks_a_script_two_ensemble_variants_propose_once(toy_deps, monkeypatch):
    deps = toy_deps(scripted([{"theorem": "trans_incl", "completions": ["Proof.\nauto.\nQed."]}]))
    raw_checks = []
    check_proof = SessionHandle.check_proof

    def counted(self, statement, script):
        if not isinstance(self, driver.BorrowedSession):
            raw_checks.append(script)
        return check_proof(self, statement, script)

    monkeypatch.setattr(SessionHandle, "check_proof", counted)
    records = prove_alone(get(deps.corpus, "trans_incl"), LIFECYCLE_CONFIGS["ensemble"], deps)
    assert [r.variant_id for r in records] == ["base", "simple-tactics-first"]
    assert len({r.proof_script for r in records}) == 1
    assert all(r.accepted for r in records)
    assert raw_checks == ["Proof.\nauto.\nQed."]


# -- one walked-forward session per file ---------------------------------------


def walk_config(project) -> SessionConfig:
    return SessionConfig(backend="mock", mock_table=project["table"])


def by_file(records):
    files = {}
    for record in records:
        files.setdefault(record.file, []).append(record)
    return list(files.values())


def source_before(record) -> str:
    """The text of the record's file up to its statement."""
    return record.source.text.encode("utf-8")[: record.statement.span[0]].decode("utf-8")


@pytest.mark.parametrize("project_name", ["walk", "fixtures", "long"])
def test_sliced_prelude_equals_segmentation(project_name, walk_project, toy_corpus, long_project):
    corpus = {"walk": walk_project["corpus"], "fixtures": toy_corpus,
              "long": long_project["corpus"]}[project_name]
    for record in corpus.records:  # test and train, before and after the last test
        assert record.prelude == tuple(segment_sentences(source_before(record)))


@pytest.mark.parametrize("project_name", ["walk", "fixtures"])
def test_walked_session_matches_a_fresh_one_at_every_target(
    project_name, walk_project, toy_corpus, mock_table
):
    if project_name == "walk":
        corpus, table = walk_project["corpus"], walk_project["table"]
    else:
        corpus, table = toy_corpus, mock_table
    for targets in by_file(corpus.test):
        with contextlib.closing(FileWalk(SessionConfig(backend="mock", mock_table=table))) as walk:
            for position, target in enumerate(targets):
                fresh_config = SessionConfig(
                    backend="mock", mock_table=table,
                    prelude=segment_sentences(source_before(target)),
                )
                with contextlib.closing(walk(target)) as walked, \
                        contextlib.closing(start_session(fresh_config)) as fresh:
                    assert walked.current_state() == fresh.current_state()
                    for script in (target.proof_text, WALK_WRONG):
                        assert walked.check_proof(target.statement, script) == fresh.check_proof(
                            target.statement, script
                        )
                    assert walked.check_proof(target.statement, target.proof_text).accepted
                    if position % 2 == 0:  # leave an open proof, as an interactive loop would
                        opened = walked.execute(target.statement)
                        assert opened == fresh.execute(target.statement)
                        assert walked.execute("intros x.") == fresh.execute("intros x.")
                        assert fresh.current_state() is not None
                        assert walked.current_state() == fresh.current_state()


def test_walk_meets_a_rejected_prelude_sentence_like_a_fresh_start(tmp_path):
    project = build_walk_project(tmp_path, broken_after="a2")
    table = project["table"]
    targets = by_file(project["corpus"].test)[0]
    assert [t.name for t in targets] == ["a1", "a3", "a4", "a5"]
    with contextlib.closing(FileWalk(walk_config(project))) as walk:
        walk(targets[0]).close()
        for target in targets[1:]:
            with pytest.raises(PreludeError) as walked:
                walk(target)
            with pytest.raises(PreludeError) as fresh:
                start_session(SessionConfig(
                    backend="mock", mock_table=table,
                    prelude=segment_sentences(source_before(target)),
                ))
            assert walked.value.step_index == fresh.value.step_index
            assert walked.value.message == fresh.value.message


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("fail_on", [None, 2])
def test_run_eval_closes_every_file_session_once(walk_project, started, workers, fail_on):
    corpus = walk_project["corpus"]
    deps = AgentDeps(
        corpus=corpus,
        provider=FailingProvider(ScriptedProvider(walk_project["script"]), fail_on),
        prover=walk_config(walk_project),
        templates=TemplateSet.load(),
    )
    manifest = [LIFECYCLE_CONFIGS["one_shot"], LIFECYCLE_CONFIGS["interactive"]]
    try:
        run_eval(corpus, manifest, deps, ClassifierRules.load(), workers=workers)
    except ProviderError:
        assert fail_on is not None
    else:
        assert fail_on is None
        assert len(started) == 2  # one per file, whatever the number of configs
    assert started
    assert [s.closes for s in started] == [1] * len(started)


@pytest.mark.parametrize("workers", [1, 3])
def test_run_eval_checks_each_distinct_pair_once(walk_project, monkeypatch, workers):
    corpus = walk_project["corpus"]
    checked = []
    check_proof = SessionHandle.check_proof

    def counted(self, statement, script):
        checked.append((statement.text, script))
        return check_proof(self, statement, script)

    monkeypatch.setattr(SessionHandle, "check_proof", counted)
    deps = AgentDeps(
        corpus=corpus, provider=ScriptedProvider(walk_project["script"]),
        prover=walk_config(walk_project), templates=TemplateSet.load(),
        index=build_index(corpus.train),
    )
    manifest = [
        RunConfig(tag="zs", mode="zs", decoding=DecodingParams(n=2)),
        RunConfig(tag="zs+lem", mode="zs+lem", decoding=DecodingParams(n=3)),
        RunConfig(tag="fs", mode="fs-sim", k_shots=2, decoding=DecodingParams(n=2)),
        LIFECYCLE_CONFIGS["interactive"], LIFECYCLE_CONFIGS["repair"],
        LIFECYCLE_CONFIGS["ensemble"],
    ]
    attempts = run_eval(corpus, manifest, deps, ClassifierRules.load(), workers=workers)
    statements = {t.id: t.statement.text for t in corpus.test}
    pairs = {(statements[r.theorem_id], r.proof_script)
             for records in attempts.values() for r in records
             if r.completion_kind == "proof" and r.config_tag != "inter"}
    assert sum(len(r) for r in attempts.values()) > 2 * len(pairs)
    assert sorted(checked) == sorted(pairs)  # each once, across configs


def test_walk_drops_its_check_memo_when_it_moves_on(walk_project):
    targets = by_file(walk_project["corpus"].test)[0]
    with contextlib.closing(FileWalk(walk_config(walk_project))) as walk:
        with contextlib.closing(walk(targets[0])) as loan:
            loan.check_proof(targets[0].statement, WALK_WRONG)
            memo = loan._memo
        assert len(memo) == 1
        with contextlib.closing(walk(targets[0])) as again:
            assert again._memo is memo
        with contextlib.closing(walk(targets[1])) as moved:
            assert moved._memo == {} and moved._memo is not memo


def test_walk_starts_afresh_for_another_file_or_an_earlier_target(walk_project, started):
    corpus, table = walk_project["corpus"], walk_project["table"]
    a1, a3, b0 = (corpus.by_id(i) for i in ("a.v::a1", "a.v::a3", "b.v::b0"))
    with contextlib.closing(FileWalk(SessionConfig(backend="mock", mock_table=table))) as walk:
        for target, opened in ((a1, 1), (a3, 1), (a1, 2), (b0, 3), (a3, 4)):
            fresh_config = SessionConfig(backend="mock", mock_table=table,
                                         prelude=segment_sentences(source_before(target)))
            with contextlib.closing(walk(target)) as walked, \
                    contextlib.closing(start_session(fresh_config)) as fresh:
                assert len(started) == opened
                assert walked.current_state() == fresh.current_state()
                assert walked.check_proof(target.statement, target.proof_text).accepted
