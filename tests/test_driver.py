"""Mock-backed session contract: stepwise execution, rollback, queries,
whole-proof checks. The same properties gate the real backend in the
integration tier. The real backend's protocol code (prompt reading, undo,
restart and replay) runs here against tests/fixtures/stub_toplevel.py."""

from __future__ import annotations

import logging
import shlex
import sys
from contextlib import closing
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coqharness.agent import SessionFactory
from coqharness.driver import (
    ERROR,
    TIMEOUT_MESSAGE,
    BorrowedSession,
    PreludeError,
    QueryRejected,
    RealCoqSession,
    SessionConfig,
    SessionDead,
    start_session,
)
from coqharness.mockprover import (
    DEFAULT_TACTIC_FAILURE,
    INCOMPLETE_PROOF_MESSAGE,
    NO_FOCUSED_PROOF_MESSAGE,
    NO_MORE_GOALS_MESSAGE,
)
from coqharness.proofstate import ProofState, parse_proof_state
from coqharness.sentences import LexicalError, segment_sentences


def test_session_config_validation():
    with pytest.raises(ValueError):
        SessionConfig(timeout_per_step=0)
    with pytest.raises(ValueError):
        SessionConfig(backend="real", prover_command="  ")


def test_trivial_proof_stepwise(mock_session):
    first = mock_session.execute("Lemma weak_refl: forall x, Weak T x x.")
    assert first.ok and first.state is not None
    assert first.state.goals == ("forall x, Weak T x x",)
    assert "T" in first.state.hypothesis_names

    assert mock_session.execute("Proof.").ok
    step = mock_session.execute("intros x.")
    assert step.ok and not step.proof_complete
    assert "x" in step.state.hypothesis_names
    assert mock_session.execute("constructor.").ok
    last_tactic = mock_session.execute("reflexivity.")
    assert last_tactic.ok and last_tactic.state is None
    assert last_tactic.message == NO_MORE_GOALS_MESSAGE
    closing = mock_session.execute("Qed.")
    assert closing.ok and closing.proof_complete


def test_unknown_theorem_rejects_tactics(mock_session):
    assert mock_session.execute("Lemma mystery: True.").ok
    result = mock_session.execute("auto.")
    assert result.outcome == ERROR
    assert result.message == DEFAULT_TACTIC_FAILURE


def test_intro_name_collision(mock_session):
    mock_session.execute("Lemma G_evolve: forall (R0 : relation2 X Y) (n : nat), incl (comp (star B) (UExp G R0 n)) (UExp G R0 (S n)).")
    result = mock_session.execute("intro R.")
    assert result.outcome == ERROR
    assert result.message == "R is already used."
    # rollback: the failed step left no trace; the accepted script still runs
    assert mock_session.execute("intro RR.").ok


def test_premature_qed_and_stray_closer(mock_session):
    assert mock_session.execute("Qed.").message == NO_FOCUSED_PROOF_MESSAGE
    mock_session.execute("Lemma weak_refl: forall x, Weak T x x.")
    result = mock_session.execute("Qed.")
    assert result.outcome == ERROR
    assert result.message == INCOMPLETE_PROOF_MESSAGE


def test_admitted_closes_without_completing(mock_session):
    mock_session.execute("Lemma weak_refl: forall x, Weak T x x.")
    result = mock_session.execute("Admitted.")
    assert result.ok and not result.proof_complete
    assert mock_session.current_state() is None


def test_execute_rollback_state_equality(mock_session):
    mock_session.execute("Lemma weak_refl: forall x, Weak T x x.")
    mock_session.execute("intros x.")
    before = mock_session.current_state()
    failed = mock_session.execute("nonsense tactic.")
    assert failed.outcome == ERROR
    assert mock_session.current_state() == before


def test_query_happy_and_rejected(mock_session):
    assert "Set" in mock_session.query("Check", "nat")
    assert "function A A" in mock_session.query("Print", "G")
    with pytest.raises(QueryRejected) as err:
        mock_session.query("Print", "undefined_xyz")
    assert "not found" in err.value.message
    with pytest.raises(QueryRejected):
        mock_session.query("Compute", "nat")  # not in the allow-list
    with pytest.raises(QueryRejected):
        mock_session.query("Check", "   ")


def test_query_preserves_proof_state(mock_session):
    mock_session.execute("Lemma weak_refl: forall x, Weak T x x.")
    before = mock_session.current_state()
    mock_session.query("Check", "nat")
    assert mock_session.current_state() == before


def test_check_proof_accepts_and_restores(mock_session):
    result = mock_session.check_proof(
        "Lemma weak_refl: forall x, Weak T x x.",
        "Proof. intros x. constructor. reflexivity. Qed.",
    )
    assert result.accepted and result.failing_step is None
    assert len(result.states) >= 3
    again = mock_session.check_proof(
        "Lemma weak_refl: forall x, Weak T x x.",
        "Proof. intros x. constructor. reflexivity. Qed.",
    )
    assert again.accepted == result.accepted
    assert mock_session.current_state() is None  # restored to top level


def test_check_proof_failing_step_index(mock_session):
    result = mock_session.check_proof(
        "Lemma weak_refl: forall x, Weak T x x.",
        "Proof. exact O. Qed.",
    )
    assert not result.accepted
    index, sentence = result.failing_step
    assert index == 1 and sentence.text == "exact O."
    assert result.message == DEFAULT_TACTIC_FAILURE


def test_check_proof_incomplete_without_closer(mock_session):
    result = mock_session.check_proof(
        "Lemma weak_refl: forall x, Weak T x x.",
        "Proof. intros x. constructor.",
    )
    assert not result.accepted and result.failing_step is None
    assert "incomplete" in result.message


def test_check_proof_lexical_error_distinct(mock_session):
    with pytest.raises(LexicalError):
        mock_session.check_proof("Lemma weak_refl: forall x, Weak T x x.", "auto")


def test_prelude_executes_and_fails(mock_table):
    from coqharness.sentences import segment_sentences

    ok_config = SessionConfig(
        backend="mock",
        mock_table=mock_table,
        prelude=list(segment_sentences("Require Import Arith. Definition two := 2.")),
    )
    session = start_session(ok_config)
    assert session.current_state() is None
    session.close()

    bad = SessionConfig(
        backend="mock",
        mock_table=mock_table,
        prelude=list(segment_sentences("Require Import NoSuchLib.")),
    )
    with pytest.raises(PreludeError) as err:
        start_session(bad)
    assert err.value.step_index == 0
    assert "Cannot find" in err.value.message


def test_scripted_states_are_served(tmp_path):
    table = {
        "theorems": {
            "two_goals": {
                "scripts": [
                    {
                        "steps": ["split.", "auto.", "auto.", "Qed."],
                        "states": [
                            "______(1/2)\nA\n______(2/2)\nB",
                            "______(2/2)\nB",
                            None,
                        ],
                    }
                ]
            }
        }
    }
    session = start_session(SessionConfig(backend="mock", mock_table=table))
    session.execute("Lemma two_goals: A /\\ B.")
    first = session.execute("split.")
    assert first.state.goal_index == (1, 2)
    second = session.execute("auto.")
    assert second.state.goal_index == (2, 2)
    third = session.execute("auto.")
    assert third.state is None and third.message == NO_MORE_GOALS_MESSAGE
    assert session.execute("Qed.").proof_complete
    session.close()


_sentences = st.lists(
    st.sampled_from(
        ["Proof.", "intros x.", "constructor.", "reflexivity.", "auto.", "Qed.",
         "intro R.", "nonsense.", "Admitted.", "exact I."]
    ),
    max_size=8,
)


@given(script=_sentences)
@settings(max_examples=120, deadline=None)
def test_property_errors_never_mutate_state(mock_table, script):
    session = start_session(SessionConfig(backend="mock", mock_table=mock_table))
    session.execute("Lemma weak_refl: forall x, Weak T x x.")
    for text in script:
        before = session.current_state()
        result = session.execute(text)
        if result.outcome == ERROR:
            assert session.current_state() == before
        if session.current_state() is None and result.ok:
            break
    session.close()


@given(script=_sentences)
@settings(max_examples=80, deadline=None)
def test_property_check_proof_is_side_effect_free(mock_table, script):
    session = start_session(SessionConfig(backend="mock", mock_table=mock_table))
    statement = "Lemma weak_refl: forall x, Weak T x x."
    body = " ".join(script) if script else "auto."
    first = session.check_proof(statement, body)
    second = session.check_proof(statement, body)
    assert first.accepted == second.accepted
    assert first.failing_step == second.failing_step
    assert first.message == second.message
    session.close()


# ---------------------------------------------------------------------------
# Real backend against the stub toplevel
# ---------------------------------------------------------------------------

STUB = Path(__file__).parent / "fixtures" / "stub_toplevel.py"
STUB_COMMAND = f"{shlex.quote(sys.executable)} {shlex.quote(str(STUB))}"


@pytest.fixture()
def stub_session():
    sessions = []

    def make(timeout_per_step: float = 20.0):
        session = start_session(SessionConfig(
            backend="real", prover_command=STUB_COMMAND, timeout_per_step=timeout_per_step,
            prelude=segment_sentences("Require A. Require B.")))
        sessions.append(session)
        return session

    yield make
    for session in sessions:
        session.close()


def test_real_restart_after_timeout_mid_reply(stub_session, caplog):
    session = stub_session(timeout_per_step=1.0)
    before = session._state_id
    with caplog.at_level(logging.WARNING, logger="coqharness.driver"):
        timed_out = session.execute("Emit 400000 3.")
    assert (timed_out.outcome, timed_out.message) == (ERROR, TIMEOUT_MESSAGE)
    assert session._state_id == before
    assert [r.getMessage() for r in caplog.records] == [
        "restarting the prover after a step timeout; replaying 2 sentences"
    ]
    # the killed prover's unread output never reaches the new one's replies
    after = session.execute("Check after.")
    assert after.ok and after.message == "Check after."
    assert session._state_id == before + 1


def test_real_error_that_moved_the_state_is_undone(stub_session):
    session = stub_session()
    before = session._state_id
    slipped = session.execute("Slip.")
    assert slipped.outcome == ERROR and slipped.message.startswith("Error: slipped")
    assert session._state_id == before
    assert session.query("Check", "nat") == "Check nat."
    assert session._state_id == before


def test_real_death_inside_check_proof_replays_history(stub_session, caplog):
    session = stub_session()
    before = session._state_id
    with caplog.at_level(logging.WARNING, logger="coqharness.driver"):
        with pytest.raises(SessionDead):
            session.check_proof("Lemma l: True.", "Proof. Quit.")
    assert [r.getMessage() for r in caplog.records] == [
        "restarting the prover after a prover exit; replaying 2 sentences"
    ]
    assert session._state_id == before
    again = session.execute("Check again.")
    assert again.ok and again.message == "Check again."


def test_real_large_reply_and_utf8(stub_session):
    session = stub_session()
    assert session.execute("Emit 131072 0.").message == "x" * 131072
    assert session.execute("Check α → β.").message == "Check α → β."


def test_real_close_closes_both_pipes(stub_session):
    session = stub_session()
    proc = session._proc
    session.close()
    assert proc.stdin.closed and proc.stdout.closed and proc.returncode is not None


def test_real_session_walks_a_file_like_fresh_starts(walk_project):
    factory = SessionFactory(SessionConfig(backend="real", prover_command=STUB_COMMAND))
    for file in ("a.v", "b.v"):
        targets = [t for t in walk_project["corpus"].test if t.file == file]
        with closing(factory.walk()) as walk:
            for target in targets:
                with closing(walk(target)) as walked, closing(factory(target)) as fresh:
                    # state id and accepted history: the stub's id counts sentences
                    assert walked._snapshot() == fresh._snapshot()
                    assert walked.check_proof(target.statement, target.proof_text) == \
                        fresh.check_proof(target.statement, target.proof_text)
                    assert walked.execute(target.statement) == fresh.execute(target.statement)
                    assert walked._snapshot() == fresh._snapshot()


def test_real_current_state_after_a_failed_step(stub_session):
    session = stub_session()
    assert session.current_state() is None
    opened = session.execute("Lemma l : forall x y : nat, x = y.")
    assert opened.state == ProofState((), ("forall x y : nat, x = y",), (1, 1))
    stepped = session.execute("intros x.")
    assert stepped.state == ProofState(((("x",), "nat"),), ("forall x y : nat, x = y",), (1, 1))
    failed = session.execute("intros y x.")
    assert (failed.outcome, failed.message) == (ERROR, "Error: x is already used.")
    assert session.current_state() == stepped.state
    assert session.execute("Qed.").proof_complete
    assert session.current_state() is None


def test_real_query_through_a_loan(stub_session):
    session = stub_session()
    before = session._snapshot()
    with closing(BorrowedSession(session, {})) as loan:
        assert loan.query("Check", " nat ") == "Check nat."
        with pytest.raises(QueryRejected, match="The reference nosuch was not found"):
            loan.query("Search", "nosuch")
        with pytest.raises(QueryRejected, match="allow-list"):
            loan.query("Compute", "1")
        assert loan._snapshot() == before
        assert loan._memo == {}  # a query is not a step: the memo stays in use
    assert session._snapshot() == before


def test_real_prelude_reads_no_states_and_ends_where_stepping_ends(monkeypatch):
    """A prelude replayed with no state parsing leaves the session where
    executing its sentences one by one does."""
    parsed = []
    monkeypatch.setattr(RealCoqSession, "_parse_state",
                        staticmethod(lambda response: parsed.append(response) or
                                     (parse_proof_state(response) if "____" in response else None)))
    prelude = segment_sentences(
        "Require A. Lemma k : True. Proof. intros h. Qed. Lemma l : forall x y : nat, x = y. "
        "Proof. intros x.")
    config = SessionConfig(backend="real", prover_command=STUB_COMMAND)
    with closing(start_session(replace(config, prelude=prelude))) as replayed, \
            closing(start_session(config)) as stepped:
        assert parsed == []
        assert all(stepped.execute(sentence).ok for sentence in prelude)
        assert len(parsed) == 6
        assert replayed._snapshot() == stepped._snapshot()
        assert replayed.current_state() == stepped.current_state() is not None
        assert replayed.execute("Qed.") == stepped.execute("Qed.")
        for script in ["Proof. intros a. Qed.", "Proof. intros a a. Qed.", "Proof. auto."]:
            checked = replayed.check_proof("Lemma m : forall a : nat, a = a.", script)
            assert checked == stepped.check_proof("Lemma m : forall a : nat, a = a.", script)
        assert replayed._snapshot() == stepped._snapshot()


def test_mock_prelude_reads_no_states_and_ends_where_stepping_ends():
    table = {"theorems": {"one": {"scripts": [["intros h.", "Qed."]]},
                          "two": {"scripts": [{"steps": ["split.", "auto.", "auto.", "Qed."],
                                               "states": ["______(1/2)\nA\n______(2/2)\nB"]}]}}}
    prelude = segment_sentences("Lemma one : True. Proof. intros h. Qed. Lemma two : A /\\ B. "
                                "Proof. split. auto.")
    config = SessionConfig(backend="mock", mock_table=table)
    with closing(start_session(config)) as stepped, \
            closing(start_session(replace(config, prelude=prelude))) as replayed:
        assert all(stepped.execute(sentence).ok for sentence in prelude)
        assert replayed._snapshot() == stepped._snapshot()
        assert replayed.current_state() == stepped.current_state() is not None
    with closing(start_session(config)) as session:
        session.set_prelude_mode(True)
        assert [session.execute(sentence).state for sentence in prelude] == [None] * len(prelude)


# ---------------------------------------------------------------------------
# The check memo of a lent session
# ---------------------------------------------------------------------------

CHECKS = [("Lemma l: True.", "Proof. auto. Qed."), ("Lemma l: True.", "Proof. Slip. Qed."),
          ("Lemma m: False.", "Proof. auto. Qed.")]


def test_memoized_check_equals_a_fresh_check(stub_session):
    lent, fresh = stub_session(), stub_session()
    memo: dict = {}
    for statement, script in CHECKS:
        with closing(BorrowedSession(lent, memo)) as first, \
                closing(BorrowedSession(lent, memo)) as second:
            checked = first.check_proof(statement, script)
            assert second.check_proof(statement, script) is checked
            assert checked == fresh.check_proof(statement, script)
    assert list(memo) == CHECKS
    assert lent._snapshot() == fresh._snapshot()


def test_timeouts_and_deaths_are_not_memoized(stub_session):
    session = stub_session(timeout_per_step=0.5)
    memo: dict = {}
    with closing(BorrowedSession(session, memo)) as loan:
        timed_out = loan.check_proof("Lemma l: True.", "Proof. Emit 400000 2. Qed.")
        assert timed_out.message == TIMEOUT_MESSAGE
        with pytest.raises(SessionDead):
            loan.check_proof("Lemma l: True.", "Proof. Quit.")
        with pytest.raises(LexicalError):
            loan.check_proof("Lemma l: True.", "Proof. (* open")
    assert memo == {}


def test_a_loan_that_executed_bypasses_the_memo(mock_session):
    statement, script = "Lemma t : True.", "Proof. exact I. Qed."
    stale = object()
    memo = {(statement, script): stale}
    with closing(BorrowedSession(mock_session, memo)) as loan:
        assert loan.check_proof(statement, script) is stale
        assert loan.execute("Check nat.").ok
        checked = loan.check_proof(statement, script)
    assert checked is not stale and checked.accepted
    assert checked == mock_session.check_proof(statement, script)
    assert memo == {(statement, script): stale}
