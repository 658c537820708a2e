"""Mock-backed session contract: stepwise execution, rollback, queries,
whole-proof checks. The same properties gate the real backend in the
integration tier. The real backend's protocol code (prompt reading, undo,
restart and replay) runs here against tests/fixtures/stub_toplevel.py, a
toplevel over the mock prover, given tests/fixtures/stub_table.json."""

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

from coqharness import driver
from coqharness.driver import (
    ERROR,
    OK,
    TIMEOUT_MESSAGE,
    BorrowedSession,
    FileWalk,
    PreludeError,
    ProofCheckResult,
    QueryRejected,
    SessionConfig,
    SessionDead,
    SessionHandle,
    SpawnFailure,
    start_session,
)
from coqharness import mockprover
from coqharness.mockprover import (
    DEFAULT_TACTIC_FAILURE,
    INCOMPLETE_PROOF_MESSAGE,
    NO_FOCUSED_PROOF_MESSAGE,
    NO_MORE_GOALS_MESSAGE,
)
from coqharness.proofstate import ProofState, parse_proof_state
from coqharness.sentences import LexicalError, segment_sentences
from golden import stub_command


def test_session_config_validation():
    with pytest.raises(ValueError):
        SessionConfig(timeout_per_step=0)
    with pytest.raises(ValueError):
        SessionConfig(backend="real", prover_command="  ")


def test_trivial_proof_stepwise(mock_session):
    assert mock_session.execute("Lemma weak_refl: forall x, Weak T x x.").ok
    first = mock_session.current_state()
    assert first.goals == ("forall x, Weak T x x",)
    assert "T" in first.hypothesis_names

    assert mock_session.execute("Proof.").ok
    step = mock_session.execute("intros x.")
    assert step.ok and not step.proof_complete
    assert "x" in mock_session.current_state().hypothesis_names
    assert mock_session.execute("constructor.").ok
    last_tactic = mock_session.execute("reflexivity.")
    assert last_tactic.ok and mock_session.current_state() is None
    assert last_tactic.message == NO_MORE_GOALS_MESSAGE
    closing = mock_session.execute("Qed.")
    assert closing.ok and closing.proof_complete


def test_unknown_theorem_rejects_tactics(mock_session):
    assert mock_session.execute("Lemma mystery: True.").ok
    result = mock_session.execute("auto.")
    assert result.outcome == ERROR
    assert result.message == f"Error: {DEFAULT_TACTIC_FAILURE}"


def test_intro_name_collision(mock_session):
    mock_session.execute("Lemma G_evolve: forall (R0 : relation2 X Y) (n : nat), incl (comp (star B) (UExp G R0 n)) (UExp G R0 (S n)).")
    result = mock_session.execute("intro R.")
    assert result.outcome == ERROR
    assert result.message == "Error: R is already used."
    # rollback: the failed step left no trace; the accepted script still runs
    assert mock_session.execute("intro RR.").ok


def test_a_name_repeated_in_one_intros_is_already_used():
    session = start_session(SessionConfig(backend="mock", mock_table={}))
    with closing(session):
        assert session.execute("Lemma m : forall a b : nat, a = b.").ok
        result = session.execute("intros a a.")
        assert (result.outcome, result.message) == (ERROR, "Error: a is already used.")
        # the failed step introduced nothing, so no name of it is used now
        assert session.execute("intros b a.").message == f"Error: {DEFAULT_TACTIC_FAILURE}"


def test_premature_qed_and_stray_closer(mock_session):
    assert mock_session.execute("Qed.").message == f"Error: {NO_FOCUSED_PROOF_MESSAGE}"
    mock_session.execute("Lemma weak_refl: forall x, Weak T x x.")
    result = mock_session.execute("Qed.")
    assert result.outcome == ERROR
    assert result.message == f"Error: {INCOMPLETE_PROOF_MESSAGE}"


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
    assert result.message == ""
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
    assert result.message == f"Error: {DEFAULT_TACTIC_FAILURE}"


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
    assert session.execute("split.").ok
    assert session.current_state().goal_index == (1, 2)
    assert session.execute("auto.").ok
    assert session.current_state().goal_index == (2, 2)
    third = session.execute("auto.")
    assert session.current_state() is None and third.message == NO_MORE_GOALS_MESSAGE
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

STUB_COMMAND = stub_command(Path(__file__).parent / "fixtures" / "stub_table.json")
NAT = "nat\n     : Set"  # the stub table's answer to `Check nat`


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
    assert session.query("Check", "nat") == NAT
    after = session.execute("Require C.")
    assert after.ok and after.message == ""
    assert session._state_id == before + 1


def test_a_rejected_real_prelude_line_names_its_index_and_leaves_no_prover(monkeypatch):
    spawned = []
    popen = driver.subprocess.Popen
    monkeypatch.setattr(driver.subprocess, "Popen",
                        lambda *args, **kwargs: spawned.append(popen(*args, **kwargs)) or spawned[-1])
    config = SessionConfig(backend="real", prover_command=STUB_COMMAND,
                           prelude=segment_sentences("Require A. Require nosuch. Require B."))
    with pytest.raises(PreludeError) as err:
        start_session(config)
    assert err.value.step_index == 1
    assert "The reference nosuch was not found" in err.value.message
    assert len(spawned) == 1 and spawned[0].poll() is not None


def test_real_error_that_moved_the_state_is_undone(stub_session):
    session = stub_session()
    before = session._state_id
    slipped = session.execute("Slip.")
    assert slipped.outcome == ERROR and slipped.message.startswith("Error: slipped")
    assert session._state_id == before
    assert session.query("Check", "nat") == NAT
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
    assert session.query("Check", "nat") == NAT


def test_real_exit_before_a_write_is_a_dead_session(stub_session, monkeypatch):
    """A prover that exits between the liveness check and the write of a
    sentence is a dead session (exit 4), not a broken pipe."""
    session = stub_session()
    proc = session._proc
    poll = proc.poll

    def exits_after_this_poll():
        monkeypatch.setattr(proc, "poll", poll)
        proc.kill()
        proc.wait()
        return None

    monkeypatch.setattr(proc, "poll", exits_after_this_poll)
    with pytest.raises(SessionDead, match="prover exited before reading its input"):
        session.execute("Check nat.")
    assert session._proc is None and proc.stdin.closed and proc.stdout.closed


def test_real_undo_without_a_reply_is_a_dead_session(stub_session, monkeypatch):
    """A prover that does not answer the undo after a failed step that moved
    the state is dead (exit 4): its timeout is not the step's."""
    session = stub_session()
    send = session._send

    def no_reply_to_undo(text):
        if text.startswith("BackTo"):
            raise TimeoutError("")
        return send(text)

    monkeypatch.setattr(session, "_send", no_reply_to_undo)
    with pytest.raises(SessionDead, match="no reply to BackTo"):
        session.execute("Slip.")
    assert session._proc is None


@pytest.mark.parametrize("reply, dead", [
    (None, "timeout while replaying after a restart"),
    ("Error: gone.\n", "replay after restart failed at 'Require B.': Error: gone."),
])
def test_real_replay_after_a_restart_that_fails_is_a_dead_session(
    stub_session, monkeypatch, reply, dead
):
    """A restart replays the accepted history, prelude included; a sentence
    of it that times out or is rejected leaves the prover in no known state,
    so the session is dead (exit 4), and no undo is sent."""
    session = stub_session(timeout_per_step=0.5)
    send, sent = session._send, []

    def replayed(text):
        sent.append(text)
        if text != "Require B.":
            return send(text)
        if reply is None:
            raise TimeoutError("")
        return reply

    monkeypatch.setattr(session, "_send", replayed)
    with pytest.raises(SessionDead, match=dead):
        session.execute("Emit 10 3.")
    assert sent == ["Emit 10 3.", "Require A.", "Require B."]


def test_real_timeouts_of_a_query_and_a_show_restart_the_prover(stub_session, caplog):
    """A query that times out is rejected and a `Show.` that does reads no
    state; either restarts the prover in the state it was in."""
    session = stub_session(timeout_per_step=0.5)
    with caplog.at_level(logging.WARNING, logger="coqharness.driver"):
        with pytest.raises(QueryRejected) as rejected:
            session.query("Check", "stall")
        assert rejected.value.message == TIMEOUT_MESSAGE
        assert session.execute("Lemma s : stall.").ok
        before = session._snapshot()
        assert session.current_state() is None
    assert [r.getMessage() for r in caplog.records] == [
        "restarting the prover after a step timeout; replaying 2 sentences",
        "restarting the prover after a step timeout; replaying 3 sentences",
    ]
    assert session._snapshot() == before and session.in_proof
    assert session.execute("Qed.").proof_complete


def test_real_current_state_reads_none_without_goals_or_from_a_display_it_cannot_parse(
    stub_session,
):
    session = stub_session()
    assert session.execute("Lemma g : garbled.").ok  # shown with no goal separator
    assert session.in_proof and session.current_state() is None
    assert session.execute("exact I.").ok
    assert session.in_proof and session.current_state() is None
    assert session.execute("Qed.").proof_complete


def test_real_rejected_undo_is_a_dead_session(stub_session):
    session = stub_session()
    with pytest.raises(SessionDead, match="BackTo 999 rejected: Error: Invalid backtrack"):
        session._restore((999, 0))


def test_real_prover_without_an_initial_prompt_fails_to_spawn():
    silent = f"{shlex.quote(sys.executable)} -c {shlex.quote('import sys; sys.stdin.read()')}"
    with pytest.raises(SpawnFailure, match="no initial prompt from prover"):
        start_session(SessionConfig(backend="real", prover_command=silent, timeout_per_step=0.5))


def test_real_check_of_a_rejected_statement_fails_at_step_minus_1(stub_session):
    session = stub_session()
    assert session.execute("Lemma k : True.").ok
    before = session._snapshot()
    checked = session.check_proof("Lemma m : forall a : nat, a = a.", "Proof. intros a. Qed.")
    assert not checked.accepted
    assert (checked.failing_step[0], checked.failing_step[1].text) == \
        (-1, "Lemma m : forall a : nat, a = a.")
    assert checked.message == "Error: Nested proofs are not supported."
    assert session._snapshot() == before


def test_real_large_reply_and_utf8(stub_session):
    session = stub_session()
    assert session.execute("Emit 131072 0.").message == "x" * 131072
    assert session.query("Check", "α → β") == "α → β\n     : Type"


def test_real_close_closes_both_pipes(stub_session):
    session = stub_session()
    proc = session._proc
    session.close()
    assert proc.stdin.closed and proc.stdout.closed and proc.returncode is not None


def test_real_session_walks_a_file_like_fresh_starts(walk_project):
    config = SessionConfig(backend="real", prover_command=stub_command(walk_project["mock_table"]))
    for file in ("a.v", "b.v"):
        targets = [t for t in walk_project["corpus"].test if t.file == file]
        with closing(FileWalk(config)) as walk:
            for target in targets:
                with closing(walk(target)) as walked, \
                        closing(start_session(replace(config, prelude=target.prelude))) as fresh:
                    # state id and accepted history: the stub's id counts sentences
                    assert walked._snapshot() == fresh._snapshot()
                    assert walked.check_proof(target.statement, target.proof_text) == \
                        fresh.check_proof(target.statement, target.proof_text)
                    assert walked.execute(target.statement) == fresh.execute(target.statement)
                    assert walked._snapshot() == fresh._snapshot()


def test_real_current_state_after_a_failed_step(stub_session):
    session = stub_session()
    assert session.current_state() is None
    assert session.execute("Lemma l : forall x y : nat, x = y.").ok
    assert session.current_state() == ProofState((), ("forall x y : nat, x = y",), (1, 1))
    assert session.execute("intros x.").ok
    stepped = ProofState(((("x",), "nat"),), ("forall y : nat, x = y",), (1, 1))
    assert session.current_state() == stepped
    failed = session.execute("intros y x.")
    assert (failed.outcome, failed.message) == (ERROR, "Error: x is already used.")
    assert session.current_state() == stepped
    assert session.execute("Qed.").proof_complete
    assert session.current_state() is None


def test_real_query_that_moved_the_state_is_undone(stub_session):
    """A query is not a step: one whose reply moved the state id is undone."""
    session = stub_session()
    before = session._snapshot()
    with pytest.raises(QueryRejected, match="The reference drift was not found"):
        session.query("Check", "drift")  # the stub advances the state id
    assert session._snapshot() == before
    assert session.execute("Require C.").ok
    assert session._state_id == before[0] + 1


def test_real_query_through_a_loan(stub_session):
    session = stub_session()
    before = session._snapshot()
    with closing(BorrowedSession(session, {})) as loan:
        assert loan.query("Check", " nat ") == NAT
        with pytest.raises(QueryRejected, match="The reference nosuch was not found"):
            loan.query("Search", "nosuch")
        with pytest.raises(QueryRejected, match="allow-list"):
            loan.query("Compute", "1")
        assert loan._snapshot() == before
        assert loan._memo == {}  # a query is not a step: the memo stays in use
    assert session._snapshot() == before


def test_real_prelude_reads_no_states_and_ends_where_stepping_ends(monkeypatch):
    """No step parses a proof state, in a prelude or out of one: only
    current_state does, from the reply to `Show.`. A prelude leaves the
    session where executing its sentences one by one does."""
    parsed = []
    monkeypatch.setattr(driver, "parse_proof_state",
                        lambda response: parsed.append(response) or parse_proof_state(response))
    prelude = segment_sentences(
        "Require A. Lemma k : True. Proof. intros h. Qed. Lemma l : forall x y : nat, x = y. "
        "Proof. intros x.")
    config = SessionConfig(backend="real", prover_command=STUB_COMMAND)
    with closing(start_session(replace(config, prelude=prelude))) as replayed, \
            closing(start_session(config)) as stepped:
        assert all(stepped.execute(sentence).ok for sentence in prelude)
        assert parsed == []
        assert replayed._snapshot() == stepped._snapshot()
        assert replayed.current_state() == stepped.current_state() is not None
        assert len(parsed) == 2
        assert replayed.execute("Qed.") == stepped.execute("Qed.")
        for script in ["Proof. intros a. Qed.", "Proof. intros a a. Qed.", "Proof. auto."]:
            checked = replayed.check_proof("Lemma m : forall a : nat, a = a.", script)
            assert checked == stepped.check_proof("Lemma m : forall a : nat, a = a.", script)
        assert replayed._snapshot() == stepped._snapshot()


def test_mock_prelude_reads_no_states_and_ends_where_stepping_ends():
    """A prelude ends outside any proof, as a target's prelude does, where
    executing its sentences one by one ends; it opens no table entry."""
    table = {"theorems": {"one": {"scripts": [["intros h.", "Qed."]]},
                          "two": {"scripts": [{"steps": ["split.", "auto.", "auto.", "Qed."],
                                               "states": ["______(1/2)\nA\n______(2/2)\nB"]}]}}}
    prelude = segment_sentences("Lemma one : True. Proof. intros h. Qed. Lemma two : A /\\ B. "
                                "Proof. split. auto. auto. Qed.")
    config = SessionConfig(backend="mock", mock_table=table)
    with closing(start_session(config)) as stepped, \
            closing(start_session(replace(config, prelude=prelude))) as replayed:
        assert all(stepped.execute(sentence).ok for sentence in prelude)
        assert replayed._snapshot() == stepped._snapshot() == (None, [])
        assert set(stepped._table._compiled) == {"one", "two"}
        assert replayed._table._compiled == {}


def test_mock_prelude_trusts_the_proofs_it_opens():
    """Inside a replayed proof a statement is a nested-proof error, a closer
    closes the proof and anything else passes, whatever the table's entry
    holds: a malformed one is not compiled. Replayed sentences may not end
    inside a proof."""
    table = {"theorems": {"broken": {"initial_state": "no goal separator"}}}
    config = SessionConfig(backend="mock", mock_table=table)
    with closing(start_session(config)) as session:
        session.replay(segment_sentences("Lemma broken : True. Proof. nonsense. Qed. "
                                         "Lemma other : True. foo. Admitted."))
        assert session._snapshot() == (None, [])
        with pytest.raises(PreludeError) as nested:
            session.replay(segment_sentences("Lemma inner : True. Lemma nested : True."), 7)
        assert (nested.value.step_index, nested.value.message) == \
            (8, "Error: Nested proofs are not supported.")
        with pytest.raises(PreludeError) as unclosed:
            session.replay(segment_sentences("Lemma done : True. Qed. Lemma open : True. auto."))
        assert unclosed.value.step_index == 2
        assert session._snapshot() == (None, [])
        assert session._table._compiled == {}
        with pytest.raises(ValueError, match="bad mock table <dict>: .*separator"):
            session.execute("Lemma broken : True.")


def test_mock_prelude_accepts_the_proof_of_a_command_it_does_not_open():
    """A Definition or an Instance proved by tactics passes in a prelude; a
    closer with no open proof still fails outside one."""
    prelude = segment_sentences(
        "Definition two : nat.\nProof. exact 2. Defined.\n"
        "Instance nat_pointed : Pointed nat.\nProof. exact 0. Qed.\n")
    config = SessionConfig(backend="mock", mock_table={}, prelude=prelude)
    with closing(start_session(config)) as session:
        assert session.current_state() is None
        for closer in ("Defined.", "Qed."):
            assert session.execute(closer).message == f"Error: {NO_FOCUSED_PROOF_MESSAGE}"


def test_mock_rejects_a_statement_inside_an_open_proof(mock_session):
    assert mock_session.execute("Lemma weak_refl: forall x, Weak T x x.").ok
    nested = mock_session.execute("Lemma inner: True.")
    assert nested.outcome == ERROR
    assert nested.message == "Error: Nested proofs are not supported."
    assert mock_session.execute("intros x.").ok  # the open proof is unchanged


def test_mock_proof_opener_without_a_matching_script_reports_the_synthesized_state(
    mock_session,
):
    assert mock_session.execute("Lemma mystery: forall n, n = n.").ok
    opened = mock_session.current_state()
    proof = mock_session.execute("Proof.")
    assert proof.ok and proof.message == ""
    assert mock_session.current_state() == opened == ProofState((), ("forall n, n = n",), (1, 1))


def test_a_mock_entry_without_a_goal_shows_the_statements_goal():
    """An entry with scripts alone shows its statement's goal, as a lemma
    with no entry does, not `True`; the shared compiled entry keeps none."""
    table = {"theorems": {"s": {"scripts": [["intros n.", "reflexivity.", "Qed."]]},
                          "g": {"statement_goal": "the table's goal", "scripts": []}}}
    config = SessionConfig(backend="mock", mock_table=table)
    with closing(start_session(config)) as first, closing(start_session(config)) as second:
        for session in (first, second):
            assert session.execute("Lemma s : forall n : nat,\n  n = n.").ok
            assert session.current_state() == ProofState((), ("forall n : nat, n = n",), (1, 1))
        assert first._table.entry("s").goal is None
        assert first.execute("intros n.").ok
        assert first.current_state() == ProofState(((("n",), "_"),), ("forall n : nat, n = n",),
                                                   (1, 1))
        second.execute("Abort.")
        assert second.execute("Lemma g : True.").ok
        assert second.current_state().goals == ("the table's goal",)


def test_mock_table_script_without_a_closer_gets_qed_appended():
    table = {"theorems": {"t": {"scripts": [["exact I."]]}}}
    assert mockprover._parse_script(["exact I."]).steps == ("exact I.", "Qed.")
    with closing(start_session(SessionConfig(backend="mock", mock_table=table))) as session:
        assert session.execute("Lemma t: True.").ok
        assert session.execute("exact I.").message == NO_MORE_GOALS_MESSAGE
        assert session.execute("Qed.").proof_complete


@pytest.mark.parametrize("opener", ["Proof.", "Proof using x.", "Proof\n  using x  y."])
def test_a_table_script_drops_every_proof_opener(opener):
    """`Proof using ...` in a table script is a no-op like `Proof.`, so a
    script holding it matches with or without the opener."""
    table = {"theorems": {"t": {"scripts": [[opener, "intros x.", "Qed."]]}}}
    statement = "Lemma t: forall x : nat, True."
    with closing(start_session(SessionConfig(backend="mock", mock_table=table))) as session:
        for script in (f"{opener} intros x. Qed.", "Proof. intros x. Qed.", "intros x. Qed."):
            assert session.check_proof(statement, script).accepted, script


def test_mock_contains_rules_match_literally_and_compile_no_regex(monkeypatch):
    """A `contains` rule is a substring test: its regex metacharacters match
    only themselves, and building the table compiles no pattern for it."""
    compiled = []
    monkeypatch.setattr(mockprover.re, "compile",
                        lambda pattern, *a, _compile=mockprover.re.compile:
                        compiled.append(pattern) or _compile(pattern, *a))
    table = {"theorems": {"t": {"errors": [{"contains": "x.(*", "message": "entry rule"}]}},
             "errors": [{"contains": "a+b", "message": "table rule"},
                        {"regex": "^Require .*Missing", "message": "regex rule"}]}
    with closing(start_session(SessionConfig(backend="mock", mock_table=table))) as session:
        assert session.execute("Require Import a+b.").message == "Error: table rule"
        assert session.execute("Require Import aab.").ok  # a `+` that means one or more
        assert session.execute("Require Import Missing.").message == "Error: regex rule"
        assert session.execute("Lemma t : True.").ok
        assert session.execute('idtac "x.(*".').message == "Error: entry rule"
        assert session.execute('idtac "xa(*".').message == f"Error: {DEFAULT_TACTIC_FAILURE}"
        assert session.execute("apply a+b.").message == "Error: table rule"  # after the entry's
    assert compiled == ["^Require .*Missing"]
    with pytest.raises(ValueError, match="bad mock table <dict>: a contains rule is not a string: 5"):
        mockprover.compile_behavior_table({"errors": [{"contains": 5, "message": "m"}]})


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


def test_a_timeout_is_kept_by_its_loan_alone(mock_session, monkeypatch):
    statement, script = "Lemma t : True.", "Proof. exact I. Qed."
    checked = []

    def timing_out(self, statement, script):
        checked.append(script)
        return ProofCheckResult(False, None, TIMEOUT_MESSAGE)

    monkeypatch.setattr(SessionHandle, "check_proof", timing_out)
    memo: dict = {}
    with closing(BorrowedSession(mock_session, memo)) as loan:
        timed_out = loan.check_proof(statement, script)
        assert loan.check_proof(statement, script) is timed_out
    with closing(BorrowedSession(mock_session, memo)) as loan:
        assert loan.check_proof(statement, script) is not timed_out
    assert checked == [script, script]
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
