"""Segmentation vs the independent character-automaton oracle."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coqharness.sentences import (
    LexicalError,
    Sentence,
    _byte_offsets,
    is_closing,
    is_statement,
    opens_proof,
    segment_sentences,
    statement_name,
)

import classify_per_call as per_call
from oracles import OracleLexicalError, oracle_segment
from segment_loop import loop_segment

C5_PRECEDING_BLOCK = """\
Lemma comp_incl: incl R R' -> incl S S' -> incl (comp R S) (comp R' S').
Proof.
  unfold eeq, comp, incl; intuition.
  destruct H1 as [ t ]; exists t; auto.
Qed.

Lemma comp_eeq: eeq R R' -> eeq S S' -> eeq (comp R S) (comp R' S').
Proof.
  unfold eeq, comp, incl; intuition;
  destruct H0 as [ t ]; exists t; auto.
Qed.

Lemma union_incl: (forall i, incl (F i) (F' i)) -> incl (union F) (union F').
Proof.
  unfold eeq, union, incl; intuition.
  destruct H0 as [ i ]; exists i; auto.
Qed.
"""

C5_UNION2_BLOCK = """\
Lemma union2_evolve_left:
  forall l R S S', evolve_1 l R S -> evolve_1 l R (union2 S S').
Proof.
  intros l R S S' H x x' y Hxx' xRy; destruct (H _ _ _ Hxx' xRy) as [ y' ];
  exists y'; auto; left; auto.
Qed.

Lemma union2_evolve_right:
  forall l R S S', evolve_1 l R S' -> evolve_1 l R (union2 S S').
Proof.
  intros l R S S' H x x' y Hxx' xRy; destruct (H _ _ _ Hxx' xRy) as [ y' ];
  exists y'; auto; right; auto.
Qed.
"""

# The crafted tricky corpus: strings, comments, qualified names, bullets.
TRICKY_SNIPPETS = [
    "",
    "   \n\t  ",
    "Proof. intros x. Qed.",
    "(* a. b. *) Lemma l: Mod.t = Mod.t. Proof. reflexivity. Qed.",
    "(* outer (* inner. *) still. *) auto.",
    'Definition s := "a. b".',
    'Definition q := "she said ""hi. there""".',
    'Notation "x . y" := (dotted x y).',
    'Definition c := "(* not a comment *)".',
    "Check Nat.add. Compute List.map.",
    "Require Import Coq.Lists.List.",
    "Proof. split. - auto. - reflexivity. Qed.",
    "Proof. - -- auto. -- idtac. - auto. Qed.",
    "Proof. { auto. } { reflexivity. } Qed.",
    "* auto. * idtac.",
    "+ eauto. + auto.",
    "split. { auto. } - reflexivity.",
    "intros x... auto.",
    "Check 1.5.",
    "auto.auto.",
    "Lemma a (* note. *) : True. Proof. auto. Qed.",
    "Lemma ab: forall x, x = x. Proof. auto. Qed.",
    "auto. (* trailing comment *)",
    "auto. (**) eauto.",
    "(** doc. with periods. *) trivial.",
    "(* a (* b (* c. *) *) *) trivial.",
    "intros x' y''. exact x'.",
    "pose proof _foo_bar. auto.",
    "auto. -",
    "{ }",
    "auto.\r\nidtac.",
    "destruct (H _ _ _ Hxx' xRy) as [ y' ]; exists y'; auto.",
    "Lemma union2_evolve_left:\n  forall l R S S', evolve_1 l R S -> evolve_1 l R (union2 S S').\nProof.\n  auto.\nQed.",
    "Lemma weak_refl: forall x, Weak T x x.\nProof.\n  intros x.\n  constructor.\n  reflexivity.\nQed.",
    C5_PRECEDING_BLOCK,
    C5_UNION2_BLOCK,
]


def _gap_is_whitespace_and_comments(gap: str) -> bool:
    i, n = 0, len(gap)
    while i < n:
        if gap[i].isspace():
            i += 1
        elif gap.startswith("(*", i):
            depth = 0
            while i < n:
                if gap.startswith("(*", i):
                    depth += 1
                    i += 2
                elif gap.startswith("*)", i):
                    depth -= 1
                    i += 2
                    if depth == 0:
                        break
                else:
                    i += 1
            if depth != 0:
                return False
        else:
            return False
    return True


def rejoin(source: str, sentences: list[Sentence]) -> str:
    """Reassemble `source` from sentences plus the skipped regions between them."""
    raw = source.encode("utf-8")
    parts: list[bytes] = []
    pos = 0
    for s in sentences:
        parts.append(raw[pos : s.span[0]])
        parts.append(s.text.encode("utf-8"))
        pos = s.span[1]
    parts.append(raw[pos:])
    return b"".join(parts).decode("utf-8")


def assert_segmentation_invariants(source: str, sentences: list[Sentence]) -> None:
    raw = source.encode("utf-8")
    previous_end = 0
    for s in sentences:
        start, end = s.span
        assert start >= previous_end and end > start
        assert raw[start:end].decode("utf-8") == s.text
        assert _gap_is_whitespace_and_comments(raw[previous_end:start].decode("utf-8"))
        previous_end = end
    assert _gap_is_whitespace_and_comments(raw[previous_end:].decode("utf-8"))
    assert rejoin(source, sentences) == source


@pytest.mark.parametrize("source", TRICKY_SNIPPETS)
def test_matches_oracle_on_tricky_corpus(source):
    expected = oracle_segment(source)
    got = segment_sentences(source)
    assert [(s.text, *s.span) for s in got] == expected
    assert_segmentation_invariants(source, got)


def test_empty_input():
    assert segment_sentences("") == []


def test_three_sentences():
    got = segment_sentences("Proof. intros x. Qed.")
    assert [s.text for s in got] == ["Proof.", "intros x.", "Qed."]


def test_comment_skipped_and_qualified_name_kept():
    got = segment_sentences("(* a. b. *) Lemma l: Mod.t = Mod.t. Proof. reflexivity. Qed.")
    assert [s.text for s in got] == [
        "Lemma l: Mod.t = Mod.t.",
        "Proof.",
        "reflexivity.",
        "Qed.",
    ]


def test_bullets_are_own_sentences():
    got = segment_sentences("Proof. split. - auto. - reflexivity. Qed.")
    assert [s.text for s in got] == ["Proof.", "split.", "-", "auto.", "-", "reflexivity.", "Qed."]
    assert segment_sentences("--- auto.")[0].text == "---"


@pytest.mark.parametrize(
    "source,message,offset",
    [
        ("auto. (* unterminated", "unterminated comment", 6),
        ('Definition s := "open.', "unterminated string literal", 16),
        ("intros x", "unterminated sentence", 0),
        ("auto. trailing", "unterminated sentence", 6),
    ],
)
def test_lexical_errors_with_offsets(source, message, offset):
    with pytest.raises(LexicalError, match=rf"^{message} \(byte offset {offset}\)$") as err:
        segment_sentences(source)
    assert err.value.offset == offset


def test_helpers():
    qed = segment_sentences("Qed.")[0]
    assert is_closing(qed) and is_closing(qed, proving_only=True)
    admitted = segment_sentences("Admitted.")[0]
    assert is_closing(admitted) and not is_closing(admitted, proving_only=True)
    stmt = segment_sentences("Lemma foo': forall x, x = x.")[0]
    assert is_statement(stmt)
    assert statement_name(stmt) == "foo'"
    assert not is_statement(segment_sentences("Definition d := 1.")[0])
    assert segment_sentences("-")[0].text == "-"


_ident = st.from_regex(r"[A-Za-z_][A-Za-z0-9_']{0,6}", fullmatch=True)
_atom = st.one_of(
    _ident.map(lambda t: f"{t}."),
    st.tuples(_ident, _ident).map(lambda p: f"{p[0]} {p[1]}."),
    st.tuples(_ident, _ident).map(lambda p: f"Check {p[0]}.{p[1]}."),
    _ident.map(lambda t: f'Definition {t} := "a. b".'),
    _ident.map(lambda t: f"(* {t}. nested (* inner. *) *)"),
    st.sampled_from(["-", "+", "*", "--", "{", "}", "(* c. *)", "(**)"]),
)
_ws = st.sampled_from([" ", "  ", "\n", "\t", "\n\n", " \n "])


@st.composite
def vernacular_sources(draw):
    parts = draw(st.lists(st.tuples(_atom, _ws), max_size=12))
    return "".join(atom + ws for atom, ws in parts)


@given(vernacular_sources())
@settings(max_examples=200, deadline=None)
def test_property_oracle_equivalence_and_roundtrip(source):
    expected = oracle_segment(source)
    got = segment_sentences(source)
    assert [(s.text, *s.span) for s in got] == expected
    assert_segmentation_invariants(source, got)


@given(st.text(alphabet="ab.(*) \"-+{}\n", max_size=60))
@settings(max_examples=300, deadline=None)
def test_property_agrees_with_oracle_on_noise(source):
    try:
        expected = oracle_segment(source)
    except OracleLexicalError as err:
        with pytest.raises(LexicalError):
            segment_sentences(source)
        try:
            segment_sentences(source)
        except LexicalError as got_err:
            assert got_err.offset == len(source[: err.char_offset].encode("utf-8"))
        return
    got = segment_sentences(source)
    assert [(s.text, *s.span) for s in got] == expected
    assert_segmentation_invariants(source, got)


@pytest.mark.parametrize(
    "source",
    ["", "Lemma t : True. Proof. exact I. Qed.", "Lemma α : β ∧ γ. (* ok *)",
     "(* 𝔽 *) Lemma 𝔸 : x = \"𝕏\".", "é𝔽a\n"],
)
def test_byte_offsets_index_like_per_character_encoding(source):
    offsets = _byte_offsets(source)
    expected = [len(source[:i].encode("utf-8")) for i in range(len(source) + 1)]
    assert len(offsets) == len(expected)
    assert [offsets[i] for i in range(len(source) + 1)] == expected


# Pieces that steer the segmenter through each of its branches: nested and
# unclosed comments, strings with doubled quotes, qualified names, bullets
# and braces, non-ASCII text (two-, three- and four-byte characters and
# Unicode whitespace), and periods followed by end of input or by a space.
_PIECES = st.sampled_from([
    "(*", "*)", "(* a. (* b. *) c. *)", "(**)", "(*)", '"', '""', '"a. ""b"". c"',
    ".", ". ", ".\n", "Mod.t", "x", "Lemma é : ∀ x, x = x", "𝔽", "\u00a0", "\u2028",
    "\x1c", "-", "--", "+", "*", "**", "{", "}", "(", ")", " ", "\n", "\t",
])


def _outcome(segment, source):
    """The sentences as (text, span) pairs, or the error's message and byte offset."""
    try:
        return [(s.text, s.span) for s in segment(source)]
    except LexicalError as exc:
        return str(exc), exc.offset


def _oracle_outcome(source):
    """oracle_segment's answer in _outcome's terms."""
    kinds = {"comment": "comment", "string": "string literal", "sentence": "sentence"}
    try:
        return [(text, (a, b)) for text, a, b in oracle_segment(source)]
    except OracleLexicalError as err:
        offset = len(source[: err.char_offset].encode("utf-8"))
        return f"unterminated {kinds[err.kind]} (byte offset {offset})", offset


@given(st.lists(_PIECES, max_size=40).map("".join))
@settings(max_examples=600, deadline=None)
def test_jumping_segmenter_matches_the_loop_and_the_oracle(source):
    got = _outcome(segment_sentences, source)
    assert got == _outcome(loop_segment, source)
    assert got == _oracle_outcome(source)


@given(st.text(max_size=80))
@settings(max_examples=300, deadline=None)
def test_jumping_segmenter_matches_the_loop_on_any_text(source):
    assert _outcome(segment_sentences, source) == _outcome(loop_segment, source)


# Leading words and what may follow them: keywords, near misses that are
# longer, shorter or joined to a word character, and the obligation openers.
_HEADS = ["Lemma", "Lemmas", "Lemm", "Theorem", "Fact", "Remark", "Corollary", "Proposition",
          "Qed", "Defined", "Admitted", "Abort", "Qedx", "Proof", "Program", "Next",
          "Obligation", "Obligations", "Definition", "auto", "", "-", "é"]
_TAILS = ["", " ", "  ", "\t", "\n", " x", " foo'", " é", " 1x", " (x)", " : True", "_x", "1",
          "é", "'", ".", " Obligation", " Obligations", " Obligation 1", " Obl", " _a"]


@settings(max_examples=500, deadline=None)
@given(lead=st.sampled_from(["", " ", "\n  "]), head=st.sampled_from(_HEADS),
       tail=st.lists(st.sampled_from(_TAILS), max_size=3).map("".join))
def test_one_leading_word_classifies_as_the_per_call_regexes(lead, head, tail):
    text = f"{lead}{head}{tail}."
    for sentence in (text, Sentence(text, (0, len(text.encode("utf-8"))))):
        assert is_statement(sentence) == per_call.is_statement(sentence)
        assert is_closing(sentence) == per_call.is_closing(sentence)
        assert is_closing(sentence, proving_only=True) == \
            per_call.is_closing(sentence, proving_only=True)
        assert statement_name(sentence) == per_call.statement_name(sentence)


@pytest.mark.parametrize(
    "text, opens",
    [
        ("Proof.", True),
        ("  Proof.\n", True),
        ("Proof using x.", True),
        ("Proof\n  using   x y.", True),
        ("Proof with auto.", False),
        ("Proofs.", False),
        ("Qed.", False),
        ("intros.", False),
    ],
)
def test_opens_proof_accepts_proof_and_proof_using(text, opens):
    assert opens_proof(text) is opens
    assert opens_proof(Sentence(text, (0, len(text)))) is opens
