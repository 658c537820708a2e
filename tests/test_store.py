"""The JSON Lines store: interrupted appends, the append lock, and the one
reader of stored rows."""

from __future__ import annotations

import fcntl
import json
import os
import threading
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coqharness import store
from coqharness.agent import AttemptRecord, RunConfig, Turn
from coqharness.client import Transcript, _ScriptEntry, _ScriptFile
from coqharness.evaluate import RunInfo


def test_an_append_cuts_off_an_interrupted_append_and_a_read_leaves_it_out(tmp_path, caplog):
    path = tmp_path / "ab.jsonl"
    path.write_bytes(b'{"k": 1}\n{"k": 2, "cut')
    assert store.read(path) == b'{"k": 1}\n'
    assert f"{path}:2: ignored a final row with no newline" in caplog.text
    store.append(path, {"k": 3})
    assert path.read_bytes() == b'{"k": 1}\n{"k": 3}\n'


def test_a_read_reads_on_after_a_short_read(tmp_path, monkeypatch):
    path = tmp_path / "ab.jsonl"
    path.write_bytes(b'{"k": 1}\n{"k": 2}\n')
    read = os.read
    monkeypatch.setattr(store.os, "read", lambda fd, n: read(fd, min(n, 3)))
    assert store.read(path) == b'{"k": 1}\n{"k": 2}\n'


def test_an_append_waits_for_another_writer_and_keeps_its_row(tmp_path):
    """A writer that holds the lock halfway through its row is not cut off."""
    path = tmp_path / "ab.jsonl"
    with open(path, "ab") as other:
        fcntl.flock(other, fcntl.LOCK_EX)
        other.write(b'{"k": ')
        other.flush()
        writer = threading.Thread(target=store.append, args=(path, {"k": 2}))
        writer.start()
        writer.join(0.2)
        assert writer.is_alive()
        other.write(b"1}\n")
    writer.join()
    assert path.read_bytes() == b'{"k": 1}\n{"k": 2}\n'


_text = st.text(max_size=8)
_optional_text = st.none() | _text
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | _text,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_text, inner, max_size=3),
    max_leaves=8,
)
_turns = st.builds(Turn, _text, _text,
                   st.lists(st.tuples(_text, _text, _text), max_size=2).map(tuple))
_rows = st.one_of(
    st.builds(
        AttemptRecord, _text, _text, _text, st.integers(), _text, st.booleans(),
        st.none() | st.tuples(st.integers(), _text, _text), st.lists(_turns, max_size=3), _text,
        refusal_text=_optional_text, category=_optional_text, round=st.integers(),
        budget_exhausted=st.booleans(), appended_qed=st.booleans(), lexical_error=st.booleans(),
        dropped_examples=st.integers(), missed_simple=st.booleans(),
    ),
    st.builds(Transcript, _text, st.lists(_text, max_size=3), _text,
              st.integers() | st.floats(allow_nan=False, allow_infinity=False),
              st.tuples(st.integers(), st.integers()), st.integers()),
    st.builds(RunInfo, _text, _text, st.dictionaries(_text, _json_values, max_size=3)),
    st.builds(_ScriptEntry, st.lists(_text, min_size=1, max_size=3), _optional_text,
              _optional_text, _optional_text, _optional_text),
)


@settings(max_examples=300, deadline=None)
@given(_rows)
def test_decode_inverts_json_dumps_for_every_row_type(row):
    """Every stored row type and input entry reads back as the value written,
    a Turn's tool calls and an int in a float field included."""
    line = json.dumps(row, ensure_ascii=False, default=vars)
    clone = store.decode(type(row), json.loads(line))
    assert clone == row
    assert json.dumps(clone, ensure_ascii=False, default=vars) == line


@dataclass
class _Run:
    config: RunConfig


@dataclass
class _Runs:
    runs: list[_Run]


_ENTRY = {"completions": ["a"]}


@pytest.mark.parametrize("cls, value, message", [
    (_ScriptFile, {"entries": [_ENTRY] * 3 + [{"theorem_id": "t", **_ENTRY}]},
     "entries[3]: unknown key 'theorem_id'"),
    (_ScriptFile, {"entries": [_ENTRY, {"completions": []}]}, "entries[1]: empty completions list"),
    (_ScriptFile, {"default": "x"}, "missing key 'entries'"),
    (Transcript, {"prompt_hash": "ab", "provider": "x", "timestamp": 1}, "missing key 'completions'"),
    (RunConfig, {"tag": "t", "mode": "zs", "decoding": {"n": 0}}, "decoding: n must be >= 1"),
    (_Runs, {"runs": [{"config": {"tag": "t", "mode": "zs"}}, {"config": {"tag": "u"}}]},
     "runs[1].config: missing key 'mode'"),
    (_Runs, {"runs": [{"config": {"tag": "t", "mode": "zs", "decoding": {"tempr": 1}}}]},
     "runs[0].config.decoding: unknown key 'tempr'"),
], ids=["list-item", "list-item-check", "missing", "missing-completions", "nested-field",
        "item-field", "item-field-field"])
def test_decode_names_a_missing_key_and_the_place_of_an_error(cls, value, message):
    with pytest.raises(store.DecodeError) as err:
        store.decode(cls, value)
    assert str(err.value) == message
