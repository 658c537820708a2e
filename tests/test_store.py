"""The JSON Lines store: interrupted appends and the append lock."""

from __future__ import annotations

import fcntl
import threading

from coqharness import store


def test_an_append_cuts_off_an_interrupted_append_and_a_read_leaves_it_out(tmp_path, caplog):
    path = tmp_path / "ab.jsonl"
    path.write_bytes(b'{"k": 1}\n{"k": 2, "cut')
    assert store.read(path) == b'{"k": 1}\n'
    assert f"{path}:2: ignored a final row with no newline" in caplog.text
    store.append(path, {"k": 3})
    assert path.read_bytes() == b'{"k": 1}\n{"k": 3}\n'


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
