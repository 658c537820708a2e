"""Eval outputs are byte-identical to the committed golden files.

The golden files under tests/fixtures/golden/ were written by golden.py.
Each case is evaluated at workers 1 and 4, recorded into a fresh transcript
cache and then replayed from it; every run must reproduce every report and
attempt file byte for byte.
"""

from __future__ import annotations

import pytest

from golden import CASES, GOLDEN, golden_files, run_case


@pytest.mark.parametrize("workers", [1, 4])
@pytest.mark.parametrize("case", CASES)
def test_eval_reproduces_golden_bytes(case, workers, tmp_path):
    expected = GOLDEN / case
    names = golden_files(expected)
    assert len(names) > 3
    for replay in (False, True):
        out = run_case(case, tmp_path, workers, replay=replay)
        assert golden_files(out) == names
        for name in names:
            assert (out / name).read_bytes() == (expected / name).read_bytes(), (name, replay)
