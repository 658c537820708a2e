"""The benchmark's own tests: the fake toplevel speaks the protocol the real
backend expects, and the output checks can fail a run."""

from __future__ import annotations

import hashlib
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import bench_gen  # noqa: E402
import run as bench_run  # noqa: E402

from coqharness.driver import SessionConfig, start_session  # noqa: E402
from coqharness.sentences import segment_sentences  # noqa: E402


def test_fake_toplevel_through_real_session(tmp_path):
    command = bench_run.FAKE_COMMAND
    plan = bench_gen.generate("real-toplevel", 5, tmp_path / "w", command)
    table = json.loads((tmp_path / "w" / "fake_table.json").read_text())
    source = (tmp_path / "w" / "project" / "f00.v").read_text()
    sentences = segment_sentences(source)
    # prelude: the section header and the file's first lemma with its proof
    first_target = next(i for i, s in enumerate(sentences) if s.text.startswith("Lemma")) + 5
    target = sentences[first_target]
    name = target.text.split()[1]
    steps = table["theorems"][name]["scripts"][0]
    session = start_session(SessionConfig(
        backend="real", prelude=sentences[:first_target], timeout_per_step=20,
        prover_command=command.replace("{table}", str(tmp_path / "w" / "fake_table.json"))))
    try:
        accepted = session.check_proof(target.text, "Proof.\n" + "\n".join(steps))
        assert accepted.accepted, accepted.message
        rejected = session.check_proof(target.text, f"Proof.\n{steps[0]}\nreflexivity.\nQed.")
        assert not rejected.accepted
        assert rejected.failing_step[0] == 2 and rejected.message == "Error: No applicable tactic."

        # an error inside an open proof leaves the session where it was
        assert session.execute(target.text).ok
        assert not session.execute("intros n.").ok
        assert session.execute(steps[0]).ok
        assert session.execute(steps[1]).ok
        closed = session.execute("Qed.")
        assert closed.ok and closed.proof_complete

        # one dialogue query of each size the workload uses
        by_size = {spec["size"]: (query, spec) for query, spec in plan["queries"].items()}
        assert sorted(by_size) == list(bench_gen.QUERY_SIZES)
        for size, (query, spec) in sorted(by_size.items()):
            output = session.query("Search", query)
            assert len(output) == size
            assert hashlib.sha256(output.encode()).hexdigest() == spec["sha256"]
    finally:
        session.close()


def test_expected_count_off_by_one_fails_the_run(monkeypatch, capsys):
    def generate_off_by_one(workload, seed, out, fake_command):
        plan = bench_gen.generate(workload, seed, out, fake_command)
        plan["expected"]["per_config"]["zs"]["n_attempts"] += 1
        (out / "plan.json").write_text(json.dumps(plan), encoding="utf-8")
        return plan

    monkeypatch.setattr(bench_run, "generate", generate_off_by_one)
    monkeypatch.setattr(sys, "argv", ["run.py", "--workload", "oneshot-longfile", "--seed", "7",
                                      "--seconds", "0.1", "--trace", "0"])
    try:
        assert bench_run.main() != 0
    finally:
        shutil.rmtree(bench_run.WORK / "oneshot-longfile-seed7-trace0", ignore_errors=True)
    out, err = capsys.readouterr()
    result = json.loads(out.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] == 0
    assert "zs.n_attempts" in err
