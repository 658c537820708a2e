"""Golden eval outputs: two hermetic projects whose report bytes are pinned.

    PYTHONPATH=src:tests python tests/golden.py

rewrites tests/fixtures/golden/<case>/ from the current sources, as the mock
backend writes them; it refuses to when the real backend, driving
fixtures/stub_toplevel.py over the same mock table, writes other bytes, or
when `report` over the attempt files writes other report bytes. The
cases are the bundled toy project under tests/fixtures/manifest.json and the
generated walk project (walk_project.py) under golden/walk_manifest.json.
`run_case` runs one case through the CLI (ingest, then eval on one backend,
recorded or replayed from its transcript cache) and returns the eval's
output directory; `report_case` runs `report` over that directory's
attempts.
"""

from __future__ import annotations

import shlex
import shutil
import sys
import tempfile
from pathlib import Path

from coqharness.cli import main
from walk_project import build_walk_project

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = FIXTURES / "golden"
STUB = FIXTURES / "stub_toplevel.py"
BACKENDS = ("mock", "real")
REPORT_FILES = ("report.json", "report.md", "report.csv")
MANIFESTS = {"fixtures": FIXTURES / "manifest.json", "walk": GOLDEN / "walk_manifest.json"}
CASES = tuple(MANIFESTS)
FIXTURE_TEST_IDS = (
    "relations.v::union_incl",
    "relations.v::trans_incl",
    "weak.v::weak_refl",
    "weak.v::G_wmon",
)


def golden_files(directory: Path) -> list[str]:
    """The report files, attempt files and run file under an eval output directory."""
    attempts = [p.name for p in sorted((directory / "attempts").glob("*.jsonl"))]
    if (directory / "attempts" / "run.json").exists():
        attempts.append("run.json")
    return [n for n in REPORT_FILES if (directory / n).exists()] + [f"attempts/{n}" for n in attempts]


def stub_command(table: str | Path) -> str:
    """The command line of the stub toplevel over the mock table at `table`."""
    return shlex.join([sys.executable, str(STUB), str(table)])


def config_of(work: Path, backend: str = "mock") -> Path:
    """The config file for `backend` that `run_case` writes under `work`."""
    return work / f"golden-{backend}.ini"


def _setup(case: str, work: Path) -> None:
    """Write each backend's config and ingest the case's project under `work`."""
    if case == "fixtures":
        project, script, table = (FIXTURES / "project", FIXTURES / "provider_script.json",
                                  FIXTURES / "mock_table.json")
        test_ids = FIXTURE_TEST_IDS
    else:
        built = build_walk_project(work / "walk")
        project, script, table = built["project"], built["script"], built["mock_table"]
        test_ids = [r.id for r in built["corpus"].test]
    for backend in BACKENDS:
        config_of(work, backend).write_text(
            f"[paths]\ncache_dir = {work}/cache\ncorpus_file = {work}/corpus.jsonl\n\n"
            f"[provider]\nkind = scripted\nscript_file = {script}\n\n"
            f"[prover]\nbackend = {backend}\nmock_table = {table}\n"
            f"prover_command = {stub_command(table)}\n\n[defaults]\nn = 2\n",
            encoding="utf-8",
        )
    code = main(["--config", str(config_of(work)), "ingest", "--root", str(project), "--out",
                 str(work / "corpus.jsonl"), "--split", "explicit", "--explicit-test", *test_ids])
    if code != 0:
        raise RuntimeError(f"ingest of {case} exited {code}")


def run_case(case: str, work: Path, workers: int, replay: bool = False,
             backend: str = "mock") -> Path:
    """Eval the case under `work` on `backend`; with `replay`, from the cache
    a recorded run left there."""
    config = config_of(work, backend)
    if not config.exists():
        _setup(case, work)
    out = work / f"out-{backend}-w{workers}{'-replay' if replay else ''}"
    argv = ["--config", str(config), "eval", "--manifest", str(MANIFESTS[case]), "--out", str(out),
            "--workers", str(workers)]
    code = main(argv + (["--replay"] if replay else []))
    if code != 0:
        raise RuntimeError(f"eval of {case} exited {code}")
    return out


def report_case(work: Path, out: Path, backend: str = "mock") -> Path:
    """Run `report` over the attempts of the eval output `out`; returns its
    output directory."""
    reported = out.with_name(f"{out.name}-report")
    code = main(["--config", str(config_of(work, backend)), "report", "--attempts",
                 str(out / "attempts"), "--out", str(reported)])
    if code != 0:
        raise RuntimeError(f"report over {out} exited {code}")
    return reported


def _outputs(out: Path) -> dict[str, bytes]:
    return {name: (out / name).read_bytes() for name in golden_files(out)}


def write_golden() -> None:
    for case in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            out = run_case(case, Path(tmp), workers=1)
            mock, real = _outputs(out), _outputs(run_case(case, Path(tmp), 1, backend="real"))
            differ = sorted(name for name in mock.keys() | real.keys()
                            if mock.get(name) != real.get(name))
            if differ:
                raise SystemExit(f"{case}: backend real writes other bytes: {', '.join(differ)}")
            reported = report_case(Path(tmp), out)
            differ = [name for name in REPORT_FILES
                      if (reported / name).read_bytes() != mock[name]]
            if differ:
                raise SystemExit(f"{case}: report --attempts writes other bytes: "
                                 f"{', '.join(differ)}")
            target = GOLDEN / case
            shutil.rmtree(target, ignore_errors=True)
            for name in golden_files(out):
                (target / name).parent.mkdir(parents=True, exist_ok=True)
                shutil.copyfile(out / name, target / name)
            print(f"{target}: {len(golden_files(target))} files", file=sys.stderr)


if __name__ == "__main__":
    write_golden()
