"""Golden eval outputs: two hermetic projects whose report bytes are pinned.

    PYTHONPATH=src:tests python tests/golden.py

rewrites tests/fixtures/golden/<case>/ from the current sources. The cases
are the bundled toy project under tests/fixtures/manifest.json and the
generated walk project (walk_project.py) under golden/walk_manifest.json.
`run_case` runs one case through the CLI (ingest, then eval, recorded or
replayed from its transcript cache) and returns the eval's output directory.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path

from coqharness.cli import main
from walk_project import build_walk_project

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = FIXTURES / "golden"
MANIFESTS = {"fixtures": FIXTURES / "manifest.json", "walk": GOLDEN / "walk_manifest.json"}
CASES = tuple(MANIFESTS)
FIXTURE_TEST_IDS = (
    "relations.v::union_incl",
    "relations.v::trans_incl",
    "weak.v::weak_refl",
    "weak.v::G_wmon",
)


def golden_files(directory: Path) -> list[str]:
    """The report files and attempt files under an eval output directory."""
    names = [n for n in ("report.json", "report.md", "report.csv") if (directory / n).exists()]
    return names + [f"attempts/{p.name}" for p in sorted((directory / "attempts").glob("*.jsonl"))]


def config_of(work: Path) -> Path:
    """The config file that `run_case` writes under `work`."""
    return work / "golden.ini"


def _setup(case: str, work: Path, config: Path) -> None:
    """Write `config` and ingest the case's project under `work`."""
    if case == "fixtures":
        project, script, table = (FIXTURES / "project", FIXTURES / "provider_script.json",
                                  FIXTURES / "mock_table.json")
        test_ids = FIXTURE_TEST_IDS
    else:
        built = build_walk_project(work / "walk")
        project, script, table = built["project"], built["script"], built["mock_table"]
        test_ids = [r.id for r in built["corpus"].test]
    config.write_text(
        f"[paths]\ncache_dir = {work}/cache\ncorpus_file = {work}/corpus.jsonl\n\n"
        f"[provider]\nkind = scripted\nscript_file = {script}\n\n"
        f"[prover]\nbackend = mock\nmock_table = {table}\n\n[defaults]\nn = 2\n",
        encoding="utf-8",
    )
    code = main(["--config", str(config), "ingest", "--root", str(project), "--out",
                 str(work / "corpus.jsonl"), "--split", "explicit", "--explicit-test", *test_ids])
    if code != 0:
        raise RuntimeError(f"ingest of {case} exited {code}")


def run_case(case: str, work: Path, workers: int, replay: bool = False) -> Path:
    """Eval the case under `work`; with `replay`, from the cache a recorded run left there."""
    config = config_of(work)
    if not config.exists():
        _setup(case, work, config)
    out = work / f"out-w{workers}{'-replay' if replay else ''}"
    argv = ["--config", str(config), "eval", "--manifest", str(MANIFESTS[case]), "--out", str(out),
            "--workers", str(workers)]
    code = main(argv + (["--replay"] if replay else []))
    if code != 0:
        raise RuntimeError(f"eval of {case} exited {code}")
    return out


def write_golden() -> None:
    for case in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            out = run_case(case, Path(tmp), workers=1)
            target = GOLDEN / case
            shutil.rmtree(target, ignore_errors=True)
            for name in golden_files(out):
                (target / name).parent.mkdir(parents=True, exist_ok=True)
                shutil.copyfile(out / name, target / name)
            print(f"{target}: {len(golden_files(target))} files", file=sys.stderr)


if __name__ == "__main__":
    write_golden()
