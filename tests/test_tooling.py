"""Guards for the tools that read the program from outside `src/`."""

from __future__ import annotations

import importlib
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

from chat_stub import http_config
from conftest import TEST_IDS

BENCH_TRACE = Path(__file__).resolve().parent.parent / "perfbench" / "bench_trace.py"
SRC = Path(__file__).resolve().parent.parent / "src" / "coqharness"


def test_every_bench_trace_target_resolves():
    """`perfbench/bench_trace.py` wraps each of its TARGETS by name and skips
    a name it cannot find, so a renamed function would drop its span from a
    traced run without a word. Each target resolves as `Tracer.install`
    looks it up: a method in its class's own dict, a function in its module."""
    spec = importlib.util.spec_from_file_location("bench_trace", BENCH_TRACE)
    bench_trace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_trace)
    missing = []
    for span, module_name, path in bench_trace.TARGETS:
        module = importlib.import_module(f"coqharness.{module_name}")
        if "." in path:
            cls_name, attr = path.split(".")
            found = attr in vars(getattr(module, cls_name, object))
        else:
            found = callable(getattr(module, path, None))
        if not found:
            missing.append(span)
    assert missing == []


def test_sha256_is_called_in_one_place():
    """`store.content_hash` is the one content hash, so every hash the
    harness writes has one spelling."""
    calls = {path.name: path.read_text(encoding="utf-8").count("hashlib.sha256")
             for path in SRC.glob("*.py")}
    assert {name: n for name, n in calls.items() if n} == {"store.py": 1}


def test_only_store_imports_hashlib():
    """Retrieval keys each token by itself, so no second hash has a use."""
    importers = [path.name for path in sorted(SRC.glob("*.py"))
                 if re.search(r"^\s*(import|from)\s+hashlib\b", path.read_text(encoding="utf-8"),
                              re.MULTILINE)]
    assert importers == ["store.py"]


def test_the_readme_names_every_ini_key():
    """The README's INI example lists every key `load_config` accepts, in
    its section, set or commented out, and no other: a key missing there
    is one a user cannot find, and one the table lacks exits 2."""
    from coqharness.cli import INI_KEYS

    readme = (SRC.parent.parent / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^```ini\n(.*?)^```", readme, re.MULTILINE | re.DOTALL).group(1)
    named: dict[str, set[str]] = {}
    for line in block.splitlines():
        if header := re.fullmatch(r"\[(\w+)\]", line):
            section = named.setdefault(header.group(1), set())
        elif key := re.fullmatch(r";? ?(\w+) = .*", line):
            section.add(key.group(1))
    assert named == INI_KEYS


_WITHOUT_DEPENDENCIES = """
import importlib, json, sys
sys.modules["requests"] = sys.modules["numpy"] = None  # an import of either raises ImportError
modules, runs = json.loads(sys.argv[1])
for name in modules:
    importlib.import_module(name)
from coqharness.cli import main
for argv in runs:
    assert main(argv) == 0, argv
"""


def test_the_harness_needs_neither_requests_nor_numpy(
    tmp_path, fixtures_dir, monkeypatch, chat_stub
):
    """`pyproject.toml` names no dependency but the dev tools: where `requests`
    and `numpy` cannot be imported, every `src/` module imports, and an eval
    through the HTTP provider and its replay write byte-identical reports."""
    config = http_config(tmp_path, fixtures_dir, chat_stub, monkeypatch)
    corpus = tmp_path / "corpus.jsonl"
    ingest = ["--config", str(config), "ingest", "--root", str(fixtures_dir / "project"),
              "--out", str(corpus), "--split", "explicit", "--explicit-test", *TEST_IDS]
    eval_argv = ["--config", str(config), "eval", "--corpus", str(corpus),
                 "--manifest", str(fixtures_dir / "manifest.json"), "--out"]
    runs = [ingest, [*eval_argv, str(tmp_path / "live")],
            [*eval_argv, str(tmp_path / "replayed"), "--replay"]]
    modules = [f"coqharness.{path.stem}".removesuffix(".__init__")
               for path in sorted(SRC.glob("*.py"))]
    path = os.pathsep.join([str(SRC.parent), *filter(None, [os.environ.get("PYTHONPATH")])])
    done = subprocess.run(
        [sys.executable, "-c", _WITHOUT_DEPENDENCIES, json.dumps([modules, runs])],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert len(chat_stub.requests) == 5 * 4  # recorded once, replayed from the cache
    for name in ("report.json", "report.md", "report.csv"):
        live = (tmp_path / "live" / name).read_bytes()
        assert live == (tmp_path / "replayed" / name).read_bytes(), name
