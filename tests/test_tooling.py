"""Guards for the tools that read the program from outside `src/`."""

from __future__ import annotations

import importlib
import importlib.util
import re
from pathlib import Path

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
