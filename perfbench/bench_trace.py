"""In-memory span recorder that wraps the harness's public functions.

`Tracer.install()` replaces each function listed in `TARGETS` with a
wrapper that records a span (name, start, end, parent) and, for some, a
counter. Modules import names directly (`from .corpus import
preceding_lemmas`), so a module-level function is replaced in every
`coqharness` module that bound it; methods are replaced on their class.
`uninstall()` puts the originals back. A span opened by a worker thread
with no open span of its own takes the main thread's innermost open span
as its parent, so work done in an eval's thread pool nests under the
command that started it.

A span's self time is its duration minus the part of its interval that its
children cover (children may run in parallel, so the cover is a union).
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import threading
import time
from collections import Counter, defaultdict

# (span name, module, attribute path). Span names are "<layer>.<function>".
TARGETS = [
    ("cli.build_deps", "cli", "build_deps"),
    ("corpus.ingest_project", "corpus", "ingest_project"),
    ("corpus.split_corpus", "corpus", "split_corpus"),
    ("corpus.save_corpus", "corpus", "save_corpus"),
    ("corpus.load_corpus", "corpus", "load_corpus"),
    ("corpus.preceding_lemmas", "corpus", "preceding_lemmas"),
    ("corpus.by_id", "corpus", "Corpus.by_id"),
    ("sentences.segment", "sentences", "segment_sentences"),
    ("retriever.build_index", "retriever", "build_index"),
    ("retriever.save_index", "retriever", "save_index"),
    ("retriever.load_index", "retriever", "load_index"),
    ("retriever.retrieve", "retriever", "retrieve"),
    ("prompting.build_prompt", "prompting", "build_prompt"),
    ("prompting.diversify", "prompting", "diversify"),
    ("prompting.parse_completion", "prompting", "parse_completion"),
    ("prompting.template_load", "prompting", "TemplateSet.load"),
    ("client.complete", "client", "complete"),
    ("client.model", "client", "ScriptedProvider.complete"),
    ("client.prompt_hash", "client", "prompt_hash"),
    ("client.cache_lookup", "client", "TranscriptCache.lookup"),
    ("client.cache_append", "client", "TranscriptCache.append"),
    ("mockprover.init", "mockprover", "MockSession.__init__"),
    ("mockprover.execute", "mockprover", "MockSession.execute"),
    ("mockprover.query", "mockprover", "MockSession.query"),
    ("driver.start_session", "driver", "start_session"),
    ("driver.check_proof", "driver", "SessionHandle.check_proof"),
    ("driver.spawn", "driver", "RealCoqSession._spawn"),
    ("driver.restart", "driver", "RealCoqSession._restart_from_checkpoint"),
    ("driver.execute", "driver", "RealCoqSession.execute"),
    ("driver.query", "driver", "RealCoqSession.query"),
    ("driver.current_state", "driver", "RealCoqSession.current_state"),
    ("driver.close", "driver", "RealCoqSession.close"),
    ("proofstate.parse", "proofstate", "parse_proof_state"),
    ("proofstate.render", "proofstate", "render_proof_state"),
    ("agent.prove", "agent", "prove"),
    ("evaluate.classify", "evaluate", "classify_failure"),
    ("evaluate.rules_load", "evaluate", "ClassifierRules.load"),
    ("evaluate.build_report", "evaluate", "build_report"),
    ("evaluate.emit_report", "evaluate", "emit_report"),
    ("evaluate.load_attempts", "evaluate", "load_attempts_dir"),
]

LAYERS = ("cli", "corpus", "sentences", "retriever", "prompting", "client", "mockprover",
          "driver", "proofstate", "agent", "evaluate")


def _count_args(span: str, args: tuple, result, counters: Counter) -> None:
    """Counters kept at the same boundaries as the spans."""
    if span == "sentences.segment":
        counters["sentences.chars"] += len(args[0])
    elif span == "driver.start_session":
        counters["driver.prelude_sentences"] += len(args[0].prelude)
    elif span == "client.cache_lookup" and result is not None:
        counters["client.cache_hits"] += 1


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counters: Counter = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._main_thread = threading.main_thread()
        self._saved: list[tuple] = []

    # -- recording --

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else -1
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent])
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack().pop()

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            with tracer._lock:
                _count_args(name, args, result, tracer.counters)
            return result

        return wrapper

    # -- installation --

    def install(self) -> None:
        for _, module_name, _ in TARGETS:
            importlib.import_module(f"coqharness.{module_name}")
        modules = [m for n, m in sys.modules.items() if n == "coqharness" or n.startswith("coqharness.")]
        for name, module_name, path in TARGETS:
            module = sys.modules[f"coqharness.{module_name}"]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__.get(attr)
                if raw is None:
                    continue  # absent in this version of the program
                if isinstance(raw, staticmethod):
                    setattr(cls, attr, staticmethod(self._wrap(name, raw.__func__)))
                else:
                    setattr(cls, attr, self._wrap(name, raw))
                self._saved.append((cls, attr, raw))
                continue
            original = getattr(module, path, None)
            if original is None:
                continue
            wrapped = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
                        self._saved.append((mod, key, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- analysis --

    def self_times(self) -> list[float]:
        """Self time of every span: duration minus the union of its children."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                children[parent].append((start, end))
        out = []
        for index, (name, start, end, parent) in enumerate(self.spans):
            covered = 0.0
            cursor = start
            for a, b in sorted(children.get(index, ())):
                a, b = max(a, cursor), min(b, end)
                if b > a:
                    covered += b - a
                    cursor = b
            out.append((end - start) - covered)
        return out

    def totals(self, root: int) -> dict:
        """Per span name: calls, inclusive seconds, self seconds and
        durations; per layer: self seconds. `root` is the span around the
        whole command; every other span lies under it."""
        selfs = self.self_times()
        by_name: dict[str, dict] = defaultdict(lambda: {"calls": 0, "incl_s": 0.0, "self_s": 0.0,
                                                        "durations": []})
        layers = {layer: 0.0 for layer in LAYERS}
        for index, (name, start, end, parent) in enumerate(self.spans):
            if index == root:
                continue
            entry = by_name[name]
            entry["calls"] += 1
            entry["incl_s"] += end - start
            entry["self_s"] += selfs[index]
            entry["durations"].append(end - start)
            layers[name.split(".")[0]] += selfs[index]
        name, start, end, _ = self.spans[root]
        return {"names": by_name, "layers": layers, "root_s": end - start, "root_self_s": selfs[root]}

    def dump(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            json.dump({"spans": self.spans, "counters": self.counters}, fh)
