"""A generated project with several test targets per file.

`build_walk_project` writes two files of short lemmas, a mock table that
proves each lemma with its own proof, and a provider script that answers
each test target with its reference proof, then a wrong one. Comments,
bullets and a string holding a period sit between the targets, so a
prelude sliced by span must match a fresh segmentation exactly.
"""

from __future__ import annotations

import json
from pathlib import Path

from coqharness import corpus as corpus_mod

WALK_FILES = {
    "a.v": (
        "(* File a. A comment with periods. And (* a nested one. *) too. *)\n"
        "Require Import Arith.\n\nSection A.\nVariable n : nat.\n",
        7,
        "End A.\n",
    ),
    "b.v": ("Section B.\nVariable n : nat.\n", 6, "End B.\n"),
}
WALK_TEST_IDS = ("a.v::a1", "a.v::a3", "a.v::a4", "a.v::a5", "b.v::b0", "b.v::b2", "b.v::b4")
WALK_WRONG = "Proof.\nintros x.\ndiscriminate.\nQed."


def _walk_lemma(name: str, i: int) -> str:
    if i % 3 == 2:  # bullets, then a definition whose string holds a period
        return (
            f"Lemma {name} : forall x : nat, x = x /\\ x + 0 = x.\nProof.\n  intros x.\n"
            f"  split.\n  - reflexivity.\n  - auto.\nQed.\n\n"
            f'Definition {name}_s := "done. (* not a comment *)".\n'
        )
    return f"Lemma {name} : forall x : nat, x + {i} = x + {i}.\nProof.\n  intros x.\n  reflexivity.\nQed.\n"


def build_walk_project(root: Path, broken_after: str | None = None) -> dict:
    """Write the project, its mock table and provider script under root.

    With `broken_after`, a `Require Import Missing.` that the table rejects
    follows that lemma. Returns the paths and the split corpus.
    """
    project = root / "project"
    project.mkdir(parents=True)
    for file, (head, count, tail) in WALK_FILES.items():
        parts = [head]
        for i in range(count):
            name = f"{file[0]}{i}"
            parts.append(_walk_lemma(name, i))
            if name == broken_after:
                parts.append("Require Import Missing.\n")
        parts.append(tail)
        (project / file).write_text("\n".join(parts), encoding="utf-8")
    corpus = corpus_mod.split_corpus(
        corpus_mod.ingest_project(project), policy="explicit", explicit_test_ids=WALK_TEST_IDS
    )
    theorems = {}
    for record in corpus.records:
        goal = record.statement.text.split(":", 1)[1].strip().rstrip(".")
        entry = {"scripts": [[s.text for s in record.proof]]}
        if record.file == "a.v":
            entry["initial_state"] = f"n : nat\n{'_' * 20}(1/1)\n{goal}"
        theorems[record.name] = entry
    table = {
        "theorems": theorems,
        "errors": [{"contains": "Import Missing", "message": "Cannot find a physical path bound to Missing."}],
    }
    entries = []
    for record in corpus.test:
        right = "Proof.\n" + "\n".join(s.text for s in record.proof[1:])
        entries.append({"theorem": record.name, "completions": [right, WALK_WRONG]})
    (root / "mock_table.json").write_text(json.dumps(table), encoding="utf-8")
    (root / "script.json").write_text(json.dumps({"default": "no idea", "entries": entries}), encoding="utf-8")
    return {"root": root, "project": project, "corpus": corpus, "table": table,
            "mock_table": root / "mock_table.json", "script": root / "script.json"}
