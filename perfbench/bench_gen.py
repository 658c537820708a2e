"""Seeded input generator for the harness benchmark.

`generate(workload, seed, out, fake_command)` writes everything one
workload needs and returns its plan (also saved as plan.json): the test
theorem ids, the prove sample and the report counts the program must
reproduce. The counts are computed here, from how the inputs were
built, never by running the program. Sizes and the make-up of each
workload do not depend on the seed; the seed picks names, which lemmas are
test targets, which configs prove them and how their wrong completions
fail.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

from fake_coqtop import search_text

# Wrong-completion kinds and the category the method must give them.
HALLUCINATED, MISMATCH, WRONG = "hallucinated", "mismatch", "wrong"
KINDS = (HALLUCINATED, MISMATCH, WRONG)
ONE_SHOT_CATEGORY = {
    HALLUCINATED: "hallucinated_reference",
    MISMATCH: "proof_state_mismatch",
    WRONG: "wrong_tactic",
}
# An interactive dialogue that runs out of turns after a plain wrong tactic
# has no classified error message, so budget exhaustion makes it `resource`.
INTERACTIVE_CATEGORY = dict(ONE_SHOT_CATEGORY, wrong="resource")
CATEGORIES = ("correct", "refusal", "hallucinated_reference", "proof_state_mismatch",
              "wrong_tactic", "syntax_error", "resource", "other")

MAX_TURNS = 6
QUERY_SIZES = (100, 2048, 8192, 32768)

ONESHOT_CONFIGS = [
    {"tag": "zs", "mode": "zs", "decoding": {"n": 2}, "seed": 3},
    {"tag": "fs-sim", "mode": "fs-sim", "k_shots": 4, "decoding": {"n": 2}, "seed": 3},
    {"tag": "fs+lem", "mode": "fs+lem", "k_shots": 4, "n_lemmas": 4, "decoding": {"n": 2}, "seed": 3},
]
LOOP_CONFIGS = [
    {"tag": "inter", "mode": "zs", "loop": "interactive", "max_turns": MAX_TURNS},
    {"tag": "repair", "mode": "zs", "loop": "repair", "repair_rounds": 2, "decoding": {"n": 2}},
    {"tag": "ens", "mode": "zs", "loop": "ensemble", "decoding": {"n": 3},
     "strategies": ["simple-tactics-first", "verbose-stepwise"]},
]
REAL_CONFIGS = [
    {"tag": "zs", "mode": "zs", "decoding": {"n": 2}, "seed": 3},
    {"tag": "inter", "mode": "zs", "loop": "interactive", "max_turns": MAX_TURNS},
]

# files x lemmas, test lemmas per file, share of tests each config proves,
# transcripts from other runs in the cache. real-toplevel's `query_mix`
# gives the Search answer size of each test's interactive dialogue, and
# `prove_mix` the make-up of one prove round as (config, query size, count).
WORKLOADS = {
    "oneshot-longfile": {
        "files": 3, "lemmas": 60, "tests_per_file": 12, "configs": ONESHOT_CONFIGS,
        "proven_share": {"zs": 0.5, "fs-sim": 0.625, "fs+lem": 0.75},
        "foreign": 8000, "backend": "mock", "replay": False, "workers": 1,
        "prove_mix": [("zs", None, 7), ("fs-sim", None, 7), ("fs+lem", None, 6)],
    },
    "replay-interactive": {
        "files": 40, "lemmas": 3, "tests_per_file": 1, "configs": LOOP_CONFIGS,
        "proven_share": {"inter": 0.6, "repair": 0.5, "ens": 0.7},
        "foreign": 48000, "backend": "mock", "replay": True, "workers": 1,
        "prove_mix": [("inter", None, 7), ("repair", None, 7), ("ens", None, 6)],
    },
    "real-toplevel": {
        "files": 6, "lemmas": 5, "tests_per_file": 2, "configs": REAL_CONFIGS,
        "proven_share": {"zs": 0.5, "inter": 0.75},
        "foreign": 0, "backend": "real", "replay": False, "workers": 2,
        "query_mix": [100] * 4 + [2048] * 4 + [8192] * 3 + [32768],
        # p50 falls among the one-shot pairs and p90 among the 8k queries
        "prove_mix": [("zs", None, 12), ("inter", 100, 2), ("inter", 2048, 2),
                      ("inter", 8192, 3), ("inter", 32768, 1)],
    },
}

_LETTERS = "abcdefghijklmnopqrstuvwxyz"
_PREDICATES = ("below", "above", "reach", "steps", "relat", "simul", "divid", "bound")


def _ident(rng: random.Random, used: set[str], prefix: str) -> str:
    while True:
        name = prefix + "".join(rng.choice(_LETTERS) for _ in range(7))
        if name not in used:
            used.add(name)
            return name


def _fixed_share(rng: random.Random, items: list, share: float) -> set:
    """A seeded subset holding exactly round(share * len(items)) items."""
    return set(rng.sample(items, round(share * len(items))))


def _shuffled(rng: random.Random, values: list) -> list:
    out = list(values)
    rng.shuffle(out)
    return out


class Lemma:
    def __init__(self, rng: random.Random, used: set[str], file: str):
        self.file = file
        self.name = _ident(rng, used, "l_")
        self.aux = _ident(rng, used, "aux_")
        self.ghost = _ident(rng, used, "ghost_")
        self.query = _ident(rng, used, "q_")
        p, q = rng.sample(_PREDICATES, 2)
        self.goal = f"forall x y : nat, {p} x (y + n) -> {q} (x + m) y"
        self.statement = f"Lemma {self.name} : {self.goal}."
        self.steps = ["intros x y H.", f"apply {self.aux}."]
        self.kind = WRONG  # reassigned per workload

    @property
    def id(self) -> str:
        return f"{self.file}::{self.name}"

    def source(self) -> str:
        body = "\n".join(f"  {s}" for s in self.steps)
        return f"{self.statement}\nProof.\n{body}\nQed.\n"

    @property
    def right(self) -> str:
        return "Proof.\n" + "\n".join(self.steps) + "\nQed."

    def wrong_step(self) -> str:
        return {HALLUCINATED: f"apply {self.ghost}.", MISMATCH: "intros n.", WRONG: "reflexivity."}[self.kind]

    @property
    def wrong(self) -> str:
        if self.kind == MISMATCH:
            return f"Proof.\nintros n.\n{self.steps[1]}\nQed."
        return f"Proof.\n{self.steps[0]}\n{self.wrong_step()}\nQed."

    def hallucination_error(self) -> dict:
        return {"contains": self.ghost,
                "message": f"The reference {self.ghost} was not found in the current environment."}


def _project(rng: random.Random, spec: dict, root: Path) -> list[Lemma]:
    used: set[str] = set()
    lemmas: list[Lemma] = []
    root.mkdir(parents=True)
    for f in range(spec["files"]):
        file = f"f{f:02d}.v"
        section = f"S{f:02d}"
        parts = [f"(* Generated development {file}: {spec['lemmas']} lemmas. *)\n",
                 f"Section {section}.\nVariables (n m : nat).\n"]
        for _ in range(spec["lemmas"]):
            lemma = Lemma(rng, used, file)
            parts.append(lemma.source())
            lemmas.append(lemma)
        parts.append(f"End {section}.\n")
        (root / file).write_text("\n".join(parts), encoding="utf-8")
    return lemmas


def _tests(rng: random.Random, spec: dict, lemmas: list[Lemma]) -> list[Lemma]:
    """Stratified test picks: one per equal block of each file, at a seeded
    offset, so the prefix each test replays has the same length in
    expectation for every seed."""
    tests = []
    per, size = spec["tests_per_file"], spec["lemmas"]
    block = size // per
    for f in range(spec["files"]):
        in_file = lemmas[f * size:(f + 1) * size]
        for b in range(per):
            tests.append(in_file[b * block + rng.randrange(block)])
    return tests


def _dialogue(lemma: Lemma, proven: bool) -> list[str]:
    """Scripted interactive turns: a Search query, a rejected step, then
    either the two right steps (the second closing the proof) or the same
    wrong step until the turn budget runs out."""
    opening = [f"QUERY Search {lemma.query}", lemma.wrong_step()]
    if proven:
        return opening + [lemma.steps[0], lemma.steps[1] + "\nQed."]
    return opening + [lemma.wrong_step()] * (MAX_TURNS - 2)


def _script_entries(config: dict, lemma: Lemma, proven: bool) -> list[str]:
    loop = config.get("loop", "one_shot")
    if loop == "interactive":
        return _dialogue(lemma, proven)
    if loop in ("repair", "ensemble"):
        # repair: round 0 samples the wrong script twice, round 1 repairs it;
        # ensemble: the base prompt and the first variant get it wrong
        return [lemma.wrong, lemma.wrong, lemma.right] if proven else [lemma.wrong]
    return [lemma.right, lemma.wrong] if proven else [lemma.wrong, lemma.wrong]


def _expected_config(config: dict, tests: list[Lemma], proven: set[str]) -> dict:
    """Attempts and taxonomy per config, from how each dialogue was built."""
    loop = config.get("loop", "one_shot")
    n = config.get("decoding", {}).get("n", 5)
    taxonomy = {c: 0 for c in CATEGORIES}
    attempts = 0
    for lemma in tests:
        ok = lemma.id in proven
        category = ONE_SHOT_CATEGORY[lemma.kind]
        if loop == "interactive":
            attempts += 1
            taxonomy["correct" if ok else INTERACTIVE_CATEGORY[lemma.kind]] += 1
            continue
        if loop == "repair":
            wrong = 2 if ok else 2 + config["repair_rounds"]
        else:
            wrong = n - 1 if ok else n
        attempts += wrong + ok
        taxonomy["correct"] += ok
        taxonomy[category] += wrong
    return {
        "n_attempts": attempts,
        "n_proven_theorems": len(proven),
        "n_correct_proofs": len(proven),
        "n_accepted_raw": len(proven),
        "taxonomy": taxonomy,
    }


def _foreign_transcripts(rng: random.Random, count: int) -> list[dict]:
    rows = []
    for i in range(count):
        key = hashlib.sha256(f"foreign:{rng.random()}:{i}".encode()).hexdigest()
        steps = rng.randint(2, 6)
        body = "\n".join(
            f"{rng.choice(('intros', 'apply', 'rewrite', 'destruct', 'auto'))} "
            f"{''.join(rng.choice(_LETTERS) for _ in range(6))}." for _ in range(steps))
        completions = [f"Proof.\n{body}\nQed."] * rng.choice((1, 2, 3, 5))
        rows.append({"prompt_hash": key, "completions": completions, "provider": "scripted",
                     "timestamp": 1.7e9 + i, "token_usage": [0, 0], "retries": 0})
    return rows


def _write_cache(rows: list[dict], directory: Path) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    shards: dict[str, list[str]] = {}
    for row in rows:
        shards.setdefault(row["prompt_hash"][:2], []).append(json.dumps(row) + "\n")
    for prefix, lines in shards.items():
        (directory / f"{prefix}.jsonl").write_text("".join(lines), encoding="utf-8")


def _mock_table(lemmas: list[Lemma], tests: list[Lemma]) -> dict:
    theorems = {}
    for lemma in lemmas:
        theorems[lemma.name] = {
            "initial_state": f"n, m : nat\n{'_' * 38}(1/1)\n{lemma.goal}",
            "scripts": [lemma.steps + ["Qed."]],
            "errors": [lemma.hallucination_error()],
        }
    queries = {"Search": {t.query: f"{t.aux}: {t.goal}" for t in tests}}
    return {"theorems": theorems, "queries": queries}


def _fake_table(lemmas: list[Lemma], search: dict) -> dict:
    theorems = {
        lemma.name: {"hyps": "n, m : nat", "goal": lemma.goal,
                     "scripts": [lemma.steps + ["Qed."]],
                     "errors": [lemma.hallucination_error()]}
        for lemma in lemmas
    }
    return {"theorems": theorems, "search": search}


def _ini(path: Path, spec: dict, prover_command: str, cache: bool) -> None:
    lines = ["[paths]", "corpus_file = corpus.jsonl", "index_file = index.json"]
    if cache:
        lines.append("cache_dir = cache")
    lines += ["", "[provider]", "kind = scripted", "script_file = script.json", "", "[prover]"]
    if spec["backend"] == "real":
        lines += ["backend = real", f"prover_command = {prover_command}", "timeout_per_step = 20"]
    else:
        lines += ["backend = mock", "mock_table = mock_table.json"]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _prove_round(spec: dict, tests: list[Lemma], proven: dict, sizes: dict[str, int]) -> list[list[str]]:
    """One prove round: (theorem id, config tag) pairs proven by construction.

    Each group of `prove_mix` takes evenly spaced picks from its pool in
    file order, so the prefixes the proves replay have the same spread of
    lengths for every seed.
    """
    pairs = []
    for tag, size, count in spec["prove_mix"]:
        pool = [t.id for t in tests if t.id in proven[tag] and (size is None or sizes[t.query] == size)]
        pairs += [[pool[(2 * k + 1) * len(pool) // (2 * count)], tag] for k in range(count)]
    return pairs


def generate(workload: str, seed: int, out: Path, fake_command: str) -> dict:
    """Write the workload's inputs under `out` and return its plan.

    `fake_command` is the prover command line that starts the fake toplevel
    (the real-toplevel backend and every traced run's query probe);
    ``{table}`` in it is replaced by the table's path.
    """
    spec = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    out.mkdir(parents=True)
    lemmas = _project(rng, spec, out / "project")
    tests = _tests(rng, spec, lemmas)
    for lemma, kind in zip(tests, _shuffled(rng, [KINDS[i % len(KINDS)] for i in range(len(tests))])):
        lemma.kind = kind
    test_ids = [t.id for t in tests]

    proven = {c["tag"]: _fixed_share(rng, test_ids, spec["proven_share"][c["tag"]])
              for c in spec["configs"]}
    sizes = {}
    if "query_mix" in spec:
        sizes = {t.query: size for t, size in zip(tests, _shuffled(rng, spec["query_mix"]))}
        # every query size keeps a proven dialogue for the prove rounds: the
        # unproven ones are one seeded pick from each size shared by several
        groups = {}
        for t in tests:
            groups.setdefault(sizes[t.query], []).append(t.id)
        unproven = [rng.choice(ids) for _, ids in sorted(groups.items()) if len(ids) > 1]
        proven["inter"] = set(test_ids) - set(unproven[:len(tests) - len(proven["inter"])])

    entries = []
    for config in spec["configs"]:
        for lemma in tests:
            entries.append({"theorem": lemma.id, "config_tag": config["tag"],
                            "completions": _script_entries(config, lemma, lemma.id in proven[config["tag"]])})
    (out / "script.json").write_text(json.dumps({"default": "(* no scripted completion *)",
                                                 "entries": entries}), encoding="utf-8")
    (out / "manifest.json").write_text(json.dumps({"configs": spec["configs"]}), encoding="utf-8")

    # Search answers of stated sizes for the dialogues' queries; the fake
    # toplevel's probe table answers one query per size for the traced run
    search = {query: {"size": size, "seed": i} for i, (query, size) in enumerate(sorted(sizes.items()))}
    probe = {f"probe_{size}": {"size": size, "seed": 1000 + size} for size in QUERY_SIZES}
    (out / "probe_table.json").write_text(json.dumps({"search": probe}), encoding="utf-8")
    prover_command = ""
    if spec["backend"] == "real":
        table = _fake_table(lemmas, search)
        (out / "fake_table.json").write_text(json.dumps(table), encoding="utf-8")
        prover_command = fake_command.replace("{table}", str((out / "fake_table.json").resolve()))
    else:
        (out / "mock_table.json").write_text(json.dumps(_mock_table(lemmas, tests)), encoding="utf-8")
    _ini(out / "eval.ini", spec, prover_command, cache=spec["foreign"] > 0)
    _ini(out / "prove.ini", spec, prover_command, cache=spec["replay"])
    _write_cache(_foreign_transcripts(rng, spec["foreign"]), out / "cache-pristine")

    tags = [c["tag"] for c in spec["configs"]]
    per_config = {c["tag"]: _expected_config(c, tests, proven[c["tag"]]) for c in spec["configs"]}
    plan = {
        "workload": workload,
        "seed": seed,
        "replay": spec["replay"],
        "workers": spec["workers"],
        "test_ids": test_ids,
        "tcs_per_eval": len(tests) * len(tags),
        "corpus_chars": sum(len(p.read_text(encoding="utf-8")) for p in (out / "project").glob("*.v")),
        "prove_round": _prove_round(spec, tests, proven, sizes),
        "probe_command": fake_command.replace("{table}", str((out / "probe_table.json").resolve())),
        "expected": {
            "per_config": per_config,
            "proven": {tag: sorted(proven[tag]) for tag in tags},
            "coincidence": sorted([a, b, len(proven[a] & proven[b])] for a in tags for b in tags),
        },
        "queries": {query: {"size": s["size"],
                            "sha256": hashlib.sha256(search_text(s["seed"], s["size"]).encode()).hexdigest()}
                    for query, s in search.items()},
    }
    (out / "plan.json").write_text(json.dumps(plan, indent=1), encoding="utf-8")
    return plan
