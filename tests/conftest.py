import json
from pathlib import Path

import pytest

from coqharness import corpus as corpus_mod
from coqharness.agent import AgentDeps
from coqharness.client import ScriptedProvider
from coqharness.driver import SessionConfig, start_session
from coqharness.prompting import TemplateSet
from coqharness.retriever import build_index
from chat_stub import serve_chat_stub
from walk_project import build_walk_project

FIXTURES = Path(__file__).parent / "fixtures"

TEST_IDS = (
    "relations.v::union_incl",
    "relations.v::trans_incl",
    "weak.v::weak_refl",
    "weak.v::G_wmon",
)


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture(scope="session")
def mock_table() -> dict:
    return json.loads((FIXTURES / "mock_table.json").read_text())


@pytest.fixture()
def mock_session(mock_table):
    session = start_session(SessionConfig(backend="mock", mock_table=mock_table))
    yield session
    session.close()


@pytest.fixture(scope="session")
def toy_corpus():
    corpus = corpus_mod.ingest_project(FIXTURES / "project")
    return corpus_mod.split_corpus(corpus, policy="explicit", explicit_test_ids=TEST_IDS)


@pytest.fixture()
def scripted_provider_fresh():
    def make() -> ScriptedProvider:
        return ScriptedProvider(FIXTURES / "provider_script.json")

    return make


@pytest.fixture()
def toy_deps(toy_corpus, mock_table, scripted_provider_fresh):
    """Fresh deterministic deps: scripted provider + mock prover sessions."""

    def make(provider=None) -> AgentDeps:
        return AgentDeps(
            corpus=toy_corpus,
            provider=provider or scripted_provider_fresh(),
            prover=SessionConfig(backend="mock", mock_table=mock_table),
            index=build_index(toy_corpus.train),
            templates=TemplateSet.load(),
        )

    return make


@pytest.fixture(scope="session")
def manifest_path() -> Path:
    return FIXTURES / "manifest.json"


@pytest.fixture()
def walk_project(tmp_path) -> dict:
    return build_walk_project(tmp_path / "walk")


@pytest.fixture()
def no_proxy(monkeypatch):
    """A request to 127.0.0.1 consults no proxy."""
    for name in ("http_proxy", "https_proxy", "all_proxy"):
        monkeypatch.delenv(name, raising=False)
        monkeypatch.delenv(name.upper(), raising=False)
    monkeypatch.setenv("NO_PROXY", "127.0.0.1")


@pytest.fixture()
def chat_stub(no_proxy):
    """A loopback chat-completions endpoint (`chat_stub.py`)."""
    with serve_chat_stub() as server:
        yield server


LONG_FILES, LONG_LEMMAS = 3, 200


def _long_lemma(f: int, i: int) -> str:
    if i % 4 == 3:  # bullets, a nested comment, a string with a period, non-ASCII text
        return (
            f"(* lemme n°{i}. (* inner. *) *)\nLemma l{f}_{i} : ∀ n : nat, n = n /\\ {i} = {i}.\n"
            f'Proof.\n  split.\n  - reflexivity.\n  - exact (eq_refl "é. {i}").\nQed.\n'
        )
    return f"Lemma l{f}_{i} : forall n : nat, n + {i} = n + {i}.\nProof.\n  intros n.\n  reflexivity.\nQed.\n"


@pytest.fixture(scope="session")
def long_project(tmp_path_factory) -> dict:
    """LONG_FILES files of LONG_LEMMAS lemmas each, ingested and split."""
    project = tmp_path_factory.mktemp("long") / "project"
    project.mkdir()
    for f in range(LONG_FILES):
        lemmas = "\n".join(_long_lemma(f, i) for i in range(LONG_LEMMAS))
        (project / f"m{f}.v").write_text(f"Section M{f}.\nVariable n : nat.\n{lemmas}End M{f}.\n",
                                         encoding="utf-8")
    corpus = corpus_mod.split_corpus(corpus_mod.ingest_project(project), seed=1)
    return {"project": project, "corpus": corpus}
