from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest
from hypothesis import Phase, settings

from sentimatch import (
    Corpus,
    Document,
    KnowledgeBase,
    PolarityLabel,
    QuestionnaireAnswers,
    load_knowledge_base,
)

DATA_DIR = Path(__file__).parent / "data"

# Property tests draw the same examples on every run and have no deadline, so
# that a slow machine cannot fail them. A failure is shrunk but not explained:
# the explain phase re-runs the failing example under a line tracer, which took
# most of the time a failing recommender property test needed to report.
settings.register_profile(
    "sentimatch", derandomize=True, deadline=None, database=None,
    phases=[phase for phase in Phase if phase is not Phase.explain],
)
settings.load_profile("sentimatch")

NEG = PolarityLabel.NEGATIVE
NEU = PolarityLabel.NEUTRAL
POS = PolarityLabel.POSITIVE


@pytest.fixture(scope="session")
def kb() -> KnowledgeBase:
    return load_knowledge_base()


@pytest.fixture(scope="session")
def example_answers_path() -> Path:
    return DATA_DIR / "example_answers.json"


@pytest.fixture(scope="session")
def example_answers(example_answers_path) -> QuestionnaireAnswers:
    return QuestionnaireAnswers.from_dict(json.loads(example_answers_path.read_text()))


def make_corpus(labels: list[PolarityLabel | str | None], prefix: str = "d") -> Corpus:
    """A corpus with one short document per label."""
    documents = tuple(
        Document(id=f"{prefix}{i}", text=f"text {i}", label=label)
        for i, label in enumerate(labels)
    )
    return Corpus(documents=documents)


def labeled_corpus(n_neg: int, n_neu: int, n_pos: int) -> Corpus:
    """A corpus with the given class counts, classes interleaved by block."""
    labels = [NEG] * n_neg + [NEU] * n_neu + [POS] * n_pos
    return make_corpus(labels)


def write_jsonl(path: Path, records: list[dict]) -> Path:
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, ensure_ascii=False) + "\n")
    return path


def write_csv(path: Path, rows: list[list[str]], header: list[str] | None = None) -> Path:
    import csv

    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        if header is not None:
            writer.writerow(header)
        writer.writerows(rows)
    return path


def load_bench_generator():
    """``bench/gen.py``, loaded by path as it is (once: its dataclasses need
    the module registered)."""
    if "bench_gen" not in sys.modules:
        path = Path(__file__).resolve().parent.parent / "bench" / "gen.py"
        spec = importlib.util.spec_from_file_location("bench_gen", path)
        sys.modules["bench_gen"] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules["bench_gen"])
    return sys.modules["bench_gen"]
