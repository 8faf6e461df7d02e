"""The benchmark's traced run wraps package functions by name.

``bench/spans.py`` replaces each ``(owner, name)`` it lists with a wrapper
that records a span and, for some, counts work from the result. A function
renamed, no longer called through its wrap point, or returning another shape
fails no benchmark run: its per-layer metric just reads 0 or a wrong count.
These tests load the recorder by path, as it is, and check it against the
package.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

import sentimatch
import sentimatch.cli
from sentimatch import tokenize
from sentimatch.textstats import _word_spans
from _oracles import mask_oracle
from conftest import write_csv, write_jsonl

_SPANS_PATH = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("bench_spans", _SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_TEXTS = [
    "",
    "Fix the BUG :) now!",
    "see https://x.y/@me#top and `code()` @alice #typo don't",
    "WWW.example.org wWw.x ftp://host été \U0001f600",
]
# (URL, code span) appended to a text: every mix of the two masked kinds
_CONFIGS = [(url, code) for url in (True, False) for code in (True, False)]


def test_every_wrap_point_resolves(spans):
    for owner, attr, name, _ in spans.targets(sentimatch):
        assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr}"
        # install() saves vars(owner)[attr] to put it back afterwards
        assert attr in vars(owner), f"{owner.__name__}.{attr}"
        assert name.split(".", 1)[0] in spans.LAYERS


@pytest.mark.parametrize("config", _CONFIGS)
@pytest.mark.parametrize("text", _TEXTS)
def test_word_spans_yields_one_item_per_token(text, config):
    url, code = config
    text += " https://a.b/c?d=e" * url + " `x y` z" * code
    result = _word_spans(mask_oracle(text))
    assert isinstance(result, list)
    assert len(result) == len(tokenize(text))


def test_corpus_statistics_runs_through_the_wrap_points(spans, tmp_path, capsys):
    """``profile`` of two files calls ``corpus_statistics`` once, with documents
    ``count_text`` can walk again after the call, and pools them without
    ``merge_corpora``. Per document, the counting makes one ``_word_spans``
    call, over the chunks that are not purely alphabetic, and one
    ``EmoticonLexicon.count`` call; it makes no ``doc_counts`` call."""
    paths = [
        write_jsonl(tmp_path / "a.jsonl", [{"text": t} for t in _TEXTS[1:3]]),
        write_jsonl(tmp_path / "b.jsonl", [{"text": t} for t in _TEXTS[3:]]),
    ]
    texts = _TEXTS[1:]
    tracer = spans.Tracer()
    tracer.install(spans.targets(sentimatch))
    try:
        assert sentimatch.cli.main(["profile", *map(str, paths)]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    calls = tracer.by_name()
    assert len(calls["textstats.corpus_statistics"]) == 1
    assert len(calls["corpus.load_corpus"]) == len(paths)
    for name in ("corpus.merge_corpora", "textstats.doc_counts"):
        assert name not in calls, name
    for name in ("textstats.tokenize", "textstats.emoticon_count"):
        assert len(calls[name]) == len(texts), name
    assert tracer.counts["textstats.bytes"] == sum(len(t.encode("utf-8")) for t in texts)
    alphabetic_chunks = sum(sum(map(str.isalpha, mask_oracle(t).split())) for t in texts)
    assert alphabetic_chunks > 0
    assert tracer.counts["textstats.tokens"] == sum(len(tokenize(t)) for t in texts) - alphabetic_chunks


def test_the_record_readers_return_every_record_read(spans, tmp_path, capsys):
    """``count_read`` takes ``len()`` of what each record reader returns, so the
    readers must return a sized collection of every record they read."""
    labels = ["positive", "negative", "neutral", "negative", "positive", "neutral", "positive"]
    rows = [[f"d{i}", f"text {i}", label] for i, label in enumerate(labels)]
    corpus_csv = write_csv(tmp_path / "c.csv", rows, header=["id", "text", "label"])
    corpus_jsonl = write_jsonl(tmp_path / "c.jsonl", [{"text": text, "label": label} for _, text, label in rows])
    gold = write_jsonl(tmp_path / "gold.jsonl", [{"id": i, "label": label} for i, _, label in rows])
    pred = write_csv(tmp_path / "pred.csv", [[i, label] for i, _, label in reversed(rows)], header=["id", "label"])
    runs = [
        (["sample", str(corpus_csv), "--n", "3", "--seed", "1"], len(rows)),
        (["sample", str(corpus_jsonl), "--n", "3", "--seed", "1"], len(rows)),
        (["evaluate", "--gold", str(gold), "--pred", str(pred)], 2 * len(rows)),
    ]
    for argv, records in runs:
        tracer = spans.Tracer()
        tracer.install(spans.targets(sentimatch))
        try:
            assert sentimatch.cli.main(argv) == 0
        finally:
            tracer.uninstall()
        capsys.readouterr()
        assert tracer.counts["corpus.records_read"] == records, argv[0]
