"""Text statistics against counts known by construction.

``bench/gen.py`` assembles every document from whitespace-separated pieces
(words, misspellings, URLs, code spans, handles, emoticons, emoji, non-ASCII
and joined words, numbers) and adds up each piece's counts as it goes, from
the conventions of the README's statistics table. These counts do not come
from the package, so they check its conventions, where ``tests/_oracles.py``
checks only that a change keeps its behaviour. The generator is loaded by
path, as it is.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import tempfile
from pathlib import Path

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import sentimatch.cli
from sentimatch import Corpus, DocCounts, Document, corpus_statistics, doc_counts
from sentimatch.corpus import data_path

from conftest import load_bench_generator

gen = load_bench_generator()
_VOCAB = gen.Vocabulary(data_path("english_words.txt").parent)

# Each rate is drawn as 0, as 1 (every piece of one kind: all code, all URLs,
# all emoji, all handles, ...) or in between.
_RATE = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 0.3))


@st.composite
def _rates(draw) -> gen.Rates:
    low = draw(st.integers(1, 12))
    return gen.Rates(
        length=(low, draw(st.integers(low, 30))),
        tail=draw(st.sampled_from([0.0, 5.0])),
        **{name: draw(_RATE) for name in (
            "emoji", "multi_emoji", "emoticon", "url", "code", "handle", "caps",
            "misspelling", "non_ascii", "joined", "number", "line_break",
        )},
    )


def _expected(doc) -> DocCounts:
    return DocCounts(doc.chars, doc.words, doc.alpha, doc.caps, doc.mistakes, doc.emoticons,
                     doc.questions, doc.exclamations)


def _only(kind: str) -> gen.Rates:
    """Every piece after a document's first word of one kind."""
    return gen.Rates(length=(1, 25), **{kind: 1.0})


@settings(max_examples=60)
@given(
    seed=st.integers(0, 2**32),
    size=st.integers(1, 12),
    review=_rates(),
    issue=_rates(),
    review_share=st.sampled_from([0.0, 0.5, 1.0]),
    labeled_share=st.sampled_from([0.0, 0.8, 1.0]),
)
@example(1, 8, _only("code"), _only("url"), 0.5, 0.8)
@example(2, 8, _only("emoji"), _only("handle"), 0.5, 1.0)
@example(3, 8, gen.Rates(length=(1, 25), emoji=1.0, multi_emoji=1.0), _only("emoticon"), 0.5, 0.0)
def test_counts_equal_the_generators(seed, size, review, issue, review_share, labeled_share):
    # equal Rates are one key of gen.exact_shares, of weight 0 if review_share is 1
    assume(review != issue or review_share < 1)
    spec = gen.MixSpec(review_share=review_share, review=review, issue=issue,
                       labeled_share=labeled_share)
    docs = gen.TextGenerator(_VOCAB, random.Random(seed)).mixed(size, spec)
    for doc in docs:
        assert doc_counts(doc.text) == _expected(doc), doc.text
    corpus = Corpus(documents=tuple(Document(id=str(i), text=d.text) for i, d in enumerate(docs)))
    expected = gen.expected_profile(docs)
    assert corpus_statistics(corpus).to_dict() == expected

    with tempfile.TemporaryDirectory() as work:
        path = Path(work) / "corpus.jsonl"
        gen.write_jsonl(path, ((None, d.text, d.label) for d in docs))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert sentimatch.cli.main(["profile", str(path)]) == 0
    got = json.loads(out.getvalue())
    assert got["documents"] == len(docs)
    assert got["class_distribution"] == gen.class_counts(d.label for d in docs)
    assert got["statistics"] == expected
