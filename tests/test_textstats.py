from __future__ import annotations

import random
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sentimatch import (
    Corpus,
    Dictionary,
    DocCounts,
    Document,
    EmptyCorpusError,
    EmoticonLexicon,
    InputValueError,
    corpus_statistics,
    doc_counts,
    tokenize,
)
from sentimatch.corpus import data_path
from sentimatch.textstats import (
    _CODE_SPAN_RE,
    _EMOJI_RANGES,
    _URL_RE,
    _WORD_RE,
    _before_url,
    _blank,
    bundled_dictionary,
    bundled_lexicon,
)

from conftest import load_bench_generator
from _oracles import (
    corpus_statistics_oracle,
    doc_counts_oracle,
    mask_oracle,
    word_spans_oracle,
)


def one_doc_corpus(text: str) -> Corpus:
    return Corpus(documents=(Document(id="0", text=text),))


def test_tokenize_hello_world():
    assert tokenize("Hello world!") == ["Hello", "world"]


def test_tokenize_skips_emoticons():
    assert tokenize("fix this BUG :)") == ["fix", "this", "BUG"]


def test_tokenize_empty():
    assert tokenize("") == []


def test_tokenize_internal_apostrophe_and_hyphen():
    assert tokenize("don't half-baked 'quoted' -dash-") == [
        "don't",
        "half-baked",
        "quoted",
        "dash",
    ]


def test_tokenize_digits_break_words():
    assert tokenize("py3k x2 3rd") == ["py", "k", "x", "rd"]


def test_tokenize_strips_urls_and_code_spans_by_default():
    text = "see https://example.com/a?b=1 and `inline code()` ok"
    assert tokenize(text) == ["see", "and", "ok"]


def test_tokens_are_substrings_of_input():
    rng = random.Random(3)
    alphabet = "ab cD'-:)!?3é \n\t@#"
    for _ in range(200):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 60)))
        for token in tokenize(text):
            assert token in text
            assert token  # non-empty


def test_tokenize_is_deterministic():
    text = "Some MIXED text :) with https://u.rl and don't"
    assert tokenize(text) == tokenize(text)


def test_doc_counts_hello_world():
    counts = doc_counts("Hello world!")
    assert counts.chars == 12
    assert counts.words == 2
    assert counts.exclamation_marks == 1
    assert counts.question_marks == 0
    assert counts.alpha_chars == 10
    assert counts.spelling_mistakes == 0


def test_doc_counts_emoticons_not_words():
    counts = doc_counts(":) :(")
    assert counts.emoticons == 2
    assert counts.words == 0


def test_doc_counts_empty():
    counts = doc_counts("")
    assert counts == type(counts)(0, 0, 0, 0, 0, 0, 0, 0)


def test_capitalized_words_rule():
    counts = doc_counts("I fixed the BUG in IO but Bug IT'S")
    # BUG and IO count; "I" (length 1), "Bug" (mixed) and "IT'S" (apostrophe) do not
    assert counts.capitalized_words == 2


def test_spelling_mistakes_counted_case_insensitively():
    counts = doc_counts("helo wrld")
    assert counts.spelling_mistakes == 2
    assert doc_counts("Hello WORLD").spelling_mistakes == 0


def test_spelling_skips_handles_and_hyphenated_tokens():
    counts = doc_counts("@someuserx and #hashtagx are fine")
    assert counts.spelling_mistakes == 0
    # hyphenated/apostrophe tokens are not spell candidates
    assert doc_counts("qqq-zzz aren't").spelling_mistakes == 0
    assert doc_counts("qqqzzz").spelling_mistakes == 1


def test_spelling_skips_urls_under_default_config():
    assert doc_counts("docs at https://exampleqq.orgzz/pathzz").spelling_mistakes == 0


def test_custom_dictionary_and_lexicon(tmp_path):
    dict_path = tmp_path / "words.txt"
    dict_path.write_text("alpha\nbeta\n")
    lex_path = tmp_path / "emo.txt"
    lex_path.write_text(":}\n")
    dictionary = Dictionary.from_file(dict_path)
    lexicon = EmoticonLexicon.from_file(lex_path)
    counts = doc_counts("alpha BETA gamma :}", dictionary, lexicon)
    assert counts.spelling_mistakes == 1  # gamma
    assert counts.emoticons == 1


def test_dictionary_rejects_empty(tmp_path):
    empty = tmp_path / "w.txt"
    empty.write_text("\n\n")
    with pytest.raises(ValueError):
        Dictionary.from_file(empty)


def test_bundled_data_loads():
    assert len(bundled_dictionary()) > 1000
    assert len(bundled_lexicon()) > 30
    assert "the" in bundled_dictionary()
    assert ":)" in bundled_lexicon()


def test_emoji_counted_by_code_point():
    counts = doc_counts("I love it \U0001f600\U0001f680 ❤")
    assert counts.emoticons == 3


def test_emoji_counting_convention():
    def emoji(text: str) -> int:
        return doc_counts(text).emoticons

    assert emoji("\U0001f1e9\U0001f1ea") == 2  # flag: two regional indicators
    assert emoji("\U0001f44b\U0001f3fd") == 2  # hand plus skin-tone modifier
    assert emoji("\u200d") == 0  # zero-width joiner
    assert emoji("\ufe0f") == 0  # variation selector 16
    assert emoji("\u2b50") == 1
    assert emoji("\u2b55") == 1
    assert emoji("\u2b51") == 0


# Each emoji range's first and last code point, and the nearest code points
# outside every range, written out rather than read from ``_EMOJI_RANGES``, so
# that a range end moved in the package fails here.
_EMOJI_RANGE_ENDS = [
    (0x2600, 0x26FF), (0x2700, 0x27BF), (0x2B50, 0x2B50), (0x2B55, 0x2B55),
    (0x1F1E6, 0x1F1FF), (0x1F300, 0x1F5FF), (0x1F600, 0x1F64F), (0x1F680, 0x1F6FF),
    (0x1F900, 0x1F9FF), (0x1FA70, 0x1FAFF),
]
_JUST_OUTSIDE_EMOJI = [
    0x25FF, 0x27C0, 0x2B4F, 0x2B51, 0x2B54, 0x2B56, 0x1F1E5, 0x1F200, 0x1F2FF,
    0x1F650, 0x1F67F, 0x1F700, 0x1F8FF, 0x1FA00, 0x1FA6F, 0x1FB00,
]


def test_emoji_range_ends_are_pinned():
    lexicon = EmoticonLexicon({":)"})
    points = [(point, 1) for ends in _EMOJI_RANGE_ENDS for point in ends]
    for point, expected in points + [(point, 0) for point in _JUST_OUTSIDE_EMOJI]:
        text = chr(point)
        assert lexicon.count(text) == doc_counts(text, lexicon=lexicon).emoticons == expected, hex(point)


def _boundary_chars() -> list[str]:
    """Each emoji range's first and last code point and the ones just outside."""
    points = {p for lo, hi in _EMOJI_RANGES for p in (lo - 1, lo, hi, hi + 1)}
    return [chr(p) for p in sorted(points)]


_PIECES = [
    *_boundary_chars(),
    "\u200d",  # zero-width joiner
    "\ufe0f",  # variation selector 16
    "\U0001f3fb", "\U0001f3ff",  # skin tones
    "\U0001f1e9", "\U0001f1ea",  # regional indicators
    "'", "\u2019", "-", "\u00b2", "\u00bd", "\u0301", "\u0308",
    "@", "#", "`", "``", "http://", "https://x.y/", "www.",
    "WWW.", "wWw.", "ftp://", "HTTPS://", "https://x.y/@me#top",
    "x@`y`", "@-", "#'",
    "Fix the BUG in parse(), see issue 42: it isn't @alice's #typo.",
    "0", "7", "a", "e", "z", "A", "Z", "\u00e9", "\u00df", "\u03a3",
    "the", "The", "THE", "bug", "BUG", "helo", "I",
    ":)", ":-(", ":D", "xD", "XP", ";)", ":'(", "<3",
    "\u0130", "\u0130I",  # "İ": lower() makes two code points of it
    "camelCase", "parseJSON", "getHTTPResponse",
    " ", " ", "\n", "\t", "?", "!", ".",
    # the rest of the whitespace str.split() breaks on
    "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\xa0", "\u1680", "\u2028",
    "\u3000",
]
_TEXTS = st.lists(st.sampled_from(_PIECES), max_size=40).map("".join)
# Pieces where URLs and code spans meet brackets, emoticons, emoji, handles
# and each other.
_MASK_PIECES = [
    "(http://x.y)", "awww.x", "x`http://a b`y", "`www.a` b", "http://", "http://x?y!",
    "www.x.www.y", "\U0001f600http://x.y", "@http://x.y", "@www.x", "httpſ://x", "WwW.x",
    ":)http://x.y", "` :) `", "`x`:)",
]
_MASK_TEXTS = st.lists(st.sampled_from(_PIECES + _MASK_PIECES), max_size=40).map("".join)


@settings(max_examples=400, deadline=None)
@given(st.one_of(_TEXTS, _MASK_TEXTS))
def test_doc_counts_equals_oracle(text):
    dictionary, lexicon = bundled_dictionary(), bundled_lexicon()
    counts = doc_counts(text, dictionary, lexicon)
    assert counts == doc_counts_oracle(text, dictionary, lexicon)


@settings(max_examples=300, deadline=None)
@given(_TEXTS)
def test_tokenize_equals_oracle(text):
    assert tokenize(text) == [token for _, token in word_spans_oracle(text)]


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.one_of(_TEXTS, _MASK_TEXTS, st.sampled_from(["", " ", "?!", ":) \U0001f600", "42"])),
             min_size=1, max_size=12),
)
def test_corpus_statistics_equals_oracle(texts):
    corpus = Corpus(documents=tuple(Document(id=str(i), text=t) for i, t in enumerate(texts)))
    dictionary, lexicon = bundled_dictionary(), bundled_lexicon()
    stats = corpus_statistics(corpus, dictionary, lexicon)
    assert stats == corpus_statistics_oracle(corpus, dictionary, lexicon)
    assert corpus_statistics(list(corpus), dictionary, lexicon) == stats


def test_word_verdicts_last_one_call():
    """A chunk judged under one dictionary and lexicon is judged afresh under the next."""
    corpus = Corpus(documents=(Document(id="a", text="Qux qux BAR"), Document(id="b", text="qux, BAR!")))
    for words in ({"qux"}, {"bar"}, {"qux", "bar"}):
        for emoticons in ({"BAR!"}, {"Qux", "qux,"}):
            dictionary, lexicon = Dictionary(words), EmoticonLexicon(emoticons)
            assert corpus_statistics(corpus, dictionary, lexicon) == corpus_statistics_oracle(
                corpus, dictionary, lexicon
            )
            for doc in corpus:
                assert doc_counts(doc.text, dictionary, lexicon) == doc_counts_oracle(
                    doc.text, dictionary, lexicon
                )
    assert corpus_statistics(corpus, Dictionary({"qux"})).avg_spelling_mistakes == 1.0


def test_counts_past_sixteen_bits_in_one_text():
    """No field of the packed counts overflows into the next: here words,
    alphabetic characters, capitalized words, spelling mistakes and emoticons
    each pass 2**16 in one text."""
    gen = load_bench_generator()
    log = gen.TextGenerator(gen.Vocabulary(data_path("english_words.txt").parent), random.Random(4))
    log = log.log_document(140_000)
    text = "XD " * 70_000 + log.text  # "XD" is a word, capitalized, misspelled and an emoticon
    dictionary, lexicon = bundled_dictionary(), bundled_lexicon()
    counts = doc_counts(text, dictionary, lexicon)
    assert counts == doc_counts_oracle(text, dictionary, lexicon)
    assert counts == DocCounts(len(text), 70_000 + log.words, 140_000 + log.alpha, 70_000 + log.caps,
                               70_000 + log.mistakes, 70_000 + log.emoticons, log.questions,
                               log.exclamations)
    assert min(counts.words, counts.capitalized_words, counts.spelling_mistakes, counts.emoticons) > 2**16
    corpus = Corpus(documents=(Document(id="big", text=text), Document(id="small", text="XD ok")))
    assert corpus_statistics(corpus, dictionary, lexicon) == corpus_statistics_oracle(corpus, dictionary, lexicon)


def test_a_chunk_counts_the_same_raw_and_in_a_code_span():
    """In one call, ":)" is blanked inside a code span of one text and a raw
    chunk of the others: a text's words come from its blanked chunks, its
    emoticons from its raw ones."""
    texts = ["`a :) b` XD", ":) XD", "a :) b"]
    corpus = Corpus(documents=tuple(Document(id=str(i), text=t) for i, t in enumerate(texts)))
    dictionary, lexicon = bundled_dictionary(), bundled_lexicon()
    stats = corpus_statistics(corpus, dictionary, lexicon)
    assert stats == corpus_statistics_oracle(corpus, dictionary, lexicon)
    assert (stats.avg_words_per_doc, stats.avg_emoticons) == (4 / 3, 5 / 3)
    for text in texts:
        assert doc_counts(text, dictionary, lexicon) == doc_counts_oracle(text, dictionary, lexicon)


def test_whitespace_split_agrees_with_the_regexes():
    """The split into chunks relies on these: str.split() breaks where the
    regexes see whitespace, no whitespace is a word character, and a chunk for
    which str.isalpha() holds is one match of the word class. So a URL's
    ``\\S+`` ends at its chunk's end: a URL never crosses whitespace, and
    masking URLs chunk by chunk keeps what precedes each chunk's first match."""
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    spaces = {ch for ch in every if ch.isspace()}
    assert set(re.findall(r"\s", every)) == spaces
    assert not _WORD_RE.search("".join(spaces))
    letters = "".join(ch for ch in every if ch.isalpha())
    assert _WORD_RE.fullmatch(letters)


@settings(max_examples=300, deadline=None)
@given(_MASK_TEXTS)
def test_masking_chunk_by_chunk_equals_masking_the_text(text):
    """URLs masked chunk by chunk give the chunks of the masked text, and the
    chunks that are not purely alphabetic, joined by spaces, need no masking."""
    masked = _CODE_SPAN_RE.sub(_blank, text)
    assert [*filter(None, map(_before_url, masked.split()))] == _URL_RE.sub(_blank, masked).split()
    rest = " ".join(c for c in mask_oracle(text).split() if not c.isalpha())
    assert mask_oracle(rest) == rest


def test_only_a_scheme_or_www_starts_a_url():
    """A text or chunk lacking "://" and "www." (any case), or lacking ".", is
    not searched for a URL: ignoring case, ``_URL_RE``'s "w" matches only "w"
    and "W", and its "." only "."."""
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    assert set(re.findall(r"[w.]", every, re.IGNORECASE)) == {"w", "W", "."}


def test_question_and_exclamation_counted_over_raw_text():
    # raw text includes the URL's "?", even though the URL yields no tokens
    counts = doc_counts("what?! really?? https://x.y/?q=1")
    assert counts.question_marks == 4
    assert counts.exclamation_marks == 1


def test_corpus_statistics_mean_word_counts():
    corpus = Corpus(
        documents=(
            Document(id="a", text="hello world"),
            Document(id="b", text="one two three four"),
        )
    )
    stats = corpus_statistics(corpus)
    assert stats.avg_words_per_doc == 3.0


def test_corpus_statistics_single_doc_exclamation():
    stats = corpus_statistics(one_doc_corpus("Hi!"))
    assert stats.avg_exclamation_marks == 1.0
    assert stats.avg_chars_per_doc == 3.0


def test_corpus_statistics_repeated_doc_invariant():
    text = "Fix the BUG now! :) helo https://x.y don't"
    single = corpus_statistics(one_doc_corpus(text))
    for n in (2, 5, 17):
        repeated = Corpus(
            documents=tuple(Document(id=str(i), text=text) for i in range(n))
        )
        assert corpus_statistics(repeated) == single


def test_corpus_statistics_duplicating_corpus_is_invariant():
    rng = random.Random(9)
    texts = [
        "Great work, thanks!",
        "this crashes :( see `trace()` for details",
        "WHY does it fail??",
        "plain",
    ]
    documents = tuple(Document(id=str(i), text=rng.choice(texts)) for i in range(20))
    corpus = Corpus(documents=documents)
    doubled = Corpus(
        documents=documents
        + tuple(Document(id=f"dup{i}", text=doc.text) for i, doc in enumerate(documents))
    )
    assert corpus_statistics(doubled) == corpus_statistics(corpus)


def test_appending_exclamation_moves_only_two_fields():
    base = Corpus(
        documents=(
            Document(id="a", text="hello world"),
            Document(id="b", text="nice work"),
        )
    )
    bumped = Corpus(
        documents=(
            Document(id="a", text="hello world!"),
            Document(id="b", text="nice work"),
        )
    )
    before = corpus_statistics(base)
    after = corpus_statistics(bumped)
    assert after.avg_exclamation_marks > before.avg_exclamation_marks
    assert after.avg_chars_per_doc > before.avg_chars_per_doc
    for field in (
        "avg_chars_per_word",
        "avg_words_per_doc",
        "avg_capitalized_words",
        "avg_spelling_mistakes",
        "avg_emoticons",
        "avg_question_marks",
    ):
        assert getattr(after, field) == getattr(before, field)


def test_chars_per_word_is_mean_of_per_doc_ratios():
    corpus = Corpus(
        documents=(
            Document(id="a", text="ab cd"),      # 4 alpha / 2 words = 2.0
            Document(id="b", text="abcdef"),     # 6 / 1 = 6.0
            Document(id="c", text="?!"),         # no words contributes 0
        )
    )
    stats = corpus_statistics(corpus)
    assert stats.avg_chars_per_word == pytest.approx((2.0 + 6.0 + 0.0) / 3)


def test_all_dictionary_words_mean_zero_mistakes():
    corpus = one_doc_corpus("the quick code review works well")
    assert corpus_statistics(corpus).avg_spelling_mistakes == 0.0


def test_empty_corpus_rejected():
    with pytest.raises(EmptyCorpusError):
        corpus_statistics(Corpus(documents=()))


def test_doc_counts_is_pure():
    text = "Mixed BAG :) don't crash https://x.y ok? ok!"
    runs = {doc_counts(text) for _ in range(5)}
    assert len(runs) == 1


def test_a_named_word_list_error_keeps_its_cause(tmp_path):
    path = tmp_path / "words.txt"
    path.write_text(" \n", encoding="utf-8")
    with pytest.raises(InputValueError) as info:
        Dictionary.from_file(path)
    assert str(info.value) == f"{path}: dictionary must contain at least one word"
    assert type(info.value.__cause__) is ValueError
    assert str(info.value.__cause__) == "dictionary must contain at least one word"
