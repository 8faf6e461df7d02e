r"""Per-corpus statistical features: eight averages over raw text.

For every document we count characters, word tokens, alphabetic characters,
all-caps words, spelling mistakes (dictionary membership test), emoticons,
question marks and exclamation marks; the corpus statistics are the arithmetic
means of those counts. Conventions the source data does not pin down are fixed
here and documented:

* ``chars`` counts every Unicode scalar of the raw text, whitespace included.
* ``chars per word`` is alphabetic characters inside word tokens divided by the
  word count, averaged per document (0 for wordless documents).
* a "capitalized word" is an all-uppercase token of length >= 2 ("BUG", not "I"
  and not sentence case).
* spelling-mistake candidates are purely alphabetic tokens not prefixed by
  ``@``/``#``; URLs and backtick code spans never produce tokens at all.

How a text is split: every count but ``chars``, ``?`` and ``!`` is a sum,
over the text's whitespace chunks (``str.split``), of a function of the chunk.
No word, URL or handle crosses whitespace (``str.isspace`` is the regex
``\s``), and a URL's ``\S+`` runs to the end of its chunk, so a chunk holding
"://" or "www." (any case) keeps what precedes its first URL for its words. A
table that lives for one ``corpus_statistics`` or ``doc_counts`` call judges
each distinct chunk once. It packs into one int, at bit offsets fixed for the
call, the chunk's words, alphabetic characters, capitalized words and spelling
mistakes (words after an ``@``/``#`` taken back), all after URL masking, and
the lexicon and emoji hits of the raw chunk. A chunk for which ``str.isalpha``
holds is one word token, without the regex: every alphabetic character is in
the word class ``[^\W\d_]``. As no field overflows into the next, the sum of
a text's chunk values packs the text's counts, and the sum of the texts'
values the call's totals. Backtick code spans are the exception, since one can
cross whitespace: a text with a code span blanked is split again, and its word
fields come from the blanked chunks, its emoticon field from the raw ones.
``tokenize`` makes one ``findall`` over the masked chunks.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Sequence

from .corpus import Corpus, Document, data_path, open_input
from .errors import EmptyCorpusError, InputValueError, named

#: Canonical field order shared with platform profiles and questionnaire statistics.
STAT_FIELDS: tuple[str, ...] = (
    "avg_chars_per_doc",
    "avg_chars_per_word",
    "avg_words_per_doc",
    "avg_capitalized_words",
    "avg_spelling_mistakes",
    "avg_emoticons",
    "avg_question_marks",
    "avg_exclamation_marks",
)

_WORD_RE = re.compile(r"[^\W\d_]+(?:['’-][^\W\d_]+)*")
_URL_RE = re.compile(r"(?:https?|ftp)://\S+|\bwww\.\S+", re.IGNORECASE)
_CODE_SPAN_RE = re.compile(r"`+[^`]+`+")
_HANDLE_RE = re.compile(f"[@#]({_WORD_RE.pattern})")

# Unicode blocks treated as emoji; each code point occurrence counts once.
_EMOJI_RANGES: tuple[tuple[int, int], ...] = (
    (0x1F300, 0x1F5FF),  # symbols & pictographs
    (0x1F600, 0x1F64F),  # emoticons
    (0x1F680, 0x1F6FF),  # transport & map
    (0x1F900, 0x1F9FF),  # supplemental symbols
    (0x1FA70, 0x1FAFF),  # extended-A
    (0x2600, 0x26FF),    # miscellaneous symbols
    (0x2700, 0x27BF),    # dingbats
    (0x1F1E6, 0x1F1FF),  # regional indicators
    (0x2B50, 0x2B50),
    (0x2B55, 0x2B55),
)
# The ranges above as one character class, so the per-code-point scan runs
# inside the regex engine.
_EMOJI_RE = re.compile(
    "[" + "".join(f"\\U{lo:08x}-\\U{hi:08x}" for lo, hi in _EMOJI_RANGES) + "]"
)


def _emoji(text: str) -> int:
    """The emoji code points of ``text``."""
    return 0 if text.isascii() else len(_EMOJI_RE.findall(text))  # emoji start at U+2600


def _blank(match: re.Match) -> str:
    return " " * (match.end() - match.start())


def _before_url(chunk: str) -> str:
    """What precedes the first URL of ``chunk``: a ``_URL_RE`` match never
    crosses whitespace and its ``\\S+`` runs to the end of its chunk."""
    # The regex cannot match a chunk lacking "://" and "www." (any case); the
    # test for "." is cheaper than lower().
    if "://" in chunk or "." in chunk and "www." in chunk.lower():
        match = _URL_RE.search(chunk)
        if match:
            return chunk[: match.start()]
    return chunk


def _word_spans(text: str) -> list[str]:
    """The word tokens of ``text``, which is masked already, in order."""
    return _WORD_RE.findall(text)


def tokenize(text: str) -> list[str]:
    """Extract word tokens in order; every token is a substring of the input.
    URLs and backtick code spans produce no tokens."""
    masked = _CODE_SPAN_RE.sub(_blank, text) if "`" in text else text
    return _word_spans(" ".join(map(_before_url, masked.split())))


class Dictionary:
    """Case-insensitive membership test against a known-word list."""

    def __init__(self, words: set[str] | frozenset[str]):
        normalized = frozenset(w.strip().lower() for w in words if w.strip())
        if not normalized:
            raise ValueError("dictionary must contain at least one word")
        self.words = normalized

    def __contains__(self, word: str) -> bool:
        return word.lower() in self.words

    def __len__(self) -> int:
        return len(self.words)

    @classmethod
    def from_file(cls, path: str | Path) -> "Dictionary":
        """Load a plain-text word list, one entry per line, UTF-8."""
        return _load_list(cls, path, str.split)


class EmoticonLexicon:
    """ASCII emoticon matching plus Unicode emoji detection.

    Lexicon entries match whitespace-delimited chunks of the text exactly;
    emoji are detected per code point via a fixed range table. Each occurrence
    counts once.
    """

    def __init__(self, emoticons: set[str] | frozenset[str]):
        entries = frozenset(e.strip() for e in emoticons if e.strip())
        if not entries:
            raise ValueError("emoticon lexicon must contain at least one entry")
        self.emoticons = entries

    def __contains__(self, chunk: str) -> bool:
        return chunk in self.emoticons

    def __len__(self) -> int:
        return len(self.emoticons)

    def count(self, text: str) -> int:
        """Lexicon entries among the whitespace chunks of ``text``, plus its
        emoji code points."""
        return sum(map(self.emoticons.__contains__, text.split())) + _emoji(text)

    @classmethod
    def from_file(cls, path: str | Path) -> "EmoticonLexicon":
        """Load a plain-text lexicon, one emoticon per line, UTF-8."""
        return _load_list(cls, path, str.splitlines)


def _load_list(cls, path: str | Path, split):
    with open_input(path, InputValueError) as handle:
        entries = set(split(handle.read()))
    with named(path, ValueError, InputValueError):
        return cls(entries)


@functools.cache
def bundled_dictionary() -> Dictionary:
    return Dictionary.from_file(data_path("english_words.txt"))


@functools.cache
def bundled_lexicon() -> EmoticonLexicon:
    return EmoticonLexicon.from_file(data_path("emoticons.txt"))


@dataclass(frozen=True)
class DocCounts:
    """Raw per-document counts feeding the corpus averages."""

    chars: int
    words: int
    alpha_chars: int
    capitalized_words: int
    spelling_mistakes: int
    emoticons: int
    question_marks: int
    exclamation_marks: int


class _ChunkTable(dict):
    """Chunk -> its packed counts, for the texts of one call.

    A value holds, ``width`` bits each from the lowest: words, alphabetic
    characters, capitalized words and spelling mistakes, all after URL
    masking, and emoticons of the raw chunk. No field of a chunk exceeds
    twice its length (one lexicon hit plus at most one emoji per character;
    the other fields at most one per character), so a field summed over chunks
    whose lengths total ``chars`` or less fits in ``chars.bit_length() + 1``
    bits. Equal values are one int object.
    """

    def __init__(self, chars: int, dictionary: Dictionary, lexicon: EmoticonLexicon):
        super().__init__()
        self.width = chars.bit_length() + 1
        self.dictionary = dictionary
        self.emoticons = lexicon.emoticons
        self.values: dict[int, int] = {}

    def __missing__(self, chunk: str) -> int:
        dictionary = self.dictionary
        if chunk.isalpha():  # one word token; no URL, no emoji
            words, alpha, misses = 1, len(chunk), chunk not in dictionary
            capitalized = alpha >= 2 and chunk.isupper()
            emoticons = chunk in self.emoticons
        else:
            word = _before_url(chunk)
            tokens = _word_spans(word)
            words = len(tokens)
            # apostrophes, hyphens and numerics such as "²" are not alphabetic
            alpha = sum(map(str.isalpha, "".join(tokens)))
            tokens = [*filter(str.isalpha, tokens)]
            capitalized = sum(len(t) >= 2 and t.isupper() for t in tokens)
            misses = sum(t not in dictionary for t in tokens)
            if "@" in word or "#" in word:
                # an @handle/#tag word is also a token: its miss is taken back
                misses -= sum(h.isalpha() and h not in dictionary for h in _HANDLE_RE.findall(word))
            emoticons = (chunk in self.emoticons) + _emoji(chunk)
        w = self.width
        value = (((emoticons << w | misses) << w | capitalized) << w | alpha) << w | words
        value = self[chunk] = self.values.setdefault(value, value)
        return value


def _totals(texts: list[str], dictionary: Dictionary | None,
            lexicon: EmoticonLexicon | None) -> tuple[list[int], dict[int, int]]:
    """Words, alphabetic characters, capitalized words, spelling mistakes and
    emoticons summed over ``texts``, and alphabetic characters summed per
    document word count."""
    table = _ChunkTable(sum(map(len, texts)), dictionary or bundled_dictionary(), lexicon or bundled_lexicon())
    get, width = table.__getitem__, table.width
    mask, words_mask = (1 << width) - 1, (1 << 4 * width) - 1
    total = 0
    alpha_by_words: dict[int, int] = {}
    for text in texts:
        value = sum(map(get, text.split()))
        if "`" in text:
            masked = _CODE_SPAN_RE.sub(_blank, text)
            if masked is not text:  # a span was blanked: words from the blanked chunks
                value = value & ~words_mask | sum(map(get, masked.split())) & words_mask
        total += value
        words = value & mask
        alpha_by_words[words] = alpha_by_words.get(words, 0) + (value >> width & mask)
    return [total >> shift & mask for shift in range(0, 5 * width, width)], alpha_by_words


def doc_counts(
    text: str,
    dictionary: Dictionary | None = None,
    lexicon: EmoticonLexicon | None = None,
) -> DocCounts:
    """Count one document. Pure function of its inputs.

    ``dictionary``/``lexicon`` default to the bundled data files.
    """
    (words, alpha, capitalized, mistakes, emoticons), _ = _totals([text], dictionary, lexicon)
    return DocCounts(len(text), words, alpha, capitalized, mistakes, emoticons,
                     text.count("?"), text.count("!"))


@dataclass(frozen=True)
class TextStatistics:
    """The eight per-corpus averages (per document)."""

    avg_chars_per_doc: float
    avg_chars_per_word: float
    avg_words_per_doc: float
    avg_capitalized_words: float
    avg_spelling_mistakes: float
    avg_emoticons: float
    avg_question_marks: float
    avg_exclamation_marks: float

    def to_dict(self) -> dict[str, float]:
        return {name: getattr(self, name) for name in STAT_FIELDS}


def corpus_statistics(
    corpus: Corpus | Sequence[Document],
    dictionary: Dictionary | None = None,
    lexicon: EmoticonLexicon | None = None,
) -> TextStatistics:
    """Average the per-document counts over the corpus (or any sequence of documents).

    Totals accumulate exactly (integers, and a rational for the per-document
    chars-per-word ratio) and are divided once, so results are independent of
    evaluation order and duplicating every document changes nothing. Raises
    EmptyCorpusError for an empty corpus rather than emitting NaN.
    """
    if len(corpus) == 0:
        raise EmptyCorpusError("cannot compute statistics of an empty corpus")
    texts = [doc.text for doc in corpus]
    (words, _, capitalized, mistakes, emoticons), alpha_by_words = _totals(texts, dictionary, lexicon)
    n = len(texts)
    # alpha_chars summed per word count: one Fraction for all ratios with that denominator
    ratio_total = sum(Fraction(alpha, k) for k, alpha in alpha_by_words.items() if k)
    return TextStatistics(
        avg_chars_per_doc=sum(map(len, texts)) / n,
        avg_chars_per_word=float(ratio_total / n),
        avg_words_per_doc=words / n,
        avg_capitalized_words=capitalized / n,
        avg_spelling_mistakes=mistakes / n,
        avg_emoticons=emoticons / n,
        avg_question_marks=sum(text.count("?") for text in texts) / n,
        avg_exclamation_marks=sum(text.count("!") for text in texts) / n,
    )
