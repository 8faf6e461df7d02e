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

How a text is split: backtick code spans are blanked in the whole text, since
one can cross whitespace, and the text is then split on whitespace
(``str.split``) once. A URL never crosses whitespace and its ``\S+`` runs to
the end of its chunk, so URLs are masked chunk by chunk: a chunk holding
"://" or "www." (any case) keeps what precedes its first URL, and goes if
that is empty. ``tokenize`` makes one ``findall`` over these chunks. To count,
a chunk for which ``str.isalpha`` holds is taken as exactly one word token,
without the regex: no word, URL or handle crosses whitespace, ``str.isspace``
is the regex ``\s``, and every alphabetic character is in the word class
``[^\W\d_]``. The other chunks, joined by spaces, need no more masking; one
``findall`` scans them for words and another for handles. When no code span
was blanked, the emoticon lexicon matches the same raw chunks, so the text is
not split again. Every purely alphabetic word goes into a ``Counter`` that
lives for one ``corpus_statistics`` or ``doc_counts`` call; the capitalized
and spelling rules are then applied once per distinct word, weighted by its
count.
"""

from __future__ import annotations

import functools
import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import filterfalse
from operator import add
from pathlib import Path
from typing import Sequence

from .corpus import Corpus, Document, data_path, open_input
from .errors import EmptyCorpusError, InputValueError

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


def _blank(match: re.Match) -> str:
    return " " * (match.end() - match.start())


def _url_free(chunks: list[str]) -> list[str]:
    """``chunks`` with their URLs blanked and split off. A ``_URL_RE`` match
    never crosses whitespace and its ``\\S+`` runs to the end of its chunk, so
    a chunk keeps what comes before its first match and goes if that is empty."""
    kept = []
    for chunk in chunks:
        if "://" in chunk or "." in chunk and "www." in chunk.lower():
            match = _URL_RE.search(chunk)
            if match:
                chunk = chunk[: match.start()]
                if not chunk:
                    continue
        kept.append(chunk)
    return kept


def _chunks(text: str) -> tuple[list[str], list[str] | None]:
    """The whitespace chunks of ``text`` with code spans and URLs masked, and
    its raw chunks, or None when a code span was blanked."""
    masked = _CODE_SPAN_RE.sub(_blank, text) if "`" in text else text
    chunks = raw = masked.split()
    # Neither regex can match text lacking a backtick, "://" and "www." (any
    # case); the test for "." is cheaper than lower().
    if "://" in masked or "." in masked and "www." in masked.lower():
        chunks = _url_free(raw)
    return chunks, raw if masked is text else None


def _word_spans(text: str) -> list[str]:
    """The word tokens of ``text``, which is masked already, in order."""
    return _WORD_RE.findall(text)


def tokenize(text: str) -> list[str]:
    """Extract word tokens in order; every token is a substring of the input.
    URLs and backtick code spans produce no tokens."""
    return _word_spans(" ".join(_chunks(text)[0]))


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

    def count(self, text: str, chunks: Sequence[str] | None = None) -> int:
        """Lexicon entries among the whitespace chunks of ``text``, plus its
        emoji code points. A caller that has split ``text`` already passes
        ``chunks``, which must equal ``text.split()``."""
        hits = sum(map(self.emoticons.__contains__, text.split() if chunks is None else chunks))
        return hits if text.isascii() else hits + len(_EMOJI_RE.findall(text))  # emoji start at U+2600

    @classmethod
    def from_file(cls, path: str | Path) -> "EmoticonLexicon":
        """Load a plain-text lexicon, one emoticon per line, UTF-8."""
        return _load_list(cls, path, str.splitlines)


def _load_list(cls, path: str | Path, split):
    with open_input(path, InputValueError) as handle:
        entries = set(split(handle.read()))
    try:
        return cls(entries)
    except ValueError as exc:
        raise InputValueError(f"{path}: {exc}") from None


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


def _text_counts(text: str, lexicon: EmoticonLexicon, seen: Counter, handles: Counter) -> tuple[int, ...]:
    """Chars, words, alpha chars, emoticons, ``?`` and ``!`` of one text.

    Adds the text's alphabetic words to ``seen`` and its alphabetic @handle/#tag
    words to ``handles``, for ``_word_verdicts`` to judge.
    """
    chunks, raw = _chunks(text)
    words = [*filter(str.isalpha, chunks)]  # each one whole word token
    rest = " ".join(filterfalse(str.isalpha, chunks)) if len(words) < len(chunks) else ""
    tokens = _word_spans(rest)
    word_count = len(words) + len(tokens)
    # apostrophes, hyphens and numerics such as "²" are not alphabetic
    alpha_chars = sum(map(str.isalpha, "".join(filterfalse(str.isalpha, tokens))))
    words += filter(str.isalpha, tokens)
    seen.update(words)
    alpha_chars += len("".join(words))
    if "@" in rest or "#" in rest:
        # Neither sign is a word character or ends a masked region right before a
        # letter: these follow "@"/"#" in text.
        handles.update(filter(str.isalpha, _HANDLE_RE.findall(rest)))
    emoticons = lexicon.count(text, raw)
    return len(text), word_count, alpha_chars, emoticons, text.count("?"), text.count("!")


def _word_verdicts(seen: Counter, handles: Counter, dictionary: Dictionary) -> tuple[int, int]:
    """Capitalized words and spelling mistakes among the words ``_text_counts`` saw.

    Each rule is applied once per distinct word. An @handle/#tag is no spell
    candidate: each of its words is also in ``seen``, so its misses are taken back.
    """
    def misses(counter: Counter) -> int:
        return sum(n for word, n in counter.items() if word not in dictionary)

    capitalized = sum(n for word, n in seen.items() if len(word) >= 2 and word.isupper())
    return capitalized, misses(seen) - misses(handles)


def doc_counts(
    text: str,
    dictionary: Dictionary | None = None,
    lexicon: EmoticonLexicon | None = None,
) -> DocCounts:
    """Count one document. Pure function of its inputs.

    ``dictionary``/``lexicon`` default to the bundled data files.
    """
    seen, handles = Counter(), Counter()
    counts = _text_counts(text, lexicon or bundled_lexicon(), seen, handles)
    verdicts = _word_verdicts(seen, handles, dictionary or bundled_dictionary())
    return DocCounts(*counts[:3], *verdicts, *counts[3:])


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
    lexicon = lexicon or bundled_lexicon()
    seen, handles = Counter(), Counter()  # alphabetic words of this call only

    n = len(corpus)
    totals = [0] * 6
    # alpha_chars summed per word count: one Fraction for all ratios with that denominator
    alpha_by_words: dict[int, int] = {}
    for doc in corpus:
        counts = _text_counts(doc.text, lexicon, seen, handles)
        totals = [*map(add, totals, counts)]
        words, alpha = counts[1:3]
        alpha_by_words[words] = alpha_by_words.get(words, 0) + alpha
    chars, words, _, emoticons, questions, exclamations = totals
    capitalized, mistakes = _word_verdicts(seen, handles, dictionary or bundled_dictionary())
    ratio_total = sum(Fraction(alpha, k) for k, alpha in alpha_by_words.items() if k)
    return TextStatistics(
        avg_chars_per_doc=chars / n,
        avg_chars_per_word=float(ratio_total / n),
        avg_words_per_doc=words / n,
        avg_capitalized_words=capitalized / n,
        avg_spelling_mistakes=mistakes / n,
        avg_emoticons=emoticons / n,
        avg_question_marks=questions / n,
        avg_exclamation_marks=exclamations / n,
    )
