"""Seeded input generator for the sentimatch benchmark.

Everything is built from the bundled word list and emoticon lexicon, so no
download is needed. Every document is assembled from whitespace-separated
pieces whose counts are known when the piece is made, following the
conventions in the README's statistics table:

* a word is a run of letters (internal apostrophes and hyphens allowed);
  URLs and backtick code spans produce no words;
* a capitalised word is an all-uppercase word of two or more letters;
* a spelling mistake is a purely alphabetic word missing from the word list,
  unless it follows ``@`` or ``#``;
* an emoticon is a whitespace-delimited lexicon entry, and every emoji code
  point counts once (a flag is two code points, a skin-tone modifier is one
  more, joiners and variation selectors are none). An emoticon such as ``XD``
  is also a word, a capitalised word and a spelling mistake;
* ``?`` and ``!`` count wherever they occur, inside URLs and code spans too.

So the expected statistics of a corpus come from the generator's own totals,
not from running the program.
"""

from __future__ import annotations

import csv
import json
import math
import random
import unicodedata
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

POLARITIES = ("negative", "neutral", "positive")

#: Emoji sequences with the number of emoji code points each holds.
EMOJI: tuple[tuple[str, int], ...] = (
    ("\U0001F642", 1),  # slightly smiling face
    ("\U0001F602", 1),  # face with tears of joy
    ("\U0001F389", 1),  # party popper
    ("\U0001F525", 1),  # fire
    ("\U0001F44D", 1),  # thumbs up
    ("\U0001F680", 1),  # rocket
    ("\U0001F914", 1),  # thinking face
    ("\U0001FAE0", 1),  # melting face
    ("☕", 1),  # hot beverage
    ("⭐", 1),  # star
    ("✅", 1),  # check mark button
    ("❤️", 1),  # heart + variation selector
    ("✌️", 1),  # victory hand + variation selector
    ("\U0001F44D\U0001F3FD", 2),  # thumbs up + skin tone
    ("\U0001F44B\U0001F3FB", 2),  # waving hand + skin tone
    ("\U0001F1E9\U0001F1EA", 2),  # flag: two regional indicators
    ("\U0001F1EF\U0001F1F5", 2),
    ("\U0001F468‍\U0001F4BB", 2),  # man + joiner + laptop
    ("\U0001F3F3️‍\U0001F308", 2),  # white flag + selector + joiner + rainbow
)

SINGLE_EMOJI = [e for e in EMOJI if e[1] == 1]
MULTI_EMOJI = [e for e in EMOJI if e[1] > 1]

#: NFC non-ASCII words: (text, all-uppercase). None is in the word list.
NON_ASCII: tuple[tuple[str, bool], ...] = (
    ("café", False), ("naïve", False), ("über", False), ("façade", False),
    ("jalapeño", False), ("señor", False), ("crème", False), ("brûlée", False),
    ("déjà", False), ("smörgåsbord", False), ("Zürich", False), ("São", False),
    ("straße", False), ("mañana", False), ("résumé", False), ("coöperate", False),
    ("Ελλάδα", False), ("привет", False), ("ÜBER", True), ("CAFÉ", True),
)

#: Words with an internal apostrophe or hyphen: one word, never a spelling
#: candidate (not purely alphabetic). Value: letters in the word.
JOINED: tuple[tuple[str, int], ...] = (
    ("don't", 4), ("it's", 3), ("can't", 4), ("isn't", 4), ("won’t", 4),
    ("well-known", 9), ("follow-up", 8), ("built-in", 7), ("re-run", 5),
)

HANDLES = ("alice", "bob", "carol", "dmitri", "eve", "fatima", "gus", "hiro", "ines", "jonas")

RAW_EMOTIONS = {
    "Joy": "positive",
    "Love": "positive",
    "Surprise": "neutral",
    "Calm": "neutral",
    "Anger": "negative",
    "Sadness": "negative",
    "Fear": "negative",
    "Sarcasm": "drop",
}

STAT_FIELDS = (
    "avg_chars_per_doc",
    "avg_chars_per_word",
    "avg_words_per_doc",
    "avg_capitalized_words",
    "avg_spelling_mistakes",
    "avg_emoticons",
    "avg_question_marks",
    "avg_exclamation_marks",
)


WORD_LENGTH_DECAY = 0.55


class Vocabulary:
    """The bundled word list and emoticon lexicon, read as plain files."""

    def __init__(self, data_dir: Path):
        words = (data_dir / "english_words.txt").read_text(encoding="utf-8").split()
        self.dictionary = frozenset(w.lower() for w in words)
        self.words = sorted(w for w in self.dictionary if w.isascii() and w.isalpha())
        self.long_words = [w for w in self.words if len(w) >= 4]
        # Running text favours short words: each word appears in proportion to
        # WORD_LENGTH_DECAY ** (letters - 1), which brings the mean word length
        # of generated text into the 4.1-4.7 letters the knowledge base measured.
        self.common = [w for w in self.words
                       for _ in range(max(1, round(1000 * WORD_LENGTH_DECAY ** (len(w) - 1))))]
        lines = (data_dir / "emoticons.txt").read_text(encoding="utf-8").splitlines()
        emoticons = [e.strip() for e in lines if e.strip()]
        self.lexicon = frozenset(emoticons)
        self.emoticon_pieces = [self._emoticon_piece(e) for e in emoticons]
        for text, _ in NON_ASCII:
            if not unicodedata.is_normalized("NFC", text) or text.lower() in self.dictionary:
                raise ValueError(f"non-ASCII word {text!r} must be NFC and outside the word list")

    def _emoticon_piece(self, emoticon: str) -> "Piece":
        """Counts of one emoticon chunk: its ASCII letter runs are words."""
        for i in range(1, len(emoticon) - 1):
            if emoticon[i] in "'’-" and emoticon[i - 1].isalpha() and emoticon[i + 1].isalpha():
                raise ValueError(f"emoticon {emoticon!r} joins letters into one word")
        runs = "".join(ch if ch.isascii() and ch.isalpha() else " " for ch in emoticon).split()
        caps = sum(1 for r in runs if len(r) >= 2 and r == r.upper())
        mistakes = sum(1 for r in runs if r.lower() not in self.dictionary)
        return Piece(emoticon, len(runs), sum(map(len, runs)), caps, mistakes, 1)


class Piece(NamedTuple):
    """A whitespace-free chunk of text with its counts known by construction."""

    text: str
    words: int = 0
    alpha: int = 0
    caps: int = 0
    mistakes: int = 0
    emoticons: int = 0


@dataclass(frozen=True)
class Doc:
    """A generated document with its expected per-document counts."""

    text: str
    label: str | None
    words: int
    alpha: int
    caps: int
    mistakes: int
    emoticons: int
    questions: int
    exclamations: int

    @property
    def chars(self) -> int:
        return len(self.text)


@dataclass(frozen=True)
class Rates:
    """Per-piece probabilities for one kind of document, plus its length: a
    number of pieces in ``length``, spread evenly over the range or, with a
    ``tail``, its low end plus an exponential tail of that mean, cut at the
    high end."""

    length: tuple[int, int]
    tail: float = 0.0
    emoji: float = 0.0
    multi_emoji: float = 0.0  # share of emoji that are multi-code-point sequences
    emoticon: float = 0.0
    url: float = 0.0
    code: float = 0.0
    handle: float = 0.0
    caps: float = 0.0
    misspelling: float = 0.0
    non_ascii: float = 0.0
    joined: float = 0.0
    number: float = 0.0
    line_break: float = 0.0


# The rates put the pooled averages of a mixed corpus inside the range the
# knowledge base's ``statistic_profiles`` measured on the five datasets (see
# README.md); review-like documents carry most of the emoji and emoticons.
REVIEW = Rates(
    length=(3, 30), emoji=0.014, multi_emoji=0.4, emoticon=0.008, caps=0.006,
    misspelling=0.03, non_ascii=0.005, joined=0.03,
)
ISSUE = Rates(
    length=(8, 400), tail=37, emoji=0.002, multi_emoji=0.3, emoticon=0.002, url=0.01,
    code=0.015, handle=0.01, caps=0.008, misspelling=0.035, non_ascii=0.008, joined=0.02,
    number=0.015, line_break=0.05,
)
#: Document endings and their weights.
ENDINGS = {"": 30, ".": 40, "?": 15, "!": 8, "?!": 3, "!!": 2, "!!!": 2}
#: Plain text for the lines of a pasted log.
PLAIN = Rates(length=(4, 24), misspelling=0.03, joined=0.02, number=0.01, line_break=0.01)


@dataclass(frozen=True)
class MixSpec:
    """Make-up of a mixed corpus: share of review-like documents, the rates of
    both document kinds, and the label shares (the rest is unlabeled)."""

    review_share: float = 0.6
    review: Rates = REVIEW
    issue: Rates = ISSUE
    labeled_share: float = 0.8


class TextGenerator:
    def __init__(self, vocab: Vocabulary, rng: random.Random):
        self.vocab = vocab
        self.rng = rng

    def _word(self, case: str = "lower") -> Piece:
        word = self.rng.choice(self.vocab.common)
        if case == "upper" and len(word) >= 2:
            return Piece(word.upper(), 1, len(word), 1, 0)
        if case == "title":
            word = word.capitalize()
        return Piece(word, 1, len(word), 0, 0)

    def _misspelling(self, upper: bool) -> Piece:
        rng, vocab = self.rng, self.vocab
        while True:
            word = rng.choice(vocab.long_words)
            i = rng.randrange(len(word) - 1)
            kind = rng.randrange(3)
            if kind == 0:
                typo = word[:i] + word[i + 1] + word[i] + word[i + 2:]
            elif kind == 1:
                typo = word[:i] + word[i] + word[i:]
            else:
                typo = word[:i] + word[i + 1:]
            if typo not in vocab.dictionary:
                break
        if upper:
            return Piece(typo.upper(), 1, len(typo), 1, 1)
        return Piece(typo, 1, len(typo), 0, 1)

    def _emoji(self, multi: float) -> tuple[str, int]:
        return self.rng.choice(MULTI_EMOJI if self.rng.random() < multi else SINGLE_EMOJI)

    def _url(self) -> Piece:
        n = self.rng.randrange(1, 100000)
        return Piece(self.rng.choice((
            f"https://github.com/acme/widgets/issues/{n}",
            f"https://example.com/search?q=crash&page={n}",
            f"http://docs.example.org/v{n}/api.html",
            f"www.example.net/faq#{n}",
            f"https://ci.example.com/#!/builds/{n}",
            f"ftp://mirror.example.org/pub/{n}.tar.gz",
        )))

    def _code(self) -> Piece:
        return Piece(self.rng.choice((
            "`foo()`", "`x != y`", "`if (!ready) return;`", "`obj?.field`",
            "`SELECT * FROM users`", "`git rebase -i HEAD~3`", "`len(xs) == 0`",
        )))

    def _number(self) -> Piece:
        n = self.rng.randrange(100000)
        return Piece(self.rng.choice((str(n), f"{n}.5", f"#{n}", f"{n % 28 + 1}/{n % 12 + 1}")))

    def piece(self, rates: Rates) -> Piece:
        """One piece; each kind is drawn with its rate, plain words otherwise."""
        rng = self.rng
        x = rng.random()
        for rate, make in (
            (rates.emoticon, lambda: rng.choice(self.vocab.emoticon_pieces)),
            (rates.url, self._url),
            (rates.code, self._code),
            (rates.handle, self._handle),
            (rates.caps, lambda: self._word("upper")),
            (rates.misspelling, lambda: self._misspelling(rng.random() < 0.2)),
            (rates.non_ascii, self._non_ascii),
            (rates.joined, self._joined),
            (rates.number, self._number),
        ):
            if x < rate:
                return make()
            x -= rate
        return self._word()

    def _handle(self) -> Piece:
        name = self.rng.choice(HANDLES)
        prefix = self.rng.choice("@@#")
        suffix = str(self.rng.randrange(100)) if self.rng.random() < 0.3 else ""
        return Piece(prefix + name + suffix, 1, len(name))

    def _non_ascii(self) -> Piece:
        text, upper = self.rng.choice(NON_ASCII)
        return Piece(text, 1, len(text), int(upper), 1)

    def _joined(self) -> Piece:
        text, letters = self.rng.choice(JOINED)
        return Piece(text, 1, letters)

    def document(self, rates: Rates, label: str | None, length: int | None = None) -> Doc:
        """One document of ``length`` pieces (drawn from the rates' range if not given)."""
        rng = self.rng
        pieces = [self._word("title")]
        separators: list[str] = []
        for _ in range((length or rng.randint(*rates.length)) - 1):
            piece = self.piece(rates)
            if rng.random() < rates.emoji:
                emoji, count = self._emoji(rates.multi_emoji)
                if rng.random() < 0.5 and piece.text not in self.vocab.lexicon:
                    # attached emoji: the chunk is no emoticon, the letters stay a word
                    piece = Piece(piece.text + emoji, piece.words, piece.alpha, piece.caps,
                                  piece.mistakes, piece.emoticons + count)
                else:
                    pieces.append(Piece(emoji, emoticons=count))
                    separators.append(" ")
            pieces.append(piece)
            separators.append("\n" if rng.random() < rates.line_break else " ")
        end = rng.choices(tuple(ENDINGS), tuple(ENDINGS.values()))[0]
        last = pieces[-1]
        if last.text in self.vocab.lexicon or last.text + end in self.vocab.lexicon:
            pieces.append(Piece(end))
            separators.append(" ")
        else:
            pieces[-1] = Piece(last.text + end, last.words, last.alpha, last.caps,
                               last.mistakes, last.emoticons)
        text = pieces[0].text + "".join(sep + p.text for sep, p in zip(separators, pieces[1:]))
        lexicon_pieces = sum(1 for p in pieces if p.text in self.vocab.lexicon)
        if lexicon_pieces != sum(1 for chunk in text.split() if chunk in self.vocab.lexicon):
            raise AssertionError(f"generator made an unplanned emoticon chunk in {text!r}")
        return Doc(
            text=text,
            label=label,
            words=sum(p.words for p in pieces),
            alpha=sum(p.alpha for p in pieces),
            caps=sum(p.caps for p in pieces),
            mistakes=sum(p.mistakes for p in pieces),
            emoticons=sum(p.emoticons for p in pieces),
            questions=sum(p.text.count("?") for p in pieces),
            exclamations=sum(p.text.count("!") for p in pieces),
        )

    def mixed(self, count: int, spec: MixSpec = MixSpec()) -> list[Doc]:
        """``count`` documents; the shares of review-like documents and of each
        label are exact, so that seeds differ in content, not in make-up."""
        share = spec.labeled_share / 3
        kinds = exact_shares(self.rng, count, {spec.review: spec.review_share,
                                              spec.issue: 1 - spec.review_share})
        labels = exact_shares(self.rng, count, {**dict.fromkeys(POLARITIES, share),
                                               None: 1 - spec.labeled_share})
        lengths = {rates: iter(spread_lengths(self.rng, kinds.count(rates), *rates.length,
                                              rates.tail))
                   for rates in (spec.review, spec.issue)}
        return [self.document(rates, label, next(lengths[rates]))
                for rates, label in zip(kinds, labels)]

    def log_document(self, min_chars: int) -> Doc:
        """A pasted log: one document of at least ``min_chars`` characters."""
        levels = [w for w in ("error", "warning", "info", "debug") if w in self.vocab.dictionary]
        lines: list[Doc] = []
        size = 0
        while size < min_chars:
            n = self.rng.randrange(10**6)
            level = self.rng.choice(levels).upper()
            body = self.document(PLAIN, None)
            stamp = f"2024-05-{n % 28 + 1:02d} {n % 24:02d}:{n % 60:02d}:{n % 59:02d}"
            line = f"{stamp} {level} {body.text} ({n})"
            lines.append(Doc(line, None, body.words + 1, body.alpha + len(level), body.caps + 1,
                             body.mistakes, body.emoticons, body.questions, body.exclamations))
            size += len(line) + 1
        return Doc(
            text="\n".join(d.text for d in lines),
            label=None,
            **{f: sum(getattr(d, f) for d in lines) for f in
               ("words", "alpha", "caps", "mistakes", "emoticons", "questions", "exclamations")},
        )


def expected_profile(docs: list[Doc]) -> dict:
    """The ``statistics`` object ``profile`` must print for these documents.

    Totals are exact integers and Fractions, divided once.
    """
    n = len(docs)
    ratio = sum((Fraction(d.alpha, d.words) for d in docs if d.words), Fraction(0))
    totals = (
        sum(d.chars for d in docs),
        ratio,
        sum(d.words for d in docs),
        sum(d.caps for d in docs),
        sum(d.mistakes for d in docs),
        sum(d.emoticons for d in docs),
        sum(d.questions for d in docs),
        sum(d.exclamations for d in docs),
    )
    return {name: float(Fraction(total) / n) for name, total in zip(STAT_FIELDS, totals)}


def class_counts(labels) -> dict[str, int]:
    counts = {p: 0 for p in POLARITIES}
    unlabeled = 0
    for label in labels:
        if label is None:
            unlabeled += 1
        else:
            counts[label] += 1
    return {**counts, "unlabeled": unlabeled, "total": sum(counts.values()) + unlabeled}


# ---------------------------------------------------------------- file writers


def write_jsonl(path: Path, records) -> int:
    """Write ``{"id"?, "text", "label"?}`` records; returns the file size."""
    with open(path, "w", encoding="utf-8") as handle:
        for doc_id, text, label in records:
            obj = {} if doc_id is None else {"id": doc_id}
            obj["text"] = text
            if label is not None:
                obj["label"] = label
            handle.write(json.dumps(obj, ensure_ascii=False) + "\n")
    return path.stat().st_size


def write_jsonl_labels(path: Path, pairs) -> None:
    """Write ``{"id", "label"}`` records: a label file without text."""
    with open(path, "w", encoding="utf-8") as handle:
        for doc_id, label in pairs:
            handle.write(json.dumps({"id": doc_id, "label": label}) + "\n")


def write_csv(path: Path, header, rows) -> int:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    return path.stat().st_size


# ---------------------------------------------------------- annotation inputs


def exact_shares(rng: random.Random, count: int, weights: dict) -> list:
    """``count`` keys in shuffled order, each appearing in proportion to its
    weight (largest remainder)."""
    total = sum(weights.values())
    quotas = {key: count * w / total for key, w in weights.items()}
    out = {key: int(q) for key, q in quotas.items()}
    for key in sorted(quotas, key=lambda k: out[k] - quotas[k])[: count - sum(out.values())]:
        out[key] += 1
    items = [key for key, n in out.items() for _ in range(n)]
    rng.shuffle(items)
    return items


def spread_lengths(rng: random.Random, count: int, low: int, high: int,
                   tail: float = 0.0) -> list[int]:
    """``count`` lengths at evenly spaced quantiles, in shuffled order, so that
    the total hardly depends on the seed: of the uniform distribution over
    [low, high], or with a ``tail``, of low plus an exponential of that mean,
    cut at high."""
    quantiles = [(i + 0.5) / count for i in range(count)]
    if tail:
        lengths = [min(high, low + round(-tail * math.log1p(-q))) for q in quantiles]
    else:
        lengths = [low + round((high - low) * q) for q in quantiles]
    rng.shuffle(lengths)
    return lengths


def plain_records(vocab: Vocabulary, rng: random.Random, count: int,
                  labels: dict[str, float]) -> list[tuple[str, str]]:
    """``count`` (text, label) pairs of plain short texts, labels in the given
    shares; some texts carry commas, quotes and newlines for the CSV writer
    and reader to handle."""
    out = []
    for label, length in zip(exact_shares(rng, count, labels), spread_lengths(rng, count, 4, 24)):
        text = " ".join(rng.choices(vocab.common, k=length))
        x = rng.random()
        if x < 0.05:
            text = f'{text}, "quoted", and more'
        elif x < 0.07:
            text = text.replace(" ", "\n", 1)
        out.append((text, label))
    return out


def confusion_pairs(rng: random.Random, count: int) -> tuple[list[list[int]], list[tuple[str, str]]]:
    """A planted 3x3 confusion matrix (rows gold, columns predicted) with
    every class present, and (gold, predicted) pairs in shuffled order."""
    if count < 30:
        raise ValueError("a planted confusion matrix needs at least 30 labels")
    weights = [[rng.uniform(0.5, 1.0) if g == p else rng.uniform(0.02, 0.25) for p in range(3)]
               for g in range(3)]
    total = sum(map(sum, weights))
    matrix = [[max(1, int(count * w / total)) for w in row] for row in weights]
    matrix[0][0] += count - sum(map(sum, matrix))
    pairs = [(POLARITIES[g], POLARITIES[p]) for g in range(3) for p in range(3)
             for _ in range(matrix[g][p])]
    rng.shuffle(pairs)
    return matrix, pairs


def rating_rows(rng: random.Random, items: int, raters: int) -> list[list[str]]:
    """Per-item labels: each rater agrees with the item's latent class with a
    per-item probability, otherwise picks any class."""
    rows = []
    for _ in range(items):
        truth = rng.choice(POLARITIES)
        p = rng.uniform(0.3, 0.95)
        rows.append([truth if rng.random() < p else rng.choice(POLARITIES) for _ in range(raters)])
    return rows
