"""Data model and ingestion for labeled/unlabeled communication corpora.

A corpus is an ordered, immutable collection of documents. Documents carry an
opaque id, raw UTF-8 text, and optionally one of the three polarity classes
as their label; a file's other annotations, such as emotion names, are mapped
to a polarity (or dropped) as the file is loaded. Two file formats are
supported: CSV (header row required, RFC-4180 quoting) and JSONL (one object
per line). Both use the column/key names ``id``, ``text`` and ``label``;
``id`` and ``label`` are optional.
"""

from __future__ import annotations

import csv
import json
import os
import re
import sys
from collections import Counter
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from enum import Enum
from importlib import resources
from itertools import repeat
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence, TextIO, Union

from .errors import CorpusFormatError, LabelMappingError, named

# A document may be longer than the csv module's default 131,072-character
# field limit (a pasted log, say). The limit is process-wide, so this also
# covers every other CSV reader of the package; 2**31 - 1 fits a C long on
# every platform.
csv.field_size_limit(min(sys.maxsize, 2**31 - 1))


class PolarityLabel(str, Enum):
    """Three-way sentiment polarity. Definition order is the canonical class order."""

    NEGATIVE = "negative"
    NEUTRAL = "neutral"
    POSITIVE = "positive"


#: Canonical class order (negative < neutral < positive), used for tie-breaking.
CLASS_ORDER: tuple[PolarityLabel, ...] = tuple(PolarityLabel)

#: Polarity member by value; the members hash and compare as their values,
#: so a member looks itself up too.
_POLARITY = PolarityLabel._value2member_map_


class _Drop:
    """Sentinel marking documents to remove during label mapping."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "DROP"


#: Map a raw label to ``DROP`` to remove its documents instead of relabeling them.
DROP = _Drop()

MappingTarget = Union[PolarityLabel, _Drop]


@dataclass(frozen=True, slots=True)
class Document:
    """One communication unit (comment, review, message).

    ``id`` is a non-empty string and ``text`` a string. ``label`` is a
    :class:`PolarityLabel`, or ``None`` for an unlabeled document. A string
    that spells a polarity value is normalized to the enum at construction
    time. Any other id, text or label raises ``ValueError``. Documents are
    slotted: they have no ``__dict__`` and take no other attributes.
    """

    id: str
    text: str
    label: PolarityLabel | None = None

    def __post_init__(self):
        if not (isinstance(self.id, str) and self.id and isinstance(self.text, str)):
            got = f"id {self.id!r} and a text of type {type(self.text).__name__}"
            raise ValueError(f"document needs a non-empty str id and a str text, got {got}")
        if self.label is not None:
            try:
                object.__setattr__(self, "label", _POLARITY[self.label])
            except (KeyError, TypeError):  # TypeError: an unhashable label
                raise ValueError(f"document label must be a polarity or None, got {self.label!r}") from None


_new_object = object.__new__
_set_id, _set_text, _set_label = Document.id.__set__, Document.text.__set__, Document.label.__set__


def _trusted_document(doc_id: str, text: str, label: PolarityLabel | None) -> Document:
    """A document built from values its caller has checked: a non-empty id, a
    text and a polarity member or None. It skips ``Document``'s own checks, so
    only this module calls it, on values read and checked here."""
    document = _new_object(Document)
    _set_id(document, doc_id)
    _set_text(document, text)
    _set_label(document, label)
    return document


def _check_unique_ids(ids: list[str]) -> None:
    """Raise ``ValueError`` naming the first id that repeats in ``ids``."""
    if len(set(ids)) == len(ids):
        return
    seen: set[str] = set()
    for doc_id in ids:  # name the first repeat
        if doc_id in seen:
            raise ValueError(f"duplicate document id: {doc_id!r}")
        seen.add(doc_id)


@dataclass(frozen=True)
class Corpus:
    """Immutable ordered collection of documents with unique ids."""

    documents: tuple[Document, ...]

    def __post_init__(self):
        object.__setattr__(self, "documents", tuple(self.documents))
        _check_unique_ids([doc.id for doc in self.documents])

    def __len__(self) -> int:
        return len(self.documents)

    def __iter__(self) -> Iterator[Document]:
        return iter(self.documents)


def _trusted_corpus(documents: tuple[Document, ...]) -> Corpus:
    """A corpus of documents whose ids its caller has checked to be unique. It
    skips ``Corpus``'s own check, so only this module calls it."""
    corpus = _new_object(Corpus)
    object.__setattr__(corpus, "documents", documents)
    return corpus


@dataclass(frozen=True)
class LabelMapping:
    """Rules translating raw label strings to polarity members (or DROP, also given as "drop").

    Rules must be total over the raw labels actually encountered; loading a
    file with uncovered labels raises :class:`LabelMappingError` listing
    every offender, as does any other target. Raw labels are case-sensitive.
    """

    rules: Mapping[str, MappingTarget]

    def __post_init__(self):
        rules: dict[str, MappingTarget] = {}
        for key, value in dict(self.rules).items():
            try:
                rules[key] = DROP if value is DROP or value == "drop" else PolarityLabel(value)
            except ValueError:
                raise LabelMappingError(
                    f"mapping target for {key!r} must be negative/neutral/positive/drop, got {value!r}"
                ) from None
        object.__setattr__(self, "rules", rules)

    @classmethod
    def from_dict(cls, raw: Mapping[str, object]) -> "LabelMapping":
        """Build a mapping from plain strings, e.g. ``{"Excited": "positive", "Sarcasm": "drop"}``."""
        return cls(raw)


@dataclass(frozen=True)
class IngestOptions:
    """Knobs for :func:`load_corpus`.

    ``label_mapping`` translates raw label strings during ingestion and must
    then cover every raw label encountered; without one, every label must
    spell a polarity value. ``strip_markup`` removes HTML tags and unescapes
    entities (off by default; text is otherwise opaque UTF-8).
    ``allow_empty_text`` keeps a document whose text (after ``strip_markup``) is empty.
    """

    allow_empty_text: bool = False
    strip_markup: bool = False
    label_mapping: LabelMapping | None = None


@contextmanager
def open_input(path: str | Path, error: type[Exception], newline: str | None = None) -> Iterator[TextIO]:
    """Open an input file as UTF-8 text, skipping a leading byte order mark; a bad
    byte read in the block raises ``error`` naming the file and the byte's offset
    in it, and a ``csv.Error`` raised in the block raises ``error`` naming the file."""
    with open(path, encoding="utf-8-sig", newline=newline) as handle, named(path, (UnicodeDecodeError, csv.Error), error):
        try:
            yield handle
        except UnicodeDecodeError:  # its offset counts from the start of the failing chunk
            Path(path).read_bytes().decode("utf-8")  # raises with the offset in the file
            raise


def read_json(path: str | Path, error: type[Exception]) -> object:
    """The parsed JSON document of an input file. Invalid JSON, nesting too
    deep to parse and an integer too long to convert raise ``error``."""
    with open_input(path, error) as handle:
        text = handle.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise error(f"{path}: invalid JSON: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        raise error(f"{path}: {exc}") from exc


def data_path(name: str) -> Path:
    """The location of the bundled data file ``name``."""
    return Path(str(resources.files(__package__) / "data" / name))


_TAG_RE = re.compile(r"<[^>]+>")
_SURROGATE_RE = re.compile(r"[\ud800-\udfff]")


def _strip_markup(text: str) -> str:
    import html  # only a load with strip_markup pays for html.entities

    return html.unescape(_TAG_RE.sub(" ", text))


class _Records:
    """The records of a file, held by column. For each record, ``rows`` holds
    its 1-based row or line number, for error messages; ``ids`` its id or
    None; ``texts`` its text, or the whole column is None for a label file;
    and ``labels`` its raw label or None, each distinct label string once.
    Only a corpus's JSONL labels are type-checked as they are read."""

    __slots__ = ("rows", "ids", "texts", "labels")

    def __init__(self, rows: Sequence[int], ids: list[str | None], texts: list[str] | None, labels: list):
        self.rows, self.ids, self.texts, self.labels = rows, ids, texts, labels

    def __len__(self) -> int:
        return len(self.ids)


#: What ``json.loads`` runs on a line, minus its wrappers: the scanner of a
#: default decoder (the C one).
_SCAN = json.JSONDecoder().scan_once
#: The quoted JSON string ``json.dumps(..., ensure_ascii=False)`` writes.
_quote = json.encoder.encode_basestring
#: What follows a JSONL line's text, by the document's label.
_JSONL_ENDS = {None: "}\n", **{label: f', "label": "{label.value}"}}\n' for label in CLASS_ORDER}}


def _corpus_format(path: str | os.PathLike, format: str | None) -> str:
    """``format``, checked to be 'csv' or 'jsonl', or else the one ``path``'s suffix names."""
    if format in ("csv", "jsonl"):
        return format
    if format:
        raise CorpusFormatError(f"unknown corpus format {format!r}; expected 'csv' or 'jsonl'")
    path = Path(path)
    suffix = path.suffix.lower()
    if suffix == ".csv":
        return "csv"
    if suffix in (".jsonl", ".ndjson"):
        return "jsonl"
    raise CorpusFormatError(
        f"{path}: cannot infer corpus format from suffix {suffix!r}; "
        "pass format='csv' or 'jsonl' (--corpus-format on the command line)"
    )


def _read_csv_records(path: Path, kind: str = "corpus") -> _Records:
    """Records of a CSV file with a header row; blank rows are skipped, so the
    record at index i is row i + 2.

    ``kind`` is ``"corpus"`` or ``"texts"``, whose header must hold a ``text``
    column and whose rows may not hold more fields than the header, or
    ``"labels"`` for a label file, whose header must hold a ``label`` column
    and whose text and extra fields are ignored.
    """
    required = "label" if kind == "labels" else "text"
    ids: list[str | None] = []
    texts: list[str] | None = [] if required == "text" else None
    labels: list[str | None] = []
    with open_input(path, CorpusFormatError, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None:
            return _Records(range(0), ids, texts, labels)
        if required not in header:
            raise CorpusFormatError(f"{path}: CSV header must contain a '{required}' column")
        width = len(header)
        column = {name: index for index, name in enumerate(header)}  # a repeated name: the last wins
        # Each row is brought to ``width + 1`` fields, short ones padded with
        # None; an absent column reads the last field, always None.
        id_at, label_at = column.get("id", width), column.get("label", width)
        text_at = column["text"] if texts is not None else width
        pad = [None] * (width + 1)
        seen = {"": None, None: None}  # each label once; an empty or absent one is None
        for row in filter(None, reader):
            if len(row) == width:
                row.append(None)
            elif len(row) > width and texts is not None:
                raise CorpusFormatError(f"{path}: row {len(ids) + 2}: more fields than header columns")
            else:
                row = (row[:width] + pad)[: width + 1]
            if texts is not None:
                text = row[text_at]
                if text is None:
                    raise CorpusFormatError(f"{path}: row {len(ids) + 2}: missing 'text' field")
                texts.append(text)
            ids.append(row[id_at] or None)
            label = row[label_at]
            labels.append(seen.setdefault(label, label))
    return _Records(range(2, len(ids) + 2), ids, texts, labels)


def _parse_json_line(line: str) -> object:
    """``json.loads(line)``. A value scanned from column 0 and followed by
    ``"\n"`` or nothing is the line's, and the scanner's errors are those
    ``json.loads`` raises; any other line, with no value at column 0 or with
    more than ``"\n"`` after it, goes to ``json.loads`` whole."""
    try:
        value, end = _SCAN(line, 0)
    except StopIteration:  # white space first, or no JSON value at all
        return json.loads(line)
    return value if line[end:] in ("\n", "") else json.loads(line)


def _read_jsonl_records(path: Path, kind: str = "corpus") -> _Records:
    """Records of a JSONL file, one object per line; blank lines are skipped.

    ``kind`` is ``"corpus"``, whose objects must hold a string ``text`` and a
    string or null ``label``; ``"texts"``, whose objects must hold a string
    ``text`` and may hold any label; or ``"labels"`` for a label file, whose
    text is ignored and whose labels load_labels checks. An id or text
    holding a lone surrogate, which UTF-8 cannot encode, is an error.
    """
    rows: list[int] | None = None  # until a blank line, the record at index i is line i + 1
    ids: list[str | None] = []
    texts: list[str] | None = None if kind == "labels" else []
    labels: list = []
    seen: dict[str, str] = {}  # each label string once
    with open_input(path, CorpusFormatError) as handle:
        for line_number, line in enumerate(handle, start=1):
            if line.isspace():
                if rows is None:
                    rows = list(range(1, line_number))
                continue
            try:
                obj = _parse_json_line(line)
            except json.JSONDecodeError as exc:
                raise CorpusFormatError(f"{path}: line {line_number}: invalid JSON: {exc}") from exc
            except (ValueError, RecursionError) as exc:  # an integer too long, nesting too deep
                raise CorpusFormatError(f"{path}: line {line_number}: {exc}") from exc
            if not isinstance(obj, dict):
                raise CorpusFormatError(f"{path}: line {line_number}: expected a JSON object")
            raw_label = obj.get("label")
            text = None
            if texts is not None:
                if "text" not in obj:
                    raise CorpusFormatError(f"{path}: line {line_number}: missing 'text' key")
                text = obj["text"]
                if not isinstance(text, str):
                    raise CorpusFormatError(f"{path}: line {line_number}: 'text' must be a string")
                if kind == "corpus" and raw_label is not None and not isinstance(raw_label, str):
                    raise CorpusFormatError(f"{path}: line {line_number}: 'label' must be a string or null")
            raw_id = obj.get("id")
            doc_id = str(raw_id) if raw_id not in (None, "") else None
            if "\\u" in line:  # decoded UTF-8 holds no surrogate; only an escape makes one
                for key, value in (("id", doc_id), ("text", text)):
                    if value and _SURROGATE_RE.search(value):
                        raise CorpusFormatError(
                            f"{path}: line {line_number}: {key!r} holds a lone surrogate, "
                            "which UTF-8 cannot encode"
                        )
            if rows is not None:
                rows.append(line_number)
            ids.append(doc_id)
            if texts is not None:
                texts.append(text)
            if type(raw_label) is str:  # a label of another type may be unhashable
                raw_label = seen.setdefault(raw_label, raw_label)
            labels.append(raw_label or None)
    return _Records(range(1, len(ids) + 1) if rows is None else rows, ids, texts, labels)


def _read_records(path: Path, format: str | None, kind: str) -> _Records:
    if _corpus_format(path, format) == "csv":
        return _read_csv_records(path, kind)
    return _read_jsonl_records(path, kind)


def _record_ids(records: _Records) -> list[str]:
    """Each record's explicit id, or else its zero-padded index in the file,
    filled into the reader's own ``ids`` list, which is returned."""
    ids = records.ids
    if None not in ids:
        return ids
    width = max(1, len(str(max(len(ids) - 1, 0))))
    for index, raw_id in enumerate(ids):
        if raw_id is None:
            ids[index] = str(index).zfill(width)
    return ids


def _built_corpus(path: Path, ids: list[str], texts: Sequence[str], labels: Iterable) -> Corpus:
    """The corpus of a file's kept records, given by column. Their ids are
    checked before any document exists, so a repeated id is an error naming
    the file; then each document and the corpus are built once."""
    with named(path, ValueError, CorpusFormatError):
        _check_unique_ids(ids)
    return _trusted_corpus(tuple(map(_trusted_document, ids, texts, labels)))


def load_corpus(
    path: str | Path,
    format: str | None = None,
    options: IngestOptions | None = None,
) -> Corpus:
    """Load a corpus from a CSV or JSONL file.

    Missing ids are auto-assigned as zero-padded record indices. Records whose
    raw label maps to DROP are removed. Loading the same file twice yields an
    identical corpus.

    Raises:
        CorpusFormatError: malformed file/row, duplicate explicit id, empty text
            without ``allow_empty_text``.
        LabelMappingError: labels that the label mapping does not cover or,
            without one, that are not polarity values (all offenders listed).
    """
    path = Path(path)
    options = options or IngestOptions()
    records = _read_records(path, format, "corpus")

    # the mapping's targets and the polarity values are never None, so None means unmapped
    labels = _POLARITY if options.label_mapping is None else options.label_mapping.rules
    kept_ids: list[str] = []
    kept_texts: list[str] = []
    kept_labels: list[PolarityLabel | None] = []
    unmapped: dict[str, int] = {}  # raw label -> index of its first record
    columns = zip(_record_ids(records), records.texts, records.labels)
    for index, (doc_id, text, raw_label) in enumerate(columns):
        label = None
        if raw_label is not None:
            label = labels.get(raw_label)
            if label is None:
                unmapped.setdefault(raw_label, index)
                continue
            if label is DROP:
                continue
        if options.strip_markup:
            text = _strip_markup(text)
        if not text and not options.allow_empty_text:
            raise CorpusFormatError(
                f"{path}: row {records.rows[index]}: empty text (pass allow_empty_text to permit)"
            )
        kept_ids.append(doc_id)
        kept_texts.append(text)
        kept_labels.append(label)

    if unmapped:
        offenders = ", ".join(
            f"{label!r} (first at row {records.rows[first]})" for label, first in sorted(unmapped.items())
        )
        raise LabelMappingError(
            f"{path}: unmapped raw labels: {offenders}", unmapped=tuple(sorted(unmapped))
        )
    # the file's columns, with the strings of dropped records, go before the corpus is built
    del records, columns
    return _built_corpus(path, kept_ids, kept_texts, kept_labels)


def load_texts(path: str | Path, format: str | None = None) -> Corpus:
    """Load a corpus file's texts as unlabeled documents, for its statistics.

    Any label and an empty text are accepted; the file's format errors, its
    ids and a duplicate explicit id are as in :func:`load_corpus`.
    """
    path = Path(path)
    records = _read_records(path, format, "texts")
    return _built_corpus(path, _record_ids(records), records.texts, repeat(None))


def load_labels(path: str | Path, format: str | None = None) -> dict[str, PolarityLabel]:
    """Load an id -> polarity mapping, in file order, from a CSV or JSONL label file.

    Only ``label`` is required; ``text`` and any other columns are ignored.
    Missing ids are auto-assigned as in :func:`load_corpus`.

    Raises:
        CorpusFormatError: malformed file/row, a record without a polarity
            label, a duplicate id, or no records at all.
    """
    path = Path(path)
    records = _read_records(path, format, "labels")
    ids = _record_ids(records)
    try:
        labels = dict(zip(ids, map(_POLARITY.__getitem__, records.labels)))
    except (KeyError, TypeError):  # TypeError: an unhashable JSON value
        labels = {}
    if len(labels) < len(ids):  # a bad label or a repeated id: walk the records to name the first
        labels = {}
        for index, (doc_id, raw_label) in enumerate(zip(ids, records.labels)):
            try:
                label = _POLARITY[raw_label]
            except (KeyError, TypeError):
                row = records.rows[index]
                if raw_label is None:
                    raise CorpusFormatError(f"{path}: row {row}: document has no polarity label") from None
                raise CorpusFormatError(f"{path}: row {row}: {raw_label!r} is not a polarity label") from None
            if doc_id in labels:
                raise CorpusFormatError(f"{path}: row {records.rows[index]}: duplicate document id {doc_id!r}")
            labels[doc_id] = label
    if not labels:
        raise CorpusFormatError(f"{path}: no labeled records found")
    return labels


def save_corpus(
    corpus: Corpus, target: str | os.PathLike | TextIO, format: str | None = None
) -> None:
    """Write a corpus in CSV or JSONL form (inverse of load_corpus).

    ``target`` is a path, whose suffix gives the format unless ``format`` is
    passed, or an open text stream such as ``sys.stdout``, which needs
    ``format``. Both give the same text; CSV rows end in ``\\r\\n``.
    """
    to_path = isinstance(target, (str, os.PathLike))
    if not to_path and not format:
        raise CorpusFormatError("writing a corpus to a stream needs format='csv' or 'jsonl'")
    fmt = _corpus_format(target, format)
    with open(target, "w", encoding="utf-8", newline="") if to_path else nullcontext(target) as handle:
        if fmt == "csv":
            writer = csv.writer(handle)
            writer.writerow(["id", "text", "label"])
            writer.writerows([doc.id, doc.text, doc.label.value if doc.label else ""] for doc in corpus)
        else:
            handle.writelines(map(_jsonl_line, corpus))


def _jsonl_line(doc: Document) -> str:
    """The line ``json.dumps(obj, ensure_ascii=False)`` writes for a document,
    built from the string encoder."""
    return f'{{"id": {_quote(doc.id)}, "text": {_quote(doc.text)}{_JSONL_ENDS[doc.label]}'


def merge_corpora(corpora: Sequence[Corpus]) -> Corpus:
    """Pool corpora in argument order.

    With more than one input, every id is prefixed with its pool index
    ("0/<id>", "1/<id>", ...) so pooled ids stay unique.
    """
    corpora = list(corpora)
    if len(corpora) == 1:
        return corpora[0]
    documents: list[Document] = []
    for pool_index, corpus in enumerate(corpora):
        for doc in corpus:
            documents.append(_trusted_document(f"{pool_index}/{doc.id}", doc.text, doc.label))
    return _trusted_corpus(tuple(documents))  # each input's ids are unique; the first "/" ends the index


@dataclass(frozen=True)
class ClassDistribution:
    """Per-class document counts plus an ``unlabeled`` bucket."""

    negative: int = 0
    neutral: int = 0
    positive: int = 0
    unlabeled: int = 0

    @property
    def total(self) -> int:
        return self.negative + self.neutral + self.positive + self.unlabeled

    def to_dict(self) -> dict[str, int]:
        return {
            "negative": self.negative,
            "neutral": self.neutral,
            "positive": self.positive,
            "unlabeled": self.unlabeled,
            "total": self.total,
        }


def class_distribution(corpus: Iterable[Document]) -> ClassDistribution:
    """Count documents per polarity class; unlabeled documents get their own bucket."""
    counts = Counter(doc.label for doc in corpus)
    return ClassDistribution(
        negative=counts[PolarityLabel.NEGATIVE],
        neutral=counts[PolarityLabel.NEUTRAL],
        positive=counts[PolarityLabel.POSITIVE],
        unlabeled=counts[None],
    )
