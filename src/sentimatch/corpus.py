"""Data model and ingestion for labeled/unlabeled communication corpora.

A corpus is an ordered, immutable collection of documents. Documents carry an
opaque id, raw UTF-8 text, and optionally a label: either one of the three
polarity classes or, before label mapping has run, a raw annotation string
such as an emotion name. Two file formats are supported: CSV (header row
required, RFC-4180 quoting) and JSONL (one object per line). Both use the
column/key names ``id``, ``text`` and ``label``; ``id`` and ``label`` are
optional.
"""

from __future__ import annotations

import csv
import html
import json
import re
import sys
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path
from typing import Iterator, Mapping, Sequence, Union

from .errors import CorpusFormatError, LabelMappingError

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


@dataclass(frozen=True)
class Document:
    """One communication unit (comment, review, message).

    ``label`` may be a :class:`PolarityLabel`, a raw annotation string awaiting
    label mapping, or ``None`` for unlabeled documents. Strings that spell a
    polarity value are normalized to the enum at construction time.
    """

    id: str
    text: str
    label: PolarityLabel | str | None = None

    def __post_init__(self):
        if not self.id:
            raise ValueError("document id must be non-empty")
        if isinstance(self.label, str) and not isinstance(self.label, PolarityLabel):
            try:
                object.__setattr__(self, "label", PolarityLabel(self.label))
            except ValueError:
                pass  # raw label, kept verbatim until a mapping runs

    @property
    def polarity(self) -> PolarityLabel | None:
        """The document's polarity, or None when unlabeled or still raw-labeled."""
        return self.label if isinstance(self.label, PolarityLabel) else None


@dataclass(frozen=True)
class Corpus:
    """Immutable ordered collection of documents with unique ids."""

    documents: tuple[Document, ...]
    source: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "documents", tuple(self.documents))
        seen: set[str] = set()
        for doc in self.documents:
            if doc.id in seen:
                raise ValueError(f"duplicate document id: {doc.id!r}")
            seen.add(doc.id)

    def __len__(self) -> int:
        return len(self.documents)

    def __iter__(self) -> Iterator[Document]:
        return iter(self.documents)

    def raw_labels(self) -> tuple[str, ...]:
        """Distinct labels that are not polarity values (sorted)."""
        return tuple(
            sorted(
                {
                    doc.label
                    for doc in self.documents
                    if isinstance(doc.label, str) and not isinstance(doc.label, PolarityLabel)
                }
            )
        )

    def is_polarity_labeled(self) -> bool:
        """True when every document carries a polarity label."""
        return all(doc.polarity is not None for doc in self.documents)


@dataclass(frozen=True)
class LabelMapping:
    """Rules translating raw label strings to polarity labels (or DROP).

    Rules must be total over the raw labels actually encountered; applying a
    mapping with uncovered labels raises :class:`LabelMappingError` listing
    every offender. Raw labels are case-sensitive.
    """

    rules: Mapping[str, MappingTarget]

    def __post_init__(self):
        object.__setattr__(self, "rules", dict(self.rules))

    @classmethod
    def from_dict(cls, raw: Mapping[str, str]) -> "LabelMapping":
        """Build a mapping from plain strings, e.g. ``{"Excited": "positive", "Sarcasm": "drop"}``."""
        rules: dict[str, MappingTarget] = {}
        for key, value in raw.items():
            if value == "drop":
                rules[key] = DROP
            else:
                try:
                    rules[key] = PolarityLabel(value)
                except ValueError:
                    raise LabelMappingError(
                        f"mapping target for {key!r} must be negative/neutral/positive/drop, got {value!r}"
                    ) from None
        return cls(rules)


@dataclass(frozen=True)
class IngestOptions:
    """Knobs for :func:`load_corpus`.

    ``label_mapping`` translates raw label strings during ingestion and must
    then cover every raw label encountered. ``keep_raw_labels`` loads unknown
    label strings verbatim instead of rejecting them, for a later
    :func:`apply_label_mapping` pass. ``strip_markup`` removes HTML tags and
    unescapes entities (off by default; text is otherwise opaque UTF-8).
    """

    allow_empty_text: bool = False
    strip_markup: bool = False
    keep_raw_labels: bool = False
    label_mapping: LabelMapping | None = None
    source: str | None = None


_TAG_RE = re.compile(r"<[^>]+>")


def _strip_markup(text: str) -> str:
    return html.unescape(_TAG_RE.sub(" ", text))


@dataclass
class _RawRecord:
    row: int  # 1-based row/line number in the file, for error messages
    id: str | None
    text: str
    raw_label: str | None


def _infer_format(path: Path) -> str:
    suffix = path.suffix.lower()
    if suffix == ".csv":
        return "csv"
    if suffix in (".jsonl", ".ndjson"):
        return "jsonl"
    raise CorpusFormatError(
        f"{path}: cannot infer corpus format from suffix {suffix!r}; pass format='csv' or 'jsonl'"
    )


def _read_csv_records(path: Path) -> list[_RawRecord]:
    records: list[_RawRecord] = []
    with open(path, encoding="utf-8-sig", newline="") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None:
            return records
        if "text" not in reader.fieldnames:
            raise CorpusFormatError(f"{path}: CSV header must contain a 'text' column")
        for row_number, row in enumerate(reader, start=2):  # header is row 1
            if row.get(None) is not None:
                raise CorpusFormatError(f"{path}: row {row_number}: more fields than header columns")
            text = row.get("text")
            if text is None:
                raise CorpusFormatError(f"{path}: row {row_number}: missing 'text' field")
            records.append(
                _RawRecord(
                    row=row_number,
                    id=row.get("id") or None,
                    text=text,
                    raw_label=row.get("label") or None,
                )
            )
    return records


def _read_jsonl_records(path: Path) -> list[_RawRecord]:
    records: list[_RawRecord] = []
    with open(path, encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusFormatError(f"{path}: line {line_number}: invalid JSON: {exc}") from exc
            if not isinstance(obj, dict):
                raise CorpusFormatError(f"{path}: line {line_number}: expected a JSON object")
            if "text" not in obj:
                raise CorpusFormatError(f"{path}: line {line_number}: missing 'text' key")
            text = obj["text"]
            if not isinstance(text, str):
                raise CorpusFormatError(f"{path}: line {line_number}: 'text' must be a string")
            raw_id = obj.get("id")
            raw_label = obj.get("label")
            if raw_label is not None and not isinstance(raw_label, str):
                raise CorpusFormatError(f"{path}: line {line_number}: 'label' must be a string or null")
            records.append(
                _RawRecord(
                    row=line_number,
                    id=str(raw_id) if raw_id not in (None, "") else None,
                    text=text,
                    raw_label=raw_label or None,
                )
            )
    return records


def format_auto_id(index: int, width: int) -> str:
    """Zero-padded id assigned to records without an explicit one."""
    return f"{index:0{width}d}"


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
        LabelMappingError: label strings outside the polarity vocabulary with no
            mapping rule and ``keep_raw_labels`` off (all offenders listed).
    """
    path = Path(path)
    options = options or IngestOptions()
    fmt = format or _infer_format(path)
    if fmt == "csv":
        records = _read_csv_records(path)
    elif fmt == "jsonl":
        records = _read_jsonl_records(path)
    else:
        raise CorpusFormatError(f"unknown corpus format {fmt!r}; expected 'csv' or 'jsonl'")

    mapping = options.label_mapping
    width = max(1, len(str(max(len(records) - 1, 0))))
    documents: list[Document] = []
    unmapped: dict[str, int] = {}  # raw label -> first offending row
    for index, record in enumerate(records):
        label: PolarityLabel | str | None = record.raw_label
        if record.raw_label is not None:
            if mapping is not None:
                target = mapping.rules.get(record.raw_label)
                if target is None:
                    unmapped.setdefault(record.raw_label, record.row)
                    continue
                if target is DROP:
                    continue
                label = target
            elif record.raw_label not in PolarityLabel._value2member_map_:
                if not options.keep_raw_labels:
                    unmapped.setdefault(record.raw_label, record.row)
                    continue
        text = _strip_markup(record.text) if options.strip_markup else record.text
        if not text and not options.allow_empty_text:
            raise CorpusFormatError(
                f"{path}: row {record.row}: empty text (pass allow_empty_text to permit)"
            )
        doc_id = record.id if record.id is not None else format_auto_id(index, width)
        documents.append(Document(id=doc_id, text=text, label=label))

    if unmapped:
        offenders = ", ".join(
            f"{label!r} (first at row {row})" for label, row in sorted(unmapped.items())
        )
        raise LabelMappingError(
            f"{path}: unmapped raw labels: {offenders}", unmapped=tuple(sorted(unmapped))
        )
    try:
        return Corpus(documents=tuple(documents), source=options.source)
    except ValueError as exc:
        raise CorpusFormatError(f"{path}: {exc}") from exc


def save_corpus(corpus: Corpus, path: str | Path, format: str | None = None) -> None:
    """Write a corpus back to disk in CSV or JSONL form (inverse of load_corpus)."""
    path = Path(path)
    fmt = format or _infer_format(path)
    if fmt == "csv":
        with open(path, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["id", "text", "label"])
            for doc in corpus:
                writer.writerow([doc.id, doc.text, _label_string(doc) or ""])
    elif fmt == "jsonl":
        with open(path, "w", encoding="utf-8") as handle:
            for doc in corpus:
                obj: dict[str, str] = {"id": doc.id, "text": doc.text}
                label = _label_string(doc)
                if label is not None:
                    obj["label"] = label
                handle.write(json.dumps(obj, ensure_ascii=False) + "\n")
    else:
        raise CorpusFormatError(f"unknown corpus format {fmt!r}; expected 'csv' or 'jsonl'")


def _label_string(doc: Document) -> str | None:
    if doc.label is None:
        return None
    return doc.label.value if isinstance(doc.label, PolarityLabel) else doc.label


def merge_corpora(corpora: Sequence[Corpus], source: str | None = None) -> Corpus:
    """Pool corpora in argument order.

    With more than one input, every id is prefixed with its pool index
    ("0/<id>", "1/<id>", ...) so pooled ids stay unique.
    """
    corpora = list(corpora)
    if len(corpora) == 1:
        return corpora[0] if source is None else replace(corpora[0], source=source)
    documents: list[Document] = []
    for pool_index, corpus in enumerate(corpora):
        for doc in corpus:
            documents.append(replace(doc, id=f"{pool_index}/{doc.id}"))
    return Corpus(documents=tuple(documents), source=source)


def apply_label_mapping(corpus: Corpus, mapping: LabelMapping) -> Corpus:
    """Relabel every labeled document via ``mapping``, removing DROP targets.

    Unlabeled documents pass through untouched. Texts are never modified,
    relative document order is preserved, and output labels are always
    polarity values.
    """
    unmapped: set[str] = set()
    documents: list[Document] = []
    for doc in corpus:
        if doc.label is None:
            documents.append(doc)
            continue
        raw = doc.label.value if isinstance(doc.label, PolarityLabel) else doc.label
        target = mapping.rules.get(raw)
        if target is None:
            unmapped.add(raw)
            continue
        if target is DROP:
            continue
        documents.append(replace(doc, label=target))
    if unmapped:
        raise LabelMappingError(
            f"unmapped raw labels: {', '.join(sorted(unmapped))}", unmapped=tuple(sorted(unmapped))
        )
    return Corpus(documents=tuple(documents), source=corpus.source)


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

    def count(self, label: PolarityLabel) -> int:
        return getattr(self, label.value)

    def to_dict(self) -> dict[str, int]:
        return {
            "negative": self.negative,
            "neutral": self.neutral,
            "positive": self.positive,
            "unlabeled": self.unlabeled,
            "total": self.total,
        }


def class_distribution(corpus: Corpus) -> ClassDistribution:
    """Count documents per polarity class; unlabeled documents get their own bucket.

    Raw (unmapped) labels are rejected: run :func:`apply_label_mapping` first.
    """
    raw = corpus.raw_labels()
    if raw:
        raise LabelMappingError(
            f"corpus still carries raw labels {', '.join(map(repr, raw))}; apply a label mapping first",
            unmapped=raw,
        )
    counts = {label: 0 for label in PolarityLabel}
    unlabeled = 0
    for doc in corpus:
        if doc.label is None:
            unlabeled += 1
        else:
            counts[doc.label] += 1  # normalized to PolarityLabel at construction
    return ClassDistribution(
        negative=counts[PolarityLabel.NEGATIVE],
        neutral=counts[PolarityLabel.NEUTRAL],
        positive=counts[PolarityLabel.POSITIVE],
        unlabeled=unlabeled,
    )
